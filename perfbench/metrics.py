"""Metric definitions: end-to-end figures and per-layer figures from spans.

Every per-slot figure divides by all slots the workload advances (learner
plus baseline slots on ``power-repro``), so the per-layer self times per slot
add up to the traced ``us_per_slot``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import COUNTS, END, NAME, PARENT, START, contexts, self_times

# name -> unit; `failed_frac` is carried by attempted/failed
END_TO_END = {"wall_s": "s", "setup_s": "s", "us_per_slot": "us", "peak_rss_mb": "MB"}

SLOT_SPANS = ("optimizer.dosp_slot", "optimizer.ideal_gradient_slot")


class Summary:
    """Calls, inclusive and self time, and counts per (span name, phase)."""

    def __init__(self, spans, slots: int):
        self.slots = slots
        self.spans = spans
        self.calls: dict = defaultdict(int)
        self.incl_ns: dict = defaultdict(int)
        self.self_ns: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self.layer_ns: dict = defaultdict(int)
        for s, own, phase in zip(spans, self_times(spans), contexts(spans)):
            self.layer_ns[s[NAME].split(".")[0]] += own
            for key in ((s[NAME], phase), (s[NAME], "*")):
                self.calls[key] += 1
                self.incl_ns[key] += s[END] - s[START]
                self.self_ns[key] += own
                for counter, value in (s[COUNTS] or {}).items():
                    self.counts[key + (counter,)] += value

    def per_slot_us(self, ns: float) -> float:
        return ns / 1e3 / self.slots

    def durations_us(self, names) -> list[float]:
        return [(s[END] - s[START]) / 1e3 for s in self.spans if s[NAME] in names]


def _percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _ratio(num, den):
    return num / den if den else 0.0


S, M, A = "slot", "metrics", "analysis"

# (name, unit, spans it needs, value) -- reported on every workload and listed
# in BENCHMARK.json; a metric whose spans are all absent reports 0.
PER_LAYER = [
    ("optimizer.self_us", "us", (), lambda m: m.per_slot_us(m.layer_ns["optimizer"])),
    ("optimizer.dosp_slot.self_us", "us", ("optimizer.dosp_slot",),
     lambda m: m.per_slot_us(m.self_ns["optimizer.dosp_slot", "*"])),
    ("optimizer.sample_step_index.us", "us", ("optimizer.sample_step_index",),
     lambda m: m.per_slot_us(m.incl_ns["optimizer.sample_step_index", S])),
    ("optimizer.project.us", "us", ("optimizer.project",),
     lambda m: m.per_slot_us(m.incl_ns["optimizer.project", S])),
    ("optimizer.index_draws", "count", ("optimizer.sample_step_index",),
     lambda m: m.counts["optimizer.sample_step_index", S, "draws"] / m.slots),
    ("optimizer.active_entries", "count", ("optimizer.sample_step_index",),
     lambda m: m.counts["optimizer.sample_step_index", S, "live"] / m.slots),
    ("optimizer.index_live_frac", "ratio", ("optimizer.sample_step_index",),
     lambda m: _ratio(m.counts["optimizer.sample_step_index", S, "live"],
                      m.counts["optimizer.sample_step_index", S, "draws"])),
    ("optimizer.initialize_states.ms", "ms", ("optimizer.initialize_states",),
     lambda m: _ratio(m.incl_ns["optimizer.initialize_states", "*"] / 1e6,
                      m.calls["optimizer.initialize_states", "*"])),
    ("optimizer.slot_us.p50", "us", SLOT_SPANS,
     lambda m: _percentile(m.durations_us(SLOT_SPANS), 50)),
    ("optimizer.slot_us.p99", "us", SLOT_SPANS,
     lambda m: _percentile(m.durations_us(SLOT_SPANS), 99)),
    ("optimizer.slot_us.samples", "count", SLOT_SPANS,
     lambda m: sum(m.calls[name, "*"] for name in SLOT_SPANS)),
    ("core.self_us", "us", (), lambda m: m.per_slot_us(m.layer_ns["core"])),
    ("core.PerturbationSpec.sample.us", "us", ("core.PerturbationSpec.sample",),
     lambda m: m.per_slot_us(m.incl_ns["core.PerturbationSpec.sample", S])),
    ("core.StepSizeSchedule.calls", "count", ("core.StepSizeSchedule",),
     lambda m: m.calls["core.StepSizeSchedule", S] / m.slots),
    ("core.StepSizeSchedule.us", "us", ("core.StepSizeSchedule",),
     lambda m: m.per_slot_us(m.incl_ns["core.StepSizeSchedule", S])),
    ("network.self_us", "us", (), lambda m: m.per_slot_us(m.layer_ns["network"])),
    ("network.sample_obs_noise.us", "us", ("network.sample_obs_noise",),
     lambda m: m.per_slot_us(m.incl_ns["network.sample_obs_noise", S])),
    ("network.sample_activity.calls_per_slot", "count", ("network.sample_activity",),
     lambda m: m.calls["network.sample_activity", S] / m.slots),
    ("objectives.self_us", "us", (), lambda m: m.per_slot_us(m.layer_ns["objectives"])),
    ("objectives.sample_env.us.slot", "us", ("objectives.sample_env",),
     lambda m: m.per_slot_us(m.incl_ns["objectives.sample_env", S])),
    ("objectives.local_utilities.us.slot", "us", ("objectives.local_utilities",),
     lambda m: m.per_slot_us(m.incl_ns["objectives.local_utilities", S])),
    ("objectives.pairs_per_slot", "count", ("objectives.sample_env",),
     lambda m: m.counts["objectives.sample_env", S, "pairs"] / m.slots),
    ("harness.self_us", "us", (), lambda m: m.per_slot_us(m.layer_ns["harness"])),
    ("harness.run_experiment.self_us", "us", ("harness.run_experiment",),
     lambda m: m.per_slot_us(m.self_ns["harness.run_experiment", "*"])),
    ("harness.emit_outputs.ms", "ms", ("harness.emit_outputs",),
     lambda m: m.incl_ns["harness.emit_outputs", "*"] / 1e6),
    ("harness.emit_outputs.bytes", "bytes", ("harness.emit_outputs",),
     lambda m: m.counts["harness.emit_outputs", "*", "bytes"]),
    ("harness.trace_records", "count", ("optimizer.dosp_slot",),
     lambda m: m.counts["optimizer.dosp_slot", "*", "records"]),
    ("setup.import.ms", "ms", ("setup.import",),
     lambda m: m.incl_ns["setup.import", "*"] / 1e6),
]

# Layers that only some workloads exercise.  They are reported in the table
# and the results file ("not called" where a workload skips the layer) but
# not in the final JSON line, whose metrics every workload must measure.
WORKLOAD_SPECIFIC = [
    ("optimizer.ideal_gradient_slot.self_us", "us", ("optimizer.ideal_gradient_slot",),
     lambda m: m.per_slot_us(m.self_ns["optimizer.ideal_gradient_slot", "*"])),
    ("network.sample_activity.us", "us", ("network.sample_activity",),
     lambda m: m.per_slot_us(m.incl_ns["network.sample_activity", S])),
    ("objectives.sample_env.us.metrics", "us", ("harness.eval_F_batch",),
     lambda m: m.per_slot_us(m.incl_ns["objectives.sample_env", M])),
    ("objectives.local_utilities.us.metrics", "us", ("harness.eval_F_batch",),
     lambda m: m.per_slot_us(m.incl_ns["objectives.local_utilities", M])),
    ("objectives.global_gradient.us.slot", "us", ("objectives.global_gradient",),
     lambda m: m.per_slot_us(m.incl_ns["objectives.global_gradient", S])),
    ("objectives.global_gradient.us.metrics", "us", ("harness.eval_F_batch",),
     lambda m: m.per_slot_us(m.incl_ns["objectives.global_gradient", M])),
    ("harness.eval_F_batch.ms_per_record", "ms", ("harness.eval_F_batch",),
     lambda m: _ratio(m.incl_ns["harness.eval_F_batch", "*"] / 1e6,
                      m.calls["harness.eval_F_batch", "*"])),
    ("harness.eval_F_batch.rows_per_record", "count", ("harness.eval_F_batch",),
     lambda m: _ratio(m.counts["harness.eval_F_batch", "*", "rows"],
                      m.calls["harness.eval_F_batch", "*"])),
    ("analysis.self_ms", "ms", ("analysis.rate_params",),
     lambda m: m.layer_ns["analysis"] / 1e6),
    ("analysis.rate_params.ms", "ms", ("analysis.rate_params",),
     lambda m: m.incl_ns["analysis.rate_params", "*"] / 1e6),
    ("analysis.averaged_steps_grid.ms", "ms", ("analysis.averaged_steps_grid",),
     lambda m: m.incl_ns["analysis.averaged_steps_grid", "*"] / 1e6),
    ("analysis.binomial_weights.calls", "count", ("analysis.binomial_weights",),
     lambda m: m.calls["analysis.binomial_weights", "*"]),
    ("analysis.rate_envelope.ms", "ms", ("analysis.rate_envelope",),
     lambda m: m.incl_ns["analysis.rate_envelope", "*"] / 1e6),
    ("analysis.recurrence_envelope.ms", "ms", ("analysis.recurrence_envelope",),
     lambda m: m.incl_ns["analysis.recurrence_envelope", "*"] / 1e6),
    ("core.StepSizeSchedule.analysis_calls", "count", ("analysis.rate_params",),
     lambda m: m.calls["core.StepSizeSchedule", A]),
    ("chart.write_line_chart.ms", "ms", ("chart.write_line_chart",),
     lambda m: m.incl_ns["chart.write_line_chart", "*"] / 1e6),
    ("cli.main.self_ms", "ms", ("cli.main",),
     lambda m: m.self_ns["cli.main", "*"] / 1e6),
]


def layer_metrics(spans, slots: int, absent) -> dict[str, dict]:
    """Every per-layer metric as {"value", "unit", "status"}.

    status is "ok", "absent" (no hook target of the metric exists) or
    "not called" (the hook exists but this workload never reached it).
    """
    m = Summary(spans, slots)
    out = {}
    for table in (PER_LAYER, WORKLOAD_SPECIFIC):
        for name, unit, needs, value in table:
            if needs and all(n in absent for n in needs):
                status = "absent"
            elif needs and not any(m.calls[n, "*"] for n in needs):
                status = "not called"
            else:
                status = "ok"
            out[name] = {"value": float(value(m)) if status == "ok" else None,
                         "unit": unit, "status": status}
    return out


def e2e_from_spans(spans, t0_ns: int) -> dict[str, list]:
    """Set-up and slot-loop intervals of one run, from process start ``t0_ns``.

    Set-up ends when the first ``initialize_states`` returns; the slot loop
    of a ``run_experiment`` call is what follows its ``initialize_states``.
    Intervals are ``[start_ns, end_ns]`` on the system-wide monotonic clock.
    """
    setup_end = None
    loops = []
    for i, s in enumerate(spans):
        if s[NAME] == "optimizer.initialize_states" and setup_end is None:
            setup_end = s[END]
        if s[NAME] == "harness.run_experiment":
            begin = s[START]
            for c in spans[i + 1:]:
                if c[START] >= s[END]:
                    break
                if c[NAME] == "optimizer.initialize_states" and c[PARENT] == i:
                    begin = c[END]
                    break
            loops.append([begin, s[END]])
    if setup_end is None:
        starts = [s[START] for s in spans if s[NAME] == "harness.run_experiment"]
        setup_end = min(starts) if starts else t0_ns
    return {"setup_ns": [t0_ns, setup_end], "loop_ns": loops}

"""Run one workload once in a fresh process and record its timings.

    python3 perfbench/child.py <workdir> <workload> <trace 0|1> <spawn_ns>

``<workdir>`` holds the generated config YAMLs.  ``<spawn_ns>`` is the
parent's ``time.perf_counter_ns()`` just before it started this process (the
clock is system-wide), so interpreter start-up is part of set-up and of the
traced spans.

The program's science outputs go to ``<workdir>/out``; timings go to
``<workdir>/timing.json`` and, when traced, the spans to
``<workdir>/spans.csv``.  Untraced runs also record the host-speed
calibration samples (``calibrate.py``) in ``timing.json``.  Correctness is
checked by the parent from the files in ``out``, so checking costs nothing
here.
"""

import time

T0_NS = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from calibrate import Sampler  # noqa: E402
from metrics import e2e_from_spans  # noqa: E402
from tracer import E2E_HOOKS, LAYER_HOOKS, Tracer  # noqa: E402


def _load(workdir, stem):
    from dosp.harness import ExperimentConfig
    return ExperimentConfig.from_yaml(os.path.join(workdir, f"{stem}.yaml"))


def divergence_rate(workdir, out):
    from dosp import analysis, harness

    cfg = _load(workdir, "config")
    ds = harness.run_experiment(cfg)
    model = harness.build_model(cfg)
    t = time.perf_counter_ns()
    consts = analysis.ModelConstants(
        alpha_F=model.alpha_F(cfg.network.q_activity), alpha_G=model.alpha_G,
        lipschitz=model.lipschitz(cfg.bounds), sigma_eta=cfg.sigma_eta,
        sigma_a_sq=cfg.bounds.sigma_a_sq)
    params = analysis.rate_params(cfg.schedule, cfg.network, consts, cfg.perturbation,
                                  cfg.horizon, bounds=cfg.bounds, a_star=model.optimum_hint)
    table = analysis.rate_envelope(params, ds.ks)
    iterated = analysis.recurrence_envelope(params, float(ds.D[0]), 1, cfg.horizon)
    analysis_ns = [t, time.perf_counter_ns()]
    harness.emit_outputs(ds, out, svg=True, loglog=True)
    record = {key: getattr(params, key) for key in
              ("A", "B", "C", "K0", "K1", "K2", "eps1", "eps2", "eps3", "eps4", "status")}
    record["envelope"] = [float(v) for v in table.envelope]
    record["recurrence"] = [float(v) for v in iterated[ds.ks - 1]]
    with open(os.path.join(out, "analysis.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return {"analysis_ns": analysis_ns}


def power_repro(workdir, out):
    from dosp import harness

    configs = {stem: _load(workdir, stem) for stem in ("learner", "baseline")}
    for stem, cfg in configs.items():
        harness.emit_outputs(harness.run_experiment(cfg), os.path.join(out, stem))
    return {}


def wide_poisson(workdir, out):
    from dosp import harness

    cfg = _load(workdir, "config")
    harness.emit_outputs(harness.run_experiment(cfg), out)
    return {}


def power_single(workdir, out):
    from dosp import cli

    config = os.path.join(workdir, "config.yaml")
    return {"rc": cli.main(["run", "--config", config, "--out", out, "--trace"])}


RUNNERS = {
    "divergence-rate": divergence_rate,
    "power-repro": power_repro,
    "wide-poisson": wide_poisson,
    "power-single": power_single,
}


def main(argv):
    workdir, name, traced, spawn_ns = argv[1], argv[2], argv[3] == "1", int(argv[4])
    # the calibration samples would land inside the traced spans, so only
    # untraced runs take them
    sampler = Sampler()
    if not traced:
        sampler.start()
    tracer = Tracer()
    root = tracer.open("bench.child", start_ns=spawn_ns)
    tracer.add("setup.interpreter", spawn_ns, T0_NS)
    with tracer.span("setup.import"):
        import dosp.cli  # noqa: F401  (imports every dosp module)
    absent = tracer.install(LAYER_HOOKS if traced else E2E_HOOKS)
    record = RUNNERS[name](workdir, os.path.join(workdir, "out"))
    tracer.close(root)
    sampler.stop()

    record["absent"] = absent
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        # per-layer figures are computed by the parent from the span file, so
        # the traced process spends as little as possible outside its spans
        tracer.write(os.path.join(workdir, "spans.csv"))
        record["broken_counters"] = sorted(tracer.broken_counters)
    else:
        record.update(e2e_from_spans(tracer.spans, spawn_ns))
        record["calibration"] = sampler.samples
    # the traced wall ends here; interpreter teardown follows
    record["main_s"] = (time.perf_counter_ns() - spawn_ns) / 1e9
    with open(os.path.join(workdir, "timing.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Outside-in span tracer for the dosp benchmark.

The program is not instrumented.  Instead, the benchmark replaces module and
class attributes that the program calls through (``dosp.harness.dosp_slot``,
``PowerControlModel.sample_env``, ...) with wrappers that record one span per
call: name, start, end, parent, and optional per-call counts.  Spans stay in
memory and are written out when the run ends; self time is a span's duration
minus the part of it that its child spans cover.

A hook whose target no longer exists is reported as absent rather than
failing the run, so the benchmark keeps working while the program's internal
names change.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# span record layout: [name, start_ns, end_ns, parent_index, counts or None]
NAME, START, END, PARENT, COUNTS = range(5)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_step_index(args, kwargs, result):
    active = _arg(args, kwargs, 2, "active")
    return {"draws": active.size, "live": int(active.sum())}


def _count_trace_records(args, kwargs, result):
    records = result[1]
    return {"records": len(records) if records else 0}


def _count_pairs(args, kwargs, result):
    tx = getattr(result, "tx_flat", None)
    return {"pairs": 0 if tx is None else tx.size}


def _count_rows(args, kwargs, result):
    actions = _arg(args, kwargs, 1, "actions")
    return {"rows": actions.shape[0] * _arg(args, kwargs, 3, "n_samples")}


def _count_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


@dataclass(frozen=True)
class Hook:
    """One attribute to wrap: ``module`` + dotted ``target`` -> span ``name``."""

    module: str
    target: str
    name: str
    counter: Callable | None = None


# Needed for the end-to-end figures (set-up end, slot-loop bounds); these run
# a handful of times per workload, so they cost nothing measurable.
E2E_HOOKS = (
    Hook("dosp.harness", "run_experiment", "harness.run_experiment"),
    Hook("dosp.optimizer", "initialize_states", "optimizer.initialize_states"),
)

LAYER_HOOKS = E2E_HOOKS + (
    Hook("dosp.optimizer", "dosp_slot", "optimizer.dosp_slot", _count_trace_records),
    Hook("dosp.optimizer", "ideal_gradient_slot", "optimizer.ideal_gradient_slot"),
    Hook("dosp.optimizer", "sample_step_index", "optimizer.sample_step_index",
         _count_step_index),
    Hook("dosp.optimizer", "project", "optimizer.project"),
    Hook("dosp.core", "PerturbationSpec.sample", "core.PerturbationSpec.sample"),
    Hook("dosp.core", "StepSizeSchedule.beta", "core.StepSizeSchedule"),
    Hook("dosp.core", "StepSizeSchedule.gamma", "core.StepSizeSchedule"),
    Hook("dosp.network", "sample_activity", "network.sample_activity"),
    Hook("dosp.network", "sample_obs_noise", "network.sample_obs_noise"),
    Hook("dosp.objectives", "PowerControlModel.sample_env", "objectives.sample_env",
         _count_pairs),
    Hook("dosp.objectives", "PowerControlModel.local_utilities",
         "objectives.local_utilities"),
    Hook("dosp.objectives", "PowerControlModel.global_gradient",
         "objectives.global_gradient"),
    Hook("dosp.objectives", "QuadraticModel.sample_env", "objectives.sample_env",
         _count_pairs),
    Hook("dosp.objectives", "QuadraticModel.local_utilities",
         "objectives.local_utilities"),
    Hook("dosp.objectives", "QuadraticModel.global_gradient",
         "objectives.global_gradient"),
    Hook("dosp.harness", "ExperimentConfig.from_yaml", "harness.load_config"),
    Hook("dosp.harness", "build_model", "harness.build_model"),
    Hook("dosp.harness", "eval_F_batch", "harness.eval_F_batch", _count_rows),
    Hook("dosp.harness", "emit_outputs", "harness.emit_outputs", _count_bytes),
    Hook("dosp.analysis", "rate_params", "analysis.rate_params"),
    Hook("dosp.analysis", "averaged_steps_grid", "analysis.averaged_steps_grid"),
    Hook("dosp.analysis", "binomial_weights", "analysis.binomial_weights"),
    Hook("dosp.analysis", "rate_envelope", "analysis.rate_envelope"),
    Hook("dosp.analysis", "recurrence_envelope", "analysis.recurrence_envelope"),
    Hook("dosp.chart", "write_line_chart", "chart.write_line_chart"),
    Hook("dosp.cli", "main", "cli.main"),
)


class Tracer:
    """In-memory span recorder plus the attribute patching that feeds it."""

    def __init__(self, package: str = "dosp"):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str, start_ns: int | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        start = time.perf_counter_ns() if start_ns is None else start_ns
        self.spans.append([name, start, 0, parent, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self.stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record an already finished span under the current one."""
        self.spans.append([name, start_ns, end_ns, self.stack[-1] if self.stack else -1, None])

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, counter=None):
        spans, stack, now = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, now(), 0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][END] = now()
                stack.pop()
            if counter is not None and name not in self.broken_counters:
                try:
                    spans[idx][COUNTS] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    self.broken_counters.add(name)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------------

    def install(self, hooks) -> list[str]:
        """Wrap every hook target that exists; returns the absent span names.

        A module-level function is also replaced wherever another module of
        the package imported it by name, since that is the binding its callers
        look up.
        """
        missing = []
        for hook in hooks:
            try:
                owner = importlib.import_module(hook.module)
                *path, attr = hook.target.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(hook)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(raw.__func__, hook.name, hook.counter))
            else:
                wrapped = self.wrap(raw, hook.name, hook.counter)
            self._set(owner, attr, wrapped)
            if not isinstance(owner, type):
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not (mod_name == self.package
                                            or mod_name.startswith(self.package + ".")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, wrapped)
        # two hooks may share a span name (both models' sample_env); the name
        # is absent only when none of its targets exists
        found = {h.name for h in hooks if h not in missing}
        self.absent = sorted({h.name for h in missing} - found)
        return self.absent

    def _set(self, owner, attr, value) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, old))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as CSV: name, start_ns, end_ns, parent, counts."""
        lines = ["name,start_ns,end_ns,parent,counts"]
        for s in self.spans:
            counts = ";".join(f"{k}={v}" for k, v in s[COUNTS].items()) if s[COUNTS] else ""
            lines.append(f"{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{counts}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def read_spans(path) -> list[list]:
    """Spans as written by :meth:`Tracer.write`."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            name, start, end, parent, counts = line.rstrip("\n").split(",")
            parsed = {k: int(v) for k, v in (c.split("=") for c in counts.split(";"))} \
                if counts else None
            spans.append([name, int(start), int(end), int(parent), parsed])
    return spans


def self_times(spans) -> list[int]:
    """Per-span self time: duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so overlapping or
    overhanging children are never subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


# nearest enclosing span that decides which phase a call belongs to
CONTEXTS = {
    "optimizer.dosp_slot": "slot",
    "optimizer.ideal_gradient_slot": "slot",
    "harness.eval_F_batch": "metrics",
    "analysis.rate_params": "analysis",
    "analysis.rate_envelope": "analysis",
    "analysis.recurrence_envelope": "analysis",
}


def contexts(spans) -> list[str]:
    """Phase of every span ('slot', 'metrics', 'analysis' or 'other')."""
    out: list[str] = []
    for s in spans:
        inherited = out[s[PARENT]] if s[PARENT] >= 0 else "other"
        out.append(inherited if inherited != "other" else CONTEXTS.get(s[NAME], "other"))
    return out

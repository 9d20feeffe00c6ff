import sys
import types

import numpy as np

from metrics import Summary, e2e_from_spans, layer_metrics
from tracer import Hook, Tracer, contexts, read_spans, self_times


def span(name, start, end, parent, counts=None):
    return [name, start, end, parent, counts]


def test_self_time_of_nested_tree():
    spans = [
        span("root", 0, 100, -1),
        span("a", 10, 40, 0),
        span("a.child", 15, 25, 1),
        span("b", 50, 90, 0),
    ]
    assert self_times(spans) == [100 - 30 - 40, 30 - 10, 10, 40]
    assert sum(self_times(spans)) == 100


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("root", 0, 100, -1),
        span("a", 10, 60, 0),
        span("b", 40, 120, 0),  # overlaps a and overhangs the parent
    ]
    assert self_times(spans)[0] == 10


def test_phase_split_and_per_slot_division():
    spans = [
        span("harness.run_experiment", 0, 10_000, -1),
        span("optimizer.dosp_slot", 0, 4_000, 0),
        span("objectives.sample_env", 0, 1_000, 1, {"pairs": 6}),
        span("harness.eval_F_batch", 5_000, 9_000, 0),
        span("objectives.sample_env", 5_000, 8_000, 3, {"pairs": 40}),
    ]
    assert contexts(spans) == ["other", "slot", "slot", "metrics", "metrics"]
    m = Summary(spans, slots=2)
    assert m.incl_ns["objectives.sample_env", "slot"] == 1_000
    assert m.incl_ns["objectives.sample_env", "metrics"] == 3_000
    assert m.counts["objectives.sample_env", "slot", "pairs"] == 6
    layers = layer_metrics(spans, 2, absent=[])
    assert layers["objectives.sample_env.us.slot"]["value"] == 0.5
    assert layers["objectives.sample_env.us.metrics"]["value"] == 1.5
    assert layers["objectives.pairs_per_slot"]["value"] == 3
    assert layers["optimizer.dosp_slot.self_us"]["value"] == 1.5


def test_e2e_setup_and_slot_loop():
    spans = [
        span("harness.run_experiment", 2_000, 10_000, -1),
        span("optimizer.initialize_states", 2_500, 3_000, 0),
        span("harness.run_experiment", 11_000, 15_000, -1),
        span("optimizer.initialize_states", 11_000, 12_000, 2),
    ]
    e2e = e2e_from_spans(spans, 0)
    assert e2e["setup_ns"] == [0, 3_000]
    assert e2e["loop_ns"] == [[3_000, 10_000], [12_000, 15_000]]


def fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def work(x, scale=1):
        return x * scale

    class Model:
        def step(self, active):
            return active.sum()

        @classmethod
        def build(cls):
            return cls()

    mod.work, mod.Model = work, Model
    user.work = work  # as after `from .mod import work`
    pkg.mod = mod
    return {"fakepkg": pkg, "fakepkg.mod": mod, "fakepkg.user": user}


def test_hooks_wrap_imported_names_and_missing_targets_are_absent(monkeypatch):
    modules = fake_package()
    for name, mod in modules.items():
        monkeypatch.setitem(sys.modules, name, mod)
    original = modules["fakepkg.mod"].work
    tracer = Tracer(package="fakepkg")
    absent = tracer.install([
        Hook("fakepkg.mod", "work", "mod.work", lambda a, k, r: {"n": r}),
        Hook("fakepkg.mod", "Model.step", "mod.step"),
        Hook("fakepkg.mod", "Model.build", "mod.build"),
        Hook("fakepkg.mod", "gone", "mod.gone"),
        Hook("fakepkg.missing", "work", "missing.work"),
    ])
    assert absent == ["missing.work", "mod.gone"]
    assert modules["fakepkg.user"].work(3, scale=2) == 6
    model = modules["fakepkg.mod"].Model.build()
    assert model.step(np.ones(4, dtype=bool)) == 4
    assert [s[0] for s in tracer.spans] == ["mod.work", "mod.build", "mod.step"]
    assert tracer.spans[0][4] == {"n": 6}
    tracer.uninstall()
    assert modules["fakepkg.user"].work is original
    assert modules["fakepkg.mod"].work is original


def test_broken_counter_keeps_the_call_working():
    tracer = Tracer()

    def bad_counter(args, kwargs, result):
        raise TypeError("signature changed")

    wrapped = tracer.wrap(lambda x: x + 1, "f", bad_counter)
    assert wrapped(1) == 2 and wrapped(2) == 3
    assert tracer.broken_counters == {"f"}
    assert len(tracer.spans) == 2


def test_spans_round_trip_through_the_file(tmp_path):
    tracer = Tracer()
    with tracer.span("outer"):
        tracer.wrap(lambda: None, "inner", lambda a, k, r: {"draws": 3, "live": 1})()
    path = tmp_path / "spans.csv"
    tracer.write(path)
    assert read_spans(path) == tracer.spans

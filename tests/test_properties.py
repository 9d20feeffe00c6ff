"""Property tests of the slot engine over small random configurations:
performed actions stay in the box, and reruns are byte-identical."""

import filecmp
import os
import tempfile

from hypothesis import given, settings, strategies as st

from dosp.harness import ExperimentConfig, emit_outputs, run_experiment

BOUND = 2.0


@st.composite
def small_configs(draw):
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["quadratic", "power"]))
    pert = draw(st.sampled_from([
        {"kind": "rademacher", "scale": 1.0},
        {"kind": "scaled_symmetric", "scale": draw(st.floats(0.5, 1.5))},
    ]))
    return ExperimentConfig.from_dict({
        "model": {"kind": kind},
        "network": {
            "n_nodes": n,
            "q_activity": draw(st.floats(0.1, 1.0)),
            "q_reception": draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))),
            "activity": draw(st.sampled_from(["binomial", "poisson"])),
            "noise": draw(st.sampled_from(["gaussian", "uniform"])),
        },
        "schedule": {"beta0": draw(st.floats(0.05, 0.5)), "gamma0": 0.5,
                     "c1": 0.75, "c2": 0.25},
        "perturbation": pert,
        "bounds": {"lower": -BOUND, "upper": BOUND},
        "run": {
            "horizon": 60,
            "replications": draw(st.integers(1, 3)),
            "seed": draw(st.integers(0, 2**31 - 1)),
            "metrics_stride": 20,
            "f_mc_samples": 20 if kind == "power" else 0,
            "sigma_eta": 0.5,
            "index_mode": draw(st.sampled_from(["sampled", "counted"])),
        },
    })


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_configs())
def test_actions_feasible_and_reruns_byte_identical(cfg):
    ds = run_experiment(cfg, trace=True)
    assert all(-BOUND <= rec.a_hat <= BOUND for rec in ds.traces)
    assert ((-BOUND <= ds.final_actions) & (ds.final_actions <= BOUND)).all()
    with tempfile.TemporaryDirectory() as tmp:
        first = emit_outputs(ds, os.path.join(tmp, "first"))
        second = emit_outputs(run_experiment(cfg, trace=True), os.path.join(tmp, "second"))
        assert [os.path.basename(p) for p in first] == [os.path.basename(p) for p in second]
        for a, b in zip(first, second):
            assert filecmp.cmp(a, b, shallow=False), os.path.basename(a)

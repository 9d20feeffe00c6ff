"""Property tests of the slot engine over small random configurations:
performed actions stay in the box, reruns are byte-identical, waves of slots
give the same bytes as slots run one by one, the estimate f~ is unbiased,
Poisson activity comes out as a well-formed live-entry list, configs
round-trip through dicts and YAML bit for bit, and a bool, a non-finite
value, a string, null or a list in a numeric field is a config error that
names the field."""

import copy
import filecmp
import json
import math
import os
import re
import tempfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dosp import ConfigError, optimizer
from dosp.estimator import estimate_global_utility, sample_reception
from dosp.harness import ExperimentConfig, emit_outputs, run_experiment
from dosp.network import ActiveSet, sample_activity

BOUND = 2.0


@st.composite
def small_configs(draw, n_nodes=st.integers(2, 6), q_activity=st.floats(0.1, 1.0),
                  horizon=st.just(60), metrics_stride=st.just(20),
                  algorithm=st.just("dosp_s")):
    n = draw(n_nodes)
    kind = draw(st.sampled_from(["quadratic", "power"]))
    pert = draw(st.sampled_from([
        {"kind": "rademacher", "scale": 1.0},
        {"kind": "scaled_symmetric", "scale": draw(st.floats(0.5, 1.5))},
    ]))
    return ExperimentConfig.from_dict({
        "model": {"kind": kind},
        "network": {
            "n_nodes": n,
            "q_activity": draw(q_activity),
            "q_reception": draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))),
            "activity": draw(st.sampled_from(["binomial", "poisson"])),
            "noise": draw(st.sampled_from(["gaussian", "uniform"])),
        },
        "schedule": {"beta0": draw(st.floats(0.05, 0.5)), "gamma0": 0.5,
                     "c1": 0.75, "c2": 0.25},
        "perturbation": pert,
        "bounds": {"lower": -BOUND, "upper": BOUND},
        "run": {
            "horizon": draw(horizon),
            "replications": draw(st.integers(1, 3)),
            "seed": draw(st.integers(0, 2**31 - 1)),
            "metrics_stride": draw(metrics_stride),
            "f_mc_samples": 20 if kind == "power" else 0,
            "sigma_eta": 0.5,
            "index_mode": draw(st.sampled_from(["sampled", "counted"])),
            "algorithm": draw(algorithm),
        },
    })


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_configs())
def test_actions_feasible_and_reruns_byte_identical(cfg):
    ds = run_experiment(cfg, trace=True)
    performed = ds.traces["a_hat"]
    assert ((-BOUND <= performed) & (performed <= BOUND)).all()
    assert ((-BOUND <= ds.final_actions) & (ds.final_actions <= BOUND)).all()
    with tempfile.TemporaryDirectory() as tmp:
        first = emit_outputs(ds, os.path.join(tmp, "first"))
        second = emit_outputs(run_experiment(cfg, trace=True), os.path.join(tmp, "second"))
        assert [os.path.basename(p) for p in first] == [os.path.basename(p) for p in second]
        for a, b in zip(first, second):
            assert filecmp.cmp(a, b, shallow=False), os.path.basename(a)


def _outputs(cfg, out_dir):
    ds = run_experiment(cfg, trace=True)
    files = {os.path.basename(p): open(p, "rb").read() for p in emit_outputs(ds, out_dir)}
    return ds.final_actions, files


def _one_slot_waves(block, record_at):
    return list(range(block.slots + 1))


# sparse activity and short record strides: long waves, cut by record slots
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_configs(n_nodes=st.integers(3, 12), q_activity=st.floats(0.02, 0.3),
                     horizon=st.integers(20, 90), metrics_stride=st.integers(2, 9),
                     algorithm=st.sampled_from(["dosp_s", "ideal_gradient"])))
def test_waves_match_slots_run_one_by_one(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        runs = [_outputs(cfg, os.path.join(tmp, "waves"))]
        # the same blocks, each slot its own run
        with mock.patch.object(optimizer, "_waves", _one_slot_waves):
            runs.append(_outputs(cfg, os.path.join(tmp, "one-slot-waves")))
        # the same, through the engine's own skip of the cell sort (sampled blocks only)
        sort = mock.Mock(wraps=optimizer._sort_cells)
        with (mock.patch.object(optimizer, "_skips_sort", lambda *args: True),
              mock.patch.object(optimizer, "_sort_cells", sort)):
            runs.append(_outputs(cfg, os.path.join(tmp, "sort-skipped")))
        assert sort.called == (cfg.index_mode == "counted")
        if cfg.network.activity == "binomial":
            # blocks of one slot draw the same activity as any blocks
            with mock.patch.object(optimizer, "block_slots", lambda *args: 1):
                runs.append(_outputs(cfg, os.path.join(tmp, "one-slot-blocks")))
    actions, files = runs[0]
    for other_actions, other_files in runs[1:]:
        np.testing.assert_array_equal(other_actions, actions)
        assert other_files == files


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(slots=st.integers(1, 40), batch=st.integers(1, 3), n=st.integers(1, 8),
       q=st.floats(0.0, 0.6), first=st.integers(1, 30), stride=st.integers(1, 12),
       spread=st.sampled_from([1, 2**14]), seed=st.integers(0, 2**32 - 1))
def test_waves_are_the_greedy_runs_of_disjoint_slots(slots, batch, n, q, first, stride,
                                                      spread, seed):
    # spread 2**14 leaves the node labels sparse in N = n * spread, so that
    # B * N mostly exceeds 16 bits, and cells 4 * 2**14 apart agree in their
    # low 16 bits
    mask = np.random.default_rng(seed).random((slots * batch, n)) < q
    dense = ActiveSet.from_mask(mask)
    live = ActiveSet((slots * batch, n * spread), dense.batch_idx, dense.node_idx * spread,
                     dense.offsets)
    cells = live.batch_idx % batch * live.shape[1] + live.node_idx
    counts = np.zeros(batch * live.shape[1], dtype=np.int64)
    previous, indices = optimizer._sort_cells(cells, counts.size, counts)
    block = SimpleNamespace(k0=first, batch=batch, live=live, slots=slots, previous=previous,
                            entry_at=live.offsets[::batch])
    record_at = set(range(stride, first + slots, stride))
    # the greedy cut that keeps each wave's cells distinct, on sets
    bounds, seen = [0], set()
    for s in range(slots):
        own = set(cells[block.entry_at[s]:block.entry_at[s + 1]].tolist())
        if s and (own & seen or first + s in record_at):
            bounds.append(s)
            seen = set()
        seen |= own
    bounds.append(slots)
    assert optimizer._waves(block, record_at) == bounds
    # the same sort ranks each entry among the earlier entries of its cell
    earlier = {}
    for j, cell in enumerate(cells.tolist()):
        assert indices[j] - 1 == earlier.get(cell, 0)
        earlier[cell] = earlier.get(cell, 0) + 1
    assert counts[list(earlier)].tolist() == list(earlier.values())
    assert counts.sum() == cells.size


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(u=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
       q_r=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
def test_estimate_is_unbiased_over_reception_draws(u, q_r, seed):
    # one row of live nodes with fixed observations u, redrawn reception
    trials, n = 4000, len(u)
    u = np.array(u)
    rows = ActiveSet.from_mask(np.ones((trials, n), dtype=bool))
    heard = sample_reception(rows, q_r, np.random.default_rng(seed))
    f = estimate_global_utility(np.tile(u, trials), rows, q_r, heard).reshape(trials, n)
    mean = f.mean(axis=0)
    stderr = f.std(axis=0, ddof=1) / np.sqrt(trials)
    total = u.sum()
    assert np.all(np.abs(mean - total) <= 4 * stderr + 1e-9 * (1 + np.abs(u).sum()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), load=st.floats(0.0, 1.5), rows=st.integers(1, 50),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, load=1.5, rows=50, seed=0)  # one node: every row is empty or full
@example(n=40, load=1.5, rows=50, seed=0)  # lambda = 60: most rows hold all N nodes
def test_poisson_active_set_is_well_formed(n, load, rows, seed):
    # lambda = load * N; a config caps q_a, and so lambda, at N, while the
    # sampler itself takes any lambda
    cfg = SimpleNamespace(n_nodes=n, activity="poisson", expected_active=load * n)
    live = sample_activity(cfg, np.random.default_rng(seed), rows)
    counts = live.counts
    assert live.shape == (rows, n)
    assert live.offsets[0] == 0 and live.offsets[-1] == live.size
    assert np.all(counts >= 0) and np.all(counts <= n)
    np.testing.assert_array_equal(counts, np.bincount(live.batch_idx, minlength=rows))
    assert np.all((live.node_idx >= 0) & (live.node_idx < n))
    # row-major, nodes strictly ascending within a row: distinct nodes per row
    keys = live.batch_idx * n + live.node_idx
    assert np.all(np.diff(keys) > 0)


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def valid_configs(draw):
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        model = {"kind": "quadratic"}
        if draw(st.booleans()):
            model["targets"] = draw(st.lists(_floats(-3.0, 3.0), min_size=n, max_size=n))
        if draw(st.booleans()):
            spread = draw(_floats(0.0, 0.5))
            model.update(gain_low=1.0 - spread, gain_high=1.0 + spread)
    else:
        model = {"kind": "power", "omega1": draw(_floats(0.1, 50.0)),
                 "omega2": draw(_floats(0.1, 5.0))}
        if draw(st.booleans()):
            model["channel"] = {
                "var_direct": draw(_floats(0.01, 5.0)), "var_cross": draw(_floats(0.01, 1.0)),
                "noise_floor": draw(_floats(0.01, 1.0)),
                "fading": draw(st.sampled_from(["real_gaussian", "complex_gaussian"]))}
    if draw(st.booleans()):
        bounds = {"lower": draw(_floats(-10.0, -0.5)), "upper": draw(_floats(0.5, 10.0))}
    else:
        bounds = {"lower": draw(st.lists(_floats(-10.0, -0.5), min_size=n, max_size=n)),
                  "upper": draw(st.lists(_floats(0.5, 10.0), min_size=n, max_size=n))}
    c1 = draw(_floats(0.51, 0.99))
    return ExperimentConfig.from_dict({
        "model": model,
        "network": {
            "n_nodes": n,
            "q_activity": draw(_floats(0.0, 1.0, exclude_min=True)),
            "q_reception": draw(_floats(0.0, 1.0, exclude_min=True)),
            "activity": draw(st.sampled_from(["binomial", "poisson"])),
            "noise": draw(st.sampled_from(["gaussian", "uniform"])),
        },
        "schedule": {"beta0": draw(_floats(1e-6, 10.0)), "gamma0": draw(_floats(1e-6, 10.0)),
                     "c1": c1, "c2": draw(_floats(1e-3, 1.0 - c1))},
        "perturbation": draw(st.sampled_from([
            {"kind": "rademacher", "scale": 1.0},
            {"kind": "scaled_symmetric", "scale": draw(_floats(0.01, 5.0))},
        ])),
        "bounds": bounds,
        "run": {
            "horizon": draw(st.integers(1, 10**7)),
            "replications": draw(st.integers(1, 1000)),
            "seed": draw(st.integers(0, 2**63 - 1)),
            "metrics_stride": draw(st.integers(1, 10**5)),
            "f_mc_samples": draw(st.sampled_from([0, 2, 2000])),
            "sigma_eta": draw(_floats(0.0, 5.0)),
            "algorithm": draw(st.sampled_from(["dosp_s", "ideal_gradient"])),
            "baseline_step": draw(st.one_of(st.sampled_from(["beta", "beta_gamma"]),
                                            _floats(1e-9, 10.0, exclude_min=True))),
            "index_mode": draw(st.sampled_from(["sampled", "counted"])),
            "divergence": draw(st.sampled_from(["auto", "require", "skip"])),
        },
    })


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(valid_configs())
def test_config_round_trips_bit_for_bit(cfg):
    # json.dumps tells 1 from 1.0 and 0.0 from -0.0, which == on dicts does not
    as_dict = json.dumps(cfg.to_dict(), sort_keys=True)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert json.dumps(again.to_dict(), sort_keys=True) == as_dict
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.yaml")
        cfg.to_yaml(path)
        assert json.dumps(ExperimentConfig.from_yaml(path).to_dict(), sort_keys=True) == as_dict


def _numeric_leaves(tree, path=()):
    """Paths to every int or float leaf of a config dict."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _numeric_leaves(value, path + (i,))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield path


def _dotted(path) -> str:
    """``path`` as the config error names it, e.g. ``model.targets[3]``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(valid_configs(), st.data())
def test_bool_or_non_finite_number_is_a_config_error(cfg, data):
    d = copy.deepcopy(cfg.to_dict())
    path = data.draw(st.sampled_from(list(_numeric_leaves(d))))
    *parents, last = path
    node = d
    for key in parents:
        node = node[key]
    # a list holding a non-number is no number, nor one number per node
    node[last] = data.draw(st.sampled_from([True, False, math.nan, math.inf, -math.inf,
                                            "a", None, [1.0, "a"]]))
    with pytest.raises(ConfigError, match=re.escape(_dotted(path))):
        ExperimentConfig.from_dict(d)

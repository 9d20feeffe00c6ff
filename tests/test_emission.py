"""The columnar CSV writer against the row-by-row csv.writer oracle: the same
bytes for any int, float or string columns, and for every file that
``dosp run --trace`` and ``dosp bounds`` write."""

import filecmp
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dosp import analysis, harness
from dosp.cli import main
from dosp.harness import (
    ExperimentConfig, build_model, model_constants, run_experiment, write_csv)

from reference_configs import quadratic_config
from oracles import reference_bounds_csv, reference_csv, reference_outputs

SPECIAL_FLOATS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5, 2.0**62)
SPECIAL_INTS = (0, -1, 2**62, -(2**63), 2**63 - 1)


def _columns(n: int):
    """One CSV column of ``n`` rows: ints, floats, an absent metric, a
    bounds status, or arbitrary text."""
    def rows(values):
        return st.lists(values, min_size=n, max_size=n)

    return st.one_of(
        rows(st.sampled_from(SPECIAL_INTS) | st.integers(-(2**63), 2**63 - 1)).map(
            lambda v: np.array(v, dtype=np.int64)),
        rows(st.sampled_from(SPECIAL_FLOATS) | st.floats()).map(
            lambda v: np.array(v, dtype=np.float64)),
        st.just([""] * n),
        rows(st.sampled_from(["ok", "no envelope"])),
        rows(st.text()),
    )


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    header = draw(st.lists(st.text(min_size=1), min_size=1, max_size=5))
    return header, [draw(_columns(n)) for _ in header]


def _same_bytes(a, b) -> bool:
    return filecmp.cmp(a, b, shallow=False)


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from([3, harness._CSV_CHUNK]))
@example((["k", "x"], [np.arange(3), np.array([-0.0, math.nan, 5e-324])]), 2)
@example((["k", "x"], [np.zeros(0, dtype=np.int64), np.zeros(0)]), 3)
@example((["x"], [["", "ok", ""]]), 3)
def test_write_csv_matches_csv_writer(table, chunk):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(harness, "_CSV_CHUNK", chunk):
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        write_csv(got, header, columns)
        reference_csv(want, header, columns)
        assert _same_bytes(got, want)


# B=3 at q_r=0.5: f~ differs between the entries of a slot, and replication 1
# has no live entry, so it gets no trace file
SPARSE_CFG = quadratic_config(n_nodes=8, q_activity=0.05, q_reception=0.5, horizon=6,
                              replications=3, seed=190, metrics_stride=1)


@pytest.mark.parametrize("chunk", [3, harness._CSV_CHUNK])  # 3: a chunk spans replications
def test_run_trace_files_match_the_row_writer(tmp_path, capsys, chunk):
    path = tmp_path / "cfg.yaml"
    SPARSE_CFG.to_yaml(path)
    with mock.patch.object(harness, "_CSV_CHUNK", chunk):
        rc = main(["run", "--config", str(path), "--trace", "--out", str(tmp_path / "run")])
    assert rc == 0
    written = capsys.readouterr().out.split()

    dataset = run_experiment(ExperimentConfig.from_yaml(path), trace=True)
    traces = dataset.traces
    assert np.bincount(traces["replication"], minlength=3).tolist() == [4, 0, 6]
    slot = traces["replication"] * (SPARSE_CFG.horizon + 1) + traces["k"]
    assert any(np.unique(traces["f_tilde"][slot == s]).size > 1 for s in np.unique(slot))
    expected = reference_outputs(dataset, tmp_path / "reference")
    assert list(map(os.path.basename, written)) == list(map(os.path.basename, expected))
    assert all(map(_same_bytes, written, expected))


def test_bounds_csv_matches_the_row_writer(tmp_path, capsys):
    # the envelopes start at K0 = 5: the first grid rows are nan, "no envelope"
    cfg = quadratic_config(n_nodes=5, beta0=0.5, gamma0=8.0, bound=4.0, horizon=200,
                           replications=2, seed=3, metrics_stride=50)
    path = tmp_path / "cfg.yaml"
    cfg.to_yaml(path)
    rc = main(["bounds", "--config", str(path), "--kmax", "2000", "--out", str(tmp_path)])
    assert rc == 0

    model = build_model(cfg)
    consts = model_constants(cfg, model)
    params = analysis.rate_params(cfg.schedule, cfg.network, consts, cfg.perturbation, 2000,
                                  bounds=cfg.bounds, a_star=model.optimum_hint)
    grid = analysis.log_grid(2000, 200)
    table = analysis.rate_envelope(params, grid)
    diag = analysis.bias_diagnostics(cfg.schedule, cfg.network, cfg.perturbation,
                                     consts.alpha_G, grid)
    assert set(table.status) == {"ok", "no envelope"}
    reference_bounds_csv(tmp_path / "reference.csv", grid, params, table, diag)
    assert _same_bytes(tmp_path / "bounds.csv", tmp_path / "reference.csv")

import csv
import dataclasses
import functools
import glob
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import yaml

from dosp import (ActionBounds, ConfigError, FeasibilityError, ModelConstants, NumericError,
                  PerturbationSpec, StepSizeSchedule)
from dosp.cli import main
from dosp.core import RngStream, role_streams
from dosp.harness import (
    CONSTANTS_STREAM,
    ExperimentConfig,
    TRAJECTORY_COLUMNS,
    avg_gradient,
    build_model,
    emit_outputs,
    fit_loglog_slope,
    load_optimum,
    model_constants,
    optimum_cache_key,
    parse_yaml,
    run_experiment,
    eval_F_batch,
    save_optimum,
    solve_optimum,
)
from dosp import harness, network, optimizer
from dosp.network import ChannelSpec, NetworkConfig, sample_activity
from dosp.objectives import PowerControlModel, QuadraticModel
from dosp.optimizer import initialize_states

from reference_configs import power_config, quadratic_config, write_yaml
from oracles import (reference_avg_gradient, reference_constants_sample,
                     reference_estimate_alpha_G, reference_estimate_lipschitz,
                     reference_eval_F_batch, reference_model_constants,
                     reseeded_role_streams)

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _engine_states(cfg, **kwargs):
    """``initialize_states`` on the sections of ``cfg``, past its own checks."""
    return initialize_states(cfg.bounds, cfg.schedule, cfg.perturbation, cfg.network,
                             cfg.replications, role_streams(cfg.seed), **kwargs)


def _built_in_python(doc):
    """The config of the document ``doc``, built from its section objects."""
    model = dict(doc["model"])
    return ExperimentConfig(
        NetworkConfig(**doc["network"]), StepSizeSchedule(**doc["schedule"]),
        PerturbationSpec(**doc["perturbation"]), ActionBounds(**doc["bounds"]),
        model.pop("kind"), model, **doc["run"])


def _document_case(section, key, value, kind="quadratic"):
    """A misspelt-value case: the document of a 4-node config of ``kind`` with
    ``section.key`` set to ``value``, built in Python by :func:`_built_in_python`."""
    doc = (power_config if kind == "power" else quadratic_config)(n_nodes=4).to_dict()
    doc[section][key] = value
    return functools.partial(_built_in_python, doc)


class TestConfigSerialization:
    def test_yaml_round_trip_is_exact(self, tmp_path):
        cfg = quadratic_config(n_nodes=7, horizon=123, replications=3, seed=99,
                               metrics_stride=11, sigma_eta=0.321)
        path = tmp_path / "experiment.yaml"
        write_yaml(cfg, path)
        again = ExperimentConfig.from_yaml(path)
        assert again == cfg
        assert again.schedule.beta0 == cfg.schedule.beta0
        assert again.model_params["targets"] == cfg.model_params["targets"]
        assert np.array_equal(again.bounds.lower, cfg.bounds.lower)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"model": {"kind": "power"}})

    @pytest.mark.parametrize("build, named", [
        (lambda: NetworkConfig(6, 0.5, 1.0, activity="binomal"), "activity"),
        (lambda: NetworkConfig(6, 0.5, 1.0, noise="gausian"), "noise"),
        (lambda: ChannelSpec(fading="real"), "fading"),
        (lambda: dataclasses.replace(PerturbationSpec.rademacher(), kind="gauss"), "kind"),
        (lambda: dataclasses.replace(quadratic_config(n_nodes=4), model_kind="quad"), "model.kind"),
        (lambda: quadratic_config(n_nodes=4, algorithm="dosp-s"), "algorithm"),
        (lambda: quadratic_config(n_nodes=4, baseline_step="gamma"), "baseline_step"),
        (lambda: quadratic_config(n_nodes=4, index_mode="count"), "index_mode"),
        (lambda: _engine_states(quadratic_config(n_nodes=4), index_mode="countd"), "index mode"),
        (lambda: quadratic_config(n_nodes=4, divergence="requre"), "divergence"),
        (lambda: quadratic_config(n_nodes=4, horizon=2.5), "horizon"),
        (_document_case("network", "q_activity", True), "network.q_activity"),
        (_document_case("network", "n_nodes", 2.5), "network.n_nodes"),
        (_document_case("schedule", "beta0", True), "schedule.beta0"),
        (_document_case("model", "omega1", "20", "power"), "model.omega1"),
        (_document_case("model", "targets", "abcd"), "model.targets"),
        (_document_case("model", "targets", [1.0, 2.0, 3.0, True]), "model.targets[3]"),
        (_document_case("bounds", "lower", -math.inf), "bounds.lower"),
        (_document_case("model", "omega3", 1.0, "power"), "unknown model key"),
        (lambda: dataclasses.replace(power_config(n_nodes=4), model_params={
            "channel": ChannelSpec(var_direct=math.inf)}), "model.channel.var_direct"),
        (lambda: dataclasses.replace(quadratic_config(n_nodes=4), model_params={
            "kind": "power"}), "model.kind"),
    ], ids=["activity", "noise", "fading", "perturbation-kind", "model-kind", "algorithm",
            "baseline-step", "index-mode", "engine-index-mode", "divergence", "horizon",
            "q-activity-bool", "n-nodes-float", "beta0-bool", "omega1-string",
            "targets-string", "targets-bool-item", "bounds-infinite", "unknown-model-key",
            "channel-spec-infinite", "model-params-kind"])
    def test_config_built_in_python_rejects_a_misspelt_value(self, build, named):
        # a config that does not come through from_dict gets the same checks
        with pytest.raises(ConfigError, match=re.escape(named)) as built:
            build()
        if isinstance(build, functools.partial):  # and the same message as its document
            with pytest.raises(ConfigError) as loaded:
                ExperimentConfig.from_dict(*build.args)
            assert str(built.value) == str(loaded.value)

    def test_config_built_in_python_takes_a_channel_spec(self):
        channel = ChannelSpec(var_cross=0.2, fading="complex_gaussian")
        cfg = dataclasses.replace(power_config(n_nodes=4), model_params={"channel": channel})
        assert build_model(cfg).channel == channel

    def test_channel_spec_is_written_as_its_mapping(self):
        # the document of a config holding a ChannelSpec is plain data: it
        # dumps to YAML and keys the optimum cache as the mapping form does
        channel = ChannelSpec(var_cross=0.2, fading="complex_gaussian")
        cfg = dataclasses.replace(power_config(n_nodes=4), model_params={"channel": channel})
        mapping = dataclasses.replace(cfg, model_params={"channel": dataclasses.asdict(channel)})
        assert optimum_cache_key(cfg) == optimum_cache_key(mapping)
        assert yaml.safe_load(yaml.safe_dump(cfg.to_dict())) == mapping.to_dict()

    def test_shipped_configs_keep_their_key_order(self):
        # to_dict lays the sections and keys out in the order the files list them
        def order(tree):
            return [(k, order(v)) for k, v in tree.items()] if isinstance(tree, dict) else None

        for path in sorted(glob.glob(os.path.join(CONFIGS, "*.yaml"))):
            with open(path, encoding="utf-8") as fh:
                written = parse_yaml(fh)
            as_dict = ExperimentConfig.from_yaml(path).to_dict()
            assert as_dict == written and order(as_dict) == order(written), path

    def test_scalar_bounds_broadcast(self):
        cfg = quadratic_config(n_nodes=5)
        d = cfg.to_dict()
        assert isinstance(d["bounds"]["lower"], float)
        assert ExperimentConfig.from_dict(d).bounds.n_nodes == 5


class TestRunContracts:
    def test_single_slot_run_is_the_initialization(self):
        cfg = quadratic_config(n_nodes=6, horizon=1, replications=1, seed=77,
                               metrics_stride=1)
        ds = run_experiment(cfg, keep_actions=True)
        assert list(ds.ks) == [1]
        rngs = role_streams(cfg.seed)
        init = initialize_states(cfg.bounds, cfg.schedule, cfg.perturbation,
                                 cfg.network, 1, rngs)
        np.testing.assert_array_equal(ds.actions[:, 0], init.actions)

    def test_reruns_are_bit_identical_and_seeds_differ(self):
        cfg = quadratic_config(n_nodes=8, horizon=400, replications=4, seed=5,
                               metrics_stride=100)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        np.testing.assert_array_equal(a.d, b.d)
        np.testing.assert_array_equal(a.final_actions, b.final_actions)
        import dataclasses
        c = run_experiment(dataclasses.replace(cfg, seed=6))
        assert not np.array_equal(a.final_actions, c.final_actions)

    def test_divergence_requires_reference(self):
        cfg = power_config(n_nodes=4, horizon=10, replications=1,
                           metrics_stride=5, divergence="require")
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_stderr_shrinks_with_replications(self):
        # 4x the replications halves the standard error.  With 96 against 384
        # replications the ratio's seed-to-seed spread (about +-0.05) sits
        # well inside the +-20% band; with 24 against 96 one seed in eight
        # fell outside it.
        small = quadratic_config(n_nodes=6, horizon=2000, replications=96,
                                 seed=31, metrics_stride=250)
        big = quadratic_config(n_nodes=6, horizon=2000, replications=384,
                               seed=31, metrics_stride=250)
        se_small = run_experiment(small).D_stderr
        se_big = run_experiment(big).D_stderr
        ratio = float(np.mean(se_big[2:] / se_small[2:]))
        assert 0.5 * 0.8 <= ratio <= 0.5 * 1.2

    def test_divergence_recomputable_from_snapshots(self, tmp_path):
        cfg = quadratic_config(n_nodes=5, horizon=300, replications=3, seed=12,
                               metrics_stride=50)
        ds = run_experiment(cfg, keep_actions=True)
        emit_outputs(ds, tmp_path)
        recomputed = np.mean((ds.actions - ds.a_star) ** 2, axis=2)
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            r, j = int(row["replication"]), list(ds.ks).index(int(row["k"]))
            assert float(row["d_k"]) == pytest.approx(recomputed[r, j], rel=1e-12)


class TestOutputs:
    def test_header_schema_is_exact(self, tmp_path):
        cfg = quadratic_config(n_nodes=4, horizon=60, replications=2, seed=3,
                               metrics_stride=30, f_mc_samples=64)
        ds = run_experiment(cfg)
        emit_outputs(ds, tmp_path)
        with open(tmp_path / "trajectory.csv", "rb") as fh:
            header = fh.readline()
        assert header == b"replication,k,d_k,F_hat,F_stderr,n_active\r\n"
        assert ",".join(TRAJECTORY_COLUMNS) == "replication,k,d_k,F_hat,F_stderr,n_active"

    def test_header_only_for_empty_metrics(self, tmp_path):
        from dosp.harness import TrajectoryDataset

        cfg = quadratic_config(n_nodes=4, horizon=60, replications=2)
        empty = TrajectoryDataset(
            config=cfg, ks=np.zeros(0, dtype=int),
            n_active=np.zeros((2, 0), dtype=int), d=None, f_hat=None,
            f_stderr=None, a_star=None, final_actions=np.zeros((2, 4)))
        emit_outputs(empty, tmp_path)
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            lines = fh.readlines()
        assert len(lines) == 1

    def test_svg_is_well_formed_xml(self, tmp_path):
        cfg = quadratic_config(n_nodes=4, horizon=200, replications=3, seed=8,
                               metrics_stride=20, f_mc_samples=32)
        ds = run_experiment(cfg)
        paths = emit_outputs(ds, tmp_path, svg=True, loglog=True)
        svgs = [p for p in paths if p.endswith(".svg")]
        assert svgs
        for path in svgs:
            root = ET.parse(path).getroot()
            assert root.tag.endswith("svg")

    def test_unwritable_path_errors(self, tmp_path):
        cfg = quadratic_config(n_nodes=4, horizon=30, replications=1,
                               metrics_stride=10)
        ds = run_experiment(cfg)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(OSError):
            emit_outputs(ds, blocker / "sub")

    def test_trace_files_per_replication(self, tmp_path):
        cfg = quadratic_config(n_nodes=4, q_activity=0.5, horizon=50,
                               replications=2, seed=14, metrics_stride=10)
        ds = run_experiment(cfg, trace=True)
        paths = emit_outputs(ds, tmp_path)
        traces = sorted(p for p in paths if "trace_rep" in p)
        assert len(traces) == 2
        with open(traces[0], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"k", "node", "delta", "ell", "a",
                                         "a_hat", "f_tilde", "beta", "gamma", "phi"}


def _trace_files(paths) -> dict[str, list[dict]]:
    """The rows of every trace file among ``paths``, by file name."""
    files = {}
    for path in paths:
        if "trace_rep" in path:
            with open(path, newline="") as fh:
                files[os.path.basename(path)] = list(csv.DictReader(fh))
    return files


class TestTraceFiles:
    def test_only_replications_with_a_live_entry_get_a_file(self, tmp_path):
        # every slot is recorded, so n_active counts every live entry
        cfg = quadratic_config(n_nodes=4, q_activity=0.01, horizon=20, replications=20,
                               seed=3, metrics_stride=1)
        ds = run_experiment(cfg, trace=True)
        live = ds.n_active.sum(axis=1)
        assert 0 < np.count_nonzero(live) < cfg.replications
        files = _trace_files(emit_outputs(ds, tmp_path))
        assert set(files) == {f"trace_rep{r:03d}.csv" for r in np.flatnonzero(live)}
        for r in np.flatnonzero(live):
            assert len(files[f"trace_rep{r:03d}.csv"]) == live[r]

    def test_rows_run_in_slot_and_node_order_with_delta_one(self, tmp_path):
        cfg = power_config(n_nodes=6, q_activity=0.4, horizon=90, replications=3, seed=5,
                           metrics_stride=7)
        files = _trace_files(emit_outputs(run_experiment(cfg, trace=True), tmp_path))
        assert len(files) == 3
        for rows in files.values():
            keys = [(int(row["k"]), int(row["node"])) for row in rows]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            assert {row["delta"] for row in rows} == {"1"}

    def test_ideal_gradient_writes_no_trace(self, tmp_path):
        cfg = power_config(n_nodes=6, q_activity=0.4, horizon=30, replications=2, seed=5,
                           metrics_stride=10, algorithm="ideal_gradient")
        paths = emit_outputs(run_experiment(cfg, trace=True), tmp_path)
        assert not _trace_files(paths)
        assert sorted(os.listdir(tmp_path)) == ["trajectory.csv"]

    @pytest.mark.parametrize("cfg", [
        quadratic_config(n_nodes=8, q_activity=0.2, q_reception=0.5, horizon=150,
                         replications=2, seed=6, metrics_stride=40),
        power_config(n_nodes=10, q_activity=0.1, horizon=300, replications=1, seed=7,
                     metrics_stride=50),
    ], ids=["quadratic-B2", "power-B1"])
    def test_step_results_count_the_rows_written(self, cfg, tmp_path, monkeypatch):
        """Each wave's step returns the updated actions of the wave's live
        entries as one (A,) array, and the traced rows are those entries.
        perfbench/tracer.py::_count_trace_records truth-tests the second item
        of ``dosp_slot``'s result and takes its len(): of a 1-D array that
        item is a number or missing, which marks the count broken, never an
        array, whose truth test would stop every traced benchmark run."""
        seen = []
        step = optimizer.dosp_slot

        def counted(a, block, wave):
            new = step(a, block, wave)
            assert type(new) is np.ndarray and new.shape == (wave.size,)
            seen.append(new.size)
            return new

        monkeypatch.setattr(optimizer, "dosp_slot", counted)
        files = _trace_files(emit_outputs(run_experiment(cfg, trace=True), tmp_path))
        assert len(seen) > 1
        assert sum(seen) == sum(len(rows) for rows in files.values()) > 0


class TestSlopeFit:
    def test_pure_power_law_recovered_exactly(self):
        ks = np.arange(10, 2000, 7)
        slope, err = fit_loglog_slope(ks, ks**-0.5)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_wiggly_power_law(self):
        ks = np.arange(20, 5000, 11).astype(float)
        vals = 3.0 * ks**-0.2 * (1.0 + 0.01 * np.sin(ks))
        slope, _ = fit_loglog_slope(ks, vals)
        assert slope == pytest.approx(-0.2, abs=0.02)

    def test_constant_series(self):
        ks = np.arange(1, 40)
        slope, _ = fit_loglog_slope(ks, np.full(ks.size, 2.5))
        assert slope == pytest.approx(0.0, abs=1e-14)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope(np.arange(1, 30), np.linspace(-1, 1, 29))
        with pytest.raises(ValueError):
            fit_loglog_slope(np.arange(1, 8), np.ones(7))


class TestSolveOptimum:
    def test_quadratic_recovers_targets(self):
        cfg = quadratic_config(n_nodes=6, horizon=1, replications=1, seed=44)
        res = solve_optimum(cfg, tolerance=0.01, max_iters=600, n_mc=2000,
                            n_cert=100_000)
        targets = np.asarray(cfg.model_params["targets"])
        np.testing.assert_allclose(res.a_star, targets, atol=0.05)
        assert res.grad_norm < 0.01

    def test_power_optimum_is_symmetric(self):
        cfg = power_config(horizon=1, replications=1)
        tol = 0.05
        res = solve_optimum(cfg, tolerance=tol, max_iters=1500, n_mc=4000,
                            step=0.5, n_cert=300_000)
        assert res.grad_norm < tol
        # identical statistics for every link: the optimum is symmetric
        assert res.a_star.max() - res.a_star.min() <= 2 * tol

    def test_cache_round_trip_and_staleness(self, tmp_path):
        cfg = quadratic_config(n_nodes=5, horizon=1, replications=1)
        res = solve_optimum(cfg, tolerance=0.05, max_iters=300, n_mc=1000,
                            n_cert=50_000)
        save_optimum(tmp_path, cfg, res)
        np.testing.assert_array_equal(load_optimum(tmp_path, cfg), res.a_star)
        other = quadratic_config(n_nodes=5, bound=3.5, horizon=1, replications=1)
        assert optimum_cache_key(other) != optimum_cache_key(cfg)
        with pytest.raises(ConfigError):
            load_optimum(tmp_path, other)


def _mc_model(kind):
    if kind == "quadratic":
        return QuadraticModel(np.linspace(-1.5, 1.5, 12))
    return PowerControlModel(12, ChannelSpec(fading=kind))


class TestMonteCarloChunks:
    """The Monte-Carlo averages run in row chunks under the working-set
    budget; every chunk size gives the one-shot draw's bits and leaves the
    stream where the one-shot draw does."""

    ROWS, SAMPLES = 4, 1201  # 4804 sample rows: several chunks even at the default budget

    @pytest.fixture(params=[None, 4000, 500], ids=["default", "budget4000", "budget500"])
    def chunk_rows(self, request, monkeypatch):
        """Set the budget (the default, or one whose chunks end inside a row's
        samples) and return the rows of a Monte-Carlo chunk under it."""
        if request.param is not None:
            for module in (network, optimizer):
                monkeypatch.setattr(module, "_BLOCK_CELLS", request.param)

        def rows(model, net):
            return harness._MC_CHUNK_BLOCKS * optimizer.block_slots(net, 1, model.pairwise_env)
        return rows

    @pytest.mark.parametrize("activity", ["binomial", "poisson"])
    @pytest.mark.parametrize("kind", ["real_gaussian", "complex_gaussian", "quadratic"])
    def test_eval_F_batch_matches_one_shot(self, kind, activity, chunk_rows):
        model = _mc_model(kind)
        net = NetworkConfig(12, 0.3, 1.0, activity=activity)
        chunk = chunk_rows(model, net)
        assert chunk < self.ROWS * self.SAMPLES and self.SAMPLES % chunk
        actions = np.random.default_rng(1).uniform(-3.0, 3.0, (self.ROWS, 12))
        rng, twin = np.random.default_rng(2), np.random.default_rng(2)
        got = eval_F_batch(model, actions, net, self.SAMPLES, rng)
        want = reference_eval_F_batch(model, actions, net, self.SAMPLES, twin)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("activity", ["binomial", "poisson"])
    @pytest.mark.parametrize("kind", ["real_gaussian", "complex_gaussian", "quadratic"])
    def test_avg_gradient_matches_one_shot(self, kind, activity, chunk_rows):
        model = _mc_model(kind)
        net = NetworkConfig(12, 0.3, 1.0, activity=activity)
        samples = self.ROWS * self.SAMPLES
        assert chunk_rows(model, net) < samples
        point = np.random.default_rng(3).uniform(-3.0, 3.0, 12)
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        np.testing.assert_array_equal(avg_gradient(model, point, net, samples, rng),
                                      reference_avg_gradient(model, point, net, samples, twin))
        assert rng.random() == twin.random()

    def test_eval_F_batch_working_set_is_bounded(self):
        # power-repro's shape: 20 action rows x 2000 samples, N = 50, q_a = 0.05.
        # tracemalloc peak: 20.0 MB with every row drawn at once, 3.4-4.0 MB
        # in row chunks (numpy 2.4); the bound allows twice that
        model = PowerControlModel(50)
        net = NetworkConfig(50, 0.05, 1.0)
        actions = np.random.default_rng(5).uniform(-12.0, 12.0, (20, 50))
        rng = np.random.default_rng(6)
        tracemalloc.start()
        try:
            eval_F_batch(model, actions, net, 2000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_worker_draw_ahead_is_bounded(self, monkeypatch):
        # power-repro's record: 20 action rows x 2000 samples, N = 50, q_a = 0.05,
        # 16 chunks of 2632 rows, all drawn ahead.  tracemalloc: the chunks hold
        # 10.2 MB beside the activity's 1.9 MB, peak 12.6 MB (numpy 2.4).  A
        # record of twice the rows holds 16 chunks (10.7 MB) beside an activity
        # of twice the size.  The bound on the chunks allows 1.5 times that.
        model = PowerControlModel(50)
        net = NetworkConfig(50, 0.05, 1.0)
        drawn, mc_draws = [], harness._mc_draws

        def counted(*args):
            live, chunks = mc_draws(*args)

            def each():
                for chunk in chunks:
                    drawn.append(None)
                    yield chunk
            return live, each()

        class WorkerEnd:
            """The worker's end of the pipe, run in this process: it hands
            over the actions once the worker has drawn ahead."""

            def recv(self):
                self.peak, self.ahead = tracemalloc.get_traced_memory()[1], len(drawn)
                tracemalloc.stop()
                return actions

            def send(self, reply):
                self.reply = reply

            def close(self):
                pass

        monkeypatch.setattr(harness, "_mc_draws", counted)
        monkeypatch.setattr(signal, "signal", lambda *args: None)  # keep pytest's handler
        for rows, chunks in ((40_000, 16), (80_000, 31)):
            live = sample_activity(net, np.random.default_rng(6), rows)
            activity = live.batch_idx.nbytes + live.node_idx.nbytes + live.offsets.nbytes
            actions = np.random.default_rng(5).uniform(-12.0, 12.0, (rows // 2000, 50))
            rng, twin = np.random.default_rng(6), np.random.default_rng(6)
            drawn.clear()
            end = WorkerEnd()
            tracemalloc.start()
            try:
                harness._f_worker(end, end, model, net, 2000, rng, rows, 1)
            finally:
                tracemalloc.stop()
            assert end.ahead == min(chunks, harness._MC_AHEAD_CHUNKS)
            assert end.peak - activity < 16e6
            # the rest of a record larger than the cap is drawn at its actions
            assert len(drawn) == chunks
            for g, w in zip(end.reply, eval_F_batch(model, actions, net, 2000, twin)):
                np.testing.assert_array_equal(g, w)
            assert rng.random() == twin.random()


def _mc_run_config(kind, activity, replications=3, metrics_stride=100):
    """A short run with 4 F_hat records (slots 1, 100, 200, 300) at the
    default stride, one per slot at ``metrics_stride=1``."""
    if kind == "quadratic":
        cfg = quadratic_config(n_nodes=6, q_activity=0.3, horizon=300,
                               replications=replications, seed=8,
                               metrics_stride=metrics_stride, f_mc_samples=40)
    else:
        cfg = power_config(n_nodes=6, q_activity=0.3, horizon=300,
                           replications=replications, seed=8,
                           metrics_stride=metrics_stride, f_mc_samples=40)
        cfg = dataclasses.replace(
            cfg, model_params={**cfg.model_params, "channel": {"fading": kind}})
    return dataclasses.replace(cfg, network=dataclasses.replace(cfg.network, activity=activity))


def _run_on(monkeypatch, cpus, cfg, **kwargs):
    """``run_experiment`` with ``cpus`` usable CPUs, so with the F_hat worker
    (2) or inline (1); checks that the path was the one asked for."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    forked = []
    close = harness._FRecords.close

    def spy(records):
        forked.append(records.proc is not None)
        close(records)

    monkeypatch.setattr(harness._FRecords, "close", spy)
    try:
        return run_experiment(cfg, **kwargs)
    finally:
        assert forked == [cpus >= 2], "the run did not reach its F_hat records"


def _slots_failing_after_record_2(failure):
    """``optimizer.run_slots`` that raises ``failure`` after its 2nd record."""
    def slots(*args, **kwargs):
        for i, record in enumerate(optimizer.run_slots(*args, **kwargs)):
            yield record
            if i == 1:
                raise failure
    return slots


def _failing_eval(at_call, exc):
    """``eval_F_batch`` that raises ``exc`` at its ``at_call``-th call (a
    forked worker counts its own calls from the fork on)."""
    calls = []

    def evaluate(*args):
        calls.append(None)
        if len(calls) == at_call:
            raise exc
        return eval_F_batch(*args)
    return evaluate


class TestFRecordsWorker:
    """F_hat records on the forked worker: the inline path's bits, its
    failures in its order, and no process left behind."""

    @pytest.mark.parametrize("activity", ["binomial", "poisson"])
    @pytest.mark.parametrize("kind", ["real_gaussian", "complex_gaussian", "quadratic"])
    def test_worker_matches_inline(self, kind, activity, monkeypatch):
        # at stride 1 a record's actions arrive while the worker is still
        # drawing that record's samples ahead
        for stride, records in ((100, 4), (1, 300)):
            cfg = _mc_run_config(kind, activity, metrics_stride=stride)
            inline = _run_on(monkeypatch, 1, cfg)
            worker = _run_on(monkeypatch, 2, cfg)
            assert inline.f_hat.shape == (3, records)
            np.testing.assert_array_equal(worker.f_hat, inline.f_hat)
            np.testing.assert_array_equal(worker.f_stderr, inline.f_stderr)
            np.testing.assert_array_equal(worker.final_actions, inline.final_actions)
            assert multiprocessing.active_children() == []

    def test_worker_draws_each_record_once(self, tmp_path, monkeypatch):
        # a forked worker's counters never reach the parent: each record's
        # draw leaves a file; the third of a run stopped after record 2 would
        # take a minute, and close() must not wait for it
        mc_draws = harness._mc_draws

        def logged(*args):
            calls = len(os.listdir(tmp_path))
            (tmp_path / f"draw{calls + 1}").touch()
            if stop_after_two and calls == 2:
                time.sleep(60)
            return mc_draws(*args)

        monkeypatch.setattr(harness, "_mc_draws", logged)
        stop_after_two = False
        _run_on(monkeypatch, 2, _mc_run_config("quadratic", "binomial"))
        assert len(os.listdir(tmp_path)) == 4
        for path in tmp_path.iterdir():
            path.unlink()

        slot_failure = FeasibilityError("slot failure after the 2nd record")
        monkeypatch.setattr(harness, "run_slots", _slots_failing_after_record_2(slot_failure))
        stop_after_two = True
        start = time.monotonic()
        with pytest.raises(FeasibilityError):
            _run_on(monkeypatch, 2, _mc_run_config("quadratic", "binomial"))
        assert time.monotonic() - start < 30
        assert 2 <= len(os.listdir(tmp_path)) <= 3
        assert multiprocessing.active_children() == []

    def test_utility_mc_seed_override_reaches_the_worker(self, monkeypatch):
        cfg = _mc_run_config("real_gaussian", "binomial", replications=2)
        unseeded = _run_on(monkeypatch, 2, cfg)
        # the forked worker inherits the patched streams
        monkeypatch.setattr(harness, "role_streams", reseeded_role_streams({"utility_mc": 12345}))
        inline = _run_on(monkeypatch, 1, cfg)
        worker = _run_on(monkeypatch, 2, cfg)
        np.testing.assert_array_equal(worker.f_hat, inline.f_hat)
        np.testing.assert_array_equal(worker.f_stderr, inline.f_stderr)
        assert not np.array_equal(worker.f_hat, unseeded.f_hat)

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "worker"])
    @pytest.mark.parametrize("exc", [NumericError("record boom"), KeyError("record boom"), None],
                             ids=["numeric", "other", "records-succeed"])
    def test_record_failure_comes_before_later_slot_failures(self, cpus, exc, monkeypatch):
        slot_failure = FeasibilityError("slot failure after the 2nd record")
        monkeypatch.setattr(harness, "run_slots", _slots_failing_after_record_2(slot_failure))
        if exc is not None:
            monkeypatch.setattr(harness, "eval_F_batch", _failing_eval(2, exc))
        expected = slot_failure if exc is None else exc
        with pytest.raises(type(expected)) as info:
            _run_on(monkeypatch, cpus, _mc_run_config("quadratic", "binomial"))
        assert str(info.value) == str(expected)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "worker"])
    @pytest.mark.parametrize("at_record", [2, 3])
    def test_draw_failure_comes_out_at_its_record(self, cpus, at_record, monkeypatch):
        # the worker draws record 3's samples after its 2nd reply, while the
        # run is failing at its slot: only a failure of records 1-2 is raised
        draw_failure = KeyError("draw boom")
        slot_failure = FeasibilityError("slot failure after the 2nd record")
        mc_draws, calls = harness._mc_draws, []

        def failing_draws(*args):
            calls.append(None)
            if len(calls) == at_record:
                raise draw_failure
            return mc_draws(*args)

        monkeypatch.setattr(harness, "_mc_draws", failing_draws)
        monkeypatch.setattr(harness, "run_slots", _slots_failing_after_record_2(slot_failure))
        expected = draw_failure if at_record == 2 else slot_failure
        with pytest.raises(type(expected)) as info:
            _run_on(monkeypatch, cpus, _mc_run_config("quadratic", "binomial"))
        assert str(info.value) == str(expected)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "worker"])
    def test_non_finite_record_names_slot_and_replication(self, cpus, monkeypatch):
        # the slot's own utilities are nan too, so slot 1 fails right after
        # record 1 is handed over; the record's failure still comes out
        class NaNModel(QuadraticModel):
            def local_utilities(self, a_hat, live, env):
                return np.full(live.size, np.nan)

        cfg = _mc_run_config("quadratic", "binomial")
        monkeypatch.setattr(harness, "build_model", lambda cfg: NaNModel(np.zeros(6)))
        with pytest.raises(NumericError) as info:
            _run_on(monkeypatch, cpus, cfg)
        assert str(info.value) == ("slot 1: non-finite Monte-Carlo utility estimate "
                                   "for replication 0")

    def test_dead_worker_is_a_numeric_failure(self, tmp_path, monkeypatch, capsys):
        def die(*args):
            os._exit(7)

        monkeypatch.setattr(harness, "eval_F_batch", die)
        with pytest.raises(NumericError) as info:
            _run_on(monkeypatch, 2, _mc_run_config("quadratic", "binomial"))
        assert str(info.value) == ("slot 1: the Monte-Carlo worker exited with code 7 "
                                   "before replying")
        path = tmp_path / "cfg.yaml"
        write_yaml(_mc_run_config("quadratic", "binomial"), path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.strip().splitlines() == [
            "numeric failure: slot 1: the Monte-Carlo worker exited with code 7 "
            "before replying"]

    @pytest.mark.skipif(harness._usable_cpus() < 2, reason="a run forks no worker on 1 CPU")
    def test_worker_exits_when_its_parent_is_killed(self, tmp_path):
        # a run of about a minute; the worker must notice its parent's SIGKILL
        cfg = power_config(horizon=1_000_000, f_mc_samples=2000)
        path = tmp_path / "cfg.yaml"
        write_yaml(cfg, path)
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        code = ("from dosp import harness; "
                f"harness.run_experiment(harness.ExperimentConfig.from_yaml({str(path)!r}))")
        proc = subprocess.Popen([sys.executable, "-c", code],
                                env=dict(os.environ, PYTHONPATH=src))
        children = f"/proc/{proc.pid}/task/{proc.pid}/children"
        try:
            worker = None
            deadline = time.monotonic() + 60
            while worker is None and proc.poll() is None and time.monotonic() < deadline:
                try:
                    with open(children, encoding="ascii") as fh:
                        pids = fh.read().split()
                except FileNotFoundError:
                    pytest.skip("this kernel does not list a process's children")
                worker = int(pids[0]) if pids else None
                time.sleep(0.05)
            assert worker is not None, "the run forked no worker"
            time.sleep(0.5)  # into the slot loop, with records in flight
        finally:
            proc.kill()
            proc.wait()
        deadline = time.monotonic() + 5
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        if _running(worker):
            os.kill(worker, signal.SIGKILL)
            pytest.fail("the worker outlived its killed parent by 5 s")


def _running(pid) -> bool:
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _n5_power_config(seed):
    """Every node active, bounds +-2: the config whose sampled alpha_F sign
    depends on the seed."""
    cfg = power_config(n_nodes=5, q_activity=1.0, bound=2.0, horizon=200,
                       replications=2, seed=seed)
    return dataclasses.replace(cfg, schedule=StepSizeSchedule(0.5, 0.5, 0.75, 0.25))


def _reference_constants(cfg, model, a_star):
    """The reference constants; alpha_F None where the reference refuses
    a non-positive one."""
    try:
        return reference_model_constants(cfg, model, a_star)
    except ConfigError:
        rng = RngStream(cfg.seed, CONSTANTS_STREAM).generator()
        reference_constants_sample(cfg, model, rng)
        return ModelConstants(
            alpha_F=None, alpha_G=reference_estimate_alpha_G(cfg, model)[0],
            lipschitz=reference_estimate_lipschitz(model, cfg.bounds, cfg.network, rng,
                                                   n_draws=2000),
            sigma_eta=cfg.sigma_eta, sigma_a_sq=cfg.bounds.sigma_a_sq, sampled=True)


class TestModelConstants:
    @pytest.fixture(scope="class")
    def n5_optimum(self):
        return solve_optimum(_n5_power_config(7), tolerance=0.05).a_star

    def test_power_constants_match_the_separate_samplers(self, n5_optimum):
        refused = []
        for seed in range(1, 21):
            cfg = _n5_power_config(seed)
            model = build_model(cfg)
            consts = model_constants(cfg, model, n5_optimum)
            reference = _reference_constants(cfg, model, n5_optimum)
            assert consts.sampled
            if reference.alpha_F is None:
                refused.append(seed)
                assert consts.alpha_F <= 0
                consts = dataclasses.replace(consts, alpha_F=None)
            assert consts == reference, seed
        # the one-draw gradient makes alpha_F's sign a matter of the seed
        assert refused == [3, 4, 14]

    def test_shipped_power_config_matches_the_separate_samplers(self):
        cfg = ExperimentConfig.from_yaml(
            os.path.join(CONFIGS, "power_utility_reception_sweep.yaml"))
        model = build_model(cfg)
        a_star = solve_optimum(cfg, tolerance=0.05).a_star
        consts = model_constants(cfg, model, a_star)
        reference = _reference_constants(cfg, model, a_star)
        assert reference.alpha_F is None and consts.alpha_F <= 0
        assert dataclasses.replace(consts, alpha_F=None) == reference

    def test_without_an_optimum_alpha_F_is_nan(self):
        cfg = _n5_power_config(7)
        model = build_model(cfg)
        consts = model_constants(cfg, model)
        assert np.isnan(consts.alpha_F)
        assert consts.alpha_G == reference_estimate_alpha_G(cfg, model)[0]

    def test_quadratic_constants_are_the_closed_forms(self):
        cfg = quadratic_config(n_nodes=5, bound=3.0, horizon=1, replications=1)
        model = build_model(cfg)
        consts = model_constants(cfg, model)
        assert not consts.sampled and consts.alpha_G == 2.0
        assert consts == reference_model_constants(cfg, model, model.optimum_hint)

import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from dosp import (
    ActionBounds,
    ConfigError,
    NetworkConfig,
    PerturbationSpec,
    StepSizeSchedule,
)
from dosp import harness, optimizer
from dosp.core import FeasibilityError, NumericError, RngStream, role_streams
from dosp.harness import emit_outputs, run_experiment
from dosp.network import ActiveSet, sample_activity
from dosp.objectives import PowerControlModel, QuadraticModel
from dosp.optimizer import (
    TRACE_COLUMNS,
    NodeStates,
    assert_feasible,
    exact_gradient,
    initialize_states,
    project,
    run_slots,
    sample_step_index,
    slot_block,
)

from reference_configs import power_config, quadratic_config
from oracles import CountingGenerator, block_slot, mask_of, reseeded_role_streams


def _live(mask):
    return ActiveSet.from_mask(np.atleast_2d(mask))


def _rows(trace, *names):
    """The named trace columns, row by row, as Python numbers."""
    return zip(*(trace[name].tolist() for name in names))


class TestStepIndex:
    def test_first_slot_active_gets_one(self):
        got = sample_step_index(1, 0.3, _live([True, True]), RngStream(0, 0).generator())
        assert got.size == 2 and np.all(got == 1)
        for k in (0, np.array([3, 0])):
            with pytest.raises(ValueError, match="^slot index starts at 1$"):
                sample_step_index(k, 0.3, _live([True, True]), RngStream(0, 0).generator())

    def test_inactive_gets_zero(self):
        # inactive entries are not on the live list, so they get no index
        for k in (10, np.array([], dtype=np.int64)):
            got = sample_step_index(k, 0.3, _live([False]), RngStream(0, 0).generator())
            assert got.shape == (0,)

    def test_sampled_mean(self):
        rng = RngStream(1, 0).generator()
        got = sample_step_index(101, 0.05, _live(np.ones(100_000, dtype=bool)), rng)
        mean_tilde = (got - 1).mean()
        se = np.sqrt(100 * 0.05 * 0.95 / 100_000)
        assert abs(mean_tilde - 5.0) <= 3 * se

    def test_counted_uses_activation_history(self):
        counts = np.array([0, 3, 7])
        live = _live([True, True, False])
        _, got = optimizer._sort_cells(live.node_idx, counts.size, counts)
        assert list(got) == [1, 4]

    @pytest.mark.parametrize("slots", [7, None])
    def test_counted_index_is_the_cells_own_count(self, slots, monkeypatch):
        # across block boundaries and the pending slot each block starts with
        if slots:
            monkeypatch.setattr(optimizer, "block_slots", lambda *args: slots)
        batch, net = 3, NetworkConfig(5, 0.3, 0.5)
        schedule, pert = StepSizeSchedule(0.1, 0.5, 0.75, 0.25), PerturbationSpec.rademacher()
        bounds, rngs = ActionBounds.uniform(5, -5.0, 5.0), role_streams(12)
        states = initialize_states(bounds, schedule, pert, net, batch, rngs, index_mode="counted")
        trace = {}
        list(run_slots(states, 50, QuadraticModel(np.zeros(5)), net, bounds, rngs,
                       schedule=schedule, pert=pert, traces=trace))
        rows = Counter()
        for rep, node, ell in _rows(trace, "replication", "node", "ell"):
            assert ell - 1 == rows[rep, node]
            rows[rep, node] += 1
        counts = np.zeros((batch, 5), dtype=np.int64)
        for (rep, node), c in rows.items():
            counts[rep, node] = c
        np.testing.assert_array_equal(states.activations, counts)
        assert max(rows.values()) > 7


class TestProjection:
    def setup_method(self):
        self.bounds = ActionBounds.uniform(3, -1.0, 2.0)

    def test_interior_point_unchanged(self):
        a = np.array([0.3, 0.0, 1.1])
        out = project(a, np.arange(3), self.bounds, 1.0, np.zeros(3))
        np.testing.assert_array_equal(out, a)

    def test_upper_clamp(self):
        out = project(np.array([7.0, 0.0, 0.0]), np.arange(3), self.bounds, 1.0,
                      np.array([0.5, 0.0, 0.0]))
        assert out[0] == pytest.approx(2.0 - 0.5, rel=1e-12)

    def test_zero_gamma_is_plain_clamp(self):
        out = project(np.array([-9.0, 9.0, 0.5]), np.arange(3), self.bounds, 1.0, np.zeros(3))
        np.testing.assert_allclose(out, [-1.0, 2.0, 0.5], rtol=1e-15)

    @pytest.mark.parametrize("gamma", [5.0, 1.5], ids=["inverted", "zero-width"])
    def test_empty_interval_rejected(self, gamma):
        # at gamma~ = 1.5 the interval is the one point 0.5, which the one-ulp nudge empties
        with pytest.raises(ConfigError, match="alpha_phi \\* gamma~"):
            project(np.zeros(3), np.arange(3), self.bounds, 1.0, np.full(3, gamma))


def _tiny_setup(q_a=0.5, n=4, seed=77, q_r=1.0, gamma0=0.5):
    netcfg = NetworkConfig(n, q_a, q_r)
    schedule = StepSizeSchedule(0.1, gamma0, 0.75, 0.25)
    pert = PerturbationSpec.rademacher()
    bounds = ActionBounds.uniform(n, -5.0, 5.0)
    model = QuadraticModel(np.linspace(-1, 1, n))
    rngs = role_streams(seed)
    states = initialize_states(bounds, schedule, pert, netcfg, 1, rngs)
    return model, netcfg, schedule, pert, bounds, rngs, states


class TestSlotSemantics:
    def test_update_arithmetic_matches_trace(self):
        model, netcfg, schedule, pert, bounds, rngs, _ = _tiny_setup()
        # start at the targets so updates stay interior and the projection is
        # the identity: the new action must be exactly a + beta * phi * f~
        states = NodeStates(
            actions=model.targets[None, :].copy(),
            live=_live([True, False, True, True]),
        )
        before = states.actions.copy()
        inactive = ~mask_of(states.live)[0]
        trace = {}
        list(run_slots(states, 1, model, netcfg, bounds, rngs, schedule=schedule,
                       pert=pert, traces=trace))
        assert set(trace) == set(TRACE_COLUMNS)
        assert trace["node"].size == 3
        for node, ell, a, a_hat, f_tilde, beta, gamma, phi in _rows(
                trace, "node", "ell", "a", "a_hat", "f_tilde", "beta", "gamma", "phi"):
            expected = a + beta * phi * f_tilde
            assert states.actions[0, node] == pytest.approx(expected, rel=1e-12)
            assert a_hat == pytest.approx(a + gamma * phi, rel=1e-12)
            assert beta == schedule.beta(ell)
            assert gamma == schedule.gamma(ell)
        assert np.array_equal(states.actions[0, inactive], before[0, inactive])

    def test_all_inactive_slot_keeps_state(self):
        model, netcfg, schedule, pert, bounds, rngs, _ = _tiny_setup()
        states = NodeStates(
            actions=np.array([[0.5, -0.25, 1.0, 2.0]]),
            live=_live(np.zeros(4, dtype=bool)),
        )
        before = states.actions.copy()
        trace = {}
        list(run_slots(states, 1, model, netcfg, bounds, rngs, schedule=schedule,
                       pert=pert, traces=trace))
        assert set(trace) == set(TRACE_COLUMNS)
        assert all(column.size == 0 for column in trace.values())
        np.testing.assert_array_equal(states.actions, before)

    def test_step_size_equivalence(self):
        # every traced step size equals the schedule at the node's drawn index
        cfg = quadratic_config(n_nodes=6, q_activity=0.4, horizon=200,
                               replications=1, seed=5, metrics_stride=50,
                               sigma_eta=0.2)
        ds = run_experiment(cfg, trace=True)
        assert ds.traces["k"].size, "expected active nodes in 200 slots"
        # delta is 1 on every row: the files write it, see test_harness
        for ell, beta, gamma in _rows(ds.traces, "ell", "beta", "gamma"):
            assert beta == cfg.schedule.beta(ell)
            assert gamma == cfg.schedule.gamma(ell)

    def test_performed_actions_always_feasible(self):
        # stress the boundary: the shrunk interval is only 0.1 wide at the start
        cfg = quadratic_config(n_nodes=5, q_activity=0.5, beta0=0.9, gamma0=2.0,
                               bound=2.05, horizon=3000, replications=2, seed=9,
                               metrics_stride=500, sigma_eta=1.0)
        ds = run_experiment(cfg, trace=True)
        lo, hi = -2.05, 2.05
        performed = ds.traces["a_hat"]
        assert performed.size > 1000
        assert performed.min() >= lo and performed.max() <= hi

    def test_vectorized_reception_matches_estimator_module(self):
        # dual route: replay the engine's reception draws and rebuild every
        # f~ with the scalar estimator
        from dosp.estimator import estimate_global_utility, sample_reception
        from oracles import UtilityObservation, scalar_global_utility

        rng = RngStream(321, 0).generator()
        twin = RngStream(321, 0).generator()
        q_r = 0.4
        b, n = 5, 7
        active = rng.random((b, n)) < 0.6
        u_tilde = np.where(active, rng.standard_normal((b, n)), 0.0)
        live = ActiveSet.from_mask(active)
        got = estimate_global_utility(u_tilde[active], live, q_r,
                                      sample_reception(live, q_r, rng))
        twin.random((b, n))  # activity draws consumed above
        twin.standard_normal((b, n))
        # one uniform per ordered pair of a row's active nodes, receiver-major
        entry = 0
        for row in range(b):
            nodes = np.flatnonzero(active[row])
            kappa = twin.random((nodes.size, nodes.size)) < q_r  # [receiver, sender]
            for r, i in enumerate(nodes):
                received = [
                    UtilityObservation(int(j), float(u_tilde[row, j]))
                    for s, j in enumerate(nodes)
                    if s != r and kappa[r, s]
                ]
                own = UtilityObservation(int(i), float(u_tilde[row, i]))
                expected = scalar_global_utility(own, received, q_r)
                assert got[entry] == pytest.approx(expected, rel=1e-12)
                entry += 1
        assert entry == got.size

    def test_perturbation_stream_drives_exploration(self, monkeypatch):
        cfg = quadratic_config(n_nodes=6, q_activity=0.3, horizon=300,
                               replications=2, seed=21, metrics_stride=100)
        base = run_experiment(cfg)
        same = run_experiment(cfg)
        np.testing.assert_array_equal(base.final_actions, same.final_actions)
        monkeypatch.setattr(harness, "role_streams", reseeded_role_streams({"perturbation": 9999}))
        other = run_experiment(cfg)
        assert not np.array_equal(base.final_actions, other.final_actions)

    def test_counted_mode_marginal_index_law(self):
        cfg = quadratic_config(n_nodes=40, q_activity=0.2, horizon=301,
                               replications=30, seed=13, metrics_stride=301,
                               index_mode="counted")
        ds = run_experiment(cfg, trace=True)
        k = 301
        ells = ds.traces["ell"][ds.traces["k"] == k]
        assert ells.size > 150
        mean_expected = 1 + (k - 1) * 0.2
        se = np.sqrt((k - 1) * 0.2 * 0.8 / ells.size)
        assert abs(ells.mean() - mean_expected) <= 3.5 * se


class TestDrawCounts:
    """Every draw is made for the live entries only: a run on a wide, sparse
    network costs draws in proportion to its live entries.  A block draws each
    role once for all its slots, so the counts are whole-run totals."""

    @pytest.mark.parametrize("kind, activity, index_mode",
                             [("quadratic", "binomial", "sampled"),
                              ("power", "binomial", "sampled"),
                              ("quadratic", "poisson", "sampled"),
                              ("quadratic", "binomial", "counted")],
                             ids=["quadratic", "power", "poisson", "counted"])
    def test_draws_follow_live_entries(self, kind, activity, index_mode):
        n, batch, horizon = 2000, 4, 40
        netcfg = NetworkConfig(n, 0.005, 0.5, activity=activity)
        schedule = StepSizeSchedule(0.1, 0.5, 0.75, 0.25)
        pert = PerturbationSpec.rademacher()
        bounds = ActionBounds.uniform(n, -5.0, 5.0)
        model = (QuadraticModel(QuadraticModel.default_targets(n)) if kind == "quadratic"
                 else PowerControlModel(n))

        def run(mode):
            rngs = {role: CountingGenerator(g) for role, g in role_streams(11).items()}
            states = initialize_states(bounds, schedule, pert, netcfg, batch, rngs, mode)
            first_slot = states.live.size
            for gen in rngs.values():
                gen.counts.clear()
            trace = {}
            list(run_slots(states, horizon, model, netcfg, bounds, rngs, schedule=schedule,
                           pert=pert, sigma_eta=0.3, traces=trace))
            return rngs, states, first_slot, trace

        rngs, states, first_slot, trace = run(index_mode)
        live_total = trace["k"].size  # sum over slots of the live entries A
        per_row = Counter(_rows(trace, "replication", "k"))  # live entries of each row
        pairs = sum(c * c for c in per_row.values())
        assert rngs["perturbation"].total() == live_total
        assert rngs["noise"].total() == live_total
        assert rngs["channel"].total() == (live_total if kind == "quadratic" else pairs)
        assert rngs["reception"].total() == pairs
        # activity is drawn for slots 2 .. horizon + 1, indices for slots
        # 1 .. horizon + 1 (slot 1's are Binomial(0, q_a) values)
        drawn = live_total - first_slot + states.live.size
        if index_mode == "sampled":
            assert rngs["index"].total() == live_total + states.live.size
        else:
            # the counted index is read off the counts: the index stream is
            # never called, and every other role draws as in a sampled run
            assert not rngs["index"].counts
            sampled = run("sampled")[0]
            assert all(rngs[role].counts == sampled[role].counts
                       for role in rngs if role != "index")
        if activity == "binomial":
            assert rngs["activity"].total() == horizon * batch * n
        else:
            # B counts per slot, then one node per live entry plus redraws
            assert rngs["activity"].total() <= horizon * batch + 2 * drawn < horizon * batch * n
        assert live_total > 0


def test_initialize_states_working_set_is_bounded():
    # B * N = 2e6 at q_a = 0.05.  tracemalloc peak: 4.15 times the action
    # array with the interval bounds tiled to (B, N), 1.40 times with the
    # uniforms scaled in place (numpy 2.4); the bound allows 2 times
    batch, n = 20, 100_000
    net = NetworkConfig(n, 0.05, 1.0)
    args = (ActionBounds.uniform(n, -5.0, 5.0), StepSizeSchedule(0.1, 0.5, 0.75, 0.25),
            PerturbationSpec.rademacher(), net, batch, role_streams(3))
    tracemalloc.start()
    try:
        states = initialize_states(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * states.actions.nbytes


def test_counted_slot_loop_working_set_follows_live_entries():
    # B * N = 1e7 at 10 live nodes per row: the counted index mode keeps
    # (B, N) counts, but a block adds to them per live cell, so the slot loop
    # holds about what the sampled mode does (0.7 MB), not a (B, N) temporary
    batch, n = 10, 1_000_000
    net = NetworkConfig(n, 10 / n, 1.0, activity="poisson")
    schedule, pert = StepSizeSchedule(0.1, 0.5, 0.75, 0.25), PerturbationSpec.rademacher()
    bounds, rngs = ActionBounds.uniform(n, -5.0, 5.0), role_streams(5)
    states = initialize_states(bounds, schedule, pert, net, batch, rngs, index_mode="counted")
    model = QuadraticModel(np.zeros(n))
    tracemalloc.start()
    try:
        for _ in run_slots(states, 200, model, net, bounds, rngs, schedule=schedule, pert=pert):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.activations.sum() > 0
    assert peak < 0.05 * states.actions.nbytes


def _digest_run(cfg, out_dir):
    """Final actions and every output file's bytes of one traced run."""
    ds = run_experiment(cfg, trace=True)
    files = {p.rsplit("/", 1)[-1]: open(p, "rb").read() for p in emit_outputs(ds, out_dir)}
    return ds.final_actions, files


BLOCK_CASES = {
    "quadratic-counted": quadratic_config(n_nodes=7, q_activity=0.3, q_reception=0.5,
                                          horizon=233, replications=3, seed=3,
                                          metrics_stride=25, sigma_eta=0.7,
                                          index_mode="counted"),
    "power-sampled": power_config(n_nodes=8, q_activity=0.25, horizon=131, replications=2,
                                  seed=8, metrics_stride=25, f_mc_samples=20),
    # the pair environment and the reception pairs sliced together
    "power-reception": dataclasses.replace(
        power_config(n_nodes=8, q_activity=0.25, q_reception=0.5, horizon=131,
                     replications=2, seed=9, metrics_stride=25, f_mc_samples=20,
                     sigma_eta=0.3),
        model_params={"omega1": 20.0, "omega2": 1.0,
                      "channel": {"fading": "complex_gaussian"}}),
    "ideal-gradient": power_config(n_nodes=8, q_activity=0.25, horizon=131, replications=2,
                                   seed=17, metrics_stride=25, f_mc_samples=20,
                                   algorithm="ideal_gradient"),
}


class TestSlotBlocks:
    """The block size is a memory budget, not a parameter of the run."""

    @pytest.mark.parametrize("name", list(BLOCK_CASES))
    def test_outputs_do_not_depend_on_block_size(self, name, monkeypatch, tmp_path):
        cfg = BLOCK_CASES[name]
        # some record slot falls inside a 7-slot block, and the last block is partial
        assert any((k - 1) % 7 for k in range(cfg.metrics_stride, cfg.horizon, cfg.metrics_stride))
        assert cfg.horizon % 7
        runs = [_digest_run(cfg, tmp_path / "default")]
        for slots in (1, 7):
            monkeypatch.setattr(optimizer, "block_slots", lambda *args, s=slots: s)
            runs.append(_digest_run(cfg, tmp_path / str(slots)))
        for actions, files in runs[1:]:
            np.testing.assert_array_equal(actions, runs[0][0])
            assert files == runs[0][1]
        if cfg.algorithm == "dosp_s":
            assert any(f.startswith("trace_rep") for f in runs[0][1])

    @pytest.mark.parametrize("name", list(BLOCK_CASES))
    def test_one_model_evaluation_per_wave(self, name, monkeypatch):
        """The slot loop evaluates each wave through the model's own method,
        once: the learner's local utilities or the baseline's gradient.  A
        copy of a model's formula inside the slot engine would skip it."""
        # no F_hat: its Monte-Carlo average evaluates the utilities too
        cfg = dataclasses.replace(BLOCK_CASES[name], f_mc_samples=0)
        waves, calls = [], Counter()
        find = optimizer._waves

        def counted_waves(*args):
            bounds = find(*args)
            waves.append(len(bounds) - 1)
            return bounds

        def counting(model, method):
            evaluate = getattr(model, method)

            def counted(self, *args):
                calls[method] += 1
                return evaluate(self, *args)
            return counted

        monkeypatch.setattr(optimizer, "_waves", counted_waves)
        for model in (QuadraticModel, PowerControlModel):
            for method in ("local_utilities", "global_gradient"):
                monkeypatch.setattr(model, method, counting(model, method))
        run_experiment(cfg)
        used = "local_utilities" if cfg.algorithm == "dosp_s" else "global_gradient"
        assert sum(waves) > 1
        assert calls == {used: sum(waves)}

    @pytest.mark.parametrize("slots", [1, 7, None])
    def test_poisson_blocks_are_well_formed_and_rerun_identically(self, slots, monkeypatch,
                                                                  tmp_path):
        cfg = quadratic_config(n_nodes=30, q_activity=0.1, horizon=60, replications=3,
                               seed=4, metrics_stride=20)
        cfg = dataclasses.replace(cfg, network=dataclasses.replace(cfg.network,
                                                                   activity="poisson"))
        if slots:
            monkeypatch.setattr(optimizer, "block_slots", lambda *args: slots)
        blocks = []
        build = optimizer.slot_block

        def checked(live, step_index, batch, *args, **kwargs):
            blocks.append(live.shape[0] // batch)
            assert live.shape == (blocks[-1] * batch, 30)
            assert live.offsets[0] == 0 and live.offsets[-1] == live.size == step_index.size
            np.testing.assert_array_equal(live.counts,
                                          np.bincount(live.batch_idx, minlength=live.shape[0]))
            # row-major, nodes strictly ascending within a row
            assert np.all(np.diff(live.batch_idx * 30 + live.node_idx) > 0)
            return build(live, step_index, batch, *args, **kwargs)

        monkeypatch.setattr(optimizer, "slot_block", checked)
        first = _digest_run(cfg, tmp_path / "first")
        second = _digest_run(cfg, tmp_path / "second")
        assert sum(blocks) == 2 * cfg.horizon
        assert blocks[0] == (slots or cfg.horizon)
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1] == second[1]


class TestSortSkip:
    """A ``sampled`` block that expects every slot to be its own wave cuts
    there without the cell sort."""

    # the benchmark workloads: network, replications, and whether pairs are drawn
    SHAPES = {
        "divergence-rate": (NetworkConfig(20, 0.1, 0.1), 50, True),
        "power-repro": (NetworkConfig(50, 0.05, 1.0), 20, True),
        "wide-poisson": (NetworkConfig(1000, 0.01, 1.0, activity="poisson"), 10, False),
        "power-single": (NetworkConfig(50, 0.05, 1.0), 1, True),
    }

    def test_only_divergence_rate_skips_the_sort(self):
        skips = {name: optimizer._skips_sort(net, b, optimizer.block_slots(net, b, pairwise))
                 for name, (net, b, pairwise) in self.SHAPES.items()}
        assert skips == {"divergence-rate": True, "power-repro": False,
                         "wide-poisson": False, "power-single": False}
        # every node live in every slot: no two slots can share a wave
        assert optimizer._skips_sort(NetworkConfig(3, 1.0, 1.0), 2, 16)

    @pytest.mark.parametrize("index_mode", ["sampled", "counted"])
    def test_divergence_rate_sorts_only_for_counted_indices(self, index_mode, monkeypatch):
        # the divergence-rate shape in 20-slot blocks; counted indices are the sort's ranks
        cfg = quadratic_config(q_reception=0.1, horizon=100, replications=50,
                               index_mode=index_mode)
        calls = Counter()

        def counting(name):
            call = getattr(optimizer, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return call(*args, **kwargs)
            return counted

        for name in ("_advance", "_sort_cells"):
            monkeypatch.setattr(optimizer, name, counting(name))
        run_experiment(cfg)
        assert calls["_advance"] == 5
        assert calls["_sort_cells"] == (5 if index_mode == "counted" else 0)


def _planted_run(monkeypatch, net, batch, plant, record_at=()):
    """Run the learner on ``net`` for 40 slots in 16-slot blocks after
    ``plant(block)`` has edited the first block's draws; returns the record
    slots yielded before the run stopped, and the error it stopped with."""
    monkeypatch.setattr(optimizer, "block_slots", lambda *args: 16)
    build = optimizer._advance

    def planted(*args, **kwargs):
        block = build(*args, **kwargs)
        if block.k0 == 1:
            plant(block)
        return block

    monkeypatch.setattr(optimizer, "_advance", planted)
    schedule = StepSizeSchedule(0.1, 0.5, 0.75, 0.25)
    pert = PerturbationSpec.rademacher()
    bounds = ActionBounds.uniform(net.n_nodes, -5.0, 5.0)
    rngs = role_streams(6)
    states = initialize_states(bounds, schedule, pert, net, batch, rngs)
    seen = []
    with pytest.raises((FeasibilityError, NumericError)) as failure:
        for k, _ in run_slots(states, 40, QuadraticModel(np.zeros(net.n_nodes)), net, bounds,
                              rngs, record_at, schedule=schedule, pert=pert, sigma_eta=0.1):
            seen.append(k)
    return seen, failure.value


def _row_entry(block, k, rep):
    """The first entry of replication ``rep`` at slot ``k`` of a block."""
    return int(block.live.offsets[(k - block.k0) * block.batch + rep])


def _infeasible(block, j):
    """Plant a performed action beyond its upper bound at entry ``j``: its
    projection interval lies past the bound by more than gamma~."""
    block.lo[j] = block.hi[j] = block.upper[j] + 1.0
    return (f"slot {block.k0 + int(block.live.batch_idx[j]) // block.batch}: performed action "
            f"left its interval at (replication, node) = "
            f"({int(block.live.batch_idx[j]) % block.batch}, {int(block.live.node_idx[j])})")


def _non_finite(block, j):
    """Plant a NaN observation at entry ``j``: every f~ of its row is NaN."""
    block.noise[j] = np.nan
    row = int(block.live.batch_idx[j])
    first = int(block.live.offsets[row])
    return (f"slot {block.k0 + row // block.batch}: non-finite utility estimate at "
            f"(replication, node) = ({row % block.batch}, {int(block.live.node_idx[first])})")


class TestGuards:
    """The hard checks name the slot and the (replication, node) of the first
    bad entry, also in the middle of a block.  Feasibility is asserted per
    block segment and finiteness per wave, yet a run fails as the slots run
    one by one would: at the earliest flagged slot, the feasibility check
    first within a slot, and before any later record is yielded."""

    def test_non_finite_utility_mid_block(self, monkeypatch):
        monkeypatch.setattr(optimizer, "block_slots", lambda *args: 16)
        net = NetworkConfig(3, 1.0, 1.0)
        schedule = StepSizeSchedule(0.1, 0.5, 0.75, 0.25)
        pert = PerturbationSpec.rademacher()
        bounds = ActionBounds.uniform(3, -5.0, 5.0)

        class Faulty(QuadraticModel):
            calls = 0

            def local_utilities(self, a_hat, live, env):
                u = super().local_utilities(a_hat, live, env)
                self.calls += 1
                if self.calls == 5:  # slot 5 of the first 16-slot block
                    u[np.searchsorted(live.batch_idx, 1)] = np.nan  # replication 1's first entry
                return u

        model = Faulty(np.zeros(3))
        rngs = role_streams(6)
        states = initialize_states(bounds, schedule, pert, net, 2, rngs)
        with pytest.raises(NumericError, match=r"^slot 5: non-finite utility estimate at "
                                               r"\(replication, node\) = \(1, 0\)$"):
            list(run_slots(states, 40, model, net, bounds, rngs, schedule=schedule, pert=pert))
        assert model.calls == 5

    def test_infeasible_action_mid_block(self):
        net = NetworkConfig(4, 0.5, 0.5)
        schedule = StepSizeSchedule(0.1, 0.5, 0.75, 0.25)
        pert = PerturbationSpec.rademacher()
        bounds = ActionBounds.uniform(4, -2.0, 2.0)
        model = QuadraticModel(np.zeros(4))
        rngs = role_streams(7)
        batch = 3
        live = sample_activity(net, rngs["activity"], 16 * batch)
        block = slot_block(live, np.ones(live.size, dtype=np.int64), batch, model, net, rngs,
                           bounds, schedule=schedule, pert=pert)
        slot = block_slot(block, 5)
        assert slot.k == 6 and slot.live.size > 0
        # beyond the bound by more than gamma(1) = 0.5: every performed action leaves it
        a = block.upper[slot.entries] + 0.6
        first = (int(slot.live.batch_idx[0]), int(slot.live.node_idx[0]))
        block.start[slot.entries] = a  # the slot-start actions the step performed from
        with pytest.raises(FeasibilityError, match=rf"^slot 6: .* = \({first[0]}, {first[1]}\)$"):
            assert_feasible(block, 0, block.live.size)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_non_finite_utility_inside_a_wave(self, batch):
        # sparse activity: most waves hold several slots, and the NaN goes to
        # the first entry of a wave that is not in the wave's first slot
        net = NetworkConfig(20, 0.05, 1.0)
        schedule = StepSizeSchedule(0.1, 0.5, 0.75, 0.25)
        pert = PerturbationSpec.rademacher()
        bounds = ActionBounds.uniform(20, -5.0, 5.0)

        class Faulty(QuadraticModel):
            slots_run = 0  # slots of the waves before this call
            planted = None  # (slot, replication, node) of the NaN

            def local_utilities(self, a_hat, live, env):
                u = super().local_utilities(a_hat, live, env)
                later = np.flatnonzero(live.batch_idx >= batch)
                if self.planted is None and later.size:
                    j = later[0]
                    u[j] = np.nan
                    s, rep = divmod(int(live.batch_idx[j]), batch)
                    # the targets are distinct, so an entry's target names its node
                    node = int(np.flatnonzero(self.targets == env.target[j])[0])
                    self.planted = (self.slots_run + 1 + s, rep, node)
                self.slots_run += live.shape[0] // batch
                return u

        model = Faulty(np.linspace(-1.0, 1.0, 20))
        rngs = role_streams(8)
        states = initialize_states(bounds, schedule, pert, net, batch, rngs)
        with pytest.raises(NumericError) as failure:
            list(run_slots(states, 200, model, net, bounds, rngs, schedule=schedule, pert=pert))
        k, rep, node = model.planted
        assert k > 1
        assert str(failure.value) == (f"slot {k}: non-finite utility estimate at "
                                      f"(replication, node) = ({rep}, {node})")

    @pytest.mark.parametrize("record_at", [set(), {40}], ids=["no-record", "after-a-record"])
    def test_non_finite_gradient_inside_a_wave(self, monkeypatch, record_at):
        # the baseline on a sparse B = 1 power run: most waves hold several
        # slots, and the NaN goes to the first entry of a wave that is not in
        # the wave's first slot, in a wave that opens at or after every record
        net = NetworkConfig(20, 0.05, 1.0)
        schedule = StepSizeSchedule(0.025, 10.0, 0.75, 0.25)
        bounds = ActionBounds.uniform(20, -12.0, 12.0)
        after = max(record_at, default=1)

        class Faulty:
            """The baseline's direction, with a NaN planted in one wave."""

            slots_run = 0  # slots of the waves before this call
            planted = None  # (slot, replication, node) of the NaN

            def __call__(self, a, block, wave):
                g = exact_gradient(a, block, wave)
                later = np.flatnonzero(wave.batch_idx >= 1)
                if self.planted is None and later.size and self.slots_run + 1 >= after:
                    j = later[0]
                    g[j] = np.nan
                    self.planted = (self.slots_run + 1 + int(wave.batch_idx[j]), 0,
                                    int(block.live.node_idx[wave.entries][j]))
                self.slots_run += wave.shape[0]
                return g

        faulty = Faulty()
        monkeypatch.setattr(optimizer, "exact_gradient", faulty)
        rngs = role_streams(8)
        states = initialize_states(bounds, schedule, PerturbationSpec.rademacher(), net, 1, rngs)
        seen = []
        with pytest.raises(NumericError) as failure:
            for k, _ in run_slots(states, 400, PowerControlModel(20), net, bounds, rngs, record_at,
                                  step_fn=schedule.beta):
                seen.append(k)
        k, rep, node = faulty.planted
        assert k > after
        assert seen == sorted(record_at)
        assert str(failure.value) == (f"slot {k}: non-finite gradient at "
                                      f"(replication, node) = ({rep}, {node})")

    @pytest.mark.parametrize("s, s_nan, error", [(3, 5, FeasibilityError),
                                                 (5, 3, NumericError),
                                                 (4, 4, FeasibilityError)],
                             ids=["infeasible-first", "non-finite-first", "same-slot"])
    def test_earliest_flagged_slot_fails(self, monkeypatch, s, s_nan, error):
        # every node live in every slot: each slot is its own wave
        messages = {}

        def plant(block):
            messages[FeasibilityError] = _infeasible(block, _row_entry(block, s, 0))
            messages[NumericError] = _non_finite(block, _row_entry(block, s_nan, 1))

        _, failure = _planted_run(monkeypatch, NetworkConfig(3, 1.0, 1.0), 2, plant)
        assert type(failure) is error and str(failure) == messages[error]

    @pytest.mark.parametrize("non_finite_first", [False, True])
    def test_earliest_flagged_slot_fails_inside_a_wave(self, monkeypatch, non_finite_first):
        # sparse activity: plant both faults in one wave of several slots,
        # in different slots and replications
        messages = {}

        def plant(block):
            b = block.batch
            bounds = optimizer._waves(block, set())
            pairs = [(r, t) for s0, s1 in zip(bounds, bounds[1:])
                     for r in range(s0 * b, s1 * b) for t in range(r, s1 * b)
                     if r // b < t // b and r % b != t % b and block.live.counts[[r, t]].all()]
            early, late = (block.live.offsets[row] for row in pairs[0])
            infeasible, nan = (late, early) if non_finite_first else (early, late)
            messages[FeasibilityError] = _infeasible(block, int(infeasible))
            messages[NumericError] = _non_finite(block, int(nan))

        _, failure = _planted_run(monkeypatch, NetworkConfig(20, 0.05, 1.0), 2, plant)
        error = NumericError if non_finite_first else FeasibilityError
        assert type(failure) is error and str(failure) == messages[error]

    def test_infeasible_action_fails_by_the_block_end(self, monkeypatch):
        messages = []
        _, failure = _planted_run(
            monkeypatch, NetworkConfig(3, 1.0, 1.0), 2,
            lambda block: messages.append(_infeasible(block, _row_entry(block, 3, 1))))
        assert type(failure) is FeasibilityError and str(failure) == messages[0]

    def test_infeasible_action_fails_before_the_next_record(self, monkeypatch):
        messages = []
        seen, failure = _planted_run(
            monkeypatch, NetworkConfig(3, 1.0, 1.0), 2,
            lambda block: messages.append(_infeasible(block, _row_entry(block, 3, 1))),
            record_at={1, 5})
        assert type(failure) is FeasibilityError and str(failure) == messages[0]
        assert seen == [1]


class TestConvergence:
    @pytest.mark.parametrize("index_mode", ["sampled", "counted"])
    def test_divergence_collapses_on_quadratic(self, index_mode):
        cfg = quadratic_config(n_nodes=10, q_activity=0.2, beta0=0.5, gamma0=2.0,
                               horizon=20_000, replications=20, seed=40,
                               sigma_eta=0.5, metrics_stride=500,
                               index_mode=index_mode)
        ds = run_experiment(cfg)
        d1 = np.median(ds.d[:, 0])
        dK = np.median(ds.d[:, -1])
        assert dK < 0.01 * d1
        # almost-sure convergence surrogate: every replication ends tight
        assert np.all(ds.d[:, -1] < 0.05)


class TestIdealGradient:
    def test_optimum_is_fixed_point(self):
        n = 4
        netcfg = NetworkConfig(n, 1.0, 1.0)
        schedule = StepSizeSchedule(0.1, 0.5, 0.75, 0.25)
        bounds = ActionBounds.uniform(n, -5.0, 5.0)
        targets = np.linspace(-1, 1, n)
        model = QuadraticModel(targets, gain_low=1.0, gain_high=1.0)
        rngs = role_streams(3)
        states = NodeStates(
            actions=np.tile(targets, (1, 1)),
            live=_live(np.ones(n, dtype=bool)),
        )
        list(run_slots(states, 1, model, netcfg, bounds, rngs, step_fn=schedule.beta))
        np.testing.assert_allclose(states.actions[0], targets, atol=1e-14)

    def test_single_step_contracts(self):
        n = 3
        netcfg = NetworkConfig(n, 1.0, 1.0)
        schedule = StepSizeSchedule(0.05, 0.5, 0.75, 0.25)
        bounds = ActionBounds.uniform(n, -5.0, 5.0)
        targets = np.zeros(n)
        model = QuadraticModel(targets, gain_low=1.0, gain_high=1.0)
        rngs = role_streams(4)
        start = np.full((1, n), 0.8)
        states = NodeStates(actions=start.copy(),
                            live=_live(np.ones(n, dtype=bool)))
        traces = {}
        list(run_slots(states, 1, model, netcfg, bounds, rngs, step_fn=schedule.beta,
                       traces=traces))
        assert np.all(np.abs(states.actions) < np.abs(start))
        assert traces == {}  # the baseline has no trace

    def test_baseline_dominates_learner_on_power_model(self):
        # converged-baseline reference: same seeds, step beta*gamma
        cfg = power_config(n_nodes=10, q_activity=0.2, bound=11.0, horizon=6000,
                           replications=10, seed=17, metrics_stride=1000,
                           f_mc_samples=500)
        learner = run_experiment(cfg)
        baseline = run_experiment(dataclasses.replace(
            cfg, algorithm="ideal_gradient", baseline_step="beta_gamma"))
        med_learner = np.median(learner.f_hat, axis=0)
        med_baseline = np.median(baseline.f_hat, axis=0)
        assert np.all(med_baseline >= med_learner)

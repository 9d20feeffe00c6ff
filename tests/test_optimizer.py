import dataclasses

import numpy as np
import pytest

from dosp import (
    ActionBounds,
    ConfigError,
    NetworkConfig,
    PerturbationSpec,
    StepSizeSchedule,
)
from dosp.core import RngStream, role_streams
from dosp.harness import run_experiment
from dosp.network import ActiveSet
from dosp.objectives import PowerControlModel, QuadraticModel
from dosp.optimizer import (
    NodeStates,
    dosp_slot,
    ideal_gradient_slot,
    initialize_states,
    project,
    sample_step_index,
)

from conftest import power_config, quadratic_config
from oracles import CountingGenerator, mask_of


def _live(mask):
    return ActiveSet.from_mask(np.atleast_2d(mask))


class TestStepIndex:
    def test_first_slot_active_gets_one(self):
        got = sample_step_index(1, 0.3, _live([True, True]), "sampled",
                                RngStream(0, 0).generator())
        assert got.size == 2 and np.all(got == 1)

    def test_inactive_gets_zero(self):
        # inactive entries are not on the live list, so they get no index
        got = sample_step_index(10, 0.3, _live([False]), "sampled",
                                RngStream(0, 0).generator())
        assert got.size == 0

    def test_sampled_mean(self):
        rng = RngStream(1, 0).generator()
        got = sample_step_index(101, 0.05, _live(np.ones(100_000, dtype=bool)), "sampled", rng)
        mean_tilde = (got - 1).mean()
        se = np.sqrt(100 * 0.05 * 0.95 / 100_000)
        assert abs(mean_tilde - 5.0) <= 3 * se

    def test_counted_uses_activation_history(self):
        counts = np.array([[0, 3, 7]])
        got = sample_step_index(9, 0.5, _live([True, True, False]), "counted",
                                RngStream(2, 0).generator(), activations=counts)
        assert list(got) == [1, 4]


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

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigError):
            project(np.zeros(3), np.arange(3), self.bounds, 1.0, np.full(3, 5.0))


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
            step_index=np.array([1, 1, 1]),
        )
        before = states.actions.copy()
        new, records = dosp_slot(states, 1, model, netcfg, schedule, pert, 0.0,
                                 bounds, rngs, collect_trace=True)
        assert len(records) == 3
        for rec in records:
            expected = rec.a + rec.beta * rec.phi * rec.f_tilde
            assert new.actions[0, rec.node] == pytest.approx(expected, rel=1e-12)
            assert rec.a_hat == pytest.approx(rec.a + rec.gamma * rec.phi, rel=1e-12)
            assert rec.beta == schedule.beta(rec.ell)
            assert rec.gamma == schedule.gamma(rec.ell)
        inactive = ~mask_of(states.live)[0]
        assert np.array_equal(new.actions[0, inactive], before[0, inactive])

    def test_all_inactive_slot_keeps_state(self):
        model, netcfg, schedule, pert, bounds, rngs, _ = _tiny_setup()
        states = NodeStates(
            actions=np.array([[0.5, -0.25, 1.0, 2.0]]),
            live=_live(np.zeros(4, dtype=bool)),
            step_index=np.zeros(0, dtype=int),
        )
        before = states.actions.copy()
        new, records = dosp_slot(states, 3, model, netcfg, schedule, pert, 0.0,
                                 bounds, rngs, collect_trace=True)
        assert records == []
        np.testing.assert_array_equal(new.actions, before)

    def test_step_size_equivalence(self):
        # every traced step size equals the schedule at the node's drawn index
        cfg = quadratic_config(n_nodes=6, q_activity=0.4, horizon=200,
                               replications=1, seed=5, metrics_stride=50,
                               sigma_eta=0.2)
        ds = run_experiment(cfg, trace=True)
        assert ds.traces, "expected active nodes in 200 slots"
        for rec in ds.traces:
            assert rec.delta == 1
            assert rec.beta == cfg.schedule.beta(rec.ell)
            assert rec.gamma == cfg.schedule.gamma(rec.ell)

    def test_performed_actions_always_feasible(self):
        # stress the boundary: the shrunk interval is only 0.1 wide at the start
        cfg = quadratic_config(n_nodes=5, q_activity=0.5, beta0=0.9, gamma0=2.0,
                               bound=2.05, horizon=3000, replications=2, seed=9,
                               metrics_stride=500, sigma_eta=1.0)
        ds = run_experiment(cfg, trace=True)
        lo, hi = -2.05, 2.05
        performed = np.array([rec.a_hat for rec in ds.traces])
        assert performed.size > 1000
        assert performed.min() >= lo and performed.max() <= hi

    def test_vectorized_reception_matches_estimator_module(self):
        # dual route: replay the engine's reception draws and rebuild every
        # f~ with the scalar estimator
        from dosp.estimator import estimate_global_utility
        from oracles import UtilityObservation, scalar_global_utility

        rng = RngStream(321, 0).generator()
        twin = RngStream(321, 0).generator()
        q_r = 0.4
        b, n = 5, 7
        active = rng.random((b, n)) < 0.6
        u_tilde = np.where(active, rng.standard_normal((b, n)), 0.0)
        live = ActiveSet.from_mask(active)
        got = estimate_global_utility(u_tilde[active], live, q_r, rng)
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

    def test_perturbation_stream_drives_exploration(self):
        cfg = quadratic_config(n_nodes=6, q_activity=0.3, horizon=300,
                               replications=2, seed=21, metrics_stride=100)
        base = run_experiment(cfg)
        same = run_experiment(cfg)
        np.testing.assert_array_equal(base.final_actions, same.final_actions)
        other = run_experiment(cfg, seed_overrides={"perturbation": 9999})
        assert not np.array_equal(base.final_actions, other.final_actions)

    def test_counted_mode_marginal_index_law(self):
        cfg = quadratic_config(n_nodes=40, q_activity=0.2, horizon=301,
                               replications=30, seed=13, metrics_stride=301,
                               index_mode="counted")
        ds = run_experiment(cfg, trace=True)
        k = 301
        ells = np.array([rec.ell for rec in ds.traces if rec.k == k])
        assert ells.size > 150
        mean_expected = 1 + (k - 1) * 0.2
        se = np.sqrt((k - 1) * 0.2 * 0.8 / ells.size)
        assert abs(ells.mean() - mean_expected) <= 3.5 * se


class TestDrawCounts:
    """Every per-slot draw is made for the live entries only: a slot on a
    wide, sparse network costs draws in proportion to its live entries."""

    @pytest.mark.parametrize("kind, activity", [("quadratic", "binomial"), ("power", "binomial"),
                                                ("quadratic", "poisson")],
                             ids=["quadratic", "power", "poisson"])
    def test_draws_follow_live_entries(self, kind, activity):
        n, batch = 2000, 4
        netcfg = NetworkConfig(n, 0.005, 0.5, activity=activity)
        schedule = StepSizeSchedule(0.1, 0.5, 0.75, 0.25)
        pert = PerturbationSpec.rademacher()
        bounds = ActionBounds.uniform(n, -5.0, 5.0)
        model = (QuadraticModel(QuadraticModel.default_targets(n)) if kind == "quadratic"
                 else PowerControlModel(n))
        rngs = {role: CountingGenerator(g) for role, g in role_streams(11).items()}
        states = initialize_states(bounds, schedule, pert, netcfg, batch, rngs)
        live_total = 0
        for k in range(1, 41):
            for gen in rngs.values():
                gen.counts.clear()
            live = states.live
            pairs = int(np.sum(live.counts ** 2))
            states, _ = dosp_slot(states, k, model, netcfg, schedule, pert, 0.3,
                                  bounds, rngs)
            assert rngs["perturbation"].total() == live.size
            assert rngs["noise"].total() == live.size
            assert rngs["channel"].total() == (live.size if kind == "quadratic" else pairs)
            assert rngs["reception"].total() == pairs
            # the index is drawn for the next slot's live entries
            assert rngs["index"].total() == states.live.size
            if activity == "binomial":
                assert rngs["activity"].total() == batch * n
            else:
                # B counts, then one node per next-slot live entry plus redraws
                assert rngs["activity"].total() <= batch + 2 * states.live.size < batch * n
            live_total += live.size
        assert live_total > 0


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
            step_index=np.ones(n, dtype=int),
        )
        new = ideal_gradient_slot(states, 1, model, netcfg, schedule.beta,
                                  bounds, rngs)
        np.testing.assert_allclose(new.actions[0], targets, atol=1e-14)

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
                            live=_live(np.ones(n, dtype=bool)),
                            step_index=np.ones(n, dtype=int))
        new = ideal_gradient_slot(states, 1, model, netcfg, schedule.beta,
                                  bounds, rngs)
        assert np.all(np.abs(new.actions) < np.abs(start))

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

import dataclasses
import math

import numpy as np
import pytest

from dosp import ActionBounds, NetworkConfig
from dosp.core import NumericError, RngStream
from dosp.harness import (ExperimentConfig, _mc_draws, _mc_values, build_model, eval_F_batch,
                          model_constants)
from dosp.network import ActiveSet, ChannelSpec, sample_activity
from dosp.objectives import PowerControlModel, QuadraticModel
from dosp.optimizer import WavePlan, slot_block

from reference_configs import power_config, quadratic_config
from oracles import (dense_channel, dense_gradient, dense_hessian, dense_utilities,
                     mask_of, reference_estimate_lipschitz, scatter)


def _gen(stream, seed=412):
    return RngStream(seed, stream).generator()


def _nonempty_activity(cfg, rng, rows):
    """``rows`` activity rows, each with at least one active node."""
    active = mask_of(sample_activity(cfg, rng, rows))
    active[~active.any(axis=1), 0] = True
    return ActiveSet.from_mask(active)


def _live(mask):
    return ActiveSet.from_mask(np.asarray(mask, dtype=bool))


def _dense(m, method, a, live, env):
    """A per-entry model method at the (B, N) actions ``a``, scattered to (B, N)."""
    return scatter(live, getattr(m, method)(a[live.batch_idx, live.node_idx], live, env))


def _pair_matrix(live, values, row):
    """Scatter one row's per-pair values (``live.pairs`` order) into an (N, N) matrix."""
    tx, rx = live.pairs
    sel = live.batch_idx[tx] == row
    out = np.zeros((live.shape[1], live.shape[1]))
    out[live.node_idx[tx[sel]], live.node_idx[rx[sel]]] = values[sel]
    return out


class TestPowerUtility:
    def test_inactive_node_is_zero(self):
        m = PowerControlModel(3)
        live = _live([[True, False, True]])
        env = m.sample_env(live, _gen(9))
        assert _dense(m, "local_utilities", np.zeros((1, 3)), live, env)[0, 1] == 0.0

    def test_single_active_closed_form(self):
        # one active link, unit direct gain, noise floor 0.2: 20*ln(5) - 1
        m = PowerControlModel(4, ChannelSpec(noise_floor=0.2))
        live = _live([[False, False, True, False]])
        env = m.prepare_env(live, np.ones(1))
        value = _dense(m, "local_utilities", np.zeros((1, 4)), live, env)[0, 2]
        assert value == pytest.approx(20.0 * math.log(5.0) - 1.0, rel=1e-12)
        assert value == pytest.approx(31.18875824868201, rel=1e-9)

    def test_interference_enters_denominator(self):
        m = PowerControlModel(2, ChannelSpec(noise_floor=0.2))
        live = _live(np.ones((1, 2)))
        tx, rx = live.pairs
        channel = np.array([[1.0, 0.3], [0.5, 1.0]])
        env = m.prepare_env(live, channel[live.node_idx[tx], live.node_idx[rx]])
        u0 = _dense(m, "local_utilities", np.zeros((1, 2)), live, env)[0, 0]
        expected = 20.0 * math.log(1.0 / (0.2 + 0.5)) - 1.0
        assert u0 == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fading", ["real_gaussian", "complex_gaussian"])
    def test_batched_matches_reference(self, fading):
        rng = _gen(0)
        m = PowerControlModel(9, ChannelSpec(fading=fading))
        active = rng.random((6, 9)) < 0.5
        active[0] = False
        active[0, 3] = True
        active[1] = False
        live = ActiveSet.from_mask(active)
        m.sample_env(live, rng)  # keeps the draws of the dense channels below
        # every row's world is a full dense channel; the batched path sees
        # only its active block
        channels = [dense_channel(9, m.channel, rng) for _ in range(6)]
        pair_b = live.batch_idx[live.pairs[0]]
        tx, rx = live.node_idx[live.pairs[0]], live.node_idx[live.pairs[1]]
        gains = np.array([channels[b][i, j] for b, i, j in zip(pair_b, tx, rx)])
        env = m.prepare_env(live, gains)
        a_hat = rng.uniform(-2.0, 2.0, size=(6, 9))
        u = _dense(m, "local_utilities", a_hat, live, env)
        g = _dense(m, "global_gradient", a_hat, live, env)
        h = m.global_hessian(a_hat[live.batch_idx, live.node_idx], live, env)
        for b in range(6):
            delta = active[b].astype(int)
            np.testing.assert_allclose(
                u[b], dense_utilities(m, a_hat[b], delta, channels[b]), rtol=1e-12)
            np.testing.assert_allclose(
                g[b], dense_gradient(m, a_hat[b], delta, channels[b]), rtol=1e-12)
            np.testing.assert_allclose(
                _pair_matrix(live, h, b), dense_hessian(m, a_hat[b], delta, channels[b]),
                rtol=1e-12)


class TestOneEvaluationPath:
    """Every evaluation reads the environment in the one form that
    ``prepare_env`` gives and ``sample_env`` returns, on any run of rows."""

    def test_quadratic_matches_closed_form(self):
        rng = _gen(13)
        m = QuadraticModel(np.linspace(-1.0, 1.0, 7))
        active = rng.random((6, 7)) < 0.5
        active[0] = False
        active[0, 4] = True  # a single-entry row
        active[1] = False  # an empty row
        live = ActiveSet.from_mask(active)
        zeta = rng.uniform(0.5, 1.5, (6, 7))
        env = m.prepare_env(live, zeta[live.batch_idx, live.node_idx])
        a = rng.uniform(-2.0, 2.0, (6, 7))
        np.testing.assert_array_equal(_dense(m, "local_utilities", a, live, env),
                                      np.where(active, -zeta * (a - m.targets) ** 2, 0.0))
        np.testing.assert_array_equal(_dense(m, "global_gradient", a, live, env),
                                      np.where(active, -2.0 * zeta * (a - m.targets), 0.0))

    @pytest.mark.parametrize("kind", ["real_gaussian", "complex_gaussian", "quadratic"])
    def test_slot_views_equal_the_monte_carlo_path(self, kind):
        """A slot block's wave views (environment parts included) give the
        Monte-Carlo path's utilities and gradients on the same draws, bit for
        bit."""
        n, rows = 8, 300
        net = NetworkConfig(n, 0.3, 1.0)
        m = (QuadraticModel(np.linspace(-1.0, 1.0, n)) if kind == "quadratic"
             else PowerControlModel(n, ChannelSpec(fading=kind)))
        point = _gen(14).uniform(-2.0, 2.0, n)
        for method in ("local_utilities", "global_gradient"):
            live, chunks = _mc_draws(m, net, rows, _gen(15))
            values = _mc_values(getattr(m, method), point[None, :], rows, live, chunks)
            rng = _gen(15)
            assert np.array_equal(sample_activity(net, rng, rows).offsets, live.offsets)
            block = slot_block(live, np.ones(live.size, dtype=np.int64), 1, m, net,
                               {"channel": rng}, ActionBounds.uniform(n, -2.0, 2.0),
                               step_fn=np.ones_like)
            # waves of 1, 2, 3, ... slots
            cuts = np.cumsum(np.arange(1, rows))
            plan = WavePlan(block, [0, *cuts[cuts < rows].tolist(), rows])
            got = []
            for w in range(len(plan.bounds) - 1):
                v = plan.view(w)
                got.append(getattr(m, method)(point[block.live.node_idx[v.entries]], v, v.env))
            assert np.concatenate(got).tobytes() == values.tobytes()


class TestGradients:
    def test_power_matches_finite_differences(self):
        rng = _gen(1)
        m = PowerControlModel(8)
        live = _nonempty_activity(NetworkConfig(8, 0.5, 1.0), rng, 20)
        env = m.sample_env(live, rng)
        a = rng.uniform(-2.0, 2.0, (20, 8))
        grad = _dense(m, "global_gradient", a, live, env)
        h = 1e-6
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            fd = (_dense(m, "local_utilities", a + e, live, env).sum(axis=1)
                  - _dense(m, "local_utilities", a - e, live, env).sum(axis=1)) / (2 * h)
            assert grad[:, i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_quadratic_closed_form(self):
        m = QuadraticModel(np.array([0.5, -0.5, 1.0]))
        a = np.array([[0.0, 0.0, 2.0]])
        live = _live([[True, False, True]])
        zeta = m.prepare_env(live, np.array([0.8, 1.0]))  # gains of the two live entries
        g = _dense(m, "global_gradient", a, live, zeta)
        np.testing.assert_allclose(g, [[-2 * 0.8 * -0.5, 0.0, -2 * 1.0 * 1.0]])

    def test_all_inactive_gradient_is_zero(self):
        m = QuadraticModel(np.zeros(4))
        live = _live(np.zeros((1, 4)))
        g = _dense(m, "global_gradient", np.ones((1, 4)), live, m.prepare_env(live, np.ones(0)))
        assert np.all(g == 0.0)

    def test_power_hessian_matches_second_differences(self):
        rng = _gen(2)
        m = PowerControlModel(5)
        live = _live([[1, 1, 0, 1, 1], [0, 1, 0, 0, 0], [1, 1, 1, 1, 1]])
        env = m.sample_env(live, rng)
        a = rng.uniform(-1.0, 1.0, (3, 5))
        h = m.global_hessian(a[live.batch_idx, live.node_idx], live, env)
        H = np.stack([_pair_matrix(live, h, b) for b in range(3)])
        step = 1e-4

        def total(x):
            return _dense(m, "local_utilities", x, live, env).sum(axis=1)

        for i in range(5):
            for j in range(5):
                ei = np.zeros(5); ei[i] = step
                ej = np.zeros(5); ej[j] = step
                fd = (total(a + ei + ej) - total(a + ei - ej)
                      - total(a - ei + ej) + total(a - ei - ej)) / (4 * step * step)
                assert H[:, i, j] == pytest.approx(fd, rel=5e-3, abs=1e-5)


class TestConcavity:
    def test_power_diagonal_curvature_negative(self):
        # second differences of the summed utilities along each active action
        rng = _gen(3)
        m = PowerControlModel(6)
        live = _nonempty_activity(NetworkConfig(6, 0.5, 1.0), rng, 10)
        env = m.sample_env(live, rng)
        a = rng.uniform(-2.0, 2.0, (10, 6))
        h = 1e-4

        def total(x):
            return _dense(m, "local_utilities", x, live, env).sum(axis=1)

        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            second = (total(a + e) - 2 * total(a) + total(a - e)) / h**2
            assert np.all(second[mask_of(live)[:, i]] < 0)

    def test_quadratic_strong_concavity_constant(self):
        q_a = 0.3
        m = QuadraticModel(np.linspace(-1, 1, 6))
        rng = _gen(4)
        alpha_F = m.alpha_F(q_a)
        for _ in range(200):
            a = rng.uniform(-3, 3, 6)
            grad_F = -2.0 * q_a * (a - m.targets)
            lhs = np.dot(a - m.targets, grad_F)
            assert lhs <= -alpha_F * np.dot(a - m.targets, a - m.targets) + 1e-12

    def test_power_lipschitz_ratio_bounded(self):
        cfg = power_config(n_nodes=5, q_activity=0.6, bound=2.0, horizon=1, replications=1)
        m = build_model(cfg)
        estimate = model_constants(cfg, m).lipschitz
        assert np.isfinite(estimate) and estimate > 0
        # fresh draws stay within a modest multiple of the estimated constant
        worst = reference_estimate_lipschitz(m, cfg.bounds, cfg.network, _gen(5), n_draws=500)
        assert worst <= 3.0 * estimate


class TestExpectedUtility:
    def test_zero_at_optimum(self):
        # every quadratic utility vanishes at a = targets, whatever is active
        m = QuadraticModel(np.linspace(-1, 1, 5))
        cfg = NetworkConfig(5, 0.5, 1.0)
        est, err = eval_F_batch(m, m.targets[None, :], cfg, 400, _gen(6))
        assert est[0] == 0.0 and err[0] == 0.0

    def test_quadratic_matches_closed_form(self):
        targets = np.linspace(-1, 1, 8)
        m = QuadraticModel(targets, gain_low=1.0, gain_high=1.0)
        cfg = NetworkConfig(8, 0.35, 1.0)
        a = targets + 0.7
        est, err = eval_F_batch(m, a[None, :], cfg, 40_000, _gen(7))
        closed = -cfg.q_activity * float(np.sum((a - targets) ** 2))
        assert abs(est[0] - closed) <= 3 * err[0]

    def test_estimate_peaks_at_optimum(self):
        targets = np.linspace(-1, 1, 8)
        m = QuadraticModel(targets)
        cfg = NetworkConfig(8, 0.35, 1.0)
        rng = _gen(8)
        best, err_best = eval_F_batch(m, targets[None, :], cfg, 20_000, rng)
        for _ in range(5):
            other, err = eval_F_batch(m, (targets + rng.uniform(-1, 1, 8))[None, :],
                                      cfg, 20_000, rng)
            assert best[0] >= other[0] - 3 * (err[0] + err_best[0])

    def test_non_finite_estimate_raises(self):
        class NaNModel(QuadraticModel):
            def local_utilities(self, a_hat, live, env):
                return np.full(live.size, np.nan)

        m = NaNModel(np.zeros(4))
        cfg = NetworkConfig(4, 1.0, 1.0)
        with pytest.raises(NumericError, match="action row 0"):
            eval_F_batch(m, np.zeros((2, 4)), cfg, 10, _gen(12))

    def test_quadratic_mean_one_gain_required(self):
        with pytest.raises(Exception):
            QuadraticModel(np.zeros(3), gain_low=0.9, gain_high=1.3)


class TestConfiguredModel:
    @pytest.mark.parametrize("kind", ["power", "quadratic"])
    def test_empty_model_section_is_the_library_default(self, kind):
        # the constructors own the defaults: a config that sets none runs the
        # model a library caller gets from the node count alone
        base = power_config(n_nodes=6) if kind == "power" else quadratic_config(n_nodes=6)
        built = build_model(dataclasses.replace(base, model_params={}))
        default = PowerControlModel(6) if kind == "power" else QuadraticModel(n_nodes=6)
        assert type(built) is type(default)
        for name, value in vars(default).items():
            np.testing.assert_array_equal(getattr(built, name), value)

    def test_null_targets_are_the_default_targets(self):
        cfg = quadratic_config(n_nodes=6)
        d = cfg.to_dict()
        d["model"]["targets"] = None
        model = build_model(ExperimentConfig.from_dict(d))
        np.testing.assert_array_equal(model.targets, QuadraticModel.default_targets(6))
        np.testing.assert_array_equal(model.targets, np.linspace(-1.5, 1.5, 6))

    def test_channel_section_becomes_a_channel_spec(self):
        m = PowerControlModel(3, {"noise_floor": 0.5, "fading": "complex_gaussian"})
        assert m.channel == ChannelSpec(noise_floor=0.5, fading="complex_gaussian")

import math

import numpy as np
import pytest

from dosp import NetworkConfig
from dosp.core import ActionBounds, RngStream
from dosp.harness import eval_F_batch
from dosp.network import ChannelSpec, sample_activity, sample_channel
from dosp.objectives import NumericInputError, PowerControlModel, QuadraticModel


def _gen(stream, seed=412):
    return RngStream(seed, stream).generator()


class TestPowerUtility:
    def test_inactive_node_is_zero(self):
        m = PowerControlModel(3)
        active = np.array([[True, False, True]])
        env = m.sample_env(active, _gen(9))
        assert m.local_utilities(np.zeros((1, 3)), active, env)[0, 1] == 0.0

    def test_single_active_closed_form(self):
        # one active link, unit direct gain, noise floor 0.2: 20*ln(5) - 1
        m = PowerControlModel(4, ChannelSpec(noise_floor=0.2))
        active = np.array([[False, False, True, False]])
        env = m.sample_env(active, _gen(10))
        env.gains[:] = 1.0
        value = m.local_utilities(np.zeros((1, 4)), active, env)[0, 2]
        assert value == pytest.approx(20.0 * math.log(5.0) - 1.0, rel=1e-12)
        assert value == pytest.approx(31.18875824868201, rel=1e-9)

    def test_interference_enters_denominator(self):
        m = PowerControlModel(2, ChannelSpec(noise_floor=0.2))
        channel = np.array([[1.0, 0.3], [0.5, 1.0]])
        a = np.array([0.0, 0.0])
        delta = np.array([1, 1])
        u0 = m.utilities_given_channel(a, delta, channel)[0]
        expected = 20.0 * math.log(1.0 / (0.2 + 0.5)) - 1.0
        assert u0 == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonfinite_action(self):
        m = PowerControlModel(2)
        with pytest.raises(NumericInputError):
            m.utilities_given_channel(np.array([np.nan, 0.0]), np.array([1, 1]),
                                      np.ones((2, 2)))

    def test_rejects_dead_direct_channel(self):
        # a zero direct gain would mean log(0); the samplers resample the
        # (probability-zero) event away and the evaluator refuses it outright
        m = PowerControlModel(2)
        channel = np.ones((2, 2))
        channel[0, 0] = 0.0
        with pytest.raises(ValueError):
            m.utilities_given_channel(np.zeros(2), np.array([1, 1]), channel)

    def test_batched_matches_reference(self):
        rng = _gen(0)
        m = PowerControlModel(9)
        active = rng.random((6, 9)) < 0.5
        active[0] = False
        active[0, 3] = True
        env = m.sample_env(active, rng)
        a_hat = rng.uniform(-2.0, 2.0, size=(6, 9))
        u = m.local_utilities(a_hat, active, env)
        g = m.global_gradient(a_hat, active, env)
        for b in range(6):
            channel = np.ones((9, 9))
            sel = env.batch_idx[env.tx_flat] == b
            tx = env.node_idx[env.tx_flat[sel]]
            rx = env.node_idx[env.rx_flat[sel]]
            channel[tx, rx] = env.gains[sel]
            delta = active[b].astype(int)
            np.testing.assert_allclose(
                u[b], m.utilities_given_channel(a_hat[b], delta, channel), rtol=1e-12)
            np.testing.assert_allclose(
                g[b], m.gradient_given_channel(a_hat[b], delta, channel), rtol=1e-12)


class TestGradients:
    def test_power_matches_finite_differences(self):
        rng = _gen(1)
        m = PowerControlModel(8)
        cfg = NetworkConfig(8, 0.5, 1.0)
        for _ in range(20):
            delta = sample_activity(cfg, rng, 1)[0]
            if delta.sum() == 0:
                delta[0] = 1
            channel = sample_channel(8, m.channel, rng)
            a = rng.uniform(-2.0, 2.0, 8)
            grad = m.gradient_given_channel(a, delta, channel)
            h = 1e-6
            for i in range(8):
                e = np.zeros(8)
                e[i] = h
                fd = (m.utilities_given_channel(a + e, delta, channel).sum()
                      - m.utilities_given_channel(a - e, delta, channel).sum()) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_quadratic_closed_form(self):
        m = QuadraticModel(np.array([0.5, -0.5, 1.0]))
        zeta = np.array([[0.8, 1.2, 1.0]])
        a = np.array([[0.0, 0.0, 2.0]])
        active = np.array([[True, False, True]])
        g = m.global_gradient(a, active, zeta)
        np.testing.assert_allclose(g, [[-2 * 0.8 * -0.5, 0.0, -2 * 1.0 * 1.0]])

    def test_all_inactive_gradient_is_zero(self):
        m = QuadraticModel(np.zeros(4))
        g = m.global_gradient(np.ones((1, 4)), np.zeros((1, 4), dtype=bool),
                              np.ones((1, 4)))
        assert np.all(g == 0.0)

    def test_power_hessian_matches_second_differences(self):
        rng = _gen(2)
        m = PowerControlModel(5)
        delta = np.array([1, 1, 0, 1, 1])
        channel = sample_channel(5, m.channel, rng)
        a = rng.uniform(-1.0, 1.0, 5)
        H = m.hessian_given_channel(a, delta, channel)
        h = 1e-4
        for i in range(5):
            for j in range(5):
                ei = np.zeros(5); ei[i] = h
                ej = np.zeros(5); ej[j] = h
                fpp = m.utilities_given_channel(a + ei + ej, delta, channel).sum()
                fpm = m.utilities_given_channel(a + ei - ej, delta, channel).sum()
                fmp = m.utilities_given_channel(a - ei + ej, delta, channel).sum()
                fmm = m.utilities_given_channel(a - ei - ej, delta, channel).sum()
                fd = (fpp - fpm - fmp + fmm) / (4 * h * h)
                assert H[i, j] == pytest.approx(fd, rel=5e-3, abs=1e-5)


class TestConcavity:
    def test_power_diagonal_curvature_negative(self):
        # second differences of the summed utilities along each active action
        rng = _gen(3)
        m = PowerControlModel(6)
        cfg = NetworkConfig(6, 0.5, 1.0)
        for _ in range(10):
            delta = sample_activity(cfg, rng, 1)[0]
            if delta.sum() == 0:
                delta[2] = 1
            channel = sample_channel(6, m.channel, rng)
            a = rng.uniform(-2.0, 2.0, 6)
            h = 1e-4
            for i in np.flatnonzero(delta):
                e = np.zeros(6)
                e[i] = h
                second = (m.utilities_given_channel(a + e, delta, channel).sum()
                          - 2 * m.utilities_given_channel(a, delta, channel).sum()
                          + m.utilities_given_channel(a - e, delta, channel).sum()) / h**2
                assert second < 0

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
        m = PowerControlModel(5)
        cfg = NetworkConfig(5, 0.6, 1.0)
        bounds = ActionBounds.uniform(5, -2.0, 2.0)
        rng = _gen(5)
        estimate = m.estimate_lipschitz(bounds, cfg, rng, n_draws=2000)
        assert np.isfinite(estimate) and estimate > 0
        # fresh draws stay within a modest multiple of the estimated constant
        worst = m.estimate_lipschitz(bounds, cfg, rng, n_draws=500)
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

    def test_quadratic_mean_one_gain_required(self):
        with pytest.raises(Exception):
            QuadraticModel(np.zeros(3), gain_low=0.9, gain_high=1.3)

import numpy as np
import pytest

from dosp import ConfigError, NetworkConfig
from dosp.core import RngStream
from dosp.estimator import estimate_global_utility
from dosp.network import (
    ChannelSpec,
    sample_activity,
    sample_channel,
    sample_obs_noise,
)


def _gen(stream=0, seed=808):
    return RngStream(seed, stream).generator()


class TestActivity:
    def test_mean_active_count(self):
        cfg = NetworkConfig(50, 0.05, 1.0)
        counts = sample_activity(cfg, _gen(1), 20_000).sum(axis=1)
        se = np.sqrt(50 * 0.05 * 0.95 / counts.size)
        assert abs(counts.mean() - cfg.expected_active) <= 3 * se

    def test_always_active_boundary(self):
        cfg = NetworkConfig(7, 1.0, 1.0)
        assert np.all(sample_activity(cfg, _gen(2), 1))

    def test_zero_activity_rejected(self):
        with pytest.raises(ConfigError):
            NetworkConfig(7, 0.0, 1.0)

    def test_lag_one_autocorrelation_is_null(self):
        cfg = NetworkConfig(10, 0.3, 1.0)
        draws = sample_activity(cfg, _gen(3), 40_000).astype(float)
        x = draws[:-1, 0] - draws[:-1, 0].mean()
        y = draws[1:, 0] - draws[1:, 0].mean()
        corr = np.dot(x, y) / np.sqrt(np.dot(x, x) * np.dot(y, y))
        assert abs(corr) < 3.0 / np.sqrt(draws.shape[0])

    def test_poisson_regime_caps_at_n(self):
        cfg = NetworkConfig(6, 0.9, 1.0, activity="poisson")
        counts = sample_activity(cfg, _gen(4), 5000).sum(axis=1)
        assert counts.max() <= 6
        assert counts.mean() < cfg.expected_active  # capping bites at high lambda

    @pytest.mark.parametrize("activity", ["binomial", "poisson"])
    def test_block_equals_single_row_draws(self, activity):
        # every caller draws its rows in one call; the stream must not notice
        cfg = NetworkConfig(9, 0.3, 1.0, activity=activity)
        block = sample_activity(cfg, _gen(17), 50)
        twin = _gen(17)
        rows = np.concatenate([sample_activity(cfg, twin, 1) for _ in range(50)])
        assert block.dtype == bool and block.shape == (50, 9)
        np.testing.assert_array_equal(block, rows)


class TestReception:
    """Reception as the estimator draws it: node i's estimate carries (1 / q_r)
    times each other active node's value that reached it."""

    def test_full_reception(self):
        active = np.zeros((1, 10), dtype=bool)
        active[0, [1, 4, 6, 9]] = True
        u = np.where(active, np.arange(1.0, 11.0), 0.0)
        got = estimate_global_utility(u, active, 1.0, _gen(5))
        assert got[0, 4] == u.sum()

    def test_single_active_node_receives_nothing(self):
        active = np.zeros((200, 5), dtype=bool)
        active[:, 3] = True
        u = np.where(active, 2.5, 0.0)
        got = estimate_global_utility(u, active, 0.7, _gen(6))
        assert np.all(got[:, 3] == 2.5)

    def test_inactive_node_estimates_zero(self):
        rng = _gen(7)
        active = rng.random((50, 6)) < 0.5
        u = np.where(active, rng.standard_normal((50, 6)), 0.0)
        got = estimate_global_utility(u, active, 0.7, rng)
        assert np.all(got[~active] == 0.0)

    def test_pairwise_inclusion_frequency(self):
        # node 1 carries the only nonzero value, so node 0's estimate is
        # (1 / q_r) * [node 1's value arrived]
        trials = 100_000
        active = np.ones((trials, 2), dtype=bool)
        u = np.tile([0.0, 1.0], (trials, 1))
        hits = estimate_global_utility(u, active, 0.5, _gen(8))[:, 0] * 0.5
        se = np.sqrt(0.25 / trials)
        assert abs(hits.mean() - 0.5) <= 3 * se

    def test_inclusion_unconditional_on_active_set_size(self):
        # the pair (0, 1) is received with probability q_r whatever else is active
        rng = _gen(9)
        q_r = 0.3
        trials = 60_000
        for n_active in (2, 8):
            active = np.ones((trials, n_active), dtype=bool)
            u = np.zeros((trials, n_active))
            u[:, 1] = 1.0
            hits = estimate_global_utility(u, active, q_r, rng)[:, 0] * q_r
            se = np.sqrt(q_r * (1 - q_r) / trials)
            assert abs(hits.mean() - q_r) <= 3.5 * se


class TestChannel:
    def test_direct_and_cross_means(self):
        spec = ChannelSpec(var_direct=1.0, var_cross=0.1, noise_floor=0.2)
        rng = _gen(10)
        draws = np.stack([sample_channel(12, spec, rng) for _ in range(4000)])
        diag = draws[:, np.arange(12), np.arange(12)]
        off = draws[:, 0, 1:]
        # E|h|^2 equals the amplitude variance for a zero-mean channel
        assert abs(diag.mean() - 1.0) <= 3 * diag.std() / np.sqrt(diag.size)
        assert abs(off.mean() - 0.1) <= 3 * off.std() / np.sqrt(off.size)
        assert np.all(draws >= 0)

    def test_complex_gaussian_variant(self):
        spec = ChannelSpec(fading="complex_gaussian")
        rng = _gen(11)
        draws = np.stack([sample_channel(8, spec, rng) for _ in range(4000)])
        diag = draws[:, np.arange(8), np.arange(8)]
        assert abs(diag.mean() - 1.0) <= 3 * diag.std() / np.sqrt(diag.size)

    def test_slots_are_independent(self):
        spec = ChannelSpec()
        rng = _gen(12)
        draws = np.stack([sample_channel(4, spec, rng)[0, 1] for _ in range(60_000)])
        x = draws[:-1] - draws[:-1].mean()
        y = draws[1:] - draws[1:].mean()
        corr = np.dot(x, y) / np.sqrt(np.dot(x, x) * np.dot(y, y))
        assert abs(corr) < 3.0 / np.sqrt(draws.size)


class TestObservationNoise:
    def test_zero_sigma_gives_zero_vector(self):
        assert np.all(sample_obs_noise(0.0, 16, _gen(13)) == 0.0)

    def test_unit_variance(self):
        draws = sample_obs_noise(1.0, 100_000, _gen(14))
        assert abs(draws.var() - 1.0) < 0.03

    def test_uniform_kind_variance(self):
        draws = sample_obs_noise(0.7, 100_000, _gen(15), kind="uniform")
        assert abs(draws.var() - 0.49) < 0.03 * 0.49 * 3
        assert np.all(np.abs(draws) <= 0.7 * np.sqrt(3.0) + 1e-12)

    def test_cross_node_independence(self):
        rng = _gen(16)
        draws = np.stack([sample_obs_noise(1.0, 2, rng) for _ in range(100_000)])
        x, y = draws[:, 0], draws[:, 1]
        corr = np.dot(x - x.mean(), y - y.mean()) / (x.std() * y.std() * x.size)
        assert abs(corr) < 3.0 / np.sqrt(x.size)

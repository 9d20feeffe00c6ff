import tracemalloc

import numpy as np
import pytest

from dosp import ConfigError, NetworkConfig, network
from dosp.core import RngStream
from dosp.estimator import estimate_global_utility, sample_reception
from dosp.network import ActiveSet, ChannelSpec, sample_activity, sample_obs_noise
from dosp.objectives import PowerControlModel

from oracles import mask_of, one_block_activity, per_row_poisson_activity, scatter


def _gen(stream=0, seed=808):
    return RngStream(seed, stream).generator()


class TestActivity:
    def test_mean_active_count(self):
        cfg = NetworkConfig(50, 0.05, 1.0)
        counts = sample_activity(cfg, _gen(1), 20_000).counts
        se = np.sqrt(50 * 0.05 * 0.95 / counts.size)
        assert abs(counts.mean() - cfg.expected_active) <= 3 * se

    def test_always_active_boundary(self):
        cfg = NetworkConfig(7, 1.0, 1.0)
        assert np.all(mask_of(sample_activity(cfg, _gen(2), 1)))

    def test_zero_activity_rejected(self):
        with pytest.raises(ConfigError):
            NetworkConfig(7, 0.0, 1.0)

    def test_lag_one_autocorrelation_is_null(self):
        cfg = NetworkConfig(10, 0.3, 1.0)
        draws = mask_of(sample_activity(cfg, _gen(3), 40_000)).astype(float)
        x = draws[:-1, 0] - draws[:-1, 0].mean()
        y = draws[1:, 0] - draws[1:, 0].mean()
        corr = np.dot(x, y) / np.sqrt(np.dot(x, x) * np.dot(y, y))
        assert abs(corr) < 3.0 / np.sqrt(draws.shape[0])

    def test_poisson_regime_caps_at_n(self):
        cfg = NetworkConfig(6, 0.9, 1.0, activity="poisson")
        counts = sample_activity(cfg, _gen(4), 5000).counts
        assert counts.max() <= 6
        assert counts.mean() < cfg.expected_active  # capping bites at high lambda

    # Poisson blocks draw every count before any node, so only the binomial
    # stream matches single-row draws; the Poisson law is checked below
    @pytest.mark.parametrize("activity", ["binomial"])
    def test_block_equals_single_row_draws(self, activity):
        # every caller draws its rows in one call; the stream must not notice
        cfg = NetworkConfig(9, 0.3, 1.0, activity=activity)
        block = sample_activity(cfg, _gen(17), 50)
        twin = _gen(17)
        rows = np.concatenate([mask_of(sample_activity(cfg, twin, 1)) for _ in range(50)])
        assert block.shape == (50, 9)
        np.testing.assert_array_equal(mask_of(block), rows)
        # the list runs row by row, nodes ascending, and its offsets delimit the rows
        np.testing.assert_array_equal(block.batch_idx, np.nonzero(rows)[0])
        np.testing.assert_array_equal(block.node_idx, np.nonzero(rows)[1])
        np.testing.assert_array_equal(np.diff(block.offsets), rows.sum(axis=1))

    @pytest.mark.parametrize("budget", [None, 90, 9, 1], ids=["default", "10rows", "1row", "tiny"])
    def test_chunks_equal_the_one_block_draw(self, budget, monkeypatch):
        # binomial rows are drawn in chunks of _BLOCK_CELLS // N rows (at least one)
        if budget is not None:
            monkeypatch.setattr(network, "_BLOCK_CELLS", budget)
        cfg = NetworkConfig(9, 0.3, 1.0)
        rows = 20_003 if budget is None else 53  # the default budget's chunk is 14,563 rows
        rng, twin = _gen(20), _gen(20)
        got = sample_activity(cfg, rng, rows)
        want = one_block_activity(cfg, twin, rows)
        assert got.shape == want.shape
        for name in ("batch_idx", "node_idx", "offsets"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        assert rng.random() == twin.random()

    def test_no_rows_draw_nothing(self):
        rng = _gen(21)
        live = sample_activity(NetworkConfig(9, 0.3, 1.0), rng, 0)
        assert live.shape == (0, 9) and live.size == 0
        np.testing.assert_array_equal(live.offsets, [0])
        assert rng.random() == _gen(21).random()

    def test_binomial_working_set_is_bounded(self):
        # 200,000 rows x 50 nodes at q_a = 0.05, the certificate draw of
        # `dosp solve-optimum` on configs/power_actions_single_run.yaml.
        # tracemalloc peak: 90 MB as one uniform block, 15.2 MB in row chunks
        # (numpy 2.4); the bound allows twice that
        tracemalloc.start()
        try:
            sample_activity(NetworkConfig(50, 0.05, 1.0), _gen(22), 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    @pytest.mark.parametrize("n, lam, m", [(1000, 10.0, 10), (6, 5.4, 4)],
                             ids=["sparse", "capped"])
    def test_poisson_law_matches_per_row_oracle(self, n, lam, m):
        cfg = NetworkConfig(n, lam / n, 1.0, activity="poisson")
        rows = 40_000
        block = sample_activity(cfg, _gen(18), rows)
        oracle = per_row_poisson_activity(cfg, _gen(19), rows)
        if lam > n / 2:  # capped: most rows draw the nodes they leave out
            assert np.any(block.counts == n) and np.any(2 * block.counts > n)
        for got, want in zip(_poisson_law(block, m), _poisson_law(oracle, m)):
            _assert_same_law(got, want)


def _poisson_law(live, m):
    """(mean, standard error) per cell of three statistics of an activity
    block: the count histogram, each node's inclusion frequency, and, over
    the rows holding ``m`` nodes, the co-inclusion of node pairs (nodes
    grouped into at most 10 blocks, pairs counted per block pair)."""
    rows, n = live.shape

    def freq(hits, cells):
        p = np.bincount(hits, minlength=cells) / rows
        return p, np.sqrt(p * (1 - p) / rows)

    nodes = live.node_idx[live.counts[live.batch_idx] == m].reshape(-1, m)
    first, second = np.triu_indices(m, 1)
    groups = min(n, 10)
    block = np.arange(n) * groups // n
    cell = block[nodes[:, first]] * groups + block[nodes[:, second]]
    per_row = np.zeros((len(nodes), groups**2))
    np.add.at(per_row, (np.arange(len(nodes))[:, None], cell), 1)
    pairs = per_row.mean(axis=0), per_row.std(axis=0, ddof=1) / np.sqrt(len(nodes))
    return freq(live.counts, n + 1), freq(live.node_idx, n), pairs


def _assert_same_law(got, want):
    """Two samples' per-cell means agree: the squared z-scores of their
    differences sum to within 4 standard errors of their chi-square mean."""
    se = np.hypot(got[1], want[1])
    seen = se > 0
    z = (got[0] - want[0])[seen] / se[seen]
    assert np.sum(z**2) <= z.size + 4 * np.sqrt(2 * z.size), np.abs(z).max()


def _estimate(u_tilde, live, q_r, rng):
    return estimate_global_utility(u_tilde, live, q_r, sample_reception(live, q_r, rng))


class TestReception:
    """Reception as the estimator draws it: node i's estimate carries (1 / q_r)
    times each other active node's value that reached it."""

    def test_full_reception(self):
        active = np.zeros((1, 10), dtype=bool)
        active[0, [1, 4, 6, 9]] = True
        u = np.where(active, np.arange(1.0, 11.0), 0.0)
        got = scatter(ActiveSet.from_mask(active),
                      _estimate(u[active], ActiveSet.from_mask(active), 1.0, _gen(5)))
        assert got[0, 4] == u.sum()

    def test_single_active_node_receives_nothing(self):
        active = np.zeros((200, 5), dtype=bool)
        active[:, 3] = True
        live = ActiveSet.from_mask(active)
        got = scatter(live, _estimate(np.full(live.size, 2.5), live, 0.7, _gen(6)))
        assert np.all(got[:, 3] == 2.5)

    def test_inactive_node_estimates_zero(self):
        # only live entries get an estimate: one per entry of the list
        rng = _gen(7)
        active = rng.random((50, 6)) < 0.5
        u = np.where(active, rng.standard_normal((50, 6)), 0.0)
        live = ActiveSet.from_mask(active)
        got = scatter(live, _estimate(u[active], live, 0.7, rng))
        assert got.shape == active.shape and np.all(got[~active] == 0.0)

    def test_pairwise_inclusion_frequency(self):
        # node 1 carries the only nonzero value, so node 0's estimate is
        # (1 / q_r) * [node 1's value arrived]
        trials = 100_000
        live = ActiveSet.from_mask(np.ones((trials, 2), dtype=bool))
        u = np.tile([0.0, 1.0], trials)
        hits = _estimate(u, live, 0.5, _gen(8))[0::2] * 0.5
        se = np.sqrt(0.25 / trials)
        assert abs(hits.mean() - 0.5) <= 3 * se

    def test_inclusion_unconditional_on_active_set_size(self):
        # the pair (0, 1) is received with probability q_r whatever else is active
        rng = _gen(9)
        q_r = 0.3
        trials = 60_000
        for n_active in (2, 8):
            live = ActiveSet.from_mask(np.ones((trials, n_active), dtype=bool))
            u = np.zeros((trials, n_active))
            u[:, 1] = 1.0
            hits = _estimate(u.ravel(), live, q_r, rng)[0::n_active] * q_r
            se = np.sqrt(q_r * (1 - q_r) / trials)
            assert abs(hits.mean() - q_r) <= 3.5 * se


class TestChannel:
    """The channel law as ``PowerControlModel.sample_env`` draws it, over
    all-active rows so that every ordered pair carries a gain."""

    @staticmethod
    def _gains(spec, n_nodes, rows, rng):
        """The environment, then the direct gains (one per entry) and the
        cross gains (in ``live.pairs`` order) it holds."""
        live = ActiveSet.from_mask(np.ones((rows, n_nodes), bool))
        env = PowerControlModel(n_nodes, spec).sample_env(live, rng)
        direct = live.pairs[0] == live.pairs[1]
        return live, env, np.exp(env.log_direct), env.cross[~direct]

    def test_direct_and_cross_means(self):
        spec = ChannelSpec(var_direct=1.0, var_cross=0.1, noise_floor=0.2)
        live, env, diag, off = self._gains(spec, 12, 4000, _gen(10))
        # E|h|^2 equals the amplitude variance for a zero-mean channel
        assert abs(diag.mean() - 1.0) <= 3 * diag.std() / np.sqrt(diag.size)
        assert abs(off.mean() - 0.1) <= 3 * off.std() / np.sqrt(off.size)
        assert np.all(off >= 0)
        # a direct pair's cross gain is an exact 0
        assert np.all(env.cross[live.pairs[0] == live.pairs[1]] == 0.0)

    def test_dead_direct_channel_is_floored_not_redrawn(self):
        class DeadChannels:  # every amplitude exactly 0; a second call is a redraw
            calls = 0

            def standard_normal(self, size):
                self.calls += 1
                assert self.calls == 1, "a dead direct channel was redrawn"
                return np.zeros(size)

        live, env, _, off = self._gains(ChannelSpec(), 4, 3, DeadChannels())
        assert env.cross.size == 3 * 4 * 4
        assert np.all(env.log_direct == np.log(np.finfo(float).tiny)) and np.all(off == 0.0)
        model = PowerControlModel(4)
        assert np.all(np.isfinite(model.local_utilities(np.zeros(live.size), live, env)))

    def test_complex_gaussian_variant(self):
        spec = ChannelSpec(fading="complex_gaussian")
        _, _, diag, _ = self._gains(spec, 8, 4000, _gen(11))
        assert abs(diag.mean() - 1.0) <= 3 * diag.std() / np.sqrt(diag.size)

    def test_slots_are_independent(self):
        live, env, _, _ = self._gains(ChannelSpec(), 4, 60_000, _gen(12))
        tx, rx = live.pairs
        link = (live.node_idx[tx] == 0) & (live.node_idx[rx] == 1)
        draws = env.cross[link]  # the 0 -> 1 gain of every slot, in slot order
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

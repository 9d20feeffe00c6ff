import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from dosp import NetworkConfig, PerturbationSpec, StepSizeSchedule
from dosp import analysis
from dosp.core import ActionBounds, ConfigError, RngStream
from dosp.analysis import (
    MAX_AVERAGE_K,
    ModelConstants,
    _log_factorials,
    asymptotic_exponent,
    bias_diagnostics,
    binomial_averages,
    chernoff_step_bound,
    compute_K0,
    log_grid,
    mc_step_average,
    rate_envelope,
    rate_params,
    recurrence_envelope,
    step_moments,
    verify_asymptotic_bounds,
    verify_lemma4,
)
from dosp.objectives import QuadraticModel

from reference_configs import reference_schedule
from oracles import (
    averaged_steps,
    averaged_steps_grid,
    binomial_average,
    binomial_weights,
    mc_gradient_bias,
)


def _gen(stream, seed=2718):
    return RngStream(seed, stream).generator()


def _average(x, k, q_a):
    return float(binomial_averages(x, [k], q_a)[0])


def _moments(schedule, k, q_a):
    return {name: float(v[0]) for name, v in step_moments(schedule, [k], q_a).items()}


class TestBinomialAverage:
    def test_single_slot(self):
        x = lambda l: 3.0 * np.asarray(l, dtype=float)
        assert _average(x, 1, 0.3) == pytest.approx(0.3 * 3.0, rel=1e-14)

    def test_two_slot_expansion(self):
        q = 0.3
        x = lambda l: np.asarray(l, dtype=float) ** 2
        expected = q * (1 - q) * 1.0 + q * q * 4.0
        assert _average(x, 2, q) == pytest.approx(expected, rel=1e-14)

    def test_weights_match_binomial_pmf(self):
        # independent oracle: scipy's binomial pmf, scaled by q_a.  The weight
        # of index ell is the average of the indicator column of ell; indices
        # outside the summed window read 0 and carry negligible pmf mass.
        for k, q in ((7, 0.3), (500, 0.05), (5000, 0.6)):
            cols = np.arange(1, k + 1)
            weights = binomial_averages(lambda l: (l[:, None] == cols).astype(float),
                                        [k], q)[0]
            window = weights > 0
            ell, w = cols[window], weights[window]
            ref = q * stats.binom.pmf(ell - 1, k - 1, q)
            np.testing.assert_allclose(w, ref, rtol=1e-10)
            assert w.sum() == pytest.approx(q, rel=1e-10)
            assert q * stats.binom.pmf(cols[~window] - 1, k - 1, q).sum() < 1e-25 * q

    def test_cost_guard(self):
        with pytest.raises(ValueError):
            binomial_averages(lambda l: l, [2_000_000], 0.5)
        with pytest.raises(ValueError):
            binomial_averages(lambda l: l, [MAX_AVERAGE_K + 1], 0.5)

    def test_partial_sum_tracks_transport_oracle(self):
        # sum_{k<=K} of the averaged sequence equals sum_l x_l * P(l-th
        # activation happens within K slots); the negative-binomial CDF is the
        # independent oracle for that transport probability
        s = reference_schedule()
        q = 0.05
        K = 2000
        x = lambda l: s.beta(l) * s.gamma(l)
        avg_sum = float(np.sum(binomial_averages(x, np.arange(1, K + 1), q)))
        l = np.arange(1, K + 1)
        transported = stats.nbinom.cdf(K - l, l, q)
        oracle = float(np.sum(x(l) * transported))
        assert avg_sum == pytest.approx(oracle, rel=5e-3)
        assert avg_sum == pytest.approx(oracle, rel=1e-10)  # agreement is tight


class TestAveragedSteps:
    def test_first_slot_closed_form(self):
        s = reference_schedule()
        got = _moments(s, 1, 0.05)
        assert got["bg"] == pytest.approx(0.05 * 0.025 * 10.0, rel=1e-14)
        assert got["b"] == pytest.approx(0.05 * 0.025, rel=1e-14)
        assert got["g2"] == pytest.approx(0.05 * 100.0, rel=1e-14)

    @pytest.mark.parametrize("k", [10, 100, 1000])
    def test_jensen_lower_bound(self, k):
        s = reference_schedule()
        q = 0.05
        got = _moments(s, k, q)
        k_mean = 1.0 + q * (k - 1)
        assert got["bg"] >= q * s.beta(k_mean) * s.gamma(k_mean)

    @pytest.mark.parametrize("k", [10, 100, 1000])
    def test_all_moments_match_simulation(self, k):
        s = reference_schedule()
        q = 0.05
        got = _moments(s, k, q)
        rng = _gen(1)
        for name, fn in [
            ("bg", lambda l: s.beta(l) * s.gamma(l)),
            ("b", s.beta),
            ("g", s.gamma),
            ("b2", lambda l: s.beta(l) ** 2),
            ("g2", lambda l: s.gamma(l) ** 2),
            ("bg2", lambda l: s.beta(l) * s.gamma(l) ** 2),
        ]:
            est, err = mc_step_average(fn, k, q, 400_000, rng)
            assert abs(est - got[name]) <= 3 * err, (name, k)

    def test_monte_carlo_cross_check_large(self):
        s = reference_schedule()
        got = _moments(s, 200, 0.05)
        est, err = mc_step_average(lambda l: s.beta(l) * s.gamma(l), 200, 0.05,
                                   1_000_000, _gen(2))
        assert abs(est - got["bg"]) <= 3 * err

    def test_sum_inheritance(self):
        # the bg partial sums keep growing while the b2 sums go Cauchy
        s = reference_schedule()
        q = 0.05
        ks = np.arange(1, 8001)
        moments = step_moments(s, ks, q)
        bg, b2 = moments["bg"], moments["b2"]
        bg_sum = np.cumsum(bg)
        b2_sum = np.cumsum(b2)
        bg_blocks = (bg_sum[3999] - bg_sum[1999], bg_sum[7999] - bg_sum[3999])
        b2_blocks = (b2_sum[3999] - b2_sum[1999], b2_sum[7999] - b2_sum[3999])
        # doubling blocks of the squared-step sums shrink geometrically
        # (tail ~ K**-0.5 here, so the block ratio tends to 2**-0.5)
        assert b2_blocks[1] < 0.75 * b2_blocks[0]
        # while the product sums keep adding near-constant log-style blocks
        assert bg_blocks[1] > 0.9 * bg_blocks[0]


# windows wider than one chunk, out-of-order and repeated slots
SPARSE_GRID = np.array([100_000, 1, 2049, 7, 50_000, 2050, 7, 30_000])


class TestAveragesTable:
    """The one table of averages against the per-slot reference in ``oracles``.

    The two sum the same weights in a different order, so they agree to
    float64 summation noise (1e-13 relative), and exactly at q_a = 1.
    """

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.6])
    def test_step_moments_match_per_slot_reference(self, q):
        s = reference_schedule()
        ks = np.arange(1, 6001)
        got = step_moments(s, ks, q)
        ref = averaged_steps_grid(s, ks, q)
        for name in ref:
            np.testing.assert_allclose(got[name], ref[name], rtol=1e-13, atol=0,
                                       err_msg=name)

    def test_columns_match_per_slot_reference(self):
        q = 0.3
        ks = np.arange(1, 6001)
        fns = (lambda l: np.asarray(l, dtype=float) ** -0.3, lambda l: np.log(l) + 1.0)
        got = binomial_averages(lambda l: np.stack([f(l) for f in fns], axis=-1), ks, q)
        assert got.shape == (ks.size, 2)
        for j, f in enumerate(fns):
            ref = np.array([binomial_average(f, int(k), q) for k in ks])
            np.testing.assert_allclose(got[:, j], ref, rtol=1e-13, atol=0)

    def test_sparse_unsorted_grid_matches_per_slot_reference(self):
        s = reference_schedule()
        ks = SPARSE_GRID
        got = step_moments(s, ks, 0.5)
        ref = averaged_steps_grid(s, ks, 0.5)
        for name in ref:
            np.testing.assert_allclose(got[name], ref[name], rtol=1e-13, atol=0,
                                       err_msg=name)

    def test_weights_bit_identical_to_per_slot_reference(self):
        # where both sum the same window (k - 1 > 2048), an indicator
        # column's average is its weight, bit for bit
        for k, q in ((2100, 0.3), (5000, 0.6), (20_000, 0.1)):
            ell, w = binomial_weights(k, q)
            got = binomial_averages(lambda l: (l[:, None] == ell).astype(float), [k], q)[0]
            np.testing.assert_array_equal(got, w)

    def test_degenerate_activity_is_exact(self):
        s = reference_schedule()
        ks = np.arange(1, 3001)
        got = step_moments(s, ks, 1.0)
        ref = averaged_steps_grid(s, ks, 1.0)
        for name in ref:
            np.testing.assert_array_equal(got[name], ref[name], err_msg=name)

    @pytest.mark.parametrize("ks", [np.arange(1, 3001), SPARSE_GRID], ids=["dense", "sparse"])
    @pytest.mark.parametrize("x, cols", [
        (lambda l: 1.0 / l, ()),
        (lambda l: np.stack([l.astype(float), np.sqrt(l)], axis=-1), (2,)),
    ], ids=["1-D", "2-D"])
    def test_chunk_size_leaves_every_bit(self, monkeypatch, ks, x, cols):
        # each slot's weights and sum do not depend on which chunk holds them
        got = []
        for chunk in (1, 2**12, 2**20):
            monkeypatch.setattr(analysis, "_CHUNK_WEIGHTS", chunk)
            got.append(binomial_averages(x, ks, 0.3))
        assert got[0].shape == (ks.size, *cols)
        for other in got[1:]:
            np.testing.assert_array_equal(other, got[0])

    @pytest.mark.parametrize("ks", [np.arange(1, 3001), SPARSE_GRID], ids=["dense", "sparse"])
    def test_x_is_evaluated_once_on_consecutive_indices(self, ks):
        calls = []

        def x(ell):
            calls.append(np.array(ell))
            return 1.0 / ell

        binomial_averages(x, ks, 0.3)
        assert len(calls) == 1
        ell = calls[0]
        assert ell.ndim == 1 and ell[0] >= 1 and np.all(np.diff(ell) == 1)

    def test_empty_grid(self):
        assert binomial_averages(lambda l: np.asarray(l, dtype=float), [], 0.3).shape == (0,)

    @pytest.mark.parametrize("n", [0, 11, 12, 13, 998, 999, 1000, 1001, MAX_AVERAGE_K + 1])
    def test_log_factorials_match_gammaln_bit_for_bit(self, n):
        # eps1 amplifies a weight's last-bit change ~1.2e4-fold, so the table
        # must be scipy's (Cephes lgam) exactly; n spans the product/series
        # switch at 12!, Cephes' series switch at x = m + 1 = 1000 (one
        # polynomial here) and the cost guard
        got = _log_factorials(n)
        ref = gammaln(np.arange(1, n + 2))
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))


class TestLemma4:
    def test_zero_sequence(self):
        rep = verify_lemma4(lambda l: np.zeros_like(np.asarray(l, dtype=float)),
                            0.3, 50)
        assert rep.sum_raw == 0.0 and rep.sum_averaged == 0.0 and rep.rel_gap == 0.0

    def test_degenerate_activity_is_exact(self):
        s = reference_schedule()
        rep = verify_lemma4(lambda l: s.beta(l) ** 2, 1.0, 400)
        assert rep.gap == 0.0

    def test_gap_shrinks_with_horizon(self):
        s = reference_schedule()
        x = lambda l: s.beta(l) ** 2
        gaps = [verify_lemma4(x, 0.05, K).rel_gap for K in (2000, 8000, 20_000)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.02


class TestChernoffBound:
    def test_first_slot_value(self):
        z = lambda l: 1.0 / np.sqrt(np.asarray(l, dtype=float))
        q = 0.4
        assert chernoff_step_bound(z, 1, q, 0.5) == pytest.approx(
            q * (z(1) + z(2)), rel=1e-14)

    def test_dominates_simulation(self):
        s = reference_schedule()
        rng = _gen(3)
        for k in (500, 2000):
            bound = chernoff_step_bound(s.gamma, k, 0.05, 0.5)
            est, err = mc_step_average(s.gamma, k, 0.05, 1_000_000, rng)
            assert est <= bound

    def test_vanishes_along_grid(self):
        s = reference_schedule()
        vals = [chernoff_step_bound(s.gamma, k, 0.05, 0.5)
                for k in (100, 1000, 10_000, 100_000)]
        assert vals[0] > vals[1] > vals[2] > vals[3]

    def test_xi_validated(self):
        s = reference_schedule()
        for xi in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                chernoff_step_bound(s.gamma, 10, 0.5, xi)


class TestBiasDiagnostics:
    @pytest.mark.parametrize("alpha_G", [0.0, -1.0, np.nan])
    def test_alpha_G_must_be_positive(self, alpha_G):
        with pytest.raises(ValueError, match="alpha_G must be positive"):
            bias_diagnostics(reference_schedule(), NetworkConfig(5, 0.2, 1.0),
                             PerturbationSpec.rademacher(), alpha_G, [10])

    def test_envelope_dominates_moment_bound(self):
        s = reference_schedule()
        net = NetworkConfig(50, 0.05, 1.0)
        grid = np.unique(np.geomspace(1, 100_000, 40).astype(int))
        diag = bias_diagnostics(s, net, PerturbationSpec.rademacher(), 2.0, grid)
        assert np.all(diag.omega >= diag.w_bound)
        assert diag.omega[-1] < 0.1 * diag.omega[0]

    def test_moment_bound_decreases(self):
        s = reference_schedule()
        net = NetworkConfig(50, 0.05, 1.0)
        grid = np.array([1, 10, 100, 1000, 10_000, 100_000])
        diag = bias_diagnostics(s, net, PerturbationSpec.rademacher(), 2.0, grid)
        assert np.all(np.diff(diag.w_bound) < 0)

    def test_single_always_active_node_reduces_to_hand_formula(self):
        # N = 1, q_a = 1: the moment combination collapses to 3 * gamma_k
        s = reference_schedule()
        net = NetworkConfig(1, 1.0, 1.0)
        ks = np.array([1, 5, 50, 500])
        diag = bias_diagnostics(s, net, PerturbationSpec.rademacher(), 2.0, ks)
        np.testing.assert_allclose(diag.w_bound, 3.0 * s.gamma(ks), rtol=1e-12)

    @pytest.mark.parametrize("net", [
        NetworkConfig(10, 0.2, 1.0),
        NetworkConfig(10, 0.2, 0.5),
        NetworkConfig(10, 0.2, 1.0, activity="poisson", noise="uniform"),
    ], ids=["binomial-qr1", "binomial-qr0.5", "poisson-uniform"])
    def test_gradient_bias_simulation_stays_below_bound(self, net):
        targets = np.linspace(-1.5, 1.5, 10)
        model = QuadraticModel(targets)
        s = StepSizeSchedule(0.5, 2.0, 0.75, 0.25)
        pert = PerturbationSpec.rademacher()
        a = targets + 0.4
        bias, err = mc_gradient_bias(model, s, net, pert, 0.5, a, node=3, k=50,
                                     n_samples=40_000, rng=_gen(4))
        bound = bias_diagnostics(s, net, pert, model.alpha_G, [50]).b_bound[0]
        assert abs(bias) <= bound + 3 * err


class TestK0:
    def test_wide_bounds(self):
        s = reference_schedule()
        pert = PerturbationSpec.rademacher()
        bounds = ActionBounds.uniform(3, -20.0, 20.0)
        assert compute_K0(s, pert, bounds, np.zeros(3)) == 1

    def test_tight_bounds(self):
        s = reference_schedule()
        pert = PerturbationSpec.rademacher()
        bounds = ActionBounds.uniform(3, -5.0, 5.0)
        assert compute_K0(s, pert, bounds, np.zeros(3)) == 16

    def test_off_center_optimum(self):
        s = reference_schedule()
        pert = PerturbationSpec.rademacher()
        bounds = ActionBounds.uniform(3, -5.0, 5.0)
        assert compute_K0(s, pert, bounds, np.full(3, 3.0)) == 3

    @pytest.mark.parametrize("c2", [0.1, 0.25, 0.35])
    def test_minimal_at_thresholds_on_the_schedule(self, c2):
        # a slack exactly at alpha_phi * gamma_ell, or one ulp either side,
        # puts the closed-form first guess off by one either way
        s = StepSizeSchedule(0.5, 7.0, 0.65, c2)
        pert = PerturbationSpec.scaled_symmetric(1.3)
        ells = np.arange(1, 400)
        radius = pert.alpha_phi * s.gamma(ells)
        for r in radius[1:300]:
            for thr in (np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)):
                bounds = ActionBounds.uniform(2, -thr, thr)
                assert compute_K0(s, pert, bounds, np.zeros(2)) == ells[radius <= thr][0]

    def test_boundary_optimum_rejected(self):
        s = reference_schedule()
        with pytest.raises(ValueError):
            compute_K0(s, PerturbationSpec.rademacher(),
                       ActionBounds.uniform(2, -1.0, 1.0), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("a_star, node, shown", [
        ([0.0, 1.0, 5.0], 1, "a* = 1, outside (-1, 1)"),
        ([0.0, 0.5, -2.0], 2, "a* = -2, outside (-1, 1)"),
        ([np.nan, 0.0, 0.0], 0, "a* = nan, outside (-1, 1)"),
    ])
    def test_outside_optimum_is_config_error_naming_the_node(self, a_star, node, shown):
        with pytest.raises(ConfigError, match=rf"node {node} has {re.escape(shown)}$"):
            compute_K0(reference_schedule(), PerturbationSpec.rademacher(),
                       ActionBounds.uniform(3, -1.0, 1.0), np.array(a_star))


def _quadratic_params(k_max=4000, q_a=0.2, n=5, sigma_eta=0.5):
    s = StepSizeSchedule(0.25, 2.0, 0.75, 0.25)
    net = NetworkConfig(n, q_a, 1.0)
    bounds = ActionBounds.uniform(n, -3.0, 3.0)
    targets = np.linspace(-1.0, 1.0, n)
    model = QuadraticModel(targets)
    consts = ModelConstants(
        alpha_F=model.alpha_F(q_a), alpha_G=model.alpha_G,
        lipschitz=model.lipschitz(bounds), sigma_eta=sigma_eta,
        sigma_a_sq=bounds.sigma_a_sq)
    params = rate_params(s, net, consts, PerturbationSpec.rademacher(), k_max,
                         bounds=bounds, a_star=targets)
    return s, net, params


class TestRateParams:
    def test_theta_matches_average(self):
        s, net, params = _quadratic_params()
        q = net.q_activity
        for k in (1, 10, 100, 1000):
            assert params.theta[k - 1] * q == pytest.approx(
                averaged_steps(s, k, q).bg, rel=1e-12)

    def test_psi_recombines_from_averages(self):
        s, net, params = _quadratic_params()
        n = net.n_nodes
        for k in (3, 30, 300):
            m = averaged_steps(s, k, net.q_activity)
            manual = 2 * n * m.bg * m.g + m.bg2 + (n - 1) ** 2 * m.b * m.g2
            assert params.psi[k - 1] == pytest.approx(manual, rel=1e-12)

    def test_balanced_exponents_enable_both_envelopes(self):
        # c1 = 3 * c2 keeps both ratio families bounded
        _, _, params = _quadratic_params()
        assert params.vartheta is not None and params.varrho is not None
        assert params.status == "applicable"

    def test_exponent_selector(self):
        assert asymptotic_exponent(0.75, 0.25) == pytest.approx(0.5)
        assert asymptotic_exponent(0.9, 0.1) == pytest.approx(0.2)
        assert asymptotic_exponent(0.6, 0.4) == pytest.approx(0.2)

    def test_unbalanced_exponents_keep_one_envelope(self):
        # c1 > 3*c2: only the squared-ratio family stays bounded
        s = StepSizeSchedule(0.25, 2.0, 0.9, 0.1)
        net = NetworkConfig(5, 0.2, 1.0)
        bounds = ActionBounds.uniform(5, -3.0, 3.0)
        targets = np.linspace(-1.0, 1.0, 5)
        model = QuadraticModel(targets)
        consts = ModelConstants(
            alpha_F=model.alpha_F(0.2), alpha_G=model.alpha_G,
            lipschitz=model.lipschitz(bounds), sigma_eta=0.5,
            sigma_a_sq=bounds.sigma_a_sq)
        params = rate_params(s, net, consts, PerturbationSpec.rademacher(),
                             3000, bounds=bounds, a_star=targets)
        assert params.vartheta is not None and params.varrho is None
        table = rate_envelope(params, np.arange(params.K2, 3000))
        assert np.all(np.isnan(table.envelope_b))
        assert np.all(np.isfinite(table.envelope_a))

    def test_envelope_nonincreasing_beyond_k2(self):
        _, _, params = _quadratic_params()
        grid = np.arange(params.K2, 4000)
        table = rate_envelope(params, grid)
        assert np.all(np.diff(table.envelope) <= 1e-12)
        assert table.xi_fit is not None and table.xi_fit > 0

    def test_envelope_leaves_params_unchanged(self):
        _, _, params = _quadratic_params()
        before = dict(vars(params))
        rate_envelope(params, np.arange(params.K2, 4000))
        after = vars(params)
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())

    @pytest.mark.parametrize("beta0, gamma0, c1, c2", [
        (0.25, 6.0, 0.75, 0.25), (0.5, 8.0, 0.75, 0.25), (1.0, 12.0, 0.7, 0.3),
        (0.2, 7.0, 0.6, 0.15), (1.5, 10.0, 0.75, 0.25), (4.0, 2.0, 0.75, 0.25)])
    def test_K1_K2_match_slot_by_slot_search(self, beta0, gamma0, c1, c2):
        # a perturbation radius wider than the bounds' slack (gamma0 > 4) puts K0
        # past 1, so the projection-mismatch search runs; a large beta0 * gamma0
        # puts K2 past K1.  The loops are the reference.
        s = StepSizeSchedule(beta0, gamma0, c1, c2)
        net = NetworkConfig(5, 0.2, 1.0)
        bounds = ActionBounds.uniform(5, -3.0, 3.0)
        targets = np.linspace(-1.0, 1.0, 5)
        model = QuadraticModel(targets)
        consts = ModelConstants(
            alpha_F=model.alpha_F(0.2), alpha_G=model.alpha_G,
            lipschitz=model.lipschitz(bounds), sigma_eta=0.5, sigma_a_sq=bounds.sigma_a_sq)
        params = rate_params(s, net, consts, PerturbationSpec.rademacher(), 6000,
                             bounds=bounds, a_star=targets)
        K0, q_a = params.K0, net.q_activity
        assert (K0 > 1) == (gamma0 > 4)
        K1 = K0 if K0 <= 1 else next(k for k in range(K0, 6001) if q_a * gamma0**2 * math.exp(
            -0.5 * q_a * (k - 1) + K0 - 1) <= params.upsilon[k - 2])
        K2 = next((k for k in range(K1, 6001) if params.theta[k - 1] < 1.0 / params.A), None)
        assert (params.K1, params.K2) == (K1, K2)
        assert type(params.K1) is int and type(params.K2) is int

    def test_asymptotic_display_tracks_envelope_order(self):
        _, _, params = _quadratic_params()
        grid = np.unique(np.geomspace(100, 4000, 25).astype(int))
        table = rate_envelope(params, grid)
        ratio = table.envelope / table.asymptotic
        assert np.all(np.isfinite(ratio))
        assert ratio.max() / ratio.min() < 3.0


def _divergence_rate_params(**changes):
    """``rate_params`` of the divergence-rate workload (N=20, q_a=0.1,
    q_r=0.1, beta0=0.5, gamma0=2, c1=0.75, c2=0.25, bounds +-4) at k_max =
    6000, with ``changes`` made to its model constants."""
    from dosp.harness import build_model

    from reference_configs import quadratic_config

    cfg = quadratic_config(q_reception=0.1, horizon=6000)
    model = build_model(cfg)
    consts = ModelConstants(
        alpha_F=model.alpha_F(cfg.network.q_activity), alpha_G=model.alpha_G,
        lipschitz=model.lipschitz(cfg.bounds), sigma_eta=cfg.sigma_eta,
        sigma_a_sq=cfg.bounds.sigma_a_sq)
    return rate_params(cfg.schedule, cfg.network, dataclasses.replace(consts, **changes),
                       cfg.perturbation, cfg.horizon, bounds=cfg.bounds,
                       a_star=model.optimum_hint)


def test_divergence_rate_constants_match_benchmark_reference():
    """Tier-1 copy of the divergence-rate gate in ``perfbench/gates.py``.

    The workload's rate constants: A, B, C and K0-K2 exactly, eps1-eps4
    within that file's ``EPS_RTOL``.  A change to the binomial weights'
    arithmetic fails here before it fails a benchmark run.
    """
    reference = {
        "A": 0.4, "B": 2.0, "C": 518385.0, "K0": 1, "K1": 1, "K2": 1,
        "eps1": 0.04993441747296856, "eps2": 0.0004579331185050908,
        "eps3": 0.05596335232806027, "eps4": 2702.7360000000012,
    }
    eps_rtol = 1e-9
    params = _divergence_rate_params()
    for key in ("A", "B", "C", "K0", "K1", "K2"):
        assert getattr(params, key) == reference[key], key
    for key in ("eps1", "eps2", "eps3", "eps4"):
        assert getattr(params, key) == pytest.approx(reference[key], rel=eps_rtol, abs=0), key
    assert params.status == "applicable"


@pytest.mark.parametrize("alpha_F, shown", [(np.nan, "nan"), (-1.0, "-1"), (0.0, "0")])
def test_status_names_a_non_positive_alpha_F(alpha_F, shown):
    # the step sizes are not to blame: no schedule makes A = 2 sigma_phi^2 alpha_F positive
    params = _divergence_rate_params(alpha_F=alpha_F)
    assert params.status == f"inapplicable: alpha_F = {shown} is not positive and finite"
    assert params.vartheta is None and params.varrho is None and params.K2 is None


@pytest.mark.parametrize("name", ["alpha_G", "lipschitz", "sigma_eta", "sigma_a_sq"])
@pytest.mark.parametrize("value, shown", [(np.nan, "nan"), (np.inf, "inf"), (-1.0, "-1")])
def test_status_names_a_bad_constant(name, value, shown):
    # max(theta sqrt(d0) / psi, nan) drops the nan: the envelope would read a
    # certified but far smaller bound
    params = _divergence_rate_params(**{name: value})
    assert params.status == f"inapplicable: {name} = {shown} is not finite and non-negative"
    assert params.vartheta is None and params.varrho is None
    assert np.isnan(rate_envelope(params, [600]).envelope[0])


def test_status_names_every_bad_constant():
    params = _divergence_rate_params(alpha_F=np.nan, alpha_G=-1.0)
    assert params.status == ("inapplicable: alpha_F = nan is not positive and finite; "
                             "alpha_G = -1 is not finite and non-negative")


class TestRecurrenceEnvelope:
    def test_pure_contraction_product(self):
        _, _, params = _quadratic_params(k_max=200)
        import dataclasses
        frozen = dataclasses.replace(params, B=0.0, C=0.0)
        out = recurrence_envelope(frozen, 2.0, 1, 150)
        product = 2.0 * np.cumprod(1.0 - params.A * params.theta[:149])
        np.testing.assert_allclose(out[1:], product, rtol=1e-12)
        assert np.all(np.diff(out) < 0)

    @pytest.mark.parametrize("a_theta", [3.0, 1.5])
    def test_negative_coefficient_takes_the_supremum(self, a_theta):
        # A * theta > 1 on the first slots: each step is the supremum of the
        # one-slot bound over d in [0, D], whether its vertex lies inside or not
        _, _, params = _quadratic_params(k_max=200)
        steep = dataclasses.replace(params, A=a_theta / params.theta[0])
        out = recurrence_envelope(steep, 2.0, 1, 150)
        base = 1.0 - steep.A * steep.theta[:149]
        negative = np.flatnonzero(base < 0)
        drive = steep.B * steep.psi
        vertex_inside = (drive[negative] / (-2.0 * base[negative])) ** 2 < out[negative]
        assert vertex_inside.any() and not vertex_inside.all()
        for j in negative:
            d = np.linspace(0.0, out[j], 100_001)
            sup = np.max(base[j] * d + drive[j] * np.sqrt(d) + steep.C * steep.upsilon[j])
            assert sup <= out[j + 1] <= sup * (1 + 1e-8)

    def test_injection_only_tail_positive(self):
        _, _, params = _quadratic_params(k_max=200)
        import dataclasses
        frozen = dataclasses.replace(params, B=0.0)
        out = recurrence_envelope(frozen, 0.0, 1, 150)
        assert out[0] == 0.0
        assert np.all(out[1:] > 0)


class TestAsymptoticRatioBounds:
    def test_reference_schedule_bounds_engage(self):
        s = reference_schedule()
        net = NetworkConfig(50, 0.05, 1.0)
        grid = np.unique(np.geomspace(1, 100_000, 60).astype(int))
        checks = verify_asymptotic_bounds(s, net, 0.5, 0.5, grid)
        for check in checks:
            assert check.k_prime is not None, check.name

    @pytest.mark.parametrize("k_max, k_prime", [(3000, 26), (21, None)])
    def test_k_prime_is_the_point_after_the_last_failing_one(self, k_max, k_prime):
        # at xi = 0.05, xi' = 0.01 two ratios break their bounds on a run of
        # grid points after the first few; cut at k = 21 the run reaches the end
        s = StepSizeSchedule(0.5, 1.0, 0.9, 0.1)
        grid = log_grid(3000, 40)
        grid = grid[grid <= k_max]
        checks = verify_asymptotic_bounds(s, NetworkConfig(10, 0.3, 1.0), 0.05, 0.01, grid)
        for check in checks:
            holds = check.ratio <= check.bound
            first = next((int(k) for j, k in enumerate(grid) if holds[j:].all()), None)
            assert check.k_prime == first, check.name
        assert checks[0].name == "upsilon_over_theta" and checks[0].k_prime == k_prime
        assert checks[0].ratio[0] <= checks[0].bound[0]

    def test_squared_ratio_decay_order(self):
        from dosp.harness import fit_loglog_slope

        s = reference_schedule()
        net = NetworkConfig(50, 0.05, 1.0)
        grid = np.unique(np.geomspace(1000, 100_000, 40).astype(int))
        checks = {c.name: c for c in verify_asymptotic_bounds(s, net, 0.5, 0.5, grid)}
        ratio = checks["psi2_over_theta2"].ratio
        slope, _ = fit_loglog_slope(grid, ratio, k_min=1000)
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_degenerate_activity_reduces_to_raw_sequences(self):
        s = reference_schedule()
        net = NetworkConfig(4, 1.0, 1.0)
        grid = np.array([1, 10, 100])
        checks = {c.name: c for c in verify_asymptotic_bounds(s, net, 0.5, 0.5, grid)}
        theta_raw = s.beta(grid) * s.gamma(grid)
        upsilon_raw = s.beta(grid) ** 2
        np.testing.assert_allclose(checks["upsilon_over_theta"].ratio,
                                   upsilon_raw / theta_raw, rtol=1e-12)

import dataclasses

import numpy as np
import pytest

from dosp import ActionBounds, ConfigError, PerturbationSpec, RngStream, StepSizeSchedule
from dosp.core import role_streams
from dosp.harness import ExperimentConfig

from oracles import reseeded_role_streams
from reference_configs import quadratic_config


class TestStepSizeSchedule:
    def test_beta_values(self):
        s = StepSizeSchedule(0.025, 10.0, 0.75, 0.25)
        assert s.beta(1) == 0.025
        # 16**0.75 = 8 exactly
        assert s.beta(16) == pytest.approx(0.025 / 8.0, rel=1e-14)
        one = StepSizeSchedule(1.0, 10.0, 0.75, 0.25)
        assert one.beta(10_000) == pytest.approx(1e-3, rel=1e-12)

    def test_gamma_values(self):
        s = StepSizeSchedule(0.025, 10.0, 0.75, 0.25)
        assert s.gamma(1) == 10.0
        assert s.gamma(16) == pytest.approx(5.0, rel=1e-14)
        assert s.gamma(10_000) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("ell", [0, np.array([0]), np.array([3, 0]), np.array([np.nan, 0.5])],
                             ids=["scalar", "array", "later", "after-nan"])
    def test_index_zero_rejected(self, ell):
        s = StepSizeSchedule(0.025, 10.0, 0.75, 0.25)
        with pytest.raises(ValueError):
            s.beta(ell)
        with pytest.raises(ValueError):
            s.gamma(ell)

    def test_empty_and_nan_indices_pass_through(self):
        s = StepSizeSchedule(0.025, 10.0, 0.75, 0.25)
        for step in (s.beta, s.gamma):
            assert step(np.array([], dtype=np.int64)).shape == (0,)
            assert np.isnan(step(np.nan))
            assert np.isnan(step(np.array([np.nan, 2.0]))).tolist() == [True, False]

    @pytest.mark.parametrize("kwargs", [
        dict(beta0=0.0, gamma0=1.0, c1=0.75, c2=0.25),
        dict(beta0=1.0, gamma0=-1.0, c1=0.75, c2=0.25),
        dict(beta0=1.0, gamma0=1.0, c1=0.5, c2=0.25),
        dict(beta0=1.0, gamma0=1.0, c1=1.0, c2=0.25),
        dict(beta0=1.0, gamma0=1.0, c1=0.75, c2=0.0),
        dict(beta0=1.0, gamma0=1.0, c1=0.75, c2=0.26),
        dict(beta0=1.0, gamma0=1.0, c1=0.9, c2=0.2),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            StepSizeSchedule(**kwargs)

    def test_strictly_decreasing(self):
        s = StepSizeSchedule(0.3, 5.0, 0.6, 0.4)
        ell = np.arange(1, 5000)
        assert np.all(np.diff(s.beta(ell)) < 0)
        assert np.all(np.diff(s.gamma(ell)) < 0)

    def test_square_summable_but_product_diverges(self):
        # beta^2 partial sums are Cauchy while the beta*gamma sums keep growing
        s = StepSizeSchedule(0.025, 10.0, 0.75, 0.25)
        checkpoints = [10**3, 10**4, 10**5]
        ell = np.arange(1, checkpoints[-1] + 1)
        beta_sq = np.cumsum(s.beta(ell) ** 2)
        product = np.cumsum(s.beta(ell) * s.gamma(ell))
        tails = [beta_sq[b - 1] - beta_sq[a - 1] for a, b in
                 zip(checkpoints[:-1], checkpoints[1:])]
        assert tails[1] < tails[0]
        assert tails[1] < 0.05 * beta_sq[-1]
        growth = [product[c - 1] for c in checkpoints]
        assert growth[0] < growth[1] < growth[2]
        assert growth[2] - growth[1] > 0.5 * (growth[1] - growth[0])


class TestPerturbationSpec:
    def test_rademacher_support(self):
        spec = PerturbationSpec.rademacher()
        draws = spec.sample(RngStream(3, 0).generator(), size=10_000)
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert spec.alpha_phi == 1.0 and spec.sigma_phi_sq == 1.0

    def test_rademacher_moments(self):
        spec = PerturbationSpec.rademacher()
        draws = spec.sample(RngStream(4, 0).generator(), size=100_000)
        assert abs(draws.mean()) <= 3.0 / np.sqrt(100_000)
        assert abs(np.mean(draws**2) - 1.0) < 0.01

    def test_scaled_symmetric_moments(self):
        spec = PerturbationSpec.scaled_symmetric(2.5)
        draws = spec.sample(RngStream(5, 0).generator(), size=200_000)
        assert np.all(np.abs(draws) <= spec.alpha_phi)
        assert spec.sigma_phi_sq != spec.alpha_phi**2
        assert abs(draws.mean()) <= 3.0 * spec.alpha_phi / np.sqrt(200_000)
        assert np.mean(draws**2) == pytest.approx(spec.sigma_phi_sq, rel=0.02)

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            PerturbationSpec.scaled_symmetric(0.0)
        with pytest.raises(ConfigError):
            PerturbationSpec(kind="cauchy", scale=1.0)
        # the moments follow from kind and scale, so a +-1 draw cannot claim alpha_phi = 2
        with pytest.raises(ConfigError, match="a rademacher perturbation has scale 1, got 2.0"):
            PerturbationSpec("rademacher", 2.0)

    def test_direct_spec_round_trips_through_config(self):
        spec = PerturbationSpec("scaled_symmetric", 0.5)
        assert (spec.alpha_phi, spec.sigma_phi_sq) == (0.5, 0.5 * 0.5 / 3.0)
        cfg = dataclasses.replace(quadratic_config(horizon=10), perturbation=spec)
        back = ExperimentConfig.from_dict(cfg.to_dict()).perturbation
        assert back == spec
        assert (back.alpha_phi, back.sigma_phi_sq) == (spec.alpha_phi, spec.sigma_phi_sq)


class TestActionBounds:
    def test_sigma_a_sq(self):
        b = ActionBounds(np.array([-3.0, -1.0]), np.array([2.0, 5.0]))
        assert b.sigma_a_sq == 25.0
        assert ActionBounds.uniform(4, -2.0, 1.5).sigma_a_sq == 4.0

    def test_rejects_empty_interval(self):
        with pytest.raises(ConfigError):
            ActionBounds(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ConfigError):
            ActionBounds(np.array([0.0, 2.0]), np.array([1.0, 1.0]))


class TestRngStreams:
    def test_bit_exact_determinism(self):
        a = RngStream(123, 7).generator().random(1000)
        b = RngStream(123, 7).generator().random(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 7).generator().random(1000)
        b = RngStream(123, 8).generator().random(1000)
        c = RngStream(124, 7).generator().random(1000)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_role_streams_overrides(self):
        # the tests' reseeding stand-in for role_streams
        base = role_streams(55)
        again = reseeded_role_streams({})(55)
        assert np.array_equal(base["perturbation"].random(64),
                              again["perturbation"].random(64))
        reseeded = reseeded_role_streams({"perturbation": 56})
        tweaked = reseeded(55)
        base = role_streams(55)
        assert not np.array_equal(base["perturbation"].random(64),
                                  tweaked["perturbation"].random(64))
        assert np.array_equal(base["activity"].random(64), reseeded(55)["activity"].random(64))

import numpy as np
import pytest

from dosp.core import RngStream
from dosp.estimator import mc_check_unbiasedness
from dosp.network import ActiveSet
from dosp.objectives import PowerControlModel

from oracles import CountingGenerator, UtilityObservation, scalar_global_utility


def _obs(node, value):
    return UtilityObservation(node=node, value=value)


class TestEstimateArithmetic:
    def test_direct_example(self):
        got = scalar_global_utility(_obs(0, 2.0), [_obs(1, 3.0), _obs(2, 5.0)], 0.5)
        assert got == pytest.approx(18.0, rel=1e-15)

    def test_full_reception_is_exact_sum(self):
        others = [_obs(i, float(i)) for i in range(1, 6)]
        got = scalar_global_utility(_obs(0, 10.0), others, 1.0)
        assert got == pytest.approx(10.0 + sum(range(1, 6)), rel=1e-15)

    def test_invalid_q_r(self):
        for q_r in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                scalar_global_utility(_obs(0, 1.0), [], q_r)

    def test_duplicate_sender_rejected(self):
        with pytest.raises(ValueError):
            scalar_global_utility(_obs(0, 1.0), [_obs(1, 2.0), _obs(1, 2.0)], 0.5)

    def test_own_observation_in_received_rejected(self):
        with pytest.raises(ValueError):
            scalar_global_utility(_obs(0, 1.0), [_obs(0, 2.0)], 0.5)

    def test_nonfinite_observation_rejected(self):
        with pytest.raises(ValueError):
            _obs(0, float("inf"))


class TestUnbiasedness:
    def _fixed_world(self, seed=5, delta=(1, 1, 0, 1, 0, 1, 1, 0, 1, 0)):
        rng = RngStream(seed, 0).generator()
        model = PowerControlModel(10)
        live = ActiveSet.from_mask(np.array(delta, dtype=bool)[None, :])
        env = model.sample_env(live, rng)
        a_hat = rng.uniform(-1.5, 1.5, 10)
        return model, a_hat, live, env

    def test_exact_when_everything_received_noiselessly(self):
        model, a_hat, live, env = self._fixed_world()
        bias, err = mc_check_unbiasedness(model, a_hat, live, env, 1.0, 0.0,
                                          64, RngStream(1, 1).generator())
        assert bias == 0.0 and err == 0.0

    def test_lossy_noisy_estimate_is_unbiased(self):
        model, a_hat, live, env = self._fixed_world()
        bias, err = mc_check_unbiasedness(model, a_hat, live, env, 0.1, 0.5,
                                          100_000, RngStream(2, 1).generator())
        assert abs(bias) <= 3 * err

    def test_resampled_estimator_mean_matches_global_utility(self):
        model, a_hat, live, env = self._fixed_world(seed=9)
        bias, err = mc_check_unbiasedness(model, a_hat, live, env, 0.4, 0.3,
                                          100_000, RngStream(3, 1).generator())
        assert abs(bias) <= 3 * err

    def test_single_active_node_sees_only_noise(self):
        delta = np.zeros(10, dtype=int)
        delta[4] = 1
        model, a_hat, live, env = self._fixed_world(delta=delta)
        bias, err = mc_check_unbiasedness(model, a_hat, live, env, 0.5, 0.8,
                                          50_000, RngStream(4, 1).generator(),
                                          node=4)
        # estimate is u_4 + noise, so the bias is the sample mean of the noise
        assert abs(bias) <= 3 * err
        assert err == pytest.approx(0.8 / np.sqrt(50_000), rel=0.05)

    def test_unknown_noise_law_is_rejected(self):
        # a misspelt law must not fall back to another one
        model, a_hat, live, env = self._fixed_world()
        with pytest.raises(ValueError, match=r"^unknown noise kind 'unifrom', expected one of"):
            mc_check_unbiasedness(model, a_hat, live, env, 0.4, 0.6, 64,
                                  RngStream(8, 1).generator(), noise="unifrom")

    def test_uniform_noise_world_is_checked_under_its_law(self):
        model, a_hat, live, env = self._fixed_world(seed=13)
        rng = CountingGenerator(RngStream(7, 1).generator())
        trials = 100_000
        bias, err = mc_check_unbiasedness(model, a_hat, live, env, 0.4, 0.6, trials, rng,
                                          noise="uniform")
        assert abs(bias) <= 3 * err
        assert rng.counts["uniform"] == trials * live.size
        assert rng.counts["standard_normal"] == 0

    def test_variance_decreases_with_reception_probability(self):
        model, a_hat, live, env = self._fixed_world(seed=11)
        rng = RngStream(5, 1).generator()
        u = model.local_utilities(a_hat[live.node_idx], live, env)
        variances = []
        for q_r in (0.1, 0.5, 1.0):
            trials = 200_000
            mask = rng.random((trials, u.size - 1)) < q_r
            est = u[0] + (mask * u[1:]).sum(axis=1) / q_r
            variances.append(est.var(ddof=1))
            del est
        # one-sided comparison with a 3-sigma allowance on the variance estimates
        for small, large in zip(variances[1:], variances[:-1]):
            se = large * np.sqrt(2.0 / 200_000) * 3
            assert small <= large + se
        assert variances[-1] == pytest.approx(0.0, abs=1e-18)

    def test_requires_an_active_node(self):
        model, a_hat, live, env = self._fixed_world()
        with pytest.raises(ValueError):
            mc_check_unbiasedness(model, a_hat, ActiveSet.from_mask(np.zeros((1, 10), bool)),
                                  env, 0.5, 0.1, 10, RngStream(6, 1).generator())
        # node 2 is not live in the fixed world
        with pytest.raises(ValueError, match="^reference node 2 is inactive$"):
            mc_check_unbiasedness(model, a_hat, live, env, 0.5, 0.1, 10,
                                  RngStream(6, 1).generator(), node=2)

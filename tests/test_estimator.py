import numpy as np
import pytest

from dosp.core import RngStream
from dosp.estimator import mc_check_unbiasedness
from dosp.network import sample_channel
from dosp.objectives import PowerControlModel

from oracles import UtilityObservation, scalar_global_utility


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
    def _fixed_world(self, seed=5):
        rng = RngStream(seed, 0).generator()
        model = PowerControlModel(10)
        delta = np.array([1, 1, 0, 1, 0, 1, 1, 0, 1, 0])
        channel = sample_channel(10, model.channel, rng)
        a_hat = rng.uniform(-1.5, 1.5, 10)
        return model, a_hat, delta, channel

    def test_exact_when_everything_received_noiselessly(self):
        model, a_hat, delta, channel = self._fixed_world()
        bias, err = mc_check_unbiasedness(model, a_hat, delta, channel, 1.0, 0.0,
                                          64, RngStream(1, 1).generator())
        assert bias == 0.0 and err == 0.0

    def test_lossy_noisy_estimate_is_unbiased(self):
        model, a_hat, delta, channel = self._fixed_world()
        bias, err = mc_check_unbiasedness(model, a_hat, delta, channel, 0.1, 0.5,
                                          100_000, RngStream(2, 1).generator())
        assert abs(bias) <= 3 * err

    def test_resampled_estimator_mean_matches_global_utility(self):
        model, a_hat, delta, channel = self._fixed_world(seed=9)
        bias, err = mc_check_unbiasedness(model, a_hat, delta, channel, 0.4, 0.3,
                                          100_000, RngStream(3, 1).generator())
        assert abs(bias) <= 3 * err

    def test_single_active_node_sees_only_noise(self):
        model, a_hat, _, channel = self._fixed_world()
        delta = np.zeros(10, dtype=int)
        delta[4] = 1
        bias, err = mc_check_unbiasedness(model, a_hat, delta, channel, 0.5, 0.8,
                                          50_000, RngStream(4, 1).generator(),
                                          node=4)
        # estimate is u_4 + noise, so the bias is the sample mean of the noise
        assert abs(bias) <= 3 * err
        assert err == pytest.approx(0.8 / np.sqrt(50_000), rel=0.05)

    def test_variance_decreases_with_reception_probability(self):
        model, a_hat, delta, channel = self._fixed_world(seed=11)
        rng = RngStream(5, 1).generator()
        u = model.utilities_given_channel(a_hat, delta, channel)
        f = u[np.flatnonzero(delta)].sum()
        variances = []
        for q_r in (0.1, 0.5, 1.0):
            trials = 200_000
            act = np.flatnonzero(delta)
            others = act[act != act[0]]
            mask = rng.random((trials, others.size)) < q_r
            est = u[act[0]] + (mask * u[others]).sum(axis=1) / q_r
            variances.append(est.var(ddof=1))
            del est
        # one-sided comparison with a 3-sigma allowance on the variance estimates
        for small, large in zip(variances[1:], variances[:-1]):
            se = large * np.sqrt(2.0 / 200_000) * 3
            assert small <= large + se
        assert variances[-1] == pytest.approx(0.0, abs=1e-18)

    def test_requires_an_active_node(self):
        model, a_hat, _, channel = self._fixed_world()
        with pytest.raises(ValueError):
            mc_check_unbiasedness(model, a_hat, np.zeros(10, dtype=int), channel,
                                  0.5, 0.1, 10, RngStream(6, 1).generator())

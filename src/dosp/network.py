"""Per-slot network randomness: node activity, channel environment, and
observation noise.  Utility reception is drawn by the estimator
(:func:`dosp.estimator.estimate_global_utility`).

All samplers are pure functions of an owned :class:`numpy.random.Generator`;
slots within one replication are sequential, replications use disjoint
streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError


@dataclass(frozen=True)
class NetworkConfig:
    """Static network parameters.

    ``q_activity`` is the per-slot probability that a node is active,
    ``q_reception`` the per-ordered-pair probability that one active node's
    utility observation reaches another active node in the same slot.
    """

    n_nodes: int
    q_activity: float
    q_reception: float
    activity: str = "binomial"  # "binomial" | "poisson" (large-N regime, n_k capped at N)
    noise: str = "gaussian"  # "gaussian" | "uniform" observation-noise law

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
        if not 0.0 < self.q_activity <= 1.0:
            raise ConfigError(f"q_activity must lie in (0, 1], got {self.q_activity}")
        if not 0.0 < self.q_reception <= 1.0:
            raise ConfigError(f"q_reception must lie in (0, 1], got {self.q_reception}")
        if self.activity not in ("binomial", "poisson"):
            raise ConfigError(f"unknown activity model {self.activity!r}")
        if self.noise not in ("gaussian", "uniform"):
            raise ConfigError(f"unknown noise model {self.noise!r}")

    @property
    def expected_active(self) -> float:
        """Mean number of active nodes per slot (n_nodes * q_activity)."""
        return self.n_nodes * self.q_activity


@dataclass(frozen=True)
class ChannelSpec:
    """Per-link fading statistics for the interference channel.

    ``fading='real_gaussian'`` draws a real zero-mean Gaussian amplitude h with
    the configured variance and uses the power gain s = h**2;
    ``'complex_gaussian'`` uses the Rayleigh-fading equivalent, s ~ Exp(mean=var).
    Both give E[s_ij] = var, so mean-level behaviour is identical.
    """

    var_direct: float = 1.0
    var_cross: float = 0.1
    noise_floor: float = 0.2
    fading: str = "real_gaussian"

    def __post_init__(self):
        if min(self.var_direct, self.var_cross, self.noise_floor) <= 0:
            raise ConfigError("channel variances and noise floor must be positive")
        if self.fading not in ("real_gaussian", "complex_gaussian"):
            raise ConfigError(f"unknown fading model {self.fading!r}")


def sample_activity(cfg: NetworkConfig, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Draw ``rows`` independent slots' activity, a (rows, N) bool array.

    Binomial rows come from one uniform block, which consumes the stream
    exactly as ``rows`` single-row draws would.
    """
    if cfg.activity == "binomial":
        return rng.random((rows, cfg.n_nodes)) < cfg.q_activity
    # Poisson large-N regime: n_k ~ Poisson(lambda) capped at N, nodes uniform.
    out = np.zeros((rows, cfg.n_nodes), dtype=bool)
    for row in out:
        n = min(int(rng.poisson(cfg.expected_active)), cfg.n_nodes)
        if n:
            row[rng.choice(cfg.n_nodes, size=n, replace=False)] = True
    return out


def _gains(shape, var, fading, rng):
    if fading == "real_gaussian":
        h = rng.standard_normal(shape)
        return var * h * h
    return rng.exponential(var, size=shape)


def sample_channel(n_nodes: int, spec: ChannelSpec, rng: np.random.Generator) -> np.ndarray:
    """Fresh i.i.d. power-gain matrix; entry (i, j) is transmitter i -> receiver j."""
    s = _gains((n_nodes, n_nodes), spec.var_cross, spec.fading, rng)
    diag = _gains(n_nodes, spec.var_direct, spec.fading, rng)
    np.fill_diagonal(s, diag)
    # An exactly-zero direct gain is a probability-zero draw but would produce
    # -inf utilities; resample those entries.
    while True:
        zero = np.flatnonzero(np.diag(s) == 0.0)
        if zero.size == 0:
            return s
        s[zero, zero] = _gains(zero.size, spec.var_direct, spec.fading, rng)


def sample_obs_noise(sigma_eta: float, size, rng: np.random.Generator, kind: str = "gaussian") -> np.ndarray:
    """Zero-mean observation noise with variance sigma_eta**2."""
    if sigma_eta < 0:
        raise ValueError("sigma_eta must be >= 0")
    if sigma_eta == 0:
        return np.zeros(size)
    if kind == "gaussian":
        return sigma_eta * rng.standard_normal(size)
    half = sigma_eta * np.sqrt(3.0)
    return rng.uniform(-half, half, size=size)

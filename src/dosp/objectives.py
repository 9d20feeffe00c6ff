"""Objective models: the interference power-control utility and a
strongly-concave quadratic oracle with a known optimum.

A model owns the per-slot stochastic environment (channel gains for the power
model, random quadratic gains for the oracle) and evaluates local utilities
and exact gradients.  The Monte-Carlo averaged utility is
:func:`dosp.harness.eval_F_batch`.

All evaluation entry points are batched: activity masks of shape (B, N) are
processed in one vectorized pass (B = replications or Monte-Carlo samples).
Reference single-configuration methods taking a full channel matrix are kept
alongside for direct use and for cross-checking the batched paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ActionBounds, ConfigError
from .network import ChannelSpec, NetworkConfig, sample_activity


class NumericInputError(ValueError):
    """Non-finite action handed to an objective evaluation."""


@dataclass
class FlatChannel:
    """Channel gains drawn only for active transmitter/receiver pairs.

    The active nodes of every batch row are flattened into one index list so
    a whole batch of slots can be evaluated with a handful of array ops,
    regardless of how sparse the activity is.
    """

    shape: tuple[int, int]  # (B, N)
    batch_idx: np.ndarray  # (A,) batch row of each active entry
    node_idx: np.ndarray  # (A,) node id of each active entry
    offsets: np.ndarray  # (B+1,) start of each row's block in the active list
    tx_flat: np.ndarray  # (P,) transmitter, as index into the active list
    rx_flat: np.ndarray  # (P,) receiver, as index into the active list
    gains: np.ndarray  # (P,) power gains s_{tx -> rx}

    @property
    def n_active_total(self) -> int:
        return self.batch_idx.size


def _flat_pairs(active: np.ndarray):
    """Index plumbing for all ordered active pairs of every batch row."""
    counts = active.sum(axis=1).astype(np.int64)
    batch_idx, node_idx = np.nonzero(active)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    n2 = counts * counts
    poff = np.concatenate(([0], np.cumsum(n2)))
    total = int(poff[-1])
    pair_b = np.repeat(np.arange(active.shape[0]), n2)
    p_local = np.arange(total) - poff[pair_b]
    n_b = counts[pair_b]
    tx_flat = offsets[pair_b] + p_local // np.maximum(n_b, 1)
    rx_flat = offsets[pair_b] + p_local % np.maximum(n_b, 1)
    return batch_idx, node_idx, offsets, tx_flat, rx_flat


class ObjectiveModel:
    """Shared behaviour for pluggable objective models."""

    n_nodes: int

    @property
    def optimum_hint(self):
        """Known maximizer of the averaged global utility, if any."""
        return None

    def sample_env(self, active: np.ndarray, rng: np.random.Generator):
        raise NotImplementedError

    def local_utilities(self, a_hat: np.ndarray, active: np.ndarray, env) -> np.ndarray:
        raise NotImplementedError

    def global_gradient(self, a_hat: np.ndarray, active: np.ndarray, env) -> np.ndarray:
        raise NotImplementedError


class PowerControlModel(ObjectiveModel):
    """Log-SINR power-control utility under the change of variable p_i = exp(a_i).

    For an active node i the local utility is

        u_i = omega1 * log(s_ii * e^{a_i} / (sigma^2 + sum_{j != i} delta_j s_ji e^{a_j}))
              - omega2 * e^{a_i},

    and u_i = 0 whenever the node is inactive.
    """

    def __init__(self, n_nodes: int, channel: ChannelSpec | None = None,
                 omega1: float = 20.0, omega2: float = 1.0):
        if omega1 <= 0 or omega2 <= 0:
            raise ConfigError("omega1 and omega2 must be positive")
        self.n_nodes = int(n_nodes)
        self.channel = channel or ChannelSpec()
        self.omega1 = float(omega1)
        self.omega2 = float(omega2)

    # -- batched fast path -------------------------------------------------

    def sample_env(self, active: np.ndarray, rng: np.random.Generator) -> FlatChannel:
        active = np.atleast_2d(active).astype(bool)
        batch_idx, node_idx, offsets, tx_flat, rx_flat = _flat_pairs(active)
        diag = node_idx[tx_flat] == node_idx[rx_flat]
        var = np.where(diag, self.channel.var_direct, self.channel.var_cross)
        if self.channel.fading == "real_gaussian":
            h = rng.standard_normal(tx_flat.size)
            gains = var * h * h
        else:
            gains = rng.exponential(var)
        # guard the probability-zero event of an exactly dead direct channel
        while True:
            zero = np.flatnonzero(diag & (gains == 0.0))
            if zero.size == 0:
                break
            h = rng.standard_normal(zero.size)
            gains[zero] = var[zero] * h * h
        return FlatChannel(
            shape=active.shape,
            batch_idx=batch_idx,
            node_idx=node_idx,
            offsets=offsets,
            tx_flat=tx_flat,
            rx_flat=rx_flat,
            gains=gains,
        )

    def _interference(self, env: FlatChannel, power_act: np.ndarray) -> np.ndarray:
        """sigma^2 plus received cross power at every active node."""
        offdiag = env.tx_flat != env.rx_flat
        cross = np.bincount(
            env.rx_flat[offdiag],
            weights=env.gains[offdiag] * power_act[env.tx_flat[offdiag]],
            minlength=env.n_active_total,
        )
        return self.channel.noise_floor + cross

    def local_utilities(self, a_hat, active, env: FlatChannel):
        active = np.atleast_2d(active).astype(bool)
        a_hat = np.atleast_2d(a_hat)
        a_act = a_hat[env.batch_idx, env.node_idx]
        power_act = np.exp(a_act)
        interf = self._interference(env, power_act)
        s_direct = env.gains[env.tx_flat == env.rx_flat]
        u = np.zeros(active.shape)
        u[env.batch_idx, env.node_idx] = (
            self.omega1 * (np.log(s_direct) + a_act - np.log(interf))
            - self.omega2 * power_act
        )
        return u

    def global_gradient(self, a_hat, active, env: FlatChannel):
        active = np.atleast_2d(active).astype(bool)
        a_hat = np.atleast_2d(a_hat)
        a_act = a_hat[env.batch_idx, env.node_idx]
        power_act = np.exp(a_act)
        interf = self._interference(env, power_act)
        offdiag = env.tx_flat != env.rx_flat
        leak = np.bincount(
            env.tx_flat[offdiag],
            weights=env.gains[offdiag] / interf[env.rx_flat[offdiag]],
            minlength=env.n_active_total,
        )
        g = np.zeros(active.shape)
        g[env.batch_idx, env.node_idx] = (
            self.omega1 - self.omega2 * power_act - self.omega1 * power_act * leak
        )
        return g

    # -- reference single-configuration path --------------------------------

    def utilities_given_channel(self, a_hat, delta, channel) -> np.ndarray:
        """Local utilities for one configuration and a full gain matrix."""
        a_hat = np.asarray(a_hat, dtype=float)
        if not np.all(np.isfinite(a_hat)):
            raise NumericInputError("actions must be finite")
        act = np.flatnonzero(delta)
        u = np.zeros(self.n_nodes)
        if act.size == 0:
            return u
        sub = np.asarray(channel)[np.ix_(act, act)]
        direct = np.diag(sub)
        if np.any(direct <= 0):
            raise ValueError("direct channel gain must be positive")
        p = np.exp(a_hat[act])
        interf = self.channel.noise_floor + p @ sub - direct * p
        u[act] = self.omega1 * (np.log(direct) + a_hat[act] - np.log(interf)) \
            - self.omega2 * p
        return u

    def gradient_given_channel(self, a_hat, delta, channel) -> np.ndarray:
        """Exact gradient of the summed local utilities; zero for inactive nodes."""
        a_hat = np.asarray(a_hat, dtype=float)
        if not np.all(np.isfinite(a_hat)):
            raise NumericInputError("actions must be finite")
        act = np.flatnonzero(delta)
        g = np.zeros(self.n_nodes)
        if act.size == 0:
            return g
        sub = np.asarray(channel)[np.ix_(act, act)]
        direct = np.diag(sub)
        p = np.exp(a_hat[act])
        interf = self.channel.noise_floor + p @ sub - direct * p
        leak = (sub / interf[None, :]).sum(axis=1) - direct / interf
        g[act] = self.omega1 - self.omega2 * p - self.omega1 * p * leak
        return g

    def hessian_given_channel(self, a_hat, delta, channel) -> np.ndarray:
        """Exact Hessian of the summed local utilities on the active block."""
        a_hat = np.asarray(a_hat, dtype=float)
        act = np.flatnonzero(delta)
        H = np.zeros((self.n_nodes, self.n_nodes))
        if act.size == 0:
            return H
        sub = np.asarray(channel)[np.ix_(act, act)]
        direct = np.diag(sub)
        p = np.exp(a_hat[act])
        interf = self.channel.noise_floor + p @ sub - direct * p
        off = sub.copy()
        np.fill_diagonal(off, 0.0)
        # cross term: omega1 p_i p_j sum_{n != i, j} s_in s_jn / I_n^2
        w = off / interf[None, :]
        cross = self.omega1 * np.outer(p, p) * (w @ w.T)
        leak = (off / interf[None, :]).sum(axis=1)
        leak2 = (off**2 / interf[None, :] ** 2).sum(axis=1)
        diag = (
            -self.omega2 * p
            - self.omega1 * p * leak
            + self.omega1 * p**2 * leak2
        )
        np.fill_diagonal(cross, diag)
        H[np.ix_(act, act)] = cross
        return H

    def estimate_lipschitz(
        self,
        bounds: ActionBounds,
        cfg: NetworkConfig,
        rng: np.random.Generator,
        n_draws: int = 10_000,
        pairs_per_draw: int = 4,
    ) -> float:
        """Empirical Lipschitz constant of a -> u_i over the feasible box.

        Max observed ratio |u_i(a) - u_i(a')| / ||(a - a') o delta|| across
        sampled (activity, channel) draws; an estimate, not a certified bound.
        """
        from .network import sample_channel

        worst = 0.0
        for _ in range(n_draws // pairs_per_draw):
            delta = sample_activity(cfg, rng, 1)[0]
            if delta.sum() == 0:
                continue
            channel = sample_channel(self.n_nodes, self.channel, rng)
            for _ in range(pairs_per_draw):
                a = rng.uniform(bounds.lower, bounds.upper)
                b = rng.uniform(bounds.lower, bounds.upper)
                du = self.utilities_given_channel(a, delta, channel) - \
                    self.utilities_given_channel(b, delta, channel)
                denom = np.linalg.norm((a - b) * delta)
                if denom > 0:
                    worst = max(worst, float(np.max(np.abs(du))) / denom)
        return worst


class QuadraticModel(ObjectiveModel):
    """Separable strongly-concave oracle u_i = -zeta_i * (a_i - t_i)^2.

    The random gain zeta is uniform on [gain_low, gain_high] with mean one, so
    the averaged global utility is F(a) = -q_a * sum_i (a_i - t_i)^2 with the
    unique maximizer a* = t and strong-concavity constant 2 * q_a.
    """

    def __init__(self, targets, gain_low: float = 0.5, gain_high: float = 1.5):
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 1:
            raise ConfigError("targets must be a 1-D vector")
        if not 0 < gain_low <= gain_high:
            raise ConfigError("need 0 < gain_low <= gain_high")
        if abs((gain_low + gain_high) / 2.0 - 1.0) > 1e-12:
            raise ConfigError("gain distribution must have mean 1")
        self.targets = targets
        self.gain_low = float(gain_low)
        self.gain_high = float(gain_high)
        self.n_nodes = targets.size

    @property
    def optimum_hint(self):
        return self.targets

    @classmethod
    def default_targets(cls, n_nodes: int, low: float = -1.5, high: float = 1.5):
        return np.linspace(low, high, n_nodes)

    def sample_env(self, active, rng: np.random.Generator):
        active = np.atleast_2d(active)
        if self.gain_low == self.gain_high:
            return np.full(active.shape, self.gain_low)
        return rng.uniform(self.gain_low, self.gain_high, size=active.shape)

    def local_utilities(self, a_hat, active, env):
        a_hat = np.atleast_2d(a_hat)
        active = np.atleast_2d(active)
        return -env * (a_hat - self.targets) ** 2 * active

    def global_gradient(self, a_hat, active, env):
        a_hat = np.atleast_2d(a_hat)
        active = np.atleast_2d(active)
        return -2.0 * env * (a_hat - self.targets) * active

    # closed-form constants used by the rate-bound machinery
    def alpha_F(self, q_a: float) -> float:
        return 2.0 * q_a

    @property
    def alpha_G(self) -> float:
        return 2.0

    def lipschitz(self, bounds: ActionBounds) -> float:
        dev = np.maximum(np.abs(bounds.upper - self.targets),
                         np.abs(bounds.lower - self.targets))
        return 2.0 * float(np.max(dev)) * self.gain_high

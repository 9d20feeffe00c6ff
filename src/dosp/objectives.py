"""Objective models: the interference power-control utility and a
strongly-concave quadratic oracle with a known optimum.

A model owns the per-slot stochastic environment (channel gains for the power
model, random quadratic gains for the oracle) and evaluates local utilities
and exact gradients.  The Monte-Carlo averaged utility is
:func:`dosp.harness.eval_F_batch`.

All evaluation entry points run on the flat list of live entries of a batch
of slots (:class:`dosp.network.ActiveSet`, B = replications or Monte-Carlo
samples): actions, utilities and gradients are (A,) arrays in the list's
order, and callers scatter or sum by row or node where they need to.
``local_utilities`` and ``global_gradient`` read only the list's row
structure (``size``, ``shape``, ``batch_idx``, ``pairs``); per-node terms
reach them through the environment, as :attr:`QuadraticEnv.target` does.

An environment holds, besides the draws, every term that does not depend on
the actions, in the form the evaluations read (:class:`PowerEnv`,
:class:`QuadraticEnv`).  ``prepare_env`` builds it from the raw draws once,
where ``sample_env`` draws them, and every evaluation reads that one form.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import ActionBounds, ConfigError
from .network import ActiveSet, ChannelSpec

_TINY = np.finfo(float).tiny  # floor of a direct channel gain
_TARGET_RANGE = (-1.5, 1.5)  # the quadratic model's default targets span it


class PowerEnv(NamedTuple):
    """The power model's environment of an :class:`ActiveSet` ``live``."""

    cross: np.ndarray  # per pair of live.pairs: the gain s_tx->rx, an exact 0 where tx == rx
    log_direct: np.ndarray  # per entry: log s_ii

    def part(self, entries: slice, pairs: slice) -> "PowerEnv":
        """The environment of a contiguous run of rows, by entry and pair range."""
        return PowerEnv(self.cross[pairs], self.log_direct[entries])


class QuadraticEnv(NamedTuple):
    """The quadratic model's environment of an :class:`ActiveSet` ``live``."""

    gain: np.ndarray  # per entry: zeta
    target: np.ndarray  # per entry: the target t of the entry's node

    def part(self, entries: slice, pairs=None) -> "QuadraticEnv":
        """The environment of a contiguous run of rows, by entry range."""
        return QuadraticEnv(self.gain[entries], self.target[entries])


class PowerControlModel:
    """Log-SINR power-control utility under the change of variable p_i = exp(a_i).

    For an active node i the local utility is

        u_i = omega1 * log(s_ii * e^{a_i} / (sigma^2 + sum_{j != i} delta_j s_ji e^{a_j}))
              - omega2 * e^{a_i},

    and u_i = 0 whenever the node is inactive.  The environment
    (:class:`PowerEnv`) is the gains s_{tx -> rx} of the ordered pairs of
    ``live.pairs`` (live entries only): the cross gains, with an exact 0 on
    every direct pair, and log s_ii per entry.
    """

    pairwise_env = True  # env holds terms per pair of live.pairs, not only per live entry
    optimum_hint = None  # no known maximizer of the averaged global utility

    def __init__(self, n_nodes: int, channel: ChannelSpec | dict | None = None,
                 omega1: float = 20.0, omega2: float = 1.0):
        if omega1 <= 0 or omega2 <= 0:
            raise ConfigError("omega1 and omega2 must be positive")
        self.n_nodes = int(n_nodes)
        if isinstance(channel, dict):  # a config's channel section
            channel = ChannelSpec(**channel)
        elif not isinstance(channel, ChannelSpec | None):
            raise ConfigError(f"channel must be a ChannelSpec, a mapping or None, got {channel!r}")
        self.channel = ChannelSpec() if channel is None else channel
        self.omega1 = float(omega1)
        self.omega2 = float(omega2)

    def sample_env(self, live: ActiveSet, rng: np.random.Generator) -> PowerEnv:
        """The environment of the power gains of the pairs of ``live.pairs``,
        in their order: one draw per pair, so the draws of consecutive rows
        concatenate.

        A direct gain is floored at the smallest normal float, so the
        probability-zero event of a dead direct channel (log s_ii = -inf)
        costs no redraw.
        """
        tx, rx = live.pairs
        diag = tx == rx
        var = np.where(diag, self.channel.var_direct, self.channel.var_cross)
        if self.channel.fading == "real_gaussian":
            h = rng.standard_normal(tx.size)
            gains = var * h * h
        else:
            gains = rng.exponential(var)
        gains[diag & (gains < _TINY)] = _TINY
        return self.prepare_env(live, gains)

    def prepare_env(self, live: ActiveSet, gains: np.ndarray) -> PowerEnv:
        """The environment of the power gains ``gains`` of ``live.pairs``."""
        tx, rx = live.pairs
        diag = tx == rx
        return PowerEnv(np.where(diag, 0.0, gains), np.log(gains[diag]))

    def _interference(self, live, cross, power) -> np.ndarray:
        """sigma^2 plus received cross power at every live entry.  A direct
        pair's cross gain is an exact 0, so it adds 0 to its receiver's sum,
        which leaves every partial sum of the (nonnegative) cross terms as
        it is."""
        tx, rx = live.pairs
        return self.channel.noise_floor + np.bincount(rx, weights=cross * power[tx],
                                                      minlength=live.size)

    def local_utilities(self, a_hat, live, env):
        power = np.exp(a_hat)
        interf = self._interference(live, env.cross, power)
        return self.omega1 * (env.log_direct + a_hat - np.log(interf)) - self.omega2 * power

    def _leakage(self, live, cross, power):
        """Per-pair w = s_kn / I_n (0 on the diagonal) and its sum over receivers n."""
        tx, rx = live.pairs
        w = cross / self._interference(live, cross, power)[rx]
        leak = np.bincount(tx, weights=w, minlength=live.size)
        return w, leak

    def global_gradient(self, a_hat, live, env):
        power = np.exp(a_hat)
        _, leak = self._leakage(live, env.cross, power)
        return self.omega1 - self.omega2 * power - self.omega1 * power * leak

    def global_hessian(self, a_hat, live, env) -> np.ndarray:
        """d^2 U / (da_tx da_rx) of the summed utilities for every pair in ``live.pairs``.

        Off the diagonal this is omega1 p_k p_m sum_n w_kn w_mn over the row's
        live n; the diagonal adds -omega2 p_k - omega1 p_k leak_k.  The sum
        runs as one batched product of per-row (n_b, n_b) blocks of w, padded
        to the busiest row: B * max(n_b)^2 memory, where listing every
        (k, m, n) triple would take sum(n_b^3).
        """
        tx, rx = live.pairs
        power = np.exp(a_hat)
        w, leak = self._leakage(live, env.cross, power)
        pair_b = live.batch_idx[tx]
        k = tx - live.offsets[pair_b]
        m = rx - live.offsets[pair_b]
        width = int(live.counts.max(initial=0))
        block = np.zeros((live.shape[0], width, width))
        block[pair_b, k, m] = w
        wwt = np.matmul(block, block.transpose(0, 2, 1))[pair_b, k, m]
        p_tx, p_rx = power[tx], power[rx]
        h = self.omega1 * p_tx * p_rx * wwt
        diag = tx == rx
        h[diag] -= (self.omega2 + self.omega1 * leak[tx[diag]]) * p_tx[diag]
        return h


class QuadraticModel:
    """Separable strongly-concave oracle u_i = -zeta_i * (a_i - t_i)^2.

    The random gain zeta is uniform on [gain_low, gain_high] with mean one, so
    the averaged global utility is F(a) = -q_a * sum_i (a_i - t_i)^2 with the
    unique maximizer a* = t and strong-concavity constant 2 * q_a.
    """

    pairwise_env = False  # env holds terms per live entry only

    def __init__(self, targets: list[float] | None = None, gain_low: float = 0.5,
                 gain_high: float = 1.5, *, n_nodes: int | None = None):
        """No ``targets`` means :meth:`default_targets` of ``n_nodes``."""
        targets = np.asarray(self.default_targets(n_nodes) if targets is None else targets,
                             dtype=float)
        if targets.ndim != 1:
            raise ConfigError("targets must be a 1-D vector")
        if n_nodes is not None and targets.size != n_nodes:
            raise ConfigError("quadratic targets must list one value per node")
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
    def default_targets(cls, n_nodes: int):
        """``n_nodes`` targets evenly spaced over ``_TARGET_RANGE``."""
        return np.linspace(*_TARGET_RANGE, n_nodes)

    def sample_env(self, live: ActiveSet, rng: np.random.Generator) -> QuadraticEnv:
        """The environment of fresh gains zeta of the live entries."""
        gains = (np.full(live.size, self.gain_low) if self.gain_low == self.gain_high
                 else rng.uniform(self.gain_low, self.gain_high, size=live.size))
        return self.prepare_env(live, gains)

    def prepare_env(self, live: ActiveSet, gains: np.ndarray) -> QuadraticEnv:
        """The environment of the gains ``gains`` of the live entries."""
        return QuadraticEnv(gains, self.targets[live.node_idx])

    def local_utilities(self, a_hat, live, env):
        # -zeta * (a - t)^2, in place: negating the product gives the same bits
        u = a_hat - env.target
        u *= u
        u *= env.gain
        return np.negative(u, out=u)

    def global_gradient(self, a_hat, live, env):
        return -2.0 * env.gain * (a_hat - env.target)

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


MODELS = {"power": PowerControlModel, "quadratic": QuadraticModel}  # by config kind

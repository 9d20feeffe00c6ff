"""Scalar and dense reference implementations that the tests compare the
batched library code against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class UtilityObservation:
    """One node's noisy utility observation for the current slot."""

    node: int
    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"utility observation for node {self.node} is not finite")


def scalar_global_utility(
    own: UtilityObservation,
    received: Sequence[UtilityObservation],
    q_r: float,
) -> float:
    """One node's reception-compensated estimate: own.value + (1 / q_r) * sum
    of the received values."""
    if not 0.0 < q_r <= 1.0:
        raise ValueError(f"q_r must lie in (0, 1], got {q_r}")
    senders = [obs.node for obs in received]
    if len(set(senders)) != len(senders):
        raise ValueError("duplicate sender in received observations")
    if own.node in senders:
        raise ValueError("a node cannot receive its own observation")
    return own.value + sum(obs.value for obs in received) / q_r


# -- dense single-configuration power-control model ---------------------------
# ``channel`` is a full (N, N) gain matrix, entry (i, j) transmitter i ->
# receiver j; ``delta`` is one activity row.  Only the active block is read.

def dense_channel(n_nodes: int, spec, rng: np.random.Generator) -> np.ndarray:
    """Fresh i.i.d. power-gain matrix under ``spec``'s fading law."""
    def gains(shape, var):
        if spec.fading == "real_gaussian":
            h = rng.standard_normal(shape)
            return var * h * h
        return rng.exponential(var, size=shape)

    s = gains((n_nodes, n_nodes), spec.var_cross)
    np.fill_diagonal(s, gains(n_nodes, spec.var_direct))
    return s


def _active_block(model, a_hat, delta, channel):
    act = np.flatnonzero(delta)
    sub = np.asarray(channel)[np.ix_(act, act)]
    direct = np.diag(sub)
    p = np.exp(np.asarray(a_hat, dtype=float)[act])
    interf = model.channel.noise_floor + p @ sub - direct * p
    return act, sub, direct, p, interf


def dense_utilities(model, a_hat, delta, channel) -> np.ndarray:
    """Local utilities of every node; zero where inactive."""
    act, _, direct, p, interf = _active_block(model, a_hat, delta, channel)
    a_act = np.asarray(a_hat, dtype=float)[act]
    u = np.zeros(model.n_nodes)
    u[act] = model.omega1 * (np.log(direct) + a_act - np.log(interf)) - model.omega2 * p
    return u


def dense_gradient(model, a_hat, delta, channel) -> np.ndarray:
    """Exact gradient of the summed local utilities; zero for inactive nodes."""
    act, sub, direct, p, interf = _active_block(model, a_hat, delta, channel)
    leak = (sub / interf[None, :]).sum(axis=1) - direct / interf
    g = np.zeros(model.n_nodes)
    g[act] = model.omega1 - model.omega2 * p - model.omega1 * p * leak
    return g


def dense_hessian(model, a_hat, delta, channel) -> np.ndarray:
    """Exact (N, N) Hessian of the summed local utilities; zero off the active block."""
    act, sub, _, p, interf = _active_block(model, a_hat, delta, channel)
    w = sub / interf[None, :]
    np.fill_diagonal(w, 0.0)
    # cross term: omega1 p_i p_j sum_{n != i, j} s_in s_jn / I_n^2
    block = model.omega1 * np.outer(p, p) * (w @ w.T)
    block[np.diag_indices(act.size)] -= model.omega2 * p + model.omega1 * p * w.sum(axis=1)
    H = np.zeros((model.n_nodes, model.n_nodes))
    H[np.ix_(act, act)] = block
    return H

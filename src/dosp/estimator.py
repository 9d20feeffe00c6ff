"""Per-node estimation of the global utility from one noisy local observation
plus the neighbor observations that happened to arrive.

The estimator inflates the received sum by 1/q_r, which makes it unbiased for
the realized global utility under per-pair Bernoulli(q_r) reception.
"""

from __future__ import annotations

import numpy as np

from .network import sample_obs_noise

# uniforms per reception draw in mc_check_unbiasedness (8 MB of float64)
_CHUNK_DRAWS = 1 << 20


def estimate_global_utility(u_tilde: np.ndarray, active: np.ndarray, q_r: float,
                            rng: np.random.Generator) -> np.ndarray:
    """Reception-compensated global-utility estimates for a batch of slots.

    ``u_tilde`` holds the (B, N) noisy local observations (zero where
    inactive).  Every active node i receives each other active node's value
    independently with probability q_r and estimates f~_i = u~_i + (1 / q_r)
    * (sum of received values).  Inactive nodes get 0.  Historical
    observations are never reused: under i.i.d. environments only the current
    slot's values say anything about the current global utility.
    """
    if q_r == 1.0:
        total = u_tilde.sum(axis=1, keepdims=True)
        return np.where(active, total, 0.0)
    b, n = active.shape
    kappa = rng.random((b, n, n)) < q_r
    received = np.einsum("bij,bj->bi", kappa, u_tilde) - kappa.diagonal(axis1=1, axis2=2) * u_tilde
    return np.where(active, u_tilde + received / q_r, 0.0)


def mc_check_unbiasedness(
    model,
    a_hat: np.ndarray,
    delta: np.ndarray,
    env,
    q_r: float,
    sigma_eta: float,
    n_trials: int,
    rng: np.random.Generator,
    node: int | None = None,
) -> tuple[float, float]:
    """Monte-Carlo bias of the estimator against the true global utility.

    Holds (actions, activity, environment) fixed and resamples only the
    reception sets and the observation noise, by running
    :func:`estimate_global_utility` on the active block in chunks of trials.
    Returns (mean(estimate) - f, standard error of the mean) for ``node``.
    """
    delta = np.asarray(delta)
    act = np.flatnonzero(delta)
    if act.size == 0:
        raise ValueError("need at least one active node")
    if node is None:
        node = int(act[0])
    if not delta[node]:
        raise ValueError(f"reference node {node} is inactive")

    if hasattr(model, "utilities_given_channel"):
        u = model.utilities_given_channel(a_hat, delta, env)
    else:
        u = np.asarray(model.local_utilities(a_hat, delta.astype(bool), env))[0]
    u_act = u[act]
    f_true = float(u_act.sum())

    col = int(np.searchsorted(act, node))
    chunk = max(1, _CHUNK_DRAWS // (act.size * act.size))
    estimates = np.empty(n_trials)
    for start in range(0, n_trials, chunk):
        rows = min(chunk, n_trials - start)
        u_tilde = u_act + sample_obs_noise(sigma_eta, (rows, act.size), rng)
        everyone = np.ones(u_tilde.shape, dtype=bool)
        estimates[start:start + rows] = estimate_global_utility(u_tilde, everyone, q_r, rng)[:, col]
    bias = float(estimates.mean() - f_true)
    stderr = float(estimates.std(ddof=1) / np.sqrt(n_trials)) if n_trials > 1 else 0.0
    return bias, stderr

"""Per-node estimation of the global utility from one noisy local observation
plus the neighbor observations that happened to arrive.

The estimator inflates the received sum by 1/q_r, which makes it unbiased for
the realized global utility under per-pair Bernoulli(q_r) reception.
"""

from __future__ import annotations

import numpy as np

from .network import ActiveSet, sample_obs_noise

# ordered pairs per reception draw in mc_check_unbiasedness (8 MB of float64)
_CHUNK_DRAWS = 1 << 20


def estimate_global_utility(u_tilde: np.ndarray, live: ActiveSet, q_r: float,
                            rng: np.random.Generator) -> np.ndarray:
    """Reception-compensated global-utility estimates of every live entry.

    ``u_tilde`` holds the (A,) noisy local observations of ``live``.  Every
    live node i receives each other live node's value in its row
    independently with probability q_r and estimates f~_i = u~_i + (1 / q_r)
    * (sum of received values).  One uniform is drawn per ordered pair
    (receiver i, sender j) of ``live.pairs``, sum_b n_b^2 in all.  Historical
    observations are never reused: under i.i.d. environments only the
    current slot's values say anything about the current global utility.
    """
    if q_r == 1.0:
        totals = np.bincount(live.batch_idx, weights=u_tilde, minlength=live.shape[0])
        return totals[live.batch_idx]
    receiver, sender = live.pairs
    heard = (rng.random(receiver.size) < q_r) & (receiver != sender)
    received = np.bincount(receiver, weights=u_tilde[sender] * heard, minlength=live.size)
    return u_tilde + received / q_r


def mc_check_unbiasedness(
    model,
    a_hat: np.ndarray,
    live: ActiveSet,
    env,
    q_r: float,
    sigma_eta: float,
    n_trials: int,
    rng: np.random.Generator,
    node: int | None = None,
    noise: str = "gaussian",
) -> tuple[float, float]:
    """Monte-Carlo bias of the estimator against the true global utility.

    Holds (actions, activity, environment) fixed and resamples only the
    reception sets and the observation noise (of law ``noise``, the
    network's ``noise`` kind), by running :func:`estimate_global_utility` on
    chunks of trials, each trial one row holding every live node.  ``live``
    is one activity row, ``env`` the model's environment for it and
    ``a_hat`` the (N,) actions.  Returns (mean(estimate) - f, standard error
    of the mean) for ``node``.
    """
    if live.size == 0:
        raise ValueError("need at least one active node")
    act = live.node_idx
    if node is None:
        node = int(act[0])
    if node not in act:
        raise ValueError(f"reference node {node} is inactive")

    u_act = model.local_utilities(np.asarray(a_hat)[act], live, env)
    f_true = float(u_act.sum())

    n = act.size
    col = int(np.searchsorted(act, node))
    chunk = max(1, _CHUNK_DRAWS // (n * n))
    estimates = np.empty(n_trials)
    trials = None
    for start in range(0, n_trials, chunk):
        rows = min(chunk, n_trials - start)
        if trials is None or trials.shape[0] != rows:
            trials = ActiveSet.from_mask(np.ones((rows, n), dtype=bool))
        u_tilde = np.tile(u_act, rows) + sample_obs_noise(sigma_eta, rows * n, rng, noise)
        f = estimate_global_utility(u_tilde, trials, q_r, rng)
        estimates[start:start + rows] = f[col::n]
    bias = float(estimates.mean() - f_true)
    stderr = float(estimates.std(ddof=1) / np.sqrt(n_trials)) if n_trials > 1 else 0.0
    return bias, stderr

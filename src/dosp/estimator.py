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


def sample_reception(live: ActiveSet, q_r: float,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray] | None:
    """The observations that arrive, as (receiver, sender) entry indices of
    ``live``: each ordered pair of distinct entries in one row arrives with
    probability q_r.  One uniform is drawn per pair of ``live.pairs``,
    self-pairs included, sum_b n_b^2 in all; the arrived pairs keep that
    order (by receiver, then sender).  With q_r = 1 every observation
    arrives and nothing is drawn (``None``)."""
    if q_r == 1.0:
        return None
    per_receiver = live.counts[live.batch_idx]
    first_pair = np.cumsum(per_receiver) - per_receiver
    # only the arrived pairs are listed, not all sum_b n_b^2 of them
    arrived = np.flatnonzero(rng.random(int(per_receiver.sum())) < q_r)
    receiver = np.searchsorted(first_pair, arrived, side="right") - 1
    sender = arrived - first_pair[receiver] + live.offsets[live.batch_idx[receiver]]
    distinct = receiver != sender
    return receiver[distinct], sender[distinct]


def estimate_global_utility(u_tilde: np.ndarray, live: ActiveSet, q_r: float,
                            heard: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """Reception-compensated global-utility estimates of every live entry.

    ``u_tilde`` holds the (A,) noisy local observations of ``live`` and
    ``heard`` the arrived (receiver, sender) pairs of
    :func:`sample_reception`.  Every live node i estimates f~_i = u~_i +
    (1 / q_r) * (sum of the values it received).  Historical observations
    are never reused: under i.i.d. environments only the current slot's
    values say anything about the current global utility.
    """
    if heard is None:
        totals = np.bincount(live.batch_idx, weights=u_tilde, minlength=live.shape[0])
        return totals[live.batch_idx]
    receiver, sender = heard
    received = np.bincount(receiver, weights=u_tilde[sender], minlength=live.size)
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
        f = estimate_global_utility(u_tilde, trials, q_r, sample_reception(trials, q_r, rng))
        estimates[start:start + rows] = f[col::n]
    bias = float(estimates.mean() - f_true)
    stderr = float(estimates.std(ddof=1) / np.sqrt(n_trials)) if n_trials > 1 else 0.0
    return bias, stderr

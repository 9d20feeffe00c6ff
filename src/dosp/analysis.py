"""Exact averaged step sizes, concentration bounds, bias envelopes, and
convergence-rate machinery for the sporadic derivative-free learner.

Binomial averages are evaluated in log space (relative weight precision
~1e-13), bounds are closed forms, and rate parameters are maxima over an
explicit slot grid.  The one Monte-Carlo cross-check, :func:`mc_step_average`,
draws through the learner's own activity and index samplers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ActionBounds, ConfigError, PerturbationSpec, StepSizeSchedule
from .network import NetworkConfig, sample_activity
from .optimizer import sample_step_index

# Largest slot index an average is taken at.  The cost grows as k^1.5: on a
# 2-vCPU VM, `dosp bounds --kmax` (q_a = 0.1) took 13.5 s at 1e5, 53 s at 3e5.
MAX_AVERAGE_K = 300_000
MIN_RATE_K = 4  # smallest k_max that rate_params accepts
_CHUNK_WEIGHTS = 2**11  # binomial weights evaluated per chunk of slots


# Cephes lgam's Stirling-series constants: log(sqrt(2 pi)) and the
# coefficients of its correction polynomial in 1/x^2.
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)


def _log_factorials(n_max: int) -> np.ndarray:
    """log(m!) for m = 0..n_max, equal bit for bit to scipy's ``gammaln(m + 1)``.

    This is Cephes ``lgam`` (Moshier 1989) on integers: the exact product
    up to 11!, a Stirling series from 12! on.  Every log is libm's, through
    ``math.log``; ``np.log`` differs from it in the last bit on some integers.
    """
    small = [math.log(math.factorial(m)) for m in range(min(n_max, 11) + 1)]
    x = np.arange(13, n_max + 2, dtype=float)  # x = m + 1 for m >= 12
    log_x = np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    poly = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        poly = poly * p + c
    # up to x = MAX_AVERAGE_K + 2, Cephes' shorter series for x >= 1000 rounds
    # to the same bits (test_log_factorials_match_gammaln_bit_for_bit)
    return np.concatenate([small, q + poly / x])


def binomial_averages(x, ks, q_a: float) -> np.ndarray:
    """E[delta * x_ell] at every slot in ``ks``, under the slot's activity/index law.

    A node is active (delta = 1) with probability q_a and then sits at index
    ell = 1 + Bin(k-1, q_a), so the weight of ell is C(k-1, ell-1) *
    q_a^ell * (1-q_a)^(k-ell) and the weights sum to q_a.  Only a window of
    mean +- (12 sigma + 40) activation counts is summed; the weights left out
    are below e^-70 of the largest.  ``x`` is a vectorized evaluator on
    integer index arrays and may return several columns, shape (m, c); the
    result then has shape (len(ks), c).  The slots are evaluated in chunks of
    consecutive slots holding about ``_CHUNK_WEIGHTS`` weights, so the weights
    held at once do not grow with max(ks).
    """
    ks = np.asarray(ks, dtype=np.int64).reshape(-1)
    if ks.size and ks.min() < 1:
        raise ValueError("slot index starts at 1")
    if ks.size and ks.max() > MAX_AVERAGE_K:
        raise ValueError(f"k = {ks.max()} exceeds the cost guard {MAX_AVERAGE_K}")
    if q_a == 1.0 or ks.size == 0:
        return np.asarray(x(ks), dtype=float)
    n = ks - 1
    mean = n * q_a
    sd = np.sqrt(n * q_a * (1.0 - q_a))
    lo = np.maximum(0, (mean - 12.0 * sd - 40.0).astype(np.int64))
    hi = np.minimum(n, (mean + 12.0 * sd + 40.0).astype(np.int64))
    sizes = hi - lo + 1
    ends = np.cumsum(sizes)
    log_fact = _log_factorials(int(n.max()))
    log_q, log_1mq = math.log(q_a), math.log1p(-q_a)
    out = None
    first = 0
    while first < ks.size:
        # the slots whose windows fit in one chunk from here, and at least one
        base = ends[first] - sizes[first]
        last = max(first + 1, int(np.searchsorted(ends, base + _CHUNK_WEIGHTS, side="right")))
        starts = ends[first:last] - sizes[first:last] - base
        # trial count n and activation count t of every weight in the chunk
        nc = np.repeat(n[first:last], sizes[first:last])
        t = np.arange(nc.size) + np.repeat(lo[first:last] - starts, sizes[first:last])
        # rate_params' eps1 amplifies a weight's rounding about 1.2e4-fold, so
        # log_fact must match Cephes' gammaln bit for bit; other arithmetic here
        # (a pmf recurrence, math.lgamma) moves eps1 ~1e-7
        w = np.exp(log_fact[nc] - log_fact[t] - log_fact[nc - t]
                   + (t + 1) * log_q + (nc - t) * log_1mq)
        vals = np.asarray(x(t + 1), dtype=float)
        if out is None:
            out = np.empty((ks.size,) + vals.shape[1:])
        out[first:last] = np.add.reduceat((vals.T * w).T, starts, axis=0)
        first = last
    return out


def step_moments(schedule: StepSizeSchedule, ks, q_a: float) -> dict[str, np.ndarray]:
    """The six averaged step-size moments at every slot in ``ks``, keyed by name.

    bg = E[beta~ gamma~], b = E[beta~], g = E[gamma~], b2 = E[beta~^2],
    g2 = E[gamma~^2] and bg2 = E[beta~ gamma~^2], from one call of
    :func:`binomial_averages`.
    """
    def columns(ell):
        beta, gamma = schedule.beta(ell), schedule.gamma(ell)
        bg = beta * gamma
        return np.array([bg, beta, gamma, beta * beta, gamma * gamma, bg * gamma]).T

    table = binomial_averages(columns, ks, q_a)
    return {name: table[:, j] for j, name in enumerate(("bg", "b", "g", "b2", "g2", "bg2"))}


def mc_step_average(x, k: int, q_a: float, n_draws: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo oracle for the averaged-step operator: mean of delta * x(ell).

    Each trial is one binomial node-slot: its activity and its sampled
    index, drawn by the learner's samplers.  Returns (mean, standard error).
    Used to cross-check the closed-form averages.
    """
    live = sample_activity(NetworkConfig(1, q_a, 1.0), rng, n_draws)
    vals = np.zeros(n_draws)
    vals[live.batch_idx] = x(sample_step_index(k, q_a, live, "sampled", rng))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_draws))


@dataclass(frozen=True)
class Lemma4Report:
    """Partial sums of a sequence and of its slot-averaged transform."""

    horizon: int
    sum_raw: float
    sum_averaged: float

    @property
    def gap(self) -> float:
        return self.sum_raw - self.sum_averaged

    @property
    def rel_gap(self) -> float:
        if self.sum_raw == 0.0:
            return 0.0
        return abs(self.gap) / abs(self.sum_raw)


def verify_lemma4(x, q_a: float, horizon: int) -> Lemma4Report:
    """Compare sum_k x_k against sum_k of the averaged transform up to ``horizon``.

    The two infinite sums agree exactly; at a finite horizon the averaged sum
    lags by the probability mass not yet transported to high indices.
    """
    ks = np.arange(1, horizon + 1)
    raw_terms = np.asarray(x(ks), dtype=float)
    avg_terms = binomial_averages(x, ks, q_a)
    # identical accumulation on both sides, so the degenerate q_a = 1 case
    # (term-by-term equality) yields a gap of exactly zero
    return Lemma4Report(horizon=horizon, sum_raw=float(np.sum(raw_terms)),
                        sum_averaged=float(np.sum(avg_terms)))


def chernoff_step_bound(z, k: int, q_a: float, xi: float) -> float:
    """Closed-form upper bound on E[delta * z_ell] for a decreasing sequence z.

    Splits the binomial index law at (1 - xi) times its mean: the lower tail
    carries weight at most exp(-xi^2 q_a (k-1) / 2)` and is charged z(1), the
    rest is charged the value at the split point.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie in (0, 1), got {xi}")
    p = math.exp(-0.5 * xi * xi * q_a * (k - 1))
    k_split = int(math.floor((1.0 - xi) * q_a * (k - 1))) + 2
    return q_a * (float(z(1)) * p + float(z(k_split)))


@dataclass(frozen=True)
class BiasDiagnostics:
    """Per-slot bias-envelope diagnostics on a grid."""

    k: np.ndarray
    w_bound: np.ndarray  # moment-form bound on the step-weight ratio w_{i,k}
    omega: np.ndarray  # concentration envelope dominating w_bound
    b_bound: np.ndarray  # gradient-estimate bias bound


def _psi(averages: dict[str, np.ndarray], n_nodes: int) -> np.ndarray:
    return (
        2.0 * n_nodes * averages["bg"] * averages["g"]
        + averages["bg2"]
        + (n_nodes - 1) ** 2 * averages["b"] * averages["g2"]
    )


def _rate_sequences(schedule: StepSizeSchedule, netcfg: NetworkConfig, ks):
    """theta, upsilon and psi of the rate recurrence at the slots ``ks``."""
    averages = step_moments(schedule, ks, netcfg.q_activity)
    return averages["bg"] / netcfg.q_activity, averages["b2"], _psi(averages, netcfg.n_nodes)


def bias_diagnostics(
    schedule: StepSizeSchedule,
    netcfg: NetworkConfig,
    pert: PerturbationSpec,
    alpha_G: float,
    k_grid,
    xi: float = 0.5,
) -> BiasDiagnostics:
    """Bias bound and its concentration envelope on a slot grid.

    ``w_bound`` is q_a * psi_k / bg_k with psi the three-moment combination;
    ``omega`` replaces each moment with its split-point bound and the
    denominator with its mean-index lower bound, and therefore dominates
    ``w_bound`` at every slot.  ``b_bound`` scales by the curvature and
    perturbation constants.
    """
    if alpha_G <= 0:
        raise ValueError("alpha_G must be positive")
    ks = np.asarray(k_grid, dtype=int)
    q_a = netcfg.q_activity
    lam = netcfg.expected_active
    n = netcfg.n_nodes
    averages = step_moments(schedule, ks, q_a)
    psi = _psi(averages, n)
    w_bound = q_a * psi / averages["bg"]

    p = np.exp(-0.5 * xi * xi * q_a * (ks - 1))
    k_split = np.floor((1.0 - xi) * q_a * (ks - 1)).astype(int) + 2
    k_mean = 1.0 + q_a * (ks - 1)
    b1, g1 = schedule.beta(1), schedule.gamma(1)
    denom = schedule.beta(k_mean) * schedule.gamma(k_mean)
    omega = (
        (3.0 * lam**2 + q_a) * b1 * g1**2 * p / denom
        + (lam**2 + q_a) * schedule.beta(k_split) * schedule.gamma(k_split) ** 2 / denom
        + 2.0 * lam * q_a * (g1 * p + schedule.gamma(k_split))
    )
    scale = alpha_G * pert.alpha_phi**3 / (2.0 * pert.sigma_phi_sq)
    return BiasDiagnostics(k=ks, w_bound=w_bound, omega=omega, b_bound=scale * w_bound)


def compute_K0(
    schedule: StepSizeSchedule,
    pert: PerturbationSpec,
    bounds: ActionBounds,
    a_star,
) -> int:
    """First index from which the perturbation radius fits inside the bounds slack.

    Minimal ell with alpha_phi * gamma_ell <= max_i max(|upper_i - a*_i|,
    |lower_i - a*_i|); exists for any strictly interior optimum.
    """
    a_star = np.asarray(a_star, dtype=float)
    if np.any(a_star <= bounds.lower) or np.any(a_star >= bounds.upper):
        raise ValueError("the optimum must be strictly interior to the bounds")
    thr = float(np.max(np.maximum(np.abs(bounds.upper - a_star),
                                  np.abs(bounds.lower - a_star))))
    if pert.alpha_phi * schedule.gamma(1) <= thr:
        return 1
    k0 = math.ceil((pert.alpha_phi * schedule.gamma0 / thr) ** (1.0 / schedule.c2))
    while k0 > 1 and pert.alpha_phi * schedule.gamma(k0 - 1) <= thr:
        k0 -= 1
    while pert.alpha_phi * schedule.gamma(k0) > thr:
        k0 += 1
    return int(k0)


@dataclass(frozen=True)
class ModelConstants:
    """Model-level constants feeding the rate-bound recurrence."""

    alpha_F: float
    alpha_G: float
    lipschitz: float
    sigma_eta: float
    sigma_a_sq: float
    lipschitz_estimated: bool = False


@dataclass
class RateBoundParams:
    """Everything needed to evaluate the divergence rate bounds on a slot grid."""

    A: float
    B: float
    C: float
    C_proj: float  # projection-mismatch constant folded into C
    k: np.ndarray
    theta: np.ndarray
    upsilon: np.ndarray
    psi: np.ndarray
    eps1: float
    eps2: float
    eps3: float
    eps4: float
    eps2_tail: float | None
    eps4_tail: float | None
    vartheta: float | None
    varrho: float | None
    K0: int
    K1: int
    K2: int | None
    d0: float
    q_a: float
    q_r: float
    c1: float
    c2: float
    envelope_a_valid: bool
    envelope_b_valid: bool
    status: str

    def at(self, ks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """theta, upsilon, psi restricted to the slots ``ks`` (must lie on the grid)."""
        ks = np.asarray(ks, dtype=int)
        idx = ks - int(self.k[0])
        if np.any(idx < 0) or np.any(idx >= self.k.size):
            raise ValueError("requested slots outside the computed grid")
        return self.theta[idx], self.upsilon[idx], self.psi[idx]


def lemma7_bounds(schedule: StepSizeSchedule, netcfg: NetworkConfig,
                  xi: float, xi_prime: float) -> dict[str, callable]:
    """Closed-form asymptotic dominators of the four rate-parameter ratios."""
    q_a = netcfg.q_activity
    lam = netcfg.expected_active
    b0, g0, c1, c2 = schedule.beta0, schedule.gamma0, schedule.c1, schedule.c2
    one = 1.0 + xi_prime
    shrink = 1.0 - xi

    def upsilon_over_theta(k):
        return one * shrink ** (-2 * c1) * q_a * b0 / g0 * (q_a * np.asarray(k, float)) ** (-c1 + c2)

    def psi2_over_theta2(k):
        return (one**2 / shrink ** (2 * c1 + 4 * c2)) * (lam + 1.0) ** 4 * g0**2 \
            * (q_a * np.asarray(k, float)) ** (-2 * c2)

    def psi2_over_theta_upsilon(k):
        base = q_a * (np.asarray(k, float) - 1.0) + 1.0
        return (one**2 * (lam + 1.0) ** 4 * g0**3) / (shrink ** (2 * c1 + 4 * c2) * q_a * b0) \
            * base ** (c1 - 3 * c2)

    def theta_upsilon_over_psi2(k):
        base = q_a * (np.asarray(k, float) - 1.0) + 1.0
        return (one**2 * q_a * b0) / (shrink ** (3 * c1 + c2) * lam**4 * g0**3) \
            * base ** (-c1 + 3 * c2)

    return {
        "upsilon_over_theta": upsilon_over_theta,
        "psi2_over_theta2": psi2_over_theta2,
        "psi2_over_theta_upsilon": psi2_over_theta_upsilon,
        "theta_upsilon_over_psi2": theta_upsilon_over_psi2,
    }


def rate_params(
    schedule: StepSizeSchedule,
    netcfg: NetworkConfig,
    consts: ModelConstants,
    pert: PerturbationSpec,
    k_max: int,
    *,
    bounds: ActionBounds,
    a_star,
    d0: float | None = None,
    xi: float = 0.5,
    xi_prime: float = 0.5,
) -> RateBoundParams:
    """Compute the rate-recurrence constants and grid sequences up to ``k_max``.

    The epsilon maxima are exact over the grid [K0, k_max]; the tail beyond
    k_max is certified with the closed-form ratio dominators where their
    exponent is nonincreasing; otherwise ``eps2_tail`` / ``eps4_tail`` stay
    None and only the grid maxima hold.
    """
    if k_max < MIN_RATE_K:
        raise ValueError("k_max too small")
    q_a = netcfg.q_activity
    lam = netcfg.expected_active

    A = 2.0 * pert.sigma_phi_sq * consts.alpha_F
    B = consts.alpha_G * pert.alpha_phi**3
    K0 = compute_K0(schedule, pert, bounds, a_star)

    ks = np.arange(1, k_max + 1)
    theta, upsilon, psi = _rate_sequences(schedule, netcfg, ks)

    # projection-mismatch constant: impossible when K0 <= 1, else searched with
    # the exponential activity-count bound against the squared-step average
    if K0 <= 1:
        C_proj, K1 = 0.0, K0
    else:
        C_proj = 1.0
        K1 = None
        for k in range(max(K0, 2), k_max + 1):
            lhs = q_a * pert.alpha_phi**2 * schedule.gamma0**2 * math.exp(
                -0.5 * q_a * (k - 1) + K0 - 1)
            if lhs <= C_proj * upsilon[k - 2]:
                K1 = k
                break
        if K1 is None:
            raise ConfigError("projection-mismatch bound never engaged within k_max")

    noise_moment = (1.0 + lam / netcfg.q_reception) * consts.sigma_eta**2
    util_moment = (
        1.0
        + (2.0 / netcfg.q_reception + 5.0) * lam
        + (1.0 / netcfg.q_reception + 5.0) * lam**2
        + lam**3
    ) * consts.lipschitz**2 * consts.sigma_a_sq
    C = C_proj + pert.sigma_phi_sq * (noise_moment + util_moment)

    K2 = None
    for k in range(K1, k_max + 1):
        if theta[k - 1] < 1.0 / A:
            K2 = k
            break

    lo = K0 - 1  # grid offset of K0
    ratio_tu = theta * upsilon / psi**2
    ratio_ut = psi**2 / (theta * upsilon)
    chi = 1.0 / theta[:-1] - psi[1:] ** 2 * theta[:-1] / (psi[:-1] ** 2 * theta[1:] ** 2)
    varpi = 1.0 / theta[:-1] - upsilon[1:] / (upsilon[:-1] * theta[1:])

    eps1 = float(np.max(chi[lo:]))
    eps3 = float(np.max(varpi[lo:]))
    eps2 = float(np.max(ratio_tu[lo:]))
    eps4 = float(np.max(ratio_ut[lo:]))

    tail = lemma7_bounds(schedule, netcfg, xi, xi_prime)
    eps2_tail = None
    if schedule.c1 >= 3 * schedule.c2:
        cand = float(tail["theta_upsilon_over_psi2"](k_max))
        if cand >= ratio_tu[-1]:
            eps2_tail = cand
    eps4_tail = None
    if schedule.c1 <= 3 * schedule.c2:
        cand = float(tail["psi2_over_theta_upsilon"](k_max))
        if cand >= ratio_ut[-1]:
            eps4_tail = cand

    if d0 is None:
        width = np.asarray(bounds.upper - bounds.lower)
        d0 = float(np.mean(width**2))

    # The grid maxima are exact for finite-horizon statements; asymptotically
    # eps2 stays finite iff c1 >= 3*c2 and eps4 iff c1 <= 3*c2.
    env_a_valid = eps1 < A and schedule.c1 >= 3 * schedule.c2
    env_b_valid = eps3 < A and schedule.c1 <= 3 * schedule.c2

    vartheta = None
    if env_a_valid:
        eps2_eff = max(eps2, eps2_tail) if eps2_tail is not None else eps2
        vartheta = max(
            theta[K0 - 1] * math.sqrt(d0) / psi[K0 - 1],
            (B + math.sqrt(B * B + 4.0 * C * eps2_eff * (A - eps1))) / (2.0 * (A - eps1)),
        )
    varrho = None
    if env_b_valid:
        eps4_eff = max(eps4, eps4_tail) if eps4_tail is not None else eps4
        varrho = max(
            math.sqrt(d0 * theta[K0 - 1] / upsilon[K0 - 1]),
            (B * math.sqrt(eps4_eff) + math.sqrt(B * B * eps4_eff + 4.0 * C * (A - eps3)))
            / (2.0 * (A - eps3)),
        )

    if env_a_valid or env_b_valid:
        status = "applicable"
    else:
        reasons = []
        if schedule.c1 >= 3 * schedule.c2 and eps1 >= A:
            reasons.append(f"eps1 = {eps1:.3g} >= A = {A:.3g}")
        if schedule.c1 <= 3 * schedule.c2 and eps3 >= A:
            reasons.append(f"eps3 = {eps3:.3g} >= A = {A:.3g}")
        status = "inapplicable: " + "; ".join(reasons) + \
            " (a larger beta0 * gamma0 shrinks the transient ratios)"

    return RateBoundParams(
        A=A, B=B, C=C, C_proj=C_proj,
        k=ks, theta=theta, upsilon=upsilon, psi=psi,
        eps1=eps1, eps2=eps2, eps3=eps3, eps4=eps4,
        eps2_tail=eps2_tail, eps4_tail=eps4_tail,
        vartheta=vartheta, varrho=varrho,
        K0=K0, K1=K1, K2=K2, d0=d0,
        q_a=q_a, q_r=netcfg.q_reception,
        c1=schedule.c1, c2=schedule.c2,
        envelope_a_valid=env_a_valid, envelope_b_valid=env_b_valid,
        status=status,
    )


def asymptotic_exponent(c1: float, c2: float) -> float:
    """Decay order of the divergence bound in (q_a * k): min(2*c2, c1 - c2).

    The product-ratio branch dominates when c1 > 3*c2 and the squared-step
    branch when c1 < 3*c2; the two meet (and the order peaks at 0.5) exactly
    at c1 = 0.75, c2 = 0.25.
    """
    return min(2.0 * c2, c1 - c2)


@dataclass(frozen=True)
class EnvelopeTable:
    """Per-slot upper bounds on the expected divergence."""

    k: np.ndarray
    envelope_a: np.ndarray  # vartheta^2 psi^2 / theta^2 (nan where invalid)
    envelope_b: np.ndarray  # varrho^2 upsilon / theta (nan where invalid)
    envelope: np.ndarray  # pointwise tightest valid bound (nan where none)
    asymptotic: np.ndarray  # fitted Xi * q_r^-1 (q_a k)^-min(2c2, c1-c2)
    status: list[str]
    xi_fit: float | None


def log_grid(k_max: int, n: int) -> np.ndarray:
    """The distinct integer parts of ``n`` log-spaced points from 1 to ``k_max``, ascending."""
    grid = np.geomspace(1, k_max, n).astype(int)  # already sorted
    return grid[np.diff(grid, prepend=0) > 0]


def rate_envelope(params: RateBoundParams, k_grid) -> EnvelopeTable:
    """Evaluate the two divergence envelopes and the fitted asymptotic display.

    The asymptotic scale factor is presentational: it is least-squares fitted
    (in log space, at the fixed theoretical exponent) to the tighter envelope
    beyond K2.
    """
    ks = np.asarray(k_grid, dtype=int)
    theta, upsilon, psi = params.at(ks)
    env_a = np.full(ks.size, np.nan)
    env_b = np.full(ks.size, np.nan)
    valid = ks >= params.K0
    if params.envelope_a_valid and params.vartheta is not None:
        env_a[valid] = params.vartheta**2 * psi[valid] ** 2 / theta[valid] ** 2
    if params.envelope_b_valid and params.varrho is not None:
        env_b[valid] = params.varrho**2 * upsilon[valid] / theta[valid]
    stacked = np.stack([env_a, env_b])
    filled = np.where(np.isnan(stacked), np.inf, stacked)
    envelope = filled.min(axis=0)
    envelope[~np.isfinite(envelope)] = np.nan

    expo = asymptotic_exponent(params.c1, params.c2)
    xi_fit = None
    asymptotic = np.full(ks.size, np.nan)
    if params.K2 is not None:
        fit_mask = (ks >= params.K2) & np.isfinite(envelope)
        if np.any(fit_mask):
            logxi = np.mean(
                np.log(envelope[fit_mask])
                + math.log(params.q_r)
                + expo * np.log(params.q_a * ks[fit_mask])
            )
            xi_fit = float(np.exp(logxi))
            asymptotic = xi_fit / params.q_r * (params.q_a * ks) ** (-expo)
    status = [
        "ok" if np.isfinite(envelope[j]) else "no envelope"
        for j in range(ks.size)
    ]
    return EnvelopeTable(
        k=ks, envelope_a=env_a, envelope_b=env_b, envelope=envelope,
        asymptotic=asymptotic, status=status, xi_fit=xi_fit,
    )


def recurrence_envelope(params: RateBoundParams, d_init: float, k_start: int,
                        k_end: int) -> np.ndarray:
    """Iterate the one-slot divergence bound as an equality from ``k_start``.

    Returns the worst-case deterministic envelope on slots k_start..k_end.
    Where the linear coefficient goes negative the exact supremum of the
    right-hand side over [0, D] is used, so domination is preserved.
    """
    if d_init < 0:
        raise ValueError("d_init must be >= 0")
    ks = np.arange(k_start, k_end + 1)
    theta, upsilon, psi = params.at(ks)
    out = np.empty(ks.size)
    out[0] = d_init
    d = d_init
    for j in range(ks.size - 1):
        base = 1.0 - params.A * theta[j]
        drive = params.B * psi[j]
        inject = params.C * upsilon[j]
        if base >= 0.0:
            d = base * d + drive * math.sqrt(d) + inject
        else:
            root = min(math.sqrt(d), drive / (-2.0 * base))
            d = base * root * root + drive * root + inject
        d = max(d, 0.0)
        out[j + 1] = d
    return out


@dataclass(frozen=True)
class RatioBoundCheck:
    """One rate-ratio sequence against its closed-form dominator."""

    name: str
    k: np.ndarray
    ratio: np.ndarray
    bound: np.ndarray
    k_prime: int | None  # first grid slot from which the bound holds onward

    @property
    def ok(self) -> bool:
        return self.k_prime is not None


def verify_asymptotic_bounds(
    schedule: StepSizeSchedule,
    netcfg: NetworkConfig,
    xi: float,
    xi_prime: float,
    k_grid,
) -> list[RatioBoundCheck]:
    """Evaluate the four rate ratios on a grid against their dominators."""
    if not 0.0 < xi < 1.0:
        raise ValueError("xi must lie in (0, 1)")
    if xi_prime <= 0:
        raise ValueError("xi_prime must be positive")
    ks = np.asarray(k_grid, dtype=int)
    theta, upsilon, psi = _rate_sequences(schedule, netcfg, ks)
    ratios = {
        "upsilon_over_theta": upsilon / theta,
        "psi2_over_theta2": psi**2 / theta**2,
        "psi2_over_theta_upsilon": psi**2 / (theta * upsilon),
        "theta_upsilon_over_psi2": theta * upsilon / psi**2,
    }
    bounds_fn = lemma7_bounds(schedule, netcfg, xi, xi_prime)
    checks = []
    for name, ratio in ratios.items():
        bound = np.asarray(bounds_fn[name](ks), dtype=float)
        holds = ratio <= bound
        k_prime = None
        for j in range(ks.size):
            if np.all(holds[j:]):
                k_prime = int(ks[j])
                break
        checks.append(RatioBoundCheck(name=name, k=ks, ratio=ratio, bound=bound,
                                      k_prime=k_prime))
    return checks

"""Self-check battery for the analysis machinery on a given configuration.

Each check pairs a closed-form quantity with an independent oracle (direct
summation, Monte-Carlo simulation, or a dominating bound) and reports a
one-line verdict; the CLI `verify` subcommand prints these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    XI,
    XI_PRIME,
    bias_diagnostics,
    chernoff_step_bound,
    log_grid,
    mc_step_average,
    step_moments,
    verify_asymptotic_bounds,
    verify_lemma4,
)
from .core import RngStream
from .harness import ExperimentConfig, build_model, model_constants

SEED = 20240  # of the suite's Monte-Carlo stream


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def verification_suite(cfg: ExperimentConfig, k_max: int = 20_000) -> list[CheckResult]:
    """Run every analysis self-check for the config's schedule and network."""
    sched = cfg.schedule
    net = cfg.network
    q_a = net.q_activity
    rng = RngStream(SEED, 0).generator()
    results = []

    # 1. partial sums of the averaged transform track the raw sums
    horizon = 3000
    rep = verify_lemma4(lambda l: sched.beta(l) ** 2, q_a, horizon)
    limit = 0.0 if q_a == 1.0 else 0.05
    ok = rep.rel_gap <= limit if q_a == 1.0 else rep.rel_gap < limit
    results.append(CheckResult(
        "sum-identity", ok,
        f"relative gap {rep.rel_gap:.2%} over K={horizon} (limit {limit:.0%})"))

    # 2. split-point bound dominates the simulated step average
    ok = True
    details = []
    for k in (100, 1000, 10000):
        bound = chernoff_step_bound(sched.gamma, k, q_a, xi=XI)
        est, err = mc_step_average(sched.gamma, k, q_a, 200_000, rng)
        ok &= est <= bound + 3 * err
        details.append(f"k={k}: {est:.4g} <= {bound:.4g}")
    results.append(CheckResult("step-bound", ok, "; ".join(details)))

    # 3. rate-ratio dominators engage on the grid
    grid = log_grid(k_max, 60)
    checks = verify_asymptotic_bounds(sched, net, xi=XI, xi_prime=XI_PRIME, k_grid=grid)
    ok = all(c.ok for c in checks)
    detail = ", ".join(
        f"{c.name}: K'={c.k_prime}" if c.ok else f"{c.name}: no K' on grid"
        for c in checks)
    results.append(CheckResult("ratio-bounds", ok, detail))

    # 4. concentration envelope dominates the moment-form bias bound, which
    # the model's curvature alpha_G scales into b_bound
    consts = model_constants(cfg, build_model(cfg))
    source = "sampled max |global_hessian|" if consts.sampled else "closed form"
    diag = bias_diagnostics(sched, net, cfg.perturbation, alpha_G=consts.alpha_G,
                            k_grid=grid)
    dominated = bool(np.all(diag.omega >= diag.w_bound))
    shrinking = diag.omega[-1] < diag.omega[0] and diag.w_bound[-1] < diag.w_bound[0]
    results.append(CheckResult(
        "bias-envelope", dominated and shrinking,
        f"omega >= w_bound on grid: {dominated}; both shrinking: {shrinking}; "
        f"alpha_G = {consts.alpha_G:.6g} ({source}), b_bound(k={int(grid[-1])}) = "
        f"{diag.b_bound[-1]:.4g}"))

    # 5. closed-form step averages match simulation
    ks = (10, 100, 1000)
    bgs = step_moments(sched, ks, q_a)["bg"].tolist()
    ok = True
    details = []
    for k, bg in zip(ks, bgs):
        est, err = mc_step_average(lambda l: sched.beta(l) * sched.gamma(l),
                                   k, q_a, 400_000, rng)
        ok &= abs(est - bg) <= 3 * max(err, 1e-15)
        details.append(f"k={k}: |{est:.5g} - {bg:.5g}| <= 3se")
    results.append(CheckResult("average-vs-simulation", ok, "; ".join(details)))

    # 6. mean-index evaluation lower-bounds the averaged product
    ok = True
    for k, bg in zip(ks, bgs):
        kbar = 1.0 + q_a * (k - 1)
        ok &= bg >= q_a * sched.beta(kbar) * sched.gamma(kbar) * (1 - 1e-12)
    results.append(CheckResult("jensen-lower-bound", ok,
                               "bg >= q_a * beta(kbar') * gamma(kbar') at k in {10,100,1000}"))
    return results

"""Inside the analysis engine: averaged step sizes and bias envelopes.

A node that was active n times by slot k sits at schedule position n+1, and n
is binomial.  Averaging a step sequence over that random position is the
basic operator behind every bound in the toolkit.  This demo cross-checks the
closed forms against brute-force simulation, shows the split-point
(concentration) bound, and evaluates the bias envelope that certifies the
gradient estimates become asymptotically exact.

Run:  python3 demos/step_size_averages.py   (a few seconds)
"""

import numpy as np

from dosp import NetworkConfig, PerturbationSpec, StepSizeSchedule
from dosp.analysis import (
    bias_diagnostics,
    chernoff_step_bound,
    mc_step_average,
    step_moments,
)
from dosp.core import RngStream


def main():
    sched = StepSizeSchedule(beta0=0.025, gamma0=10.0, c1=0.75, c2=0.25)
    q_a = 0.05
    rng = RngStream(3, 0).generator()

    print("closed-form averaged product E[beta~ gamma~] vs 1e6-draw simulation:")
    print(f"{'k':>6} {'closed form':>14} {'simulated':>14} {'sigmas off':>11}")
    ks = (10, 100, 1000, 10_000)
    for k, closed in zip(ks, step_moments(sched, ks, q_a)["bg"]):
        est, err = mc_step_average(lambda l: sched.beta(l) * sched.gamma(l),
                                   k, q_a, 1_000_000, rng)
        print(f"{k:>6} {closed:>14.6g} {est:>14.6g} {abs(est - closed) / err:>11.2f}")

    print("\nsplit-point bound on E[delta * gamma_ell] (always above, same order):")
    for k in (100, 1000, 10_000):
        est, _ = mc_step_average(sched.gamma, k, q_a, 300_000, rng)
        bound = chernoff_step_bound(sched.gamma, k, q_a, xi=0.5)
        print(f"  k={k:>6}: simulated {est:.4f} <= bound {bound:.4f}")

    net = NetworkConfig(50, q_a, 1.0)
    grid = np.array([1, 10, 100, 1000, 10_000, 100_000])
    diag = bias_diagnostics(sched, net, PerturbationSpec.rademacher(),
                            alpha_G=2.0, k_grid=grid)
    print("\nbias envelope on a 50-node network (vanishing => consistent updates):")
    print(f"{'k':>7} {'moment bound':>13} {'concentration':>14}")
    for j, k in enumerate(grid):
        print(f"{k:>7} {diag.w_bound[j]:>13.4g} {diag.omega[j]:>14.4g}")
    print("the concentration column dominates the moment bound at every slot,")
    print(f"and both fall to {diag.w_bound[-1] / diag.w_bound[0]:.1%} of their "
          "starting value by k = 1e5")


if __name__ == "__main__":
    main()

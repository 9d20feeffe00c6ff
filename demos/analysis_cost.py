"""What the analysis layer costs: `step_moments` and `rate_params` by k_max.

Both evaluate the six binomially averaged step moments at every slot from 1
to k_max, so their cost grows with k_max (about as k_max^1.5, the window
width times the slot count).  Each row is the minimum of ``--runs`` timed
calls on one quadratic config (the shipped divergence-rate one by default,
q_a = 0.1); VmHWM is the process's peak resident set after the row.

Run:  python3 demos/analysis_cost.py [--runs 3] [--kmax 6000 20000 50000 100000]
      (about a minute at the defaults on a 2-vCPU VM)
"""

import argparse
import os
import resource
import time

from dosp.analysis import rate_params, step_moments
from dosp.harness import ExperimentConfig, build_model, model_constants

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                      "quadratic_divergence_rate.yaml")


def peak_rss_mb() -> float:
    """VmHWM from /proc/self/status where it exists, else ru_maxrss (Linux KiB)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def best_of(runs: int, call) -> float:
    """Minimum wall time of ``runs`` calls, in seconds."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=CONFIG, help="a quadratic-model config")
    parser.add_argument("--runs", type=int, default=3, help="timed calls per cell")
    parser.add_argument("--kmax", type=int, nargs="+", default=[6000, 20_000, 50_000, 100_000])
    args = parser.parse_args()

    cfg = ExperimentConfig.from_yaml(args.config)
    model = build_model(cfg)
    a_star = model.optimum_hint
    consts = model_constants(cfg, model, a_star)
    q_a = cfg.network.q_activity
    print(f"q_a = {q_a}, minimum of {args.runs} runs")
    print(f"{'k_max':>8} {'step_moments s':>15} {'rate_params s':>14} {'VmHWM MB':>9}")
    for k_max in args.kmax:
        ks = range(1, k_max + 1)
        moments = best_of(args.runs, lambda: step_moments(cfg.schedule, ks, q_a))
        params = best_of(args.runs, lambda: rate_params(
            cfg.schedule, cfg.network, consts, cfg.perturbation, k_max,
            bounds=cfg.bounds, a_star=a_star))
        print(f"{k_max:>8} {moments:>15.3f} {params:>14.3f} {peak_rss_mb():>9.1f}")


if __name__ == "__main__":
    main()

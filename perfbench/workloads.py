"""The four benchmark workloads and the configs they generate from a seed.

A workload's seed only picks the program's RNG seed and, on the quadratic
oracle, the order of the node targets.  Everything the rate analysis depends
on (bounds, schedule, the set of targets) is fixed, so the analysis
constants that the divergence-rate gate pins hold for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

DIVERGENCE_SLOTS = 6_000
POWER_REPRO_SLOTS = 3_000
WIDE_SLOTS = 3_000
SINGLE_SLOTS = 10_000

POWER_MODEL = {
    "kind": "power",
    "omega1": 20.0,
    "omega2": 1.0,
    "channel": {"var_direct": 1.0, "var_cross": 0.1, "noise_floor": 0.2,
                "fading": "real_gaussian"},
}
REFERENCE_SCHEDULE = {"beta0": 0.025, "gamma0": 10.0, "c1": 0.75, "c2": 0.25}


def _network(n_nodes, q_a, q_r, activity="binomial"):
    return {"n_nodes": n_nodes, "q_activity": q_a, "q_reception": q_r,
            "activity": activity, "noise": "gaussian"}


def _run(horizon, replications, seed, stride, f_mc, sigma_eta, divergence,
         algorithm="dosp_s"):
    return {"horizon": horizon, "replications": replications, "seed": seed,
            "metrics_stride": stride, "f_mc_samples": f_mc, "sigma_eta": sigma_eta,
            "algorithm": algorithm, "baseline_step": "beta", "index_mode": "sampled",
            "divergence": divergence}


def _targets(n_nodes, rng):
    targets = [-1.5 + 3.0 * i / (n_nodes - 1) for i in range(n_nodes)]
    rng.shuffle(targets)
    return targets


def _quadratic(n_nodes, q_a, q_r, activity, replications, beta0, horizon, rng):
    return {
        "model": {"kind": "quadratic", "targets": _targets(n_nodes, rng),
                  "gain_low": 0.5, "gain_high": 1.5},
        "network": _network(n_nodes, q_a, q_r, activity),
        "schedule": {"beta0": beta0, "gamma0": 2.0, "c1": 0.75, "c2": 0.25},
        "perturbation": {"kind": "rademacher", "scale": 1.0},
        "bounds": {"lower": -4.0, "upper": 4.0},
        "run": _run(horizon, replications, rng.randrange(2**31), 100, 0, 1.0, "auto"),
    }


def _power(n_nodes, q_a, replications, horizon, stride, f_mc, seed, algorithm="dosp_s"):
    return {
        "model": dict(POWER_MODEL),
        "network": _network(n_nodes, q_a, 1.0),
        "schedule": dict(REFERENCE_SCHEDULE),
        "perturbation": {"kind": "rademacher", "scale": 1.0},
        "bounds": {"lower": -12.0, "upper": 12.0},
        "run": _run(horizon, replications, seed, stride, f_mc, 0.0, "skip", algorithm),
    }


def divergence_rate(rng):
    return {"config": _quadratic(20, 0.1, 0.1, "binomial", 50, 0.5, DIVERGENCE_SLOTS, rng)}


def power_repro(rng):
    seed = rng.randrange(2**31)
    return {
        "learner": _power(50, 0.05, 20, POWER_REPRO_SLOTS, 1000, 2000, seed),
        "baseline": _power(50, 0.05, 20, POWER_REPRO_SLOTS, 1000, 2000, seed,
                           algorithm="ideal_gradient"),
    }


def wide_poisson(rng):
    return {"config": _quadratic(1000, 0.01, 1.0, "poisson", 10, 0.05, WIDE_SLOTS, rng)}


def power_single(rng):
    # configs/power_actions_single_run.yaml with the benchmark's horizon and seed
    return {"config": _power(50, 0.05, 1, SINGLE_SLOTS, 500, 0, rng.randrange(2**31))}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: int  # slots one run advances, summed over its configs
    make: Callable

    def configs(self, seed: int) -> dict[str, dict]:
        """Config dicts (``ExperimentConfig.to_dict`` layout) keyed by file stem."""
        return self.make(random.Random(f"{self.name}:{seed}"))


WORKLOADS = {w.name: w for w in (
    Workload("divergence-rate",
             "rate experiment at q_r=0.1: the dense reception draw plus the analysis layer",
             DIVERGENCE_SLOTS, divergence_rate),
    Workload("power-repro",
             "power model with Monte-Carlo F_hat and the exact-gradient baseline; no reception",
             2 * POWER_REPRO_SLOTS, power_repro),
    Workload("wide-poisson",
             "N=1000 Poisson activity, 1% of entries live: per-entry stages dominate",
             WIDE_SLOTS, wide_poisson),
    Workload("power-single",
             "B=1 CLI run with traces: fixed Python cost per slot and trace emission",
             SINGLE_SLOTS, power_single),
)}

"""The experiment configs the tests share: the quadratic oracle setup and
the wide-network power setup.  A plain module, not ``conftest``, so that it
imports by its own name when another directory's ``conftest.py`` is collected
in the same session."""

import numpy as np

from dosp import (
    ActionBounds,
    NetworkConfig,
    PerturbationSpec,
    StepSizeSchedule,
)
from dosp.harness import ExperimentConfig


def reference_schedule() -> StepSizeSchedule:
    """The schedule used by the wide-network power experiments."""
    return StepSizeSchedule(0.025, 10.0, 0.75, 0.25)


def quadratic_config(
    n_nodes=20,
    q_activity=0.1,
    q_reception=1.0,
    beta0=0.5,
    gamma0=2.0,
    bound=4.0,
    horizon=50_000,
    replications=50,
    seed=2024,
    sigma_eta=1.0,
    **run_kwargs,
) -> ExperimentConfig:
    """Strongly-concave oracle setup used by the quantitative rate checks."""
    targets = [float(t) for t in np.linspace(-1.5, 1.5, n_nodes)]
    return ExperimentConfig(
        network=NetworkConfig(n_nodes, q_activity, q_reception),
        schedule=StepSizeSchedule(beta0, gamma0, 0.75, 0.25),
        perturbation=PerturbationSpec.rademacher(),
        bounds=ActionBounds.uniform(n_nodes, -bound, bound),
        model_kind="quadratic",
        model_params={"targets": targets},
        horizon=horizon,
        replications=replications,
        seed=seed,
        metrics_stride=run_kwargs.pop("metrics_stride", 100),
        f_mc_samples=run_kwargs.pop("f_mc_samples", 0),
        sigma_eta=sigma_eta,
        **run_kwargs,
    )


def power_config(
    n_nodes=50,
    q_activity=0.05,
    q_reception=1.0,
    bound=12.0,
    horizon=50_000,
    replications=20,
    seed=31,
    **run_kwargs,
) -> ExperimentConfig:
    """Interference power-control setup with the reference schedule."""
    return ExperimentConfig(
        network=NetworkConfig(n_nodes, q_activity, q_reception),
        schedule=reference_schedule(),
        perturbation=PerturbationSpec.rademacher(),
        bounds=ActionBounds.uniform(n_nodes, -bound, bound),
        model_kind="power",
        model_params={"omega1": 20.0, "omega2": 1.0},
        horizon=horizon,
        replications=replications,
        seed=seed,
        metrics_stride=run_kwargs.pop("metrics_stride", 1000),
        f_mc_samples=run_kwargs.pop("f_mc_samples", 0),
        sigma_eta=run_kwargs.pop("sigma_eta", 0.0),
        **run_kwargs,
    )

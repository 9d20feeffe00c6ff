"""Distributed derivative-free stochastic optimization over sparse-activity
networks: simulator, per-node learner, and rate-bound analysis toolkit.
"""

from .core import (
    ActionBounds,
    ConfigError,
    FeasibilityError,
    NumericError,
    PerturbationSpec,
    RngStream,
    StepSizeSchedule,
    role_streams,
)
from .network import ChannelSpec, NetworkConfig
from .objectives import PowerControlModel, QuadraticModel
from .estimator import estimate_global_utility, mc_check_unbiasedness
from .optimizer import (
    NodeStates,
    SlotUpdateRecord,
    dosp_slot,
    ideal_gradient_slot,
    initialize_states,
    project,
    sample_step_index,
)
from .analysis import (
    AveragedSteps,
    BiasDiagnostics,
    ModelConstants,
    RateBoundParams,
    averaged_steps,
    bias_diagnostics,
    binomial_average,
    chernoff_step_bound,
    compute_K0,
    rate_envelope,
    rate_params,
    recurrence_envelope,
    verify_asymptotic_bounds,
    verify_lemma4,
)
from .harness import (
    ExperimentConfig,
    TrajectoryDataset,
    build_model,
    emit_outputs,
    fit_loglog_slope,
    run_experiment,
    solve_optimum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

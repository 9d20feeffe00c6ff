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
from .network import ActiveSet, ChannelSpec, NetworkConfig
from .objectives import PowerControlModel, QuadraticModel
from .estimator import estimate_global_utility, mc_check_unbiasedness, sample_reception
from .optimizer import (
    NodeStates,
    SlotBlock,
    dosp_slot,
    initialize_states,
    project,
    run_slots,
    sample_step_index,
    slot_block,
)
from .analysis import (
    BiasDiagnostics,
    ModelConstants,
    RateBoundParams,
    bias_diagnostics,
    binomial_averages,
    chernoff_step_bound,
    compute_K0,
    rate_envelope,
    rate_params,
    recurrence_envelope,
    step_moments,
    verify_asymptotic_bounds,
    verify_lemma4,
)
from .harness import (
    ExperimentConfig,
    TrajectoryDataset,
    build_model,
    emit_outputs,
    fit_loglog_slope,
    model_constants,
    run_experiment,
    solve_optimum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Distributed derivative-free stochastic optimization over sparse-activity
networks: simulator, per-node learner, and rate-bound analysis toolkit.

The package root exports the value types a config is built from
(``ActionBounds``, ``NetworkConfig``, ``PerturbationSpec``, ``RngStream``,
``StepSizeSchedule``, ``ModelConstants``) and the three error classes
(``ConfigError``, ``FeasibilityError``, ``NumericError``).  Everything else is
imported from its own module: ``dosp.harness`` for experiments,
``dosp.optimizer`` for the slot engine, ``dosp.analysis`` for the rate bounds.
``dosp.analysis``, ``dosp.verify`` and ``dosp.chart`` are imported only where
they are used, so a run without charts never loads them.
"""

from .core import (
    ActionBounds,
    ConfigError,
    FeasibilityError,
    ModelConstants,
    NumericError,
    PerturbationSpec,
    RngStream,
    StepSizeSchedule,
)
from .network import NetworkConfig

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

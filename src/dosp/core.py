"""Foundational value types: step-size schedules, perturbation distributions,
action bounds, and named deterministic RNG streams.

Everything here is an immutable value object; instances are safe to share
across concurrently running replications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration (CLI exit code 2)."""


class NumericError(RuntimeError):
    """Non-finite value produced during a run (CLI exit code 3)."""


class FeasibilityError(RuntimeError):
    """A performed action left its feasible interval (must never happen)."""


@dataclass(frozen=True)
class StepSizeSchedule:
    """Power-law step-size pair beta_l = beta0 * l**-c1, gamma_l = gamma0 * l**-c2.

    The exponents are restricted to c1 in (0.5, 1) and c2 in (0, 1 - c1], which
    makes beta_l**2 summable while beta_l * gamma_l is not.
    """

    beta0: float
    gamma0: float
    c1: float
    c2: float

    def __post_init__(self):
        if not self.beta0 > 0:
            raise ConfigError(f"beta0 must be positive, got {self.beta0}")
        if not self.gamma0 > 0:
            raise ConfigError(f"gamma0 must be positive, got {self.gamma0}")
        if not 0.5 < self.c1 < 1.0:
            raise ConfigError(f"c1 must lie in (0.5, 1), got {self.c1}")
        # 4-ulp slack so boundary pairs like (0.9, 0.1) survive float rounding
        slack = 4.0 * np.finfo(float).eps
        if not 0.0 < self.c2 <= 1.0 - self.c1 + slack:
            raise ConfigError(
                f"c2 must lie in (0, 1 - c1] = (0, {1.0 - self.c1}], got {self.c2}"
            )

    def beta(self, ell):
        """Evaluate beta at index ``ell`` (scalar or array, >= 1).

        Real-valued arguments are accepted so the analysis module can evaluate
        the power law at non-integer points; index 0 is undefined and rejected.
        """
        return self._power_law(self.beta0, self.c1, ell)

    def gamma(self, ell):
        """Evaluate gamma at index ``ell`` (scalar or array, >= 1)."""
        return self._power_law(self.gamma0, self.c2, ell)

    @staticmethod
    def _power_law(scale: float, exponent: float, ell):
        """``scale * ell**-exponent``, a float for a scalar ``ell``."""
        ell = np.asarray(ell, dtype=float)
        if np.fmin.reduce(ell, axis=None, initial=1.0) < 1:  # fmin skips nan, which passes
            raise ValueError("step-size index must be >= 1")
        out = scale * ell ** (-exponent)
        return float(out) if out.ndim == 0 else out


PerturbationKind = Literal["rademacher", "scaled_symmetric"]


@dataclass(frozen=True)
class PerturbationSpec:
    """Distribution of the exploration perturbations.

    Draws are i.i.d., zero-mean, bounded by ``alpha_phi`` almost surely and
    have second moment ``sigma_phi_sq``; both follow from ``kind`` and
    ``scale``.  Two kinds are supported:

    - ``rademacher``: +-1 with equal probability (alpha_phi = sigma_phi_sq = 1);
    - ``scaled_symmetric``: uniform on [-scale, scale], which exercises the
      sigma_phi != alpha_phi regime (sigma_phi_sq = scale**2 / 3).
    """

    kind: PerturbationKind
    scale: float

    @classmethod
    def rademacher(cls, scale: float = 1.0) -> "PerturbationSpec":
        return cls("rademacher", scale)

    @classmethod
    def scaled_symmetric(cls, scale: float) -> "PerturbationSpec":
        return cls("scaled_symmetric", scale)

    def __post_init__(self):
        if self.kind not in get_args(PerturbationKind):  # the constructors above, by name
            raise ConfigError(f"unknown perturbation kind {self.kind!r}")
        if self.kind == "rademacher" and self.scale != 1.0:
            raise ConfigError(f"a rademacher perturbation has scale 1, got {self.scale!r}")
        if not self.scale > 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def alpha_phi(self) -> float:
        """Almost-sure bound of a draw: the scale (1 for rademacher)."""
        return self.scale

    @property
    def sigma_phi_sq(self) -> float:
        """Second moment of a draw."""
        return 1.0 if self.kind == "rademacher" else self.scale * self.scale / 3.0

    def sample(self, rng: np.random.Generator, size=None):
        """Draw perturbations; independent across calls."""
        if self.kind == "rademacher":
            draws = rng.integers(0, 2, size=size)
            return 2.0 * draws - 1.0
        return rng.uniform(-self.scale, self.scale, size=size)


# a bound as a config gives it: one number for every node, or one per node
Bound = float | list[float]


@dataclass(frozen=True)
class ActionBounds:
    """Per-node feasible intervals [lower_i, upper_i] for the actions, kept
    as read-only float arrays, one entry per node."""

    lower: Bound
    upper: Bound

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float)).copy()
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float)).copy()
        if lower.shape != upper.shape:
            raise ConfigError("lower and upper bounds must have identical shape")
        if not np.all(lower < upper):
            raise ConfigError("every node needs lower < upper")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def uniform(cls, n_nodes: int, a_min: float, a_max: float) -> "ActionBounds":
        return cls(np.full(n_nodes, float(a_min)), np.full(n_nodes, float(a_max)))

    @property
    def n_nodes(self) -> int:
        return self.lower.size

    @property
    def sigma_a_sq(self) -> float:
        """Worst-case squared action magnitude, max_i max(lower_i^2, upper_i^2)."""
        return float(np.max(np.maximum(self.lower**2, self.upper**2)))

    def __eq__(self, other):
        if not isinstance(other, ActionBounds):
            return NotImplemented
        return np.array_equal(self.lower, other.lower) and np.array_equal(
            self.upper, other.upper
        )


@dataclass(frozen=True)
class ModelConstants:
    """Model-level constants feeding the rate-bound recurrence."""

    alpha_F: float
    alpha_G: float
    lipschitz: float
    sigma_eta: float
    sigma_a_sq: float
    sampled: bool = False  # the three are sample estimates, not closed forms


# Named per-replication randomness roles.  Every source of randomness in a run
# flows through exactly one of these streams; the draw layout within a stream
# is a fixed function of (slot, replication, node), which makes runs bit
# reproducible.
ROLES = (
    "init",
    "activity",
    "perturbation",
    "index",
    "reception",
    "channel",
    "noise",
    "utility_mc",
)


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream: (seed, stream_id) -> Generator.

    Identical (seed, stream_id) pairs yield bit-identical draw sequences.
    """

    seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


def role_streams(seed: int) -> dict[str, np.random.Generator]:
    """One generator per randomness role for a run."""
    streams = {}
    for idx, name in enumerate(ROLES):
        streams[name] = RngStream(seed, idx).generator()
    return streams

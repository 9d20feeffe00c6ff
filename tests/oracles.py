"""Scalar reference implementations that the tests compare the batched
library code against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class UtilityObservation:
    """One node's noisy utility observation for the current slot."""

    node: int
    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"utility observation for node {self.node} is not finite")


def scalar_global_utility(
    own: UtilityObservation,
    received: Sequence[UtilityObservation],
    q_r: float,
) -> float:
    """One node's reception-compensated estimate: own.value + (1 / q_r) * sum
    of the received values."""
    if not 0.0 < q_r <= 1.0:
        raise ValueError(f"q_r must lie in (0, 1], got {q_r}")
    senders = [obs.node for obs in received]
    if len(set(senders)) != len(senders):
        raise ValueError("duplicate sender in received observations")
    if own.node in senders:
        raise ValueError("a node cannot receive its own observation")
    return own.value + sum(obs.value for obs in received) / q_r

"""Slot-by-slot state machine for the sporadic derivative-free learner and
the ideal exact-gradient baseline.

State is held for a whole batch of replications at once, shape (B, N); a
single replication is just B = 1.  Node updates within a slot only read the
slot-start state, so vectorizing them is faithful to the per-node protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ActionBounds,
    ConfigError,
    FeasibilityError,
    NumericError,
    PerturbationSpec,
    StepSizeSchedule,
)
from .estimator import estimate_global_utility
from .network import NetworkConfig, sample_activity, sample_obs_noise

INDEX_MODES = ("sampled", "counted")


@dataclass
class NodeStates:
    """Per-node learner state for a batch of replications.

    ``step_index`` holds the schedule position each active node uses this
    slot (0 for inactive nodes, whose step sizes are zero by definition);
    ``activations`` counts past active slots and drives the ``counted`` index
    mode.
    """

    actions: np.ndarray  # (B, N)
    active: np.ndarray  # (B, N) bool, current slot
    step_index: np.ndarray  # (B, N) int
    activations: np.ndarray  # (B, N) int
    index_mode: str = "sampled"

    @property
    def batch(self) -> int:
        return self.actions.shape[0]

    @property
    def n_active(self) -> np.ndarray:
        return self.active.sum(axis=1)


@dataclass(frozen=True)
class SlotUpdateRecord:
    """One active node's update, for trace output."""

    replication: int
    k: int
    node: int
    delta: int
    ell: int
    a: float
    a_hat: float
    f_tilde: float
    beta: float
    gamma: float
    phi: float


def validate_schedule_fits_bounds(schedule: StepSizeSchedule, pert: PerturbationSpec,
                                  bounds: ActionBounds) -> None:
    """The shrunk projection interval must be nonempty at the largest step."""
    worst = pert.alpha_phi * schedule.gamma(1)
    half = float(np.min(bounds.upper - bounds.lower)) / 2.0
    if worst >= half:
        raise ConfigError(
            f"alpha_phi * gamma(1) = {worst} must be < half the narrowest "
            f"action interval ({half}); shrink gamma0 or widen the bounds"
        )


def sample_step_index(k: int, q_a: float, active, mode: str,
                      rng: np.random.Generator, activation_count=None):
    """Schedule index used at slot ``k``: 1 + (past-activity surrogate) if active, else 0.

    ``sampled`` draws a fresh Binomial(k - 1, q_a) every slot; ``counted``
    uses the node's actual number of past active slots, which has the same
    marginal law but is correlated across slots.
    """
    if k < 1:
        raise ValueError("slot index starts at 1")
    if mode not in INDEX_MODES:
        raise ConfigError(f"unknown index mode {mode!r}")
    active = np.asarray(active, dtype=bool)
    if mode == "sampled":
        ell_t = rng.binomial(k - 1, q_a, size=active.shape) if k > 1 else np.zeros(
            active.shape, dtype=np.int64)
    else:
        if activation_count is None:
            raise ValueError("counted mode needs the activation counts")
        ell_t = np.asarray(activation_count)
    return np.where(active, ell_t + 1, 0)


def step_sizes(fn, active, step_index):
    """``fn`` at each node's schedule index, 0 where the node is inactive."""
    return np.where(active, fn(np.maximum(step_index, 1)), 0.0)


def _shrunk_interval(bounds: ActionBounds, alpha_phi: float, gamma_tilde):
    """[lower + alpha_phi * gamma~, upper - alpha_phi * gamma~] per entry.

    Where gamma~ > 0 the interval is nudged one ulp inward so the performed
    action a + gamma~ * phi stays feasible in float arithmetic, not just in
    exact arithmetic.
    """
    shrink = alpha_phi * np.asarray(gamma_tilde, dtype=float)
    lo = bounds.lower + shrink
    hi = bounds.upper - shrink
    if np.any(lo > hi):
        raise ConfigError("projection interval is empty; gamma0 too large for bounds")
    pos = shrink > 0
    if np.any(pos):
        lo = np.where(pos, np.nextafter(lo, np.inf), lo)
        hi = np.where(pos, np.nextafter(hi, -np.inf), hi)
    return lo, hi


def project(a_tilde, bounds: ActionBounds, alpha_phi: float, gamma_tilde):
    """Clamp to the shrunk interval of :func:`_shrunk_interval`.

    With gamma~ = 0 this is a plain clamp to the bounds.
    """
    lo, hi = _shrunk_interval(bounds, alpha_phi, gamma_tilde)
    return np.clip(a_tilde, lo, hi)


def initialize_states(
    bounds: ActionBounds,
    schedule: StepSizeSchedule,
    pert: PerturbationSpec,
    netcfg: NetworkConfig,
    batch: int,
    rngs: dict[str, np.random.Generator],
    index_mode: str = "sampled",
) -> NodeStates:
    """Slot-1 state: random feasible actions, first-slot activity and indices."""
    validate_schedule_fits_bounds(schedule, pert, bounds)
    shape = (batch, bounds.n_nodes)
    active = sample_activity(netcfg, rngs["activity"], batch)
    step_index = np.where(active, 1, 0)
    gamma_t = step_sizes(schedule.gamma, active, step_index)
    lo, hi = _shrunk_interval(bounds, pert.alpha_phi, gamma_t)
    actions = lo + rngs["init"].random(shape) * (hi - lo)
    return NodeStates(
        actions=actions,
        active=active,
        step_index=step_index,
        activations=np.zeros(shape, dtype=np.int64),
        index_mode=index_mode,
    )


def _advance(states: NodeStates, k: int, actions: np.ndarray, netcfg: NetworkConfig,
             rngs: dict[str, np.random.Generator]) -> NodeStates:
    """Slot-(k+1) state holding ``actions``: activation counts plus the next
    slot's activity and schedule indices."""
    activations = states.activations + states.active
    active = sample_activity(netcfg, rngs["activity"], states.batch)
    step_index = sample_step_index(
        k + 1, netcfg.q_activity, active, states.index_mode,
        rngs["index"], activation_count=activations,
    )
    return NodeStates(
        actions=actions,
        active=active,
        step_index=step_index,
        activations=activations,
        index_mode=states.index_mode,
    )


def learner_estimate(
    states: NodeStates,
    model,
    netcfg: NetworkConfig,
    schedule: StepSizeSchedule,
    pert: PerturbationSpec,
    sigma_eta: float,
    rngs: dict[str, np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One slot's perturb -> act -> observe -> exchange for every node.

    Returns (beta~, gamma~, phi, a_hat, f~), each (B, N); inactive entries
    have zero step sizes and a zero estimate.  The perturbation, channel,
    noise and reception draws come from their roles' streams in that order.
    """
    active = states.active
    beta_t = step_sizes(schedule.beta, active, states.step_index)
    gamma_t = step_sizes(schedule.gamma, active, states.step_index)
    phi = pert.sample(rngs["perturbation"], size=active.shape)
    a_hat = states.actions + gamma_t * phi
    env = model.sample_env(active, rngs["channel"])
    u = model.local_utilities(a_hat, active, env)
    eta = sample_obs_noise(sigma_eta, active.shape, rngs["noise"], netcfg.noise)
    u_tilde = np.where(active, u + eta, 0.0)
    f_tilde = estimate_global_utility(u_tilde, active, netcfg.q_reception, rngs["reception"])
    return beta_t, gamma_t, phi, a_hat, f_tilde


def dosp_slot(
    states: NodeStates,
    k: int,
    model,
    netcfg: NetworkConfig,
    schedule: StepSizeSchedule,
    pert: PerturbationSpec,
    sigma_eta: float,
    bounds: ActionBounds,
    rngs: dict[str, np.random.Generator],
    collect_trace: bool = False,
) -> tuple[NodeStates, list[SlotUpdateRecord] | None]:
    """Advance every node by one slot of the sporadic perturbation learner.

    Active nodes estimate (:func:`learner_estimate`) and update; inactive
    nodes carry their action unchanged.  All nodes then draw the next slot's
    activity and step indices and project.
    """
    beta_t, gamma_t, phi, a_hat, f_tilde = learner_estimate(
        states, model, netcfg, schedule, pert, sigma_eta, rngs)

    if np.any(a_hat < bounds.lower) or np.any(a_hat > bounds.upper):
        bad = np.argwhere((a_hat < bounds.lower) | (a_hat > bounds.upper))[0]
        raise FeasibilityError(
            f"slot {k}: performed action left its interval at (replication, node) = {tuple(bad)}"
        )
    if not np.all(np.isfinite(f_tilde)):
        bad = np.argwhere(~np.isfinite(f_tilde))[0]
        raise NumericError(
            f"slot {k}: non-finite utility estimate at (replication, node) = {tuple(bad)}"
        )

    a_tilde = states.actions + beta_t * phi * f_tilde

    records = None
    if collect_trace:
        records = [
            SlotUpdateRecord(
                replication=int(b), k=k, node=int(i), delta=1,
                ell=int(states.step_index[b, i]), a=float(states.actions[b, i]),
                a_hat=float(a_hat[b, i]), f_tilde=float(f_tilde[b, i]),
                beta=float(beta_t[b, i]), gamma=float(gamma_t[b, i]),
                phi=float(phi[b, i]),
            )
            for b, i in np.argwhere(states.active)
        ]

    # the shrunk projection needs the next slot's step sizes, so it follows the draws
    new_states = _advance(states, k, a_tilde, netcfg, rngs)
    gamma_next = step_sizes(schedule.gamma, new_states.active, new_states.step_index)
    new_states.actions = project(a_tilde, bounds, pert.alpha_phi, gamma_next)
    return new_states, records


def ideal_gradient_slot(
    states: NodeStates,
    k: int,
    model,
    netcfg: NetworkConfig,
    step_fn,
    bounds: ActionBounds,
    rngs: dict[str, np.random.Generator],
) -> NodeStates:
    """Reference baseline: active nodes ascend the exact per-slot gradient.

    ``step_fn`` maps schedule indices to step sizes (default in the harness is
    the beta sequence).  No perturbation is applied, so the projection is a
    plain clamp to the action bounds.
    """
    active = states.active
    step = step_sizes(step_fn, active, states.step_index)

    env = model.sample_env(active, rngs["channel"])
    grad = model.global_gradient(states.actions, active, env)
    if not np.all(np.isfinite(grad)):
        raise NumericError(f"slot {k}: non-finite gradient")
    a_tilde = states.actions + step * grad

    return _advance(states, k, np.clip(a_tilde, bounds.lower, bounds.upper), netcfg, rngs)

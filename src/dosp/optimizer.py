"""Slot-by-slot state machine for the sporadic derivative-free learner and
the ideal exact-gradient baseline.

State is held for a whole batch of replications at once: the actions as a
(B, N) array, and the slot's activity as the flat list of live entries
(:class:`dosp.network.ActiveSet`).  Every per-slot draw, evaluation and
update runs on that list, so a slot costs O(live entries), not O(B * N); a
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
from .network import ActiveSet, NetworkConfig, sample_activity, sample_obs_noise

INDEX_MODES = ("sampled", "counted")


@dataclass
class NodeStates:
    """Per-node learner state for a batch of replications.

    ``live`` lists this slot's active entries and ``step_index`` the schedule
    position each of them uses.  ``activations`` counts past active slots per
    node; only the ``counted`` index mode keeps it.  The slot functions
    advance ``actions`` in place.
    """

    actions: np.ndarray  # (B, N)
    live: ActiveSet  # current slot
    step_index: np.ndarray  # (A,) int
    index_mode: str = "sampled"
    activations: np.ndarray | None = None  # (B, N) int, counted mode only

    @property
    def n_active(self) -> np.ndarray:
        return self.live.counts


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


def sample_step_index(k: int, q_a: float, live: ActiveSet, mode: str,
                      rng: np.random.Generator, activations=None) -> np.ndarray:
    """Schedule index of each live entry at slot ``k``: 1 + a past-activity surrogate.

    ``sampled`` draws a fresh Binomial(k - 1, q_a) per live entry every slot;
    ``counted`` uses the node's actual number of past active slots (from the
    (B, N) ``activations``), which has the same marginal law but is
    correlated across slots.
    """
    if k < 1:
        raise ValueError("slot index starts at 1")
    if mode not in INDEX_MODES:
        raise ConfigError(f"unknown index mode {mode!r}")
    if mode == "counted":
        if activations is None:
            raise ValueError("counted mode needs the activation counts")
        return activations[live.batch_idx, live.node_idx] + 1
    if k == 1:
        return np.ones(live.size, dtype=np.int64)
    return rng.binomial(k - 1, q_a, size=live.size) + 1


def _shrunk_interval(bounds: ActionBounds, nodes, alpha_phi: float, gamma_tilde):
    """[lower + alpha_phi * gamma~, upper - alpha_phi * gamma~] of each entry's node.

    Where gamma~ > 0 the interval is nudged one ulp inward so the performed
    action a + gamma~ * phi stays feasible in float arithmetic, not just in
    exact arithmetic.
    """
    shrink = alpha_phi * np.asarray(gamma_tilde, dtype=float)
    lo = bounds.lower[nodes] + shrink
    hi = bounds.upper[nodes] - shrink
    if (lo > hi).any():
        raise ConfigError("projection interval is empty; gamma0 too large for bounds")
    pos = shrink > 0
    return (np.where(pos, np.nextafter(lo, np.inf), lo),
            np.where(pos, np.nextafter(hi, -np.inf), hi))


def project(values, nodes, bounds: ActionBounds, alpha_phi: float, gamma_tilde):
    """Clamp entry values of ``nodes`` to the shrunk interval of :func:`_shrunk_interval`.

    With gamma~ = 0 this is a plain clamp to the bounds.
    """
    lo, hi = _shrunk_interval(bounds, nodes, alpha_phi, gamma_tilde)
    return np.clip(values, lo, hi)


def initialize_states(
    bounds: ActionBounds,
    schedule: StepSizeSchedule,
    pert: PerturbationSpec,
    netcfg: NetworkConfig,
    batch: int,
    rngs: dict[str, np.random.Generator],
    index_mode: str = "sampled",
) -> NodeStates:
    """Slot-1 state: random feasible actions, first-slot activity and indices.

    Live entries start inside their shrunk interval, the others anywhere in
    their bounds.
    """
    validate_schedule_fits_bounds(schedule, pert, bounds)
    shape = (batch, bounds.n_nodes)
    live = sample_activity(netcfg, rngs["activity"], batch)
    step_index = np.ones(live.size, dtype=np.int64)
    entries = (live.batch_idx, live.node_idx)
    lo = np.tile(bounds.lower, (batch, 1))
    hi = np.tile(bounds.upper, (batch, 1))
    lo[entries], hi[entries] = _shrunk_interval(
        bounds, live.node_idx, pert.alpha_phi, schedule.gamma(step_index))
    actions = lo + rngs["init"].random(shape) * (hi - lo)
    return NodeStates(
        actions=actions,
        live=live,
        step_index=step_index,
        index_mode=index_mode,
        activations=np.zeros(shape, dtype=np.int64) if index_mode == "counted" else None,
    )


def _advance(states: NodeStates, k: int, netcfg: NetworkConfig,
             rngs: dict[str, np.random.Generator]) -> NodeStates:
    """Slot-(k+1) state on the same actions: activation counts (counted mode)
    plus the next slot's live entries and schedule indices."""
    activations = states.activations
    if activations is not None:
        activations[states.live.batch_idx, states.live.node_idx] += 1
    live = sample_activity(netcfg, rngs["activity"], states.actions.shape[0])
    step_index = sample_step_index(k + 1, netcfg.q_activity, live, states.index_mode,
                                   rngs["index"], activations)
    return NodeStates(states.actions, live, step_index, states.index_mode, activations)


def learner_estimate(
    states: NodeStates,
    model,
    netcfg: NetworkConfig,
    schedule: StepSizeSchedule,
    pert: PerturbationSpec,
    sigma_eta: float,
    rngs: dict[str, np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One slot's perturb -> act -> observe -> exchange for every live entry.

    Returns (a, beta~, gamma~, phi, a_hat, f~), each (A,) in the order of
    ``states.live``, where ``a`` is the slot-start action.  The perturbation,
    channel, noise and reception draws come from their roles' streams in
    that order, one per live entry (one per live pair for the power
    channel and for reception).
    """
    live = states.live
    a = states.actions[live.batch_idx, live.node_idx]
    beta_t = schedule.beta(states.step_index)
    gamma_t = schedule.gamma(states.step_index)
    phi = pert.sample(rngs["perturbation"], size=live.size)
    a_hat = a + gamma_t * phi
    env = model.sample_env(live, rngs["channel"])
    u_tilde = model.local_utilities(a_hat, live, env) + sample_obs_noise(
        sigma_eta, live.size, rngs["noise"], netcfg.noise)
    f_tilde = estimate_global_utility(u_tilde, live, netcfg.q_reception, rngs["reception"])
    return a, beta_t, gamma_t, phi, a_hat, f_tilde


def _first(live: ActiveSet, bad: np.ndarray) -> tuple[int, int]:
    """(replication, node) of the first flagged entry."""
    j = int(np.flatnonzero(bad)[0])
    return int(live.batch_idx[j]), int(live.node_idx[j])


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

    Live entries estimate (:func:`learner_estimate`), update and are clamped
    to their bounds; the others keep their action.  Then the next slot's
    live entries and step indices are drawn, and only those entries are
    projected onto their shrunk interval.
    """
    live = states.live
    a, beta_t, gamma_t, phi, a_hat, f_tilde = learner_estimate(
        states, model, netcfg, schedule, pert, sigma_eta, rngs)

    lower = bounds.lower[live.node_idx]
    upper = bounds.upper[live.node_idx]
    outside = (a_hat < lower) | (a_hat > upper)
    if outside.any():
        raise FeasibilityError(
            f"slot {k}: performed action left its interval at (replication, node) = "
            f"{_first(live, outside)}")
    finite = np.isfinite(f_tilde)
    if not finite.all():
        raise NumericError(
            f"slot {k}: non-finite utility estimate at (replication, node) = "
            f"{_first(live, ~finite)}")

    states.actions[live.batch_idx, live.node_idx] = np.clip(
        a + beta_t * phi * f_tilde, lower, upper)

    records = None
    if collect_trace:
        records = [
            SlotUpdateRecord(replication=b, k=k, node=i, delta=1, ell=ell, a=x,
                             a_hat=xh, f_tilde=f, beta=bt, gamma=gm, phi=p)
            for b, i, ell, x, xh, f, bt, gm, p in zip(
                live.batch_idx.tolist(), live.node_idx.tolist(),
                states.step_index.tolist(), a.tolist(), a_hat.tolist(),
                f_tilde.tolist(), beta_t.tolist(), gamma_t.tolist(), phi.tolist())
        ]

    # the shrunk projection needs the next slot's step sizes, so it follows the draws
    new_states = _advance(states, k, netcfg, rngs)
    nxt = new_states.live
    entries = (nxt.batch_idx, nxt.node_idx)
    new_states.actions[entries] = project(new_states.actions[entries], nxt.node_idx,
                                          bounds, pert.alpha_phi,
                                          schedule.gamma(new_states.step_index))
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
    """Reference baseline: live entries ascend the exact per-slot gradient.

    ``step_fn`` maps schedule indices to step sizes (default in the harness is
    the beta sequence).  No perturbation is applied, so the projection is a
    plain clamp to the action bounds.
    """
    live = states.live
    entries = (live.batch_idx, live.node_idx)
    a = states.actions[entries]
    env = model.sample_env(live, rngs["channel"])
    grad = model.global_gradient(a, live, env)
    if not np.all(np.isfinite(grad)):
        raise NumericError(f"slot {k}: non-finite gradient")
    states.actions[entries] = np.clip(a + step_fn(states.step_index) * grad,
                                      bounds.lower[live.node_idx], bounds.upper[live.node_idx])
    return _advance(states, k, netcfg, rngs)

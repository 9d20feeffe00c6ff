"""Slot engine for the sporadic derivative-free learner and the ideal
exact-gradient baseline.

State is held for a whole batch of replications at once: the actions as a
(B, N) array, advanced in place, and the activity as the flat list of live
(replication, node) entries (:class:`dosp.network.ActiveSet`).  A single
replication is just B = 1.

Every random input of a slot is exogenous: activity, step index,
perturbation, environment, observation noise and reception do not depend on
the actions.  So :func:`run_slots` advances the batch in slot blocks.  For a
block of S slots it draws each role with one call on one list of S * B rows
(:class:`SlotBlock`), and then runs only the state-dependent step slot by
slot, on that slot's contiguous run of entries.  For every role but Poisson
activity one call consumes the role's stream exactly as S per-slot calls
would, so outputs do not depend on the block size.  Node updates within a
slot only read the slot-start state, so vectorizing them is faithful to the
per-node protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ActionBounds,
    ConfigError,
    FeasibilityError,
    NumericError,
    PerturbationSpec,
    StepSizeSchedule,
)
from .estimator import estimate_global_utility, sample_reception
from .network import ActiveSet, NetworkConfig, sample_activity, sample_obs_noise

INDEX_MODES = ("sampled", "counted")

# Working-set budget of one slot block, in 8-byte cells; it sets the block
# size S.  A slot costs the dense (B, N) uniforms of a binomial activity draw
# plus _ENTRY_CELLS per live entry and _PAIR_CELLS per drawn pair: a block
# holds about 17 arrays per entry and 4 per pair at its peak (tracemalloc),
# and the process's resident set grows by about twice that.  No output
# depends on S except under Poisson activity.
_BLOCK_CELLS = 1 << 17
_ENTRY_CELLS = 32
_PAIR_CELLS = 8


@dataclass
class NodeStates:
    """Per-node learner state for a batch of replications.

    ``live`` lists the entries of the next slot to run and ``step_index``
    the schedule position each of them uses.  ``activations`` counts the
    slots each node was live in, up to that slot; only the ``counted`` index
    mode keeps it.  The slot engine advances ``actions`` in place.
    """

    actions: np.ndarray  # (B, N)
    live: ActiveSet  # next slot
    step_index: np.ndarray  # (A,) int
    index_mode: str = "sampled"
    activations: np.ndarray | None = None  # (B, N) int, counted mode only


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


def sample_step_index(k, q_a: float, live: ActiveSet, mode: str,
                      rng: np.random.Generator, activations=None) -> np.ndarray:
    """Schedule index of each live entry: 1 + a past-activity surrogate.

    ``k`` is the slot, one for all of ``live`` or one per entry.  ``sampled``
    draws a fresh Binomial(k - 1, q_a) per live entry; ``counted`` uses the
    node's actual number of past active slots, which has the same marginal
    law but is correlated across slots.  Its (B, N) ``activations`` count
    the slots before ``live``'s first; ``live`` may span consecutive slots,
    slot-major (row r is replication r % B), and a node's earlier entries in
    ``live`` count too.
    """
    if np.any(np.asarray(k) < 1):
        raise ValueError("slot index starts at 1")
    if mode not in INDEX_MODES:
        raise ConfigError(f"unknown index mode {mode!r}")
    if mode == "sampled":
        return rng.binomial(np.asarray(k) - 1, q_a, size=live.size) + 1
    if activations is None:
        raise ValueError("counted mode needs the activation counts")
    batch, n = activations.shape
    cells = (live.batch_idx % batch) * n + live.node_idx
    order = np.argsort(cells, kind="stable")
    ranked = cells[order]
    first = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    earlier = np.empty(live.size, dtype=np.int64)
    earlier[order] = np.arange(live.size) - np.repeat(first, np.diff(np.r_[first, live.size]))
    return activations.reshape(-1)[cells] + earlier + 1


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


def block_slots(netcfg: NetworkConfig, batch: int, pairwise: bool) -> int:
    """Slots per block under the working-set budget ``_BLOCK_CELLS``, at the
    expected live entries and, when ``pairwise`` (pairs are drawn), the
    expected pairs, E[n_b^2] = Var n_b + lambda^2 per row."""
    lam = netcfg.expected_active
    binomial = netcfg.activity == "binomial"
    cells = _ENTRY_CELLS * lam + (netcfg.n_nodes if binomial else 0)
    if pairwise:
        cells += _PAIR_CELLS * (lam * (1.0 - netcfg.q_activity if binomial else 1.0) + lam * lam)
    return max(1, int(_BLOCK_CELLS // (batch * cells)))


def _advance(states: NodeStates, k0: int, slots: int, netcfg: NetworkConfig,
             rngs: dict[str, np.random.Generator]) -> tuple[ActiveSet, np.ndarray]:
    """Draw the activity and step indices of slots k0+1 .. k0+slots.

    Returns the live entries and indices of slots k0 .. k0+slots-1, the
    pending slot k0 of ``states`` first, and leaves slot k0+slots pending.
    """
    batch, n = states.actions.shape
    drawn = sample_activity(netcfg, rngs["activity"], slots * batch)
    split = (slots - 1) * batch
    activations = states.activations
    if activations is not None:
        activations[states.live.batch_idx, states.live.node_idx] += 1
    step_index = sample_step_index(k0 + 1 + drawn.batch_idx // batch, netcfg.q_activity,
                                   drawn, states.index_mode, rngs["index"], activations)
    ran = drawn.rows(0, split)
    if activations is not None:
        cells = (ran.batch_idx % batch) * n + ran.node_idx
        activations += np.bincount(cells, minlength=batch * n).reshape(batch, n)
    live = states.live.stack(ran)
    indices = np.concatenate((states.step_index, step_index[:ran.size]))
    states.live, states.step_index = drawn.rows(split, slots * batch), step_index[ran.size:]
    return live, indices


class SlotView(NamedTuple):
    """Slot ``k`` of a block: its live entries as their own list, their range
    ``entries`` of the block's entries, and their environment and arrived
    reception pairs, renumbered to match."""

    k: int
    live: ActiveSet
    entries: slice
    env: object
    heard: tuple[np.ndarray, np.ndarray] | None


@dataclass(eq=False)
class SlotBlock:
    """Every exogenous draw of slots k0, k0 + 1, ... for B replications.

    Row s * B + b of ``live`` is replication b at slot k0 + s, so each
    slot's entries are the contiguous run ``entry_at[s]:entry_at[s + 1]``.
    Per-entry arrays follow ``live``; ``env`` is ``model``'s environment of
    ``live``.  ``pairs`` (pairwise environments only) and the arrived
    reception pairs ``heard`` number their entries from their slot's first
    entry and run slot by slot from ``pair_at`` and ``heard_at``.  A
    baseline block has ``step`` and no learner fields; ``lo``/``hi``
    (projection interval) and ``lower``/``upper`` (bounds) are set when
    bounds are given.
    """

    k0: int
    batch: int
    model: object
    live: ActiveSet
    step_index: np.ndarray
    rep: np.ndarray  # replication of each entry
    cells: np.ndarray  # rep * N + node: the entry's cell of the raveled (B, N) actions
    entry_at: list[int]
    env: object
    pairs: tuple[np.ndarray, np.ndarray] | None = None
    pair_at: list[int] | None = None
    step: np.ndarray | None = None  # baseline step size
    beta: np.ndarray | None = None
    gamma: np.ndarray | None = None
    phi: np.ndarray | None = None
    noise: np.ndarray | None = None
    q_r: float = 1.0
    heard: tuple[np.ndarray, np.ndarray] | None = None
    heard_at: list[int] | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    @property
    def slots(self) -> int:
        return len(self.entry_at) - 1

    def slot(self, s: int) -> SlotView:
        """The block's slot k0 + s."""
        e0, e1 = self.entry_at[s], self.entry_at[s + 1]
        b = self.batch
        live = ActiveSet((b, self.live.shape[1]), self.rep[e0:e1], self.live.node_idx[e0:e1],
                         self.live.offsets[s * b:(s + 1) * b + 1] - e0)
        entries = slice(e0, e1)
        pairs = None
        if self.pairs is not None:
            pairs = slice(self.pair_at[s], self.pair_at[s + 1])
            live.pairs = (self.pairs[0][pairs], self.pairs[1][pairs])
        heard = None
        if self.heard is not None:
            h0, h1 = self.heard_at[s], self.heard_at[s + 1]
            heard = (self.heard[0][h0:h1], self.heard[1][h0:h1])
        return SlotView(self.k0 + s, live, entries,
                        self.model.env_rows(self.env, live, entries, pairs), heard)


def _per_slot(pairs: tuple[np.ndarray, np.ndarray], entry_at: np.ndarray):
    """A block's (i, j) entry pairs, sorted by i, renumbered from their
    slot's first entry; and where each slot's run of pairs starts."""
    first, second = pairs
    at = np.searchsorted(first, entry_at)
    shift = np.repeat(entry_at[:-1], np.diff(at))
    return (first - shift, second - shift), at.tolist()


def slot_block(
    live: ActiveSet,
    step_index: np.ndarray,
    batch: int,
    model,
    netcfg: NetworkConfig,
    rngs: dict[str, np.random.Generator],
    bounds: ActionBounds | None = None,
    *,
    k0: int = 1,
    schedule: StepSizeSchedule | None = None,
    pert: PerturbationSpec | None = None,
    sigma_eta: float = 0.0,
    step_fn=None,
) -> SlotBlock:
    """Draw the per-entry roles of slots k0, k0 + 1, ..., whose live entries
    (``batch`` rows per slot) and step indices are ``live`` and ``step_index``.

    The learner's block (``pert`` given) draws the perturbation, the
    environment, the observation noise and the reception, in that order,
    one call per role on the stream of that role; the baseline's block
    (``step_fn`` given) draws only the environment.
    """
    entry_at = live.offsets[::batch]
    rep = live.batch_idx % batch
    fields = dict(k0=k0, batch=batch, model=model, live=live, step_index=step_index, rep=rep,
                  cells=rep * live.shape[1] + live.node_idx, entry_at=entry_at.tolist())
    if bounds is not None:
        fields.update(lower=bounds.lower[live.node_idx], upper=bounds.upper[live.node_idx])
    if pert is None:
        fields.update(env=model.sample_env(live, rngs["channel"]), step=step_fn(step_index))
    else:
        gamma = schedule.gamma(step_index)
        phi = pert.sample(rngs["perturbation"], size=live.size)
        fields.update(
            beta=schedule.beta(step_index), gamma=gamma, phi=phi,
            env=model.sample_env(live, rngs["channel"]),
            noise=sample_obs_noise(sigma_eta, live.size, rngs["noise"], netcfg.noise),
            q_r=netcfg.q_reception)
        heard = sample_reception(live, netcfg.q_reception, rngs["reception"])
        if heard is not None:
            fields["heard"], fields["heard_at"] = _per_slot(heard, entry_at)
        if bounds is not None:
            fields["lo"], fields["hi"] = _shrunk_interval(bounds, live.node_idx,
                                                          pert.alpha_phi, gamma)
    if model.pairwise_env:
        fields["pairs"], fields["pair_at"] = _per_slot(live.pairs, entry_at)
    return SlotBlock(**fields)


def learner_estimate(a: np.ndarray, block: SlotBlock,
                     slot: SlotView) -> tuple[np.ndarray, np.ndarray]:
    """One slot's perturb -> act -> observe -> exchange for its live entries.

    ``a`` holds the slot-start actions of ``slot.live``.  Returns the
    performed actions a + gamma~ * phi and the estimates f~.
    """
    e = slot.entries
    a_hat = a + block.gamma[e] * block.phi[e]
    u_tilde = block.model.local_utilities(a_hat, slot.live, slot.env) + block.noise[e]
    return a_hat, estimate_global_utility(u_tilde, slot.live, block.q_r, slot.heard)


def _first(live: ActiveSet, bad: np.ndarray) -> tuple[int, int]:
    """(replication, node) of the first flagged entry."""
    j = int(np.flatnonzero(bad)[0])
    return int(live.batch_idx[j]), int(live.node_idx[j])


def dosp_slot(a: np.ndarray, block: SlotBlock, slot: SlotView,
              collect_trace: bool = False) -> tuple[np.ndarray, list[SlotUpdateRecord] | None]:
    """The learner's step on one slot of ``block``, from slot-start actions ``a``.

    Estimates (:func:`learner_estimate`), checks that every performed
    action lies in its bounds and every estimate is finite, and returns the
    updated actions, clamped to the bounds, and the slot's update records
    when ``collect_trace``.
    """
    a_hat, f_tilde = learner_estimate(a, block, slot)
    e = slot.entries
    lower, upper = block.lower[e], block.upper[e]
    outside = (a_hat < lower) | (a_hat > upper)
    if outside.any():
        raise FeasibilityError(
            f"slot {slot.k}: performed action left its interval at (replication, node) = "
            f"{_first(slot.live, outside)}")
    finite = np.isfinite(f_tilde)
    if not finite.all():
        raise NumericError(
            f"slot {slot.k}: non-finite utility estimate at (replication, node) = "
            f"{_first(slot.live, ~finite)}")
    beta, phi = block.beta[e], block.phi[e]
    records = None
    if collect_trace:
        records = [
            SlotUpdateRecord(replication=b, k=slot.k, node=i, delta=1, ell=ell, a=x,
                             a_hat=xh, f_tilde=f, beta=bt, gamma=gm, phi=p)
            for b, i, ell, x, xh, f, bt, gm, p in zip(
                slot.live.batch_idx.tolist(), slot.live.node_idx.tolist(),
                block.step_index[e].tolist(), a.tolist(), a_hat.tolist(), f_tilde.tolist(),
                beta.tolist(), block.gamma[e].tolist(), phi.tolist())
        ]
    return np.minimum(np.maximum(a + beta * phi * f_tilde, lower), upper), records


def ideal_gradient_slot(a: np.ndarray, block: SlotBlock, slot: SlotView) -> np.ndarray:
    """Reference baseline: live entries ascend the exact per-slot gradient.

    The step sizes are the block's ``step`` (the beta sequence by default in
    the harness).  No perturbation is applied, so the projection is a plain
    clamp to the action bounds.
    """
    grad = block.model.global_gradient(a, slot.live, slot.env)
    finite = np.isfinite(grad)
    if not finite.all():
        raise NumericError(
            f"slot {slot.k}: non-finite gradient at (replication, node) = "
            f"{_first(slot.live, ~finite)}")
    e = slot.entries
    return np.minimum(np.maximum(a + block.step[e] * grad, block.lower[e]), block.upper[e])


def _run_block(block: SlotBlock, acts: np.ndarray, record_at, traces):
    """Run the state-dependent step of every slot of ``block`` on the raveled
    actions ``acts``; see :func:`run_slots`."""
    learner = block.beta is not None
    for s in range(block.slots):
        slot = block.slot(s)
        cells = block.cells[slot.entries]
        a = acts[cells]
        if learner:
            a = np.minimum(np.maximum(a, block.lo[slot.entries]), block.hi[slot.entries])
        if slot.k in record_at:
            acts[cells] = a
            yield slot.k, slot.live.counts
        if learner:
            acts[cells], records = dosp_slot(a, block, slot, collect_trace=traces is not None)
            if records:
                traces.extend(records)
        else:
            acts[cells] = ideal_gradient_slot(a, block, slot)


def run_slots(
    states: NodeStates,
    horizon: int,
    model,
    netcfg: NetworkConfig,
    bounds: ActionBounds,
    rngs: dict[str, np.random.Generator],
    record_at=(),
    *,
    schedule: StepSizeSchedule | None = None,
    pert: PerturbationSpec | None = None,
    sigma_eta: float = 0.0,
    step_fn=None,
    traces: list[SlotUpdateRecord] | None = None,
):
    """Advance ``states`` through slots 1 .. ``horizon`` in slot blocks.

    A generator: nothing runs until it is iterated.  It yields
    ``(k, n_active)`` at the start of every slot k in ``record_at``, with
    ``states.actions`` as they stand then.  The learner runs when ``pert``
    is given (with ``schedule`` and ``sigma_eta``), the exact-gradient
    baseline with step sizes ``step_fn`` otherwise.  The learner projects a
    slot's live entries onto their shrunk interval at the start of the slot,
    and after the last slot those of the next one.  ``traces``, when a
    list, collects the learner's update records.
    """
    batch = states.actions.shape[0]
    states.actions = np.ascontiguousarray(states.actions)
    acts = states.actions.reshape(-1)
    learner = pert is not None
    size = block_slots(netcfg, batch, model.pairwise_env or (learner and netcfg.q_reception < 1))
    k0 = 1
    while k0 <= horizon:
        slots = min(size, horizon - k0 + 1)
        # no reference to a block outlives its run, so blocks never overlap in memory
        yield from _run_block(
            slot_block(*_advance(states, k0, slots, netcfg, rngs), batch, model, netcfg, rngs,
                       bounds, k0=k0, schedule=schedule, pert=pert, sigma_eta=sigma_eta,
                       step_fn=step_fn),
            acts, record_at, traces)
        k0 += slots
    if learner:
        nxt = states.live
        entries = (nxt.batch_idx, nxt.node_idx)
        states.actions[entries] = project(states.actions[entries], nxt.node_idx, bounds,
                                          pert.alpha_phi, schedule.gamma(states.step_index))

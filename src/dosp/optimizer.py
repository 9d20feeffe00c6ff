"""Slot engine for the sporadic derivative-free learner and the ideal
exact-gradient baseline, through one block layout and one step.

State is held for a whole batch of replications at once: the actions as a
(B, N) array, advanced in place, and the activity as the flat list of live
(replication, node) entries (:class:`dosp.network.ActiveSet`).  A single
replication is just B = 1.

Every random input of a slot is exogenous: activity, step index,
perturbation, environment, observation noise and reception do not depend on
the actions.  So :func:`run_slots` advances the batch in slot blocks.  For a
block of S slots it draws each role with one call on one list of S * B rows
(:class:`SlotBlock`).  For every role but Poisson activity one call consumes
the role's stream exactly as S per-slot calls would (one draw per entry or
pair; a dead direct channel gain is floored, not redrawn), so outputs do
not depend on the block size.  A ``counted`` index is counted, not drawn.

Only the step reads the state, and a slot's step reads and writes just the
actions of its own live entries: each entry's arithmetic is elementwise, and
its utility, estimate and gradient sum only over entries of its own row
(replication and slot).  So consecutive slots in which no (replication,
node) cell is live twice commute, and the step runs once per such run of
slots, a *wave*, on the wave's contiguous run of entries: one sort of a
block's cells finds its waves and ``counted`` indices (:func:`_sort_cells`),
a :class:`WavePlan` lays the waves out, and one :class:`WaveView` slices
each wave: the row structure that a model's evaluation reads of an
:class:`ActiveSet`, per-node terms being in the wave's environment.  Every
per-row sum (``bincount``) adds its terms in the same order as the one-slot
step does, so the results are bit-identical to running the slots one by
one, and the nodes of a slot, which read only the slot-start state, one by
one.

The learner and the baseline share the block layout and the step,
:func:`dosp_slot`; :func:`slot_block` picks the algorithm once per block.
The step moves the projected slot-start actions a to clip(a + gain * d) in
the bounds, d being the estimate f~ or the exact gradient.  It checks per
wave that every d is finite, so a non-finite value stops the run at its
wave.  Feasibility of the performed actions is asserted once per block
segment, over the segment's entries in slot order: before every record is
yielded and at the block's end.  Either failure names the earliest slot a
one-by-one run would have failed in: a non-finite d first runs the pending
feasibility check up to its slot, and within a slot the feasibility check
comes first.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Literal, get_args

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
from .network import _BLOCK_CELLS, ActiveSet, NetworkConfig, sample_activity, sample_obs_noise

IndexMode = Literal["sampled", "counted"]

# A slot block's size S keeps it within the working-set budget
# network._BLOCK_CELLS.  A slot costs the dense (B, N) uniforms of a binomial
# activity draw plus _ENTRY_CELLS per live entry and _PAIR_CELLS per drawn
# pair: a block holds about 17 arrays per entry and 4 per pair at its peak
# (tracemalloc), and the process's resident set grows by about twice that.
# A block's rows fit in one activity chunk unless one slot alone exceeds the
# budget.  No output depends on S except under Poisson activity.
_ENTRY_CELLS = 32
_PAIR_CELLS = 8


@dataclass
class NodeStates:
    """Per-node learner state for a batch of replications.

    ``live`` lists the entries of the next slot to run.  ``activations``
    counts the slots each node was live in, up to that slot; only the
    ``counted`` index mode keeps it (:func:`_sort_cells`), so it alone says
    which mode runs.  The slot engine advances ``actions`` in place.
    """

    actions: np.ndarray  # (B, N)
    live: ActiveSet  # next slot
    activations: np.ndarray | None = None  # (B, N) int, counted mode only


def sample_step_index(k, q_a: float, live: ActiveSet, rng: np.random.Generator) -> np.ndarray:
    """The ``sampled`` index of each live entry: 1 + a fresh Binomial(k - 1,
    q_a), ``k`` being the slot, one for all of ``live`` or one per entry.  It
    has the law of the ``counted`` index (:func:`_sort_cells`), the node's
    own count of past active slots, which is correlated across slots."""
    if np.any(np.asarray(k) < 1):
        raise ValueError("slot index starts at 1")
    return rng.binomial(np.asarray(k) - 1, q_a, size=live.size) + 1


def _shrunk_interval(lower: np.ndarray, upper: np.ndarray, alpha_phi: float, gamma_tilde):
    """[lower + alpha_phi * gamma~, upper - alpha_phi * gamma~] of each entry,
    ``lower`` and ``upper`` being the bounds of the entries' nodes.

    Where gamma~ > 0 the interval is nudged one ulp inward so the performed
    action a + gamma~ * phi stays feasible in float arithmetic, not just in
    exact arithmetic.  An interval that is empty after the nudge is rejected.
    """
    shrink = alpha_phi * np.asarray(gamma_tilde, dtype=float)
    lo = lower + shrink
    hi = upper - shrink
    pos = shrink > 0
    np.nextafter(lo, np.inf, out=lo, where=pos)
    np.nextafter(hi, -np.inf, out=hi, where=pos)
    if (lo > hi).any():
        raise ConfigError("projection interval is empty: alpha_phi * gamma~ is too large "
                          "for the bounds")
    return lo, hi


def project(values, nodes, bounds: ActionBounds, alpha_phi: float, gamma_tilde):
    """Clamp entry values of ``nodes`` to the shrunk interval of :func:`_shrunk_interval`.

    With gamma~ = 0 this is a plain clamp to the bounds.
    """
    lo, hi = _shrunk_interval(bounds.lower[nodes], bounds.upper[nodes], alpha_phi, gamma_tilde)
    return np.clip(values, lo, hi)


def initialize_states(
    bounds: ActionBounds,
    schedule: StepSizeSchedule,
    pert: PerturbationSpec,
    netcfg: NetworkConfig,
    batch: int,
    rngs: dict[str, np.random.Generator],
    index_mode: IndexMode = "sampled",
) -> NodeStates:
    """Slot-1 state: random feasible actions and first-slot activity.

    Live entries start inside their shrunk interval, the others anywhere in
    their bounds.  ``counted`` ``index_mode`` keeps activation counts.  Every
    node's shrunk interval (:func:`_shrunk_interval`, one-ulp nudge
    included) must be nonempty at the largest step, so that no slot meets
    an empty one.
    """
    if index_mode not in get_args(IndexMode):
        raise ConfigError(f"unknown index mode {index_mode!r}")
    try:
        _shrunk_interval(bounds.lower, bounds.upper, pert.alpha_phi, schedule.gamma(1))
    except ConfigError:
        worst = pert.alpha_phi * schedule.gamma(1)
        half = float(np.min(bounds.upper - bounds.lower)) / 2.0
        raise ConfigError(
            f"alpha_phi * gamma(1) = {worst} must be < half the narrowest action interval "
            f"({half}) by more than an ulp; shrink gamma0 or widen the bounds") from None
    shape = (batch, bounds.n_nodes)
    live = sample_activity(netcfg, rngs["activity"], batch)
    entries = (live.batch_idx, live.node_idx)
    actions = rngs["init"].random(shape)
    u = actions[entries]
    actions *= bounds.upper - bounds.lower
    actions += bounds.lower
    lower, upper = bounds.lower[live.node_idx], bounds.upper[live.node_idx]
    lo, hi = _shrunk_interval(lower, upper, pert.alpha_phi, schedule.gamma(1))
    actions[entries] = lo + u * (hi - lo)
    return NodeStates(
        actions=actions,
        live=live,
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


def _sort_cells(cells: np.ndarray, n_cells: int, counts: np.ndarray | None = None):
    """One stable sort of a block's ``cells`` (below ``n_cells``) lists each
    cell's entries in slot order.  Returns each entry's latest earlier entry
    of its cell (-1 if none, one more -1 at the end) and, given the cells'
    ``counts`` before the block, the ``counted`` indices (count + rank among
    the cell's earlier entries + 1; else None), adding the entries to ``counts``."""
    keys = cells.astype(np.uint16) if n_cells <= 1 << 16 else cells  # 16-bit keys sort by radix
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    head = np.ones(cells.size, dtype=bool)  # the first entry of its cell
    head[1:] = ranked[1:] != ranked[:-1]
    again = np.flatnonzero(~head)
    previous = np.full(cells.size + 1, -1)
    previous[order[again]] = order[again - 1]
    if counts is None:
        return previous, None
    first = np.flatnonzero(head)
    runs = np.diff(first, append=cells.size)
    flat = counts.reshape(-1)  # a view: the counts grow in place
    indices = np.empty(cells.size, dtype=np.int64)
    indices[order] = flat[ranked] + np.arange(1, cells.size + 1) - np.repeat(first, runs)
    flat[ranked[first]] += runs
    return previous, indices


def _advance(states: NodeStates, k0: int, slots: int, model, netcfg: NetworkConfig,
             rngs: dict[str, np.random.Generator], bounds: ActionBounds, **algorithm) -> SlotBlock:
    """Draw the activity of slots k0+1 .. k0+slots, leave slot k0+slots
    pending, and return the :func:`slot_block` of slots k0 .. k0+slots-1,
    the pending slot k0 first, with its cells and their :func:`_sort_cells`."""
    batch, n = states.actions.shape
    drawn = sample_activity(netcfg, rngs["activity"], slots * batch)
    split = (slots - 1) * batch
    live, states.live = states.live.stack(drawn.rows(0, split)), drawn.rows(split, slots * batch)
    cells = live.batch_idx % batch * n + live.node_idx
    previous, indices = _sort_cells(cells, batch * n, states.activations)
    if indices is None:
        indices = sample_step_index(k0 + live.batch_idx // batch, netcfg.q_activity, live,
                                    rngs["index"])
    block = slot_block(live, indices, batch, model, netcfg, rngs, bounds, k0=k0, **algorithm)
    block.cells, block.previous = cells, previous
    return block


@dataclass(eq=False)
class SlotBlock:
    """Every exogenous draw of slots k0, k0 + 1, ... for B replications.

    Row s * B + b of ``live`` is replication b at slot k0 + s, so each
    slot's entries are the contiguous run ``entry_at[s]:entry_at[s + 1]``,
    and so are those of a run of consecutive slots.  Per-entry arrays follow
    ``live``; ``env`` is ``model``'s environment of ``live``, and the
    arrived reception pairs ``heard`` number the block's entries, sorted by
    receiver.  A :class:`WavePlan` cuts the block into waves.  Both
    algorithms fill the fields up to ``start``, the learner also those up to
    ``heard``, and :func:`_advance` sets ``cells`` and ``previous``.  The
    waves write ``start`` and, in a traced run, ``f_tilde``.
    """

    k0: int
    batch: int
    model: object
    live: ActiveSet
    step_index: np.ndarray
    entry_at: np.ndarray  # (S + 1,) first entry of each slot
    env: object  # model.sample_env(live, ...): PowerEnv or QuadraticEnv
    lower: np.ndarray  # bounds
    upper: np.ndarray
    lo: np.ndarray  # projection interval: the shrunk one, or the bounds
    hi: np.ndarray
    gain: np.ndarray  # the update's gain on the direction: beta~ * phi, or the baseline's step
    gamma_phi: np.ndarray  # gamma~ * phi, the perturbation of the action; 0 for the baseline
    direction: Callable  # (a, block, slot) -> f~ (learner_estimate) or the exact gradient
    what: str  # the direction's name in a failure message
    start: np.ndarray  # slot-start (projected) action once the step ran, nan before
    beta: np.ndarray | None = None
    gamma: np.ndarray | None = None
    phi: np.ndarray | None = None
    noise: np.ndarray | None = None  # observation noise; None when sigma_eta = 0
    q_r: float = 1.0
    heard: tuple[np.ndarray, np.ndarray] | None = None
    f_tilde: np.ndarray | None = None  # f~ once the step ran; traced learner runs only
    cells: np.ndarray | None = None  # rep * N + node: the entry's cell of the raveled actions
    previous: np.ndarray | None = None  # the latest earlier entry of each entry's cell

    @property
    def slots(self) -> int:
        return len(self.entry_at) - 1


class WaveView:
    """One wave of a block: its range ``entries`` of the block's entries,
    its ``env`` and arrived reception pairs ``heard``, and the row structure
    of its live entries, which is all of an :class:`ActiveSet` that the
    models' evaluations and :func:`dosp.estimator.estimate_global_utility`
    read: ``size`` entries, ``shape[0]`` rows, the row ``batch_idx`` of each
    and the entry ``pairs`` of every row, numbered from the wave's start.
    An entry's node is ``block.live.node_idx[entries]``."""

    __slots__ = ("entries", "env", "heard", "size", "shape", "batch_idx", "pairs")


class WavePlan:
    """The waves of ``block`` that start at slots ``bounds[:-1]`` (``bounds``
    ascends from 0 to the block's slot count): every wave's entry, pair and
    heard-pair bounds as lists, and the rows, pairs and heard pairs
    renumbered from their wave's start, once for all waves.  :meth:`view`
    points the block's one :class:`WaveView` at a wave."""

    def __init__(self, block: SlotBlock, bounds: list[int]):
        b, live = block.batch, block.live
        first = block.entry_at[bounds]
        self.bounds, self.first, self.env = bounds, first.tolist(), block.env
        self.rows = live.batch_idx - np.repeat(np.asarray(bounds[:-1]) * b, first[1:] - first[:-1])
        self.pairs = _per_wave(live.pairs, first) if block.model.pairwise_env else None
        self.heard = None if block.heard is None else _per_wave(block.heard, first)
        self.shapes = [((s1 - s0) * b, live.shape[1]) for s0, s1 in zip(bounds, bounds[1:])]
        view = self._view = WaveView()
        view.pairs, view.heard = None, None

    def view(self, w: int) -> WaveView:
        """The view of wave ``w``, valid until the next call."""
        view = self._view
        e0, e1 = self.first[w], self.first[w + 1]
        view.entries = slice(e0, e1)
        view.size, view.shape = e1 - e0, self.shapes[w]
        view.batch_idx = self.rows[e0:e1]
        p = None
        if self.pairs is not None:
            first, second, at = self.pairs
            p = slice(at[w], at[w + 1])
            view.pairs = (first[p], second[p])
        view.env = self.env.part(view.entries, p)
        if self.heard is not None:
            receiver, sender, at = self.heard
            h = slice(at[w], at[w + 1])
            view.heard = (receiver[h], sender[h])
        return view


def _per_wave(pairs: tuple[np.ndarray, np.ndarray], entry_at: np.ndarray):
    """A block's (i, j) entry pairs, sorted by i, renumbered from the first
    entry of their wave (waves start at ``entry_at``); and where each wave's
    pairs start."""
    first, second = pairs
    at = np.searchsorted(first, entry_at)
    shift = np.repeat(entry_at[:-1], at[1:] - at[:-1])
    return first - shift, second - shift, at.tolist()


def slot_block(
    live: ActiveSet,
    step_index: np.ndarray,
    batch: int,
    model,
    netcfg: NetworkConfig,
    rngs: dict[str, np.random.Generator],
    bounds: ActionBounds,
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
    (``step_fn`` given) draws only the environment, and projects onto the
    bounds with no perturbation.
    """
    lower, upper = bounds.lower[live.node_idx], bounds.upper[live.node_idx]
    common = dict(k0=k0, batch=batch, model=model, live=live, step_index=step_index,
                  entry_at=live.offsets[::batch], lower=lower, upper=upper,
                  start=np.full(live.size, np.nan))
    if pert is None:
        return SlotBlock(**common, env=model.sample_env(live, rngs["channel"]), lo=lower, hi=upper,
                         gain=step_fn(step_index), gamma_phi=np.broadcast_to(0.0, live.size),
                         direction=exact_gradient, what="gradient")
    beta, gamma = schedule.beta(step_index), schedule.gamma(step_index)
    phi = pert.sample(rngs["perturbation"], size=live.size)
    lo, hi = _shrunk_interval(lower, upper, pert.alpha_phi, gamma)
    return SlotBlock(
        **common, beta=beta, gamma=gamma, phi=phi, gain=beta * phi, gamma_phi=gamma * phi,
        env=model.sample_env(live, rngs["channel"]),
        noise=(sample_obs_noise(sigma_eta, live.size, rngs["noise"], netcfg.noise)
               if sigma_eta else None),
        q_r=netcfg.q_reception, heard=sample_reception(live, netcfg.q_reception, rngs["reception"]),
        lo=lo, hi=hi, direction=learner_estimate, what="utility estimate")


def learner_estimate(a: np.ndarray, block: SlotBlock, wave: WaveView) -> np.ndarray:
    """The perturb -> act -> observe -> exchange step of a wave, for its live
    entries.

    ``a`` holds the slot-start actions of the wave's entries.  Returns the
    estimates f~ at the performed actions a + gamma~ * phi.  Without noise
    nothing is added: adding zeros would only turn a utility of -0.0 into
    +0.0, and every f~ sums from +0.0, so no estimate would change.
    """
    e = wave.entries
    u_tilde = block.model.local_utilities(a + block.gamma_phi[e], wave, wave.env)
    if block.noise is not None:
        u_tilde += block.noise[e]
    return estimate_global_utility(u_tilde, wave, block.q_r, wave.heard)


def exact_gradient(a: np.ndarray, block: SlotBlock, wave: WaveView) -> np.ndarray:
    """The baseline's direction on a wave: the exact gradient of each slot's
    global utility at the slot-start actions ``a``."""
    return block.model.global_gradient(a, wave, wave.env)


def _flagged(block: SlotBlock, entry: int, what: str) -> str:
    """A failure message naming the slot and the (replication, node) of one
    of the block's entries."""
    s, rep = divmod(int(block.live.batch_idx[entry]), block.batch)
    return (f"slot {block.k0 + s}: {what} at (replication, node) = "
            f"{(rep, int(block.live.node_idx[entry]))}")


def assert_feasible(block: SlotBlock, start: int, stop: int) -> None:
    """Raise :class:`FeasibilityError` unless the performed action
    a + gamma~ * phi of each of the block's entries ``start:stop`` lies in
    its bounds, a being its slot-start action in ``block.start`` (an entry
    whose step has not run holds nan there, and passes).

    The message names the first entry outside: the earliest such slot, and
    in it the first (replication, node).
    """
    e = slice(start, stop)
    a_hat = block.start[e] + block.gamma_phi[e]
    outside = (a_hat < block.lower[e]) | (a_hat > block.upper[e])
    if outside.any():
        raise FeasibilityError(_flagged(block, start + int(outside.argmax()),
                                        "performed action left its interval"))


def dosp_slot(a: np.ndarray, block: SlotBlock, wave: WaveView) -> np.ndarray:
    """The step of either algorithm on a wave of ``block``, from slot-start
    actions ``a``.

    Takes the block's direction d (f~ or the exact gradient), writes it to
    ``block.f_tilde`` in a traced run, and returns clip(a + gain * d) to the
    bounds, as a new array.  A non-finite d raises :class:`NumericError`
    naming its slot, after :func:`assert_feasible` on the block's entries up
    to that slot's end: an infeasible performed action in an earlier slot or
    the same one fails first, as it would in slots run one by one.
    """
    d = block.direction(a, block, wave)
    e = wave.entries
    # d . d is finite only if every d is, and costs less than an elementwise test
    if not math.isfinite(d.dot(d)) and not (finite := np.isfinite(d)).all():
        j = e.start + int(finite.argmin())
        slot_end = block.entry_at[block.live.batch_idx[j] // block.batch + 1]
        assert_feasible(block, 0, int(slot_end))
        raise NumericError(_flagged(block, j, f"non-finite {block.what}"))
    if block.f_tilde is not None:
        block.f_tilde[e] = d
    step = block.gain[e] * d
    step += a
    np.maximum(step, block.lower[e], out=step)
    return np.minimum(step, block.upper[e], out=step)


def _waves(block: SlotBlock, record_at) -> list[int]:
    """Slot boundaries of the waves of ``block``: the maximal runs of
    consecutive slots in which no cell is live twice, with a new wave at
    every slot in ``record_at``.

    Slot s joins the open wave unless the latest earlier entry of one of its
    cells lies in the wave: the slot's maximum of ``block.previous`` (junk if
    the slot is empty; the -1 past the last entry keeps it in range).
    """
    latest = np.maximum.reduceat(block.previous, block.entry_at[:-1]).tolist()
    entry_at = block.entry_at.tolist()
    bounds = [0]
    for s in range(1, block.slots):
        if (latest[s] >= entry_at[bounds[-1]] and entry_at[s] < entry_at[s + 1]
                or block.k0 + s in record_at):
            bounds.append(s)
    bounds.append(block.slots)
    return bounds


# The learner's trace: one row per live entry of every slot, in slot,
# replication and node order.  Every column but the slot-start action a and
# the estimate f~, which the step writes to the block, is one of the block's
# own draws; a_hat = a + gamma~ * phi is the step's own sum.  delta is 1 on
# every row, so it is not stored.
TRACE_COLUMNS = ("replication", "k", "node", "ell", "a", "a_hat", "f_tilde", "beta",
                 "gamma", "phi")


def _run_block(block: SlotBlock, acts: np.ndarray, record_at, traces):
    """Run the state-dependent step of ``block`` wave by wave on the raveled
    actions ``acts``, and append the block's trace columns to ``traces`` when
    it is a list; see :func:`run_slots`."""
    if traces is not None:
        block.f_tilde = np.empty(block.live.size)
    b, k0, offsets = block.batch, block.k0, block.live.offsets
    plan = WavePlan(block, _waves(block, record_at))
    checked = 0  # the entries before this one performed feasible actions
    for w, s in enumerate(plan.bounds[:-1]):
        wave = plan.view(w)
        e = wave.entries
        cells = block.cells[e]
        a = np.minimum(np.maximum(acts[cells], block.lo[e]), block.hi[e], out=block.start[e])
        if k0 + s in record_at:
            assert_feasible(block, checked, e.start)
            checked = e.start
            # the record slot opens its wave: only its own entries are projected yet
            own = offsets[(s + 1) * b] - e.start
            acts[cells[:own]] = a[:own]
            yield k0 + s, np.diff(offsets[s * b:(s + 1) * b + 1])
        acts[cells] = dosp_slot(a, block, wave)
    assert_feasible(block, checked, block.live.size)
    if traces is not None:
        s, rep = np.divmod(block.live.batch_idx, block.batch)
        traces.append((rep, block.k0 + s, block.live.node_idx, block.step_index,
                       block.start, block.start + block.gamma_phi, block.f_tilde,
                       block.beta, block.gamma, block.phi))


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
    traces: dict[str, np.ndarray] | None = None,
):
    """Advance ``states`` through slots 1 .. ``horizon`` in slot blocks.

    A generator: nothing runs until it is iterated.  It yields
    ``(k, n_active)`` at the start of every slot k in ``record_at``, with
    ``states.actions`` as they stand then.  The learner runs when ``pert``
    is given (with ``schedule`` and ``sigma_eta``), the exact-gradient
    baseline with step sizes ``step_fn`` otherwise.  The learner projects a
    slot's live entries onto their shrunk interval at the start of the slot,
    and after the last slot those of the next one.  ``traces``, when a
    dict, receives the learner's trace once the last slot has run: one array
    per :data:`TRACE_COLUMNS` name; a baseline run leaves it empty.
    """
    batch = states.actions.shape[0]
    states.actions = np.ascontiguousarray(states.actions)
    acts = states.actions.reshape(-1)
    learner = pert is not None
    blocks = [] if learner and traces is not None else None
    size = block_slots(netcfg, batch, model.pairwise_env or (learner and netcfg.q_reception < 1))
    k0 = 1
    while k0 <= horizon:
        slots = min(size, horizon - k0 + 1)
        # no reference to a block outlives its run, so blocks never overlap in memory
        yield from _run_block(
            _advance(states, k0, slots, model, netcfg, rngs, bounds, schedule=schedule,
                     pert=pert, sigma_eta=sigma_eta, step_fn=step_fn),
            acts, record_at, blocks)
        k0 += slots
    if learner:
        nxt = states.live
        entries = (nxt.batch_idx, nxt.node_idx)
        ell = (sample_step_index(horizon + 1, netcfg.q_activity, nxt, rngs["index"])
               if states.activations is None else states.activations[entries] + 1)
        states.actions[entries] = project(states.actions[entries], nxt.node_idx, bounds,
                                          pert.alpha_phi, schedule.gamma(ell))
    if blocks:
        traces.update(zip(TRACE_COLUMNS, map(np.concatenate, zip(*blocks))))

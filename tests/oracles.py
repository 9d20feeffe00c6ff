"""Scalar and dense reference implementations that the tests compare the
batched library code against, the Monte-Carlo gradient-bias oracle that
runs the slot engine's own estimate, the row-by-row csv.writer loops that
the columnar CSV writer must match byte for byte, the model constants as
separate samplers drew them, the Monte-Carlo averages drawn and evaluated
on all their rows at once, and the role streams with one role reseeded."""

from __future__ import annotations

import csv
import math
import os
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from dosp.analysis import MAX_AVERAGE_K, ModelConstants, step_moments
from dosp.core import ROLES, ActionBounds, ConfigError, RngStream, StepSizeSchedule
from dosp.harness import (
    BOUNDS_COLUMNS, CONSTANTS_STREAM, TRACE_COLUMNS, TRACE_HEADER, TRAJECTORY_COLUMNS)
from dosp.objectives import QuadraticModel
from dosp.network import ActiveSet, _offsets, sample_activity
from dosp.optimizer import WavePlan, WaveView, learner_estimate, sample_step_index, slot_block


def reseeded_role_streams(overrides: dict[str, int]):
    """A stand-in for ``role_streams`` that draws each role named in
    ``overrides`` from its own seed and every other role as ``role_streams``
    does; patched onto ``dosp.harness.role_streams``, it reseeds one role of a
    run while freezing the others."""
    def streams(seed: int) -> dict[str, np.random.Generator]:
        return {name: RngStream(overrides.get(name, seed), idx).generator()
                for idx, name in enumerate(ROLES)}
    return streams


def scatter(live: ActiveSet, values) -> np.ndarray:
    """Per-entry ``values`` of ``live`` as a dense (B, N) array, 0 elsewhere."""
    out = np.zeros(live.shape, dtype=np.asarray(values).dtype)
    out[live.batch_idx, live.node_idx] = values
    return out


def mask_of(live: ActiveSet) -> np.ndarray:
    """The (B, N) activity mask of ``live``."""
    return scatter(live, np.ones(live.size, dtype=bool))


def per_row_poisson_activity(cfg, rng: np.random.Generator, rows: int) -> ActiveSet:
    """Poisson activity drawn one row at a time: a count, then that many
    distinct uniform nodes.  The law reference for ``sample_activity``."""
    n = cfg.n_nodes
    # Poisson large-N regime: n_k ~ Poisson(lambda) capped at N, nodes uniform.
    counts = np.zeros(rows, dtype=np.int64)
    chosen = []
    for row in range(rows):
        size = min(int(rng.poisson(cfg.expected_active)), n)
        if size:
            counts[row] = size
            chosen.append(rng.choice(n, size=size, replace=False) + row * n)
    # flat (row, node) keys, sorted once into row-major, node-ascending order
    keys = np.sort(np.concatenate(chosen)) if chosen else np.zeros(0, dtype=np.int64)
    return ActiveSet((rows, n), keys // n, keys % n, _offsets(counts))


class CountingGenerator:
    """Wraps a generator and tallies, per method, the variates it returned."""

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self.counts = Counter()

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.counts[name] += np.size(out)
            return out

        return counted

    def total(self) -> int:
        return sum(self.counts.values())


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


# -- per-slot binomial step averages -------------------------------------------
# One binomial window per slot, evaluated in a Python loop over slots: the
# reference for ``dosp.analysis.binomial_averages`` and ``step_moments``.

_FULL_RANGE_K = 2048


def binomial_weights(k: int, q_a: float) -> tuple[np.ndarray, np.ndarray]:
    """Index grid and weights of the averaged-step operator at slot ``k``.

    Returns (ell, w) with w_ell = C(k-1, ell-1) * q_a^ell * (1-q_a)^(k-ell);
    the weights sum to q_a (the inactive-slot mass sits at step size zero).
    For large k only a +-12-sigma window of the binomial is materialized.
    """
    if k < 1:
        raise ValueError("slot index starts at 1")
    if k > MAX_AVERAGE_K:
        raise ValueError(f"k = {k} exceeds the cost guard {MAX_AVERAGE_K}")
    if q_a == 1.0:
        return np.array([k]), np.array([1.0])
    n = k - 1
    if n <= _FULL_RANGE_K:
        t = np.arange(0, n + 1)
    else:
        mean = n * q_a
        sd = math.sqrt(n * q_a * (1.0 - q_a))
        lo = max(0, int(mean - 12.0 * sd - 40.0))
        hi = min(n, int(mean + 12.0 * sd + 40.0))
        t = np.arange(lo, hi + 1)
    logw = (
        gammaln(n + 1) - gammaln(t + 1) - gammaln(n - t + 1)
        + (t + 1) * math.log(q_a) + (n - t) * math.log1p(-q_a)
    )
    return t + 1, np.exp(logw)


def binomial_average(x, k: int, q_a: float) -> float:
    """Average of the sequence ``x`` under the slot-k activity/index law.

    ``x`` is a vectorized evaluator defined on integer indices 1..k.
    """
    ell, w = binomial_weights(k, q_a)
    return float(np.dot(np.asarray(x(ell), dtype=float), w))


@dataclass(frozen=True)
class AveragedSteps:
    """The six averaged step-size moments at one slot."""

    k: int
    bg: float  # E[beta~ * gamma~]
    b: float  # E[beta~]
    g: float  # E[gamma~]
    b2: float  # E[beta~^2]
    g2: float  # E[gamma~^2]
    bg2: float  # E[beta~ * gamma~^2]


def averaged_steps(schedule: StepSizeSchedule, k: int, q_a: float) -> AveragedSteps:
    """All six averaged step sizes at slot ``k`` from one weight evaluation."""
    ell, w = binomial_weights(k, q_a)
    beta = schedule.beta(ell)
    gamma = schedule.gamma(ell)
    return AveragedSteps(
        k=k,
        bg=float(np.dot(beta * gamma, w)),
        b=float(np.dot(beta, w)),
        g=float(np.dot(gamma, w)),
        b2=float(np.dot(beta * beta, w)),
        g2=float(np.dot(gamma * gamma, w)),
        bg2=float(np.dot(beta * gamma * gamma, w)),
    )


def averaged_steps_grid(schedule: StepSizeSchedule, ks, q_a: float) -> dict[str, np.ndarray]:
    """Vectorized ``averaged_steps`` over a slot grid; returns arrays keyed by moment."""
    ks = np.asarray(ks, dtype=int)
    out = {name: np.empty(ks.size) for name in ("bg", "b", "g", "b2", "g2", "bg2")}
    for j, k in enumerate(ks):
        s = averaged_steps(schedule, int(k), q_a)
        for name in out:
            out[name][j] = getattr(s, name)
    return out


# -- dense single-configuration power-control model ---------------------------
# ``channel`` is a full (N, N) gain matrix, entry (i, j) transmitter i ->
# receiver j; ``delta`` is one activity row.  Only the active block is read.

def dense_channel(n_nodes: int, spec, rng: np.random.Generator) -> np.ndarray:
    """Fresh i.i.d. power-gain matrix under ``spec``'s fading law."""
    def gains(shape, var):
        if spec.fading == "real_gaussian":
            h = rng.standard_normal(shape)
            return var * h * h
        return rng.exponential(var, size=shape)

    s = gains((n_nodes, n_nodes), spec.var_cross)
    np.fill_diagonal(s, gains(n_nodes, spec.var_direct))
    return s


def _active_block(model, a_hat, delta, channel):
    act = np.flatnonzero(delta)
    sub = np.asarray(channel)[np.ix_(act, act)]
    direct = np.diag(sub)
    p = np.exp(np.asarray(a_hat, dtype=float)[act])
    interf = model.channel.noise_floor + p @ sub - direct * p
    return act, sub, direct, p, interf


def dense_utilities(model, a_hat, delta, channel) -> np.ndarray:
    """Local utilities of every node; zero where inactive."""
    act, _, direct, p, interf = _active_block(model, a_hat, delta, channel)
    a_act = np.asarray(a_hat, dtype=float)[act]
    u = np.zeros(model.n_nodes)
    u[act] = model.omega1 * (np.log(direct) + a_act - np.log(interf)) - model.omega2 * p
    return u


def dense_gradient(model, a_hat, delta, channel) -> np.ndarray:
    """Exact gradient of the summed local utilities; zero for inactive nodes."""
    act, sub, direct, p, interf = _active_block(model, a_hat, delta, channel)
    leak = (sub / interf[None, :]).sum(axis=1) - direct / interf
    g = np.zeros(model.n_nodes)
    g[act] = model.omega1 - model.omega2 * p - model.omega1 * p * leak
    return g


def dense_hessian(model, a_hat, delta, channel) -> np.ndarray:
    """Exact (N, N) Hessian of the summed local utilities; zero off the active block."""
    act, sub, _, p, interf = _active_block(model, a_hat, delta, channel)
    w = sub / interf[None, :]
    np.fill_diagonal(w, 0.0)
    # cross term: omega1 p_i p_j sum_{n != i, j} s_in s_jn / I_n^2
    block = model.omega1 * np.outer(p, p) * (w @ w.T)
    block[np.diag_indices(act.size)] -= model.omega2 * p + model.omega1 * p * w.sum(axis=1)
    H = np.zeros((model.n_nodes, model.n_nodes))
    H[np.ix_(act, act)] = block
    return H


# -- gradient-estimate bias of the learner's slot -----------------------------

def block_slot(block, s: int):
    """Slot k0 + s of a :class:`dosp.optimizer.SlotBlock` as a wave of one
    slot: a copy of its :class:`dosp.optimizer.WaveView`, with the slot
    ``k`` and its live entries ``live`` as their own list for the checks
    that read them."""
    bounds = sorted({0, s, s + 1, block.slots})
    view = WavePlan(block, bounds).view(bounds.index(s))
    b = block.batch
    return SimpleNamespace(**{name: getattr(view, name) for name in WaveView.__slots__},
                           k=block.k0 + s, live=block.live.rows(s * b, (s + 1) * b))


def mc_gradient_bias(model, schedule, netcfg, pert, sigma_eta, a, node, k,
                     n_samples, rng, grad_F=None, chunk=20_000):
    """Monte-Carlo estimate of one node's gradient-estimate bias at slot ``k``.

    Freezes the action vector, draws each sample's activity and indices with
    the learner's samplers, and runs the slot engine's own estimate on a
    one-slot block of samples (:func:`dosp.optimizer.slot_block`, then
    :func:`dosp.optimizer.learner_estimate`) with every randomness role on
    ``rng``.  Averages the raw update g = beta~ * phi * f~ of ``node``,
    rescales by q_a / (sigma_phi^2 * bg_k), and subtracts the true
    averaged-utility gradient component.  Returns (bias estimate, standard
    error).  ``grad_F`` supplies the exact gradient (defaults to the
    quadratic model's closed form).
    """
    a = np.asarray(a, dtype=float)
    q_a = netcfg.q_activity
    bg = float(step_moments(schedule, [k], q_a)["bg"][0])
    if grad_F is None:
        if not hasattr(model, "targets"):
            raise ValueError("pass grad_F explicitly for models without a closed form")
        grad_F = lambda point: -2.0 * q_a * (point - model.targets)
    target_grad = float(np.asarray(grad_F(a))[node])
    rngs = dict.fromkeys(ROLES, rng)
    unbounded = ActionBounds.uniform(netcfg.n_nodes, -np.inf, np.inf)  # a is not projected

    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        live = sample_activity(netcfg, rng, m)
        step_index = sample_step_index(k, q_a, live, rng)
        block = slot_block(live, step_index, m, model, netcfg, rngs, unbounded,
                           schedule=schedule, pert=pert, sigma_eta=sigma_eta)
        f_tilde = learner_estimate(a[live.node_idx], block, block_slot(block, 0))
        # samples where the node is inactive contribute g = 0
        g = (block.beta * block.phi * f_tilde)[live.node_idx == node]
        total += float(g.sum())
        total_sq += float(np.dot(g, g))
        done += m

    mean_g = total / n_samples
    var_g = max(total_sq / n_samples - mean_g**2, 0.0) * n_samples / (n_samples - 1)
    scale = q_a / (pert.sigma_phi_sq * bg)
    bias = scale * mean_g - target_grad
    stderr = scale * math.sqrt(var_g / n_samples)
    return bias, stderr


# -- row-by-row CSV emission ---------------------------------------------------
# csv.writer fed one row of Python objects at a time: the reference for
# ``dosp.harness.write_csv`` and the files ``emit_outputs`` and ``dosp bounds``
# write through it.

def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def reference_csv(path, header, columns) -> None:
    """``columns`` written row by row through csv.writer: ``int`` of an int
    array's entries, ``repr(float)`` of a float array's, strings as given."""
    def cells(column):
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            return [_fmt(v) for v in column]
        if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
            return [int(v) for v in column]
        return list(column)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*map(cells, columns)))


def reference_outputs(dataset, out_dir) -> list[str]:
    """trajectory.csv, divergence_mean.csv and one trace_rep###.csv per
    replication with a live entry, as ``emit_outputs`` writes them."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    traj_path = os.path.join(out_dir, "trajectory.csv")
    with open(traj_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for r in range(dataset.n_active.shape[0]):
            for j, k in enumerate(dataset.ks):
                writer.writerow([
                    r,
                    int(k),
                    _fmt(dataset.d[r, j]) if dataset.d is not None else "",
                    _fmt(dataset.f_hat[r, j]) if dataset.f_hat is not None else "",
                    _fmt(dataset.f_stderr[r, j]) if dataset.f_stderr is not None else "",
                    int(dataset.n_active[r, j]),
                ])
    written.append(traj_path)

    if dataset.d is not None:
        mean_path = os.path.join(out_dir, "divergence_mean.csv")
        with open(mean_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "D_k", "D_stderr"])
            err = dataset.D_stderr
            for j, k in enumerate(dataset.ks):
                writer.writerow([int(k), _fmt(dataset.D[j]),
                                 _fmt(err[j]) if err is not None else ""])
        written.append(mean_path)

    if dataset.traces:
        reps = dataset.traces["replication"]
        columns = [dataset.traces[name] for name in TRACE_COLUMNS[1:]]
        for r in np.flatnonzero(np.bincount(reps)).tolist():
            rows = np.flatnonzero(reps == r)
            path = os.path.join(out_dir, f"trace_rep{r:03d}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(TRACE_HEADER)
                k, node, *rest = (c[rows].tolist() for c in columns)
                writer.writerows(zip(k, node, repeat(1), *rest))
            written.append(path)
    return written


def reference_bounds_csv(path, grid, params, table, diag) -> None:
    """bounds.csv of ``dosp bounds``: the rate parameters, envelopes and bias
    diagnostics on ``grid``."""
    theta, upsilon, psi = params.at(grid)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOUNDS_COLUMNS)
        for j, k in enumerate(grid):
            writer.writerow([
                int(k), repr(float(theta[j])), repr(float(upsilon[j])),
                repr(float(psi[j])), repr(float(table.envelope_a[j])),
                repr(float(table.envelope_b[j])), repr(float(table.asymptotic[j])),
                repr(float(diag.w_bound[j])), repr(float(diag.omega[j])),
                table.status[j],
            ])


# -- model constants -----------------------------------------------------------
# The constants as three samplers drew them, the power model's 200-row sample
# twice from fresh generators: the reference for
# ``dosp.harness.model_constants``, which draws each sample once.

def reference_constants_sample(cfg, model, rng):
    """The sample a model's constants are estimated on: 200 activity rows
    less those with no live node (they carry no curvature), their
    environment, and (rows, N) actions uniform in the bounds."""
    live = sample_activity(cfg.network, rng, 200).without_empty_rows()
    env = model.sample_env(live, rng)
    return live, env, rng.uniform(cfg.bounds.lower, cfg.bounds.upper, size=live.shape)


def reference_estimate_alpha_G(cfg, model) -> tuple[float, str]:
    """The curvature constant alpha_G of the config's model and where it
    comes from: the quadratic model's closed form, or the power model's
    largest |global_hessian| entry over :func:`reference_constants_sample`
    (drawn from stream ``CONSTANTS_STREAM`` of the config's seed)."""
    if isinstance(model, QuadraticModel):
        return model.alpha_G, "closed form"
    live, env, a = reference_constants_sample(
        cfg, model, RngStream(cfg.seed, CONSTANTS_STREAM).generator())
    hessian = model.global_hessian(a[live.batch_idx, live.node_idx], live, env)
    alpha_G = float(np.abs(hessian).max(initial=0.0))
    if not alpha_G > 0:
        raise ConfigError("no curvature in the sampled rows: alpha_G could not be estimated")
    return alpha_G, "sampled max |global_hessian|"


def reference_estimate_lipschitz(
    model,
    bounds,
    cfg,
    rng: np.random.Generator,
    n_draws: int = 10_000,
    pairs_per_draw: int = 4,
) -> float:
    """Empirical Lipschitz constant of a -> u_i over the feasible box.

    Max observed ratio |u_i(a) - u_i(a')| / ||(a - a') o delta|| across
    sampled (activity, channel) draws; an estimate, not a certified bound.
    """
    live = sample_activity(cfg, rng, n_draws // pairs_per_draw).without_empty_rows()
    env = model.sample_env(live, rng)
    entries = (live.batch_idx, live.node_idx)
    worst = 0.0
    for _ in range(pairs_per_draw):
        a = rng.uniform(bounds.lower, bounds.upper, size=live.shape)[entries]
        b = rng.uniform(bounds.lower, bounds.upper, size=live.shape)[entries]
        du = np.abs(model.local_utilities(a, live, env) - model.local_utilities(b, live, env))
        denom = np.sqrt(np.bincount(live.batch_idx, weights=(a - b) ** 2,
                                    minlength=live.shape[0]))
        ratio = np.maximum.reduceat(du, live.offsets[:-1]) / np.where(denom > 0, denom, np.inf)
        worst = max(worst, float(ratio.max(initial=0.0)))
    return worst


def reference_model_constants(cfg, model, a_star) -> ModelConstants:
    """``dosp bounds``' constants; ConfigError where the power model's
    sampled alpha_F is not positive."""
    if isinstance(model, QuadraticModel):
        return ModelConstants(
            alpha_F=model.alpha_F(cfg.network.q_activity),
            alpha_G=model.alpha_G,
            lipschitz=model.lipschitz(cfg.bounds),
            sigma_eta=cfg.sigma_eta,
            sigma_a_sq=cfg.bounds.sigma_a_sq,
        )
    # power model: curvature and Lipschitz constants have no closed form,
    # estimate them from sampled configurations and flag the estimate
    alpha_G, _ = reference_estimate_alpha_G(cfg, model)
    # the draws alpha_G was estimated on, then the Lipschitz draws
    rng = RngStream(cfg.seed, CONSTANTS_STREAM).generator()
    live, env, a = reference_constants_sample(cfg, model, rng)
    entries = (live.batch_idx, live.node_idx)
    g = model.global_gradient(a[entries], live, env)
    d = a - a_star
    denom = (d * d).sum(axis=1)
    ascent = np.bincount(live.batch_idx, weights=d[entries] * g, minlength=live.shape[0])
    keep = denom > 1e-9
    alpha_F = float(np.min(-ascent[keep] / denom[keep], initial=np.inf))
    lipschitz = reference_estimate_lipschitz(model, cfg.bounds, cfg.network, rng, n_draws=2000)
    if not np.isfinite(alpha_F) or alpha_F <= 0:
        raise ConfigError(
            "could not certify a positive strong-concavity constant for the "
            "power model; rate bounds are only quantitative on the quadratic model")
    return ModelConstants(
        alpha_F=float(alpha_F), alpha_G=alpha_G, lipschitz=lipschitz,
        sigma_eta=cfg.sigma_eta, sigma_a_sq=cfg.bounds.sigma_a_sq,
        sampled=True,
    )


# -- one-shot Monte-Carlo averages ---------------------------------------------
# Every row drawn and evaluated at once, as before the row chunks: the
# reference for ``dosp.harness.eval_F_batch`` and ``avg_gradient``.

def one_block_activity(cfg, rng: np.random.Generator, rows: int) -> ActiveSet:
    """Activity of ``rows`` rows from one draw: binomial rows from one
    (rows, N) uniform block, Poisson rows from ``sample_activity``."""
    if cfg.activity == "binomial":
        return ActiveSet.from_mask(rng.random((rows, cfg.n_nodes)) < cfg.q_activity)
    return sample_activity(cfg, rng, rows)


def _one_shot(evaluate, model, actions, netcfg, n_samples, rng):
    live = one_block_activity(netcfg, rng, actions.shape[0] * n_samples)
    env = model.sample_env(live, rng)
    return live, evaluate(actions[live.batch_idx // n_samples, live.node_idx], live, env)


def reference_eval_F_batch(model, actions, netcfg, n_samples, rng):
    """Monte-Carlo averaged utility and its standard error per action row."""
    b = actions.shape[0]
    live, u = _one_shot(model.local_utilities, model, actions, netcfg, n_samples, rng)
    f = np.bincount(live.batch_idx, weights=u, minlength=b * n_samples).reshape(b, n_samples)
    return f.mean(axis=1), f.std(axis=1, ddof=1) / math.sqrt(n_samples)


def reference_avg_gradient(model, point, netcfg, n_samples, rng):
    """Monte-Carlo average of the exact global gradient at ``point``, per node."""
    live, g = _one_shot(model.global_gradient, model, point[None, :], netcfg, n_samples, rng)
    return np.bincount(live.node_idx, weights=g, minlength=netcfg.n_nodes) / n_samples

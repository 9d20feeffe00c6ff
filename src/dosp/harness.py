"""Experiment orchestration: config files, the model constants, seeded
replication runs, trajectory metrics, slope fits, and CSV/SVG emission.

Replications are advanced together as one vectorized batch; a run is a pure
function of its config, so outputs are byte-identical across reruns.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import numbers
import os
import signal
import zipfile
from dataclasses import asdict, dataclass, is_dataclass
from itertools import chain, islice
from types import UnionType
from typing import Literal, Union, get_args, get_origin

import numpy as np
import yaml

from .core import (
    ActionBounds,
    ConfigError,
    ModelConstants,
    NumericError,
    PerturbationSpec,
    RngStream,
    StepSizeSchedule,
    role_streams,
)
from .network import ActiveSet, NetworkConfig, sample_activity
from .objectives import MODELS, PowerControlModel, QuadraticModel
from .optimizer import IndexMode, TRACE_COLUMNS, block_slots, initialize_states, run_slots

TRAJECTORY_COLUMNS = ("replication", "k", "d_k", "F_hat", "F_stderr", "n_active")
# a replication's trace file: the trace columns after replication, and delta = 1
TRACE_HEADER = (*TRACE_COLUMNS[1:3], "delta", *TRACE_COLUMNS[3:])
_CSV_CHUNK = 1024  # rows formatted, and written, at once
_MC_CHUNK_BLOCKS = 4  # single-row slot blocks per Monte-Carlo chunk
# Monte-Carlo chunks the F_hat worker draws before a record's actions arrive:
# all 16 of power-repro's record (20 x 2000 rows, N = 50, q_a = 0.05).  They
# hold 10.2 MB beside the record's 1.9 MB activity (tracemalloc, numpy 2.4),
# and the worker's peak resident set rises from about 32 to 40 MB.
_MC_AHEAD_CHUNKS = 16
_SOLVE_BLOCK = 100  # solve_optimum's iterations per averaged, certified block
# PyYAML's safe loader, on libyaml when PyYAML was built with it
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
SECTIONS = ("model", "network", "schedule", "perturbation", "bounds", "run")  # of a config
BOUNDS_COLUMNS = ("k", "theta", "upsilon", "psi", "envelope_th3_a",
                  "envelope_th3_b", "envelope_th4", "w_bound", "omega", "status")


class ConvergenceError(RuntimeError):
    """Optimum search did not reach tolerance."""


@dataclass
class ExperimentConfig:
    """Complete description of one experiment; round-trips through
    :meth:`to_dict` and :meth:`from_dict`.  Its annotations, and the section
    classes' and model constructors', are the schema that every config is
    checked against, whether built in Python or loaded from a document."""

    network: NetworkConfig
    schedule: StepSizeSchedule
    perturbation: PerturbationSpec
    bounds: ActionBounds
    model_kind: Literal["power", "quadratic"]  # the keys of objectives.MODELS
    model_params: dict
    horizon: int
    replications: int
    seed: int
    metrics_stride: int = 100
    f_mc_samples: int = 2000  # 0 disables utility estimation, else >= 2
    sigma_eta: float = 0.0
    algorithm: Literal["dosp_s", "ideal_gradient"] = "dosp_s"
    baseline_step: Literal["beta", "beta_gamma"] | float = "beta"  # or a constant step
    index_mode: IndexMode = "sampled"
    divergence: Literal["auto", "require", "skip"] = "auto"

    def __post_init__(self):
        if "kind" in self.model_params:  # to_dict would write it over model_kind
            raise ConfigError("model.kind is the config's model_kind; model_params may not "
                              f"hold a 'kind' key, got {self.model_params['kind']!r}")
        _check_document(self.to_dict())  # a config built in Python is checked as a file's is
        if self.horizon < 1 or self.replications < 1 or self.metrics_stride < 1:
            raise ConfigError("horizon, replications and metrics_stride must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.baseline_step, str) and not self.baseline_step > 0:
            raise ConfigError("constant baseline step must be positive")
        if self.f_mc_samples < 0 or self.f_mc_samples == 1:
            raise ConfigError(
                f"f_mc_samples must be 0 (off) or >= 2, got {self.f_mc_samples}")
        if self.sigma_eta < 0:
            raise ConfigError("sigma_eta must be >= 0")
        if self.bounds.n_nodes not in (1, self.network.n_nodes):
            raise ConfigError("bounds must be scalar or one interval per node")
        if self.bounds.n_nodes == 1:
            lo = float(self.bounds.lower[0])
            hi = float(self.bounds.upper[0])
            object.__setattr__(
                self, "bounds", ActionBounds.uniform(self.network.n_nodes, lo, hi))
        build_model(self)  # rejects bad model parameters at load time, not mid-run

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        lower = self.bounds.lower
        upper = self.bounds.upper
        uniform = np.all(lower == lower[0]) and np.all(upper == upper[0])
        # a dataclass parameter (a ChannelSpec) is written as its mapping, so
        # that the document is plain data
        model = {key: asdict(value) if is_dataclass(value) and not isinstance(value, type)
                 else value for key, value in self.model_params.items()}
        return {
            "model": {"kind": self.model_kind, **model},
            "network": asdict(self.network),
            "schedule": asdict(self.schedule),
            "perturbation": asdict(self.perturbation),
            "bounds": {
                "lower": float(lower[0]) if uniform else [float(v) for v in lower],
                "upper": float(upper[0]) if uniform else [float(v) for v in upper],
            },
            "run": {name: getattr(self, name) for name in _run_table(type(self))},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        # checked before the sections are built: their constructors compare values
        kind, perturbation, (model, net, sched, pert, bounds, run) = _check_document(d)
        return cls(network=NetworkConfig(**net), schedule=StepSizeSchedule(**sched),
                   perturbation=perturbation(**pert), bounds=ActionBounds(**bounds),
                   model_kind=kind, model_params=model, **run)

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                d = parse_yaml(fh)
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read config file {path}: {reason}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed YAML in {path}: {exc}".replace("\n", " ")) from exc
        return cls.from_dict(d)


def parse_yaml(source):
    """The data of one YAML document (a string or a text file), as
    ``yaml.safe_load`` reads it."""
    return yaml.load(source, Loader=_YAML_LOADER)


def _check_document(d) -> tuple:
    """The sections of the config document ``d``, checked against the schema
    of :class:`ExperimentConfig`: the model's kind, the perturbation's
    constructor, and the six sections in ``SECTIONS`` order, each a new dict
    without its kind.  Raises a ConfigError naming the first section or key
    that is unknown, missing or of the wrong type."""
    if not isinstance(d, dict):
        raise ConfigError(f"a config is a mapping of the sections {', '.join(SECTIONS)}, "
                          f"got {'an empty document' if d is None else type(d).__name__}")
    if unknown := [str(key) for key in d if key not in SECTIONS]:
        raise ConfigError(f"unknown config key(s) {', '.join(unknown)}; "
                          f"expected {', '.join(SECTIONS)}")
    d = {"perturbation": {}, **d}  # rademacher by default
    for name in SECTIONS:
        if name not in d:
            raise ConfigError(f"missing config section {name!r}")
        if not isinstance(d[name], dict):
            raise ConfigError(f"config section {name!r} must be a mapping, "
                              f"got {type(d[name]).__name__}")
    model, net, sched, pert, bounds, run = (dict(d[name]) for name in SECTIONS)
    if "kind" not in model:
        raise ConfigError("missing config key 'model.kind'")
    kind, pert_kind = model.pop("kind"), pert.pop("kind", "rademacher")
    # a kind names the constructor whose parameters are the rest of its section
    _check_value("model.kind", kind, _table(ExperimentConfig)["model_kind"].annotation)
    _check_value("perturbation.kind", pert_kind, _table(PerturbationSpec)["kind"].annotation)
    perturbation = getattr(PerturbationSpec, pert_kind)
    for name, values, table in (
            ("model", model, _table(MODELS[kind], ("n_nodes",))),  # the network's n_nodes
            ("network", net, _table(NetworkConfig)),
            ("schedule", sched, _table(StepSizeSchedule)),
            ("perturbation", pert, _table(perturbation)),
            ("bounds", bounds, _table(ActionBounds)),
            ("run", run, _run_table(ExperimentConfig))):
        _check_section(name, values, table)
    return kind, perturbation, (model, net, sched, pert, bounds, run)


@functools.cache
def _table(schema, skip=()) -> dict[str, inspect.Parameter]:
    """A config section's keys: the parameters of ``schema`` (a class or a
    constructor), ``skip`` aside, by name, with their annotations evaluated."""
    params = inspect.signature(schema, eval_str=True).parameters
    return {name: param for name, param in params.items() if name not in skip}


def _run_table(cls) -> dict[str, inspect.Parameter]:
    """The "run" section's keys: the fields of ``cls`` after ``model_params``;
    the other sections give the fields up to it."""
    names = list(_table(cls))
    return _table(cls, tuple(names[:names.index("model_params") + 1]))


def _check_section(path: str, values: dict, table: dict[str, inspect.Parameter]) -> None:
    """Check the section ``values`` at ``path`` against its ``table``: no unknown
    key (a misspelt key would leave its default in force), no missing required
    one, and every value of its annotated type."""
    if unknown := [str(key) for key in values if key not in table]:
        raise ConfigError(f"unknown {path} key(s) {', '.join(unknown)}; expected {', '.join(table)}")
    for name, param in table.items():
        if name in values:
            _check_value(f"{path}.{name}", values[name], param.annotation)
        elif param.default is param.empty:
            raise ConfigError(f"missing config key '{path}.{name}'")


# the values of a scalar annotation: a bool is never a number, nothing is coerced
_SCALARS = {int: numbers.Integral, float: numbers.Real, type(None): type(None)}
_NAMES = {int: "an integer", float: "a number", type(None): "null", list: "a list"}


def _check_value(path: str, value, kind) -> None:
    """Raise a ConfigError naming ``path`` unless ``value`` is of a type that
    ``kind`` annotates: a float is finite, a mapping is checked as the section
    of a dataclass and a list item by item."""
    members = get_args(kind) if get_origin(kind) in (Union, UnionType) else (kind,)
    for member in members:
        if is_dataclass(member) and isinstance(value, dict):
            return _check_section(path, value, _table(member))
        if get_origin(member) is list and isinstance(value, list):
            item_kind = get_args(member)[0]
            # only a list whose items fail the one-pass check is walked, to
            # name its first bad item
            if not _all_scalars(value, item_kind):
                for i, item in enumerate(value):
                    _check_value(f"{path}[{i}]", item, item_kind)
            return
        if get_origin(member) is Literal and isinstance(value, str) and value in get_args(member):
            return
        if isinstance(value, _SCALARS.get(member, ())) and not isinstance(value, bool):
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{path} must be finite, got {value}")
            return
    names = []
    for member in members:
        if get_origin(member) is Literal:
            name = "one of " + ", ".join(map(repr, get_args(member)))
        else:
            name = _NAMES.get(get_origin(member) or member, "a mapping")
        if name not in names:  # a dataclass and a dict are both a mapping
            names.append(name)
    raise ConfigError(f"{path} must be {' or '.join(names)}, got {value!r}")


def _all_scalars(values: list, kind) -> bool:
    """Whether every item of ``values`` is a value of the scalar annotation
    ``kind`` by :func:`_check_value`'s rule, checked in one pass."""
    scalar = _SCALARS.get(kind, ())
    return all(isinstance(v, scalar) and not isinstance(v, bool)
               and (not isinstance(v, float) or math.isfinite(v)) for v in values)


def build_model(cfg: ExperimentConfig) -> PowerControlModel | QuadraticModel:
    """The configured objective model: the model section, "kind" aside, is
    the keyword arguments of the kind's constructor, n_nodes the network's."""
    return MODELS[cfg.model_kind](n_nodes=cfg.network.n_nodes, **cfg.model_params)


# stream of the config's seed that the sampled model constants draw from
CONSTANTS_STREAM = 99


def constants_sample(cfg: ExperimentConfig, model, rng, rows: int, blocks: int):
    """A sample the model constants are estimated on: ``rows`` activity rows
    less those with no live node (they carry no curvature), their
    environment, and ``blocks`` (rows, N) arrays of actions uniform in the
    bounds, as one (blocks, rows, N) array."""
    live = sample_activity(cfg.network, rng, rows).without_empty_rows()
    env = model.sample_env(live, rng)
    return live, env, rng.uniform(cfg.bounds.lower, cfg.bounds.upper,
                                  size=(blocks, *live.shape))


def model_constants(cfg: ExperimentConfig, model, a_star=None) -> ModelConstants:
    """The constants alpha_F, alpha_G and L of the config's model.

    The quadratic model has closed forms.  The power model's are estimates
    from stream ``CONSTANTS_STREAM`` of the config's seed: on one
    :func:`constants_sample` of 200 rows, alpha_G is the largest
    |global_hessian| entry and alpha_F the smallest -(a - a*).g / |a - a*|^2
    over the rows (nan without ``a_star``); then L is the largest
    |u_i(a) - u_i(a')| / |(a - a') o delta| over the entries of a second
    sample of 500 rows and 4 action pairs.
    """
    if isinstance(model, QuadraticModel):
        return ModelConstants(
            alpha_F=model.alpha_F(cfg.network.q_activity), alpha_G=model.alpha_G,
            lipschitz=model.lipschitz(cfg.bounds), sigma_eta=cfg.sigma_eta,
            sigma_a_sq=cfg.bounds.sigma_a_sq)
    rng = RngStream(cfg.seed, CONSTANTS_STREAM).generator()
    live, env, (a,) = constants_sample(cfg, model, rng, rows=200, blocks=1)
    entries = (live.batch_idx, live.node_idx)
    alpha_G = float(np.abs(model.global_hessian(a[entries], live, env)).max(initial=0.0))
    if not alpha_G > 0:
        raise ConfigError("no curvature in the sampled rows: alpha_G could not be estimated")
    alpha_F = math.nan
    if a_star is not None:
        g = model.global_gradient(a[entries], live, env)
        d = a - a_star
        denom = (d * d).sum(axis=1)
        ascent = np.bincount(live.batch_idx, weights=d[entries] * g, minlength=live.shape[0])
        keep = denom > 1e-9
        alpha_F = float(np.min(-ascent[keep] / denom[keep], initial=np.inf))
    live, env, actions = constants_sample(cfg, model, rng, rows=500, blocks=8)
    actions = actions[:, live.batch_idx, live.node_idx]
    lipschitz = 0.0
    for a, b in zip(actions[0::2], actions[1::2]):
        du = np.abs(model.local_utilities(a, live, env) - model.local_utilities(b, live, env))
        denom = np.sqrt(np.bincount(live.batch_idx, weights=(a - b) ** 2,
                                    minlength=live.shape[0]))
        ratio = np.maximum.reduceat(du, live.offsets[:-1]) / np.where(denom > 0, denom, np.inf)
        lipschitz = max(lipschitz, float(ratio.max(initial=0.0)))
    return ModelConstants(
        alpha_F=alpha_F, alpha_G=alpha_G, lipschitz=lipschitz, sigma_eta=cfg.sigma_eta,
        sigma_a_sq=cfg.bounds.sigma_a_sq, sampled=True)


@dataclass
class TrajectoryDataset:
    """Recorded metrics of one experiment (all replications)."""

    config: ExperimentConfig
    ks: np.ndarray  # (T,)
    n_active: np.ndarray  # (R, T)
    d: np.ndarray | None  # (R, T) squared distance to optimum / N
    f_hat: np.ndarray | None  # (R, T)
    f_stderr: np.ndarray | None  # (R, T)
    a_star: np.ndarray | None
    final_actions: np.ndarray  # (R, N)
    actions: np.ndarray | None = None  # (R, T, N) snapshots, if requested
    traces: dict[str, np.ndarray] | None = None  # learner's trace, by optimizer.TRACE_COLUMNS

    @property
    def D(self) -> np.ndarray | None:
        """Cross-replication mean divergence per recorded slot."""
        return None if self.d is None else self.d.mean(axis=0)

    @property
    def D_stderr(self) -> np.ndarray | None:
        if self.d is None or self.d.shape[0] < 2:
            return None
        return self.d.std(axis=0, ddof=1) / math.sqrt(self.d.shape[0])


def record_slots(horizon: int, stride: int) -> np.ndarray:
    """Slots at which metrics are recorded: 1, every stride, and the horizon."""
    ks = set(range(stride, horizon + 1, stride))
    ks.update((1, horizon))
    return np.array(sorted(ks), dtype=int)


def _mc_draws(model, netcfg: NetworkConfig, rows: int, rng):
    """The random inputs of a Monte-Carlo average over ``rows`` sample rows,
    in stream order: the activity of all rows, drawn now, and a generator
    that draws, per chunk of ``_MC_CHUNK_BLOCKS`` single-row slot blocks'
    worth of rows (:func:`dosp.optimizer.block_slots`), the chunk's slice of
    the activity's entries, its rows and their environment.  The chunks'
    environment draws concatenate to one call's, so no draw depends on the
    chunk size."""
    live = sample_activity(netcfg, rng, rows)
    step = _MC_CHUNK_BLOCKS * block_slots(netcfg, 1, model.pairwise_env)

    def chunks():
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            part = live.rows(lo, hi)
            yield slice(live.offsets[lo], live.offsets[hi]), part, model.sample_env(part, rng)
    return live, chunks()


def _mc_values(evaluate, actions: np.ndarray, n_samples: int, live: ActiveSet,
               chunks) -> np.ndarray:
    """``evaluate`` (``model.local_utilities`` or ``model.global_gradient``)
    on the ``live`` entries of :func:`_mc_draws`, one of its ``chunks`` at a
    time: row r of ``actions`` on sample rows r * n_samples onward.  Returns
    one value per entry in the list's order; each entry's value sums only
    over its own row, so no value depends on the chunk size.
    """
    values = np.empty(live.size)
    for e, part, env in chunks:
        a = actions[live.batch_idx[e] // n_samples, part.node_idx]
        values[e] = evaluate(a, part, env)
    return values


def eval_F_batch(model, actions: np.ndarray, netcfg: NetworkConfig,
                 n_samples: int, rng, draws=None) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo averaged-utility estimate and its standard error for each
    action row, over ``n_samples`` fresh (activity, environment) draws from
    ``rng``: the ``(live, chunks)`` pair ``draws`` where it is given
    (:func:`_mc_draws` of ``rng`` for every action row's samples, some
    chunks perhaps drawn ahead), else drawn here, chunk by chunk.

    Raises :class:`NumericError` on a non-finite estimate, as the slot does.
    """
    b = actions.shape[0]
    live, chunks = draws or _mc_draws(model, netcfg, b * n_samples, rng)
    u = _mc_values(model.local_utilities, actions, n_samples, live, chunks)
    f = np.bincount(live.batch_idx, weights=u, minlength=b * n_samples).reshape(b, n_samples)
    est, err = f.mean(axis=1), f.std(axis=1, ddof=1) / math.sqrt(n_samples)
    finite = np.isfinite(est) & np.isfinite(err)
    if not finite.all():
        row = int(np.argmin(finite))
        exc = NumericError(f"non-finite Monte-Carlo utility estimate for action row {row}")
        exc.row = row  # run_experiment names the row as a replication at a slot
        raise exc
    return est, err


def _usable_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _at_slot(exc: Exception, k: int) -> Exception:
    """The failure of the F_hat record at slot ``k``: ``eval_F_batch``'s
    non-finite estimate named by slot and replication, any other exception
    as it is."""
    row = getattr(exc, "row", None)
    if isinstance(exc, NumericError) and row is not None:
        return NumericError(f"slot {k}: non-finite Monte-Carlo utility estimate "
                            f"for replication {row}")
    return exc


def _f_worker(conn, parent_end, model, netcfg, n_samples, rng, rows, n_records) -> None:
    """The Monte-Carlo worker of a run's ``n_records`` F_hat records, of
    ``rows`` sample rows each.  For each record in turn it draws the
    record's activity and a list of its first ``_MC_AHEAD_CHUNKS`` chunks
    (:func:`_mc_draws`) while the parent's slot loop runs on, then receives
    the record's actions on ``conn``, evaluates them on those chunks and the
    rest with :func:`eval_F_batch` and sends back the result.  A failure of
    a record's draw or evaluation is sent back at once, and the worker
    stops; the parent raises it at that record.  It draws nothing after its
    last reply.  Closing the inherited ``parent_end`` makes the parent's
    exit, even by SIGKILL, an EOF here, so the worker never outlives the
    run."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt
    try:
        for _ in range(n_records):
            try:
                live, chunks = _mc_draws(model, netcfg, rows, rng)
                chunks = chain(list(islice(chunks, _MC_AHEAD_CHUNKS)), chunks)
            except Exception as exc:
                return conn.send(exc)
            actions = conn.recv()
            try:
                reply = eval_F_batch(model, actions, netcfg, n_samples, rng, (live, chunks))
            except Exception as exc:
                return conn.send(exc)
            del live, chunks  # not held while the next record is drawn
            conn.send(reply)
    except (EOFError, OSError):  # the pipe's only: the parent is gone
        return


class _FRecords:
    """The F_hat records of one run: :func:`eval_F_batch` on each of its
    ``n_records`` records' actions, ``replications`` rows each, on one
    ``utility_mc`` stream in record order.

    Where the ``fork`` start method exists and at least 2 CPUs are usable, a
    forked worker (:func:`_f_worker`) owns the stream and evaluates each
    record while the slot loop runs on; otherwise every record is drawn and
    evaluated inline when it comes.  The estimates are the same bits either
    way.  The worker holds one record at a time: handing it the next one
    first collects the last, so neither end of the pipe can block on a full
    buffer while the other does.  ``fork``, not ``spawn``, because the
    worker starts from this process's model and generator state.
    """

    def __init__(self, model, netcfg: NetworkConfig, n_samples: int, rng,
                 replications: int, n_records: int):
        self.args = (netcfg, n_samples, rng)
        self.model = model
        self.n_records = n_records
        self.values: list[tuple[np.ndarray, np.ndarray]] = []  # (est, err) per record
        self.conn = self.proc = None
        self.pending = None  # slot of the record in flight on the worker
        if _usable_cpus() < 2:
            return
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
            self.conn, child_end = ctx.Pipe()
            self.proc = ctx.Process(target=_f_worker, name="dosp-F_hat", args=(
                child_end, self.conn, model, *self.args, replications * n_samples, n_records))
            self.proc.start()
            child_end.close()  # so that the worker's exit is an EOF here

    def add(self, k: int, actions: np.ndarray) -> None:
        """Evaluate the record at slot ``k``, or hand it to the worker."""
        if self.proc is None:
            try:
                self.values.append(eval_F_batch(self.model, actions, *self.args))
            except NumericError as exc:
                raise _at_slot(exc, k) from None
            return
        self.collect()
        self.pending = k
        try:
            self.conn.send(actions)  # pickled now, before the slot loop updates them in place
        except OSError:  # the worker is gone; collect() reports it
            pass

    def collect(self) -> None:
        """Wait for the record in flight, if any, and raise its failure."""
        k, self.pending = self.pending, None
        if k is None:
            return
        try:
            reply = self.conn.recv()
        except (EOFError, OSError):
            self.proc.join()
            raise NumericError(f"slot {k}: the Monte-Carlo worker exited with code "
                               f"{self.proc.exitcode} before replying") from None
        if isinstance(reply, BaseException):
            raise _at_slot(reply, k)
        self.values.append(reply)

    def results(self) -> tuple[np.ndarray, np.ndarray]:
        """F_hat and F_stderr, (B, records) each, once every record is in."""
        self.collect()
        est, err = zip(*self.values)
        return np.stack(est, axis=1), np.stack(err, axis=1)

    def close(self) -> None:
        """Stop the worker, if there is one, and wait for it to exit.  A run
        that stopped before its last record terminates the worker rather
        than wait for a record or a draw ahead that nobody wants."""
        if self.proc is None:
            return
        self.conn.close()  # the worker reads EOF and exits
        if len(self.values) < self.n_records:
            self.proc.terminate()
        self.proc.join()


def resolve_optimum(cfg: ExperimentConfig, model, a_star=None) -> np.ndarray | None:
    """Pick the divergence reference point, honoring the divergence mode."""
    if cfg.divergence == "skip":
        return None
    a_star = model.optimum_hint if a_star is None else a_star
    if a_star is None:
        if cfg.divergence == "require":
            raise ConfigError(
                "divergence metrics need a known optimum for this model; "
                "run `dosp solve-optimum` first and pass its output")
        return None
    a_star = np.asarray(a_star, dtype=float)
    if a_star.size != cfg.network.n_nodes:
        raise ConfigError("optimum vector length does not match n_nodes")
    return a_star


def baseline_step_fn(cfg: ExperimentConfig):
    """Step-size sequence for the exact-gradient baseline."""
    if cfg.baseline_step == "beta":
        return cfg.schedule.beta
    if cfg.baseline_step == "beta_gamma":
        return lambda ell: cfg.schedule.beta(ell) * cfg.schedule.gamma(ell)
    value = float(cfg.baseline_step)
    return lambda ell: np.full(np.shape(ell), value)


def run_experiment(
    cfg: ExperimentConfig,
    a_star=None,
    trace: bool = False,
    keep_actions: bool = False,
) -> TrajectoryDataset:
    """Run all replications of an experiment and collect trajectory metrics.

    F_hat and F_stderr (when ``cfg.f_mc_samples > 0``) are :func:`eval_F_batch`
    on each record's actions, on the ``utility_mc`` stream in record order:
    on one forked worker process while the slot loop runs on
    (:func:`_f_worker`) where the ``fork`` start method exists and at least
    2 CPUs are usable, and inline otherwise; their bits are the same either
    way.  A record's failure is raised at its record, before any failure of
    a later slot, as the inline order gives; a non-finite estimate or a dead
    worker is a :class:`NumericError` naming the slot.
    """
    model = build_model(cfg)
    a_star = resolve_optimum(cfg, model, a_star)

    rngs = role_streams(cfg.seed)
    states = initialize_states(cfg.bounds, cfg.schedule, cfg.perturbation,
                               cfg.network, cfg.replications, rngs, cfg.index_mode)
    ks = record_slots(cfg.horizon, cfg.metrics_stride)
    n_rec = ks.size
    reps = cfg.replications

    n_active = np.zeros((reps, n_rec), dtype=int)
    d = np.zeros((reps, n_rec)) if a_star is not None else None
    f_hat = f_stderr = None
    snapshots = np.zeros((reps, n_rec, cfg.network.n_nodes)) if keep_actions else None
    traces: dict[str, np.ndarray] | None = {} if trace else None
    if cfg.algorithm == "dosp_s":
        algorithm = dict(schedule=cfg.schedule, pert=cfg.perturbation,
                         sigma_eta=cfg.sigma_eta, traces=traces)
    else:
        algorithm = dict(step_fn=baseline_step_fn(cfg))

    slots = run_slots(states, cfg.horizon, model, cfg.network, cfg.bounds, rngs,
                      set(ks.tolist()), **algorithm)
    records = (_FRecords(model, cfg.network, cfg.f_mc_samples, rngs["utility_mc"],
                         reps, n_rec) if cfg.f_mc_samples > 0 else None)
    try:
        for rec_idx, (k, counts) in enumerate(slots):
            n_active[:, rec_idx] = counts
            if d is not None:
                diff = states.actions - a_star
                d[:, rec_idx] = np.mean(diff * diff, axis=1)
            if records is not None:
                records.add(k, states.actions)
            if snapshots is not None:
                snapshots[:, rec_idx] = states.actions
        if records is not None:
            f_hat, f_stderr = records.results()
    except Exception:
        if records is not None:
            records.collect()  # the record in flight failed first, if it failed
        raise
    finally:
        if records is not None:
            records.close()

    return TrajectoryDataset(
        config=cfg, ks=ks, n_active=n_active, d=d, f_hat=f_hat,
        f_stderr=f_stderr, a_star=a_star, final_actions=states.actions,
        actions=snapshots, traces=traces,
    )


def fit_loglog_slope(ks, values, k_min: float = 0.0) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(k) for k >= k_min.

    Returns (slope, standard error).  Needs at least 10 points, all positive.
    """
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = ks >= k_min
    ks, values = ks[keep], values[keep]
    if ks.size < 10:
        raise ValueError("need at least 10 points at or beyond k_min")
    if np.any(values <= 0):
        raise ValueError("log-log fit needs positive values")
    x = np.log(ks)
    y = np.log(values)
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, y) / sxx)
    resid = y - y.mean() - slope * xc
    dof = ks.size - 2
    stderr = math.sqrt(float(np.dot(resid, resid)) / dof / sxx) if dof > 0 else 0.0
    return slope, stderr


def avg_gradient(model, point: np.ndarray, netcfg: NetworkConfig, n_samples: int,
                 rng) -> np.ndarray:
    """Monte-Carlo average over ``n_samples`` fresh (activity, environment)
    draws of the exact global gradient at ``point``, per node."""
    live, chunks = _mc_draws(model, netcfg, n_samples, rng)
    g = _mc_values(model.global_gradient, point[None, :], n_samples, live, chunks)
    return np.bincount(live.node_idx, weights=g, minlength=netcfg.n_nodes) / n_samples


@dataclass(frozen=True)
class OptimumResult:
    a_star: np.ndarray
    grad_norm: float  # certificate: max |MC-averaged gradient| at the result
    iterations: int


def solve_optimum(
    cfg: ExperimentConfig,
    tolerance: float = 0.02,
    max_iters: int = 4000,
    n_mc: int = 4000,
    step: float | None = None,
    n_cert: int | None = None,
) -> OptimumResult:
    """Ascend Monte-Carlo-averaged exact gradients to locate the optimum.

    Every node moves every iteration; gradients are averaged over fresh
    (activity, environment) draws, so the iteration targets the activity-
    averaged global utility.  Iterates are Polyak-averaged over each block
    of ``_SOLVE_BLOCK`` iterations and the certificate is the sup-norm of a
    fresh large-batch gradient estimate at the averaged point, so ``n_cert``
    must be large enough to resolve ``tolerance`` against the gradient's
    sampling noise.  The tolerance must be positive and finite, and
    ``max_iters`` a positive multiple of ``_SOLVE_BLOCK``: a budget this
    loop could not honour is a :class:`ConfigError` before any draw.
    """
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise ConfigError(f"tolerance must be a positive finite number, got {tolerance}")
    if max_iters < _SOLVE_BLOCK or max_iters % _SOLVE_BLOCK:
        raise ConfigError(
            f"max_iters must be a positive multiple of {_SOLVE_BLOCK}, got {max_iters}")
    model = build_model(cfg)
    rng = role_streams(cfg.seed)["utility_mc"]
    net = cfg.network
    if step is None:
        step = 0.05 / net.q_activity
    if n_cert is None:
        n_cert = 50 * n_mc
    a = np.asarray((cfg.bounds.lower + cfg.bounds.upper) / 2.0, dtype=float)

    iters = 0
    gnorm = math.inf
    while iters < max_iters:
        block_sum = np.zeros_like(a)
        for _ in range(_SOLVE_BLOCK):
            g = avg_gradient(model, a, net, n_mc, rng)
            a = np.clip(a + step * g, cfg.bounds.lower, cfg.bounds.upper)
            block_sum += a
            iters += 1
        averaged = block_sum / _SOLVE_BLOCK
        gnorm = float(np.max(np.abs(avg_gradient(model, averaged, net, n_cert, rng))))
        if gnorm < tolerance:
            return OptimumResult(a_star=averaged, grad_norm=gnorm, iterations=iters)
    raise ConvergenceError(
        f"gradient norm {gnorm:.4g} above tolerance {tolerance} after "
        f"{iters} iterations")


# -- optimum cache -----------------------------------------------------------

def optimum_cache_key(cfg: ExperimentConfig) -> str:
    """Hash of exactly the config fields that determine the optimum."""
    d = cfg.to_dict()
    relevant = {
        "model": d["model"],
        "bounds": d["bounds"],
        "n_nodes": d["network"]["n_nodes"],
        "q_activity": d["network"]["q_activity"],
        "activity": d["network"]["activity"],
    }
    blob = json.dumps(relevant, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def save_optimum(directory, cfg: ExperimentConfig, result: OptimumResult) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"a_star_{optimum_cache_key(cfg)}.npz")
    np.savez(path, a_star=result.a_star, grad_norm=result.grad_norm,
             key=optimum_cache_key(cfg))
    return path

def load_optimum(directory, cfg: ExperimentConfig) -> np.ndarray:
    """Load a cached optimum; refuses unreadable, malformed and stale caches."""
    path = os.path.join(directory, f"a_star_{optimum_cache_key(cfg)}.npz")
    if not os.path.exists(path):
        raise ConfigError(
            f"no cached optimum for this config under {directory}; "
            "run `dosp solve-optimum` first")
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):  # a bare .npy array
            raise ValueError("not an .npz archive")
        with data:
            key, a_star = str(data["key"]), np.asarray(data["a_star"], dtype=float)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"unreadable optimum cache {path} ({' '.join(str(exc).split())}); "
                          "re-solve") from exc
    if key != optimum_cache_key(cfg) or a_star.shape != (cfg.network.n_nodes,):
        raise ConfigError("stale optimum cache (config hash or length mismatch); re-solve")
    return a_star


# -- output emission ---------------------------------------------------------

def _quote(field: str) -> str:
    """``field`` as csv's QUOTE_MINIMAL writes it."""
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def _csv_fields(column) -> list[str]:
    """The CSV fields of one column, as csv.writer writes them: ``str`` of an
    int, ``repr`` of a float, a string quoted.  A numeric column calls
    ``str`` once per distinct bit pattern, found by one stable sort."""
    if not isinstance(column, np.ndarray):
        quoted = {s: _quote(s) for s in set(column)}
        return list(map(quoted.__getitem__, column))
    column = column.astype(np.float64 if column.dtype.kind == "f" else np.int64, copy=False)
    bits = column.view(np.int64)
    order = np.argsort(bits, kind="stable")
    ordered = bits[order]
    first = np.empty(bits.size, dtype=bool)  # where a new bit pattern starts in the sort
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    # str of a Python float is its repr
    distinct = np.array(list(map(str, column[order[first]].tolist())), dtype=object)
    fields = np.empty(bits.size, dtype=object)
    fields[order] = distinct[np.cumsum(first) - 1]
    return fields.tolist()


def _csv_lines(columns, order=None):
    """The CSV lines of the rows of ``columns`` (arrays, or sequences of
    strings), or of the rows ``order`` picks, in its order; each
    ``_CSV_CHUNK`` rows are formatted column by column at once."""
    n = len(columns[0]) if order is None else order.size
    for lo in range(0, n, _CSV_CHUNK):
        rows = slice(lo, lo + _CSV_CHUNK) if order is None else order[lo:lo + _CSV_CHUNK]
        fields = [_csv_fields(c[rows]) for c in columns]
        if len(fields) == 1:  # csv.writer quotes a lone empty field
            fields = [[f or '""' for f in fields[0]]]
        yield from map(",".join, zip(*fields))


def _write_lines(path, header, lines, n: int) -> None:
    """Write the CSV ``header`` and the next ``n`` of ``lines`` to ``path``,
    ``_CSV_CHUNK`` lines to a write."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for lo in range(0, n, _CSV_CHUNK):
            fh.write("\r\n".join(islice(lines, min(_CSV_CHUNK, n - lo))) + "\r\n")


def write_csv(path, header, columns) -> None:
    """Write ``columns`` under ``header`` to ``path`` byte for byte as
    csv.writer would: each column is an int or float array, or a sequence of
    strings (``""`` for an absent metric), all of one length."""
    _write_lines(path, header, _csv_lines(columns), len(columns[0]))


def emit_outputs(dataset: TrajectoryDataset, out_dir, svg: bool = False,
                 loglog: bool = False) -> list[str]:
    """Write trajectory CSV (and optional SVG charts); returns written paths.

    A dataset with no recorded slots still gets a header-only trajectory CSV.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    reps, n_rec = dataset.n_active.shape

    def metric(values, rows=reps * n_rec):
        """A metric's column: its values, or "" on every row if it was not recorded."""
        return [""] * rows if values is None else values.ravel()

    traj_path = os.path.join(out_dir, "trajectory.csv")
    write_csv(traj_path, TRAJECTORY_COLUMNS, [
        np.arange(reps).repeat(n_rec), np.tile(dataset.ks, reps), metric(dataset.d),
        metric(dataset.f_hat), metric(dataset.f_stderr), dataset.n_active.ravel()])
    written.append(traj_path)

    if dataset.d is not None:
        mean_path = os.path.join(out_dir, "divergence_mean.csv")
        write_csv(mean_path, ("k", "D_k", "D_stderr"),
                  [dataset.ks, dataset.D, metric(dataset.D_stderr, n_rec)])
        written.append(mean_path)

    if dataset.traces:
        rep = dataset.traces["replication"]
        traces = {**dataset.traces, "delta": np.ones(rep.size, dtype=np.int64)}
        columns = [traces[name] for name in TRACE_HEADER]
        # one pass over the rows sorted by replication, each in slot order; each
        # replication's file takes the next lines
        lines = _csv_lines(columns, np.argsort(rep, kind="stable"))
        for r, n in enumerate(np.bincount(rep).tolist()):
            if n:  # only the replications with a live entry get a file
                path = os.path.join(out_dir, f"trace_rep{r:03d}.csv")
                _write_lines(path, TRACE_HEADER, lines, n)
                written.append(path)

    if svg:
        from . import chart  # only charts need it, so a run without --svg never loads it

        if dataset.d is not None:
            path = os.path.join(out_dir, "divergence.svg")
            series = [("mean", dataset.ks, dataset.D)]
            for r in range(min(dataset.d.shape[0], 5)):
                series.append((f"rep {r}", dataset.ks, dataset.d[r]))
            chart.write_line_chart(path, series, "divergence vs slot", "k",
                                   "d_k", loglog=loglog)
            written.append(path)
        if dataset.f_hat is not None:
            path = os.path.join(out_dir, "utility.svg")
            chart.write_line_chart(
                path, [("mean estimate", dataset.ks, dataset.f_hat.mean(axis=0))],
                "averaged global utility vs slot", "k", "F", loglog=False)
            written.append(path)
    return written

"""Experiment orchestration: config files, seeded replication runs,
trajectory metrics, slope fits, and CSV/SVG emission.

Replications are advanced together as one vectorized batch; a run is a pure
function of its config (and optional per-role seed overrides), so outputs are
byte-identical across reruns.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass
from itertools import repeat

import numpy as np
import yaml

from .core import (
    ActionBounds,
    ConfigError,
    NumericError,
    PerturbationSpec,
    RngStream,
    StepSizeSchedule,
    role_streams,
)
from .network import ChannelSpec, NetworkConfig, sample_activity
from .objectives import ObjectiveModel, PowerControlModel, QuadraticModel
from .optimizer import INDEX_MODES, TRACE_COLUMNS, initialize_states, run_slots
from . import chart

TRAJECTORY_COLUMNS = ("replication", "k", "d_k", "F_hat", "F_stderr", "n_active")
# a replication's trace file: the trace columns after replication, and delta = 1
TRACE_HEADER = (*TRACE_COLUMNS[1:3], "delta", *TRACE_COLUMNS[3:])
_TRACE_CHUNK = 4096  # rows converted to Python objects at once while writing
BOUNDS_COLUMNS = ("k", "theta", "upsilon", "psi", "envelope_th3_a",
                  "envelope_th3_b", "envelope_th4", "w_bound", "omega", "status")


class ConvergenceError(RuntimeError):
    """Optimum search did not reach tolerance; carries the last iterate."""

    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass
class ExperimentConfig:
    """Complete description of one experiment; round-trips through YAML."""

    network: NetworkConfig
    schedule: StepSizeSchedule
    perturbation: PerturbationSpec
    bounds: ActionBounds
    model_kind: str  # "power" | "quadratic"
    model_params: dict
    horizon: int
    replications: int
    seed: int
    metrics_stride: int = 100
    f_mc_samples: int = 2000  # 0 disables utility estimation, else >= 2
    sigma_eta: float = 0.0
    algorithm: str = "dosp_s"  # "dosp_s" | "ideal_gradient"
    baseline_step: str | float = "beta"  # "beta" | "beta_gamma" | constant value
    index_mode: str = "sampled"
    divergence: str = "auto"  # "auto" | "require" | "skip"

    def __post_init__(self):
        for name in ("horizon", "replications", "seed", "metrics_stride", "f_mc_samples"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.horizon < 1 or self.replications < 1 or self.metrics_stride < 1:
            raise ConfigError("horizon, replications and metrics_stride must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.algorithm not in ("dosp_s", "ideal_gradient"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if isinstance(self.baseline_step, str):
            if self.baseline_step not in ("beta", "beta_gamma"):
                raise ConfigError(f"unknown baseline step {self.baseline_step!r}")
        elif not float(self.baseline_step) > 0:
            raise ConfigError("constant baseline step must be positive")
        if self.f_mc_samples < 0 or self.f_mc_samples == 1:
            raise ConfigError(
                f"f_mc_samples must be 0 (off) or >= 2, got {self.f_mc_samples}")
        if self.index_mode not in INDEX_MODES:
            raise ConfigError(f"unknown index mode {self.index_mode!r}")
        if self.divergence not in ("auto", "require", "skip"):
            raise ConfigError(f"unknown divergence mode {self.divergence!r}")
        if self.model_kind not in ("power", "quadratic"):
            raise ConfigError(f"unknown model kind {self.model_kind!r}")
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
        return {
            "model": {"kind": self.model_kind, **self.model_params},
            "network": {
                "n_nodes": self.network.n_nodes,
                "q_activity": self.network.q_activity,
                "q_reception": self.network.q_reception,
                "activity": self.network.activity,
                "noise": self.network.noise,
            },
            "schedule": {
                "beta0": self.schedule.beta0,
                "gamma0": self.schedule.gamma0,
                "c1": self.schedule.c1,
                "c2": self.schedule.c2,
            },
            "perturbation": {"kind": self.perturbation.kind,
                             "scale": self.perturbation.scale},
            "bounds": {
                "lower": float(lower[0]) if uniform else [float(v) for v in lower],
                "upper": float(upper[0]) if uniform else [float(v) for v in upper],
            },
            "run": {
                "horizon": self.horizon,
                "replications": self.replications,
                "seed": self.seed,
                "metrics_stride": self.metrics_stride,
                "f_mc_samples": self.f_mc_samples,
                "sigma_eta": self.sigma_eta,
                "algorithm": self.algorithm,
                "baseline_step": self.baseline_step,
                "index_mode": self.index_mode,
                "divergence": self.divergence,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_numbers(d)
        try:
            model = dict(d["model"])
            kind = model.pop("kind")
            net = NetworkConfig(**d["network"])
            sched = StepSizeSchedule(**d["schedule"])
            pert_d = d.get("perturbation", {"kind": "rademacher"})
            if pert_d.get("kind", "rademacher") == "rademacher":
                pert = PerturbationSpec.rademacher()
            else:
                pert = PerturbationSpec.scaled_symmetric(pert_d["scale"])
            lower = d["bounds"]["lower"]
            upper = d["bounds"]["upper"]
            bounds = ActionBounds(np.atleast_1d(lower), np.atleast_1d(upper))
            run = d["run"]
            return cls(network=net, schedule=sched, perturbation=pert,
                       bounds=bounds, model_kind=kind, model_params=model,
                       **run)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

    def to_yaml(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=False)

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                d = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ConfigError(f"malformed YAML in {path}: {exc}".replace("\n", " ")) from exc
        return cls.from_dict(d)

    def __eq__(self, other):
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def _check_numbers(tree, path: str = "") -> None:
    """Reject a bool or a non-finite float anywhere in a config mapping: no
    config field is a flag, so a bool is a mistyped number, and every number
    must be finite."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            _check_numbers(value, f"{path}.{key}" if path else str(key))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            _check_numbers(value, f"{path}[{i}]")
    elif isinstance(tree, bool):
        raise ConfigError(f"{path} must not be a bool, got {tree}")
    elif isinstance(tree, float) and not math.isfinite(tree):
        raise ConfigError(f"{path} must be finite, got {tree}")


def build_model(cfg: ExperimentConfig) -> ObjectiveModel:
    """Instantiate the configured objective model."""
    p = cfg.model_params
    if cfg.model_kind == "power":
        channel = ChannelSpec(**p.get("channel", {}))
        return PowerControlModel(
            n_nodes=cfg.network.n_nodes,
            channel=channel,
            omega1=p.get("omega1", 20.0),
            omega2=p.get("omega2", 1.0),
        )
    targets = p.get("targets")
    if targets is None:
        targets = QuadraticModel.default_targets(cfg.network.n_nodes)
    targets = np.asarray(targets, dtype=float)
    if targets.size != cfg.network.n_nodes:
        raise ConfigError("quadratic targets must list one value per node")
    return QuadraticModel(targets, gain_low=p.get("gain_low", 0.5),
                          gain_high=p.get("gain_high", 1.5))


# stream of the config's seed that the sampled model constants draw from
CONSTANTS_STREAM = 99


def constants_sample(cfg: ExperimentConfig, model, rng):
    """The sample a model's constants are estimated on: 200 activity rows
    less those with no live node (they carry no curvature), their
    environment, and (rows, N) actions uniform in the bounds."""
    live = sample_activity(cfg.network, rng, 200).without_empty_rows()
    env = model.sample_env(live, rng)
    return live, env, rng.uniform(cfg.bounds.lower, cfg.bounds.upper, size=live.shape)


def estimate_alpha_G(cfg: ExperimentConfig, model) -> tuple[float, str]:
    """The curvature constant alpha_G of the config's model and where it
    comes from: the quadratic model's closed form, or the power model's
    largest |global_hessian| entry over :func:`constants_sample` (drawn from
    stream ``CONSTANTS_STREAM`` of the config's seed)."""
    if isinstance(model, QuadraticModel):
        return model.alpha_G, "closed form"
    live, env, a = constants_sample(cfg, model,
                                    RngStream(cfg.seed, CONSTANTS_STREAM).generator())
    hessian = model.global_hessian(a[live.batch_idx, live.node_idx], live, env)
    alpha_G = float(np.abs(hessian).max(initial=0.0))
    if not alpha_G > 0:
        raise ConfigError("no curvature in the sampled rows: alpha_G could not be estimated")
    return alpha_G, "sampled max |global_hessian|"


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


def eval_F_batch(model, actions: np.ndarray, netcfg: NetworkConfig,
                 n_samples: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo averaged-utility estimate and its standard error for each
    action row, over ``n_samples`` fresh (activity, environment) draws.

    Raises :class:`NumericError` on a non-finite estimate, as the slot does.
    """
    b = actions.shape[0]
    live = sample_activity(netcfg, rng, b * n_samples)
    env = model.sample_env(live, rng)
    u = model.local_utilities(actions[live.batch_idx // n_samples, live.node_idx], live, env)
    f = np.bincount(live.batch_idx, weights=u, minlength=b * n_samples).reshape(b, n_samples)
    est, err = f.mean(axis=1), f.std(axis=1, ddof=1) / math.sqrt(n_samples)
    finite = np.isfinite(est) & np.isfinite(err)
    if not finite.all():
        raise NumericError(
            f"non-finite Monte-Carlo utility estimate for action row {int(np.argmin(finite))}")
    return est, err


def resolve_optimum(cfg: ExperimentConfig, model, a_star=None) -> np.ndarray | None:
    """Pick the divergence reference point, honoring the divergence mode."""
    if cfg.divergence == "skip":
        return None
    if a_star is None and model.optimum_hint is not None:
        a_star = model.optimum_hint
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
    seed_overrides: dict[str, int] | None = None,
) -> TrajectoryDataset:
    """Run all replications of an experiment and collect trajectory metrics."""
    model = build_model(cfg)
    a_star = resolve_optimum(cfg, model, a_star)

    rngs = role_streams(cfg.seed, seed_overrides)
    states = initialize_states(cfg.bounds, cfg.schedule, cfg.perturbation,
                               cfg.network, cfg.replications, rngs,
                               index_mode=cfg.index_mode)
    ks = record_slots(cfg.horizon, cfg.metrics_stride)
    n_rec = ks.size
    reps = cfg.replications

    n_active = np.zeros((reps, n_rec), dtype=int)
    d = np.zeros((reps, n_rec)) if a_star is not None else None
    f_hat = np.zeros((reps, n_rec)) if cfg.f_mc_samples > 0 else None
    f_stderr = np.zeros((reps, n_rec)) if cfg.f_mc_samples > 0 else None
    snapshots = np.zeros((reps, n_rec, cfg.network.n_nodes)) if keep_actions else None
    traces: dict[str, np.ndarray] | None = {} if trace else None
    if cfg.algorithm == "dosp_s":
        algorithm = dict(schedule=cfg.schedule, pert=cfg.perturbation,
                         sigma_eta=cfg.sigma_eta, traces=traces)
    else:
        algorithm = dict(step_fn=baseline_step_fn(cfg))

    slots = run_slots(states, cfg.horizon, model, cfg.network, cfg.bounds, rngs,
                      set(ks.tolist()), **algorithm)
    for rec_idx, (_, counts) in enumerate(slots):
        n_active[:, rec_idx] = counts
        if d is not None:
            diff = states.actions - a_star
            d[:, rec_idx] = np.mean(diff * diff, axis=1)
        if f_hat is not None:
            est, err = eval_F_batch(model, states.actions, cfg.network,
                                    cfg.f_mc_samples, rngs["utility_mc"])
            f_hat[:, rec_idx] = est
            f_stderr[:, rec_idx] = err
        if snapshots is not None:
            snapshots[:, rec_idx] = states.actions

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
    check_every: int = 100,
    n_cert: int | None = None,
) -> OptimumResult:
    """Ascend Monte-Carlo-averaged exact gradients to locate the optimum.

    Every node moves every iteration; gradients are averaged over fresh
    (activity, environment) draws, so the iteration targets the activity-
    averaged global utility.  Iterates are Polyak-averaged over each block
    and the certificate is the sup-norm of a fresh large-batch gradient
    estimate at the averaged point, so ``n_cert`` must be large enough to
    resolve ``tolerance`` against the gradient's sampling noise.
    """
    model = build_model(cfg)
    rng = role_streams(cfg.seed)["utility_mc"]
    net = cfg.network
    if step is None:
        step = 0.05 / net.q_activity
    if n_cert is None:
        n_cert = 50 * n_mc
    a = np.asarray((cfg.bounds.lower + cfg.bounds.upper) / 2.0, dtype=float)

    def avg_gradient(point, samples):
        live = sample_activity(net, rng, samples)
        env = model.sample_env(live, rng)
        g = model.global_gradient(point[live.node_idx], live, env)
        return np.bincount(live.node_idx, weights=g, minlength=net.n_nodes) / samples

    iters = 0
    gnorm = math.inf
    while iters < max_iters:
        block_sum = np.zeros_like(a)
        for _ in range(check_every):
            g = avg_gradient(a, n_mc)
            a = np.clip(a + step * g, cfg.bounds.lower, cfg.bounds.upper)
            block_sum += a
            iters += 1
        averaged = block_sum / check_every
        gnorm = float(np.max(np.abs(avg_gradient(averaged, n_cert))))
        if gnorm < tolerance:
            return OptimumResult(a_star=averaged, grad_norm=gnorm, iterations=iters)
    raise ConvergenceError(
        f"gradient norm {gnorm:.4g} above tolerance {tolerance} after "
        f"{iters} iterations", a)


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
    """Load a cached optimum; refuses caches written for a different config."""
    path = os.path.join(directory, f"a_star_{optimum_cache_key(cfg)}.npz")
    if not os.path.exists(path):
        raise ConfigError(
            f"no cached optimum for this config under {directory}; "
            "run `dosp solve-optimum` first")
    data = np.load(path, allow_pickle=False)
    if str(data["key"]) != optimum_cache_key(cfg):
        raise ConfigError("stale optimum cache (config hash mismatch); re-solve")
    return data["a_star"]


# -- output emission ---------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def emit_outputs(dataset: TrajectoryDataset, out_dir, svg: bool = False,
                 loglog: bool = False) -> list[str]:
    """Write trajectory CSV (and optional SVG charts); returns written paths.

    A dataset with no recorded slots still gets a header-only trajectory CSV.
    """
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
        for r in np.flatnonzero(np.bincount(reps)).tolist():  # the replications with a live entry
            rows = np.flatnonzero(reps == r)  # in slot order
            path = os.path.join(out_dir, f"trace_rep{r:03d}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(TRACE_HEADER)
                for lo in range(0, rows.size, _TRACE_CHUNK):
                    # ints print as ints, floats by repr, as _fmt does
                    k, node, *rest = (c[rows[lo:lo + _TRACE_CHUNK]].tolist() for c in columns)
                    writer.writerows(zip(k, node, repeat(1), *rest))
            written.append(path)

    if svg:
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

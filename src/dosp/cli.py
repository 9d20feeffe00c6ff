"""Command-line entry points.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numeric
failure (non-finite values during a run), 4 rate bound inapplicable.
"""

from __future__ import annotations

import argparse
import copy
import csv
import os
import sys

import numpy as np
import yaml

from . import analysis
from .core import ConfigError, NumericError, RngStream
from .harness import (
    BOUNDS_COLUMNS,
    CONSTANTS_STREAM,
    ConvergenceError,
    ExperimentConfig,
    build_model,
    constants_sample,
    emit_outputs,
    estimate_alpha_G,
    load_optimum,
    run_experiment,
    save_optimum,
    solve_optimum,
)
from .verify import verification_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BOUND_INAPPLICABLE = 4


def _load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    return ExperimentConfig.from_yaml(path)


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    a_star = None
    if args.a_star_dir:
        a_star = load_optimum(args.a_star_dir, cfg)
    dataset = run_experiment(cfg, a_star=a_star, trace=args.trace)
    paths = emit_outputs(dataset, args.out, svg=args.svg, loglog=args.loglog)
    for p in paths:
        print(p)
    return EXIT_OK


def _set_by_path(d: dict, dotted: str, value):
    keys = dotted.split(".")
    node = d
    for key in keys[:-1]:
        if key not in node:
            raise ConfigError(f"unknown config section {key!r} in {dotted!r}")
        node = node[key]
    if keys[-1] not in node:
        raise ConfigError(f"unknown config key {dotted!r}")
    try:
        node[keys[-1]] = yaml.safe_load(value)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {dotted}={value!r}") from exc


def _split_values(raw: str) -> list[str]:
    """Split a --vary value list on the commas outside brackets, so that
    list values such as ``[0,1,2],[2,1,0]`` stay whole."""
    values, depth, start = [], 0, 0
    for i, ch in enumerate(raw):
        depth += (ch == "[") - (ch == "]")
        if ch == "," and depth == 0:
            values.append(raw[start:i])
            start = i + 1
    return values + [raw[start:]]


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    param, _, raw = args.vary.partition("=")
    if not raw:
        raise ConfigError("--vary expects <dotted.param>=<v1,v2,...>")
    base = cfg.to_dict()
    # build every config before running any, so a bad value fails fast
    subs = []
    for value in _split_values(raw):
        d = copy.deepcopy(base)
        _set_by_path(d, param, value)
        subs.append((value, ExperimentConfig.from_dict(d)))
    for value, sub in subs:
        out = os.path.join(args.out, f"{param.replace('.', '_')}={value}")
        dataset = run_experiment(sub)
        for p in emit_outputs(dataset, out, svg=args.svg, loglog=args.loglog):
            print(p)
    return EXIT_OK


def _check_kmax(kmax: int, smallest: int) -> None:
    if not smallest <= kmax <= analysis.MAX_AVERAGE_K:
        raise ConfigError(
            f"--kmax must lie in [{smallest}, {analysis.MAX_AVERAGE_K}], got {kmax}")


def _model_constants(cfg: ExperimentConfig, model, a_star) -> analysis.ModelConstants:
    from .objectives import QuadraticModel

    if isinstance(model, QuadraticModel):
        return analysis.ModelConstants(
            alpha_F=model.alpha_F(cfg.network.q_activity),
            alpha_G=model.alpha_G,
            lipschitz=model.lipschitz(cfg.bounds),
            sigma_eta=cfg.sigma_eta,
            sigma_a_sq=cfg.bounds.sigma_a_sq,
        )
    # power model: curvature and Lipschitz constants have no closed form,
    # estimate them from sampled configurations and flag the estimate
    alpha_G, _ = estimate_alpha_G(cfg, model)
    # the draws alpha_G was estimated on, then the Lipschitz draws
    rng = RngStream(cfg.seed, CONSTANTS_STREAM).generator()
    live, env, a = constants_sample(cfg, model, rng)
    entries = (live.batch_idx, live.node_idx)
    g = model.global_gradient(a[entries], live, env)
    d = a - a_star
    denom = (d * d).sum(axis=1)
    ascent = np.bincount(live.batch_idx, weights=d[entries] * g, minlength=live.shape[0])
    keep = denom > 1e-9
    alpha_F = float(np.min(-ascent[keep] / denom[keep], initial=np.inf))
    lipschitz = model.estimate_lipschitz(cfg.bounds, cfg.network, rng, n_draws=2000)
    if not np.isfinite(alpha_F) or alpha_F <= 0:
        raise ConfigError(
            "could not certify a positive strong-concavity constant for the "
            "power model; rate bounds are only quantitative on the quadratic model")
    return analysis.ModelConstants(
        alpha_F=float(alpha_F), alpha_G=alpha_G, lipschitz=lipschitz,
        sigma_eta=cfg.sigma_eta, sigma_a_sq=cfg.bounds.sigma_a_sq,
        lipschitz_estimated=True,
    )


def _cmd_bounds(args) -> int:
    _check_kmax(args.kmax, analysis.MIN_RATE_K)
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, got {args.points}")
    cfg = _load_config(args.config)
    model = build_model(cfg)
    a_star = model.optimum_hint
    if a_star is None and args.a_star_dir:
        a_star = load_optimum(args.a_star_dir, cfg)
    if a_star is None:
        raise ConfigError("bounds need a known optimum; run solve-optimum first")
    consts = _model_constants(cfg, model, a_star)
    params = analysis.rate_params(
        cfg.schedule, cfg.network, consts, cfg.perturbation, args.kmax,
        bounds=cfg.bounds, a_star=a_star)
    grid = analysis.log_grid(args.kmax, args.points)
    table = analysis.rate_envelope(params, grid)
    diag = analysis.bias_diagnostics(cfg.schedule, cfg.network, cfg.perturbation,
                                     consts.alpha_G, grid)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "bounds.csv")
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
    print(path)
    print(f"A={params.A:.6g} B={params.B:.6g} C={params.C:.6g} "
          f"K0={params.K0} K1={params.K1} K2={params.K2}")
    print(f"eps1={params.eps1:.6g} eps2={params.eps2:.6g} "
          f"eps3={params.eps3:.6g} eps4={params.eps4:.6g}")
    print(f"status: {params.status}")
    if consts.lipschitz_estimated:
        print("note: alpha_F, alpha_G, L estimated by sampling (power model)")
    if params.status != "applicable":
        return EXIT_BOUND_INAPPLICABLE
    return EXIT_OK


def _cmd_verify(args) -> int:
    _check_kmax(args.kmax, 1)
    cfg = _load_config(args.config)
    results = verification_suite(cfg, k_max=args.kmax)
    failed = 0
    for res in results:
        verdict = "PASS" if res.ok else "FAIL"
        print(f"[{verdict}] {res.name}: {res.detail}")
        failed += not res.ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _cmd_solve_optimum(args) -> int:
    cfg = _load_config(args.config)
    result = solve_optimum(cfg, tolerance=args.tol, max_iters=args.max_iters)
    path = save_optimum(args.out, cfg, result)
    print(path)
    print(f"grad_norm={result.grad_norm:.6g} iterations={result.iterations}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dosp",
        description="Sporadic derivative-free network optimization: simulator "
                    "and bound analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default="out")
    run.add_argument("--trace", action="store_true",
                     help="write per-active-node update traces")
    run.add_argument("--svg", action="store_true", help="also write SVG charts")
    run.add_argument("--loglog", action="store_true",
                     help="log-log axes for the divergence chart")
    run.add_argument("--a-star-dir", default=None,
                     help="directory holding a cached optimum")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run the config once per parameter value")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--vary", required=True,
                       help="dotted parameter and values, e.g. network.q_reception=1,0.5,0.1")
    sweep.add_argument("--out", default="out")
    sweep.add_argument("--svg", action="store_true")
    sweep.add_argument("--loglog", action="store_true")
    sweep.set_defaults(func=_cmd_sweep)

    bounds = sub.add_parser("bounds", help="emit rate-bound and bias-envelope table")
    bounds.add_argument("--config", required=True)
    bounds.add_argument("--kmax", type=int, default=20000)
    bounds.add_argument("--points", type=int, default=200)
    bounds.add_argument("--out", default="out")
    bounds.add_argument("--a-star-dir", default=None)
    bounds.set_defaults(func=_cmd_bounds)

    verify = sub.add_parser("verify", help="run the analysis self-check battery")
    verify.add_argument("--config", required=True)
    verify.add_argument("--kmax", type=int, default=20000)
    verify.set_defaults(func=_cmd_verify)

    solve = sub.add_parser("solve-optimum", help="locate the optimum by averaged gradients")
    solve.add_argument("--config", required=True)
    solve.add_argument("--tol", type=float, default=0.02)
    solve.add_argument("--max-iters", type=int, default=4000)
    solve.add_argument("--out", default="out")
    solve.set_defaults(func=_cmd_solve_optimum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, ConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

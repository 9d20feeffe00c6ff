"""Command-line entry points: ``run`` (alias ``sweep``: with ``--vary
<dotted.key>=<v1,v2,...>`` it builds one config per value before any run
starts, and runs each into ``<out>/<key_with_underscores>=<value>``),
``bounds``, ``verify`` and ``solve-optimum``.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numeric
failure (non-finite values during a run, or a performed action outside its
bounds), 4 rate bound inapplicable.
"""

from __future__ import annotations

import argparse
import copy
import math
import os
import sys

import yaml

from .core import ConfigError, FeasibilityError, NumericError
from .harness import (
    _SOLVE_BLOCK,
    BOUNDS_COLUMNS,
    ConvergenceError,
    ExperimentConfig,
    build_model,
    emit_outputs,
    load_optimum,
    model_constants,
    parse_yaml,
    run_experiment,
    save_optimum,
    solve_optimum,
    write_csv,
)
# analysis and verify are imported inside the commands that use them, so that
# run loads neither

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BOUND_INAPPLICABLE = 4


def _check_out(path: str) -> None:
    """Refuse an --out that cannot become a directory, before any work
    starts: its nearest existing ancestor must be a directory."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"--out {path}: {probe} is not a directory")


def _known_optimum(args, cfg: ExperimentConfig, model):
    """The model's own optimum, else the one cached under --a-star-dir, else None."""
    if model.optimum_hint is None and args.a_star_dir:
        return load_optimum(args.a_star_dir, cfg)
    return model.optimum_hint


def _set_by_path(d: dict, dotted: str, value) -> dict:
    """``d`` with the value at ``dotted`` replaced by ``value`` parsed as YAML."""
    keys = dotted.split(".")
    node = d
    for key in keys[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"unknown config section {key!r} in {dotted!r}")
        node = node[key]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError(f"unknown config key {dotted!r}")
    try:
        node[keys[-1]] = parse_yaml(value)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {dotted}={value!r}") from exc
    return d


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


def _cmd_run(args) -> int:
    _check_out(args.out)
    cfg = ExperimentConfig.from_yaml(args.config)
    runs = [(args.out, cfg)]
    if args.vary is not None:  # one config per value, each into its own directory
        param, _, raw = args.vary.partition("=")
        if not raw:
            raise ConfigError("--vary expects <dotted.param>=<v1,v2,...>")
        base = cfg.to_dict()
        runs = [(os.path.join(args.out, f"{param.replace('.', '_')}={value}"),
                 ExperimentConfig.from_dict(_set_by_path(copy.deepcopy(base), param, value)))
                for value in _split_values(raw)]
    # every config and optimum first, so a bad value or a missing cache fails fast
    runs = [(out, cfg, None if cfg.divergence == "skip"
             else _known_optimum(args, cfg, build_model(cfg))) for out, cfg in runs]
    for out, cfg, a_star in runs:
        dataset = run_experiment(cfg, a_star=a_star, trace=args.trace)
        for p in emit_outputs(dataset, out, svg=args.svg, loglog=args.loglog):
            print(p)
    return EXIT_OK


def _check_kmax(kmax: int, smallest: int) -> None:
    from . import analysis

    if not smallest <= kmax <= analysis.MAX_AVERAGE_K:
        raise ConfigError(
            f"--kmax must lie in [{smallest}, {analysis.MAX_AVERAGE_K}], got {kmax}")


def _cmd_bounds(args) -> int:
    from . import analysis

    _check_kmax(args.kmax, analysis.MIN_RATE_K)
    # a grid of distinct slots in [1, kmax] has at most kmax points
    if not 1 <= args.points <= args.kmax:
        raise ConfigError(f"--points must lie in [1, --kmax = {args.kmax}], got {args.points}")
    _check_out(args.out)
    cfg = ExperimentConfig.from_yaml(args.config)
    model = build_model(cfg)
    a_star = _known_optimum(args, cfg, model)
    if a_star is None:
        raise ConfigError("bounds need a known optimum; run solve-optimum first")
    consts = model_constants(cfg, model, a_star)
    if not (math.isfinite(consts.alpha_F) and consts.alpha_F > 0):
        raise ConfigError(
            "could not certify a positive strong-concavity constant for the "
            "power model; rate bounds are only quantitative on the quadratic model")
    params = analysis.rate_params(
        cfg.schedule, cfg.network, consts, cfg.perturbation, args.kmax,
        bounds=cfg.bounds, a_star=a_star)
    grid = analysis.log_grid(args.kmax, args.points)
    table = analysis.rate_envelope(params, grid)
    diag = analysis.bias_diagnostics(cfg.schedule, cfg.network, cfg.perturbation,
                                     consts.alpha_G, grid)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "bounds.csv")
    write_csv(path, BOUNDS_COLUMNS, [
        grid, *params.at(grid), table.envelope_a, table.envelope_b, table.asymptotic,
        diag.w_bound, diag.omega, table.status])
    print(path)
    print(f"A={params.A:.6g} B={params.B:.6g} C={params.C:.6g} "
          f"K0={params.K0} K1={params.K1} K2={params.K2}")
    print(f"eps1={params.eps1:.6g} eps2={params.eps2:.6g} "
          f"eps3={params.eps3:.6g} eps4={params.eps4:.6g}")
    print(f"status: {params.status}")
    if consts.sampled:
        print("note: alpha_F, alpha_G, L estimated by sampling (power model)")
    if params.status != "applicable":
        return EXIT_BOUND_INAPPLICABLE
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import verification_suite

    _check_kmax(args.kmax, 1)
    cfg = ExperimentConfig.from_yaml(args.config)
    results = verification_suite(cfg, k_max=args.kmax)
    failed = 0
    for res in results:
        verdict = "PASS" if res.ok else "FAIL"
        print(f"[{verdict}] {res.name}: {res.detail}")
        failed += not res.ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _cmd_solve_optimum(args) -> int:
    _check_out(args.out)
    cfg = ExperimentConfig.from_yaml(args.config)
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

    run = sub.add_parser("run", aliases=["sweep"],
                         help="run an experiment from a config file, or once per --vary value")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default="out")
    run.add_argument("--vary", default=None,
                     help="dotted parameter and values, e.g. network.q_reception=1,0.5,0.1; "
                          "each value runs into <out>/<parameter>=<value>")
    run.add_argument("--trace", action="store_true",
                     help="write per-active-node update traces")
    run.add_argument("--svg", action="store_true", help="also write SVG charts")
    run.add_argument("--loglog", action="store_true",
                     help="log-log axes for the divergence chart")
    run.add_argument("--a-star-dir", default=None,
                     help="directory holding a cached optimum")
    run.set_defaults(func=_cmd_run)

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
    solve.add_argument("--max-iters", type=int, default=4000,
                       help=f"iteration budget, a positive multiple of {_SOLVE_BLOCK} "
                            "(the iterations averaged and certified at once)")
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
    except FeasibilityError as exc:
        print(f"feasibility failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

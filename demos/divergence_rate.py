"""Measure the convergence rate and check it against the computable bounds.

On the quadratic oracle the optimum is known, so the mean squared distance
D_k can be tracked exactly.  With the balanced exponents c1 = 0.75,
c2 = 0.25 the theory says D_k decays like (q_a k)^-0.5 — the best order a
one-point estimator can achieve — and provides two deterministic envelopes
plus a one-slot recurrence bound.  This demo runs 30 replications, fits the
tail slope, and overlays everything on a log-log chart.

Run:  python3 demos/divergence_rate.py   (about a minute)
"""

import os

from dosp import chart
from dosp.analysis import rate_envelope, rate_params, recurrence_envelope
from dosp.harness import (
    ExperimentConfig, build_model, fit_loglog_slope, model_constants, run_experiment)

HERE = os.path.dirname(__file__)
OUT = os.path.join(HERE, "out")


def main():
    cfg = ExperimentConfig.from_yaml(
        os.path.join(HERE, "..", "configs", "quadratic_divergence_rate.yaml"))
    d = cfg.to_dict()
    d["run"].update(replications=30, horizon=30_000)
    cfg = ExperimentConfig.from_dict(d)

    print(f"running {cfg.replications} replications of {cfg.horizon} slots ...")
    ds = run_experiment(cfg)
    slope, stderr = fit_loglog_slope(ds.ks, ds.D, k_min=3000)
    print(f"log-log tail slope of D_k: {slope:.3f} +- {stderr:.3f} "
          "(theory: -0.5 at these exponents)")

    model = build_model(cfg)
    params = rate_params(cfg.schedule, cfg.network, model_constants(cfg, model),
                         cfg.perturbation, cfg.horizon, bounds=cfg.bounds,
                         a_star=model.optimum_hint)
    print(f"recurrence constants: A={params.A:.3g} B={params.B:.3g} C={params.C:.4g}; "
          f"K0={params.K0} K1={params.K1} K2={params.K2}; status: {params.status}")

    table = rate_envelope(params, ds.ks)
    iterated = recurrence_envelope(params, ds.D[0], 1, cfg.horizon)[ds.ks - 1]
    print(f"fitted asymptotic scale: {table.xi_fit:.3g}")

    os.makedirs(OUT, exist_ok=True)
    chart.write_line_chart(
        os.path.join(OUT, "divergence_rate.svg"),
        [
            ("simulated D_k", ds.ks, ds.D),
            ("envelope (squared-ratio)", ds.ks, table.envelope_a),
            ("envelope (step-ratio)", ds.ks, table.envelope_b),
            ("iterated recurrence", ds.ks, iterated),
            ("fitted (q_a k)^-0.5 display", ds.ks, table.asymptotic),
        ],
        "divergence and its computable bounds", "slot k", "D_k", loglog=True)
    print(f"wrote {OUT}/divergence_rate.svg")


if __name__ == "__main__":
    main()

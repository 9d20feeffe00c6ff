"""Acceptance suite: every criterion is one test at its stated tolerance and
prints a pass/fail line (collected again in the terminal summary).

Three assertions are expected to fail at the stated constants and are kept
faithful rather than loosened: the partial-sum identity gap (criterion 5),
the bias-bound contraction ratio (criterion 8, first clause) and the
utility-vs-baseline-plateau band (criterion 9b).  The "ledger" that their
messages cite is the paragraph on these three assertions under "Install and
test" in README.md, which carries the quantitative analysis.
"""

import dataclasses
import filecmp
import time

import numpy as np
import pytest

from dosp import NetworkConfig, PerturbationSpec
from dosp.analysis import (
    ModelConstants,
    bias_diagnostics,
    chernoff_step_bound,
    compute_K0,
    mc_step_average,
    rate_params,
    recurrence_envelope,
    verify_lemma4,
)
from dosp.core import ActionBounds, FeasibilityError, RngStream
from dosp.estimator import mc_check_unbiasedness
from dosp.harness import build_model, emit_outputs, fit_loglog_slope, run_experiment
from dosp.network import ActiveSet, sample_activity
from dosp.objectives import PowerControlModel, QuadraticModel
from dosp.optimizer import assert_feasible, slot_block
from dosp.core import role_streams

from conftest import power_config, quadratic_config, reference_schedule
from oracles import mask_of, mc_gradient_bias, scatter

RESULTS = []


def _check(tag, ok, detail):
    line = f"[criterion {tag}] {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


# -- shared expensive runs ----------------------------------------------------

@pytest.fixture(scope="module")
def rate_datasets():
    """Criteria 1-2: the quadratic rate runs at q_r in {1, 0.5, 0.1}."""
    out = {}
    for q_r in (1.0, 0.5, 0.1):
        cfg = quadratic_config(q_reception=q_r)
        start = time.perf_counter()
        out[q_r] = (run_experiment(cfg), time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def reproduction_runs():
    """Criterion 9: wide power network, learner and exact-gradient baseline."""
    cfg = power_config(metrics_stride=1000, f_mc_samples=2000)
    learner = run_experiment(cfg, keep_actions=True)
    baseline = run_experiment(dataclasses.replace(cfg, algorithm="ideal_gradient"))
    return cfg, learner, baseline


def test_criterion_01_rate_exponent(rate_datasets):
    ds, elapsed = rate_datasets[1.0]
    slope, stderr = fit_loglog_slope(ds.ks, ds.D, k_min=5000)
    ok = -0.65 <= slope <= -0.35 and elapsed < 300.0
    _check("01", ok,
           f"fitted slope {slope:.3f} (se {stderr:.3f}) in [-0.65, -0.35]; "
           f"runtime {elapsed:.0f}s < 300s")


def test_criterion_02_reception_degradation(rate_datasets):
    medians = {}
    slopes = {}
    for q_r, (ds, _) in rate_datasets.items():
        medians[q_r] = float(np.median(ds.d[:, -1]))
        slopes[q_r], _ = fit_loglog_slope(ds.ks, ds.D, k_min=5000)
    ordered = [medians[q] for q in (1.0, 0.5, 0.1)]
    ok = ordered[0] <= ordered[1] <= ordered[2] and all(
        -0.65 <= s <= -0.35 for s in slopes.values())
    _check("02", ok,
           "median d_K nondecreasing as q_r drops: "
           + " <= ".join(f"{m:.4g}" for m in ordered)
           + "; slopes " + ", ".join(f"{slopes[q]:.3f}" for q in (1.0, 0.5, 0.1)))


def test_criterion_03_unbiased_estimator():
    rng = RngStream(303, 0).generator()
    model = PowerControlModel(20)
    net = NetworkConfig(20, 0.35, 0.3)
    hits = 0
    for trial in range(10):
        while True:
            live = sample_activity(net, rng, 1)
            if live.size >= 2:
                break
        env = model.sample_env(live, rng)
        a_hat = rng.uniform(-2.0, 2.0, 20)
        bias, err = mc_check_unbiasedness(model, a_hat, live, env,
                                          q_r=0.3, sigma_eta=0.5,
                                          n_trials=100_000, rng=rng, noise=net.noise)
        hits += abs(bias) <= 3 * err
    _check("03", hits >= 9, f"|bias| <= 3 se in {hits}/10 resampled worlds")


def test_criterion_04_feasibility_invariant():
    # boundary stress: shrunk interval only 0.1 wide at the first index
    cfg = quadratic_config(n_nodes=5, q_activity=0.5, beta0=0.9, gamma0=2.0,
                           bound=2.05, horizon=4000, replications=3, seed=404,
                           metrics_stride=1000, sigma_eta=1.0)
    ds = run_experiment(cfg, trace=True)
    performed = ds.traces["a_hat"]
    in_bounds = performed.min() >= -2.05 and performed.max() <= 2.05
    # the engine must hard-fail if a state were ever pushed outside: a step
    # from slot-start action 2.7 performs 2.7 +- gamma(1) = 2.7 +- 0.5, beyond
    # 2.05 for either perturbation sign
    small = quadratic_config(n_nodes=2, q_activity=0.5, gamma0=0.5, bound=2.05,
                             horizon=10, replications=1)
    model = build_model(small)
    block = slot_block(ActiveSet.from_mask(np.array([[True, False]])), np.array([1]), 1,
                       model, small.network, role_streams(1), small.bounds,
                       schedule=small.schedule, pert=small.perturbation)
    block.start[:] = 2.7  # the slot-start action of the block's one entry
    with pytest.raises(FeasibilityError):
        assert_feasible(block, 0, block.live.size)
    _check("04", in_bounds,
           f"{performed.size} performed actions, all inside the bounds; "
           "out-of-interval state trips the hard assert")


def test_criterion_05_sum_identity():
    sched = reference_schedule()
    rep = verify_lemma4(lambda l: sched.beta(l) ** 2, 0.05, 5000)
    exact = verify_lemma4(lambda l: sched.beta(l) ** 2, 1.0, 5000)
    ok = rep.rel_gap < 0.02 and exact.gap == 0.0
    _check("05", ok,
           f"relative gap {rep.rel_gap:.2%} (stated limit 2%) at K=5000, "
           f"q_a=0.05; degenerate q_a=1 gap {exact.gap}")


def test_criterion_06_step_bound():
    sched = reference_schedule()
    rng = RngStream(606, 0).generator()
    ok = True
    details = []
    for k in (100, 1000, 10_000):
        bound = chernoff_step_bound(sched.gamma, k, 0.05, xi=0.5)
        est, _ = mc_step_average(sched.gamma, k, 0.05, 1_000_000, rng)
        ok &= est <= bound
        details.append(f"k={k}: {est:.4f} <= {bound:.4f}")
    _check("06", ok, "; ".join(details))


def test_criterion_07_recurrence_envelope():
    cfg = quadratic_config(n_nodes=5, q_activity=0.2, beta0=0.25, gamma0=2.0,
                           bound=3.0, horizon=10_000, replications=500,
                           seed=707, metrics_stride=100, sigma_eta=0.5)
    ds = run_experiment(cfg)
    model = build_model(cfg)
    consts = ModelConstants(
        alpha_F=model.alpha_F(cfg.network.q_activity), alpha_G=model.alpha_G,
        lipschitz=model.lipschitz(cfg.bounds), sigma_eta=cfg.sigma_eta,
        sigma_a_sq=cfg.bounds.sigma_a_sq)
    params = rate_params(cfg.schedule, cfg.network, consts, cfg.perturbation,
                         cfg.horizon, bounds=cfg.bounds,
                         a_star=model.optimum_hint)
    start = int(np.searchsorted(ds.ks, params.K1))
    d_init = ds.D[start] + 3 * ds.D_stderr[start]
    envelope = recurrence_envelope(params, d_init, int(ds.ks[start]), cfg.horizon)
    idx = ds.ks[start:] - ds.ks[start]
    dominated = ds.D[start:] - 3 * ds.D_stderr[start:] <= envelope[idx]
    _check("07", bool(np.all(dominated)),
           f"simulated D_k <= iterated bound at all {idx.size} recorded slots "
           f">= K1={params.K1} (A={params.A:.3g}, B={params.B:.3g}, "
           f"C={params.C:.4g})")


def test_criterion_08_bias_bound_contraction():
    sched = reference_schedule()
    net = NetworkConfig(50, 0.05, 1.0)
    pert = PerturbationSpec.rademacher()
    bounds = ActionBounds.uniform(50, -12.0, 12.0)
    k0 = compute_K0(sched, pert, bounds, np.zeros(50))
    diag = bias_diagnostics(sched, net, pert, alpha_G=2.0, k_grid=[k0, 100_000])
    ratio = diag.b_bound[1] / diag.b_bound[0]
    _check("08", ratio < 0.01,
           f"b_bound(1e5)/b_bound(K0={k0}) = {ratio:.3f}, stated limit 0.01 "
           "(decay is (q_a k)^-0.25; see ledger)")


def test_criterion_08_mc_bias_below_bound():
    targets = QuadraticModel.default_targets(20)
    model = QuadraticModel(targets)
    sched = quadratic_config().schedule
    net = NetworkConfig(20, 0.1, 1.0)
    pert = PerturbationSpec.rademacher()
    rng = RngStream(808, 0).generator()
    a_frozen = targets + 0.5
    ok = True
    details = []
    for k in (50, 500):
        bias, err = mc_gradient_bias(model, sched, net, pert, sigma_eta=1.0,
                                     a=a_frozen, node=7, k=k,
                                     n_samples=100_000, rng=rng)
        bound = bias_diagnostics(sched, net, pert, model.alpha_G, [k]).b_bound[0]
        ok &= abs(bias) <= bound + 3 * err
        details.append(f"k={k}: |{bias:.4f}| <= {bound:.3f} + 3*{err:.4f}")
    _check("08", ok, "monte-carlo bias under the bound: " + "; ".join(details))


def test_criterion_09a_action_spread_contracts(reproduction_runs):
    _, learner, _ = reproduction_runs
    j1000 = int(np.where(learner.ks == 1000)[0][0])
    spread = learner.actions.max(axis=2) - learner.actions.min(axis=2)
    ratios = spread[:, -1] / spread[:, j1000]
    med = float(np.median(ratios))
    _check("09a", med < 0.25,
           f"median spread(K)/spread(1e3) = {med:.3f} < 0.25")


def test_criterion_09b_utility_near_baseline_plateau(reproduction_runs):
    _, learner, baseline = reproduction_runs
    f_learner = float(learner.f_hat[:, -1].mean())
    tail = baseline.f_hat.mean(axis=0)
    plateau = float(tail[-(tail.size // 4):].mean())
    gap = abs(f_learner - plateau)
    _check("09b", gap <= 0.1 * abs(plateau),
           f"mean F at K = {f_learner:.2f} vs baseline plateau {plateau:.2f}: "
           f"gap {gap:.2f} vs band {0.1 * abs(plateau):.2f} (see ledger)")


def test_criterion_10_gradient_oracle():
    rng = RngStream(1010, 0).generator()
    failures = 0
    power = PowerControlModel(8)
    quad = QuadraticModel(QuadraticModel.default_targets(8))
    net = NetworkConfig(8, 0.5, 1.0)
    for point in range(20):
        delta = mask_of(sample_activity(net, rng, 1))[0]
        if delta.sum() == 0:
            delta[point % 8] = 1
        a = rng.uniform(-2.0, 2.0, 8)
        h = 1e-6
        live = ActiveSet.from_mask(delta[None, :])
        model = power if point % 2 == 0 else quad
        if point % 2 == 0:
            env = power.sample_env(live, rng)
        else:
            env = quad.prepare_env(live, rng.uniform(0.5, 1.5, (1, 8))[0, live.node_idx])
        grad = scatter(live, model.global_gradient(a[live.node_idx], live, env))[0]
        f = lambda x: float(model.local_utilities(x[live.node_idx], live, env).sum())
        for i in range(8):
            e = np.zeros(8)
            e[i] = h
            fd = (f(a + e) - f(a - e)) / (2 * h)
            if not np.isclose(grad[i], fd, rtol=1e-5, atol=1e-7):
                failures += 1
    _check("10", failures == 0,
           f"{failures} finite-difference mismatches over 20 points x 8 nodes")


def test_criterion_11_byte_identical_reruns(tmp_path):
    cfg = quadratic_config(n_nodes=6, horizon=800, replications=3, seed=1111,
                           metrics_stride=100, f_mc_samples=200)
    first = tmp_path / "first"
    second = tmp_path / "second"
    emit_outputs(run_experiment(cfg), first, svg=True)
    emit_outputs(run_experiment(cfg), second, svg=True)
    same_csv = filecmp.cmp(first / "trajectory.csv", second / "trajectory.csv",
                           shallow=False)
    same_mean = filecmp.cmp(first / "divergence_mean.csv",
                            second / "divergence_mean.csv", shallow=False)
    _check("11", same_csv and same_mean,
           "rerun with identical config+seed produced byte-identical CSVs")

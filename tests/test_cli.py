import csv
import dataclasses
import math
import os
import re

import subprocess
import sys

import pytest
import yaml

from dosp import ConfigError, StepSizeSchedule, optimizer
from dosp.analysis import MAX_AVERAGE_K
from dosp.cli import main
from dosp.harness import ExperimentConfig

from conftest import power_config, quadratic_config

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _write_config(tmp_path, cfg: ExperimentConfig) -> str:
    path = tmp_path / "cfg.yaml"
    cfg.to_yaml(path)
    return str(path)


def _small_cfg(**kw):
    defaults = dict(n_nodes=5, horizon=200, replications=2, seed=3,
                    metrics_stride=50, f_mc_samples=16)
    defaults.update(kw)
    return quadratic_config(**defaults)


def test_run_emits_trajectory(tmp_path, capsys):
    path = _write_config(tmp_path, _small_cfg())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--svg"]) == 0
    files = capsys.readouterr().out.split()
    assert str(out / "trajectory.csv") in files
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 5  # replications x recorded slots

def test_run_trace_flag(tmp_path, capsys):
    path = _write_config(tmp_path, _small_cfg(q_activity=0.5, replications=1))
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--trace"]) == 0
    assert (out / "trace_rep000.csv").exists()


def test_missing_config_is_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_malformed_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"model": {"kind": "power"}}))
    assert main(["run", "--config", str(path)]) == 2


def test_malformed_yaml_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("model: [power\nnetwork: {n_nodes: 3\n")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("f_mc_samples", 1),
    ("f_mc_samples", -5),
    ("index_mode", "bogus"),
])
def test_bad_run_value_is_config_error(tmp_path, capsys, key, value):
    d = _small_cfg().to_dict()
    d["run"][key] = value
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(d))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", [
    ("run", "seed", -1),
    ("run", "replications", True),
    ("run", "baseline_step", math.inf),
    ("schedule", "beta0", math.inf),
    ("bounds", "upper", math.inf),
    ("model", "targets", [math.nan] * 5),
])
def test_negative_seed_bool_or_non_finite_is_config_error(tmp_path, capsys, section, key,
                                                          value):
    d = _small_cfg().to_dict()
    d[section][key] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(d))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_sweep_runs_each_value(tmp_path, capsys):
    path = _write_config(tmp_path, _small_cfg())
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", path, "--out", str(out),
               "--vary", "network.q_reception=1.0,0.5"])
    assert rc == 0
    assert (out / "network_q_reception=1.0" / "trajectory.csv").exists()
    assert (out / "network_q_reception=0.5" / "trajectory.csv").exists()


def test_sweep_list_valued_key(tmp_path, capsys):
    path = _write_config(tmp_path, _small_cfg(n_nodes=3))
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", path, "--out", str(out),
               "--vary", "model.targets=[0,1,2],[2,1,0]"])
    assert rc == 0
    assert (out / "model_targets=[0,1,2]" / "trajectory.csv").exists()
    assert (out / "model_targets=[2,1,0]" / "trajectory.csv").exists()


def test_sweep_rejects_unknown_parameter(tmp_path, capsys):
    path = _write_config(tmp_path, _small_cfg())
    assert main(["sweep", "--config", path, "--vary", "network.nope=1,2"]) == 2


def test_sweep_values_are_parsed_as_yaml(tmp_path, capsys):
    # the old value "beta" is a string; a constant step must still be accepted
    path = _write_config(tmp_path, _small_cfg(algorithm="ideal_gradient"))
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", path, "--out", str(out),
               "--vary", "run.baseline_step=0.01,beta_gamma"])
    assert rc == 0
    assert (out / "run_baseline_step=0.01" / "trajectory.csv").exists()
    assert (out / "run_baseline_step=beta_gamma" / "trajectory.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("run.horizon", "5e3"),
    ("run.horizon", "5000.0"),
    ("run.horizon", "[1"),
    ("model.gain_low", "abc"),
])
def test_sweep_uncoercible_value_is_config_error(tmp_path, capsys, key, value):
    path = _write_config(tmp_path, _small_cfg())
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", path, "--out", str(out),
               "--vary", f"{key}=100,{value}"])
    assert rc == 2
    assert not out.exists()  # no value runs before every config is built
    assert capsys.readouterr().err.count("\n") == 1


def test_verify_passes_on_reference_setup(tmp_path, capsys):
    path = _write_config(tmp_path, _small_cfg(q_activity=0.2))
    assert main(["verify", "--config", path, "--kmax", "4000"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "alpha_G = 2 (closed form)" in out


def test_verify_uses_the_power_models_sampled_curvature(tmp_path, capsys):
    # the bias-envelope check scales by the alpha_G estimate that `dosp
    # bounds` uses too, not by the quadratic's 2
    from dosp.harness import build_model, model_constants

    cfg = power_config(n_nodes=5, q_activity=1.0, bound=2.0, horizon=200,
                       replications=2, seed=7)
    cfg = dataclasses.replace(cfg, schedule=StepSizeSchedule(0.5, 0.5, 0.75, 0.25))
    consts = model_constants(cfg, build_model(cfg))
    assert consts.sampled and consts.alpha_G != 2.0
    assert main(["verify", "--config", _write_config(tmp_path, cfg), "--kmax", "2000"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if "bias-envelope" in l)
    assert f"alpha_G = {consts.alpha_G:.6g} (sampled max |global_hessian|)" in line


@pytest.mark.parametrize("argv", [
    ["bounds", "--kmax", "3"],
    ["bounds", "--kmax", str(MAX_AVERAGE_K + 1)],
    ["bounds", "--kmax", "2000000"],
    ["bounds", "--points", "0"],
    ["verify", "--kmax", "0"],
    ["verify", "--kmax", "3000000"],
], ids=["bounds-kmax-3", "bounds-kmax-above-cap", "bounds-kmax-2e6", "bounds-points-0",
        "verify-kmax-0", "verify-kmax-3e6"])
def test_out_of_range_horizon_is_config_error(tmp_path, capsys, argv):
    path = _write_config(tmp_path, _small_cfg(q_activity=0.2))
    out = tmp_path / "bounds"
    extra = ["--out", str(out)] if argv[0] == "bounds" else []
    assert main(argv + ["--config", path] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --") and err.count("\n") == 1
    assert not out.exists()


# modules no dosp command needs: scipy (the log-factorials are computed in
# analysis), numpy.ma (np.unique loads it) and what xml.sax.saxutils pulls in
HEAVY_MODULES = ("scipy", "numpy.ma", "xml.sax", "urllib.request", "http.client", "ssl", "email")


def test_cli_import_loads_no_scipy(tmp_path):
    import dosp

    path = _write_config(tmp_path, _small_cfg(q_activity=0.2, beta0=0.25,
                                              gamma0=2.0, bound=3.0))
    (tmp_path / "plain").mkdir()
    plain = _write_config(tmp_path / "plain", _small_cfg(f_mc_samples=0))
    out = str(tmp_path)
    commands = [["run", "--svg", "--trace", "--out", out + "/run"],
                ["bounds", "--kmax", "2000", "--out", out + "/bounds"],
                ["verify", "--kmax", "2000"]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(dosp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def stderr_lines(code):
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stderr.splitlines()

    # what an interpreter loads for dosp's own dependencies (site hooks, .pth
    # files; numpy 1.x imports numpy.ma with numpy) does not count
    deps = "import sys, numpy, yaml; print(*sys.modules, file=sys.stderr)"
    base = set(stderr_lines(deps)[-1].split())

    def loaded(commands, path, modules):
        """Exit codes of ``commands`` on ``path`` run in one interpreter, and
        the ``modules`` (or their submodules) they loaded."""
        code = ("import sys; from dosp.cli import main; "
                f"print([main(a + ['--config', {path!r}]) for a in {commands!r}], "
                "file=sys.stderr); print(*sys.modules, file=sys.stderr)")
        *_, rcs, names = stderr_lines(code)
        return rcs, sorted(m for m in set(names.split()) - base
                           if any(m == h or m.startswith(h + ".") for h in modules))

    assert loaded(commands, path, HEAVY_MODULES) == ("[0, 0, 0]", [])
    # a run without F_hat records starts no worker, so it needs no process machinery
    assert loaded([["run", "--out", out + "/plain"]], plain,
                  HEAVY_MODULES + ("multiprocessing", "concurrent")) == ("[0]", [])


def test_bounds_emits_table(tmp_path, capsys):
    path = _write_config(tmp_path, _small_cfg(q_activity=0.2, beta0=0.25,
                                              gamma0=2.0, bound=3.0))
    out = tmp_path / "bounds"
    rc = main(["bounds", "--config", path, "--kmax", "2000", "--out", str(out)])
    assert rc == 0
    with open(out / "bounds.csv", newline="") as fh:
        header = fh.readline().strip()
    assert header == ("k,theta,upsilon,psi,envelope_th3_a,envelope_th3_b,"
                      "envelope_th4,w_bound,omega,status")


def test_bounds_inapplicable_exit_code(tmp_path, capsys):
    # a tiny beta0*gamma0 blows up the transient ratio maxima past A
    cfg = _small_cfg(q_activity=0.5, beta0=0.002, gamma0=0.5, bound=3.0)
    path = _write_config(tmp_path, cfg)
    rc = main(["bounds", "--config", path, "--kmax", "1500",
               "--out", str(tmp_path / "b")])
    assert rc == 4


def _solve_then_bounds(tmp_path, path):
    opt = tmp_path / "opt"
    assert main(["solve-optimum", "--config", path, "--tol", "0.05", "--out", str(opt)]) == 0
    out = tmp_path / "bounds"
    rc = main(["bounds", "--config", path, "--kmax", "2000", "--a-star-dir", str(opt),
               "--out", str(out)])
    return rc, out


def test_bounds_power_model_sampled_constants(tmp_path, capsys):
    # every node active, so each sampled row carries the full curvature; the
    # constants are sample estimates, and at this seed alpha_F comes out positive
    cfg = power_config(n_nodes=5, q_activity=1.0, bound=2.0, horizon=200,
                       replications=2, seed=7)
    cfg = dataclasses.replace(cfg, schedule=StepSizeSchedule(0.5, 0.5, 0.75, 0.25))
    rc, out = _solve_then_bounds(tmp_path, _write_config(tmp_path, cfg))
    assert rc == 0
    assert (out / "bounds.csv").exists()
    assert "note: alpha_F, alpha_G, L estimated by sampling" in capsys.readouterr().out


def test_bounds_power_model_without_strong_concavity(tmp_path, capsys):
    path = os.path.join(CONFIGS, "power_utility_reception_sweep.yaml")
    rc, out = _solve_then_bounds(tmp_path, path)
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: could not certify a positive strong-concavity constant")
    assert err.count("\n") == 1


def test_solve_optimum_writes_cache(tmp_path, capsys):
    path = _write_config(tmp_path, _small_cfg(q_activity=0.4))
    out = tmp_path / "opt"
    rc = main(["solve-optimum", "--config", path, "--tol", "0.05",
               "--max-iters", "400", "--out", str(out)])
    assert rc == 0
    cached = [f for f in os.listdir(out) if f.startswith("a_star_")]
    assert len(cached) == 1


def test_solve_optimum_nonconvergence_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, _small_cfg(q_activity=0.4))
    rc = main(["solve-optimum", "--config", path, "--tol", "1e-9",
               "--max-iters", "100", "--out", str(tmp_path / "o")])
    assert rc == 3


def test_infeasible_action_exit_code(tmp_path, capsys, monkeypatch):
    def beyond_the_bounds(bounds, nodes, alpha_phi, gamma_tilde):
        # a projection interval past the upper bound: every performed action leaves it
        hi = bounds.upper[nodes] + 1.0
        return hi, hi

    monkeypatch.setattr(optimizer, "_shrunk_interval", beyond_the_bounds)
    path = _write_config(tmp_path, _small_cfg(replications=1))
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 3
    # one line, naming the first slot with a live entry
    assert re.fullmatch(r"feasibility failure: slot \d+: performed action left its interval "
                        r"at \(replication, node\) = \(0, \d+\)\n", capsys.readouterr().err)


def test_shipped_configs_are_valid():
    import glob

    paths = sorted(glob.glob(os.path.join(CONFIGS, "*.yaml")))
    assert len(paths) >= 3
    for path in paths:
        cfg = ExperimentConfig.from_yaml(path)
        assert cfg == ExperimentConfig.from_dict(cfg.to_dict())

import csv
import os

import pytest
import yaml

from dosp import ConfigError
from dosp.cli import main
from dosp.harness import ExperimentConfig

from conftest import quadratic_config


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


def test_sweep_runs_each_value(tmp_path, capsys):
    path = _write_config(tmp_path, _small_cfg())
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", path, "--out", str(out),
               "--vary", "network.q_reception=1.0,0.5"])
    assert rc == 0
    assert (out / "network_q_reception=1.0" / "trajectory.csv").exists()
    assert (out / "network_q_reception=0.5" / "trajectory.csv").exists()


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


def test_shipped_configs_are_valid():
    import glob

    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                          "configs", "*.yaml")))
    assert len(paths) >= 3
    for path in paths:
        cfg = ExperimentConfig.from_yaml(path)
        assert cfg == ExperimentConfig.from_dict(cfg.to_dict())

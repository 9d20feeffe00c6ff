import csv
import dataclasses
import math
import os
import re

import subprocess
import sys

import numpy as np
import pytest
import yaml

from dosp import ActionBounds, ConfigError, StepSizeSchedule, optimizer
from dosp.analysis import MAX_AVERAGE_K
from dosp.cli import main
from dosp.harness import ExperimentConfig, OptimumResult, save_optimum

from reference_configs import power_config, quadratic_config, write_yaml

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def _write_config(tmp_path, cfg: ExperimentConfig) -> str:
    path = tmp_path / "cfg.yaml"
    write_yaml(cfg, path)
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


@pytest.mark.parametrize("what", ["directory", "not-utf8"])
def test_unreadable_config_is_config_error(tmp_path, capsys, what):
    path = tmp_path / "cfg.yaml"
    if what == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"model: {kind: power}  # \xff\xfe\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {path}: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["bounds", "--kmax", "2000"],
                                     ["solve-optimum", "--max-iters", "100"]],
                         ids=["run", "bounds", "solve-optimum"])
def test_out_below_a_file_is_config_error(tmp_path, capsys, command):
    # found before the run, bound or solve starts, and nothing is created
    path = _write_config(tmp_path, _small_cfg(q_activity=0.4))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    assert main(command + ["--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: --out {out}: {blocker} is not a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.yaml", "file"]
    assert blocker.read_text() == ""


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
    ("algorithm", "sgd"),
    ("baseline_step", "gamma"),
    ("baseline_step", 0.0),
    ("baseline_step", -0.5),
    ("divergence", "sometimes"),
    ("sigma_eta", -0.1),
    ("horizon", 0),
    ("replications", 0),
    ("metrics_stride", 0),
    ("model.kind", "cubic"),
    ("bounds", {"lower": [-3.0] * 3, "upper": [3.0] * 3}),  # 5 nodes
])
def test_bad_run_value_is_config_error(tmp_path, capsys, key, value):
    d = _small_cfg().to_dict()
    # a run key, a dotted "section.key", or a whole section
    section, _, name = key.rpartition(".")
    (d if name in d else d[section or "run"])[name] = value
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(d)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(d))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "bad experiment config" not in err  # the check's own message, not wrapped again
    assert not (tmp_path / "out").exists()


def _without(section, key=None):
    """The small config's dict, less a whole section or one key of it."""
    d = _small_cfg().to_dict()
    (d if key is None else d[section]).pop(key or section)
    return d


@pytest.mark.parametrize("document, named", [
    ("", "model, network"),  # an empty file
    ("- model\n- network\n", "model, network"),
    (yaml.safe_dump({**_small_cfg().to_dict(), "network": 5}), "section 'network'"),
    (yaml.safe_dump({**_small_cfg().to_dict(), "model": [1]}), "section 'model'"),
    (yaml.safe_dump(_without("network")), "section 'network'"),
    (yaml.safe_dump(_without("model", "kind")), "'model.kind'"),
    (yaml.safe_dump(_without("network", "q_activity")), "'network.q_activity'"),
    (yaml.safe_dump(_without("schedule", "c2")), "'schedule.c2'"),
    (yaml.safe_dump(_without("run", "horizon")), "'run.horizon'"),
    (yaml.safe_dump(_without("bounds", "upper")), "'bounds.upper'"),
], ids=["empty-file", "top-level-list", "section-not-a-mapping", "model-a-list",
        "missing-section", "model-without-kind", "network-without-q_activity",
        "schedule-without-c2", "run-without-horizon", "bounds-without-upper"])
def test_malformed_document_names_its_section_or_key(tmp_path, capsys, document, named):
    path = tmp_path / "bad.yaml"
    path.write_text(document)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "out").exists()


_LEFT_OUT = object()  # the key is deleted, not set


@pytest.mark.parametrize("config, key, value", [
    ("quadratic_divergence_rate", "network.q_activity", "a"),
    ("quadratic_divergence_rate", "schedule.beta0", "x"),
    ("quadratic_divergence_rate", "bounds.lower", "a"),
    ("quadratic_divergence_rate", "network.n_nodes", 2.5),
    ("quadratic_divergence_rate", "network.n_nodes", 20.0),  # an integer field takes no float
    ("quadratic_divergence_rate", "run.sigma_eta", None),
    pytest.param("quadratic_divergence_rate", "network.q_activity", _LEFT_OUT,
                 id="quadratic_divergence_rate-network.q_activity-left-out"),
    ("power_actions_single_run", "model.omega1", "x"),
    ("power_actions_single_run", "model.channel", {"var_direct": "x"}),
    ("power_actions_single_run", "model.channel", 5),
    ("power_actions_single_run", "model.channel", 0),  # once ran the default channel
])
def test_wrong_type_or_missing_key_names_it(tmp_path, capsys, config, key, value):
    with open(os.path.join(CONFIGS, f"{config}.yaml")) as fh:
        d = yaml.safe_load(fh)
    section, name = key.split(".")
    if value is _LEFT_OUT:
        del d[section][name]
    else:
        d[section][name] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(d))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert key in err
    assert "bad experiment config" not in err
    assert not (tmp_path / "out").exists()


def test_vary_value_of_the_wrong_type_names_its_key(tmp_path, capsys):
    path = _write_config(tmp_path, _small_cfg())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--vary", "network.n_nodes=5,2.5"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: network.n_nodes must be an integer, got 2.5\n"
    assert not out.exists()  # no run started, not even the valid value's


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


@pytest.mark.parametrize("kind, section, key, value", [
    ("power", "model", "omega_1", 5.0),
    ("power", "model", "n_nodes", 5),  # the network's, never the model's
    ("quadratic", "model", "n_nodes", 5),
    ("quadratic", "model", "target", [0.0] * 5),
    ("quadratic", "perturbation", "kind", "gausian"),
    ("quadratic", "perturbation", "scale", 2.0),  # a rademacher scale is always 1
    ("quadratic", "perturbation", "sclae", 1.0),
    ("quadratic", "bounds", "uper", 2.0),
    ("quadratic", None, "runs", {"horizon": 10}),
])
def test_unknown_key_or_kind_is_config_error(tmp_path, capsys, kind, section, key, value):
    # each of these once ran with the default in its place
    d = (_small_cfg() if kind == "quadratic" else
         power_config(n_nodes=5, horizon=200, replications=2, seed=3, metrics_stride=50,
                      f_mc_samples=16)).to_dict()
    (d[section] if section else d)[key] = value
    with pytest.raises(ConfigError, match=re.escape(key if key != "scale" else "scale 1")):
        ExperimentConfig.from_dict(d)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(d))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_rademacher_scale_may_be_omitted():
    d = _small_cfg().to_dict()
    del d["perturbation"]["scale"]
    assert ExperimentConfig.from_dict(d) == _small_cfg()
    del d["perturbation"]
    assert ExperimentConfig.from_dict(d) == _small_cfg()


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
    out = tmp_path / "out"
    for vary, reason in (("foo", "--vary expects <dotted.param>=<v1,v2,...>"),
                         ("nosuch.key=1", "unknown config section 'nosuch' in 'nosuch.key'")):
        capsys.readouterr()
        assert main(["run", "--config", path, "--out", str(out), "--vary", vary]) == 2
        assert capsys.readouterr().err == f"config error: {reason}\n"
        assert not out.exists()


def test_vary_path_below_a_value_is_config_error(tmp_path, capsys):
    # a key under a number, not a section, once raised a TypeError
    path = _write_config(tmp_path, _small_cfg())
    assert main(["run", "--config", path, "--vary", "run.horizon.below=1,2"]) == 2
    assert capsys.readouterr().err == "config error: unknown config key 'run.horizon.below'\n"


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


def test_run_vary_is_the_sweep(tmp_path, capsys):
    # the shipped reception sweep at a short horizon: same files, same bytes,
    # same printed paths under either name
    cfg = ExperimentConfig.from_yaml(os.path.join(CONFIGS, "power_utility_reception_sweep.yaml"))
    cfg = dataclasses.replace(cfg, horizon=1000, replications=2, metrics_stride=500,
                              f_mc_samples=50)
    path = _write_config(tmp_path, cfg)
    trees = {}
    for command in ("run", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out), "--svg",
                     "--vary", "network.q_reception=1.0,0.5"]) == 0
        printed = [os.path.relpath(p, out) for p in capsys.readouterr().out.split()]
        files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*"))
                 if f.is_file()}
        trees[command] = printed, files
    printed, files = trees["run"]
    assert trees["sweep"] == trees["run"]
    assert sorted(printed) == sorted(files)
    assert "network_q_reception=0.5/utility.svg" in files


def test_sweep_takes_trace(tmp_path, capsys):
    path = _write_config(tmp_path, _small_cfg(q_activity=0.5, replications=1))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", path, "--out", str(out), "--trace",
                 "--vary", "network.q_reception=1.0,0.5"]) == 0
    for value in ("1.0", "0.5"):
        assert (out / f"network_q_reception={value}" / "trace_rep000.csv").exists()


def test_sweep_takes_a_cached_optimum(tmp_path, capsys):
    # q_r is not part of the optimum's cache key, so one cache serves every value
    cfg = power_config(n_nodes=5, horizon=100, replications=2, seed=3, metrics_stride=50)
    assert cfg.divergence == "auto"
    path = _write_config(tmp_path, cfg)
    _cache_optimum(tmp_path / "opt", cfg, np.zeros(5))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", path, "--out", str(out), "--a-star-dir",
                 str(tmp_path / "opt"), "--vary", "network.q_reception=1.0,0.5"]) == 0
    for value in ("1.0", "0.5"):
        rows = (out / f"network_q_reception={value}" / "trajectory.csv").read_bytes()
        assert rows.splitlines()[1].split(b",")[2] != b""  # d_k is recorded


def test_sweep_without_vary_runs_once(tmp_path, capsys):
    path = _write_config(tmp_path, _small_cfg())
    out = tmp_path / "out"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").exists()


def test_schedule_wider_than_the_bounds_is_config_error(tmp_path, capsys):
    # alpha_phi * gamma(1) = 4 is not below half the width of [-3, 3]
    path = _write_config(tmp_path, _small_cfg(gamma0=4.0, bound=3.0))
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: alpha_phi * gamma(1) = 4.0 must be < half")
    assert err.count("\n") == 1
    assert not out.exists()


def test_schedule_one_ulp_short_of_the_bounds_is_config_error(tmp_path, capsys):
    # gamma(1) = 1 - 2**-53 is below half the width of [0, 2], but [gamma(1),
    # 2 - gamma(1)] is empty once each end moves one ulp inward.  At this seed
    # no slot draws the step index 1, so only the start-up check refuses it.
    cfg = _small_cfg(n_nodes=1, q_activity=0.01, gamma0=1 - 2**-53, horizon=3000,
                     replications=1, seed=0)
    cfg = dataclasses.replace(cfg, bounds=ActionBounds.uniform(1, 0.0, 2.0))
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "config error: alpha_phi * gamma(1) = 0.9999999999999999 must be < half")
    assert err.count("\n") == 1
    assert not out.exists()


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
    ["bounds", "--kmax", "2000", "--points", "2001"],
    ["verify", "--kmax", "0"],
    ["verify", "--kmax", "3000000"],
], ids=["bounds-kmax-3", "bounds-kmax-above-cap", "bounds-kmax-2e6", "bounds-points-0",
        "bounds-points-above-kmax", "verify-kmax-0", "verify-kmax-3e6"])
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
    # a run without F_hat records starts no worker, so it needs no process
    # machinery, and without --svg it needs no chart, analysis or verify module
    assert loaded([["run", "--out", out + "/plain"]], plain,
                  HEAVY_MODULES + ("multiprocessing", "concurrent", "dosp.analysis",
                                   "dosp.verify", "dosp.chart")) == ("[0]", [])


def _cache_optimum(directory, cfg, a_star):
    return save_optimum(directory, cfg, OptimumResult(np.asarray(a_star, float), 0.0, 0))


def _trajectory(tmp_path, path, name, *extra):
    out = tmp_path / name
    assert main(["run", "--config", path, "--out", str(out), *extra]) == 0
    return (out / "trajectory.csv").read_bytes()


def test_run_takes_the_models_optimum_before_a_cached_one(tmp_path, capsys):
    # as `bounds` does: a cached a* does not replace the quadratic's known targets
    cfg = _small_cfg()
    path = _write_config(tmp_path, cfg)
    _cache_optimum(tmp_path / "opt", cfg, np.zeros(5))
    assert (_trajectory(tmp_path, path, "with", "--a-star-dir", str(tmp_path / "opt"))
            == _trajectory(tmp_path, path, "without"))


def test_run_divides_by_a_cached_optimum_without_a_known_one(tmp_path, capsys):
    cfg = power_config(n_nodes=5, horizon=100, replications=2, seed=3, metrics_stride=50)
    path = _write_config(tmp_path, cfg)
    _cache_optimum(tmp_path / "opt", cfg, np.full(5, 0.5))
    rows = _trajectory(tmp_path, path, "out", "--a-star-dir", str(tmp_path / "opt"))
    assert rows.splitlines()[1].split(b",")[2] != b""  # d_k is recorded
    assert (tmp_path / "out" / "divergence_mean.csv").exists()


def test_run_loads_no_optimum_when_divergence_is_skipped(tmp_path, capsys):
    cfg = power_config(n_nodes=5, horizon=100, replications=2, seed=3, metrics_stride=50,
                       divergence="skip")
    path = _write_config(tmp_path, cfg)
    # no cache in the directory: reading one would be a config error
    _trajectory(tmp_path, path, "out", "--a-star-dir", str(tmp_path / "empty"))
    assert not (tmp_path / "out" / "divergence_mean.csv").exists()


def test_stale_optimum_cache_is_config_error(tmp_path, capsys):
    cfg = power_config(n_nodes=5, horizon=100, replications=2, seed=3, metrics_stride=50)
    path = _write_config(tmp_path, cfg)
    cache = _cache_optimum(tmp_path / "opt", cfg, np.zeros(5))
    np.savez(cache, a_star=np.zeros(5), grad_norm=0.0, key="0123456789abcdef")
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--a-star-dir", str(tmp_path / "opt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: stale optimum cache") and err.count("\n") == 1
    assert not out.exists()


def _bare_array(path, key):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(5))


@pytest.mark.parametrize("write, reason", [
    (lambda path, key: path.write_text("not a zip\n"), "unreadable optimum cache"),
    (_bare_array, "unreadable optimum cache"),
    (lambda path, key: np.savez(path, a_star=np.zeros(5)), "unreadable optimum cache"),
    (lambda path, key: np.savez(path, key=key), "unreadable optimum cache"),
    (lambda path, key: np.savez(path, a_star=np.zeros(4), key=key), "stale optimum cache"),
], ids=["text", "npy", "no-key", "no-a_star", "wrong-length"])
def test_malformed_optimum_cache_is_config_error(write, reason, tmp_path, capsys):
    cfg = power_config(n_nodes=5, horizon=100, replications=2, seed=3, metrics_stride=50)
    path = _write_config(tmp_path, cfg)
    cache = _cache_optimum(tmp_path / "opt", cfg, np.zeros(5))
    key = str(np.load(cache)["key"])
    write(tmp_path / "opt" / os.path.basename(cache), key)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out),
                 "--a-star-dir", str(tmp_path / "opt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {reason}") and err.count("\n") == 1
    assert not out.exists()


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


def test_bounds_without_a_known_optimum_is_config_error(tmp_path, capsys):
    # the power model has no closed-form optimum, and no cache directory is given
    path = os.path.join(CONFIGS, "power_actions_single_run.yaml")
    out = tmp_path / "bounds"
    assert main(["bounds", "--config", path, "--kmax", "2000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: bounds need a known optimum; run solve-optimum first\n")
    assert not out.exists()


def test_bounds_with_an_optimum_outside_the_bounds_is_config_error(tmp_path, capsys):
    with open(os.path.join(CONFIGS, "quadratic_divergence_rate.yaml")) as fh:
        cfg = yaml.safe_load(fh)
    cfg["model"]["targets"][0] = 5.0
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "bounds"
    assert main(["bounds", "--config", str(path), "--kmax", "2000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: the optimum must be strictly interior to the bounds: "
        "node 0 has a* = 5, outside (-4, 4)\n")
    assert not out.exists()


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


@pytest.mark.parametrize("budget", [["--tol", "0.05", "--max-iters", "5"],
                                    ["--tol", "-1", "--max-iters", "100"],
                                    ["--tol", "nan", "--max-iters", "100"],
                                    ["--max-iters", "0"]],
                         ids=["partial-block", "negative-tol", "nan-tol", "no-iterations"])
def test_solve_optimum_budget_it_cannot_honour_is_config_error(budget, tmp_path, capsys):
    # solve_optimum runs whole blocks of 100 iterations and stops below a
    # positive tolerance: these budgets ran a block or the whole budget
    path = _write_config(tmp_path, _small_cfg(q_activity=0.4))
    out = tmp_path / "opt"
    assert main(["solve-optimum", "--config", path, *budget, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"config error: (tolerance|max_iters) must be a positive .*\n", err)
    assert not out.exists()


def test_infeasible_action_exit_code(tmp_path, capsys, monkeypatch):
    def beyond_the_bounds(lower, upper, alpha_phi, gamma_tilde):
        # a projection interval past the upper bound: every performed action leaves it
        hi = upper + 1.0
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

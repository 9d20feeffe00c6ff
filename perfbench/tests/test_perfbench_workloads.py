import os

import pytest
import yaml

from dosp.harness import ExperimentConfig
from workloads import WORKLOADS

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_configs_are_deterministic_in_the_seed(name):
    workload = WORKLOADS[name]
    assert workload.configs(5) == workload.configs(5)
    assert workload.configs(5) != workload.configs(6)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_configs_load_and_slots_match_horizons(name):
    workload = WORKLOADS[name]
    configs = workload.configs(1)
    loaded = [ExperimentConfig.from_dict(c) for c in configs.values()]
    assert sum(c.horizon for c in loaded) == workload.slots


@pytest.mark.parametrize("name", ["divergence-rate", "wide-poisson"])
def test_seed_leaves_the_analysis_inputs_alone(name):
    a, b = (WORKLOADS[name].configs(s)["config"] for s in (1, 2))
    assert sorted(a["model"]["targets"]) == sorted(b["model"]["targets"])
    for key in ("network", "schedule", "perturbation", "bounds"):
        assert a[key] == b[key]
    assert dict(a["run"], seed=0) == dict(b["run"], seed=0)


def test_power_single_is_the_reference_single_run():
    with open(os.path.join(REPO, "configs", "power_actions_single_run.yaml")) as fh:
        reference = ExperimentConfig.from_dict(yaml.safe_load(fh)).to_dict()
    generated = ExperimentConfig.from_dict(WORKLOADS["power-single"].configs(1)["config"]).to_dict()
    for d in (reference, generated):
        d["run"].pop("horizon")
        d["run"].pop("seed")
    assert generated == reference


def test_power_repro_baseline_differs_only_in_algorithm():
    configs = WORKLOADS["power-repro"].configs(3)
    learner, baseline = configs["learner"], configs["baseline"]
    assert baseline["run"]["algorithm"] == "ideal_gradient"
    assert dict(baseline["run"], algorithm="dosp_s") == learner["run"]

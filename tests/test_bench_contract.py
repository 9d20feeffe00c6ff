"""The benchmark's runners must keep working against the library.

``perfbench/child.py`` calls the library by name (configs, runs, the model
constants, the rate analysis, emission and ``cli.main``), and
``perfbench/gates.py`` checks what a run writes.  A change that breaks one of
those calls fails every benchmark run of that workload; this test runs each
workload's runner once, in this process, on the configs the benchmark writes
for seed 1, and applies the workload's gate.
"""

import os
import sys

import pytest
import yaml

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

import child  # noqa: E402
import gates  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runner_passes_its_gate(tmp_path, capsys, name):
    configs = WORKLOADS[name].configs(1)
    for stem, cfg in configs.items():  # as perfbench/run.py writes them
        with open(tmp_path / f"{stem}.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=False)
    out = str(tmp_path / "out")
    timing = child.RUNNERS[name](str(tmp_path), out)
    assert gates.check(name, configs, out, timing) == []

"""Every science output is pinned: each benchmark workload's outputs hash to
the committed digests.

Each case runs a workload as a benchmark run does: ``perfbench/run.py``
writes the configs of ``Workload.configs(seed)`` as YAML, and the workload's
runner in ``perfbench/child.py`` writes the outputs.  ``gates.output_digest``
of those outputs must equal ``DIGESTS``.  A change that moves one bit of an
output fails here.  A change that moves a stream on purpose pastes the table
this test prints into ``DIGESTS``, in the same commit.
"""

import os
import sys

import numpy as np
import pytest
import yaml

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

import child  # noqa: E402
import gates  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NUMPY = "2.4.6"  # the version DIGESTS was made with
# (workload, run.index_mode, seed): output_digest of the run's outputs
DIGESTS = {
    ('divergence-rate', 'sampled', 1):
        'a2d5ab2d2aeb6f6757e757309efaa8d4c49731c373ce275a2bed21566da59369',
    ('power-repro', 'sampled', 1):
        '4406aed61e5714c77b51bf70f6328f22493de0b7d81e66234c88f7b963ae4c5b',
    ('wide-poisson', 'sampled', 1):
        'c33272589ef00ed299e87c4fd317d3f93a9cc133fd1bf8c96e1fbb7bd4fa2dcb',
    ('power-single', 'sampled', 1):
        '698e1a63fcc0ef54c915f10370c8b855cb24c6c1046ae78ad5e76d1e52205dc9',
    ('divergence-rate', 'sampled', 2):
        '1f899278d307d7d641add7eb0bf46d753872e16647f3d058406e290ef9c3c8e8',
    ('power-repro', 'sampled', 2):
        '8d57e370c931f9047176519f625345c2721415fae723ad8a1978ca96f067c470',
    ('wide-poisson', 'sampled', 2):
        '57431d8517c9332788714d54be818c48fa5a14feb1148294065e87db1e3330bf',
    ('power-single', 'sampled', 2):
        '49e970e91ce0da6449e72ef96e897e68de6f3d758e7b18a43ef2046c1bf058dd',
    ('divergence-rate', 'counted', 1):
        'e66af7167d6ef2d24994cd0ba9a8db3bcc3e8b280bc0ab72d3fe5370ff2a1261',
    ('power-repro', 'counted', 1):
        '46c9115d1850efd55e222e808d8827ca33f824a8d9604143260555b4cc1131f1',
    ('wide-poisson', 'counted', 1):
        '4cbe28460403a81b6dbc9f9a549f5d67af5c6998f944b18d382d4831df984ce8',
    ('power-single', 'counted', 1):
        'e52bb31a841b845a883e13e23064b54f972587d2f4a625e94f722bc0578201ac',
}


def _digest(workdir, name, index_mode, seed):
    """``output_digest`` of one run of workload ``name`` at ``seed``, with
    every config's ``run.index_mode`` set to ``index_mode``."""
    os.makedirs(workdir)
    for stem, cfg in WORKLOADS[name].configs(seed).items():
        cfg["run"]["index_mode"] = index_mode
        with open(os.path.join(workdir, f"{stem}.yaml"), "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=False)
    out = os.path.join(workdir, "out")
    child.RUNNERS[name](workdir, out)
    return gates.output_digest(out)


def test_science_outputs_keep_their_digests(tmp_path):
    observed = {case: _digest(str(tmp_path.joinpath(*map(str, case))), *case)
                for case in DIGESTS}
    if observed != DIGESTS:
        table = "".join(f"    {case!r}:\n        {digest!r},\n"
                        for case, digest in observed.items())
        moved = [case for case in DIGESTS if observed[case] != DIGESTS[case]]
        pytest.fail(f"{len(moved)} of {len(DIGESTS)} digests moved: {moved}.  The table "
                    f"was made with numpy {NUMPY}; this is numpy {np.__version__}.  "
                    f"Observed:\nDIGESTS = {{\n{table}}}", pytrace=False)

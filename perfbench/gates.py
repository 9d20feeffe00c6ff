"""Correctness gates, applied to the files a workload run leaves in ``out``.

Each gate returns a list of error strings; an empty list passes.  A run
fails when its process fails or a gate returns an error.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

TRAJECTORY_HEADER = ["replication", "k", "d_k", "F_hat", "F_stderr", "n_active"]

# Rate constants at k_max = 6000 for the divergence-rate workload, as computed
# by dosp.analysis.rate_params when this benchmark was defined.  They do not
# depend on the seed (see workloads.py).
DIVERGENCE_REFERENCE = {
    "A": 0.4, "B": 2.0, "C": 518385.0, "K0": 1, "K1": 1, "K2": 1,
    "eps1": 0.04993441747296856, "eps2": 0.0004579331185050908,
    "eps3": 0.05596335232806027, "eps4": 2702.7360000000012,
}
EPS_RTOL = 1e-9


def read_csv(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Header and float columns of a CSV (empty cells read as NaN)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {name: np.array([float(r[j]) if r[j] != "" else math.nan for r in body])
            for j, name in enumerate(header)}
    return header, cols


def by_replication(cols, name) -> np.ndarray:
    """(replications, records) matrix of one trajectory.csv column."""
    reps = int(cols["replication"].max()) + 1
    return cols[name].reshape(reps, -1)


def output_digest(out_dir) -> str:
    """SHA-256 over every file under ``out_dir``, names included."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(out_dir)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, out_dir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def gate_divergence(d, analysis: dict, reference: dict = DIVERGENCE_REFERENCE) -> list[str]:
    errors = []
    values = np.concatenate([d, analysis["recurrence"], analysis["envelope"],
                             [analysis[k] for k in ("A", "B", "C", "eps1", "eps2",
                                                    "eps3", "eps4")]])
    if not np.all(np.isfinite(values)):
        errors.append("non-finite divergence, envelope or rate constant")
    elif not d[-1] <= d[0] / 10:
        errors.append(f"D_K = {d[-1]:.4g} above D_1 / 10 = {d[0] / 10:.4g}")
    if analysis["status"] != "applicable":
        errors.append(f"rate bound status {analysis['status']!r}")
    for key in ("A", "B", "C", "K0", "K1", "K2"):
        if analysis[key] != reference[key]:
            errors.append(f"{key} = {analysis[key]!r}, expected {reference[key]!r}")
    for key in ("eps1", "eps2", "eps3", "eps4"):
        if not abs(analysis[key] - reference[key]) <= EPS_RTOL * abs(reference[key]):
            errors.append(f"{key} = {analysis[key]!r}, expected {reference[key]!r}")
    return errors


def gate_rising(label, f_hat, f_stderr) -> list[str]:
    """Mean F_hat rises from first to last record by more than 3 stderr.

    The stderr is the Monte-Carlo standard error of the difference of the two
    replication means, from the per-replication F_stderr column.
    """
    if not (np.all(np.isfinite(f_hat)) and np.all(np.isfinite(f_stderr))):
        return [f"{label}: non-finite F_hat"]
    rise = f_hat[:, -1].mean() - f_hat[:, 0].mean()
    se = math.sqrt(float(np.sum(f_stderr[:, 0] ** 2 + f_stderr[:, -1] ** 2))) / f_hat.shape[0]
    if not rise > 3 * se:
        return [f"{label}: mean F_hat rose by {rise:.4g}, not more than 3 stderr = {3 * se:.4g}"]
    return []


def expected_capped_poisson(lam: float, n: int) -> float:
    """E[min(X, n)] for X ~ Poisson(lam)."""
    p = math.exp(-lam)
    total, below = 0.0, 0.0
    for k in range(n):
        total += k * p
        below += p
        p *= lam / (k + 1)
    return total + n * (1.0 - below)


def gate_wide(d, n_active, lam: float, n_nodes: int) -> list[str]:
    errors = []
    if not np.all(np.isfinite(d)):
        errors.append("non-finite divergence")
    elif not d[-1] < d[0] / 2:
        errors.append(f"D_K = {d[-1]:.4g} not below D_1 / 2 = {d[0] / 2:.4g}")
    counts = np.asarray(n_active, dtype=float).ravel()
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    expected = expected_capped_poisson(lam, n_nodes)
    if not abs(counts.mean() - expected) <= 5 * se:
        errors.append(f"mean n_active {counts.mean():.4g} not within 5 se ({5 * se:.3g}) "
                      f"of {expected:.4g}")
    return errors


def gate_single(rc, header, a_hat, lower: float, upper: float) -> list[str]:
    errors = []
    if rc != 0:
        errors.append(f"dosp run exited {rc}")
    if header != TRAJECTORY_HEADER:
        errors.append(f"trajectory header {header}")
    a_hat = np.asarray(a_hat, dtype=float)
    if a_hat.size == 0:
        errors.append("no trace rows")
    elif not np.all((a_hat >= lower) & (a_hat <= upper)):
        errors.append(f"performed action outside [{lower}, {upper}]")
    return errors


def gate_digests(digests) -> list[int]:
    """Indices of runs whose science-output digest differs from the first run's."""
    return [i for i, d in enumerate(digests) if d != digests[0]]


def check(workload: str, configs: dict, out: str, timing: dict) -> list[str]:
    """Apply the workload's gate to one run's outputs."""
    if workload == "divergence-rate":
        _, mean = read_csv(os.path.join(out, "divergence_mean.csv"))
        with open(os.path.join(out, "analysis.json"), encoding="utf-8") as fh:
            analysis = json.load(fh)
        return gate_divergence(mean["D_k"], analysis)
    if workload == "power-repro":
        errors = []
        for stem in ("learner", "baseline"):
            _, cols = read_csv(os.path.join(out, stem, "trajectory.csv"))
            errors += gate_rising(stem, by_replication(cols, "F_hat"),
                                  by_replication(cols, "F_stderr"))
        return errors
    if workload == "wide-poisson":
        _, mean = read_csv(os.path.join(out, "divergence_mean.csv"))
        _, cols = read_csv(os.path.join(out, "trajectory.csv"))
        net = configs["config"]["network"]
        return gate_wide(mean["D_k"], cols["n_active"],
                         net["n_nodes"] * net["q_activity"], net["n_nodes"])
    if workload == "power-single":
        header, _ = read_csv(os.path.join(out, "trajectory.csv"))
        _, trace = read_csv(os.path.join(out, "trace_rep000.csv"))
        bounds = configs["config"]["bounds"]
        return gate_single(timing.get("rc"), header, trace["a_hat"],
                           bounds["lower"], bounds["upper"])
    raise ValueError(f"no gate for workload {workload!r}")

"""dosp benchmark: run one workload (or all four) and report its metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each run of a workload is a fresh process (``child.py``) working on configs
generated from ``--seed``.  Runs repeat while another one still fits in
``--seconds`` (at least two, or two of each kind when tracing); every figure
is the median over them.  With ``--trace 0`` the end-to-end metrics are
reported, their times scaled to a reference host speed (``calibrate.py``); with
``--trace 1`` traced and untraced runs alternate, and the per-layer metrics
come from the traced ones.  Every run's outputs pass the workload's gate, and
all runs of one invocation must produce byte-identical science outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import yaml

import gates
from calibrate import REF_NS, normalised_ns, program_ns
from metrics import END_TO_END, PER_LAYER, layer_metrics
from tracer import read_spans, self_times
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
MIN_RUNS = 2
MIN_TRACED_RUNS = 2
TIME_LIMIT_S = 165.0  # one workload's invocation must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def openblas_threads() -> str:
    try:
        import numpy
        libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas*"))
        fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
        fn.restype = ctypes.c_int
        return str(fn())
    except (IndexError, OSError, AttributeError):
        return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(seed: int) -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "openblas_threads": openblas_threads(),
        "commit": git_commit(),
        "seed": seed,
        "pythonpath": "src",
    }


def one_run(workload, configs, index, traced, deadline) -> dict:
    """Launch one fresh-process run, wait for it, and check its outputs."""
    work = os.path.join(OUT, "work", workload.name, f"run{index:02d}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    for stem, cfg in configs.items():
        with open(os.path.join(work, f"{stem}.yaml"), "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=False)
    cmd = [sys.executable, CHILD, work, workload.name, "1" if traced else "0"]
    env = child_env()
    run = {"traced": traced, "errors": [], "digest": None, "timing": None}
    with open(os.path.join(work, "log.txt"), "w", encoding="utf-8") as log:
        start_ns = time.perf_counter_ns()
        try:
            proc = subprocess.run(cmd + [str(start_ns)], env=env, stdout=log, stderr=log,
                                  timeout=max(deadline - time.monotonic(), 1.0), check=False)
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
        end_ns = time.perf_counter_ns()
    run["wall_s"] = (end_ns - start_ns) / 1e9
    if rc != 0:
        with open(os.path.join(work, "log.txt"), encoding="utf-8") as fh:
            tail = fh.read()[-600:]
        run["errors"].append(f"run exited {rc}: {tail}")
    else:
        with open(os.path.join(work, "timing.json"), encoding="utf-8") as fh:
            run["timing"] = json.load(fh)
        if not traced:
            run["figures"] = run_figures(run["timing"]["calibration"], start_ns, end_ns,
                                         run["timing"], workload.slots)
            run["wall_s"] = run["figures"]["raw"]["wall_s"]
        out = os.path.join(work, "out")
        try:
            run["errors"] += gates.check(workload.name, configs, out, run["timing"])
        except (OSError, KeyError, ValueError, IndexError) as exc:
            run["errors"].append(f"unreadable outputs: {exc!r}")
        run["digest"] = gates.output_digest(out)
    if traced and rc == 0:
        spans = read_spans(os.path.join(work, "spans.csv"))
        run["layers"] = layer_metrics(spans, workload.slots, run["timing"]["absent"])
        run["self_sum_s"] = sum(self_times(spans)) / 1e9
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        shutil.copy(os.path.join(work, "spans.csv"),
                    os.path.join(OUT, "results", f"{workload.name}-spans.csv"))
    shutil.rmtree(work, ignore_errors=True)
    return run


def run_figures(samples, start_ns: int, end_ns: int, timing: dict, slots: int) -> dict:
    """Raw and host-speed-normalised times of one untraced run.

    Raw figures leave out the calibration samples' own time; normalised ones
    are scaled to the reference host speed (see ``calibrate.py``).
    """
    phases = {"wall_s": [[start_ns, end_ns]], "setup_s": [timing["setup_ns"]],
              "slot_s": timing["loop_ns"]}
    if "analysis_ns" in timing:
        phases["analysis_s"] = [timing["analysis_ns"]]
    figures = {"raw": {}, "norm": {}}
    for name, spans in phases.items():
        figures["raw"][name] = sum(program_ns(samples, a, b) for a, b in spans) / 1e9
        figures["norm"][name] = sum(normalised_ns(samples, a, b) for a, b in spans) / 1e9
    for kind in figures.values():
        kind["us_per_slot"] = kind.pop("slot_s") / slots * 1e6
    durations = sorted(d for _, d in samples)
    figures["calibration"] = {
        "samples": len(samples),
        "median_ns": durations[len(durations) // 2] if durations else None,
        "overhead_frac": sum(durations) / (end_ns - start_ns)}
    return figures


def warm_up() -> None:
    """Import the package once so byte-code and file caches are warm."""
    subprocess.run([sys.executable, "-c", "import dosp.cli"], env=child_env(),
                   check=False, timeout=120)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    configs = workload.configs(seed)
    deadline = time.monotonic() + TIME_LIMIT_S
    until = time.monotonic() + seconds
    runs = []
    while True:
        traced = trace and len(runs) % 2 == 0
        runs.append(one_run(workload, configs, len(runs), traced, deadline))
        n_traced = sum(r["traced"] for r in runs)
        enough = (n_traced >= MIN_TRACED_RUNS and len(runs) - n_traced >= MIN_TRACED_RUNS
                  if trace else len(runs) >= MIN_RUNS)
        # stop once another run of the last one's length would overrun the window
        next_end = time.monotonic() + runs[-1]["wall_s"]
        if (enough and next_end > until) or next_end > deadline:
            break

    checked = [r for r in runs if r["digest"] is not None]
    for i in gates.gate_digests([r["digest"] for r in checked]):
        checked[i]["errors"].append("science outputs differ from the first run's")
    ok = [r for r in runs if not r["errors"]]
    failed = len(runs) - len(ok)
    result = {"workload": workload.name, "attempted": len(runs), "failed": failed,
              "errors": [e for r in runs for e in r["errors"]], "metrics": {},
              "runs": [{k: r.get(k) for k in ("traced", "wall_s", "errors", "timing",
                                               "figures")} for r in runs]}
    plain = [r for r in ok if not r["traced"]]
    traced_runs = [r for r in ok if r["traced"]]
    if not trace and plain:
        med = statistics.median
        for kind in ("norm", "raw"):
            result[kind] = {
                name: med(r["figures"][kind][name] for r in plain)
                for name in plain[0]["figures"][kind]}
        result["metrics"] = {name: result["norm"][name]
                             for name in ("wall_s", "setup_s", "us_per_slot")}
        result["metrics"]["peak_rss_mb"] = med(r["timing"]["peak_rss_mb"] for r in plain)
        result["calibration"] = {
            "ref_ns": REF_NS,
            "median_ns": med(r["figures"]["calibration"]["median_ns"] for r in plain),
            "overhead_frac": med(r["figures"]["calibration"]["overhead_frac"] for r in plain)}
    if trace and plain and traced_runs:
        result["layers"] = layer_medians(traced_runs, plain)
    return result


def layer_medians(traced_runs, plain) -> dict:
    """Median of every per-layer metric over the traced runs, plus overhead."""
    layers = {}
    for name, entry in traced_runs[0]["layers"].items():
        values = [r["layers"][name]["value"] for r in traced_runs
                  if r["layers"][name]["value"] is not None]
        layers[name] = dict(entry, value=statistics.median(values) if values else None)
    traced_wall = statistics.median(r["wall_s"] for r in traced_runs)
    layers["trace_overhead_frac"] = {
        "value": traced_wall / statistics.median(r["wall_s"] for r in plain) - 1.0,
        "unit": "ratio", "status": "ok"}
    layers["trace.self_sum_frac"] = {
        "value": statistics.median(r["self_sum_s"] / r["timing"]["main_s"]
                                   for r in traced_runs),
        "unit": "ratio", "status": "ok"}
    return layers


JSON_LAYER = [name for name, *_ in PER_LAYER] + ["trace_overhead_frac", "trace.self_sum_frac"]


def json_metrics(result, trace: bool, prefix: str = "") -> dict:
    if trace:
        layers = result.get("layers", {})
        return {prefix + name: {"value": layers[name]["value"] or 0.0,
                                "unit": layers[name]["unit"]}
                for name in JSON_LAYER if name in layers}
    return {prefix + name: {"value": value, "unit": END_TO_END[name]}
            for name, value in result["metrics"].items()}


def print_table(result, trace: bool) -> None:
    print(f"== {result['workload']}: {result['attempted']} runs, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.3f})")
    for err in result["errors"]:
        print(f"   FAILED: {err}")
    if not trace:
        for name, value in result["metrics"].items():
            raw = result.get("raw", {}).get(name)
            note = f"   (raw {raw:.6g})" if raw is not None else ""
            print(f"   {name:<44} {value:14.6g} {END_TO_END[name]}{note}")
        if "analysis_s" in result.get("norm", {}):
            print(f"   {'analysis_s':<44} {result['norm']['analysis_s']:14.6g} s"
                  f"   (raw {result['raw']['analysis_s']:.6g})")
        cal = result.get("calibration")
        if cal:
            print(f"   calibration sample {cal['median_ns'] / 1e6:.3f} ms against the reference "
                  f"{cal['ref_ns'] / 1e6:.3f} ms; it takes {cal['overhead_frac']:.1%} of a run")
        return
    for name, entry in result.get("layers", {}).items():
        shown = f"{entry['value']:14.6g}" if entry["value"] is not None else f"{entry['status']:>14}"
        print(f"   {name:<44} {shown} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dosp", "__init__.py")):
        print(f"no dosp sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    context = run_context(args.seed)
    print("context: " + json.dumps(context))
    warm_up()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, trace)
        results.append(result)
        print_table(result, trace)
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        path = os.path.join(OUT, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"context": context, **result}, fh, indent=1)

    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        metrics.update(json_metrics(result, trace, prefix))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if not metrics:
        print("no run of the workload succeeded", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

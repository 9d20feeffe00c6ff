"""What a dosp run pays before its first slot: importing dosp's own modules.

Each timed row imports ``dosp.cli`` in a fresh interpreter that has already
imported numpy and yaml, so it times dosp's modules alone.  "no .pyc" compiles
every dosp module from source, as happens wherever no byte-code is written
(``PYTHONDONTWRITEBYTECODE=1`` and no cache); "with .pyc" reads a byte-code
cache written once beforehand.  Both read the cache through a throwaway
``PYTHONPYCACHEPREFIX`` directory, so nothing is written next to the source;
the "no .pyc" copy of it holds every module but dosp's.  The rows alternate.

Then it runs ``dosp run`` (no ``--svg``) on a shortened copy of a config and
lists the dosp modules that run loaded, with their line counts.

Run:  python3 demos/startup_cost.py [--runs 11] [--config configs/<name>.yaml]
      (about 6 s at the defaults)
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import yaml

import dosp
from dosp.harness import ExperimentConfig

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs",
                      "power_actions_single_run.yaml")
PACKAGE = os.path.dirname(os.path.abspath(dosp.__file__))
SRC = os.path.dirname(PACKAGE)

TIME_IMPORT = ("import time, numpy, yaml; t = time.perf_counter(); import dosp.cli; "
               "print((time.perf_counter() - t) * 1e3)")
LIST_MODULES = ("import sys; from dosp.cli import main; main(sys.argv[1:]); "
                "print(*(f'{m} {sys.modules[m].__file__}' for m in sorted(sys.modules) "
                "if m == 'dosp' or m.startswith('dosp.')), sep='\\n')")


def python(code: str, env: dict, *args: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def import_times(runs: int, scratch: str) -> dict[str, list[float]]:
    """Milliseconds of ``import dosp.cli`` per fresh interpreter, by case."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=os.path.join(scratch, "pyc"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    python(TIME_IMPORT, env)  # writes the byte-code of everything the import reads
    # the same cache without dosp's byte-code: the prefix mirrors absolute paths
    bare = os.path.join(scratch, "pyc-bare")
    shutil.copytree(env["PYTHONPYCACHEPREFIX"], bare)
    shutil.rmtree(os.path.join(bare, PACKAGE.lstrip(os.sep)))
    envs = {"no .pyc": dict(env, PYTHONPYCACHEPREFIX=bare),
            "with .pyc": env}
    for case in envs.values():
        case["PYTHONDONTWRITEBYTECODE"] = "1"  # both caches stay as they are
    times = {case: [] for case in envs}
    for i in range(runs):
        for case in sorted(envs, reverse=i % 2 == 1):  # alternate which case runs first
            times[case].append(float(python(TIME_IMPORT, envs[case])))
    return times


def run_modules(config: str, scratch: str) -> list[tuple[str, int]]:
    """The dosp modules a plain ``dosp run`` of ``config``, cut to 2,000
    slots, loads, with the line count of each module's source."""
    doc = ExperimentConfig.from_yaml(config).to_dict()
    doc["run"]["horizon"] = min(doc["run"]["horizon"], 2000)
    path = os.path.join(scratch, "config.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
    env = dict(os.environ, PYTHONPATH=SRC)
    out = python(LIST_MODULES, env, "run", "--config", path, "--out",
                 os.path.join(scratch, "out"))
    modules = []
    for line in out.splitlines():
        name, _, source = line.partition(" ")
        if name == "dosp" or name.startswith("dosp."):  # the run prints its output paths first
            with open(source, encoding="utf-8") as fh:
                modules.append((name, sum(1 for _ in fh)))
    return modules


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=11, help="fresh interpreters per case")
    parser.add_argument("--config", default=CONFIG, help="the config a plain run takes")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        times = import_times(args.runs, scratch)
        modules = run_modules(args.config, scratch)
    print(f"import dosp.cli after numpy and yaml, {args.runs} fresh interpreters per case (ms)")
    print(f"{'case':>10} {'median':>7} {'min':>7} {'max':>7}")
    for case, ms in times.items():
        print(f"{case:>10} {statistics.median(ms):>7.1f} {min(ms):>7.1f} {max(ms):>7.1f}")
    total = sum(lines for _, lines in modules)
    print(f"\ndosp modules a plain run loads: {len(modules)}, {total:,} lines")
    for name, lines in modules:
        print(f"  {name:<16} {lines:>5}")


if __name__ == "__main__":
    main()

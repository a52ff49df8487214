#!/usr/bin/env python3
"""Measure the checkout holding this script and write ``BENCH_<label>.json`` at its root.

Usage: python scripts/bench.py LABEL

The record has two parts:

* ``perfbench``: for each workload of ``BENCHMARK.json``, ``perfbench/run.py
  --workload W --seed 41 --seconds S --trace 0`` is run unchanged (S is the
  file's ``run_seconds``).  The entry holds the run's end-to-end medians and
  failed operations, and the medians over its passes of the raw wall times
  ``wall_setup_s`` and ``wall_total_s``, which the run writes to
  ``.perfbench_out/``.  The scaled ``setup_s`` rides on a calibration whose
  speed can differ between builds; the raw one does not;
* ``g0``: ``configs/g0.yaml`` run through ``solve-game`` and ``verify-nash``,
  each in a fresh interpreter, and each command's ``wall_time_s``,
  ``peak_rss_mb`` and ``peak_rss_children_mb`` from its manifest.

Bench files of two checkouts, each written by its own copy of this script,
compare key by key.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEED = 41
G0_COMMANDS = ("solve-game", "verify-nash")
MANIFEST_KEYS = ("wall_time_s", "peak_rss_mb", "peak_rss_children_mb")


def workload_entry(run: dict) -> dict:
    """One workload's entry, from the record ``perfbench/run.py`` wrote for its run."""
    entry = {name: metric["value"] for name, metric in run["result"]["metrics"].items()}
    for key in ("wall_setup_s", "wall_total_s"):
        entry[key] = statistics.median(p[key] for p in run["passes"])
    entry["passes"] = len(run["passes"])
    entry["failed"] = run["result"]["failed"]
    return entry


def bench_record(label: str, runs: dict, manifests: dict) -> dict:
    """The bench file's contents: ``runs`` maps each workload to its perfbench
    record, ``manifests`` each g0 command to its manifest."""
    first = next(iter(runs.values()))
    return {
        "label": label,
        "env": first["env"],
        "perfbench": {"seed": first["args"]["seed"], "seconds": first["args"]["seconds"],
                      "workloads": {name: workload_entry(run) for name, run in runs.items()}},
        "g0": {command: {key: man[key] for key in MANIFEST_KEYS}
               for command, man in manifests.items()},
    }


def run_perfbench(workload: str, seconds: float) -> dict:
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
                   cwd=REPO, check=True, stdout=subprocess.DEVNULL)
    path = REPO / ".perfbench_out" / f"{workload}-seed{SEED}-trace0.json"
    return json.loads(path.read_text())


def run_g0(command: str, out: Path) -> dict:
    code = "import sys; from ergodic_games import cli; sys.exit(cli.main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, command, "--config",
                    str(REPO / "configs" / "g0.yaml"), "--out", str(out), "--quiet"],
                   env={**os.environ, "PYTHONPATH": str(REPO / "src")}, check=True)
    return json.loads((out / "manifest.json").read_text())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    runs = {w["name"]: run_perfbench(w["name"], spec["run_seconds"]) for w in spec["workloads"]}
    with tempfile.TemporaryDirectory() as tmp:
        manifests = {command: run_g0(command, Path(tmp) / command) for command in G0_COMMANDS}
    record = bench_record(argv[0], runs, manifests)
    path = REPO / f"BENCH_{argv[0]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

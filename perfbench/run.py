"""Solve-and-verify benchmark for the ergodic_games library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload game_solve --seed 1 --seconds 24 --trace 0

Workloads: ``game_solve``, ``grid_sweep``, ``verify_long``, ``verify_wide``
(see ``workloads.py``).  The runner starts one fresh, single-threaded worker
process per pass, one at a time.  A run makes a fixed number of passes,
``--seconds`` divided by the workload's pass time at the seed commit (see
:func:`n_passes`), so how many samples a statistic sees does not depend on
how fast the program is.  Every operation's output is checked.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``, each the
  median over the run's passes.  ``setup_s`` and ``total_s`` are in seconds
  at the host's reference speed: ``worker.py`` scales each wall time by a
  calibration timed around it, because this shared host's processor speed
  drifts by up to 1.5x within seconds;
* ``--trace 1``: untraced and traced passes alternate.  The metrics are the
  per-layer ones of the median traced pass, whose self times add up to its
  wall time before ``worker.py`` scales them like ``total_s``; exact
  counters must repeat between traced passes, and ``trace.overhead_s`` is
  the median, over pairs of an untraced pass and the traced pass after it,
  of the traced minus the untraced ``total_s``.

A record of every pass goes to ``.perfbench_out/``.  The runner exits with a
non-zero code, printing no result, when the library sources or
``BENCHMARK.json`` are missing or a worker process crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

WORKER = HERE / "worker.py"
OUT_DIR = Path(".perfbench_out")
# wall seconds of one untraced pass, set-up and calibrations included, at the
# seed commit on a 2-core host: a run makes seconds / PASS_S passes, and never
# fewer than four
PASS_S = {"game_solve": 3.9, "grid_sweep": 3.5, "verify_long": 3.9, "verify_wide": 3.3}
MIN_PASSES = 4
WORKER_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: argparse.Namespace, env: dict, traced: bool = False,
          spans: Path = None) -> dict:
    """Run one worker process to completion and return its JSON record."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(OUT_DIR), "--trace", "1" if traced else "0"]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    launch = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launch", repr(launch)], env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except json.JSONDecodeError as err:
        raise BenchError(f"worker printed no result: {err}") from err
    if record.get("failed"):
        sys.stderr.write(proc.stderr[-4000:])
    record["wall_s"] = time.monotonic() - launch
    record["traced"] = traced
    return record


def n_passes(workload: str, seconds: float) -> int:
    """Passes in a run: fixed by ``--seconds``, not by the speed of the program."""
    return max(MIN_PASSES, int(seconds / PASS_S[workload]))


def run_passes(args: argparse.Namespace, env: dict) -> list:
    """The run's passes, one at a time; with tracing, odd passes are traced."""
    records = []
    for k in range(n_passes(args.workload, args.seconds)):
        traced = bool(args.trace) and k % 2 == 1
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json" if traced else None
        records.append(spawn(args, env, traced=traced, spans=spans))
    return records


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes) -> dict:
    return {name: median(p[name] for p in passes)
            for name in ("setup_s", "total_s", "peak_rss_mb")}


def per_layer(plain, traced) -> tuple:
    """Layers of the median traced pass; also the names of counters that did not repeat."""
    by_time = sorted(traced, key=lambda p: p["total_s"])
    out = dict(by_time[(len(by_time) - 1) // 2]["layers"])
    unsteady = [k for k in tracing.EXACT_COUNTS
                if len({p["layers"][k] for p in traced}) > 1]
    out["trace.overhead_s"] = median(t["total_s"] - p["total_s"] for p, t in zip(plain, traced))
    rates = [p["mc_path_steps"] / p["mc_s"] for p in plain if p["mc_s"] > 0]
    out["verify.mc_path_steps_per_s"] = median(rates) if rates else 0.0
    return out, unsteady


def emit(spec: dict, values: dict, kind: str, attempted: int, failed: int) -> dict:
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in values:
            raise BenchError(f"benchmark produced no value for {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Solve-and-verify benchmark for ergodic_games.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "ergodic_games" / "__init__.py").is_file():
            raise BenchError("run from the root of a checkout: src/ergodic_games is missing")
        if not (root / "BENCHMARK.json").is_file():
            raise BenchError("BENCHMARK.json is missing")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        OUT_DIR.mkdir(exist_ok=True)
        env = worker_env(root)
        passes = run_passes(args, env)
        failures = [f for p in passes for f in p["failures"]]
        failed_ops = sum(p["failed"] for p in passes)
        attempted = sum(p["attempted"] for p in passes)
        digests = [p["digests"] for p in passes if p["digests"]]
        if digests:
            attempted += 1
            if any(d != digests[0] for d in digests):
                failures.append("artifacts differ between passes with the same seed")
                failed_ops += 1
        if args.trace:
            plain = [p for p in passes if not p["traced"]]
            traced = [p for p in passes if p["traced"]]
            values, unsteady = per_layer(plain, traced)
            if len(traced) > 1:
                attempted += 1
                if unsteady:
                    failures.append(f"counters did not repeat exactly: {unsteady}")
                    failed_ops += 1
            result = emit(spec, values, "per_layer", attempted, failed_ops)
        else:
            result = emit(spec, end_to_end(passes), "end_to_end", attempted, failed_ops)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    env_info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": passes[0].get("numpy"),
        "threads": {name: env[name] for name in THREAD_VARS},
    }
    record = {"args": vars(args), "env": env_info, "passes": passes, "result": result}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for f in failures[:20]:
        print(f"perfbench: failed: {f}", file=sys.stderr)
    print(json.dumps({"env": env_info, "passes": len(passes)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Repeat the benchmark over seeds and record medians, spreads, layers and environment.

Run from the repository root:

    python3 perfbench/baseline.py

Each workload runs ten times untraced, every run with another seed (1000 to
1009), then twice traced.  For each end-to-end metric the script prints the
median and the spread ``(Q3 - Q1) / median`` (quartiles as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's bound
in ``BENCHMARK.json``.  It writes ``perfbench/baseline.json``, which also
holds the per-layer numbers of the first traced run, whether the exact
counters repeated between the two traced runs, which end-to-end metric each
layer metric should move, the processor count, the Python and numpy versions
and the library's commit.  Runs go one at a time.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = tuple(range(1000, 1010))
TRACED_RUNS = 2

# which end-to-end metric a layer metric should move, and on which workload
LAYER_MAP = {
    "catalog.build_s": "setup_s on every workload",
    "games.*": "total_s on game_solve; zero on grid_sweep, a few percent on verify_*",
    "ebsde.*": "total_s on grid_sweep and game_solve; under 10% of total_s on verify_*",
    "ebsde.*.m{101,201,401}": "how grid_sweep's solve time and sweeps grow with m",
    "picard.*": "total_s on game_solve",
    "continuous.*": "total_s on grid_sweep",
    "sde.sample_paths_s, sde.path_steps": "total_s, mainly on verify_long",
    "sde.bytes_computed": "peak_rss_mb on verify_wide (computed from array sizes, not measured)",
    "sde.rng_s": "bounds what a change of random number generation can save",
    "verify.estimate_self_s": "total_s, mainly on verify_wide",
    "verify.mc_path_steps_per_s": "Monte Carlo throughput on verify_*; moves with total_s there",
    "verify.harness_self_s, verify.residual_s, verify.rows*": "total_s on verify_*",
    "cli.*": "total_s on verify_long",
    "trace.overhead_s": "median over pairs of an untraced and a traced pass of their "
                        "difference in total_s; not a program cost",
}
NOTES = [
    "Tier-1 misses acceptance criterion 07's 120 s gate on this 2-core host (135-145 s); "
    "verify_long runs that criterion's path shape (200 paths x 20,000 steps per estimate).",
    "The host's processor speed drifts by up to 1.5x within seconds and between minutes "
    "(other tenants).  setup_s and total_s are therefore reported at a reference speed: "
    "worker.py times a fixed calibration after set-up and after every operation and scales "
    "each wall time by CAL_REF_S over the calibration around it.  Each end-to-end metric is "
    "the median over a fixed number of passes (run.py's n_passes), so it does not depend on "
    "how fast the program is.  A traced pass scales its layer times by the same factor "
    "as its total_s.",
]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def git(*args) -> str:
    try:
        proc = subprocess.run(["git", *args], capture_output=True, text=True, cwd=HERE.parent)
    except OSError:
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"workloads": {}}
    for name in workloads.WORKLOADS:
        runs = [run_once(name, s, seconds, 0) for s in SEEDS]
        summary = {}
        for metric in bounds:
            summary[metric] = spread([r["metrics"][metric]["value"] for r in runs])
            summary[metric]["bound"] = bounds[metric]
            print(f"{name:12s} {metric:12s} median {summary[metric]['median']:10.4f}  "
                  f"spread {summary[metric]['spread']:.3f}  bound {bounds[metric]}", flush=True)
        traced = [run_once(name, s, seconds, 1) for s in SEEDS[:TRACED_RUNS]]
        layers = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced]
        repeat = all(layers[0][k] == layers[1][k] for k in tracing.EXACT_COUNTS)
        report["workloads"][name] = {
            "seeds": list(SEEDS),
            "attempted": sum(r["attempted"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
            "end_to_end": summary,
            "per_layer": layers[0],
            "counters_repeat": repeat,
        }
        print(f"{name:12s} failed {report['workloads'][name]['failed']} of "
              f"{report['workloads'][name]['attempted']}  counters repeat: {repeat}", flush=True)
    last = json.loads(Path(f".perfbench_out/{name}-seed{SEEDS[0]}-trace0.json").read_text())
    report["env"] = dict(last["env"], commit=git("rev-parse", "HEAD"),
                         library_modified=bool(git("status", "--porcelain", "src")))
    report["run_seconds"] = seconds
    report["layer_map"] = LAYER_MAP
    report["notes"] = NOTES
    (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Measure the checkout holding this script and write ``BENCH_<label>.json`` at its root.

Usage: python scripts/bench.py LABEL

The record has six parts:

* ``perfbench``: for each workload of ``BENCHMARK.json``, ``perfbench/run.py
  --workload W --seed 41 --seconds S --trace 0`` is run unchanged (S is the
  file's ``run_seconds``).  The entry holds the run's end-to-end medians and
  failed operations, and the medians over its passes of the raw wall times
  ``wall_setup_s`` and ``wall_total_s``, which the run writes to
  ``.perfbench_out/``.  The scaled ``setup_s`` rides on a calibration whose
  speed can differ between builds; the raw one does not;
* ``g0``: ``configs/g0.yaml`` run through ``solve-game`` and ``verify-nash``
  in turn, G0_RUNS rounds, each run in a fresh interpreter.  Each command's
  entry holds the medians over its runs of the manifest's ``wall_time_s``,
  ``peak_rss_mb`` and ``peak_rss_children_mb``, the smallest and largest
  ``wall_time_s`` and the number of runs: one run moves with the host's
  speed far more than with a change.  The runs log at INFO, and the
  ``verify-nash`` entry also holds, under ``engine``, the counters of the
  ``nash_deviation_test engine:`` line of its log (``paths``, ``steps``,
  ``batches``, ``windows``, ``streams``, ``workers``), which must repeat in
  every run, and the medians of its ``rng_s``, ``euler_s`` and ``cost_s``;
* ``grid_ladder``: in one fresh interpreter, ``solve_ergodic`` of
  ``linear_z_plus_bump`` (slope 0.5) on ``ou_model()`` at tol 1e-6, on
  ``Grid1D(-6, 6, m)`` for each m of LADDER_SIZES: the median seconds of
  LADDER_RUNS solves and the Newton iteration count, under ``m<m>``;
* ``search_ladder``: in one fresh interpreter, for each game of SEARCH_GAMES,
  ``games._search`` on the nodes of ``Grid1D(-6, 6, 101)`` at the gradients
  ``default_rng(0).normal(scale=2, size=(101, n))``: the median seconds of
  LADDER_RUNS calls after one that fills the spec's once-only caches, and
  the number of rows flagged without a stable control, under the game's
  label;
* ``residual``: in one fresh interpreter, verify_wide's residual pair
  (``bsde_path_residual`` of player 0 of ``quadratic_decoupled`` solved at
  m=81, 1,000 paths to horizon 20 at each step of RESIDUAL_STEPS, seed
  SEED), RESIDUAL_RUNS times: the median wall time of a pair and the median
  minor faults of its worker processes, and the largest worker's peak RSS
  (``RUSAGE_CHILDREN``; the interpreter has no other child);
* ``src_lines``: the line count of each ``src/ergodic_games/*.py`` of the
  copy below, by file name, and their ``total``.

Every child process runs in a copy of the checkout's ``src``, ``perfbench``,
``configs`` and ``scripts`` and its ``BENCHMARK.json``, made without any
``__pycache__`` directory, with ``PYTHONDONTWRITEBYTECODE=1``.  So each child
compiles the package from source, as in a fresh checkout, and a stale cache
in the checkout is never read; the interpreter's own modules and numpy still
load from their caches, as they do for a fresh checkout.

Bench files of two checkouts, each written by its own copy of this script,
compare key by key.
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEED = 41
G0_COMMANDS = ("solve-game", "verify-nash")
G0_RUNS = 3
MANIFEST_KEYS = ("wall_time_s", "peak_rss_mb", "peak_rss_children_mb")
ENGINE_LINE = "nash_deviation_test engine:"
ENGINE_COUNTERS = ("paths", "steps", "batches", "windows", "streams", "workers")
ENGINE_SECONDS = ("rng_s", "euler_s", "cost_s")
LADDER_SIZES = (101, 201, 401, 801)
LADDER_RUNS = 5
# (label, catalogue builder, n_controls or None for the builder's default)
SEARCH_GAMES = (("quadratic_decoupled", "quadratic_decoupled", None),
                ("coupled_cross_cost", "coupled_cross_cost", None),
                # the game of configs/three_player.yaml
                ("three_player_symmetric_21", "three_player_symmetric", 21),
                ("three_player_symmetric_41", "three_player_symmetric", 41),
                ("three_player_symmetric_101", "three_player_symmetric", 101))
SEARCH_NODES = 101
RESIDUAL_STEPS = (0.02, 0.01)
RESIDUAL_RUNS = 5


def workload_entry(run: dict) -> dict:
    """One workload's entry, from the record ``perfbench/run.py`` wrote for its run."""
    entry = {name: metric["value"] for name, metric in run["result"]["metrics"].items()}
    for key in ("wall_setup_s", "wall_total_s"):
        entry[key] = statistics.median(p[key] for p in run["passes"])
    entry["passes"] = len(run["passes"])
    entry["failed"] = run["result"]["failed"]
    return entry


def engine_entry(logs: list) -> dict:
    """The engine counters of the ``ENGINE_LINE`` in each of ``logs``, which must be the same
    in every log, and the median of each of its seconds."""
    lines = []
    for log in logs:
        found = [line for line in log.splitlines() if ENGINE_LINE in line]
        if len(found) != 1:
            raise ValueError(f"expected one {ENGINE_LINE!r} line in a log, found {len(found)}")
        lines.append(dict(re.findall(r"(\w+)=(\S+)", found[0].split(ENGINE_LINE)[1])))
    counters = {key: int(lines[0][key]) for key in ENGINE_COUNTERS}
    for line in lines[1:]:
        if {key: int(line[key]) for key in ENGINE_COUNTERS} != counters:
            raise ValueError(f"engine counters differ between runs: {lines}")
    return {**counters,
            **{key: statistics.median(float(line[key]) for line in lines)
               for key in ENGINE_SECONDS}}


def g0_entry(manifests: list, logs: list) -> dict:
    """One g0 command's entry, from the manifests and the logs of its runs."""
    entry = {key: statistics.median(man[key] for man in manifests) for key in MANIFEST_KEYS}
    walls = [man["wall_time_s"] for man in manifests]
    entry.update(wall_time_min_s=min(walls), wall_time_max_s=max(walls), runs=len(manifests))
    if any(ENGINE_LINE in log for log in logs):
        entry["engine"] = engine_entry(logs)
    return entry


def grid_ladder(sizes=LADDER_SIZES, runs=LADDER_RUNS) -> dict:
    """The ``grid_ladder`` part, measured in this interpreter."""
    import ergodic_games as eg

    model = eg.ou_model()
    driver = eg.make_driver({"name": "linear_z_plus_bump", "slope": 0.5})
    ladder = {}
    for m in sizes:
        grid, seconds = eg.Grid1D(-6.0, 6.0, m), []
        for _ in range(runs):
            t0 = time.perf_counter()
            sol = eg.solve_ergodic(model, driver, grid, tol=1e-6)
            seconds.append(time.perf_counter() - t0)
        ladder[f"m{m}"] = {"solve_s": statistics.median(seconds), "iterations": sol.iterations}
    return ladder


def search_ladder(runs=LADDER_RUNS) -> dict:
    """The ``search_ladder`` part, measured in this interpreter."""
    import numpy as np

    import ergodic_games as eg
    from ergodic_games.catalog import GAME_BUILDERS
    from ergodic_games.games import _search

    x, ladder = eg.Grid1D(-6.0, 6.0, SEARCH_NODES).nodes(), {}
    for label, builder, n_controls in SEARCH_GAMES:
        spec = GAME_BUILDERS[builder](*(() if n_controls is None else (n_controls,)))
        z = np.random.default_rng(0).normal(scale=2.0, size=(len(x), spec.n_players))
        _search(spec, x, z)
        seconds = []
        for _ in range(runs):
            t0 = time.perf_counter()
            _, stable = _search(spec, x, z)
            seconds.append(time.perf_counter() - t0)
        ladder[label] = {"search_s": statistics.median(seconds),
                         "unstable": int(np.count_nonzero(~stable))}
    return ladder


def residual(runs=RESIDUAL_RUNS) -> dict:
    """The ``residual`` part, measured in this interpreter and its children."""
    import resource

    import ergodic_games as eg

    model, spec = eg.ou_model(), eg.quadratic_decoupled()
    nash = eg.picard_solve(model, spec, eg.Grid1D(-6.0, 6.0, 81), tol=1e-4, inner_tol=1e-6)
    seconds, faults = [], []
    for _ in range(runs):
        before, t0 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt, time.perf_counter()
        for step in RESIDUAL_STEPS:
            eg.bsde_path_residual(model, spec, nash, player=0, horizon=20.0, step=step,
                                  n_paths=1000, seed=SEED)
        seconds.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
    return {"wall_s": statistics.median(seconds), "worker_minflt": statistics.median(faults),
            "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "runs": runs}


def src_lines(root: Path) -> dict:
    """The ``src_lines`` part, counted in the checkout (or copy) ``root``."""
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in sorted((root / "src" / "ergodic_games").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def bench_record(label: str, runs: dict, manifests: dict, logs: dict, ladder: dict,
                 search: dict, res: dict, lines: dict) -> dict:
    """The bench file's contents: ``runs`` maps each workload to its perfbench
    record, ``manifests`` and ``logs`` each g0 command to the manifests and the
    standard error of its runs, ``ladder`` is :func:`grid_ladder`'s result,
    ``search`` :func:`search_ladder`'s, ``res`` :func:`residual`'s and ``lines``
    :func:`src_lines`'s."""
    first = next(iter(runs.values()))
    return {
        "label": label,
        "env": first["env"],
        "perfbench": {"seed": first["args"]["seed"], "seconds": first["args"]["seconds"],
                      "workloads": {name: workload_entry(run) for name, run in runs.items()}},
        "g0": {command: g0_entry(mans, logs[command]) for command, mans in manifests.items()},
        "grid_ladder": ladder,
        "search_ladder": search,
        "residual": res,
        "src_lines": lines,
    }


def fresh_checkout(root: Path) -> Path:
    """``root``, made a copy of what the children read of this checkout, without any
    ``__pycache__`` directory."""
    for name in ("src", "perfbench", "configs", "scripts"):
        shutil.copytree(REPO / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", root)
    return root


def child_env(**extra: str) -> dict:
    """A child's environment: this one, writing no bytecode cache, and ``extra``."""
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", **extra}


def run_perfbench(root: Path, workload: str, seconds: float) -> dict:
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
                   cwd=root, check=True, stdout=subprocess.DEVNULL, env=child_env())
    path = root / ".perfbench_out" / f"{workload}-seed{SEED}-trace0.json"
    return json.loads(path.read_text())


def run_fresh(root: Path, code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run with ``args`` in a fresh interpreter that imports the library from the
    copy ``root`` and the copy of this script as ``bench``, its output captured."""
    path = os.pathsep.join(str(p) for p in (root / "src", root / "scripts"))
    return subprocess.run([sys.executable, "-c", code, *args], check=True, text=True,
                          capture_output=True, env=child_env(PYTHONPATH=path))


def run_g0(root: Path, command: str, out: Path) -> tuple:
    """The manifest and the log of one g0 run of ``command``."""
    run = run_fresh(root, "import sys; from ergodic_games import cli; "
                    "sys.exit(cli.main(sys.argv[1:]))",
                    command, "--config", str(root / "configs" / "g0.yaml"), "--out", str(out))
    return json.loads((out / "manifest.json").read_text()), run.stderr


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    manifests = {command: [] for command in G0_COMMANDS}
    logs = {command: [] for command in G0_COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        root = fresh_checkout(Path(tmp) / "checkout")
        runs = {w["name"]: run_perfbench(root, w["name"], spec["run_seconds"])
                for w in spec["workloads"]}
        for r in range(G0_RUNS):
            for command in G0_COMMANDS:
                manifest, log = run_g0(root, command, Path(tmp) / f"{command}-{r}")
                manifests[command].append(manifest)
                logs[command].append(log)
        ladder, search, res = (
            json.loads(run_fresh(root, f"import bench, json; print(json.dumps(bench.{part}()))")
                       .stdout) for part in ("grid_ladder", "search_ladder", "residual"))
        lines = src_lines(root)
    record = bench_record(argv[0], runs, manifests, logs, ladder, search, res, lines)
    path = REPO / f"BENCH_{argv[0]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

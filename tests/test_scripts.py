"""The artifact digest tool: its run list and its output format."""

import hashlib
import importlib.util
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], REPO / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifact_digests_cover_every_config_and_command():
    from ergodic_games import cli

    runs = _load_script("artifact_digests.py").RUNS
    assert {name for name, _ in runs} == {p.stem for p in (REPO / "configs").glob("*.yaml")}
    assert {command for _, command in runs} == set(cli._HANDLERS)
    assert ("g0", "verify-nash") in runs
    # the discounted payoff path of the deviation harness
    assert ("g0_asymmetric", "verify-nash") in runs


def test_saved_artifact_listing_matches_the_run_list():
    # the committed listing of every artifact: each (config, command) pair of RUNS
    # and one residual line per entry of RESIDUALS, in the script's order
    digests = _load_script("artifact_digests.py")
    lines = (REPO / "scripts" / "artifact_digests.txt").read_text().splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  [^ ]+", line) for line in lines)
    paths = [line.split("  ", 1)[1] for line in lines]
    assert len(set(paths)) == len(paths)
    residuals = [p for p in paths if p.split("/")[2].startswith("residual_")]
    assert residuals == [f"{name}/{command}/residual_player{player}_step{step}_paths{n_paths}"
                         f"_horizon{horizon}"
                         for name, command, player, step, n_paths, horizon in digests.RESIDUALS]
    assert {tuple(p.split("/")[:2]) for p in paths if p not in residuals} == set(digests.RUNS)


def test_artifact_digests_list_reports_not_manifests(tmp_path, monkeypatch, capsys):
    digests = _load_script("artifact_digests.py")
    configs = tmp_path / "configs"
    configs.mkdir()
    shutil.copy(REPO / "configs" / "ebsde_bump.yaml", configs)
    monkeypatch.setattr(digests, "CONFIGS", configs)
    monkeypatch.setattr(digests, "RUNS", (("ebsde_bump", "solve-ebsde"),))
    out = tmp_path / "out"
    assert digests.main([str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    files = ["ebsde_bump/solve-ebsde/report.json", "ebsde_bump/solve-ebsde/solution.csv"]
    assert lines == [f"{hashlib.sha256((out / f).read_bytes()).hexdigest()}  {f}" for f in files]
    assert (out / "ebsde_bump" / "solve-ebsde" / "manifest.json").is_file()


def test_artifact_digests_compare_with_a_saved_listing(tmp_path, monkeypatch, capsys):
    digests = _load_script("artifact_digests.py")
    configs = tmp_path / "configs"
    configs.mkdir()
    shutil.copy(REPO / "configs" / "ebsde_bump.yaml", configs)
    monkeypatch.setattr(digests, "CONFIGS", configs)
    monkeypatch.setattr(digests, "RUNS", (("ebsde_bump", "solve-ebsde"),))
    assert digests.main([str(tmp_path / "a")]) == 0
    report, solution = capsys.readouterr().out.splitlines()
    saved = tmp_path / "saved.txt"
    saved.write_text(f"{report}\n{solution}\n")
    assert digests.main([str(tmp_path / "b"), "--expect", str(saved)]) == 0
    assert capsys.readouterr().err == ""
    # one digest changed, one line gone, one line that the run does not make
    saved.write_text(f"{'0' * 64}  {report.split('  ')[1]}\n{'1' * 64}  gone/report.json\n")
    assert digests.main([str(tmp_path / "c"), "--expect", str(saved)]) == 1
    out = capsys.readouterr()
    assert out.out.splitlines() == [report, solution]
    assert out.err.splitlines() == ["differs: ebsde_bump/solve-ebsde/report.json",
                                    "new: ebsde_bump/solve-ebsde/solution.csv",
                                    "missing: gone/report.json"]


def test_artifact_digests_reject_an_unknown_option(capsys):
    digests = _load_script("artifact_digests.py")
    assert digests.main(["out", "--expected", "saved.txt"]) == 1
    assert capsys.readouterr().err.startswith("Usage: python scripts/artifact_digests.py DIR")


def test_bench_record_from_a_perfbench_run_and_manifests(tmp_path):
    bench = _load_script("bench.py")
    passes = [{"setup_s": 0.25, "total_s": 0.6, "peak_rss_mb": 37.0,
               "wall_setup_s": wall_setup, "wall_total_s": wall_total}
              for wall_setup, wall_total in ((0.3, 0.7), (0.2, 0.9), (0.4, 0.8))]
    run = {"args": {"workload": "verify_wide", "seed": 41, "seconds": 20.0, "trace": 0},
           "env": {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6"},
           "passes": passes,
           "result": {"correct": True, "attempted": 12, "failed": 0, "metrics": {
               "setup_s": {"value": 0.25, "unit": "s"}, "total_s": {"value": 0.6, "unit": "s"},
               "peak_rss_mb": {"value": 37.0, "unit": "MiB"}}}}
    # three runs of one command: each key's median, whichever run it comes from
    manifests = [{"command": "verify-nash", "seed": 0, "outputs": ["deviations.csv"],
                  "wall_time_s": wall, "peak_rss_mb": rss, "peak_rss_children_mb": children}
                 for wall, rss, children in ((12.5, 38.4, 36.9), (9.0, 38.7, 37.0),
                                             (11.5, 38.6, 37.2))]
    # each run's log: one engine line among the others; the counters repeat, the seconds not
    logs = [f"INFO ergodic_games.picard: picard_solve iteration 1: d_xi=[1.0e-01]\n"
            f"INFO ergodic_games.sde: nash_deviation_test engine: paths=48800 steps=20000 "
            f"batches=4 windows=158 streams=24400 workers=2 rng_s={rng} euler_s={euler} "
            f"cost_s={cost}\nINFO ergodic_games.cli: verify-nash: 122 rows, 0 failures\n"
            for rng, euler, cost in (("3.7000", "8.1000", "10.2000"),
                                     ("3.9000", "7.9000", "10.9000"),
                                     ("3.8000", "8.4000", "10.5000"))]
    ladder = {"m101": {"solve_s": 0.004, "iterations": 4}}
    # every .py file of the package counts, its last line with or without a newline
    package = tmp_path / "src" / "ergodic_games"
    package.mkdir(parents=True)
    (package / "sde.py").write_text("import numpy\n\nx = 1\n")
    (package / "_csv.py").write_text("y = 2\n")
    (package / "notes.txt").write_text("not code\n")
    lines = bench.src_lines(tmp_path)
    assert lines == {"_csv.py": 1, "sde.py": 3, "total": 4}
    search = {"quadratic_decoupled": {"search_s": 0.0003, "unstable": 0}}
    res = {"wall_s": 0.19, "worker_minflt": 13050, "worker_peak_rss_mb": 35.0, "runs": 5}
    record = bench.bench_record("a", {"verify_wide": run}, {"verify-nash": manifests},
                                {"verify-nash": logs}, ladder, search, res, lines)
    assert record == {
        "label": "a",
        "env": run["env"],
        "perfbench": {"seed": 41, "seconds": 20.0, "workloads": {"verify_wide": {
            "setup_s": 0.25, "total_s": 0.6, "peak_rss_mb": 37.0,
            "wall_setup_s": 0.3, "wall_total_s": 0.8, "passes": 3, "failed": 0}}},
        "g0": {"verify-nash": {"wall_time_s": 11.5, "peak_rss_mb": 38.6,
                               "peak_rss_children_mb": 37.0, "wall_time_min_s": 9.0,
                               "wall_time_max_s": 12.5, "runs": 3, "engine": {
                                   "paths": 48800, "steps": 20000, "batches": 4,
                                   "windows": 158, "streams": 24400, "workers": 2,
                                   "rng_s": 3.8, "euler_s": 8.1, "cost_s": 10.5}}},
        "grid_ladder": ladder,
        "search_ladder": search,
        "residual": res,
        "src_lines": {"_csv.py": 1, "sde.py": 3, "total": 4},
    }
    # a command whose log has no engine line has no engine entry
    assert "engine" not in bench.g0_entry(manifests, ["", "", ""])


def test_bench_refuses_engine_counters_that_differ_between_runs():
    bench = _load_script("bench.py")
    line = ("INFO ergodic_games.sde: nash_deviation_test engine: paths=48800 steps=20000 "
            "batches=4 windows=158 streams=24400 workers={} rng_s=3.8 euler_s=8.1 cost_s=10.5")
    assert bench.engine_entry([line.format(2), line.format(2)])["workers"] == 2
    with pytest.raises(ValueError, match="engine counters differ between runs"):
        bench.engine_entry([line.format(2), line.format(1)])
    with pytest.raises(ValueError, match="found 0"):
        bench.engine_entry(["INFO ergodic_games.cli: verify-nash: 122 rows, 0 failures"])


def test_bench_grid_ladder_records_seconds_and_iterations():
    ladder = _load_script("bench.py").grid_ladder(sizes=(41, 81), runs=2)
    assert list(ladder) == ["m41", "m81"]
    for entry in ladder.values():
        assert entry["solve_s"] > 0.0 and entry["iterations"] >= 1


def test_bench_search_ladder_records_seconds_and_unstable_rows():
    ladder = _load_script("bench.py").search_ladder(runs=1)
    assert list(ladder) == ["quadratic_decoupled", "coupled_cross_cost",
                            "three_player_symmetric_21", "three_player_symmetric_41",
                            "three_player_symmetric_101"]
    for entry in ladder.values():
        assert entry["search_s"] > 0.0 and entry["unstable"] == 0


def test_bench_residual_records_wall_time_and_the_workers_faults_and_memory(monkeypatch):
    # two short runs, each split over two workers
    from ergodic_games import sde

    monkeypatch.setattr(sde, "_cpu_count", lambda: 2)
    bench = _load_script("bench.py")
    monkeypatch.setattr(bench, "RESIDUAL_STEPS", (0.04,))
    res = bench.residual(runs=2)
    assert sorted(res) == ["runs", "wall_s", "worker_minflt", "worker_peak_rss_mb"]
    assert res["runs"] == 2 and res["wall_s"] > 0.0
    assert res["worker_minflt"] > 0 and res["worker_peak_rss_mb"] > 0.0


def test_bench_takes_one_label(capsys):
    bench = _load_script("bench.py")
    assert bench.main([]) == 1 and bench.main(["a", "b"]) == 1 and bench.main(["--help"]) == 1
    assert capsys.readouterr().err.startswith("Usage: python scripts/bench.py LABEL")


def test_bench_children_compile_the_package_from_a_fresh_copy(tmp_path, monkeypatch):
    # every child used to import the checkout's src, reading any stale __pycache__ there
    bench = _load_script("bench.py")
    repo = tmp_path / "repo"
    for name in ("src", "perfbench", "configs", "scripts"):
        (repo / name / "__pycache__").mkdir(parents=True)
        (repo / name / "__pycache__" / "m.cpython-311.pyc").write_bytes(b"stale")
        (repo / name / "m.py").write_text("")
    (repo / "BENCHMARK.json").write_text("{}")
    monkeypatch.setattr(bench, "REPO", repo)
    root = bench.fresh_checkout(tmp_path / "checkout")
    assert sorted(p.relative_to(root).as_posix() for p in root.rglob("*")) == [
        "BENCHMARK.json", "configs", "configs/m.py", "perfbench", "perfbench/m.py",
        "scripts", "scripts/m.py", "src", "src/m.py"]

    calls = []

    def record(cmd, **kwargs):
        calls.append((cmd, kwargs))
        if "perfbench/run.py" in cmd:  # the record a perfbench run writes
            (root / ".perfbench_out").mkdir()
            (root / ".perfbench_out" / f"grid_sweep-seed{bench.SEED}-trace0.json").write_text("{}")
        elif "--out" in cmd:  # the manifest of a g0 run
            out = Path(cmd[cmd.index("--out") + 1])
            out.mkdir()
            (out / "manifest.json").write_text("{}")
        return subprocess.CompletedProcess(cmd, 0, stdout="", stderr="")

    monkeypatch.setattr(bench.subprocess, "run", record)
    bench.run_perfbench(root, "grid_sweep", 1.0)
    bench.run_g0(root, "solve-game", tmp_path / "g0")
    bench.run_fresh(root, "import bench")
    (_, pb_kw), (g0, g0_kw), (_, ladder_kw) = calls
    assert pb_kw["cwd"] == root  # perfbench imports the library from <cwd>/src
    assert str(root / "configs" / "g0.yaml") in g0
    for kw in (pb_kw, g0_kw, ladder_kw):
        assert kw["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    for kw in (g0_kw, ladder_kw):
        assert kw["env"]["PYTHONPATH"].split(os.pathsep) == [str(root / "src"),
                                                             str(root / "scripts")]

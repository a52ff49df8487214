"""The artifact digest tool: its run list and its output format."""

import hashlib
import importlib.util
import re
import shutil
from pathlib import Path

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


def test_bench_record_from_a_perfbench_run_and_manifests():
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
    manifest = {"command": "verify-nash", "seed": 0, "outputs": ["deviations.csv"],
                "wall_time_s": 11.5, "peak_rss_mb": 38.6, "peak_rss_children_mb": 37.0}
    record = bench.bench_record("a", {"verify_wide": run}, {"verify-nash": manifest})
    assert record == {
        "label": "a",
        "env": run["env"],
        "perfbench": {"seed": 41, "seconds": 20.0, "workloads": {"verify_wide": {
            "setup_s": 0.25, "total_s": 0.6, "peak_rss_mb": 37.0,
            "wall_setup_s": 0.3, "wall_total_s": 0.8, "passes": 3, "failed": 0}}},
        "g0": {"verify-nash": {"wall_time_s": 11.5, "peak_rss_mb": 38.6,
                               "peak_rss_children_mb": 37.0}},
    }


def test_bench_takes_one_label(capsys):
    bench = _load_script("bench.py")
    assert bench.main([]) == 1 and bench.main(["a", "b"]) == 1 and bench.main(["--help"]) == 1
    assert capsys.readouterr().err.startswith("Usage: python scripts/bench.py LABEL")

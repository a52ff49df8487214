"""The artifact digest tool: its run list and its output format."""

import hashlib
import importlib.util
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

"""Smoke runs of the bundled pipeline scripts, as a user would start them."""

import csv
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, str(REPO / "scripts" / script), *args],
                          cwd=REPO, env=env, capture_output=True, text=True, timeout=300)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_g0_pipeline_quick(tmp_path):
    out = tmp_path / "g0"
    proc = _run("run_g0_pipeline.py", "--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = _rows(out / "deviations.csv")
    assert len(rows) == 2 * (1 + 6)
    assert [r for r in rows if r["passed"] != "true"] == []
    assert " 0 failures" in proc.stdout
    assert (out / "nash.csv").is_file() and (out / "report.json").is_file()


def test_discount_sweep(tmp_path):
    out = tmp_path / "sweep"
    proc = _run("discount_sweep_g0.py", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = _rows(out / "sweep.csv")
    assert len(rows) == 5
    assert [r for r in rows if r["status"] != "ok"] == []


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

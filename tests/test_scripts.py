"""Smoke runs of the bundled pipeline scripts, as a user would start them."""

import csv
import os
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

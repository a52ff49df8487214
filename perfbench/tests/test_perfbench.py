"""Tests of the benchmark's own machinery: tracing, self times, gates, refusal.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import ergodic_games as eg  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _tiny_ops(seed, workdir, pass_info):
    """A pass small enough for a test that still reaches every traced layer but the CLI."""
    model = eg.ou_model()
    spec = eg.quadratic_decoupled(n_controls=5)
    grid = eg.Grid1D(-6.0, 6.0, 31)
    state = {}

    def solve():
        state["nash"] = eg.picard_solve(model, spec, grid, tol=1e-3, inner_tol=1e-5)
        return [workloads.Check("solve", state["nash"].converged)]

    def deviations():
        rep = eg.nash_deviation_test(model, spec, state["nash"], n_deviations=1,
                                     horizon=21.0, step=0.05, n_paths=8, seed=seed)
        return [workloads.Check("row", r.passed) for r in rep.rows]

    return [workloads.Op("solve", solve), workloads.Op("deviations", deviations, 1)]


@pytest.fixture
def tiny_build(monkeypatch):
    monkeypatch.setattr(workloads, "build",
                        lambda workload, seed, workdir, info: _tiny_ops(seed, workdir, info))


def _wrapped_names():
    return {(mod, attr): getattr(importlib.import_module(mod), attr)
            for mod, attr, _, _ in tracing.WRAP_POINTS}


def _traced_worker(tmp_path, capsys, spans_name="spans.json"):
    spans = tmp_path / spans_name
    rc = worker.main(["--workload", "game_solve", "--seed", "3", "--launch", "0",
                      "--workdir", str(tmp_path), "--trace", "1", "--spans", str(spans)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return out, json.loads(spans.read_text())


def test_wrappers_are_restored_after_traced_run(tiny_build, tmp_path, capsys):
    before = _wrapped_names()
    out, spans = _traced_worker(tmp_path, capsys)
    assert _wrapped_names() == before
    assert all(not hasattr(fn, "__wrapped__") for fn in before.values())
    names = {s["name"] for s in spans}
    assert {"picard.picard_solve", "games.isaac_fixed_point", "ebsde.solve_ergodic",
            "sde.sample_paths", "verify.estimate_payoff"} <= names
    assert out["failed"] == 0


def test_every_wrap_point_is_installed():
    tr = tracing.Tracer()
    tr.install()
    try:
        assert all(hasattr(fn, "__wrapped__") for fn in _wrapped_names().values())
        assert len(tr._patches) == len(tracing.WRAP_POINTS)
    finally:
        tr.restore()


def test_missing_wrap_point_raises_and_wraps_nothing(monkeypatch):
    before = _wrapped_names()
    missing = ("ergodic_games.picard", "no_such_function", "picard.missing", None)
    monkeypatch.setattr(tracing, "WRAP_POINTS", tracing.WRAP_POINTS + (missing,))
    with pytest.raises(AttributeError):
        tracing.Tracer().install()
    monkeypatch.undo()
    assert _wrapped_names() == before


def test_self_times_are_nonnegative_and_sum_to_wall(tiny_build, tmp_path, capsys):
    out, rows = _traced_worker(tmp_path, capsys)
    spans = [tracing.Span(r["id"], r["parent"], r["name"], r["t0"], r["t1"], r["attrs"])
             for r in rows]
    root = next(s for s in spans if s.name == "bench.pass")
    own = tracing.self_times(spans)
    under = [root]  # spans are recorded parent first
    for s in spans:
        if s.parent in {u.id for u in under}:
            under.append(s)
    assert len(under) > 3
    assert all(own[s.id] >= -1e-9 for s in spans)
    assert sum(own[s.id] for s in under) == pytest.approx(root.duration, abs=1e-6)
    assert out["traced_wall_s"] == pytest.approx(root.duration)


def test_times_are_scaled_by_the_calibrations_around_them(tiny_build, tmp_path, capsys):
    rc = worker.main(["--workload", "game_solve", "--seed", "3", "--launch", "0",
                      "--workdir", str(tmp_path), "--trace", "0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    cal = out["calibration_s"]
    assert len(cal) == len(out["op_s"]) + 1
    scales = [worker.CAL_REF_S / c for c in cal]
    assert min(scales) <= out["total_s"] / out["wall_total_s"] <= max(scales)
    assert out["setup_s"] == pytest.approx(out["wall_setup_s"] * scales[0])


def test_self_times_with_fixed_clock():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tr.span("bench.pass") as root:  # 0 .. 7
        with tr.span("picard.a"):  # 1 .. 6
            with tr.span("ebsde.b"):  # 2 .. 3
                pass
            with tr.span("games.c"):  # 4 .. 5
                pass
    own = tracing.self_times(tr.spans)
    assert [own[s.id] for s in tr.spans] == [2.0, 3.0, 1.0, 1.0]
    assert sum(own.values()) == root.duration == 7.0


def test_exact_counters_repeat(tiny_build, tmp_path, capsys):
    first, _ = _traced_worker(tmp_path, capsys, "a.json")
    second, _ = _traced_worker(tmp_path, capsys, "b.json")
    for name in tracing.EXACT_COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["games.joint_points"] == 25 * first["layers"]["games.isaac_calls"]
    assert first["layers"]["sde.path_steps"] == 4 * 8 * 420


def test_gate_rejects_wrong_lambda():
    ref = 0.41667844481962113
    assert workloads.gate_single("ok", ref, ref, workloads.E_BUMP_SHIFTED).ok
    assert not workloads.gate_single("off", ref + 1e-5, ref).ok
    assert not workloads.gate_single("oracle", ref, ref, oracle=ref + 0.01).ok
    assert not workloads.gate_single("missing", ref, None).ok
    lams = [0.3, 0.3]
    assert workloads.gate_coupled("ok", True, lams, 2.0, lams).ok
    assert not workloads.gate_coupled("off", True, [0.3, 0.3 + 2e-4], 2.0, lams).ok
    assert not workloads.gate_coupled("bound", True, lams, 0.29, lams).ok
    assert not workloads.gate_coupled("diverged", False, lams, 2.0, lams).ok
    assert not workloads.gate_ratio("ratio", 0.7).ok


def test_stored_values_cover_every_gate(tmp_path):
    expected = workloads.load_expected()
    for name in ("game_solve", "grid_sweep"):
        for op in workloads.build(name, 0, tmp_path, workloads.Pass({}, {})):
            assert op.name in expected, op.name
    assert f"g0_m{workloads.GAME_M}" in expected


def test_refuses_without_library(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "game_solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

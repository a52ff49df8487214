"""Command-line layer: exit codes, artifacts, manifests, reruns."""

import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import ergodic_games
from ergodic_games import cli, sde

TINY_GRID = {"x_min": -6.0, "x_max": 6.0, "m": 81}


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(cfg))
    return str(p)


def ebsde_cfg(tmp_path, **overrides):
    cfg = {
        "seed": 0,
        "model": {},
        "grid": dict(TINY_GRID),
        "driver": {"name": "bump"},
        "solver": {"tol": 1.0e-6},
    }
    cfg.update(overrides)
    return write_cfg(tmp_path, "ebsde.yaml", cfg)


def game_cfg(tmp_path, **mc):
    # control grid kept at the bundled default: much coarser grids make the
    # pointwise Nash policy chatter between neighbouring controls
    cfg = {
        "seed": 0,
        "model": {},
        "grid": dict(TINY_GRID),
        "game": {"name": "quadratic_decoupled", "n_controls": 41},
        "solver": {"tol": 1.0e-4},
        "mc": {"horizon": 40.0, "step": 0.02, "n_paths": 24,
               "n_deviations": 3, "grid_error_budget": 0.05, **mc},
    }
    return write_cfg(tmp_path, "game.yaml", cfg)


def test_solve_ebsde_artifacts_and_manifest(tmp_path):
    cfg = ebsde_cfg(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve-ebsde", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "solution.csv").is_file()
    report = json.loads((out / "report.json").read_text())
    assert abs(report["lambda"] - 0.3443) < 2e-3
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "solve-ebsde"
    assert man["seed"] == 0
    assert sorted(man["outputs"]) == ["report.json", "solution.csv"]
    assert man["config_sha256"] == cli._config_hash(man["config"])
    assert man["versions"]["ergodic_games"]
    assert man["wall_time_s"] > 0 and man["peak_rss_mb"] > 0
    assert man["peak_rss_children_mb"] >= 0


def test_a_run_started_by_exec_records_its_own_peak_rss(tmp_path):
    # Linux carries ru_maxrss across exec, so a run exec'd from a launcher that
    # touched 128 MiB would read at least the launcher's peak
    cfg, out = ebsde_cfg(tmp_path), tmp_path / "run"
    run = "import sys; from ergodic_games.cli import main; sys.exit(main(sys.argv[1:]))"
    code = (f"import os, resource, sys\nimport numpy as np\nbig = np.ones(2**24)\ndel big\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, flush=True)\n"
            f"os.execv(sys.executable, [sys.executable, '-c', {run!r}, 'solve-ebsde', "
            f"'--config', {cfg!r}, '--out', {str(out)!r}, '--quiet'])\n")
    pkg_root = str(Path(ergodic_games.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pkg_root}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    launcher_peak = float(proc.stdout.splitlines()[0])
    man = json.loads((out / "manifest.json").read_text())
    assert launcher_peak > 128.0
    assert 0.0 < man["peak_rss_mb"] < launcher_peak - 64.0, (man["peak_rss_mb"], launcher_peak)


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    cfg = ebsde_cfg(tmp_path)
    first = tmp_path / "a"
    again = tmp_path / "b"
    assert cli.main(["solve-ebsde", "--config", cfg, "--out", str(first)]) == 0
    assert cli.rerun_from_manifest(first / "manifest.json", again) == 0
    for name in ("solution.csv", "report.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes()


def test_a_manifest_naming_an_unknown_command_is_a_config_error(tmp_path):
    # it used to make the output directory and then raise a bare KeyError
    manifest, out = tmp_path / "manifest.json", tmp_path / "again"
    manifest.write_text(json.dumps({"command": "asymmetric", "config": {"seed": 0}, "seed": 0}))
    with pytest.raises(cli.ConfigError, match="unknown command 'asymmetric'; known commands: "
                                              "solve-ebsde, continuous-ebsde, solve-game"):
        cli.rerun_from_manifest(manifest, out)
    assert not out.exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg = ebsde_cfg(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve-ebsde", "--config", cfg, "--out", str(out),
                     "--seed", "7", "--quiet"]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["seed"] == 7


def test_game_solve_then_verify(tmp_path):
    cfg = game_cfg(tmp_path)
    nash_dir = tmp_path / "nash"
    assert cli.main(["solve-game", "--config", cfg, "--out", str(nash_dir)]) == 0
    report = json.loads((nash_dir / "report.json").read_text())
    assert report["converged"] is True
    assert len(report["lambdas"]) == 2

    verify_dir = tmp_path / "verify"
    rc = cli.main(["verify-nash", "--config", cfg, "--out", str(verify_dir),
                   "--nash", str(nash_dir), "--quiet"])
    assert rc == 0
    dev = json.loads((verify_dir / "report.json").read_text())
    assert dev["all_passed"] is True
    n_lines = len((verify_dir / "deviations.csv").read_text().splitlines())
    assert n_lines == 1 + len(dev["rows"])


def test_verify_on_two_workers_writes_the_same_reports(tmp_path, monkeypatch):
    # the manifest adds the workers' peak memory; the reports keep every byte
    cfg = game_cfg(tmp_path)
    nash_dir = tmp_path / "nash"
    assert cli.main(["solve-game", "--config", cfg, "--out", str(nash_dir), "--quiet"]) == 0
    outs = []
    for workers in (1, 2):
        if workers == 2:
            monkeypatch.setattr(sde, "_cpu_count", lambda: 2)
            monkeypatch.setattr(sde, "_MIN_WORKER_PATH_STEPS", 1)
        out = tmp_path / f"verify{workers}"
        assert cli.main(["verify-nash", "--config", cfg, "--out", str(out),
                         "--nash", str(nash_dir), "--quiet"]) == 0
        outs.append(out)
    for name in ("report.json", "deviations.csv"):
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()
    man = json.loads((outs[1] / "manifest.json").read_text())
    assert man["peak_rss_children_mb"] > 0 and man["peak_rss_mb"] > 0


def game_cfg_with(tmp_path, **top):
    """``game_cfg`` with top-level keys such as ``alpha`` or ``alphas`` set."""
    cfg = yaml.safe_load(Path(game_cfg(tmp_path)).read_text())
    return write_cfg(tmp_path, "game_top.yaml", {**cfg, **top})


@pytest.mark.parametrize("command", ["solve-game", "verify-nash"])
@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
def test_a_rate_that_is_not_finite_and_positive_exits_1(tmp_path, caplog, command, alpha):
    # alpha: .inf used to exit 0 from solve-game, which ignored it, and 2 from verify-nash
    out = tmp_path / "run"
    assert cli.main([command, "--config", game_cfg_with(tmp_path, alpha=alpha),
                     "--out", str(out), "--quiet"]) == 1
    assert "positive alpha" in caplog.text
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("alpha", [None, 0.2])
def test_solve_game_discounts_player_2_at_a_set_alpha(tmp_path, alpha):
    # solve-game used to ignore alpha, which a separate asymmetric command read
    out, ref = tmp_path / "run", tmp_path / "ref"
    cfg = game_cfg_with(tmp_path, **({} if alpha is None else {"alpha": alpha}))
    assert cli.main(["solve-game", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    model, spec = ergodic_games.ou_model(), ergodic_games.quadratic_decoupled(n_controls=41)
    grid = ergodic_games.Grid1D(**TINY_GRID)
    ref.mkdir()
    if alpha is None:
        ergodic_games.picard_solve(model, spec, grid, tol=1e-4).write(ref)
    else:
        ergodic_games.asymmetric_solve(model, spec, grid, alpha, tol=1e-4).write(ref)
    for name in ("nash.csv", "report.json"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()
    report = json.loads((out / "report.json").read_text())
    assert report["alpha"] == alpha
    assert [p["kind"] for p in report["players"]] == (
        ["ergodic", "ergodic"] if alpha is None else ["ergodic", "discounted"])


def test_discount_sweep_writes_one_ok_row_per_alpha(tmp_path):
    out = tmp_path / "sweep"
    cfg = game_cfg_with(tmp_path, alphas=[0.5, 0.2, 0.1])
    assert cli.main(["discount-sweep", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["alpha"]) for r in rows] == [0.5, 0.2, 0.1]
    assert [r["status"] for r in rows] == ["ok"] * 3


def test_verify_without_nash_dir_solves_inline(tmp_path):
    cfg = game_cfg(tmp_path, n_deviations=3, n_paths=16, horizon=30.0)
    out = tmp_path / "verify"
    assert cli.main(["verify-nash", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0


def test_verify_nash_loads_an_equilibrium_without_ergodic_players(tmp_path):
    # the reader used to take its grid from an ergodic player's report entry
    # and raised StopIteration out of main when there was none
    nash = ergodic_games.picard_solve(ergodic_games.ou_model(),
                                      ergodic_games.quadratic_decoupled(),
                                      ergodic_games.Grid1D(**TINY_GRID), tol=1e-4,
                                      alphas=(0.5, 0.5))
    nash_dir = tmp_path / "nash"
    nash_dir.mkdir()
    nash.write(nash_dir)
    out = tmp_path / "verify"
    assert cli.main(["verify-nash", "--config", game_cfg(tmp_path, n_paths=16),
                     "--out", str(out), "--nash", str(nash_dir), "--quiet"]) == 0
    kinds = {p["kind"] for p in json.loads((nash_dir / "report.json").read_text())["players"]}
    assert kinds == {"discounted"}


def test_verify_nash_without_nash_dir_discounts_player_2_at_alpha(tmp_path):
    # without --nash, verify-nash solves the asymmetric equilibrium when alpha is set
    cfg = yaml.safe_load(Path(game_cfg(tmp_path, horizon=60.0, n_paths=16)).read_text())
    cfg = write_cfg(tmp_path, "alpha.yaml", {**cfg, "alpha": 0.2})
    asym, out = tmp_path / "asym", tmp_path / "verify"
    assert cli.main(["solve-game", "--config", cfg, "--out", str(asym), "--quiet"]) == 0
    assert cli.main(["verify-nash", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = json.loads((out / "report.json").read_text())["rows"]
    eq = {r["player"]: r["reference"] for r in rows if r["kind"] == "equilibrium"}
    nash = ergodic_games.NashSolution.read(asym)
    assert eq[1] == nash.solutions[1].value_at(0.0)  # v_2(x0), x0 = 0
    assert eq[0] == nash.lambdas[0]
    assert eq[1] != eq[0]


def test_a_set_alpha_verifies_the_same_equilibrium_with_and_without_nash(tmp_path):
    # solve-game used to solve the all-ergodic game, and verify-nash alone the asymmetric one
    cfg = yaml.safe_load(Path(game_cfg(tmp_path, horizon=60.0, n_paths=8)).read_text())
    cfg = write_cfg(tmp_path, "alpha.yaml", {**cfg, "alpha": 0.2})
    nash_dir, saved, alone = tmp_path / "nash", tmp_path / "saved", tmp_path / "alone"
    assert cli.main(["solve-game", "--config", cfg, "--out", str(nash_dir), "--quiet"]) == 0
    assert cli.main(["verify-nash", "--config", cfg, "--out", str(saved),
                     "--nash", str(nash_dir), "--quiet"]) == 0
    assert cli.main(["verify-nash", "--config", cfg, "--out", str(alone), "--quiet"]) == 0
    for name in ("deviations.csv", "report.json"):
        assert (saved / name).read_bytes() == (alone / name).read_bytes()


def test_verify_nash_builds_its_model_and_game_once(tmp_path, monkeypatch):
    # without --nash the solve reuses them; it used to build both again
    calls = {"make_model": 0, "make_game": 0}
    for name in calls:
        def counted(section, build=getattr(cli, name), name=name):
            calls[name] += 1
            return build(section)
        monkeypatch.setattr(cli, name, counted)
    assert cli.main(["verify-nash", "--config", game_cfg(tmp_path, n_paths=4),
                     "--out", str(tmp_path / "verify"), "--quiet"]) == 0
    assert calls == {"make_model": 1, "make_game": 1}


def test_verify_nash_rejects_a_negative_deviation_count(tmp_path, caplog):
    # it used to run, with no deviation rows and n_deviations_per_player -1
    out = tmp_path / "verify"
    assert cli.main(["verify-nash", "--config", game_cfg(tmp_path, n_deviations=-1),
                     "--out", str(out), "--quiet"]) == 1
    assert "n_deviations must be nonnegative, got -1" in caplog.text
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("game, message", [
    ({"name": "three_player_symmetric"}, "equilibrium has 2 players, the game 3"),
    ({"name": "quadratic_decoupled", "n_controls": 5}, "outside their 5-point control grid"),
    # as many players and controls as the solved game: the saved equilibrium
    # does not solve this game's equations (recorded residual 1.7e-14)
    pytest.param({"name": "coupled_cross_cost"},
                 "does not solve player 0's equation under this model and game: "
                 "its residual at the saved policy is 0.00563", id="coupled_cross_cost"),
    # same name, players and index ranges, other control values: a constant
    # row used to play 1.2 on a game solved over [-1, 1]
    pytest.param({"name": "quadratic_decoupled", "control_bound": 2.0},
                 "does not solve player 0's equation under this model and game: "
                 "its residual at the saved policy is 0.0216", id="control_bound_2"),
    pytest.param({"name": "quadratic_decoupled", "n_controls": 81},
                 "does not solve player 0's equation under this model and game: "
                 "its residual at the saved policy is 0.5,", id="n_controls_81"),
])
def test_verify_nash_rejects_equilibrium_of_another_game(tmp_path, caplog, game, message):
    nash_dir = tmp_path / "nash"
    assert cli.main(["solve-game", "--config", game_cfg(tmp_path), "--out", str(nash_dir),
                     "--quiet"]) == 0
    cfg = write_cfg(tmp_path, "other.yaml", {
        "model": {}, "game": game, "mc": {"horizon": 40.0, "n_paths": 4, "n_deviations": 3},
    })
    assert cli.main(["verify-nash", "--config", cfg, "--out", str(tmp_path / "verify"),
                     "--nash", str(nash_dir), "--quiet"]) == 1
    assert "config error" in caplog.text and message in caplog.text


def test_verify_nash_rejects_a_saved_index_that_is_no_whole_number(tmp_path, caplog):
    # nash.csv's index columns used to be truncated on reading: 3.5 was control 3
    nash_dir = tmp_path / "nash"
    cfg = game_cfg(tmp_path)
    assert cli.main(["solve-game", "--config", cfg, "--out", str(nash_dir), "--quiet"]) == 0
    lines = (nash_dir / "nash.csv").read_text().splitlines()
    at = lines[0].split(",").index("u_1_index")
    row = lines[1].split(",")
    row[at] += ".5"
    lines[1] = ",".join(row)
    (nash_dir / "nash.csv").write_text("\n".join(lines) + "\n")
    assert cli.main(["verify-nash", "--config", cfg, "--out", str(tmp_path / "verify"),
                     "--nash", str(nash_dir), "--quiet"]) == 1
    assert "config error" in caplog.text
    assert f"control indices must be finite whole numbers, got {row[at]}" in caplog.text


def test_verify_nash_rejects_equilibrium_under_another_cost_bound(tmp_path, caplog):
    # same name and controls, another coupling: the cost bound and the costs differ
    game = {"name": "coupled_cross_cost", "n_controls": 41, "coupling": 0.25}
    cfg = yaml.safe_load(Path(game_cfg(tmp_path)).read_text())
    nash_dir = tmp_path / "nash"
    solved = write_cfg(tmp_path, "coupled.yaml", {**cfg, "game": game})
    assert cli.main(["solve-game", "--config", solved, "--out", str(nash_dir), "--quiet"]) == 0
    other = write_cfg(tmp_path, "other.yaml", {**cfg, "game": {**game, "coupling": 0.5}})
    assert cli.main(["verify-nash", "--config", other, "--out", str(tmp_path / "verify"),
                     "--nash", str(nash_dir), "--quiet"]) == 1
    assert "config error" in caplog.text
    assert ("does not solve player 0's equation under this model and game: its residual at "
            "the saved policy is 0.00563") in caplog.text


def _tanh(scale):
    return {"bounded_drift": {"name": "tanh", "scale": scale}}


@pytest.mark.parametrize("solved, model, residual", [
    pytest.param({}, {"sigma": 0.5}, "0.269", id="0.5"),
    pytest.param({}, {"sigma": 3.0}, "1.08", id="3.0"),
    # the same constants as the solved model, which were all that was compared
    pytest.param(_tanh(0.5), _tanh(-0.5), "0.216", id="tanh_-0.5"),
])
def test_verify_nash_rejects_equilibrium_under_another_model(tmp_path, caplog, solved, model,
                                                             residual):
    # it used to run the harness against the solved model and exit 3
    cfg = yaml.safe_load(Path(game_cfg(tmp_path)).read_text())
    nash_dir, out = tmp_path / "nash", tmp_path / "verify"
    assert cli.main(["solve-game", "--config", write_cfg(tmp_path, "solved.yaml",
                                                         {**cfg, "model": solved}),
                     "--out", str(nash_dir), "--quiet"]) == 0
    other = write_cfg(tmp_path, "other.yaml", {**cfg, "model": model})
    assert cli.main(["verify-nash", "--config", other, "--out", str(out),
                     "--nash", str(nash_dir), "--quiet"]) == 1
    assert ("config error: equilibrium does not solve player 0's equation under this model "
            f"and game: its residual at the saved policy is {residual}, against the recorded"
            ) in caplog.text
    assert not (out / "report.json").exists()


def test_verify_nash_accepts_equilibrium_from_another_start_state(tmp_path):
    # only the simulations read x0, so the saved equilibrium serves any start state
    nash_dir = tmp_path / "nash"
    assert cli.main(["solve-game", "--config", game_cfg(tmp_path), "--out", str(nash_dir),
                     "--quiet"]) == 0
    cfg = yaml.safe_load(Path(game_cfg(tmp_path)).read_text())
    other = write_cfg(tmp_path, "other.yaml", {**cfg, "model": {"x0": 1.0}})
    assert cli.main(["verify-nash", "--config", other, "--out", str(tmp_path / "verify"),
                     "--nash", str(nash_dir), "--quiet"]) == 0


def test_a_cycling_solve_leaves_its_cycle_in_the_report(tmp_path, caplog):
    # g0 on 9 controls per player never converges: its policy alternates with period 2
    cfg = cli.load_config(Path(__file__).resolve().parents[1] / "configs" / "g0.yaml")
    cfg["game"]["n_controls"] = 9
    out = tmp_path / "run"
    assert cli.main(["solve-game", "--config", write_cfg(tmp_path, "g0.yaml", cfg),
                     "--out", str(out)]) == 2
    assert "iteration 5's policy recurs at iteration 7 (period 2)" in caplog.text
    report = json.loads((out / "report.json").read_text())
    assert (report["converged"], report["cycle"]) == (False, [5, 2])
    assert ergodic_games.NashSolution.read(out).cycle == (5, 2)


def test_verify_nash_refuses_an_equilibrium_whose_solve_cycles(tmp_path, caplog):
    # the recurring policy is saved with the previous iteration's solutions, which do not
    # solve its equations: the harness used to run against their constants
    cfg = cli.load_config(Path(__file__).resolve().parents[1] / "configs" / "g0.yaml")
    cfg["game"]["n_controls"] = 9
    cfg["mc"].update(horizon=40.0, n_paths=4, n_deviations=3)
    out = tmp_path / "verify"
    assert cli.main(["verify-nash", "--config", write_cfg(tmp_path, "g0.yaml", cfg),
                     "--out", str(out), "--quiet"]) == 1
    assert ("its solve stopped at a cycle: iteration 5's policy recurs at iteration 7 "
            "(period 2)") in caplog.text
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("name", ["g0", "g0_coupled", "g0_asymmetric", "three_player"])
def test_every_bundled_solve_passes_the_equilibrium_check_from_disk(tmp_path, name):
    # nash.csv's floats round-trip, so the saved solution reproduces its recorded residuals
    cfg = cli.load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.yaml")
    out = tmp_path / "nash"
    assert cli.main(["solve-game", "--config", write_cfg(tmp_path, "c.yaml", cfg),
                     "--out", str(out), "--quiet"]) == 0
    model, spec = ergodic_games.make_model(cfg["model"]), ergodic_games.make_game(cfg["game"])
    ergodic_games.verify._check_same_game(model, spec, ergodic_games.NashSolution.read(out))


def test_verify_nash_rejects_a_discounted_start_off_the_grid(tmp_path, caplog):
    # the discounted player's reference used to be the value at the end node 6;
    # the horizon is long enough for the discounted tail, so only x0 is wrong
    cfg = yaml.safe_load(Path(game_cfg(tmp_path, horizon=120.0)).read_text())
    cfg.update(alpha=0.1, model={"x0": 10.0})
    out = tmp_path / "verify"
    assert cli.main(["verify-nash", "--config", write_cfg(tmp_path, "far.yaml", cfg),
                     "--out", str(out), "--quiet"]) == 1
    assert "x0=10.0 lies outside the grid [-6.0, 6.0]" in caplog.text
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, section", [("simulate", "sim"),
                                              ("check-assumptions", "mc")])
def test_zero_paths_exit_1(tmp_path, caplog, command, section):
    # no NaN statistics and no report: the engine refuses an empty path set
    cfg = write_cfg(tmp_path, "zero.yaml", {"model": {}, section: {"horizon": 1.0,
                                                                   "n_paths": 0}})
    out = tmp_path / "run"
    assert cli.main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert "n_paths must be at least 1" in caplog.text
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("overrides", [
    {"seed": None},
    {"grid": {**TINY_GRID, "m": None}},
    {"solver": {"tol": [1]}},
], ids=["seed-null", "grid-m-null", "solver-tol-list"])
def test_non_numeric_value_is_a_config_error(tmp_path, caplog, capsys, overrides):
    # int(None) and float([1]) raise TypeError, which used to escape as a traceback
    cfg = ebsde_cfg(tmp_path, **overrides)
    assert cli.main(["solve-ebsde", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--quiet"]) == 1
    assert "config error" in caplog.text
    assert "Traceback" not in caplog.text + capsys.readouterr().err


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "3"], ids=repr)
def test_a_config_seed_that_is_no_integer_exits_1(tmp_path, caplog, seed):
    # 1.5 used to run seed 1 and write a manifest with seed 1 beside the config's 1.5
    cfg = ebsde_cfg(tmp_path, seed=seed)
    out = tmp_path / "run"
    assert cli.main(["solve-ebsde", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert f"config field 'seed' must be an integer, got {seed!r}" in caplog.text
    assert not (out / "manifest.json").exists()


def test_a_manifest_seed_that_is_no_integer_is_a_config_error(tmp_path):
    # a seed edited to 1.5 used to rerun seed 1
    cfg = ebsde_cfg(tmp_path)
    assert cli.main(["solve-ebsde", "--config", cfg, "--out", str(tmp_path / "a"),
                     "--quiet"]) == 0
    man = json.loads((tmp_path / "a" / "manifest.json").read_text())
    (tmp_path / "m.json").write_text(json.dumps({**man, "seed": 1.5}))
    with pytest.raises(cli.ConfigError, match="config field 'seed' must be an integer, got 1.5"):
        cli.rerun_from_manifest(tmp_path / "m.json", tmp_path / "b")
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("simulate", "sim", "n_paths", 4.7), ("solve-ebsde", "grid", "m", 81.9),
    ("solve-game", "solver", "max_iter", "50"), ("check-assumptions", "mc", "n_paths", True)])
def test_a_section_integer_that_is_no_integer_exits_1(tmp_path, caplog, command, section, key,
                                                      value):
    # n_paths 4.7 used to run 4 paths and m 81.9 a grid of 81 nodes
    base = yaml.safe_load(Path(game_cfg(tmp_path)).read_text())
    base.update(driver={"name": "bump"}, sim={"horizon": 1.0})
    base[section] = {**base[section], key: value}
    cfg = write_cfg(tmp_path, "bad.yaml", base)
    out = tmp_path / "run"
    assert cli.main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert f"config field '{section}.{key}' must be an integer, got {value!r}" in caplog.text
    assert not (out / "manifest.json").exists()


def test_check_assumptions_fails_the_game_row_without_samples(tmp_path):
    # zero samples used to report fraction_with_pure_nash 1.0 and pass
    cfg = write_cfg(tmp_path, "chk.yaml", {
        "model": {},
        "game": {"name": "quadratic_decoupled", "n_controls": 11},
        "mc": {"horizon": 1.0, "n_paths": 8, "isaacs_samples": 0},
    })
    out = tmp_path / "run"
    assert cli.main(["check-assumptions", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3
    rep = json.loads((out / "report.json").read_text())
    assert rep["game"] == {"passed": False, "detail": "n_samples must be at least 1, got 0"}
    assert rep["all_passed"] is False


def test_simulate_row_count(tmp_path):
    cfg = write_cfg(tmp_path, "sim.yaml", {
        "model": {},
        "sim": {"horizon": 1.0, "step": 0.1, "n_paths": 3},
    })
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "path,t,x_1"
    assert len(lines) == 1 + 3 * 11  # three paths, eleven time points each
    rep = json.loads((out / "report.json").read_text())
    assert rep["n_paths"] == 3


def test_check_assumptions_passes_for_reference_setup(tmp_path):
    cfg = write_cfg(tmp_path, "chk.yaml", {
        "model": {},
        "game": {"name": "quadratic_decoupled", "n_controls": 11},
        "mc": {"horizon": 10.0, "n_paths": 128},
    })
    out = tmp_path / "run"
    assert cli.main(["check-assumptions", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["all_passed"] is True
    assert rep["moment"]["passed"] is True
    assert rep["game"]["fraction_with_pure_nash"] == 1.0


def test_check_assumptions_flags_weak_dissipation(tmp_path):
    # mean reversion too slow for the horizon: the doubled-horizon second
    # moment keeps growing, so the boundedness check must fail
    cfg = write_cfg(tmp_path, "weak.yaml", {
        "model": {"lin_drift": -0.05},
        "mc": {"horizon": 10.0, "n_paths": 128},
    })
    out = tmp_path / "run"
    assert cli.main(["check-assumptions", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3
    rep = json.loads((out / "report.json").read_text())
    assert rep["all_passed"] is False
    assert rep["moment"]["passed"] is False


def test_missing_section_exits_1(tmp_path):
    cfg = write_cfg(tmp_path, "bad.yaml", {"model": {}, "grid": dict(TINY_GRID)})
    assert cli.main(["solve-ebsde", "--config", cfg,
                     "--out", str(tmp_path / "x"), "--quiet"]) == 1


def test_malformed_yaml_exits_1(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("driver: [unclosed\n")
    assert cli.main(["solve-ebsde", "--config", str(p),
                     "--out", str(tmp_path / "x"), "--quiet"]) == 1


def test_missing_config_file_exits_1(tmp_path):
    assert cli.main(["solve-ebsde", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "x"), "--quiet"]) == 1


def test_unknown_game_name_exits_1(tmp_path):
    cfg = write_cfg(tmp_path, "g.yaml", {
        "model": {}, "grid": dict(TINY_GRID),
        "game": {"name": "tic_tac_toe"}, "solver": {},
    })
    assert cli.main(["solve-game", "--config", cfg,
                     "--out", str(tmp_path / "x"), "--quiet"]) == 1


def test_unknown_subcommand_exits_1(tmp_path, capsys):
    assert cli.main(["frobnicate", "--config", "x", "--out", "y"]) == 1
    capsys.readouterr()


def test_cfl_violation_exits_2(tmp_path):
    # dx=1 is too coarse for the drift under unit noise: the central scheme is
    # not monotone inside the retained interior
    cfg = ebsde_cfg(tmp_path, model={"sigma": 1.0},
                    grid={"x_min": -6.0, "x_max": 6.0, "m": 13})
    assert cli.main(["solve-ebsde", "--config", cfg,
                     "--out", str(tmp_path / "x"), "--quiet"]) == 2


@pytest.mark.parametrize("key", ["dtau", "max_sweeps", "residual_ceiling"])
def test_removed_solver_keys_exit_1(tmp_path, caplog, key):
    cfg = ebsde_cfg(tmp_path, solver={"tol": 1.0e-6, key: 100.0})
    assert cli.main(["solve-ebsde", "--config", cfg,
                     "--out", str(tmp_path / "x"), "--quiet"]) == 1
    assert f"unknown solver key {key!r}" in caplog.text


@pytest.mark.parametrize("command", ["solve-ebsde", "simulate"])
def test_unknown_solver_key_exits_1(tmp_path, caplog, command):
    cfg = ebsde_cfg(tmp_path, solver={"tol": 1.0e-6, "inner_tl": 1.0e-6})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "x"), "--quiet"]) == 1
    assert "unknown solver key 'inner_tl'" in caplog.text


@pytest.mark.parametrize("command", ["simulate", "solve-ebsde"])
@pytest.mark.parametrize("section, key", [("sim", "n_path"), ("mc", "n_path"),
                                          ("grid", "interior_margn"), ("top-level", "solvr"),
                                          # settings that are fixed, not configured
                                          ("grid", "x_ref_index"),
                                          ("grid", "interior_margin"), ("mc", "eps_tail"),
                                          ("mc", "growth_slack")])
def test_unknown_section_key_exits_1(tmp_path, caplog, command, section, key):
    # each misspelling used to run with the default value and exit 0
    cfg = {"seed": 0, "model": {}, "grid": dict(TINY_GRID), "driver": {"name": "bump"},
           "sim": {"n_paths": 2}, "mc": {"n_paths": 2}}
    (cfg if section == "top-level" else cfg[section])[key] = 3
    out = tmp_path / "x"
    assert cli.main([command, "--config", write_cfg(tmp_path, "c.yaml", cfg),
                     "--out", str(out), "--quiet"]) == 1
    assert f"unknown {section} key {key!r}; known keys: " in caplog.text
    assert ", ".join(cli._KNOWN_KEYS[section]) in caplog.text
    assert not out.exists()


def test_enumeration_cap_is_no_longer_a_solver_key(tmp_path, caplog):
    cfg = ebsde_cfg(tmp_path, solver={"tol": 1.0e-6, "enumeration_cap": 1000})
    assert cli.main(["solve-ebsde", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--quiet"]) == 1
    assert "unknown solver key 'enumeration_cap'" in caplog.text


def test_csv_cells_are_formatted_by_type(tmp_path):
    from ergodic_games._csv import write_csv

    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c", "d", "e", "f"),
              [(0.1, True, 3, None, "x, y", np.int64(7)), (np.float64(2.0), False, 0, 1e-300,
                                                          "ok", np.bool_(True))])
    assert path.read_text() == "a,b,c,d,e,f\n0.1,true,3,,x; y,7\n2.0,false,0,1e-300,ok,true\n"


def test_bundled_configs_pass_the_solver_key_check():
    # verify-nash reads the configs solve-game reads, so one solver section serves both
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "configs").glob("*.yaml")) + [root / "perfbench" / "g0_bench.yaml"]
    assert len(paths) > 1
    for p in paths:
        for name in cli._KNOWN_KEYS:
            cli._checked_section(cli.load_config(p), name)


def test_config_keys_are_library_keywords():
    # each key sets a keyword of a library call its section feeds, so a key
    # outlives no keyword and names no setting the library fixes
    feeds = {
        "grid": (ergodic_games.Grid1D,),
        "solver": (ergodic_games.picard_solve, ergodic_games.solve_ergodic,
                   ergodic_games.solve_continuous_ebsde),
        "mc": (ergodic_games.nash_deviation_test, ergodic_games.moment_bound_check,
               ergodic_games.verify_isaacs),
        "sim": (ergodic_games.sample_paths,),
    }
    renamed = {"isaacs_samples": "n_samples", "isaacs_delta": "delta"}
    for section, callables in feeds.items():
        keywords = {p for c in callables for p in inspect.signature(c).parameters}
        for key in cli._KNOWN_KEYS[section]:
            assert renamed.get(key, key) in keywords, f"{section}.{key}"


def test_sweep_budget_exhaustion_exits_2(tmp_path):
    cfg = ebsde_cfg(tmp_path, solver={"tol": 1.0e-300})
    assert cli.main(["solve-ebsde", "--config", cfg,
                     "--out", str(tmp_path / "x"), "--quiet"]) == 2


def _failed_run(tmp_path, command, cfg):
    """The ``error`` entry of the manifest that a run of ``command`` on ``cfg`` leaves when
    a solver error stops it; rerunning that manifest raises the same error again."""
    out = tmp_path / "failed"
    assert cli.main([command, "--config", write_cfg(tmp_path, "c.yaml", cfg), "--out", str(out),
                     "--quiet"]) == 2
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == command and man["outputs"] == []
    error = man["error"]
    with pytest.raises(cli._SOLVER_ERRORS) as exc:
        cli.rerun_from_manifest(out / "manifest.json", tmp_path / "again")
    assert (type(exc.value).__name__, str(exc.value)) == (error["type"], error["message"])
    assert "error" in json.loads((tmp_path / "again" / "manifest.json").read_text())
    return error


def test_a_non_monotone_scheme_leaves_its_node_in_the_manifest(tmp_path):
    error = _failed_run(tmp_path, "solve-ebsde", {
        "model": {}, "grid": {"x_min": -6.0, "x_max": 6.0, "m": 41},
        "driver": {"name": "linear_z_plus_bump", "slope": 40.0}, "solver": {}})
    assert sorted(error) == ["advection_dx", "message", "sigma2", "type", "x"]
    assert error["type"] == "NonMonotoneSchemeError"
    assert error["advection_dx"] >= error["sigma2"] > 0 and error["x"] == -4.5


def test_an_unconverged_solve_leaves_its_residual_history_in_the_manifest(tmp_path):
    # Newton stalls near 1e-9 on the square-root driver
    error = _failed_run(tmp_path, "continuous-ebsde", {
        "model": {}, "grid": dict(TINY_GRID),
        "driver": {"name": "sqrt_z_plus_bump", "slope": 0.5}, "solver": {"tol": 1.0e-10}})
    assert error["type"] == "MaxSweepsExceededError"
    # the last iterate v stays out
    assert sorted(error) == ["lam", "message", "residual_history", "rounding_floor",
                             "sup_residual", "sweeps", "tol", "type"]
    # the stall is the driver's, far above rounding: the message names no floor
    assert error["tol"] == 1.0e-10 > 100 * error["rounding_floor"]
    assert "rounding floor" not in error["message"]
    assert len(error["residual_history"]) == error["sweeps"]
    assert error["residual_history"][-1] == error["sup_residual"] > 1.0e-10


def test_a_game_without_a_pure_nash_point_leaves_it_in_the_manifest(tmp_path, monkeypatch):
    # opposed bilinear costs on {-1, 1}: no joint control is unilaterally stable
    grid = ergodic_games.ControlGrid(np.array([-1.0, 1.0]))
    pennies = ergodic_games.GameSpec(
        grids=(grid, grid), drift_map=lambda u, v: 0.0 * u + 0.0 * v,
        costs=(lambda x, u, v: u * v + 0.0 * x, lambda x, u, v: -u * v + 0.0 * x),
        cost_sup=1.0, cost_x_lip=0.0)
    monkeypatch.setattr(cli, "make_game", lambda section: pennies)
    error = _failed_run(tmp_path, "solve-game", {
        "model": {}, "grid": dict(TINY_GRID), "game": {"name": "quadratic_decoupled"}})
    assert error["type"] == "NoPureNashError"
    assert sorted(error) == ["message", "type", "x", "z"]
    assert type(error["x"]) is float and len(error["z"]) == 2


def test_a_diverged_simulation_leaves_its_step_in_the_manifest(tmp_path, monkeypatch):
    # the residual drift turns NaN once the model's construction checks are done
    wild = {"on": False}
    model = ergodic_games.SdeModel(
        lin_drift=-1.0, bounded_drift=lambda x: np.full_like(x, np.nan if wild["on"] else 0.0),
        bounded_drift_sup=1.0, bounded_drift_lip=1.0, sigma=1.0, x0=0.0)
    wild["on"] = True
    monkeypatch.setattr(cli, "make_model", lambda section: model)
    error = _failed_run(tmp_path, "simulate", {
        "model": {}, "sim": {"horizon": 1.0, "step": 0.1, "n_paths": 3}})
    assert error == {"type": "SimulationDivergedError", "step_index": 1,
                     "message": "simulation diverged: non-finite state at step 1"}


def _continuous_report(model, grid):
    f, kappa = ergodic_games.make_growth_driver({"name": "sqrt_z_plus_bump"})
    return {**ergodic_games.solve_continuous_ebsde(model, f, kappa, grid).report_dict(),
            "kappa": kappa}


@pytest.mark.parametrize("command, section, library_report", [
    ("solve-ebsde", {"driver": {"name": "bump"}}, lambda model, grid: ergodic_games.solve_ergodic(
        model, ergodic_games.make_driver({"name": "bump"}), grid).report_dict()),
    ("continuous-ebsde", {"driver": {"name": "sqrt_z_plus_bump"}}, _continuous_report),
    ("solve-game", {"game": {"name": "quadratic_decoupled"}}, lambda model, grid:
     ergodic_games.picard_solve(model, ergodic_games.quadratic_decoupled(), grid).report_dict()),
])
def test_empty_solver_section_takes_the_library_defaults(tmp_path, command, section,
                                                         library_report):
    # every bundled config sets every solver key, so only this runs the defaults
    cfg = {"seed": 0, "model": {}, "grid": dict(TINY_GRID), "solver": {}, **section}
    out = tmp_path / "run"
    assert cli.main([command, "--config", write_cfg(tmp_path, "c.yaml", cfg), "--out", str(out),
                     "--quiet"]) == 0
    expected = library_report(ergodic_games.ou_model(), ergodic_games.Grid1D(**TINY_GRID))
    assert json.loads((out / "report.json").read_text()) == json.loads(json.dumps(expected))


def test_check_assumptions_fails_the_game_row_on_a_failed_perturbed_search(tmp_path):
    # a NaN perturbation fails every second search; those samples used to count as hits
    cfg = write_cfg(tmp_path, "chk.yaml", {
        "model": {},
        "game": {"name": "quadratic_decoupled", "n_controls": 11},
        "mc": {"horizon": 1.0, "n_paths": 8, "isaacs_samples": 5, "isaacs_delta": float("nan")},
    })
    out = tmp_path / "run"
    assert cli.main(["check-assumptions", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 3
    rep = json.loads((out / "report.json").read_text())
    assert rep["game"]["passed"] is False
    assert rep["game"]["fraction_with_pure_nash"] == 0.0
    assert rep["all_passed"] is False


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    assert "ergodic-games" in capsys.readouterr().out


def test_load_nash_requires_artifacts(tmp_path):
    with pytest.raises(FileNotFoundError, match="nash.csv"):
        ergodic_games.NashSolution.read(tmp_path)


def _pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    return tomllib.loads(pyproject.read_text(encoding="utf-8"))


def test_console_script_is_installed(tmp_path):
    """The declared ``ergodic-games`` entry point runs out of process.

    Writes the launcher pip would install for ``[project.scripts]`` and runs
    it against the package this session imported, so the check covers this
    checkout whether or not (and from wherever) a script is on PATH.
    """
    project = _pyproject()["project"]
    target = project.get("scripts", {}).get("ergodic-games")
    assert target, "pyproject.toml declares no ergodic-games script"
    module, func = target.split(":")

    launcher = tmp_path / "ergodic-games"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    launcher.chmod(0o755)

    pkg_root = str(Path(ergodic_games.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([str(launcher), "--version"], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"ergodic-games {project['version']}\n"

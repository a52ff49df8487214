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


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    cfg = ebsde_cfg(tmp_path)
    first = tmp_path / "a"
    again = tmp_path / "b"
    assert cli.main(["solve-ebsde", "--config", cfg, "--out", str(first)]) == 0
    assert cli.rerun_from_manifest(first / "manifest.json", again) == 0
    for name in ("solution.csv", "report.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes()


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


@pytest.mark.parametrize("top", [{}, {"alpha": None}])
def test_asymmetric_requires_alpha(tmp_path, caplog, top):
    out = tmp_path / "run"
    assert cli.main(["asymmetric", "--config", game_cfg_with(tmp_path, **top),
                     "--out", str(out), "--quiet"]) == 1
    assert "missing config field 'alpha'" in caplog.text
    assert not (out / "report.json").exists()


def test_solve_game_ignores_alpha_and_asymmetric_discounts_player_2(tmp_path):
    plain, ergodic, asym = tmp_path / "plain", tmp_path / "ergodic", tmp_path / "asym"
    assert cli.main(["solve-game", "--config", game_cfg(tmp_path), "--out", str(plain),
                     "--quiet"]) == 0
    cfg = game_cfg_with(tmp_path, alpha=0.2)
    assert cli.main(["solve-game", "--config", cfg, "--out", str(ergodic), "--quiet"]) == 0
    report = json.loads((ergodic / "report.json").read_text())
    assert report["alpha"] is None
    assert [p["kind"] for p in report["players"]] == ["ergodic", "ergodic"]
    assert None not in report["lambdas"]
    for name in ("nash.csv", "report.json"):
        assert (ergodic / name).read_bytes() == (plain / name).read_bytes()

    assert cli.main(["asymmetric", "--config", cfg, "--out", str(asym), "--quiet"]) == 0
    report = json.loads((asym / "report.json").read_text())
    assert report["alpha"] == 0.2
    lambda1, lambda2 = report["lambdas"]
    assert isinstance(lambda1, float) and lambda2 is None
    assert [p["kind"] for p in report["players"]] == ["ergodic", "discounted"]


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
    # load_nash used to take its grid from an ergodic player's report entry
    # and raised StopIteration out of main when there was none
    nash = ergodic_games.picard_solve(ergodic_games.ou_model(),
                                      ergodic_games.quadratic_decoupled(),
                                      ergodic_games.Grid1D(**TINY_GRID), tol=1e-4,
                                      alphas=(0.5, 0.5))
    nash_dir = tmp_path / "nash"
    nash_dir.mkdir()
    nash.to_csv(nash_dir / "nash.csv")
    cli._write_json(nash_dir / "report.json", nash.report_dict())
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
    assert cli.main(["asymmetric", "--config", cfg, "--out", str(asym), "--quiet"]) == 0
    assert cli.main(["verify-nash", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rows = json.loads((out / "report.json").read_text())["rows"]
    eq = {r["player"]: r["reference"] for r in rows if r["kind"] == "equilibrium"}
    nash = cli.load_nash(asym)
    assert eq[1] == nash.solutions[1].value_at(0.0)  # v_2(x0), x0 = 0
    assert eq[0] == nash.lambdas[0]
    assert eq[1] != eq[0]


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
    # as many players and controls as the solved game
    ({"name": "coupled_cross_cost"},
     "solved for game 'quadratic_decoupled', not 'coupled_cross_cost'"),
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
    assert sorted(error) == ["lam", "message", "residual_history", "sup_residual", "sweeps",
                             "type"]
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
    with pytest.raises(cli.ConfigError, match="nash.csv"):
        cli.load_nash(tmp_path)


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

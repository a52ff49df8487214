"""Command-line layer: exit codes, artifacts, manifests, reruns."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import ergodic_games
from ergodic_games import cli

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


def test_verify_without_nash_dir_solves_inline(tmp_path):
    cfg = game_cfg(tmp_path, n_deviations=3, n_paths=16, horizon=30.0)
    out = tmp_path / "verify"
    assert cli.main(["verify-nash", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0


@pytest.mark.parametrize("game, message", [
    ({"name": "three_player_symmetric"}, "equilibrium has 2 players, the game 3"),
    ({"name": "quadratic_decoupled", "n_controls": 5}, "outside their 5-point control grid"),
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
    # dx=1 is too coarse for the drift: the central scheme is not monotone
    # inside the retained interior
    cfg = ebsde_cfg(tmp_path, grid={"x_min": -6.0, "x_max": 6.0, "m": 13,
                                    "interior_margin": 1})
    assert cli.main(["solve-ebsde", "--config", cfg,
                     "--out", str(tmp_path / "x"), "--quiet"]) == 2


@pytest.mark.parametrize("key", ["dtau", "max_sweeps"])
def test_removed_solver_keys_exit_1(tmp_path, caplog, key):
    cfg = ebsde_cfg(tmp_path, solver={"tol": 1.0e-6, key: 100.0})
    assert cli.main(["solve-ebsde", "--config", cfg,
                     "--out", str(tmp_path / "x"), "--quiet"]) == 1
    assert f"solver key {key} no longer exists" in caplog.text


@pytest.mark.parametrize("command", ["solve-ebsde", "simulate"])
def test_unknown_solver_key_exits_1(tmp_path, caplog, command):
    cfg = ebsde_cfg(tmp_path, solver={"tol": 1.0e-6, "inner_tl": 1.0e-6})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "x"), "--quiet"]) == 1
    assert "unknown solver key 'inner_tl'" in caplog.text


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
        cli._solver_section(cli.load_config(p))


def test_sweep_budget_exhaustion_exits_2(tmp_path):
    cfg = ebsde_cfg(tmp_path, solver={"tol": 1.0e-300})
    assert cli.main(["solve-ebsde", "--config", cfg,
                     "--out", str(tmp_path / "x"), "--quiet"]) == 2


def test_discount_sweep_applies_damping(tmp_path):
    alphas = [0.5, 0.2]
    cfg = {"seed": 0, "alphas": alphas, "model": {}, "grid": dict(TINY_GRID),
           "game": {"name": "quadratic_decoupled"},
           "solver": {"tol": 1.0e-4, "damping": 0.5}}
    out = tmp_path / "sweep"
    assert cli.main(["discount-sweep", "--config", write_cfg(tmp_path, "sweep.yaml", cfg),
                     "--out", str(out), "--quiet"]) == 0
    rows = json.loads((out / "report.json").read_text())["rows"]
    args = (ergodic_games.ou_model(), ergodic_games.quadratic_decoupled(),
            ergodic_games.Grid1D(**TINY_GRID), alphas)
    damped = ergodic_games.vanishing_discount_sweep(*args, tol=1.0e-4, damping=0.5)
    plain = ergodic_games.vanishing_discount_sweep(*args, tol=1.0e-4)
    assert damped.as_dicts() != plain.as_dicts()
    assert rows == damped.as_dicts()


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

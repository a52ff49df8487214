"""Command line front end.

Every subcommand reads one YAML config, writes its artifacts into ``--out``
and finishes with a ``manifest.json`` that embeds the resolved config, the
seed, a config hash and library versions.  Reports and CSV files depend only
on the config and seed (floats with ``repr``, JSON keys sorted), so reruns
are byte identical; wall time and peak RSS live in the manifest only.  A
run stopped by a solver error still writes its manifest, with an ``error``
entry holding the error's type, message and diagnostic fields.

Exit codes: 0 success, 1 config or usage problem, 2 solver non-convergence
or diverged simulation, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import platform
import resource
import sys
import time
from pathlib import Path as FsPath
from typing import Optional, Tuple

import numpy as np
import yaml

from ._csv import write_csv
from .catalog import make_driver, make_game, make_growth_driver, make_model
from .continuous import solve_continuous_ebsde
from .ebsde import (
    Grid1D,
    GridSolution,
    MaxSweepsExceededError,
    NonMonotoneSchemeError,
    solve_ergodic,
)
from .games import FeedbackPolicy, NoPureNashError, verify_isaacs
from .picard import NashSolution, asymmetric_solve, picard_solve, vanishing_discount_sweep
from .sde import SimulationDivergedError, moment_bound_check, sample_paths
from .verify import nash_deviation_test

__all__ = ["ConfigError", "main", "load_config", "load_nash", "rerun_from_manifest"]

logger = logging.getLogger(__name__)

_SOLVER_ERRORS = (
    NonMonotoneSchemeError,
    MaxSweepsExceededError,
    NoPureNashError,
    SimulationDivergedError,
)


class ConfigError(Exception):
    """Config file missing, unreadable, or lacking a required field."""


def load_config(path) -> dict:
    p = FsPath(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = yaml.safe_load(p.read_text())
    except yaml.YAMLError as err:
        raise ConfigError(f"config file {p} is not valid YAML: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {p} must contain a mapping at the top level")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(f"missing config section '{name}'")
    val = cfg[name]
    if val is None:
        return {}
    if not isinstance(val, dict):
        raise ConfigError(f"config section '{name}' must be a mapping")
    return val


def _scalar(cfg: dict, name: str):
    if name not in cfg:
        raise ConfigError(f"missing config field '{name}'")
    return cfg[name]


# every key some command reads, per section: a config may be shared between commands
# (mc serves verify-nash and check-assumptions), and --nash sets nash_dir
_KNOWN_KEYS = {
    "top-level": ("seed", "alpha", "alphas", "model", "grid", "driver", "game", "solver", "mc",
                  "sim", "nash_dir"),
    "grid": ("x_min", "x_max", "m"),
    "solver": ("tol", "max_iter", "inner_tol"),
    "mc": ("horizon", "step", "n_paths", "n_deviations", "grid_error_budget", "burn_in",
           "isaacs_samples", "isaacs_delta"),
    "sim": ("horizon", "step", "n_paths"),
}


def _checked_section(cfg: dict, name: str) -> dict:
    """Section ``name`` (``{}`` when absent); a key no command reads is a config error."""
    s = cfg if name == "top-level" else _section(cfg, name) if name in cfg else {}
    for key in s:
        if key not in _KNOWN_KEYS[name]:
            raise ConfigError(f"unknown {name} key {key!r}; known keys: "
                              f"{', '.join(_KNOWN_KEYS[name])}")
    return s


def _set_keys(cfg: dict, name: str, **casts) -> dict:
    """``{key: cast(s[key])}`` for each key of ``casts`` that section ``name`` sets: the
    keyword arguments of a library call, whose own defaults hold for the other keys."""
    s = _checked_section(cfg, name)
    return {key: cast(s[key]) for key, cast in casts.items() if key in s}


# the solver keys of picard_solve, asymmetric_solve and vanishing_discount_sweep
_PICARD_KEYS = {"tol": float, "max_iter": int, "inner_tol": float}


def _make_grid(gcfg: dict) -> Grid1D:
    for k in ("x_min", "x_max", "m"):
        if k not in gcfg:
            raise ConfigError(f"missing config field 'grid.{k}'")
    return Grid1D(float(gcfg["x_min"]), float(gcfg["x_max"]), int(gcfg["m"]))


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _write_manifest(out: FsPath, command: str, cfg: dict, seed: int,
                    outputs: list, t0: float, error: Optional[dict] = None) -> None:
    from . import __version__

    _write_json(
        out / "manifest.json",
        {
            **({} if error is None else {"error": error}),
            "command": command,
            "config": cfg,
            "config_sha256": _config_hash(cfg),
            "seed": seed,
            "outputs": outputs,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "ergodic_games": __version__,
            },
            "wall_time_s": time.perf_counter() - t0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # the largest child waited for (Monte Carlo workers), 0 if none
            "peak_rss_children_mb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        },
    )


# -- subcommand handlers -------------------------------------------------------------
# Each returns (exit_code, list of artifact file names written into out/).


def _cmd_solve_ebsde(cfg: dict, out: FsPath, seed: int) -> Tuple[int, list]:
    model = make_model(_section(cfg, "model"))
    grid = _make_grid(_section(cfg, "grid"))
    driver = make_driver(_section(cfg, "driver"))
    sol = solve_ergodic(model, driver, grid, **_set_keys(cfg, "solver", tol=float))
    sol.to_csv(out / "solution.csv")
    _write_json(out / "report.json", sol.report_dict())
    logger.info("solve-ebsde: lambda=%.9g residual=%.3e", sol.lam, sol.residual_sup)
    return 0, ["solution.csv", "report.json"]


def _cmd_continuous_ebsde(cfg: dict, out: FsPath, seed: int) -> Tuple[int, list]:
    model = make_model(_section(cfg, "model"))
    grid = _make_grid(_section(cfg, "grid"))
    f, kappa = make_growth_driver(_section(cfg, "driver"))
    sol = solve_continuous_ebsde(model, f, kappa, grid, **_set_keys(cfg, "solver", tol=float))
    sol.to_csv(out / "solution.csv")
    report = sol.report_dict()
    report["kappa"] = kappa
    _write_json(out / "report.json", report)
    logger.info("continuous-ebsde: lambda=%.9g residual=%.3e", sol.lam, sol.residual_sup)
    return 0, ["solution.csv", "report.json"]


def _solve_nash(cfg: dict, alpha) -> NashSolution:
    """All-ergodic equilibrium, or the one with player 2 discounted at a set ``alpha``."""
    model = make_model(_section(cfg, "model"))
    grid = _make_grid(_section(cfg, "grid"))
    spec = make_game(_section(cfg, "game"))
    kwargs = _set_keys(cfg, "solver", **_PICARD_KEYS)
    if alpha is not None:
        return asymmetric_solve(model, spec, grid, float(alpha), **kwargs)
    return picard_solve(model, spec, grid, **kwargs)


def _cmd_solve_game(cfg: dict, out: FsPath, seed: int,
                    asymmetric: bool = False) -> Tuple[int, list]:
    """``solve-game`` ignores ``alpha``; ``asymmetric`` requires it."""
    if asymmetric and cfg.get("alpha") is None:
        raise ConfigError("missing config field 'alpha'")
    nash = _solve_nash(cfg, cfg["alpha"] if asymmetric else None)
    nash.to_csv(out / "nash.csv")
    _write_json(out / "report.json", nash.report_dict())
    logger.info("game solve: lambdas=%s alpha=%s converged=%s",
                nash.lambdas, nash.alpha, nash.converged)
    return (0 if nash.converged else 2), ["nash.csv", "report.json"]


def _cmd_discount_sweep(cfg: dict, out: FsPath, seed: int) -> Tuple[int, list]:
    model = make_model(_section(cfg, "model"))
    grid = _make_grid(_section(cfg, "grid"))
    spec = make_game(_section(cfg, "game"))
    alphas = _scalar(cfg, "alphas")
    if not isinstance(alphas, (list, tuple)) or not alphas:
        raise ConfigError("config field 'alphas' must be a nonempty list")
    sweep = vanishing_discount_sweep(model, spec, grid, [float(a) for a in alphas],
                                     **_set_keys(cfg, "solver", **_PICARD_KEYS))
    sweep.to_csv(out / "sweep.csv")
    _write_json(out / "report.json", {"game": spec.name, "rows": sweep.as_dicts()})
    bad = [r for r in sweep.rows if r.status != "ok"]
    if bad:
        logger.warning("discount-sweep: %d of %d rows did not converge", len(bad), len(sweep.rows))
    return (0 if not bad else 2), ["sweep.csv", "report.json"]


def _cmd_verify_nash(cfg: dict, out: FsPath, seed: int) -> Tuple[int, list]:
    model = make_model(_section(cfg, "model"))
    spec = make_game(_section(cfg, "game"))
    nash = (load_nash(cfg["nash_dir"]) if cfg.get("nash_dir")
            else _solve_nash(cfg, cfg.get("alpha")))
    report = nash_deviation_test(model, spec, nash, seed=seed, **_set_keys(
        cfg, "mc", n_deviations=int, horizon=float, step=float, n_paths=int,
        grid_error_budget=float, burn_in=float))
    report.to_csv(out / "deviations.csv")
    _write_json(out / "report.json", {"game": spec.name, **report.as_dict()})
    n_fail = len(report.failures())
    logger.info("verify-nash: %d rows, %d failures", len(report.rows), n_fail)
    return (0 if report.all_passed else 3), ["deviations.csv", "report.json"]


def _cmd_simulate(cfg: dict, out: FsPath, seed: int) -> Tuple[int, list]:
    model = make_model(_section(cfg, "model"))
    sim = _checked_section(cfg, "sim")
    horizon = float(sim.get("horizon", 10.0))
    step = float(sim.get("step", 0.01))
    n_paths = int(sim.get("n_paths", 1))
    states = sample_paths(model, None, horizon, step, seed, n_paths)
    times = (np.arange(states.shape[1]) * step).tolist()
    write_csv(out / "paths.csv", ("path", "t", "x_1"),
              ((p, t, x) for p, row in enumerate(states.tolist()) for t, x in zip(times, row)))
    final = states[:, -1]
    sq = (states**2).mean(axis=0)
    _write_json(
        out / "report.json",
        {
            "horizon": horizon,
            "step": step,
            "n_paths": n_paths,
            "final_mean": [float(final.mean())],
            "final_std": [float(final.std(ddof=1)) if n_paths > 1 else 0.0],
            "sup_mean_square": float(np.max(sq)),
        },
    )
    return 0, ["paths.csv", "report.json"]


# the verify_isaacs keyword of each mc key that sets it
_ISAACS_KEYWORDS = {"isaacs_samples": "n_samples", "isaacs_delta": "delta"}


def _cmd_check_assumptions(cfg: dict, out: FsPath, seed: int) -> Tuple[int, list]:
    checks: dict = {}
    model = None
    try:
        model = make_model(_section(cfg, "model"))
        checks["model"] = {"passed": True, "detail": None}
    except ValueError as err:
        checks["model"] = {"passed": False, "detail": str(err)}
    if model is not None:
        rep = moment_bound_check(model, seed=seed, **_set_keys(
            cfg, "mc", horizon=float, step=float, n_paths=int))
        checks["moment"] = {
            "passed": rep.bounded_in_horizon,
            "sup_second_moment": rep.sup_second_moment,
            "sup_second_moment_doubled": rep.sup_second_moment_doubled,
            "bound_constant": rep.bound_constant,
            "horizon": rep.horizon,
            "n_paths": rep.n_paths,
        }
    else:
        checks["moment"] = {"passed": False, "detail": "skipped: model construction failed"}
    if "game" in cfg:
        try:
            spec = make_game(_section(cfg, "game"))
            isaacs = _set_keys(cfg, "mc", isaacs_samples=int, isaacs_delta=float)
            rep = verify_isaacs(spec, seed=seed,
                                **{_ISAACS_KEYWORDS[k]: v for k, v in isaacs.items()})
            checks["game"] = {
                "passed": rep.fraction_with_pure_nash == 1.0,
                "fraction_with_pure_nash": rep.fraction_with_pure_nash,
                "max_continuity_jump": rep.max_continuity_jump,
                "n_samples": rep.n_samples,
                "delta": rep.delta,
            }
        except ValueError as err:
            checks["game"] = {"passed": False, "detail": str(err)}
    if "driver" in cfg:
        try:
            make_driver(_section(cfg, "driver"))
            checks["driver"] = {"passed": True, "detail": None}
        except ValueError as err:
            checks["driver"] = {"passed": False, "detail": str(err)}
    all_passed = all(c["passed"] for c in checks.values())
    checks["all_passed"] = all_passed
    _write_json(out / "report.json", checks)
    return (0 if all_passed else 3), ["report.json"]


_HANDLERS = {  # command: (handler, help)
    "solve-ebsde": (_cmd_solve_ebsde, "solve one ergodic equation for a catalogued driver"),
    "continuous-ebsde": (_cmd_continuous_ebsde,
                         "solve one ergodic equation for a continuous linear-growth driver"),
    "solve-game": (_cmd_solve_game, "Picard-solve the coupled equilibrium system"),
    "asymmetric": (functools.partial(_cmd_solve_game, asymmetric=True),
                   "equilibrium with an ergodic player 1 and a discounted player 2"),
    "discount-sweep": (_cmd_discount_sweep, "asymmetric solves along a list of discount rates"),
    "verify-nash": (_cmd_verify_nash, "Monte Carlo deviation test of a solved equilibrium"),
    "simulate": (_cmd_simulate, "sample uncontrolled model paths"),
    "check-assumptions": (_cmd_check_assumptions,
                          "sampled checks of model, game and driver assumptions"),
}


def load_nash(nash_dir) -> NashSolution:
    """Rebuild a solved equilibrium from a ``solve-game``/``asymmetric`` output directory.

    Reads ``nash.csv`` and ``report.json``.  The grid is rebuilt from the
    ``x`` column (``linspace`` stores both ends and CSV floats round-trip),
    so it needs no ergodic player; growth constants, ``sup_v``, ``lambdas``
    and ``alpha`` are derived again from the solutions, not read back.
    """
    d = FsPath(nash_dir)
    csv_path = d / "nash.csv"
    report_path = d / "report.json"
    if not csv_path.is_file() or not report_path.is_file():
        raise ConfigError(f"nash directory {d} must contain nash.csv and report.json")
    report = json.loads(report_path.read_text())
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    n_players = (len(header) - 1) // 4
    players = report["players"]
    if len(players) != n_players:
        raise ConfigError("nash.csv and report.json disagree on the player count")
    x = data[:, 0]
    grid = Grid1D(float(x[0]), float(x[-1]), len(x))
    sols = []
    for pd, v, xi in zip(players, data[:, 1::4].T, data[:, 2::4].T):
        discounted = pd["kind"] == "discounted"
        sols.append(
            GridSolution(
                grid=grid, v=v, xi=xi,
                lam=None if discounted else float(pd["lambda"]),
                alpha=float(pd["alpha"]) if discounted else None,
                residual_sup=float(pd["residual_sup"]),
                iterations=int(pd["iterations"]),
            )
        )
    policy = FeedbackPolicy(nodes=grid.nodes(), indices=data[:, 4::4].astype(int))
    return NashSolution(
        spec_name=report["game"],
        solutions=tuple(sols),
        policy=policy,
        policy_values=tuple(data[:, 3::4].T),
        comparison=float(report["comparison_bound"]),
        converged=bool(report["converged"]),
        iterations=int(report["iterations"]),
        deltas_history=tuple(report["deltas_history"]),
    )


def _run_command(command: str, cfg: dict, out_dir, seed: int) -> int:
    for name in _KNOWN_KEYS:  # reject unknown keys even where the command reads none
        _checked_section(cfg, name)
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        rc, outputs = _HANDLERS[command][0](cfg, out, seed)
    except _SOLVER_ERRORS as err:
        _write_manifest(out, command, cfg, seed, [], t0, _error_record(err))
        raise
    _write_manifest(out, command, cfg, seed, outputs, t0)
    return rc


def _error_record(err: Exception) -> dict:
    """A solver error's type, message and own fields, as JSON values; a grid solve's
    last iterate ``v`` is left out."""
    fields = {name: np.asarray(value).tolist() for name, value in vars(err).items()
              if name != "v"}
    return {"type": type(err).__name__, "message": str(err), **fields}


def rerun_from_manifest(manifest_path, out_dir) -> int:
    """Re-execute the command recorded in a manifest into a fresh directory.

    Uses the embedded config and seed, so reports and CSVs come out byte
    identical to the original run, and a failed run fails with the same error.
    """
    man = json.loads(FsPath(manifest_path).read_text())
    return _run_command(man["command"], man["config"], out_dir, int(man["seed"]))


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = _Parser(
        prog="ergodic-games",
        description="Grid solvers and Monte Carlo checks for long-run stochastic differential games.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text) in _HANDLERS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="YAML config file")
        sp.add_argument("--out", required=True, help="output directory (created if absent)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config's seed")
        sp.add_argument("--quiet", action="store_true", help="log warnings only")
        if name == "verify-nash":
            sp.add_argument("--nash", default=None,
                            help="directory with nash.csv/report.json from a previous solve")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        if getattr(args, "nash", None):
            cfg["nash_dir"] = args.nash
        return _run_command(args.command, cfg, args.out, seed)
    except _SOLVER_ERRORS as err:
        logger.error("solver failure: %s", err)
        return 2
    except ConfigError as err:
        logger.error("config error: %s", err)
        return 1
    except (KeyError, ValueError, TypeError, OSError) as err:
        # TypeError: a null or list where a number was expected (int(None), float([1]))
        logger.error("config error: %s", err)
        return 1


if __name__ == "__main__":
    sys.exit(main())

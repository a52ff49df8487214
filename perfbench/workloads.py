"""The benchmark's workloads: inputs built from the seed, library calls, and their gates.

:func:`build` is the set-up of one pass.  It constructs every model, grid,
driver and game the pass needs and returns a list of :class:`Op`.  Each op
makes one or more library calls and returns a list of :class:`Check`; a check
that fails, or an op that raises, counts as one failed operation.

Gates compare results with the values the seed commit produced, stored in
``expected.json`` next to this file (each pass record under
``.perfbench_out/`` lists the values it saw under ``observed``).  For the
solve workloads the seed only shuffles the order of the operations; for the
verify workloads it seeds every Monte Carlo stream.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
BENCH_CONFIG = HERE / "g0_bench.yaml"

COUPLED_TOL = 1e-4  # coupled solves against the stored seed values
SINGLE_TOL = 1e-6  # single-equation solves against the stored seed values
BOUND_SLACK = 1e-6  # every long-run cost stays below the comparison bound
# Gauss-Hermite value of E[x^2/(1+x^2)] under N(sqrt(2)/2, 1): the long-run
# cost of linear_z_plus_bump with slope 0.5 (same constant as the test suite)
E_BUMP_SHIFTED = 0.41666490095557396
BUMP_ORACLE_TOL = 2e-3
RESIDUAL_RATIO = (0.35, 0.65)  # rms residual ratio for a halved step

GRID_SIZES = (101, 201, 401)
DISCOUNTED_SIZES = (101, 201)
GAME_M = 81  # grid size of the two-player solves
THREE_PLAYER_M = 101  # the three-player game cycles at m=81 and converges here
ALPHA = 0.1

WORKLOADS = ("game_solve", "grid_sweep", "verify_long", "verify_wide")


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class Op:
    name: str
    call: Callable[[], List[Check]]
    path_steps: int = 0  # Monte Carlo path-steps the op simulates


@dataclass
class Pass:
    """What one pass produced, beyond its checks: values and artifact digests."""

    observed: Dict[str, list]
    digests: Dict[str, str]


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


# -- gates ----------------------------------------------------------------------------


def gate_coupled(label: str, converged: bool, lambdas: Sequence[float], comparison: float,
                 expected: Optional[Sequence[float]]) -> Check:
    """Converged, every long-run cost under the comparison bound, each near its stored value."""
    problems = []
    if not converged:
        problems.append("not converged")
    for i, lam in enumerate(lambdas):
        if not lam <= comparison + BOUND_SLACK:
            problems.append(f"lambda_{i}={lam!r} above comparison bound {comparison!r}")
    if expected is None or len(expected) != len(lambdas):
        problems.append("no stored value")
    else:
        for i, (lam, ref) in enumerate(zip(lambdas, expected)):
            if not abs(lam - ref) <= COUPLED_TOL:
                problems.append(f"lambda_{i}={lam!r} differs from stored {ref!r}")
    return Check(label, not problems, "; ".join(problems))


def gate_single(label: str, value: float, expected: Optional[float],
                oracle: Optional[float] = None) -> Check:
    """Near its stored value and, where a quadrature constant exists, near that too."""
    problems = []
    if expected is None:
        problems.append("no stored value")
    elif not abs(value - expected) <= SINGLE_TOL:
        problems.append(f"value {value!r} differs from stored {expected!r}")
    if oracle is not None and not abs(value - oracle) <= BUMP_ORACLE_TOL:
        problems.append(f"value {value!r} misses quadrature constant {oracle!r}")
    return Check(label, not problems, "; ".join(problems))


def gate_ratio(label: str, ratio: float) -> Check:
    lo, hi = RESIDUAL_RATIO
    ok = lo < ratio < hi
    return Check(label, ok, "" if ok else f"step-halving ratio {ratio!r} outside ({lo}, {hi})")


def nash_costs(nash) -> List[float]:
    """Long-run cost per player; a discounting player contributes alpha * v(x_ref)."""
    out = []
    for lam, sol in zip(nash.lambdas, nash.solutions):
        if lam is None:
            lam = nash.alpha * float(sol.v[sol.grid.x_ref_index])
        out.append(float(lam))
    return out


# -- workloads ------------------------------------------------------------------------


def build(workload: str, seed: int, workdir: Path, pass_info: Pass) -> List[Op]:
    """Set up one pass of ``workload``: every input is constructed before the first op."""
    builders = {
        "game_solve": _game_solve,
        "grid_sweep": _grid_sweep,
        "verify_long": _verify_long,
        "verify_wide": _verify_wide,
    }
    if workload not in builders:
        raise KeyError(f"unknown workload {workload!r}")
    return builders[workload](seed, Path(workdir), load_expected(), pass_info)


def _coupled_op(key: str, solve: Callable, expected: dict, pass_info: Pass) -> Op:
    def call():
        nash = solve()
        costs = nash_costs(nash)
        pass_info.observed[key] = costs
        return [gate_coupled(key, nash.converged, costs, nash.comparison, expected.get(key))]

    return Op(key, call)


def _game_solve(seed: int, workdir: Path, expected: dict, pass_info: Pass) -> List[Op]:
    import ergodic_games as eg

    model = eg.ou_model()
    kw = dict(tol=1e-4, inner_tol=1e-6)
    # one game and grid object per solve, so no solve reuses another's cost tables
    three = eg.three_player_symmetric(n_controls=41)
    decoupled = eg.quadratic_decoupled()
    coupled = eg.coupled_cross_cost()
    asym = eg.quadratic_decoupled()
    g = [eg.Grid1D(-6.0, 6.0, m) for m in (THREE_PLAYER_M, GAME_M, GAME_M, GAME_M)]
    ops = [
        _coupled_op(f"three_player_symmetric_m{THREE_PLAYER_M}",
                    lambda: eg.picard_solve(model, three, g[0], **kw), expected, pass_info),
        _coupled_op(f"quadratic_decoupled_m{GAME_M}",
                    lambda: eg.picard_solve(model, decoupled, g[1], **kw), expected, pass_info),
        _coupled_op(f"coupled_cross_cost_m{GAME_M}",
                    lambda: eg.picard_solve(model, coupled, g[2], **kw), expected, pass_info),
        _coupled_op(f"asymmetric_quadratic_decoupled_m{GAME_M}",
                    lambda: eg.asymmetric_solve(model, asym, g[3], ALPHA, **kw),
                    expected, pass_info),
    ]
    random.Random(seed).shuffle(ops)
    return ops


def _grid_sweep(seed: int, workdir: Path, expected: dict, pass_info: Pass) -> List[Op]:
    import ergodic_games as eg

    model = eg.ou_model()
    ops = []

    def single(key, solve, value, oracle=None):
        def call():
            v = value(solve())
            pass_info.observed[key] = [v]
            ref = expected.get(key)
            return [gate_single(key, v, None if ref is None else ref[0], oracle)]

        return Op(key, call)

    for m in GRID_SIZES:
        driver = eg.make_driver({"name": "linear_z_plus_bump", "slope": 0.5})
        grid = eg.Grid1D(-6.0, 6.0, m)
        ops.append(single(
            f"ergodic_linear_z_plus_bump_m{m}",
            lambda d=driver, g=grid: eg.solve_ergodic(model, d, g, tol=1e-6),
            lambda sol: float(sol.lam), E_BUMP_SHIFTED))
    for m in DISCOUNTED_SIZES:
        driver = eg.make_driver({"name": "tanh_z_plus_bump", "scale": 0.5})
        grid = eg.Grid1D(-6.0, 6.0, m)
        ops.append(single(
            f"discounted_tanh_z_plus_bump_m{m}",
            lambda d=driver, g=grid: eg.solve_discounted(model, d, g, ALPHA, tol=1e-6),
            lambda sol: ALPHA * float(sol.v[sol.grid.x_ref_index])))
    f, kappa = eg.make_growth_driver({"name": "sqrt_z_plus_bump", "slope": 0.5})
    grid = eg.Grid1D(-6.0, 6.0, 101)
    ops.append(single(
        "continuous_sqrt_z_plus_bump_m101",
        lambda: eg.solve_continuous_ebsde(model, f, kappa, grid, tol=1e-6),
        lambda sol: float(sol.lam)))
    random.Random(seed).shuffle(ops)
    return ops


def _deviation_checks(label: str, passed: Sequence[bool]) -> List[Check]:
    return [Check(f"{label} row {k}", bool(p), "" if p else "deviation row failed")
            for k, p in enumerate(passed)]


def _verify_long(seed: int, workdir: Path, expected: dict, pass_info: Pass) -> List[Op]:
    from ergodic_games import cli

    mc = cli.load_config(BENCH_CONFIG)["mc"]
    n_steps = round(mc["horizon"] / mc["step"])
    path_steps = 2 * (1 + mc["n_deviations"]) * mc["n_paths"] * n_steps
    nash_dir = workdir / "g0"
    check_dir = workdir / "g0_check"
    common = ["--config", str(BENCH_CONFIG), "--seed", str(seed), "--quiet"]

    def solve_game():
        rc = cli.main(["solve-game", "--out", str(nash_dir)] + common)
        if rc != 0:
            return [Check("solve-game", False, f"exit code {rc}")]
        report = json.loads((nash_dir / "report.json").read_text())
        costs = [float(v) for v in report["lambdas"]]
        pass_info.observed[f"g0_m{GAME_M}"] = costs
        return [gate_coupled("solve-game", report["converged"], costs,
                             float(report["comparison_bound"]), expected.get(f"g0_m{GAME_M}"))]

    def verify_nash():
        rc = cli.main(["verify-nash", "--nash", str(nash_dir), "--out", str(check_dir)] + common)
        checks = [Check("verify-nash", rc == 0, "" if rc == 0 else f"exit code {rc}")]
        csv_path = check_dir / "deviations.csv"
        if csv_path.is_file():
            pass_info.digests["deviations.csv"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            with open(csv_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            checks += _deviation_checks("verify-nash", [r["passed"] == "true" for r in rows])
        return checks

    return [Op("solve-game", solve_game), Op("verify-nash", verify_nash, path_steps)]


def _verify_wide(seed: int, workdir: Path, expected: dict, pass_info: Pass) -> List[Op]:
    import ergodic_games as eg

    model = eg.ou_model()
    spec = eg.quadratic_decoupled()
    grid = eg.Grid1D(-6.0, 6.0, GAME_M)
    dev = dict(n_deviations=1, horizon=40.0, step=0.01, n_paths=1000)
    res = dict(player=0, horizon=20.0, n_paths=1000)
    steps = (0.02, 0.01)
    dev_steps = (2 * (1 + dev["n_deviations"]) * dev["n_paths"]
                 * round(dev["horizon"] / dev["step"]))
    res_steps = sum(res["n_paths"] * round(res["horizon"] / h) for h in steps)
    state = {}

    def solve():
        state["nash"] = nash = eg.picard_solve(model, spec, grid, tol=1e-4, inner_tol=1e-6)
        costs = nash_costs(nash)
        pass_info.observed[f"g0_m{GAME_M}"] = costs
        return [gate_coupled("picard_solve", nash.converged, costs, nash.comparison,
                             expected.get(f"g0_m{GAME_M}"))]

    def deviations():
        report = eg.nash_deviation_test(model, spec, state["nash"], seed=seed, **dev)
        return _deviation_checks("nash_deviation_test", [r.passed for r in report.rows])

    def residual():
        coarse, fine = (eg.bsde_path_residual(model, spec, state["nash"], step=h, seed=seed, **res)
                        for h in steps)
        # the residuals are divided by sqrt(step); undo that to compare rms sizes
        ratio = (fine * steps[1] ** 0.5) / (coarse * steps[0] ** 0.5)
        pass_info.observed["residual_ratio"] = [ratio]
        return [gate_ratio("bsde_path_residual", ratio)]

    return [Op("picard_solve", solve), Op("nash_deviation_test", deviations, dev_steps),
            Op("bsde_path_residual", residual, res_steps)]

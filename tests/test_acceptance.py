"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single ``[criterion NN] name: PASS/FAIL`` line before
asserting, so a full run reads as a checklist.  The Monte Carlo criteria run
at their stated full scale; everything is seeded and deterministic.
"""

import json
import time

import numpy as np
import pytest

import ergodic_games as eg
from ergodic_games import cli
from ergodic_games.continuous import solve_continuous_ebsde
from ergodic_games.verify import bsde_path_residual, nash_deviation_test

from conftest import E_BUMP_STANDARD, E_BUMP_SHIFTED, continuous_control

TWO_OVER_E = 0.7357588823428847


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def grid601():
    return eg.Grid1D(-6.0, 6.0, 601)


@pytest.fixture(scope="module")
def grid201():
    return eg.Grid1D(-6.0, 6.0, 201)


@pytest.fixture(scope="module")
def nash201(model, g0, grid201):
    nash = eg.picard_solve(model, g0, grid201, tol=1e-4)
    assert nash.converged
    return nash


@pytest.fixture(scope="module")
def nash401(model, g0):
    grid = eg.Grid1D(-6.0, 6.0, 401)
    nash = eg.picard_solve(model, g0, grid, tol=1e-4)
    assert nash.converged
    return nash


@pytest.fixture(scope="module")
def three_player(model):
    spec = eg.make_game({"name": "three_player_symmetric", "n_controls": 21})
    grid = eg.Grid1D(-6.0, 6.0, 151)
    nash = eg.picard_solve(model, spec, grid, tol=1e-4)
    return spec, grid, nash


def test_criterion_01_stationary_quadrature(model, grid601):
    t0 = time.perf_counter()
    sol = eg.solve_ergodic(model, eg.make_driver({"name": "bump"}), grid601,
                           tol=1e-6)
    elapsed = time.perf_counter() - t0
    err = abs(sol.lam - E_BUMP_STANDARD)
    _report(1, "long-run constant matches stationary quadrature",
            err < 1e-2 and elapsed < 5.0,
            f"err={err:.2e} elapsed={elapsed:.2f}s")


def test_criterion_02_gradient_coupled_driver(model, grid601):
    d = eg.make_driver({"name": "linear_z_plus_bump", "slope": 0.5})
    sol = eg.solve_ergodic(model, d, grid601, tol=1e-6)
    err = abs(sol.lam - E_BUMP_SHIFTED)
    _report(2, "gradient-coupled constant matches shifted quadrature",
            err < 1e-2, f"err={err:.2e}")


def test_criterion_03_constant_driver_exact(model, grid201):
    d = eg.make_driver({"name": "constant", "value": TWO_OVER_E})
    sol = eg.solve_ergodic(model, d, grid201, tol=1e-6)
    ok = abs(sol.lam - TWO_OVER_E) < 1e-6 and np.max(np.abs(sol.v)) < 1e-6
    _report(3, "constant driver solved exactly",
            ok, f"lam_err={abs(sol.lam - TWO_OVER_E):.1e} "
                f"sup_v={np.max(np.abs(sol.v)):.1e}")


def test_criterion_04_additive_shift(model, grid201):
    base = eg.solve_ergodic(model, eg.make_driver({"name": "bump"}), grid201,
                            tol=1e-6)
    worst = 0.0
    for c in (-1.0, 0.37, 5.0):
        d = eg.DriverSpec(lambda x, z, _c=c: eg.bump(x) + _c + 0.0 * z,
                          lipschitz_z=0.0, bound_at_zero=1.0 + abs(c))
        sol = eg.solve_ergodic(model, d, grid201, tol=1e-6)
        worst = max(worst, abs((sol.lam - base.lam) - c))
    _report(4, "driver shift moves the constant by the shift",
            worst < 2e-6, f"worst_err={worst:.2e}")


def test_criterion_05_comparison_bound(model, grid201, g0, nash201,
                                       three_player):
    checks = []
    coupled = eg.make_game({"name": "coupled_cross_cost"})
    coupled_nash = eg.picard_solve(model, coupled, grid201, tol=1e-4)
    spec3, grid3, nash3 = three_player
    for spec, grid, nash in ((g0, grid201, nash201),
                             (coupled, grid201, coupled_nash),
                             (spec3, grid3, nash3)):
        comp = eg.comparison_bound(spec)
        checks.append(comp == spec.cost_sup)
        checks.append(all(lam <= comp + 1e-6 for lam in nash.lambdas))
    _report(5, "every long-run constant sits under the comparison bound",
            all(checks), f"{sum(checks)}/{len(checks)} checks")


def test_criterion_06_two_player_fixed_point(model, g0, grid201, nash201):
    xi = np.column_stack([s.xi for s in nash201.solutions])
    again = eg.picard_solve(model, g0, grid201, tol=1e-4, max_iter=1,
                            xi_init=xi)
    move = max(abs(a - b) for a, b in zip(again.lambdas, nash201.lambdas))
    gap = abs(nash201.lambdas[0] - nash201.lambdas[1])
    ok = (nash201.converged and nash201.iterations <= 50
          and move < 1e-4 and gap < 1e-4)
    _report(6, "two-player fixed point is stable under one more sweep",
            ok, f"iters={nash201.iterations} extra_sweep_move={move:.1e} "
                f"lambda_gap={gap:.1e}")


def test_criterion_07_monte_carlo_deviations(model, g0, nash201):
    t0 = time.perf_counter()
    rep = nash_deviation_test(model, g0, nash201, n_deviations=60,
                              horizon=200.0, step=0.01, n_paths=200, seed=0,
                              grid_error_budget=0.05)
    elapsed = time.perf_counter() - t0
    eq_ok = all(abs(r.margin) <= r.threshold
                for r in rep.rows if r.kind == "equilibrium")
    n_dev = sum(1 for r in rep.rows if r.kind != "equilibrium")
    ok = eq_ok and rep.all_passed and n_dev >= 120 and elapsed < 120.0
    _report(7, "simulated payoffs match constants and resist deviations",
            ok, f"rows={len(rep.rows)} failures={len(rep.failures())} "
                f"elapsed={elapsed:.1f}s")


def test_criterion_08_residual_halves_with_step(model, g0, nash401):
    kw = dict(player=0, horizon=50.0, n_paths=64, seed=0)
    r_coarse = bsde_path_residual(model, g0, nash401, step=0.02, **kw)
    r_fine = bsde_path_residual(model, g0, nash401, step=0.01, **kw)
    rms_ratio = (r_fine * np.sqrt(0.01)) / (r_coarse * np.sqrt(0.02))
    ok = 0.35 < rms_ratio < 0.65
    _report(8, "pathwise backward residual halves with the step",
            ok, f"rms_ratio={rms_ratio:.3f}")


# lambda of the superseded freeze-and-solve loop for sqrt_z_plus_bump(0.5) on
# Grid1D(-6, 6, 401) at tol=1e-6, printed by running commit dfa66a6
FREEZE_LOOP_LAM_SQRT_Z = 0.5886559827830766


def test_criterion_09_continuous_driver(model):
    f, kappa = eg.make_growth_driver({"name": "sqrt_z_plus_bump", "slope": 0.5})
    grid = eg.Grid1D(-6.0, 6.0, 401)
    cont = solve_continuous_ebsde(model, f, kappa, grid, tol=1e-6)
    lam_diff = abs(cont.lam - FREEZE_LOOP_LAM_SQRT_Z)
    residual = eg.hjb_residual(model, f, grid, cont.v, cont.xi, cont.lam)
    try:
        solve_continuous_ebsde(model, lambda x, z: z**2, 1.0, grid)
        rejected = False
    except eg.GrowthViolationError:
        rejected = True
    ok = lam_diff < 2e-6 and residual <= 1e-6 and rejected
    _report(9, "continuous-driver solve agrees with the freeze-and-solve loop",
            ok, f"lam_diff={lam_diff:.2e} residual={residual:.2e} "
                f"superlinear_rejected={rejected}")


def test_criterion_10_vanishing_discount(model, g0, grid201):
    t0 = time.perf_counter()
    sweep = eg.vanishing_discount_sweep(
        model, g0, grid201, alphas=(0.5, 0.2, 0.1, 0.05, 0.02), tol=1e-4)
    elapsed = time.perf_counter() - t0
    assert all(r.status == "ok" for r in sweep.rows)
    errs = [abs(r.alpha_v2_at_ref - r.lambda1) for r in sweep.rows]
    inversions = [(errs[i + 1] - errs[i]) for i in range(len(errs) - 1)
                  if errs[i + 1] > errs[i]]
    ok = (len(inversions) <= 1
          and all(v <= 1e-3 for v in inversions)
          and errs[-1] < 0.05
          and elapsed < 120.0)
    _report(10, "discounted values approach the long-run constant",
            ok, "errs=" + "/".join(f"{e:.1e}" for e in errs)
                + f" elapsed={elapsed:.1f}s")


def test_criterion_11_cost_shift_localizes(model, g0, grid201, nash201):
    base_cost = g0.costs[0]
    shifted = eg.GameSpec(
        grids=g0.grids, drift_map=g0.drift_map,
        costs=(lambda x, u, v, _b=base_cost: _b(x, u, v) + 1.0,) + g0.costs[1:],
        cost_sup=g0.cost_sup + 1.0, cost_x_lip=g0.cost_x_lip,
    )
    nash = eg.picard_solve(model, shifted, grid201, tol=1e-4)
    d1 = abs((nash.lambdas[0] - nash201.lambdas[0]) - 1.0)
    d2 = abs(nash.lambdas[1] - nash201.lambdas[1])
    same_policy = np.array_equal(nash.policy.indices, nash201.policy.indices)
    ok = nash.converged and d1 < 2e-4 and d2 < 2e-4 and same_policy
    _report(11, "player-one cost shift moves only player one's constant",
            ok, f"d1={d1:.1e} d2={d2:.1e} same_policy={same_policy}")


def test_criterion_12_three_player(model, three_player):
    spec, grid, nash = three_player
    comp = eg.comparison_bound(spec)
    rep = nash_deviation_test(model, spec, nash, n_deviations=12,
                              horizon=60.0, step=0.01, n_paths=64, seed=0,
                              grid_error_budget=0.05)
    ok = (nash.converged and nash.iterations <= 50
          and comp == spec.cost_sup
          and all(lam <= comp + 1e-6 for lam in nash.lambdas)
          and rep.all_passed)
    _report(12, "three-player game converges and verifies",
            ok, f"iters={nash.iterations} lambdas="
                + "/".join(f"{v:.4f}" for v in nash.lambdas)
                + f" failures={len(rep.failures())}")


def test_criterion_13_byte_identical_reports(model, tmp_path):
    import yaml

    cfg = {
        "seed": 0,
        "model": {},
        "grid": {"x_min": -6.0, "x_max": 6.0, "m": 81},
        "game": {"name": "quadratic_decoupled", "n_controls": 41},
        "solver": {"tol": 1.0e-4},
        "mc": {"horizon": 60.0, "step": 0.02, "n_paths": 40,
               "n_deviations": 6, "grid_error_budget": 0.05},
    }
    cfg_path = tmp_path / "game.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))

    artifacts = {}
    for tag in ("a", "b"):
        nash_dir = tmp_path / f"nash_{tag}"
        verify_dir = tmp_path / f"verify_{tag}"
        assert cli.main(["solve-game", "--config", str(cfg_path),
                         "--out", str(nash_dir), "--quiet"]) == 0
        assert cli.main(["verify-nash", "--config", str(cfg_path),
                         "--out", str(verify_dir), "--nash", str(nash_dir),
                         "--quiet"]) == 0
        artifacts[tag] = {
            "nash.csv": (nash_dir / "nash.csv").read_bytes(),
            "nash_report": (nash_dir / "report.json").read_bytes(),
            "deviations.csv": (verify_dir / "deviations.csv").read_bytes(),
            "verify_report": (verify_dir / "report.json").read_bytes(),
        }
    same = {k: artifacts["a"][k] == artifacts["b"][k] for k in artifacts["a"]}
    verdict = json.loads(artifacts["a"]["verify_report"].decode())["all_passed"]
    _report(13, "same seed gives byte-identical reports",
            all(same.values()) and verdict,
            " ".join(f"{k}={v}" for k, v in same.items()))


def test_criterion_14_control_grid_error(model, grid201, nash201):
    oracle = eg.solve_ergodic(model, continuous_control, grid201, tol=1e-11).lam
    ratios = {}
    for n in (41, 81, 161, 321, 641):
        # n=161 cycles without a fixed point; its last iterate is scored all the same
        nash = nash201 if n == 41 else eg.picard_solve(model, eg.quadratic_decoupled(n),
                                                         grid201, tol=1e-4)
        ratios[n] = max(abs(lam - oracle) for lam in nash.lambdas) / (2.0 / (n - 1))
    ok = abs(oracle - 0.30754958) < 1e-8 and all(r <= 0.02 for r in ratios.values())
    _report(14, "control-grid error of the constants is within 0.02 du of the oracle",
            ok, f"oracle={oracle:.8f} error/du="
                + " ".join(f"n{n}:{r:.1e}" for n, r in ratios.items()))

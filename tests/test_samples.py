"""The bound rule and the fixed states of every declared-constant check, and the modules
that importing the package or a run which only solves loads."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ergodic_games as eg
from ergodic_games import games, verify
from ergodic_games._samples import CHECK_SAMPLES, _CHECK_SLACK, check_states, first_over
from ergodic_games.ebsde import checked_driver, frozen_driver, hjb_residual
from ergodic_games.games import _frozen_drivers

SRC = Path(__file__).resolve().parents[1] / "src"


def test_check_states_are_fixed_finite_and_read_only():
    for axis in range(3):
        states = check_states(10_000, axis)
        assert np.array_equal(states, check_states(10_000, axis))
        assert np.isfinite(states).all()
        assert not states.flags.writeable
        with pytest.raises(ValueError):
            states[0] = 0.0
        assert abs(states.std() - 3.0) <= 0.03
        # fewer states are a prefix of more, and every call reads one array per axis
        assert np.array_equal(check_states(64, axis), states[:64])
        assert np.shares_memory(check_states(64, axis), states)
    with pytest.raises(ValueError, match="10000 check states per axis, not 10001"):
        check_states(CHECK_SAMPLES + 1, 0)


def test_axes_give_different_states_that_fill_the_plane():
    axes = [check_states(64, axis) for axis in range(3)]
    for a in range(3):
        for b in range(a + 1, 3):
            x, y = axes[a], axes[b]
            assert not np.any(x == y)
            # pairs reach every quadrant away from the axes, as independent
            # draws would, so a check of f(x, z) is not confined to a curve
            for sx in (1.0, -1.0):
                for sy in (1.0, -1.0):
                    assert np.any((sx * x > 2.0) & (sy * y > 2.0)), (a, b, sx, sy)


def test_first_over_finds_the_first_entry_past_the_bound():
    assert first_over([1.0, 2.0 * (1.0 + _CHECK_SLACK)], [1.0, 2.0]) is None
    assert first_over(np.array([0.5, 3.0, np.nan, 9.0]), 1.0) == 1
    assert first_over(np.array([0.5, np.nan, 9.0]), 1.0) == 1
    # a bound per entry broadcasts against one value for all
    assert first_over(np.array([1.5]), np.array([2.0, 1.0, 0.5])) == 1
    assert first_over(0.1, 0.0) == 0 and first_over(1e-13, 0.0) is None


# The one rule at every check of a declared bound: a value at bound * (1 + slack/2)
# passes, one at bound * (1 + 2 slack) + 1e-11 fails, and so does NaN.  Sample FIRST
# is the first over the bound, and the error names it, not sample WORST, which is
# further over.
FIRST, WORST = 3, 5


def _values(bound, case):
    values = bound * (1.0 + _CHECK_SLACK / 2)
    if case != "pass":
        over = bound[FIRST] * (1.0 + 2 * _CHECK_SLACK) + 1e-11
        values[FIRST] = np.nan if case == "nan" else over
        values[WORST] = 2.0 * bound[WORST] + 1.0
    return values


def _on(states, values):
    """``f(x)``, elementwise on any shape: ``values[k]`` where ``x == states[k]``, else 0."""
    order = np.argsort(states)
    ordered, by_order = states[order], values[order]

    def f(x):
        pos = np.minimum(np.searchsorted(ordered, x), len(ordered) - 1)
        return np.where(ordered[pos] == x, by_order[pos], 0.0)
    return f


# the states of axes 0, 1 and 2: the checks pair x with y, or x with gradients z and z'
XS, YS, ZS = (check_states(CHECK_SAMPLES, axis) for axis in range(3))
GX, GY = XS[:games._CHECK_SAMPLES], YS[:games._CHECK_SAMPLES]
ONES, NODES = np.ones(CHECK_SAMPLES), np.ones(81)


def _model(drift, sup, lip):
    return eg.SdeModel(lin_drift=-1.0, bounded_drift=drift, bounded_drift_sup=sup,
                       bounded_drift_lip=lip, sigma=1.0, x0=0.0)


def _game(cost, cost_sup, cost_x_lip):
    return eg.GameSpec(grids=[eg.ControlGrid.uniform(-1.0, 1.0, 3)], drift_map=lambda u: u,
                       costs=[lambda x, u: cost(x) + 0.0 * u], cost_sup=cost_sup,
                       cost_x_lip=cost_x_lip)


def _sampled(bound, build, message):
    """A site checked at each sample: ``build(values)`` makes it see ``values``."""
    return lambda case: build(_values(bound, case)), message


def _equilibrium_residual(case):
    # player 0's saved constant is 1e-3 off, and its recorded residual is set against
    # the one the check recomputes
    model, spec = eg.ou_model(), eg.quadratic_decoupled(n_controls=11)
    nash = eg.picard_solve(model, spec, eg.Grid1D(-6.0, 6.0, 41), tol=1e-4)
    sol = dataclasses.replace(nash.solutions[0], lam=nash.solutions[0].lam + 1e-3)
    driver = _frozen_drivers(spec, nash.policy.nodes, nash.policy.indices)[0]
    res = hjb_residual(model, driver, sol.grid, sol.v, sol.xi, sol.lam)
    if case == "nan":
        v = sol.v.copy()
        v[sol.grid.x_ref_index] = np.nan
        sol = dataclasses.replace(sol, v=v, residual_sup=res)
    else:
        bound = res / (1.0 + _CHECK_SLACK / 2) if case == "pass" else (
            (res - 1e-11) / (1.0 + 2 * _CHECK_SLACK))
        sol = dataclasses.replace(sol, residual_sup=bound)
    verify._check_same_game(model, spec, dataclasses.replace(
        nash, solutions=(sol,) + nash.solutions[1:]))


BOUND_SITES = {
    "drift_sup": _sampled(
        ONES, lambda v: _model(_on(XS, v), 1.0, 1e9),
        f"exceeds bounded_drift_sup=1 at sampled x={float(XS[FIRST])!r}"),
    "drift_lipschitz": _sampled(
        np.abs(XS - YS), lambda v: _model(_on(YS, v), 1e6, 1.0),
        f"violated at sampled pair x={float(XS[FIRST])!r}, y={float(YS[FIRST])!r}"),
    "driver_lipschitz": _sampled(
        np.abs(YS - ZS), lambda v: checked_driver(lambda x, z: _on(YS, v)(z), 1.0, 1.0),
        f"violated at sampled x={XS[FIRST]:.6g}, z={YS[FIRST]:.6g}, z'={ZS[FIRST]:.6g}"),
    "driver_bound_at_zero": _sampled(
        ONES, lambda v: checked_driver(lambda x, z: np.where(z == 0.0, _on(XS, v)(x), 0.0),
                                       1.0, 1.0),
        f"exceeds bound_at_zero=1 at sampled x={XS[FIRST]:.6g}"),
    "frozen_slope": _sampled(
        2.0 * NODES, lambda v: frozen_driver(v, 0.0 * NODES, 2.0, 1.0),
        f"exceeds 2 at node {FIRST}"),
    "frozen_offset": _sampled(
        NODES, lambda v: frozen_driver(0.0 * NODES, v, 2.0, 1.0), f"exceeds 1 at node {FIRST}"),
    "cost_sup": _sampled(
        np.ones(len(GX)), lambda v: _game(_on(GX, v), 1.0, 1e9),
        f"exceeds cost_sup=1 at sampled x={GX[FIRST]:.6g}"),
    "cost_lipschitz": _sampled(
        np.abs(GX - GY), lambda v: _game(_on(GY, v), 1e6, 1.0),
        f"between sampled states x={GX[FIRST]:.6g}, y={GY[FIRST]:.6g}"),
    "growth": _sampled(
        1.0 + np.abs(YS), lambda v: eg.solve_continuous_ebsde(
            eg.ou_model(), lambda x, z: _on(XS, v)(x) + 0.0 * z, 1.0, eg.Grid1D(-6.0, 6.0, 41)),
        f"at x={XS[FIRST]:.6g}, z={YS[FIRST]:.6g}"),
    "equilibrium_residual": (_equilibrium_residual, "does not solve player 0's equation under"),
}


@pytest.mark.parametrize("case", ["pass", "over", "nan"])
@pytest.mark.parametrize("site", list(BOUND_SITES))
def test_every_declared_bound_is_checked_by_one_rule(site, case):
    run, message = BOUND_SITES[site]
    if case == "pass":
        run(case)
    else:
        with pytest.raises(ValueError, match=re.escape(message)):
            run(case)


_SOLVE_ONLY = """
import json
import sys

import ergodic_games as eg

model = eg.ou_model()
games = [eg.make_game({"name": name}) for name in eg.GAME_BUILDERS]
drivers = [eg.make_driver(cfg) for cfg in (
    {"name": "constant"}, {"name": "bump"}, {"name": "linear_z_plus_bump"},
    {"name": "tanh_z_plus_bump"}, {"name": "dominating", "lipschitz": 2.0, "offset": 1.0})]
growth = [eg.make_growth_driver({"name": name})
          for name in ("tanh_z_plus_bump", "sqrt_z_plus_bump")]
grid = eg.Grid1D(-6.0, 6.0, 41)
g0 = eg.quadratic_decoupled(n_controls=11)
eg.picard_solve(model, g0, grid, tol=1e-4)
eg.asymmetric_solve(model, g0, grid, 0.2, tol=1e-4)
eg.solve_ergodic(model, drivers[2], grid, tol=1e-6)
eg.solve_discounted(model, drivers[3], grid, 0.1, tol=1e-6)
for f, kappa in growth:
    eg.solve_continuous_ebsde(model, f, kappa, grid, tol=1e-6)
loaded = {name: name in sys.modules for name in ("numpy.random", "numpy.ma")}
eg.sample_paths(model, None, 1.0, 0.1, 0, 2)
loaded["numpy.random after sample_paths"] = "numpy.random" in sys.modules
print(json.dumps(loaded))
"""


def test_solve_only_run_loads_neither_numpy_random_nor_numpy_ma():
    # a fresh interpreter: the test session itself has loaded both long ago
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _SOLVE_ONLY], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert loaded == {"numpy.random": False, "numpy.ma": False,
                      "numpy.random after sample_paths": True}


def test_import_loads_no_process_pool():
    # the pool's modules load only when a run is big enough to split over
    # workers; every command pays their import otherwise (set-up time)
    code = ("import sys\nimport ergodic_games, ergodic_games.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures'))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120).stdout
    assert out.splitlines()[-1] == "[]"

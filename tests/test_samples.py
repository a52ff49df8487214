"""Fixed check states, and the modules that importing the package or a run which only
solves loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ergodic_games._samples import check_states

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
        # fewer states are a prefix of more
        assert np.array_equal(check_states(64, axis), states[:64])


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

"""Linear-growth drivers: growth check, then Newton on the driver itself."""

import numpy as np
import pytest

import ergodic_games as eg
from ergodic_games.continuous import solve_continuous_ebsde

SQRT_DRIVER = eg.make_growth_driver({"name": "sqrt_z_plus_bump", "slope": 0.5})
TANH_DRIVER = eg.make_growth_driver({"name": "tanh_z_plus_bump", "scale": 0.7})


def test_superlinear_driver_rejected(model, coarse_grid):
    with pytest.raises(eg.GrowthViolationError):
        solve_continuous_ebsde(model, lambda x, z: z**2, 1.0, coarse_grid)


def test_nonpositive_kappa_rejected(model, coarse_grid):
    with pytest.raises(ValueError, match="kappa"):
        solve_continuous_ebsde(model, lambda x, z: 0.0 * x * z, 0.0, coarse_grid)


def test_non_finite_kappa_and_values_rejected(model, coarse_grid):
    for kappa in (np.nan, np.inf):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            solve_continuous_ebsde(model, lambda x, z: 0.0 * x * z, kappa, coarse_grid)
    # x > nan is False: a NaN value must fail the growth check, not pass it
    with pytest.raises(eg.GrowthViolationError, match="=nan"):
        solve_continuous_ebsde(model, lambda x, z: np.where(z > 6.0, np.nan, 0.0 * x), 1.0,
                               coarse_grid)


def test_final_residual_is_against_original_driver(model):
    for f, kappa in (SQRT_DRIVER, TANH_DRIVER):
        for m in (81, 201, 401):
            grid = eg.Grid1D(-6.0, 6.0, m)
            sol = solve_continuous_ebsde(model, f, kappa, grid, tol=1e-6)
            res = eg.hjb_residual(model, f, grid, sol.v, sol.xi, sol.lam)
            assert res == pytest.approx(sol.residual_sup, rel=1e-9)
            assert res <= 1e-6, (kappa, m)


# ratios of successive lambda differences over m = 101, 201, 401, 801, 1601: 4 is
# second order in dx (tanh); sqrt(|z|) is not Lipschitz at z = 0 and converges at
# order about 1.55 (ratios 2.97, 2.94, 2.92)
@pytest.mark.parametrize("driver, band", [
    (TANH_DRIVER, (3.9, 4.1)),
    (SQRT_DRIVER, (2.8, 3.1)),
], ids=["tanh", "sqrt"])
def test_lambda_convergence_order_in_dx(model, driver, band):
    f, kappa = driver
    lam = [solve_continuous_ebsde(model, f, kappa, eg.Grid1D(-6.0, 6.0, m), tol=1e-9).lam
           for m in (101, 201, 401, 801, 1601)]
    diffs = np.diff(lam)
    ratios = diffs[:-1] / diffs[1:]
    assert np.all((band[0] < ratios) & (ratios < band[1])), ratios


def test_iteration_cap_raises_with_history(model, coarse_grid):
    # Newton on sqrt(|z|) stalls near 1e-9 and runs into its cap of 50 iterations
    f, kappa = SQRT_DRIVER
    with pytest.raises(eg.MaxSweepsExceededError) as exc:
        solve_continuous_ebsde(model, f, kappa, coarse_grid, tol=1e-10)
    history = exc.value.residual_history
    assert len(history) == exc.value.sweeps == 50
    assert history[-1] == exc.value.sup_residual > 1e-10
    assert min(history) < 1e-6


def test_sqrt_driver_solve_is_pinned(model, coarse_grid):
    f, kappa = SQRT_DRIVER
    sol = solve_continuous_ebsde(model, f, kappa, coarse_grid)
    assert sol.lam == 0.5865352333952515
    assert sol.iterations == 4
    assert sol.residual_sup == 2.147374407179825e-07

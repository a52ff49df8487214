"""Linear-growth drivers: gradient-slope split and linearized solves."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ergodic_games as eg
from ergodic_games.continuous import decompose, solve_continuous_ebsde

SQRT_DRIVER = eg.make_growth_driver({"name": "sqrt_z_plus_bump", "slope": 0.5})
TANH_DRIVER = eg.make_growth_driver({"name": "tanh_z_plus_bump", "scale": 0.7})
# split once: the split is a pure function of (f, kappa)
SQRT_SPLIT = decompose(*SQRT_DRIVER)
TANH_SPLIT = decompose(*TANH_DRIVER)

finite = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(x=finite, z=finite)
def test_split_reconstructs_driver_bitwise(x, z):
    f, kappa = SQRT_DRIVER
    d = SQRT_SPLIT
    assert d.reconstruct(x, z) == f(np.float64(x), np.float64(z))


@settings(max_examples=200, deadline=None)
@given(x=finite, z=finite)
def test_split_components_bounded(x, z):
    kappa = TANH_DRIVER[1]
    d = TANH_SPLIT
    assert abs(d.phi(x, z)) <= 2.0 * kappa
    assert abs(d.psi(x, z)) <= 2.0 * kappa


def test_split_gate_semantics():
    f = SQRT_DRIVER[0]
    d = SQRT_SPLIT
    # below the gate the slope is switched off and the offset carries f
    z_small = np.array([0.0, 0.4, -0.9])
    x = np.zeros(3)
    np.testing.assert_array_equal(d.phi(x, z_small), np.zeros(3))
    np.testing.assert_array_equal(d.psi(x, z_small), f(x, z_small))
    # above the gate the slope carries f / z and the offset nearly vanishes
    z_big = np.array([1.0, 3.7, -12.0])
    np.testing.assert_allclose(d.phi(x, z_big), f(x, z_big) / z_big, rtol=1e-15)
    assert np.max(np.abs(d.psi(x, z_big))) < 1e-12


def test_superlinear_driver_rejected():
    with pytest.raises(eg.GrowthViolationError):
        decompose(lambda x, z: z**2, kappa=1.0)


def test_nonpositive_kappa_rejected():
    with pytest.raises(ValueError, match="kappa"):
        decompose(lambda x, z: 0.0 * x * z, kappa=0.0)


def test_non_finite_kappa_and_values_rejected():
    for kappa in (np.nan, np.inf):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            decompose(lambda x, z: 0.0 * x * z, kappa=kappa)
    # x > nan is False: a NaN value must fail the growth check, not pass it
    with pytest.raises(eg.GrowthViolationError, match="=nan"):
        decompose(lambda x, z: np.where(z > 6.0, np.nan, 0.0 * x), kappa=1.0)


def test_matches_direct_solve(model, mid_grid):
    f, kappa = SQRT_DRIVER
    cont = solve_continuous_ebsde(model, f, kappa, mid_grid, tol=1e-5)
    spec = eg.DriverSpec(f, lipschitz_z=kappa, bound_at_zero=kappa)
    direct = eg.solve_ergodic(model, spec, mid_grid, tol=1e-5)
    assert abs(cont.lam - direct.lam) < 2e-5
    assert np.max(np.abs(cont.v - direct.v)) < 1e-3


def test_warm_start_reproducible(model, coarse_grid):
    f, kappa = TANH_DRIVER
    a = solve_continuous_ebsde(model, f, kappa, coarse_grid, tol=1e-6)
    b = solve_continuous_ebsde(model, f, kappa, coarse_grid, tol=1e-6,
                               xi_init=np.ones(coarse_grid.m))
    assert abs(a.lam - b.lam) < 1e-6


def test_iteration_cap_raises_with_history(model, coarse_grid):
    f, kappa = SQRT_DRIVER
    with pytest.raises(eg.LinearizationDidNotConvergeError) as exc:
        solve_continuous_ebsde(model, f, kappa, coarse_grid, tol=1e-12,
                               max_iter=1)
    assert exc.value.max_iter == 1
    assert len(exc.value.deltas_history) == 1


def test_residual_ceiling_enforced(model, coarse_grid):
    f, kappa = SQRT_DRIVER
    with pytest.raises(eg.ResidualCeilingError):
        solve_continuous_ebsde(model, f, kappa, coarse_grid, tol=1e-4,
                               residual_ceiling=1e-15)


def test_final_residual_is_against_original_driver(model, coarse_grid):
    f, kappa = SQRT_DRIVER
    sol = solve_continuous_ebsde(model, f, kappa, coarse_grid, tol=1e-6)
    spec_res = eg.hjb_residual(model, f, coarse_grid, sol.v, sol.xi, sol.lam)
    assert spec_res == pytest.approx(sol.residual_sup, rel=1e-9)

"""Grid solver: exactness oracles, convergence order, guards."""

import numpy as np
import pytest

import ergodic_games as eg
from ergodic_games.ebsde import (DriverSpec, _bordered_solve, frozen_driver, hjb_residual,
                                 nearest_node, node_lookup)

from conftest import E_BUMP_STANDARD, E_BUMP_SHIFTED

TWO_OVER_E = 0.7357588823428847  # 2/e, an arbitrary non-round constant


def test_grid_validation():
    with pytest.raises(ValueError, match="bracket"):
        eg.Grid1D(1.0, 2.0, 11)
    with pytest.raises(ValueError, match="at least 7"):
        eg.Grid1D(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="interior"):
        eg.Grid1D(-1.0, 1.0, 9, interior_margin=4)
    with pytest.raises(ValueError, match="reference"):
        eg.Grid1D(-1.0, 1.0, 21, x_ref_index=1)


def test_grid_reference_defaults_to_origin():
    g = eg.Grid1D(-2.0, 6.0, 81)
    assert g.nodes()[g.x_ref_index] == pytest.approx(0.0, abs=g.dx / 2)
    np.testing.assert_array_equal(g.nearest_index([-99.0, 99.0]), [0, 80])


def test_driver_spec_checks():
    with pytest.raises(ValueError, match="Lipschitz"):
        DriverSpec(lambda x, z: 2.0 * z, lipschitz_z=1.0, bound_at_zero=0.0)
    with pytest.raises(ValueError, match="bound_at_zero"):
        DriverSpec(lambda x, z: 0.0 * z + 5.0, lipschitz_z=0.0, bound_at_zero=1.0)


def test_driver_spec_rejects_non_finite_constants_and_values():
    # each would pass the sampled comparisons vacuously (x > nan is False)
    for lip, b0 in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0)):
        with pytest.raises(ValueError, match="lipschitz_z=.* must be finite"):
            DriverSpec(lambda x, z: 0.5 * z, lipschitz_z=lip, bound_at_zero=b0)
    # NaN away from z = 0 breaks the Lipschitz check, NaN at z = 0 the bound
    with pytest.raises(ValueError, match="Lipschitz"):
        DriverSpec(lambda x, z: np.where(z > 5.0, np.nan, 0.5 * z), lipschitz_z=1.0,
                   bound_at_zero=1.0)
    with pytest.raises(ValueError, match=r"\|f\(x, 0\)\|=nan"):
        DriverSpec(lambda x, z: np.where((z == 0.0) & (x > 5.0), np.nan, 0.5 * z),
                   lipschitz_z=1.0, bound_at_zero=1.0)


def test_nearest_node_clamps_states_beyond_the_index_range():
    # states past the intp range, infinities and NaN: above the grid is the
    # top node (NaN included), below it node 0, with or without buffers
    xs = np.array([1e300, 1e19, -1e19, np.inf, -np.inf, -1e300, np.nan])
    lookup = node_lookup(np.linspace(-6.0, 6.0, 81))
    expected = [80, 80, 0, 80, 0, 0, 80]
    np.testing.assert_array_equal(nearest_node(xs, lookup), expected)
    buffers = (np.empty(len(xs)), np.empty(len(xs), dtype=np.intp))
    out = nearest_node(xs, lookup, out=buffers)
    assert out is buffers[1]
    np.testing.assert_array_equal(out, expected)
    for x, k in zip(xs, expected):
        assert nearest_node(x, lookup) == k


def test_constant_driver_is_exact(model, coarse_grid):
    d = eg.make_driver({"name": "constant", "value": TWO_OVER_E})
    sol = eg.solve_ergodic(model, d, coarse_grid, tol=1e-6)
    assert sol.lam == TWO_OVER_E
    assert np.max(np.abs(sol.v)) == 0.0
    assert np.max(np.abs(sol.xi)) == 0.0
    assert sol.iterations == 1


def test_bump_oracle_mid_grid(bump_solution_mid):
    assert abs(bump_solution_mid.lam - E_BUMP_STANDARD) < 2e-3


def test_linear_z_driver_oracle(model, mid_grid):
    d = eg.make_driver({"name": "linear_z_plus_bump", "slope": 0.5})
    sol = eg.solve_ergodic(model, d, mid_grid, tol=1e-8)
    assert abs(sol.lam - E_BUMP_SHIFTED) < 2e-3


def test_driver_shift_moves_lambda_by_constant(model, coarse_grid):
    base = eg.solve_ergodic(model, eg.make_driver({"name": "bump"}),
                            coarse_grid, tol=1e-6)
    for c in (-1.0, 0.37, 5.0):
        d = DriverSpec(lambda x, z, _c=c: eg.bump(x) + _c + 0.0 * z,
                       lipschitz_z=0.0, bound_at_zero=1.0 + abs(c))
        shifted = eg.solve_ergodic(model, d, coarse_grid, tol=1e-6)
        assert abs((shifted.lam - base.lam) - c) < 2e-6


def test_quadratic_relative_value_oracle(model, mid_grid):
    # f(x, z) = 2 x^2 solves the discrete interior equations with v = x^2,
    # lam = 2 (central differences are exact on quadratics); boundary layers
    # stay outside |x| <= 3
    d = DriverSpec(lambda x, z: 2.0 * np.square(x) + 0.0 * z,
                   lipschitz_z=0.0, bound_at_zero=1000.0)
    sol = eg.solve_ergodic(model, d, mid_grid, tol=1e-8)
    nodes = mid_grid.nodes()
    inner = np.abs(nodes) <= 3.0
    assert abs(sol.lam - 2.0) < 1e-3
    assert np.max(np.abs(sol.v[inner] - nodes[inner] ** 2)) < 1e-3
    assert np.max(np.abs(sol.xi[inner] - 2.0 * np.sqrt(2.0) * nodes[inner])) < 1e-3


def test_second_order_grid_convergence(model):
    errs = []
    for m in (75, 149, 297):
        g = eg.Grid1D(-6.0, 6.0, m)
        s = eg.solve_ergodic(model, eg.make_driver({"name": "bump"}), g, tol=1e-8)
        errs.append(abs(s.lam - E_BUMP_STANDARD))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_cfl_guard(model, coarse_grid):
    # m=13 on [-6, 6]: dx=1, so |drift| dx = |x| reaches sigma^2 = 2 for
    # |x| >= 2 and the central scheme is no M-matrix there.  With a one-node
    # margin those rows lie in the retained interior and the solve refuses.
    with pytest.raises(eg.NonMonotoneSchemeError, match="not monotone at x=-5"):
        eg.solve_ergodic(model, eg.make_driver({"name": "bump"}),
                         eg.Grid1D(-6.0, 6.0, 13, interior_margin=1))
    # With the default five-node margin they are all margin rows: the central
    # equation is solved as it is, and lambda is the one the superseded
    # relative value iteration gave there (commit 7a0c325, tol=1e-8).
    sol = eg.solve_ergodic(model, eg.make_driver({"name": "bump"}), eg.Grid1D(-6.0, 6.0, 13))
    assert abs(sol.lam - 0.349999990115781) < 1e-6
    sol = eg.solve_ergodic(model, eg.make_driver({"name": "bump"}), coarse_grid, tol=1e-5)
    assert sol.residual_sup <= 1e-5


def test_zero_pivot_on_a_margin_row_raises_non_monotone():
    # unit noise and dx = 1 give sigma^2 / dx = 1; the frozen slope cancels the
    # drift -x except at x=-5, where drift + slope = 5 - 6 = -1 exactly: the
    # row no longer sees its right neighbour and the two end nodes form a
    # singular block
    model = eg.ou_model(noise=1.0)
    grid = eg.Grid1D(-6.0, 6.0, 13)
    slope = grid.nodes()
    slope[1] = -6.0
    offset = np.zeros(grid.m)
    offset[grid.x_ref_index] = 1.0
    driver = frozen_driver(grid, slope, offset, lipschitz_z=6.0, bound_at_zero=1.0)
    with pytest.raises(eg.NonMonotoneSchemeError, match="zero pivot"):
        eg.solve_ergodic(model, driver, grid)


def test_max_sweeps_carries_diagnostics(model, coarse_grid):
    with pytest.raises(eg.MaxSweepsExceededError) as exc:
        eg.solve_ergodic(model, eg.make_driver({"name": "bump"}), coarse_grid,
                         tol=1e-300)
    err = exc.value
    assert err.v.shape == (coarse_grid.m,)
    assert np.isfinite(err.sup_residual)
    assert len(err.residual_history) == err.sweeps > 1
    assert err.residual_history[-1] == err.sup_residual
    # one Newton step takes the affine driver to rounding level
    assert err.residual_history[0] > 0.1 > 1e-10 > max(err.residual_history[1:])


def test_recomputed_residual_matches_report(model, bump_solution_mid, mid_grid):
    d = eg.make_driver({"name": "bump"})
    sol = bump_solution_mid
    r = hjb_residual(model, d, mid_grid, sol.v, sol.xi, sol.lam)
    assert r == pytest.approx(sol.residual_sup, rel=1e-9)
    # bare callable gives the same number as the wrapped driver
    r2 = hjb_residual(model, d.f, mid_grid, sol.v, sol.xi, sol.lam)
    assert r2 == r
    assert sol.residual_sup <= 1e-8


def test_solves_are_deterministic(model, coarse_grid):
    d = eg.make_driver({"name": "tanh_z_plus_bump", "scale": 0.5})
    a = eg.solve_ergodic(model, d, coarse_grid, tol=1e-6)
    b = eg.solve_ergodic(model, d, coarse_grid, tol=1e-6)
    assert a.lam == b.lam
    assert np.array_equal(a.v, b.v)


def test_warm_start_reaches_same_constant(model, coarse_grid):
    d = eg.make_driver({"name": "linear_z_plus_bump", "slope": 0.5})
    cold = eg.solve_ergodic(model, d, coarse_grid, tol=1e-7)
    warm = eg.solve_ergodic(model, d, coarse_grid, tol=1e-7,
                            v_init=cold.v + 3.0)  # constant offset is normalized away
    assert abs(warm.lam - cold.lam) < 1e-6
    assert warm.iterations < cold.iterations


def test_solution_csv_roundtrip(bump_solution_mid, tmp_path):
    out = tmp_path / "sol.csv"
    bump_solution_mid.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,v,xi"
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], bump_solution_mid.v)


def test_report_dict_contents(bump_solution_mid, mid_grid):
    rep = bump_solution_mid.report_dict()
    assert rep["lambda"] == bump_solution_mid.lam
    assert rep["grid"]["m"] == mid_grid.m
    assert rep["growth_constant"] >= 0.0


def test_normalization_pins_reference_node(bump_solution_mid, mid_grid):
    assert bump_solution_mid.v[mid_grid.x_ref_index] == 0.0


def test_discounted_constant_driver_exact(model, coarse_grid):
    d = eg.make_driver({"name": "constant", "value": TWO_OVER_E})
    for alpha in (0.5, 0.05):
        sol = eg.solve_discounted(model, d, coarse_grid, alpha=alpha, tol=1e-6)
        assert np.max(np.abs(sol.v - TWO_OVER_E / alpha)) == 0.0
        assert sol.iterations == 1
        assert sol.value_at(0.33) == pytest.approx(TWO_OVER_E / alpha)


def test_discounted_value_bounded_by_driver_sup(model, coarse_grid):
    d = eg.make_driver({"name": "bump"})
    sol = eg.solve_discounted(model, d, coarse_grid, alpha=0.2, tol=1e-7)
    # |alpha * v| <= sup |f| for a z-independent driver
    assert sol.alpha * sol.sup_v <= 1.0 + 1e-6
    assert sol.report_dict()["alpha_times_sup_v"] == sol.alpha * sol.sup_v


def test_discounted_approaches_ergodic_constant(model, mid_grid):
    d = eg.make_driver({"name": "bump"})
    erg = eg.solve_ergodic(model, d, mid_grid, tol=1e-8)
    prev_err = None
    for alpha in (0.5, 0.1, 0.02):
        sol = eg.solve_discounted(model, d, mid_grid, alpha=alpha, tol=1e-8)
        err = abs(alpha * sol.value_at(0.0) - erg.lam)
        if prev_err is not None:
            assert err < prev_err
        prev_err = err
    assert prev_err < 0.02


# Long-run constants of the superseded explicit relative value iteration on
# Grid1D(-6, 6, 81), printed by running commit 7a0c325 (solve_ergodic and
# solve_discounted at tol=1e-9, solve_continuous_ebsde at tol=1e-8); the
# discounted entry is alpha * v(x_ref) at alpha = 0.1.
RVI_PARITY = {
    "constant": (TWO_OVER_E, TWO_OVER_E),
    "bump": (0.3445817603399225, 0.3341152058287322),
    "linear_z_plus_bump": (0.41675070768139827, 0.39746241046871983),
    "tanh_z_plus_bump": (0.41098843768711946, 0.3930330947721372),
    "dominating": (2.0, 2.0),
}
RVI_PARITY_SQRT_Z = 0.5865352724570712
PARITY_DRIVERS = {
    "constant": {"name": "constant", "value": TWO_OVER_E},
    "bump": {"name": "bump"},
    "linear_z_plus_bump": {"name": "linear_z_plus_bump", "slope": 0.5},
    "tanh_z_plus_bump": {"name": "tanh_z_plus_bump", "scale": 0.5},
    "dominating": {"name": "dominating", "lipschitz": 2.0, "offset": 2.0},
}


@pytest.mark.parametrize("name", sorted(PARITY_DRIVERS))
def test_direct_solve_matches_relative_value_iteration(model, coarse_grid, name):
    erg_ref, disc_ref = RVI_PARITY[name]
    d = eg.make_driver(PARITY_DRIVERS[name])
    erg = eg.solve_ergodic(model, d, coarse_grid, tol=1e-9)
    disc = eg.solve_discounted(model, d, coarse_grid, alpha=0.1, tol=1e-9)
    assert abs(erg.lam - erg_ref) < 1e-6
    assert abs(0.1 * disc.v[coarse_grid.x_ref_index] - disc_ref) < 1e-6


def test_continuous_solve_matches_relative_value_iteration(model, coarse_grid):
    f, kappa = eg.make_growth_driver({"name": "sqrt_z_plus_bump", "slope": 0.5})
    sol = eg.solve_continuous_ebsde(model, f, kappa, coarse_grid, tol=1e-8)
    assert abs(sol.lam - RVI_PARITY_SQRT_Z) < 1e-6


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_bordered_thomas_step_matches_dense_solve(alpha):
    rng = np.random.default_rng(7)
    m = 12
    for iref in (0, 1, 5, m - 2, m - 1):
        lower = rng.uniform(0.1, 2.0, m)
        upper = rng.uniform(0.1, 2.0, m)
        rhs = rng.normal(size=m)
        # weakly dominant negative diagonal: the negated matrix is an M-matrix
        diag = -(lower + upper) - alpha
        diag[0] += lower[0]
        diag[-1] += upper[-1]
        u, c = _bordered_solve(lower, diag, upper, rhs, iref)
        # test-only dense reference: column iref carries the constant's -1
        dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
        dense[:, iref] = -1.0
        ref = np.linalg.solve(dense, rhs)
        assert u[iref] == 0.0
        assert c == pytest.approx(ref[iref], rel=1e-10, abs=1e-12)
        ref[iref] = 0.0
        np.testing.assert_allclose(u, ref, rtol=1e-10, atol=1e-12)

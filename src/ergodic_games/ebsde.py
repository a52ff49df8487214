"""Ergodic and discounted backward-equation solvers on a 1-d state grid.

The ergodic problem looks for a pair ``(v, lam)`` with

    0.5 sigma^2 v'' + drift(x) v' + f(x, v' sigma) = lam

on a truncated interval, where ``drift`` is the uncontrolled model drift,
``sigma`` the model's constant noise coefficient and ``f`` a driver that is
Lipschitz in its gradient argument.  ``v`` is only determined up to an
additive constant and is pinned to ``v(x_ref) = 0``.

The discounted variant replaces the constant ``lam`` by ``alpha * v``.  Both
share one discrete equation: central differences in space, mirrored Neumann
rows at the two ends, and the pin ``v(x_ref) = 0`` with a free constant that
takes the residual at the reference node.  It is solved directly by Newton's
method on the driver's slope in ``z``: linearizing ``f`` at the current
gradient turns the equation into a tridiagonal system bordered by the one
unknown constant, which one Thomas sweep through the two blocks that the
pin cuts apart solves in O(m).  Drivers affine in ``z`` -- every frozen driver of the Picard
loop -- converge in one step; drivers with kinks use a subgradient, and
drivers that are only continuous (:mod:`~ergodic_games.continuous`) are
solved as they are.  For the discounted equation the constant is reinstated
exactly afterwards (adding a constant ``c`` to ``v`` changes the equation
residual by ``-alpha * c`` and nothing else, because the driver only sees
derivatives of ``v``).  Both solvers return a :class:`GridSolution`, whose
``alpha`` is None for the ergodic equation and ``lam`` None for the other.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from ._csv import write_csv
from ._samples import CHECK_SAMPLES, check_states, first_over

__all__ = [
    "MaxSweepsExceededError",
    "NonMonotoneSchemeError",
    "Grid1D",
    "checked_driver",
    "GridSolution",
    "solve_ergodic",
    "solve_discounted",
    "hjb_residual",
]

logger = logging.getLogger(__name__)

# residual evaluations per grid solve; Newton needs a handful, affine drivers two
_MAX_NEWTON_ITERATIONS = 50
# relative step of the central difference that gives the driver's slope in z
_SLOPE_STEP = 1e-6
# nearest_node's lower clamp, 0-d: ufuncs convert a Python float on every call
_ZERO = np.zeros(())


class NonMonotoneSchemeError(ValueError):
    """The linearized central scheme is not monotone on this grid.

    Raised when ``|drift + sigma * slope| * dx >= sigma^2`` at a node of the
    retained interior: an off-diagonal weight is then non-positive, the
    operator is no M-matrix and the solution may oscillate where it is
    reported.  Such rows in the boundary margins are solved as they are (the
    next residual shows an inaccurate step); the error is also raised if
    elimination without pivoting meets a zero pivot on them.

    Carries the first failing node's ``x``, its ``advection_dx`` (``|drift +
    sigma * slope| * dx``) and ``sigma2``, the two sides of the comparison; all
    None for a zero pivot.
    """

    def __init__(self, message: str, x: Optional[float] = None,
                 advection_dx: Optional[float] = None, sigma2: Optional[float] = None):
        super().__init__(message)
        self.x = x
        self.advection_dx = advection_dx
        self.sigma2 = sigma2

    def __reduce__(self):
        return type(self), (self.args[0], self.x, self.advection_dx, self.sigma2)


class MaxSweepsExceededError(RuntimeError):
    """The grid solve ran out of iterations.

    Carries diagnostics: the last iterate ``v``, the constant ``lam``, the
    interior residual ``sup_residual``, the iteration count ``sweeps``,
    ``residual_history``, the interior residual of every iteration, the
    tolerance ``tol`` and Newton's ``rounding_floor`` at ``v``,
    ``2·sigma²·ε·max|v|/dx²`` (its second difference loses ``4ε·max|v|/dx²``);
    the message says when ``tol`` is below that floor.
    """

    def __init__(self, sup_residual: float, sweeps: int, lam: float, v: np.ndarray,
                 residual_history: list, tol: float, rounding_floor: float):
        below = (f"; tolerance {tol:.3g} is below Newton's rounding floor "
                 f"{rounding_floor:.3g}" if tol < rounding_floor else "")
        super().__init__(
            f"no convergence after {sweeps} iterations: interior residual "
            f"{sup_residual:.3e} above tolerance{below}"
        )
        self.sup_residual = sup_residual
        self.sweeps = sweeps
        self.lam = lam
        self.v = v
        self.residual_history = list(residual_history)
        self.tol = tol
        self.rounding_floor = rounding_floor

    def __reduce__(self):
        return type(self), (self.sup_residual, self.sweeps, self.lam, self.v,
                            self.residual_history, self.tol, self.rounding_floor)


def node_lookup(nodes: np.ndarray) -> Tuple[float, float, int]:
    """``(lo, inv_dx, top)`` of :func:`nearest_node` on the uniform grid ``nodes``, whose
    spacings must be positive and equal to 1e-9 of their mean, and which must
    hold a node (else a ValueError)."""
    if not len(nodes):
        raise ValueError("nearest-node lookups need at least one node: got an empty grid")
    gaps = np.diff(nodes)
    # written so that descending, repeated and NaN nodes fail too
    if len(gaps) and not np.ptp(gaps) < 1e-9 * gaps.mean():
        raise ValueError("nearest-node lookups need strictly ascending, equally spaced "
                         f"nodes: got spacings {gaps.min():.6g} to {gaps.max():.6g}")
    inv_dx = 1.0 / (nodes[1] - nodes[0]) if len(nodes) > 1 else 1.0
    return float(nodes[0]), inv_dx, len(nodes) - 1


def nearest_node(x, lookup: Tuple[float, float, int], out: Optional[tuple] = None) -> np.ndarray:
    """Index of the grid node nearest each state.

    ``rint((x - lo) * inv_dx)`` clamped to ``[0, top]``, with ``(lo, inv_dx,
    top) = node_lookup(nodes)``; every state above the grid, ``+inf`` and NaN
    map to ``top``: the one rule of every state-to-node lookup (the path
    engine's, once per state, whose nodes also give a policy's controls).
    ``out = (scaled, idx)``, float and ``intp`` arrays of ``x``'s shape, lets
    a caller that looks up every step reuse its buffers (allocated when
    None); the result is ``idx``.  Such a caller may pass ``lookup``'s entries
    as 0-d float arrays, which ufuncs take without converting them each call.
    """
    lo, inv_dx, top = lookup
    if out is None:
        x = np.asarray(x, dtype=float)
        out = (np.empty(x.shape), np.empty(x.shape, dtype=np.intp))
    scaled, idx = out
    # out positionally: the keyword costs the engine's per-step calls more
    np.subtract(x, lo, scaled)
    np.multiply(scaled, inv_dx, scaled)
    np.rint(scaled, scaled)
    # both clamps come before the cast, in floating point: a state past the intp
    # range or infinite would otherwise cast out of range (fmin sends NaN to top)
    np.fmin(scaled, top, scaled)
    np.fmax(scaled, _ZERO, scaled)
    idx[...] = scaled
    return idx


class InterpTable(NamedTuple):
    """Segment tables of :func:`uniform_interp` for ``np.interp(x, nodes, values)``.

    Entry ``j < m - 1`` holds segment ``j``: its left node, the slope
    ``np.interp`` computes for it, ``(values[j+1] - values[j]) / (nodes[j+1] -
    nodes[j])``, and ``values[j]``.  Entry ``m - 1`` (states at or above the
    last node) and entry ``m``, reached as ``-1`` (states below the first),
    hold the end values with a zero slope whose sign makes ``slope * offset``
    a ``-0.0`` there, which adds to any value without changing its bits.
    ``signed_zero`` records a ``-0.0`` in ``values``, the one value that a
    ``+0.0`` product on an interior node would change.
    """

    left: np.ndarray
    slope: np.ndarray
    base: np.ndarray
    signed_zero: bool


def interp_table(nodes: np.ndarray, values: np.ndarray) -> InterpTable:
    """Tables of :func:`uniform_interp` for ``values`` at the uniform grid ``nodes``."""
    values = np.asarray(values, dtype=float)
    slope = np.zeros(len(values) + 1)
    slope[:len(values) - 1] = np.diff(values) / np.diff(nodes)
    slope[len(values) - 1] = -0.0  # offsets at or above the last node are >= +0.0
    return InterpTable(np.append(nodes, nodes[0]), slope, np.append(values, values[0]),
                       bool(np.any(np.signbit(values) & (values == 0.0))))


def uniform_interp(x: np.ndarray, node: np.ndarray, *tables: InterpTable) -> list:
    """``np.interp(x, nodes, values)``, bitwise, for every table, from one segment lookup.

    ``node = nearest_node(x, node_lookup(nodes))`` is within half a cell of
    each finite state, so one comparison with it gives the segment
    ``np.interp`` uses: ``node - (x < nodes[node])``, ``-1`` below the grid
    and ``m - 1`` at or above the last node.  Each value is then ``slope *
    (x - left) + base`` from the segment's row, which is ``np.interp``'s
    formula inside the grid and its end value outside.  On an interior node
    the offset is ``+0.0``; where a table holds ``-0.0`` the product is made
    ``-0.0`` there, so the sum is the node value, sign included, as in
    ``np.interp``.
    """
    left = tables[0].left
    seg = node - (x < left.take(node))
    offset = left.take(seg)
    np.subtract(x, offset, out=offset)
    out = []
    for table in tables:
        y = table.slope.take(seg)
        y *= offset
        if table.signed_zero:
            np.copyto(y, -0.0, where=offset == 0.0)
        y += table.base.take(seg)
        out.append(y)
    return out


@dataclass(frozen=True)
class Grid1D:
    """Uniform truncation grid for the 1-d state.

    Two settings are fixed, not chosen.  ``interior_margin``, the 5 nodes at
    each end that all sup-norms exclude (boundary closures pollute them),
    leaves at least 3 interior nodes, so ``m`` must be at least 13.
    ``x_ref_index``, the reference node that pins the value functions, is
    the node nearest the origin, which must lie in the retained interior.
    """

    x_min: float
    x_max: float
    m: int
    interior_margin: int = field(default=5, init=False)
    x_ref_index: int = field(init=False)

    def __post_init__(self):
        if not self.x_min < 0.0 < self.x_max:
            raise ValueError("grid must bracket the origin: x_min < 0 < x_max")
        if self.m < 2 * self.interior_margin + 3:
            raise ValueError(f"need at least {2 * self.interior_margin + 3} grid nodes")
        object.__setattr__(self, "x_ref_index", int(np.argmin(np.abs(self.nodes()))))
        if not self.interior_margin <= self.x_ref_index < self.m - self.interior_margin:
            raise ValueError("reference node must lie in the retained interior")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.m - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.m)

    @property
    def interior(self) -> slice:
        return slice(self.interior_margin, self.m - self.interior_margin)


def checked_driver(f: Callable, lipschitz_z: float, bound_at_zero: float) -> Callable:
    """``f`` itself, once its declared gradient-Lipschitz and size constants hold.

    ``f(x, z)`` must act elementwise on numpy arrays.  Both constants must be
    finite, and they are checked on the fixed states and gradient values
    (:func:`~ergodic_games._samples.check_states`), where ``f`` must also be
    finite: ``|f(x, z) - f(x, z')| <= lipschitz_z |z - z'|`` and
    ``|f(x, 0)| <= bound_at_zero``.
    """
    if not (math.isfinite(lipschitz_z) and math.isfinite(bound_at_zero)):
        raise ValueError(f"driver check failed: lipschitz_z={lipschitz_z!r} and "
                         f"bound_at_zero={bound_at_zero!r} must be finite")
    xs = check_states(CHECK_SAMPLES, 0)
    za = check_states(CHECK_SAMPLES, 1)
    zb = check_states(CHECK_SAMPLES, 2)
    fa = np.broadcast_to(np.asarray(f(xs, za), dtype=float), xs.shape)
    fb = np.broadcast_to(np.asarray(f(xs, zb), dtype=float), xs.shape)
    k = first_over(np.abs(fa - fb), lipschitz_z * np.abs(za - zb))
    if k is not None:
        raise ValueError(f"driver check failed: gradient Lipschitz constant {lipschitz_z:.6g} "
                         f"violated at sampled x={xs[k]:.6g}, z={za[k]:.6g}, z'={zb[k]:.6g}")
    f0 = np.broadcast_to(np.asarray(f(xs, np.zeros(CHECK_SAMPLES)), dtype=float), xs.shape)
    k = first_over(np.abs(f0), bound_at_zero)
    if k is not None:
        raise ValueError(f"driver check failed: |f(x, 0)|={abs(f0[k]):.6g} exceeds "
                         f"bound_at_zero={bound_at_zero:.6g} at sampled x={xs[k]:.6g}")
    return f


def frozen_driver(slope: np.ndarray, offset: np.ndarray,
                  lipschitz_z: float, bound_at_zero: float) -> Callable:
    """Affine driver ``slope * z + offset`` over node tables; ``x`` is not read.

    The solvers evaluate drivers at ``grid.nodes()`` only.  Both bounds must
    be finite, and every node must satisfy ``|slope| <= lipschitz_z`` and
    ``|offset| <= bound_at_zero``.
    """
    for name, table, bound in (("slope", slope, lipschitz_z), ("offset", offset, bound_at_zero)):
        if not math.isfinite(bound):
            raise ValueError(f"driver check failed: the {name} bound {bound!r} must be finite")
        k = first_over(np.abs(table), bound)
        if k is not None:
            raise ValueError(f"driver check failed: |{name}|={abs(table[k]):.6g} exceeds "
                             f"{bound:.6g} at node {k}")
    return lambda x, z: slope * z + offset


@dataclass(frozen=True)
class GridSolution:
    """Grid solution of the ergodic (``alpha is None``) or discounted equation.

    ``xi`` approximates ``v'(x) sigma`` (central differences inside,
    one-sided at the ends) and ``residual_sup`` is the interior equation
    residual (Newton's last for an ergodic solution, else recomputed).  An
    ergodic ``v`` is normalized to zero at the reference node and ``lam`` is
    the long-run constant; a discounted ``v`` is not normalized and ``lam``
    is None.  ``growth_constant``, the smallest ``C`` with ``|v(x)| <= C (1 +
    x^2)`` on the grid, and ``sup_v`` are read off ``v``.
    """

    grid: Grid1D
    v: np.ndarray
    xi: np.ndarray
    lam: Optional[float]
    alpha: Optional[float]
    residual_sup: float
    iterations: int

    @property
    def growth_constant(self) -> float:
        return float(np.max(np.abs(self.v) / (1.0 + self.grid.nodes() ** 2)))

    @property
    def sup_v(self) -> float:
        return float(np.max(np.abs(self.v)))

    def value_at(self, x: float) -> float:
        """``v`` interpolated linearly at ``x``, which must lie on the grid."""
        g = self.grid
        if not g.x_min <= x <= g.x_max:  # np.interp would clamp it to an end node
            raise ValueError(f"state x={x!r} lies outside the grid [{g.x_min!r}, {g.x_max!r}]")
        return float(np.interp(x, g.nodes(), self.v))

    def to_csv(self, path) -> None:
        write_csv(path, ("x", "v", "xi"), zip(self.grid.nodes(), self.v, self.xi))

    def report_dict(self) -> dict:
        if self.alpha is None:
            own = {"lambda": self.lam, "growth_constant": self.growth_constant,
                    "grid": asdict(self.grid)}
        else:
            own = {"alpha": self.alpha, "sup_v": self.sup_v,
                    "alpha_times_sup_v": self.alpha * self.sup_v}
        return {"residual_sup": self.residual_sup, "iterations": self.iterations, **own}


def _derivatives(v: np.ndarray, dx: float):
    """Central first and second differences with the mirrored Neumann closure.

    Mirrored ghost nodes zero the first difference and double the one-sided
    second difference at each end.
    """
    d1 = np.zeros_like(v)
    d1[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    d2 = np.empty_like(v)
    d2[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / dx**2
    d2[0] = 2.0 * (v[1] - v[0]) / dx**2
    d2[-1] = 2.0 * (v[-2] - v[-1]) / dx**2
    return d1, d2


def _thomas(lo: list, di: list, up: list, b: list, ones: list):
    """Thomas sweep (no pivoting) of one tridiagonal matrix for two right-hand sides."""
    n = len(di)
    ratio, y, w = [0.0] * n, [0.0] * n, [0.0] * n
    g = gy = gw = 0.0
    for j in range(n):
        piv = di[j] - lo[j] * g
        g = ratio[j] = up[j] / piv
        gy = y[j] = (b[j] - lo[j] * gy) / piv
        gw = w[j] = (ones[j] - lo[j] * gw) / piv
    for j in range(n - 2, -1, -1):
        y[j] -= ratio[j] * y[j + 1]
        w[j] -= ratio[j] * w[j + 1]
    return y, w


def _bordered_solve(lower, diag, upper, rhs, iref: int):
    """Solve a tridiagonal system bordered by one constant and pinned at ``iref``.

    The unknowns are ``u`` with ``u[iref] = 0`` and a scalar ``c``; row ``j``
    reads ``lower[j] u[j-1] + diag[j] u[j] + upper[j] u[j+1] - c = rhs[j]``
    (``lower[0]`` and ``upper[-1]`` are ignored).  The pin cuts the matrix
    into the blocks left and right of ``iref``; one Thomas sweep through both
    for the right-hand sides ``rhs`` and ones gives ``u = y + c w``, and row
    ``iref`` then fixes ``c``.  O(m) time and memory.  Without pivoting this
    is safe when the negated tridiagonal part is an M-matrix.  Returns
    ``(u, c)``.
    """
    lo, di, up, b = (np.array(a, dtype=float) for a in (lower, diag, upper, rhs))
    m = len(di)
    lo_ref, up_ref, b_ref = lo[iref], up[iref], b[iref]
    # the pinned node gets the row u[iref] = 0 and its neighbours stop seeing it
    lo[iref] = up[iref] = b[iref] = 0.0
    di[iref] = 1.0
    up[max(iref - 1, 0)] = lo[min(iref + 1, m - 1)] = 0.0
    ones = np.ones(m)
    ones[iref] = 0.0
    y, w = _thomas(lo.tolist(), di.tolist(), up.tolist(), b.tolist(), ones.tolist())
    # a zero past either end stands in for the missing neighbour of an end node
    y.append(0.0)
    w.append(0.0)
    c = ((b_ref - lo_ref * y[iref - 1] - up_ref * y[iref + 1])
         / (lo_ref * w[iref - 1] + up_ref * w[iref + 1] - 1.0))
    return np.array(y[:m]) + c * np.array(w[:m]), c


def _solve(model, f: Callable, grid: Grid1D, alpha: Optional[float], tol: float,
           v_init: Optional[np.ndarray]) -> GridSolution:
    """Newton iteration of the ergodic (``alpha`` None: rate 0.0) and discounted solves.

    Each iteration evaluates the residual of ``0.5 sigma^2 v'' + drift v' +
    f(x, sigma v') - alpha v``, takes ``c`` as its value at the reference
    node and stops once the interior sup-norm of the rest is below ``tol``;
    otherwise it linearizes the driver at the current gradient (central
    difference in ``z``, a subgradient at kinks) and solves the bordered
    Newton system.  ``v`` stays an exact +0.0 at the reference node and
    inside ``sigma v'`` is ``xi`` bit for bit, so the last residual is an
    ergodic ``residual_sup``; a discounted ``v`` moves by ``c / alpha``.
    """
    rate = 0.0 if alpha is None else alpha
    x, dx, iref = grid.nodes(), grid.dx, grid.x_ref_index
    sig = model.sigma
    sig2 = sig**2
    diff = np.full(grid.m, 0.5 * sig2 / dx**2)
    drift = model.drift_1d(x).astype(float)
    v = np.zeros(grid.m) if v_init is None else np.array(v_init, dtype=float)
    if v.shape != (grid.m,):
        raise ValueError(f"v_init must have shape ({grid.m},)")
    v -= v[iref]
    inner = grid.interior
    history: list = []
    for it in range(1, _MAX_NEWTON_ITERATIONS + 1):
        d1, d2 = _derivatives(v, dx)
        z = sig * d1
        r = 0.5 * sig2 * d2 + drift * d1 + np.asarray(f(x, z), dtype=float) - rate * v
        lam = float(r[iref])
        r -= lam
        history.append(float(np.max(np.abs(r[inner]))))
        if history[-1] < tol * 0.999:
            break
        if it == _MAX_NEWTON_ITERATIONS:
            floor = 2.0 * sig2 * np.finfo(float).eps * float(np.max(np.abs(v))) / dx**2
            raise MaxSweepsExceededError(history[-1], it, lam, v, history, tol, floor)
        h = _SLOPE_STEP * (1.0 + np.abs(z))
        slope = (np.asarray(f(x, z + h), dtype=float)
                 - np.asarray(f(x, z - h), dtype=float)) / (2.0 * h)
        adv = drift + sig * slope
        excess = np.abs(adv[inner]) * dx - sig2
        if np.max(excess) >= 0.0:
            k = inner.start + int(np.argmax(excess))
            adv_dx = float(abs(adv[k]) * dx)
            raise NonMonotoneSchemeError(
                f"central scheme is not monotone at x={x[k]:.6g}: |drift + sigma*slope| dx "
                f"= {adv_dx:.6g} >= sigma^2 = {sig2:.6g}; refine the grid",
                float(x[k]), adv_dx, float(sig2))
        lower, upper = diff - adv / (2.0 * dx), diff + adv / (2.0 * dx)
        lower[-1], upper[0] = 2.0 * diff[-1], 2.0 * diff[0]
        try:
            v += _bordered_solve(lower, -2.0 * diff - rate, upper, -r, iref)[0]
        except ZeroDivisionError as exc:
            # a zero pivot needs a row that is no M-matrix row: one in the margins
            raise NonMonotoneSchemeError(
                "elimination hit a zero pivot on the non-monotone rows of the "
                "boundary margins; refine the grid") from exc
    if alpha is not None:
        v += lam / alpha
    xi = _xi_from_v(model, grid, v)
    res = history[-1] if alpha is None else hjb_residual(model, f, grid, v, xi, 0.0, alpha)
    logger.debug("grid solve: alpha=%s c=%.9g residual=%.3e iterations=%d", alpha, lam, res, it)
    return GridSolution(grid=grid, v=v, xi=xi, lam=lam if alpha is None else None, alpha=alpha,
                        residual_sup=res, iterations=it)


def _check_rate(alpha: float) -> None:
    """A discount rate is finite and positive (the comparison also fails NaN)."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"a discount rate must be a finite positive alpha, got {alpha!r}")


def _xi_from_v(model, grid: Grid1D, v: np.ndarray) -> np.ndarray:
    dx = grid.dx
    xi = np.empty_like(v)
    xi[1:-1] = (v[2:] - v[:-2]) / (2.0 * dx)
    xi[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dx)
    xi[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dx)
    return model.sigma * xi


def hjb_residual(model, driver: Callable, grid: Grid1D, v: np.ndarray,
                 xi: np.ndarray, lam: float = 0.0, alpha: float = 0.0) -> float:
    """Interior sup-norm of ``0.5 sigma^2 v'' + drift v' + driver(x, xi) - lam - alpha v``.

    Recomputes the equation residual from the stored fields, so for a
    converged solution it reproduces ``residual_sup`` (bitwise for an ergodic
    one).
    """
    x = grid.nodes()
    sig2 = model.sigma**2
    drift = model.drift_1d(x)
    d1, d2 = _derivatives(v, grid.dx)
    field = 0.5 * sig2 * d2 + drift * d1 + np.asarray(driver(x, xi), dtype=float) - lam - alpha * v
    return float(np.max(np.abs(field[grid.interior])))


def solve_ergodic(
    model,
    driver: Callable,
    grid: Grid1D,
    tol: float = 1e-6,
    v_init: Optional[np.ndarray] = None,
) -> GridSolution:
    """Solve the ergodic equation for ``(v, lam)`` on the grid.

    Takes Newton steps on the discrete equation until the interior residual
    sup-norm drops below ``tol``; ``lam`` is the residual constant at the
    reference node and ``residual_sup`` Newton's last interior residual.
    ``v_init`` warm-starts the iteration (its value at the reference node is
    subtracted).  ``iterations`` counts residual evaluations: 1 when the
    start already solves the equation, 2 for a driver affine in ``z``.

    Raises :class:`NonMonotoneSchemeError` when the grid is too coarse for
    the drift and driver slope, and :class:`MaxSweepsExceededError` (with
    diagnostics attached) if Newton does not converge within a fixed number
    of iterations.
    """
    return _solve(model, driver, grid, None, tol, v_init)


def solve_discounted(
    model,
    driver: Callable,
    grid: Grid1D,
    alpha: float,
    tol: float = 1e-6,
    v_init: Optional[np.ndarray] = None,
) -> GridSolution:
    """Solve the discounted equation ``L v + f(x, v' sigma) = alpha v``.

    Runs the ergodic solver's Newton iteration on the operator with the
    extra ``-alpha v`` term (``alpha`` only adds to the diagonal) and then
    restores the pinned constant exactly: if ``(w, c)`` solve the pinned
    problem with residual constant ``c``, then ``w + c / alpha`` solves the
    discounted equation.  Tolerance, warm start, ``iterations`` and errors
    are as for :func:`solve_ergodic`.
    """
    _check_rate(alpha)
    return _solve(model, driver, grid, alpha, tol, v_init)

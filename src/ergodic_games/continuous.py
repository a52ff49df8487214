"""Ergodic solves for drivers that are only continuous with linear growth.

A driver ``f(x, z)`` with ``|f(x, z)| <= kappa (1 + |z|)`` is split along the
gradient axis into a bounded slope and a bounded offset,

    phi(x, z) = f(x, z) * z / z^2   where |z| >= 1, else 0
    psi(x, z) = f(x, z)             where |z| < 1,  else 0

so that ``phi * z + psi == f`` with ``|phi| <= 2 kappa`` and
``|psi| <= 2 kappa``.  Freezing ``(phi, psi)`` at the current gradient field
turns the equation into one with an affine-in-gradient driver, which the
ergodic solver handles; iterating the freeze converges for mildly coupled
drivers and is reproducible from any supplied initial field.
"""

from __future__ import annotations

import logging
import math
from dataclasses import replace
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np

from ._samples import _CHECK_SLACK, check_states
from .ebsde import Grid1D, GridSolution, frozen_driver, hjb_residual, solve_ergodic

__all__ = [
    "GrowthViolationError",
    "LinearizationDidNotConvergeError",
    "ResidualCeilingError",
    "decompose",
    "solve_continuous_ebsde",
]

logger = logging.getLogger(__name__)

# fixed (x, z) pairs of decompose's growth check
_CHECK_SAMPLES = 10_000
# the converged iterate's residual against the original driver, in units of tol
_RESIDUAL_CEILING = 10.0


class GrowthViolationError(ValueError):
    """Sampled driver value exceeded the declared linear growth bound."""


class LinearizationDidNotConvergeError(RuntimeError):
    """Outer freeze-and-solve loop ran out of iterations.

    Carries ``deltas_history``: per-iteration ``(lambda delta, xi delta)``.
    """

    def __init__(self, max_iter: int, deltas_history):
        super().__init__(
            f"linearization loop did not stabilize within {max_iter} iterations"
        )
        self.max_iter = max_iter
        self.deltas_history = deltas_history

    def __reduce__(self):
        return type(self), (self.max_iter, self.deltas_history)


class ResidualCeilingError(RuntimeError):
    """Converged iterate fails the residual ceiling against the original driver."""


def _split(f: Callable, x, z) -> Tuple[np.ndarray, np.ndarray]:
    """``(phi, psi)`` at ``(x, z)`` from one call of ``f``.  ``psi = f - phi * z``
    is ``f`` on the gate ``|z| < 1`` and zero to one rounding unit off it, and
    makes ``phi * z + psi`` reproduce ``f(x, z)`` bitwise."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    gate = np.abs(z) >= 1.0
    denom = np.where(gate, z * z, 1.0)
    fv = np.asarray(f(x, z), dtype=float)
    phi = np.where(gate, fv * z / denom, 0.0)
    return phi, fv - phi * z


def decompose(f: Callable, kappa: float) -> Callable:
    """The split ``(x, z) -> (phi, psi)`` of ``f``, after checking its growth.

    The split acts elementwise with one call of ``f``; ``phi * z + psi`` is
    ``f(x, z)`` bitwise and ``|phi|, |psi| <= 2 kappa``.  ``kappa`` must be
    positive and finite.  ``f`` is checked on ``_CHECK_SAMPLES`` fixed pairs
    (:func:`~ergodic_games._samples.check_states`); a value that is not finite
    or exceeds ``kappa (1 + |z|)`` raises :class:`GrowthViolationError`.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got kappa={kappa!r}")
    xs = check_states(_CHECK_SAMPLES, 0)
    zs = check_states(_CHECK_SAMPLES, 1)
    fv = np.broadcast_to(np.asarray(f(xs, zs), dtype=float), xs.shape)
    growth = kappa * (1.0 + np.abs(zs))
    # written as "not within the bound" so that a NaN value fails too
    if not np.all(np.abs(fv) <= growth * (1.0 + _CHECK_SLACK) + 1e-12):
        k = int(np.argmax(np.abs(fv) - growth))
        raise GrowthViolationError(
            f"sampled |f(x, z)|={abs(fv[k]):.6g} exceeds kappa*(1+|z|)="
            f"{growth[k]:.6g} at x={xs[k]:.6g}, z={zs[k]:.6g}"
        )
    return partial(_split, f)


def solve_continuous_ebsde(
    model,
    f: Callable,
    kappa: float,
    grid: Grid1D,
    tol: float = 1e-6,
    max_iter: int = 80,
    xi_init: Optional[np.ndarray] = None,
) -> GridSolution:
    """Ergodic solve for a continuous linear-growth driver.

    Starting from ``xi_init`` (zero by default; alternative fields probe
    reproducibility of the limit), each iteration freezes the decomposition
    at the current gradient field, solves the resulting affine-driver
    equation to ``tol / 10`` (warm started), and stops once the constant and
    the interior gradient field move less than ``tol``.  The returned
    ``residual_sup`` is recomputed against the *original* driver and must
    be at most ``10 * tol`` (else :class:`ResidualCeilingError`).
    """
    split = decompose(f, kappa)
    nodes = grid.nodes()
    xi = np.zeros(grid.m) if xi_init is None else np.asarray(xi_init, dtype=float).copy()
    if xi.shape != (grid.m,):
        raise ValueError(f"xi_init must have shape ({grid.m},)")
    residual_ceiling = _RESIDUAL_CEILING * tol
    inner_tol = 0.1 * tol
    lam_prev: Optional[float] = None
    v_warm: Optional[np.ndarray] = None
    history = []
    for it in range(1, max_iter + 1):
        driver = frozen_driver(*split(nodes, xi), 2.0 * kappa, 2.0 * kappa)
        sol = solve_ergodic(model, driver, grid, tol=inner_tol, v_init=v_warm)
        v_warm = sol.v
        d_lam = None if lam_prev is None else abs(sol.lam - lam_prev)
        d_xi = float(np.max(np.abs((sol.xi - xi)[grid.interior])))
        history.append({"iteration": it, "lambda": d_lam, "xi": d_xi})
        lam_prev = sol.lam
        xi = sol.xi
        if d_lam is not None and d_lam < tol and d_xi < tol:
            res = hjb_residual(model, f, grid, sol.v, sol.xi, sol.lam)
            if res > residual_ceiling:
                raise ResidualCeilingError(
                    f"residual {res:.3e} against the original driver exceeds "
                    f"the ceiling {residual_ceiling:.3e}"
                )
            logger.debug("continuous solve: lam=%.9g residual=%.3e outer=%d",
                         sol.lam, res, it)
            return replace(sol, residual_sup=res, iterations=it)
    raise LinearizationDidNotConvergeError(max_iter, history)

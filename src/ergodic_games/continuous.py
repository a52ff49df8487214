"""Ergodic solves for drivers that are only continuous with linear growth.

The paper reaches a driver ``f(x, z)`` with ``|f(x, z)| <= kappa (1 + |z|)``
by approximating it with Lipschitz ones.  The grid equation needs no such
step: the ergodic solver's Newton iteration takes any callable driver and
linearizes it at the current gradient with a finite-difference slope, a
subgradient at kinks (on a maximum of affine drivers this is Howard's policy
iteration).  This module checks the declared growth and solves with ``f``
itself.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._samples import CHECK_SAMPLES, check_states, first_over
from .ebsde import Grid1D, GridSolution, solve_ergodic

__all__ = ["GrowthViolationError", "solve_continuous_ebsde"]


class GrowthViolationError(ValueError):
    """Sampled driver value exceeded the declared linear growth bound."""


def solve_continuous_ebsde(model, f: Callable, kappa: float, grid: Grid1D,
                           tol: float = 1e-6) -> GridSolution:
    """Ergodic solve for a continuous driver ``f`` of linear growth ``kappa``.

    ``kappa`` must be positive and finite.  ``f`` is checked on the fixed
    pairs of :func:`~ergodic_games._samples.check_states`; a value that is
    not finite or exceeds ``kappa (1 + |z|)`` raises
    :class:`GrowthViolationError`.  :func:`~ergodic_games.ebsde.solve_ergodic`
    then solves the equation with ``f``, so ``residual_sup`` is the residual
    against ``f`` and ``iterations`` counts Newton's residual evaluations; a
    solve that misses ``tol`` raises its ``MaxSweepsExceededError``, which
    carries the residual history.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got kappa={kappa!r}")
    xs = check_states(CHECK_SAMPLES, 0)
    zs = check_states(CHECK_SAMPLES, 1)
    fv = np.broadcast_to(np.asarray(f(xs, zs), dtype=float), xs.shape)
    k = first_over(np.abs(fv), kappa * (1.0 + np.abs(zs)))
    if k is not None:
        raise GrowthViolationError(
            f"sampled |f(x, z)|={abs(fv[k]):.6g} exceeds kappa*(1+|z|)="
            f"{kappa * (1.0 + abs(zs[k])):.6g} at x={xs[k]:.6g}, z={zs[k]:.6g}"
        )
    return solve_ergodic(model, f, grid, tol=tol)

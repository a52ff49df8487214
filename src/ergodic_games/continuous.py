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

from ._samples import _CHECK_SLACK, check_states
from .ebsde import Grid1D, GridSolution, solve_ergodic

__all__ = ["GrowthViolationError", "solve_continuous_ebsde"]

# fixed (x, z) pairs of the growth check
_CHECK_SAMPLES = 10_000


class GrowthViolationError(ValueError):
    """Sampled driver value exceeded the declared linear growth bound."""


def solve_continuous_ebsde(model, f: Callable, kappa: float, grid: Grid1D,
                           tol: float = 1e-6) -> GridSolution:
    """Ergodic solve for a continuous driver ``f`` of linear growth ``kappa``.

    ``kappa`` must be positive and finite.  ``f`` is checked on
    ``_CHECK_SAMPLES`` fixed pairs (:func:`~ergodic_games._samples.check_states`);
    a value that is not finite or exceeds ``kappa (1 + |z|)`` raises
    :class:`GrowthViolationError`.  :func:`~ergodic_games.ebsde.solve_ergodic`
    then solves the equation with ``f``, so ``residual_sup`` is the residual
    against ``f`` and ``iterations`` counts Newton's residual evaluations; a
    solve that misses ``tol`` raises its ``MaxSweepsExceededError``, which
    carries the residual history.
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
    return solve_ergodic(model, f, grid, tol=tol)

"""Named building blocks: reference model, drivers, and bundled games.

Everything here is desk scale and broadcast-safe over numpy arrays, so the
same callables serve the grid solvers, the samplers and the vectorized
Monte Carlo loops.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable, Optional, Tuple

import numpy as np

from .ebsde import checked_driver
from .games import ControlGrid, GameSpec
from .sde import SdeModel, _integer, _real

__all__ = [
    "bump",
    "BUMP_SUP",
    "BUMP_LIP",
    "ou_model",
    "make_model",
    "make_driver",
    "make_growth_driver",
    "make_game",
    "quadratic_decoupled",
    "coupled_cross_cost",
    "three_player_symmetric",
    "GAME_BUILDERS",
]

SQRT2 = math.sqrt(2.0)


def bump(x):
    """Bounded, Lipschitz state cost ``x^2 / (1 + x^2)``."""
    xsq = np.square(x)
    return xsq / (1.0 + xsq)


BUMP_SUP = 1.0
# max |d/dx bump| is attained at x = 1/sqrt(3)
BUMP_LIP = 3.0 * math.sqrt(3.0) / 8.0


def ou_model(x0: float = 0.0, noise: float = SQRT2) -> SdeModel:
    """Reference 1-d model: unit mean reversion, constant noise.

    With the default noise ``sqrt(2)`` the invariant law is standard normal;
    a constant drift shift ``b`` moves its mean to ``sqrt(2) * b``.
    """
    return _model(bounded_drift={}, sigma=noise, x0=x0)


# -- config-facing factories -----------------------------------------------------
# Each kind's builders by name: a builder's signature is its entry's parameters and
# their defaults, which :func:`_entry` reads a config by.


def _entry(kind: str, cfg: dict, builders: dict, default: Optional[str] = None, **built):
    """The entry of ``builders`` that ``cfg["name"]`` names (``default`` when unset; the
    model, whose one builder is keyed ``None``, takes no name), called with ``built`` and
    ``cfg``'s other keys.

    An unknown name or parameter, or a missing one without a default, raises ``KeyError``.
    A value is read by :func:`~.sde._integer` where its default is an int, else by
    :func:`~.sde._real`, and one they refuse raises ``TypeError`` naming the parameter.
    """
    cfg = dict(cfg)
    name = None if None in builders else cfg.pop("name", default)
    if name not in builders:
        raise KeyError(f"unknown {kind} name {name!r}; known names: {', '.join(builders)}")
    params = inspect.signature(builders[name]).parameters
    noun, label = (("keys", lambda k: f"{kind} key {k!r}") if name is None else
                   ("parameters", lambda k: f"parameter {k!r} of {kind} {name!r}"))
    unknown = [k for k in cfg if k not in params]
    if unknown:
        raise KeyError(f"unknown {label(unknown[0])}; known {noun}: {', '.join(params) or 'none'}")
    for k, p in params.items():
        if k in cfg:
            read = _integer if type(p.default) is int else _real
            built[k] = read(cfg[k], label(k), TypeError)
        elif k not in built and p.default is p.empty:
            raise KeyError(k)
    return builders[name](**built)


def _model(*, lin_drift: float = -1.0, bounded_drift: dict, sigma: float = SQRT2,
           x0: float = 0.0) -> SdeModel:
    fn, f_sup, f_lip = _entry("bounded_drift", bounded_drift, _BOUNDED_DRIFTS, "zero")
    return SdeModel(lin_drift=lin_drift, bounded_drift=fn, bounded_drift_sup=f_sup,
                    bounded_drift_lip=f_lip, sigma=sigma, x0=x0)


_BOUNDED_DRIFTS = {  # (drift, its sup, its Lipschitz constant)
    "zero": lambda: (lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.0, 0.0),
    "tanh": lambda scale=0.5: (lambda x: scale * np.tanh(x), abs(scale), abs(scale)),
}


def make_model(cfg: dict) -> SdeModel:
    """Model from a config mapping (see the bundled YAML files): :func:`_model`'s keys,
    read by :func:`_entry`, with ``bounded_drift`` an entry of ``_BOUNDED_DRIFTS``
    (``zero`` when unnamed)."""
    cfg = dict(cfg)
    return _entry("model", cfg, {None: _model}, bounded_drift=cfg.pop("bounded_drift", {}))


_DRIVERS = {
    "constant": lambda value=1.0: checked_driver(
        lambda x, z: value + 0.0 * z, lipschitz_z=0.0, bound_at_zero=abs(value)),
    "bump": lambda: checked_driver(
        lambda x, z: bump(x) + 0.0 * z, lipschitz_z=0.0, bound_at_zero=BUMP_SUP),
    "linear_z_plus_bump": lambda slope=0.5: checked_driver(
        lambda x, z: slope * z + bump(x), lipschitz_z=abs(slope), bound_at_zero=BUMP_SUP),
    "tanh_z_plus_bump": lambda scale=0.5: checked_driver(
        lambda x, z: scale * np.tanh(z) + bump(x), lipschitz_z=abs(scale),
        bound_at_zero=BUMP_SUP),
    "dominating": lambda lipschitz, offset: checked_driver(
        lambda x, z: lipschitz * np.abs(z) + offset + 0.0 * x, lipschitz_z=lipschitz,
        bound_at_zero=offset),
}


def make_driver(cfg: dict) -> Callable:
    """Driver ``f(x, z)`` from a named entry of ``_DRIVERS``, read by :func:`_entry` and
    checked by :func:`checked_driver`."""
    return _entry("driver", cfg, _DRIVERS)


_GROWTH_DRIVERS = {  # (driver, its linear growth constant)
    "tanh_z_plus_bump": lambda scale=0.5: (
        (lambda x, z: scale * np.tanh(z) + bump(x)), abs(scale) + BUMP_SUP),
    # square root in the gradient, so continuous but not Lipschitz at zero;
    # slope*sqrt(|z|) <= (slope/2)(1 + |z|)
    "sqrt_z_plus_bump": lambda slope=0.5: (
        (lambda x, z: slope * np.sqrt(np.abs(z)) + bump(x)), 0.5 * abs(slope) + BUMP_SUP),
}


def make_growth_driver(cfg: dict) -> Tuple[Callable, float]:
    """Continuous driver and its linear growth constant, for the relaxed solver: a named
    entry of ``_GROWTH_DRIVERS``, read by :func:`_entry`."""
    return _entry("growth driver", cfg, _GROWTH_DRIVERS)


# -- bundled games -----------------------------------------------------------------


def _own_cost_game(name: str, n_players: int, n_controls: int,
                   control_bound: float) -> GameSpec:
    """Players on one uniform control grid, the shared drift ``u_0 + u_1 + ...`` (added in
    player order) and own costs ``u_i**2 + bump(x)``."""
    grid = ControlGrid.uniform(-control_bound, control_bound, n_controls)
    return GameSpec(
        grids=(grid,) * n_players,
        drift_map=lambda *u: sum(u[1:], u[0]),
        costs=tuple((lambda x, *u, i=i: u[i]**2 + bump(x)) for i in range(n_players)),
        cost_sup=control_bound**2 + BUMP_SUP,
        cost_x_lip=BUMP_LIP,
        name=name,
    )


def quadratic_decoupled(n_controls: int = 41, control_bound: float = 1.0) -> GameSpec:
    """Two players, shared drift ``u + v``, own quadratic control costs.

    Each Hamiltonian is minimized at the clamp of ``-z_i / 2`` onto the
    control grid, independently of the other player.
    """
    return _own_cost_game("quadratic_decoupled", 2, n_controls, control_bound)


def coupled_cross_cost(
    n_controls: int = 41, control_bound: float = 1.0, coupling: float = 0.25
) -> GameSpec:
    """Two players whose costs share a bilinear cross term.

    The positive coupling keeps both best-response maps decreasing, so the
    discrete best-response composition is monotone and a pure Nash point
    exists at every ``(x, z)``.
    """
    if coupling < 0.0:
        raise ValueError("coupling must be nonnegative")
    grid = ControlGrid.uniform(-control_bound, control_bound, n_controls)
    b2 = control_bound**2
    return GameSpec(
        grids=(grid, grid),
        drift_map=lambda u, v: u + v,
        costs=(
            lambda x, u, v: u**2 + coupling * u * v + bump(x),
            lambda x, u, v: v**2 + coupling * u * v + bump(x),
        ),
        cost_sup=b2 + coupling * b2 + BUMP_SUP,
        cost_x_lip=BUMP_LIP,
        name="coupled_cross_cost",
    )


def three_player_symmetric(n_controls: int = 21, control_bound: float = 1.0) -> GameSpec:
    """Three symmetric players with decoupled quadratic control costs."""
    return _own_cost_game("three_player_symmetric", 3, n_controls, control_bound)


GAME_BUILDERS = {
    "quadratic_decoupled": quadratic_decoupled,
    "coupled_cross_cost": coupled_cross_cost,
    "three_player_symmetric": three_player_symmetric,
}


def make_game(cfg: dict) -> GameSpec:
    """Game from a named bundle of :data:`GAME_BUILDERS`, read by :func:`_entry`."""
    return _entry("game", cfg, GAME_BUILDERS)

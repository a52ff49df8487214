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
from .sde import SdeModel

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
    return SdeModel(
        lin_drift=-1.0,
        bounded_drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        bounded_drift_sup=0.0,
        bounded_drift_lip=0.0,
        sigma=noise,
        x0=x0,
    )


# -- config-facing factories -----------------------------------------------------


def _entry(kind: str, cfg: dict, params: dict, default: Optional[str] = None
           ) -> Tuple[str, dict]:
    """Name and parameters of a named catalogue entry; ``params`` maps each known name to
    its parameter names, and an unknown name or parameter raises ``KeyError``."""
    cfg = dict(cfg)
    name = cfg.pop("name", default)
    if name not in params:
        raise KeyError(f"unknown {kind} name {name!r}; known names: {', '.join(params)}")
    unknown = [k for k in cfg if k not in params[name]]
    if unknown:
        raise KeyError(f"unknown parameter {unknown[0]!r} of {kind} {name!r}; known "
                       f"parameters: {', '.join(params[name]) or 'none'}")
    return name, cfg


def _residual_drift(name: str, params: dict) -> Tuple[Callable, float, float]:
    if name == "zero":
        return (lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.0, 0.0)
    scale = float(params.get("scale", 0.5))  # tanh
    return (lambda x: scale * np.tanh(x), abs(scale), abs(scale))


_MODEL_KEYS = ("lin_drift", "bounded_drift", "sigma", "x0")


def make_model(cfg: dict) -> SdeModel:
    """Model from a config mapping (see the bundled YAML files).

    Unknown keys raise ``KeyError`` naming the known ones; ``sigma`` is a
    number, and anything else raises ``TypeError``.
    """
    unknown = [k for k in cfg if k not in _MODEL_KEYS]
    if unknown:
        raise KeyError(f"unknown model key {unknown[0]!r}; known keys: {', '.join(_MODEL_KEYS)}")
    sigma = cfg.get("sigma", SQRT2)
    if isinstance(sigma, bool) or not isinstance(sigma, (int, float)):
        raise TypeError(f"model key 'sigma' must be a number, got {sigma!r}")
    fn, f_sup, f_lip = _residual_drift(*_entry("bounded_drift", cfg.get("bounded_drift", {}),
                                                {"zero": (), "tanh": ("scale",)}, "zero"))
    return SdeModel(
        lin_drift=float(cfg.get("lin_drift", -1.0)),
        bounded_drift=fn,
        bounded_drift_sup=f_sup,
        bounded_drift_lip=f_lip,
        sigma=sigma,
        x0=float(cfg.get("x0", 0.0)),
    )


_DRIVER_PARAMS = {
    "constant": ("value",),
    "bump": (),
    "linear_z_plus_bump": ("slope",),
    "tanh_z_plus_bump": ("scale",),
    "dominating": ("lipschitz", "offset"),
}


def make_driver(cfg: dict) -> Callable:
    """Driver ``f(x, z)`` from a named catalogue entry, checked by :func:`checked_driver`.

    Names: ``constant`` (value), ``bump``, ``linear_z_plus_bump`` (slope),
    ``tanh_z_plus_bump`` (scale), ``dominating`` (lipschitz, offset).
    """
    name, cfg = _entry("driver", cfg, _DRIVER_PARAMS)
    if name == "constant":
        c = float(cfg.get("value", 1.0))
        return checked_driver(lambda x, z: c + 0.0 * z, lipschitz_z=0.0, bound_at_zero=abs(c))
    if name == "bump":
        return checked_driver(lambda x, z: bump(x) + 0.0 * z, lipschitz_z=0.0,
                              bound_at_zero=BUMP_SUP)
    if name == "linear_z_plus_bump":
        b = float(cfg.get("slope", 0.5))
        return checked_driver(
            lambda x, z: b * z + bump(x), lipschitz_z=abs(b), bound_at_zero=BUMP_SUP
        )
    if name == "tanh_z_plus_bump":
        a = float(cfg.get("scale", 0.5))
        return checked_driver(
            lambda x, z: a * np.tanh(z) + bump(x), lipschitz_z=abs(a), bound_at_zero=BUMP_SUP
        )
    lip = float(cfg["lipschitz"])  # dominating
    off = float(cfg["offset"])
    return checked_driver(lambda x, z: lip * np.abs(z) + off + 0.0 * x, lipschitz_z=lip,
                          bound_at_zero=off)


def make_growth_driver(cfg: dict) -> Tuple[Callable, float]:
    """Continuous driver and its linear growth constant, for the relaxed solver.

    Names: ``tanh_z_plus_bump`` (scale), ``sqrt_z_plus_bump`` (slope; square
    root in the gradient, so continuous but not Lipschitz at zero).
    """
    name, cfg = _entry("growth driver", cfg,
                       {"tanh_z_plus_bump": ("scale",), "sqrt_z_plus_bump": ("slope",)})
    if name == "tanh_z_plus_bump":
        a = float(cfg.get("scale", 0.5))
        return (lambda x, z: a * np.tanh(z) + bump(x)), abs(a) + BUMP_SUP
    c = float(cfg.get("slope", 0.5))
    # c*sqrt(|z|) <= (c/2)(1 + |z|)
    return (lambda x, z: c * np.sqrt(np.abs(z)) + bump(x)), 0.5 * abs(c) + BUMP_SUP


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
    """Game from a named bundle of :data:`GAME_BUILDERS` and its builder's parameters."""
    params = {n: tuple(inspect.signature(b).parameters) for n, b in GAME_BUILDERS.items()}
    name, cfg = _entry("game", cfg, params)
    return GAME_BUILDERS[name](**cfg)

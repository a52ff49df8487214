"""Shared fixtures: the reference model and cheap pre-solved objects.

Session scope keeps the expensive solves to one run each; everything here is
deterministic, so sharing cannot couple tests.
"""

import math

import numpy as np
import pytest

import ergodic_games as eg
from ergodic_games.ebsde import nearest_node, node_lookup

# Gauss-Hermite (n=160) values of E[x^2/(1+x^2)] under N(mu, 1)
E_BUMP_STANDARD = 0.344320457621876  # mu = 0
E_BUMP_SHIFTED = 0.41666490095557396  # mu = sqrt(2)/2


@pytest.fixture(scope="session")
def model():
    return eg.ou_model()


@pytest.fixture(scope="session")
def g0():
    return eg.quadratic_decoupled()


@pytest.fixture(scope="session")
def coarse_grid():
    return eg.Grid1D(-6.0, 6.0, 81)


@pytest.fixture(scope="session")
def mid_grid():
    return eg.Grid1D(-6.0, 6.0, 151)


@pytest.fixture(scope="session")
def g0_nash_coarse(model, g0, coarse_grid):
    nash = eg.picard_solve(model, g0, coarse_grid, tol=1e-4)
    assert nash.converged
    return nash


@pytest.fixture(scope="session")
def bump_solution_mid(model, mid_grid):
    driver = eg.make_driver({"name": "bump"})
    return eg.solve_ergodic(model, driver, mid_grid, tol=1e-8)


def policy_of_constant_control(spec, grid, index):
    """Joint policy playing one fixed control index at every node."""
    m = grid.m
    idx = np.full((m, spec.n_players), index, dtype=int)
    return eg.FeedbackPolicy(nodes=grid.nodes(), indices=idx)


def continuous_control(x, z):
    """Driver of ``quadratic_decoupled``'s symmetric continuous-control equilibrium.

    The game's pointwise Nash control is ``clip(-z/2, +-1)`` in closed form, so
    that equilibrium solves one ergodic equation with this driver: its constant
    is the oracle of the control-grid error.
    """
    u = np.clip(-0.5 * z, -1.0, 1.0)
    return 2.0 * z * u + u**2 + eg.bump(x)


def euler_reference(model, step, normals, drift=None):
    """States of paths driven by ``normals`` (one row per path), shape ``(paths,
    steps + 1)``, stepped by a plain loop in the path engine's order of operations.

    ``drift = (nodes, rows)`` adds ``sigma * rows[j][i]`` to path ``j``'s steps,
    ``i`` the nearest node of its state.  Fed the normals of a path's key, this
    is the bitwise reference for the engine's keying and stepping.
    """
    dw = np.array(normals, dtype=float).T  # time-major, as the engine steps
    dw *= model.sigma
    dw *= math.sqrt(step)
    states = np.empty((len(dw) + 1, dw.shape[1]))
    states[0] = model.x0
    if drift is not None:
        nodes, rows = drift
        lookup, shift = node_lookup(nodes), model.sigma * np.asarray(rows, dtype=float)
    for k, x in enumerate(states[:-1]):
        nxt = x * model.lin_drift
        if model.bounded_drift_sup != 0.0:
            nxt += model.bounded_drift(x)
        if drift is not None:
            nxt += shift[np.arange(len(x)), nearest_node(x, lookup)]
        nxt *= step
        nxt += x
        nxt += dw[k]
        states[k + 1] = nxt
    return states.T

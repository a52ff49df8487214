"""Static game layer: Hamiltonians, pointwise Nash search, tie-breaking."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ergodic_games as eg
from ergodic_games import games, picard
from ergodic_games._samples import check_states
from ergodic_games.catalog import BUMP_LIP, BUMP_SUP, bump
from ergodic_games.ebsde import nearest_node, node_lookup
from ergodic_games.sde import path_stream

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def _pennies():
    # opposed bilinear costs on {-1, 1}: no joint control is unilaterally stable
    g = eg.ControlGrid(np.array([-1.0, 1.0]))
    return eg.GameSpec(
        grids=(g, g),
        drift_map=lambda u, v: 0.0 * u + 0.0 * v,
        costs=(lambda x, u, v: u * v + 0.0 * x, lambda x, u, v: -u * v + 0.0 * x),
        cost_sup=1.0,
        cost_x_lip=0.0,
        name="pennies",
    )


def test_control_grid_validation():
    with pytest.raises(ValueError):
        eg.ControlGrid(np.array([]))
    with pytest.raises(ValueError):
        eg.ControlGrid(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        eg.ControlGrid(np.array([0.0, np.inf]))
    # index order is value order: a grid must be strictly ascending
    with pytest.raises(ValueError, match="strictly ascending"):
        eg.ControlGrid(np.array([1.0, 0.0, -1.0]))
    assert len(eg.ControlGrid.uniform(-1.0, 1.0, 5)) == 5


def test_control_grid_rejects_vector_points():
    with pytest.raises(ValueError, match="scalars"):
        eg.ControlGrid(np.array([[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]]))


def test_game_spec_rejects_non_broadcasting_callables():
    g = eg.ControlGrid.uniform(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="broadcast"):
        # one value per player-1 control only: (5, 3) does not broadcast to (5, 5)
        eg.GameSpec(
            grids=(g, g), drift_map=lambda u, v: u + v,
            costs=(lambda x, u, v: u**2, lambda x, u, v: np.zeros((5, 3))),
            cost_sup=1.0, cost_x_lip=0.0,
        )
    with pytest.raises(ValueError, match="broadcast"):
        # a vector drift per joint control
        eg.GameSpec(
            grids=(g, g), drift_map=lambda u, v: np.stack([u, v], axis=-1),
            costs=(lambda x, u, v: u**2, lambda x, u, v: v**2),
            cost_sup=1.0, cost_x_lip=0.0,
        )
    with pytest.raises(ValueError, match="broadcast"):
        # fine at a lone state but not on a block of states: block calls are
        # validated too
        eg.GameSpec(
            grids=(g, g), drift_map=lambda u, v: u + v,
            costs=(lambda x, u, v: u**2 + (np.zeros(7) if np.ndim(x) else 0.0),
                   lambda x, u, v: v**2),
            cost_sup=1.0, cost_x_lip=0.0,
        )


def test_game_spec_validation(g0):
    assert g0.n_players == 2
    assert g0.product_size() == 41 * 41
    with pytest.raises(ValueError, match="one cost per player"):
        eg.GameSpec(
            grids=g0.grids, drift_map=g0.drift_map,
            costs=(g0.costs[0],), cost_sup=2.0, cost_x_lip=BUMP_LIP,
        )


def test_game_spec_rejects_understated_bounds():
    g = eg.ControlGrid.uniform(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match="cost_sup"):
        eg.GameSpec(
            grids=(g, g), drift_map=lambda u, v: u + v,
            costs=(lambda x, u, v: u**2 + 5.0, lambda x, u, v: v**2),
            cost_sup=1.0, cost_x_lip=0.0,
        )
    with pytest.raises(ValueError, match="cost_x_lip"):
        eg.GameSpec(
            grids=(g, g), drift_map=lambda u, v: u + v,
            costs=(lambda x, u, v: u**2 + x, lambda x, u, v: v**2),
            cost_sup=1e9, cost_x_lip=0.1,
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_game_spec_rejects_non_finite_drift(bad):
    # a NaN bound would make every comparison against drift_bound pass
    g = eg.ControlGrid.uniform(-1.0, 1.0, 5)
    with pytest.raises(ValueError, match=r"drift_map .* joint control \(0\.5, -1\.0\)"):
        eg.GameSpec(
            grids=(g, g), drift_map=lambda u, v: np.where(u == 0.5, bad, u + v),
            costs=(lambda x, u, v: u**2, lambda x, u, v: v**2),
            cost_sup=1.0, cost_x_lip=0.0,
        )


def _first_failure(grids, costs, cost_sup, cost_x_lip):
    """The cost checks as a loop over single states: the first ``(player, bound, x)``
    that fails, the bound on ``|cost_i(x)|`` before the Lipschitz bound at (x, y)."""
    mesh = np.meshgrid(*[g.points for g in grids], indexing="ij", sparse=True)
    xs = check_states(games._CHECK_SAMPLES, 0).tolist()
    ys = check_states(games._CHECK_SAMPLES, 1).tolist()
    for i, cost in enumerate(costs):
        for x, y in zip(xs, ys):
            cx = np.asarray(cost(x, *mesh), dtype=float)
            cy = np.asarray(cost(y, *mesh), dtype=float)
            if not np.all(np.abs(cx) <= cost_sup * (1.0 + 1e-9) + 1e-12):
                return i, "cost_sup", x
            lip = cost_x_lip * abs(x - y)
            if not np.all(np.abs(cx - cy) <= lip + 1e-9 * (1.0 + lip) + 1e-12):
                return i, "cost_x_lip", x
    return None


_BREAKS = {
    # |cost| exceeds cost_sup = 1 only beyond |x| = 5, Lipschitz in x with constant 1
    "sup_beyond_5": (lambda x: np.clip(np.abs(x) - 5.0, 0.0, None), 1.0, 1.0),
    # bounded by 1.5 but steeper in x than cost_x_lip = 0.2
    "lipschitz": (lambda x: 0.5 * np.sin(x), 1.5, 0.2),
    # NaN above x = 4 fails the bound on |cost|
    "nan_above_4": (lambda x: np.where(x > 4.0, np.nan, 0.0), 1.0, 0.0),
}


@pytest.mark.parametrize("n_players, n_controls", [(1, 5), (2, 41), (3, 21)])
@pytest.mark.parametrize("brk", list(_BREAKS))
def test_cost_checks_name_the_first_failing_state(n_players, n_controls, brk):
    # blocks of states (one state, then as many as one joint table holds) report
    # the same first failure as checking one state at a time; the last player's
    # cost carries the break
    extra, cost_sup, cost_x_lip = _BREAKS[brk]
    grids = (eg.ControlGrid.uniform(-1.0, 1.0, n_controls),) * n_players
    costs = tuple((lambda x, *u, i=i: u[i] ** 2 + 0.0 * x) for i in range(n_players - 1))
    costs += (lambda x, *u: u[-1] ** 2 + extra(x),)
    player, bound, x = _first_failure(grids, costs, cost_sup, cost_x_lip)
    assert player == n_players - 1
    assert bound == ("cost_x_lip" if brk == "lipschitz" else "cost_sup")
    assert brk != "sup_beyond_5" or abs(x) > 5.0
    with pytest.raises(ValueError, match=rf"cost_{player}\b.*{bound}=") as exc:
        eg.GameSpec(grids=grids, drift_map=lambda *u: sum(u), costs=costs,
                    cost_sup=cost_sup, cost_x_lip=cost_x_lip)
    assert f" x={x:.6g}" in str(exc.value), (str(exc.value), x)


@pytest.mark.parametrize("field", ["cost_sup", "cost_x_lip"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_game_spec_rejects_non_finite_declared_constants(field, bad):
    # a NaN bound would pass every sampled comparison
    g = eg.ControlGrid.uniform(-1.0, 1.0, 5)
    kwargs = {"cost_sup": 1.0, "cost_x_lip": 0.0, field: bad}
    with pytest.raises(ValueError, match=f"{field}={bad!r}"):
        eg.GameSpec(grids=(g, g), drift_map=lambda u, v: u + v,
                    costs=(lambda x, u, v: u**2, lambda x, u, v: v**2), **kwargs)


def test_coupled_game_checks_hold_few_joint_tables():
    # every cost depends on all three controls, so one state's compact cost array
    # is a whole joint table and the checks go one state at a time; a block of
    # all 64 states would hold 64 tables
    g = eg.ControlGrid.uniform(-1.0, 1.0, 41)
    table = 8 * 41**3

    def build():
        return eg.GameSpec(
            grids=(g, g, g), drift_map=lambda u, v, w: u + v + w,
            costs=tuple((lambda x, u, v, w, c=c: c * u * v * w + bump(x))
                        for c in (0.5, 0.25, 0.125)),
            cost_sup=0.5 + BUMP_SUP, cost_x_lip=BUMP_LIP)

    build()  # first calls allocate once-only caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * table + 2**20, (peak, table)


@settings(max_examples=60, deadline=None)
@given(x=finite, z=finite, i0=st.integers(0, 40), i1=st.integers(0, 40),
       player=st.integers(0, 1))
def test_hamiltonian_matches_definition(g0, x, z, i0, i1, player):
    u = (i0, i1)
    vals = g0.control_values(u)
    expected = z * float(g0.drift_map(*vals)) + float(g0.costs[player](x, *vals))
    assert eg.hamiltonian(g0, player, x, z, u) == expected


def test_hamiltonian_validates_joint_control(g0):
    with pytest.raises(ValueError):
        eg.hamiltonian(g0, 0, 0.0, 0.0, (0,))
    with pytest.raises(ValueError):
        eg.hamiltonian(g0, 0, 0.0, 0.0, (0, 99))


@pytest.mark.parametrize("player", [-1, 2])
def test_hamiltonian_validates_player(g0, player):
    # -1 used to read player 1's cost, and 2 failed with a bare IndexError
    with pytest.raises(ValueError, match=f"player index {player} out of range"):
        eg.hamiltonian(g0, player, 0.3, 1.0, (3, 7))


@settings(max_examples=40, deadline=None)
@given(z0=finite, z1=finite, x=finite)
@example(z0=0.0, z1=0.25, x=14.0)  # controls -0.15 and -0.1 tie before rounding
def test_decoupled_nash_matches_per_player_argmin(g0, z0, z1, x):
    # with decoupled quadratic costs each player minimizes z_i * (u + v) + u^2
    # + bump(x) over the grid, v the other player's control; the oracle rounds
    # as the library does: drift times z, plus the cost table
    u = eg.isaac_fixed_point(g0, x, (z0, z1))
    pts = g0.grids[0].points
    vals = g0.control_values(u)
    for i, z in enumerate((z0, z1)):
        h = z * (pts + vals[1 - i]) + (pts**2 + bump(x))
        assert h[u[i]] == h.min()
        # ascending grid: the smallest-valued minimiser has the smallest index
        assert u[i] == np.flatnonzero(h == h.min())[0]


def test_tie_breaks_toward_smaller_control_value():
    g = eg.ControlGrid(np.array([-1.0, 1.0]))
    spec = eg.GameSpec(
        grids=(g,), drift_map=lambda u: u,
        costs=(lambda x, u: u**2 + 0.0 * x,), cost_sup=1.0, cost_x_lip=0.0,
    )
    # z = 0: both controls give H = 1, the smaller value wins
    assert eg.isaac_fixed_point(spec, 0.0, (0.0,)) == (0,)


def _stable_controls(spec, x, z):
    """Every joint control no player can improve on: the argwhere reference for the search."""
    drift = spec.drift_table()
    dense = np.meshgrid(*[g.points for g in spec.grids], indexing="ij")
    mask = np.ones(drift.shape, dtype=bool)
    for i in range(spec.n_players):
        h = float(z[i]) * drift + spec.costs[i](x, *dense)
        mask &= h <= h.min(axis=i, keepdims=True)
    return [tuple(int(j) for j in row) for row in np.argwhere(mask)]


def _value_key(spec, u):
    return tuple(float(g.points[j]) for g, j in zip(spec.grids, u))


def _tie_game():
    # at z = 0 the controls -0.5 and 0.5 tie exactly for each player
    g = eg.ControlGrid(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    return eg.GameSpec(
        grids=(g, g), drift_map=lambda u, v: u + v,
        costs=(lambda x, u, v: (u * u - 0.25) ** 2 + 0.0 * v + 0.0 * x,
               lambda x, u, v: (v * v - 0.25) ** 2 + 0.0 * u + 0.0 * x),
        cost_sup=2.0, cost_x_lip=0.0, name="tie",
    )


def _three_player(sizes, drift_map=lambda u, v, w: u + v + w, coupled=False, state=True):
    # own quadratic costs on uniform grids of [-1, 1]; ``coupled`` adds uv/4 to the first
    # two costs, and ``state=False`` drops the bump, so the costs ignore the state
    b = bump if state else (lambda x: 0.0)
    c = (lambda u, v: 0.25 * u * v) if coupled else (lambda u, v: 0.0)
    return eg.GameSpec(
        grids=tuple(eg.ControlGrid.uniform(-1.0, 1.0, m) for m in sizes), drift_map=drift_map,
        costs=(lambda x, u, v, w: u**2 + c(u, v) + b(x),
               lambda x, u, v, w: v**2 + c(u, v) + b(x),
               lambda x, u, v, w: w**2 + b(x)),
        cost_sup=1.25 + BUMP_SUP, cost_x_lip=BUMP_LIP if state else 0.0,
    )


# (game, player-0 column classes or None, columns)
_CLASSED_GAMES = {
    "decoupled": (eg.quadratic_decoupled, None, 41),
    "coupled": (eg.coupled_cross_cost, None, 41),
    "tie": (_tie_game, None, 5),
    "three_player": (lambda: eg.three_player_symmetric(n_controls=9), 17, 81),
    "three_player_41": (lambda: eg.three_player_symmetric(n_controls=41), 781, 1681),
    "unequal_grids": (lambda: _three_player((5, 7, 4)), 22, 28),
    # the drift repeats its columns, but cost 0 reads player 1's control
    "cost_reads_others": (lambda: _three_player((5, 7, 4), coupled=True), None, 28),
    "stateless_cost": (lambda: _three_player((7, 7, 7), state=False), 34, 49),
    # a drift that ignores player 2: its compact table has one column per v
    "drift_ignores_w": (lambda: _three_player((5, 7, 4), lambda u, v, w: u + v), 7, 28),
}


@pytest.mark.parametrize("name", list(_CLASSED_GAMES))
def test_player0_column_classes(name):
    # the first column of each class, ascending, and each column's class: columns of a
    # class are bitwise equal, and columns of different classes differ
    build, n_classes, n_columns = _CLASSED_GAMES[name]
    spec = build()
    classes = getattr(spec, "_classes")
    if n_classes is None:
        assert classes is None
        return
    reps, cls = classes
    assert reps.dtype == cls.dtype == np.intp
    assert (len(reps), len(cls)) == (n_classes, n_columns)
    assert np.all(np.diff(reps) > 0) and np.array_equal(cls[reps], np.arange(n_classes))
    bits = spec.drift_table().reshape(len(spec.grids[0]), -1).view(np.int64)
    np.testing.assert_array_equal(bits[:, reps[cls]], bits)
    assert len(np.unique(bits[:, reps], axis=1).T) == n_classes


@pytest.mark.parametrize("name", list(_CLASSED_GAMES))
def test_search_matches_argwhere_reference(name):
    # the reference takes the smallest value key over all stable controls;
    # the one-pass search must pick the same control, ties included
    spec = _CLASSED_GAMES[name][0]()
    rng = np.random.default_rng(5)
    ties = 0
    for k in range(120):
        x = float(rng.normal(scale=3.0))
        size = (spec.n_players, 1)
        # every other z on a lattice of quarters, where minimisers tie before rounding
        z = rng.normal(scale=2.0, size=size) if k % 2 else 0.25 * rng.integers(-4, 5, size=size)
        z = tuple(z[:, 0])
        hits = _stable_controls(spec, x, z)
        ties += len(hits) > 1
        assert eg.isaac_fixed_point(spec, x, z) == min(hits, key=lambda u: _value_key(spec, u))
    assert ties > 0


def test_search_raises_where_rounding_leaves_no_stable_control():
    # z_0 = z_1 = 1.25 put players 0 and 1 half way between two grid points, and
    # after rounding no joint control is stable at this state
    spec = eg.three_player_symmetric(n_controls=41)
    x, z = 0.5, (1.25, 1.25, 0.75)
    assert _stable_controls(spec, x, z) == []
    with pytest.raises(eg.NoPureNashError) as exc:
        eg.isaac_fixed_point(spec, np.array([1.0, x]), np.array([z, z]))
    assert (exc.value.x, exc.value.z) == (x, z)


def test_search_matches_reference_above_a_million_joint_points():
    # 101^3 joint controls: grids above a million points take the same search and tie rule
    spec = eg.three_player_symmetric(n_controls=101)
    assert spec.product_size() > 1_000_000
    rng = np.random.default_rng(1)  # two of its lattice draws tie after rounding
    ties = 0
    for k in range(8):
        x = float(rng.normal(scale=3.0))
        # every other z on a lattice of quarters, where minimisers tie before rounding
        z = rng.normal(scale=2.0, size=3) if k % 2 else 0.25 * rng.integers(-8, 9, size=3)
        z = tuple(float(v) for v in z)
        hits = _stable_controls(spec, x, z)
        ties += len(hits) > 1
        assert eg.isaac_fixed_point(spec, x, z) == min(hits, key=lambda u: _value_key(spec, u))
    assert ties > 0


def test_search_matches_reference_on_a_picard_solve(model, monkeypatch):
    # every (x, z) the loop searches in the three-player solve at 41^3 joint controls
    # and m=101, where player 0's rows leave the others a small sub-box
    seen = []
    search = picard.isaac_fixed_point

    def recorded(spec, x, z):
        u = search(spec, x, z)
        seen.extend((float(xk), tuple(zk), tuple(int(j) for j in uk))
                    for xk, zk, uk in zip(x, z, u))
        return u

    monkeypatch.setattr(picard, "isaac_fixed_point", recorded)
    spec = eg.three_player_symmetric(n_controls=41)
    nash = eg.picard_solve(model, spec, eg.Grid1D(-6.0, 6.0, 101))
    assert nash.converged and len(seen) >= 101
    for x, z, u in seen:
        assert u == min(_stable_controls(spec, x, z), key=lambda v: _value_key(spec, v))


def _one_player():
    # H = z * u + u^2 + bump(x): on the quarter lattice -z/2 falls half way between
    # grid points, where two controls tie before rounding
    return eg.GameSpec(
        grids=(eg.ControlGrid.uniform(-1.0, 1.0, 41),), drift_map=lambda u: u,
        costs=(lambda x, u: u**2 + bump(x),), cost_sup=1.0 + BUMP_SUP, cost_x_lip=BUMP_LIP,
    )


def _switched_pennies():
    # H_0 = u (z_0 + v) and H_1 = v (z_1 - u) on {-1, 1}: matching pennies at z = 0,
    # while z_0 = 5 fixes u = -1 and leaves (-1, -1) stable
    g = eg.ControlGrid(np.array([-1.0, 1.0]))
    return eg.GameSpec(
        grids=(g, g), drift_map=lambda u, v: u + v,
        costs=(lambda x, u, v: u * v + 0.0 * x, lambda x, u, v: -u * v + 0.0 * x),
        cost_sup=1.0, cost_x_lip=0.0, name="switched pennies",
    )


@pytest.mark.parametrize("build, floats", [
    (_one_player, 512),  # a one-player row is one float: the default holds 32,768 of them
    (eg.quadratic_decoupled, None),
    (eg.quadratic_decoupled, 512),
    (eg.coupled_cross_cost, None),
    (eg.coupled_cross_cost, 512),
    (lambda: eg.three_player_symmetric(n_controls=9), None),
    (lambda: eg.three_player_symmetric(n_controls=9), 512),
], ids=["one_player", "decoupled", "decoupled_small_chunks", "coupled", "coupled_small_chunks",
        "three_player", "three_player_small_chunks"])
def test_batch_equals_scalar_calls_row_by_row(build, floats, monkeypatch):
    spec = build()
    n, k = spec.n_players, 900
    rng = np.random.default_rng(11)
    x = rng.normal(scale=3.0, size=k)
    x[::3] = 0.25 * rng.integers(-12, 13, size=len(x[::3]))
    z = rng.normal(scale=2.0, size=(k, n))
    # every other row on a lattice of quarters, where minimisers tie before rounding
    z[::2] = 0.25 * rng.integers(-6, 7, size=(len(z[::2]), n))
    expected = [eg.isaac_fixed_point(spec, float(xk), tuple(zk)) for xk, zk in zip(x, z)]
    ties = 0
    for xk, zk, uk in zip(x[::2], z[::2], expected[::2]):
        hits = _stable_controls(spec, xk, zk)
        ties += len(hits) > 1
        assert uk == min(hits, key=lambda u: _value_key(spec, u))
    assert ties > 0
    if floats is not None:
        monkeypatch.setattr(games, "_SEARCH_FLOATS", floats)
    # every node keeps at least one row, so more nodes than either chunk holds
    # makes both passes run over several chunks
    size, floats = spec.product_size(), games._SEARCH_FLOATS
    assert k > max(1, floats // size) and k > max(1, floats * len(spec.grids[0]) // size)
    u = eg.isaac_fixed_point(spec, x, z)
    assert u.shape == (k, n) and u.dtype == np.intp
    assert [tuple(uk) for uk in u] == expected
    empty = eg.isaac_fixed_point(spec, np.empty(0), np.empty((0, n)))
    assert empty.shape == (0, n) and empty.dtype == np.intp


def test_batch_rejects_misshapen_gradients(g0):
    with pytest.raises(ValueError, match="shape"):
        eg.isaac_fixed_point(g0, np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="shape"):
        eg.isaac_fixed_point(g0, np.zeros(3), np.zeros((2, 2)))


@pytest.mark.parametrize("floats", [None, 4], ids=["one_chunk", "one_node_chunks"])
def test_batch_raises_for_its_first_row_without_pure_nash(floats, monkeypatch):
    spec = _switched_pennies()
    assert eg.isaac_fixed_point(spec, 0.0, (5.0, 0.0)) == (0, 0)
    if floats is not None:
        # one node per player-0 chunk: the later players run on nodes 0-1, then 2
        monkeypatch.setattr(games, "_SEARCH_FLOATS", floats)
    x = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
    z = np.array([[5.0, 0.0], [5.0, 0.0], [0.0, 0.0], [5.0, 0.0], [0.0, 0.0]])
    with pytest.raises(eg.NoPureNashError) as exc:
        eg.isaac_fixed_point(spec, x, z)
    assert (exc.value.x, exc.value.z) == (2.5, (0.0, 0.0))
    assert type(exc.value.x) is float and all(type(v) is float for v in exc.value.z)
    assert str(exc.value).endswith("at x=2.5, z=(0.0, 0.0)")
    np.testing.assert_array_equal(eg.isaac_fixed_point(spec, x[[0, 1, 3]], z[[0, 1, 3]]),
                                  [[0, 0]] * 3)
    # the search itself flags the rows without a stable control and keeps the others
    controls, stable = games._search(spec, x, z)
    np.testing.assert_array_equal(stable, [True, True, False, True, False])
    assert [tuple(u) for u in controls[stable]] == [
        eg.isaac_fixed_point(spec, float(xk), tuple(zk)) for xk, zk in zip(x[stable], z[stable])]


def test_picard_failure_names_its_node_in_plain_floats(model):
    with pytest.raises(eg.NoPureNashError) as exc:
        eg.picard_solve(model, _pennies(), eg.Grid1D(-6.0, 6.0, 21))
    assert str(exc.value) == "no pure Nash point on the control grids at x=-6.0, z=(0.0, 0.0)"


@pytest.mark.parametrize("build, k", [
    (eg.coupled_cross_cost, 201),
    (lambda: eg.three_player_symmetric(n_controls=41), 101),
    (lambda: _three_player((41, 41, 41), lambda u, v, w: u + v), 101),
], ids=["two_player", "three_player", "drift_ignores_w"])
def test_batch_search_memory_is_bounded(build, k):
    # player 0's pass holds a chunk of joint tables and the later players' pass a
    # chunk of rows, in one buffer: all 201 nodes' kept rows at once in the coupled
    # game, or all 101 joint tables at once, would be several times this bound; a
    # drift that ignores player 2 is read from its compact table, so neither pass
    # copies the whole joint table
    spec = build()
    rng = np.random.default_rng(3)
    x, z = np.linspace(-6.0, 6.0, k), rng.normal(scale=2.0, size=(k, spec.n_players))
    eg.isaac_fixed_point(spec, x, z)  # first calls allocate once-only caches
    tracemalloc.start()
    try:
        eg.isaac_fixed_point(spec, x, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unit = 8 * max(spec.product_size(), games._SEARCH_FLOATS)
    assert peak <= 5 * unit, (peak, unit)
    if spec.n_players == 3:
        # player 0 searches 781 class columns, so buffer and class table hold 0.93 of
        # a joint table: a joint-table-sized buffer beside the class table exceeds this
        assert peak <= 1.4 * unit, (peak, unit)


@pytest.mark.parametrize("build", [eg.quadratic_decoupled,
                                   lambda: eg.three_player_symmetric(n_controls=9),
                                   lambda: eg.three_player_symmetric(n_controls=41),
                                   lambda: _three_player((5, 7, 4))],
                         ids=["two_player", "three_player", "three_player_41", "unequal_grids"])
def test_nan_gradient_or_state_has_no_pure_nash(build):
    # a NaN z_0, or a NaN cost for player 0, leaves player 0 no row to search;
    # a NaN z_i for a later player marks nothing on the rows
    spec = build()
    good = (0.25,) * spec.n_players
    for i in range(spec.n_players):
        z = [0.25] * spec.n_players
        z[i] = np.nan
        with pytest.raises(eg.NoPureNashError):
            eg.isaac_fixed_point(spec, 0.0, tuple(z))
        # in a batch, after a row that has one
        with pytest.raises(eg.NoPureNashError) as exc:
            eg.isaac_fixed_point(spec, np.array([0.0, 1.0]), np.array([good, z]))
        assert exc.value.x == 1.0 and np.isnan(exc.value.z[i])
    with pytest.raises(eg.NoPureNashError):
        eg.isaac_fixed_point(spec, np.nan, good)
    with pytest.raises(eg.NoPureNashError) as exc:
        eg.isaac_fixed_point(spec, np.array([0.0, np.nan]), np.array([good, good]))
    assert np.isnan(exc.value.x) and exc.value.z == good


def test_unsorted_grid_tie_goes_to_smallest_values():
    spec = _tie_game()
    assert spec.control_values(eg.isaac_fixed_point(spec, 0.0, (0.0, 0.0))) == [-0.5, -0.5]


def test_no_pure_nash_raises():
    spec = _pennies()
    with pytest.raises(eg.NoPureNashError):
        eg.isaac_fixed_point(spec, 0.0, (0.0, 0.0))


def test_verify_isaacs_on_bundled_games(g0):
    rep = eg.verify_isaacs(g0, n_samples=200, delta=1e-3, seed=0)
    assert rep.fraction_with_pure_nash == 1.0
    assert rep.n_failures == 0
    assert rep.max_continuity_jump < 0.05

    coupled = eg.coupled_cross_cost(n_controls=21)
    rep2 = eg.verify_isaacs(coupled, n_samples=200, delta=1e-3, seed=0)
    assert rep2.fraction_with_pure_nash == 1.0


def test_verify_isaacs_records_failures():
    rep = eg.verify_isaacs(_pennies(), n_samples=20, seed=0)
    assert rep.fraction_with_pure_nash == 0.0
    assert rep.n_failures == 20
    assert len(rep.example_failures) == 5


def test_verify_isaacs_counts_failures_at_the_perturbed_gradient():
    # every first search succeeds and every NaN-perturbed one fails; such a sample
    # used to count as a hit while listed among the failures
    rep = eg.verify_isaacs(eg.quadratic_decoupled(), n_samples=5, delta=np.nan, seed=0)
    assert rep.fraction_with_pure_nash == 0.0
    assert rep.n_failures == 5
    assert len(rep.example_failures) == 5


def _verify_isaacs_reference(spec, n_samples, delta, seed):
    """verify_isaacs one sample at a time: two lone searches, then scalar Hamiltonians."""
    rng = path_stream(seed, 0x15AAC)
    hits, max_jump, failures = 0, 0.0, []
    for _ in range(n_samples):
        x = float(rng.normal(scale=2.0))
        z = tuple(float(rng.normal(scale=2.0)) for _ in range(spec.n_players))
        direction = np.sign(rng.standard_normal(len(z))).tolist()
        z_near = tuple(z_i + delta * d for z_i, d in zip(z, direction))
        try:
            u = eg.isaac_fixed_point(spec, x, z)
            try:
                u_near = eg.isaac_fixed_point(spec, x, z_near)
            except eg.NoPureNashError:
                failures.append((x, z_near))
                continue
        except eg.NoPureNashError:
            failures.append((x, z))
            continue
        hits += 1
        max_jump = max(max_jump, max(
            abs(eg.hamiltonian(spec, i, x, z_near[i], u_near) - eg.hamiltonian(spec, i, x, z[i], u))
            for i in range(spec.n_players)))
    return eg.IsaacsReport(fraction_with_pure_nash=hits / n_samples, max_continuity_jump=max_jump,
                           n_samples=n_samples, delta=delta, n_failures=n_samples - hits,
                           example_failures=tuple(failures[:5]))


@pytest.mark.parametrize("build", [eg.quadratic_decoupled, eg.coupled_cross_cost,
                                   eg.three_player_symmetric, _pennies, _switched_pennies],
                         ids=["decoupled", "coupled", "three_player", "pennies",
                              "switched_pennies"])
@pytest.mark.parametrize("delta", [0.0, 1e-3, np.nan], ids=["zero", "small", "nan"])
def test_verify_isaacs_equals_the_per_sample_reference(build, delta):
    spec = build()
    rep = eg.verify_isaacs(spec, n_samples=120, delta=delta, seed=7)
    ref = _verify_isaacs_reference(spec, 120, delta, 7)
    # every field, NaN delta included, and the failures as plain floats
    assert repr(rep) == repr(ref)
    assert type(rep.max_continuity_jump) is float
    for x, z in rep.example_failures:
        assert type(x) is float and all(type(v) is float for v in z)
    if build is _switched_pennies and delta == 1e-3:
        # its z draws give hits and failures together
        assert 0 < rep.n_failures < rep.n_samples and rep.max_continuity_jump > 0.0


@pytest.mark.parametrize("build", [_pennies, _switched_pennies])
def test_verify_isaacs_blocks_keep_every_bit(monkeypatch, build):
    # blocks of 7 samples: the stream is drawn in the same order, and the failures
    # and the largest jump are collected across blocks
    spec = build()
    whole = eg.verify_isaacs(spec, n_samples=45, seed=3)
    monkeypatch.setattr(games, "_ISAACS_BLOCK", 7)
    assert repr(eg.verify_isaacs(spec, n_samples=45, seed=3)) == repr(whole)
    assert len(whole.example_failures) == 5


def test_verify_isaacs_memory_is_flat_in_the_samples():
    spec = eg.three_player_symmetric(21)
    tracemalloc.start()
    try:
        eg.verify_isaacs(spec, n_samples=30_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # drawn and searched whole, the samples peaked at 11.6 MB; a block of them at 0.9 MB
    assert peak <= 3e6, peak


@pytest.mark.parametrize("n_samples", [0, -3])
def test_verify_isaacs_needs_a_sample(g0, n_samples):
    # no sample used to read as a full pure-Nash fraction (1.0, or -0.0 for -3)
    with pytest.raises(ValueError, match=f"n_samples must be at least 1, got {n_samples}"):
        eg.verify_isaacs(g0, n_samples=n_samples)


def test_drift_table_cached(g0):
    t1 = g0.drift_table()
    assert g0.drift_table() is t1
    assert t1.shape == (41, 41)
    # drift of (u, v) is u + v
    assert t1[0, 0] == -2.0 and t1[-1, -1] == 2.0


def test_verify_isaacs_memory_bounded():
    spec = eg.three_player_symmetric(n_controls=41)
    tracemalloc.start()
    try:
        eg.verify_isaacs(spec, n_samples=300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense 41^3 table is 0.55 MB; caching one per sampled state peaked above 500 MB
    assert peak < 8e6, peak


def test_feedback_policy_lookup():
    nodes = np.linspace(-1.0, 1.0, 5)
    idx = np.arange(10).reshape(5, 2) % 3
    pol = eg.FeedbackPolicy(nodes=nodes, indices=idx)
    assert pol.n_players == 2
    lookup = node_lookup(pol.nodes)
    assert nearest_node(-2.0, lookup) == 0  # clamped
    assert nearest_node(2.0, lookup) == 4
    assert nearest_node(0.26, lookup) == 3  # nearest of 0.0 / 0.5
    np.testing.assert_array_equal(nearest_node(np.array([-1.0, 1.0]), lookup), [0, 4])


def test_with_player_indices_copies():
    nodes = np.linspace(-1.0, 1.0, 5)
    pol = eg.FeedbackPolicy(nodes=nodes, indices=np.zeros((5, 2), dtype=int))
    for bad in (np.zeros(5, dtype=int), np.zeros((4, 2), dtype=int)):
        with pytest.raises(ValueError, match="n_nodes, n_players"):
            eg.FeedbackPolicy(nodes=nodes, indices=bad)
    new = pol.with_player_indices(1, np.ones(5, dtype=int))
    assert np.all(new.indices[:, 1] == 1)
    assert np.all(pol.indices[:, 1] == 0)


@pytest.mark.parametrize("nodes", [[-2.0, -1.0, 1.0, 2.0], [2.0, 1.0, 0.0, -1.0]],
                         ids=["non_uniform", "descending"])
def test_node_grids_the_lookup_misreads_are_rejected(nodes):
    # the lookup reads a grid off its first two nodes: on [-2, -1, 1, 2] the
    # state 0.8 would go to node 3, not to node 2
    with pytest.raises(ValueError, match="strictly ascending, equally spaced"):
        node_lookup(nodes)
    with pytest.raises(ValueError, match="strictly ascending, equally spaced"):
        eg.FeedbackPolicy(nodes=nodes, indices=np.zeros((4, 2), dtype=int))


def test_an_empty_node_grid_is_rejected():
    # both used to fail with a bare IndexError from the grid's first node
    with pytest.raises(ValueError, match="at least one node: got an empty grid"):
        node_lookup(np.array([]))
    with pytest.raises(ValueError, match="at least one node: got an empty grid"):
        eg.FeedbackPolicy(nodes=[], indices=np.zeros((0, 2)))


def test_uniform_node_grids_are_accepted():
    # linspace rounding stays far below the spacing tolerance; one node is a grid
    for m in (13, 81, 201, 801):
        eg.FeedbackPolicy(nodes=eg.Grid1D(-6.0, 6.0, m).nodes(), indices=np.zeros((m, 2)))
    assert node_lookup(np.linspace(-1e3, 1e3, 1001))[2] == 1000
    pol = eg.FeedbackPolicy(nodes=[0.5], indices=[[3, 1]])
    assert nearest_node(np.array([-9.0, 9.0]), node_lookup(pol.nodes)).tolist() == [0, 0]


@settings(max_examples=100, deadline=None)
@given(x=finite, y=finite)
def test_bump_lipschitz_constant(x, y):
    assert abs(bump(x) - bump(y)) <= BUMP_LIP * abs(x - y) + 1e-12

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


@pytest.mark.parametrize("build", [
    eg.quadratic_decoupled,
    eg.coupled_cross_cost,
    lambda: eg.three_player_symmetric(n_controls=9),
], ids=["decoupled", "coupled", "three_player"])
def test_search_matches_argwhere_reference(build):
    # the reference takes the smallest value key over all stable controls;
    # the one-pass search must pick the same control, ties included
    spec = build()
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
        seen.append((x, z, u))
        return u

    monkeypatch.setattr(picard, "isaac_fixed_point", recorded)
    spec = eg.three_player_symmetric(n_controls=41)
    nash = eg.picard_solve(model, spec, eg.Grid1D(-6.0, 6.0, 101))
    assert nash.converged and len(seen) >= 101
    for x, z, u in seen:
        assert u == min(_stable_controls(spec, x, z), key=lambda v: _value_key(spec, v))


@pytest.mark.parametrize("build", [eg.quadratic_decoupled,
                                   lambda: eg.three_player_symmetric(n_controls=9)],
                         ids=["two_player", "three_player"])
def test_nan_gradient_or_state_has_no_pure_nash(build):
    # a NaN z_0, or a NaN cost for player 0, leaves player 0 no row to search;
    # a NaN z_i for a later player marks nothing on the rows
    spec = build()
    for i in range(spec.n_players):
        z = [0.25] * spec.n_players
        z[i] = np.nan
        with pytest.raises(eg.NoPureNashError):
            eg.isaac_fixed_point(spec, 0.0, tuple(z))
    with pytest.raises(eg.NoPureNashError):
        eg.isaac_fixed_point(spec, np.nan, (0.25,) * spec.n_players)


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

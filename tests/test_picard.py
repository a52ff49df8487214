"""Nash iteration on the bundled games: convergence, bounds, shifts."""

import itertools
import json
import logging
import re
import tracemalloc

import numpy as np
import pytest

import ergodic_games as eg
from ergodic_games import picard


def test_coarse_game_converges(g0_nash_coarse):
    nash = g0_nash_coarse
    assert nash.converged
    assert nash.iterations <= 50
    # symmetric game: both players settle on the same constant
    assert abs(nash.lambdas[0] - nash.lambdas[1]) < 1e-10


def test_comparison_bound_is_cost_sup(model, coarse_grid, g0_nash_coarse):
    assert g0_nash_coarse.comparison == 2.0
    for name in ("quadratic_decoupled", "coupled_cross_cost",
                 "three_player_symmetric"):
        spec = eg.make_game({"name": name})
        # the grid solver agrees: the dominating driver drift_bound*|z| +
        # cost_sup has the exact solution lam = cost_sup with a flat profile
        dominating = eg.make_driver({"name": "dominating", "lipschitz": spec.drift_bound,
                                     "offset": spec.cost_sup})
        sol = eg.solve_ergodic(model, dominating, coarse_grid)
        assert sol.lam == spec.cost_sup
        assert not sol.v.any()


def test_lambdas_respect_comparison_bound(model, g0, coarse_grid, g0_nash_coarse):
    bound = g0_nash_coarse.comparison
    assert bound == g0.cost_sup
    for lam in g0_nash_coarse.lambdas:
        assert lam <= bound + 1e-6


def test_extra_sweep_does_not_move_lambda(model, g0, coarse_grid, g0_nash_coarse):
    xi = np.column_stack([s.xi for s in g0_nash_coarse.solutions])
    again = eg.picard_solve(model, g0, coarse_grid, tol=1e-4, max_iter=1, xi_init=xi)
    # converged stays False (one iterate gives no lambda delta); the fixed
    # point shows in the constants not moving
    assert again.iterations == 1
    for a, b in zip(again.lambdas, g0_nash_coarse.lambdas):
        assert abs(a - b) < 1e-6
    assert again.deltas_history[0]["xi"][0] < 1e-4


def test_xi_init_shape_is_checked(model, g0, coarse_grid):
    with pytest.raises(ValueError, match="xi_init"):
        eg.picard_solve(model, g0, coarse_grid, xi_init=np.zeros((3, 2)))


def test_cost_shift_moves_one_lambda(model, g0, coarse_grid, g0_nash_coarse):
    base_cost = g0.costs[0]
    shifted = eg.GameSpec(
        grids=g0.grids,
        drift_map=g0.drift_map,
        costs=(lambda x, u, v, _b=base_cost: _b(x, u, v) + 1.0,) + g0.costs[1:],
        cost_sup=g0.cost_sup + 1.0,
        cost_x_lip=g0.cost_x_lip,
    )
    nash = eg.picard_solve(model, shifted, coarse_grid, tol=1e-4)
    assert nash.converged
    assert abs((nash.lambdas[0] - g0_nash_coarse.lambdas[0]) - 1.0) < 2e-4
    assert nash.lambdas[1] == pytest.approx(g0_nash_coarse.lambdas[1], abs=2e-4)
    # adding a state-only constant to a cost never changes the argmin
    np.testing.assert_array_equal(nash.policy.indices,
                                  g0_nash_coarse.policy.indices)


def test_coupled_game_converges(model, coarse_grid):
    spec = eg.make_game({"name": "coupled_cross_cost", "coupling": 0.25})
    nash = eg.picard_solve(model, spec, coarse_grid, tol=1e-4)
    assert nash.converged
    assert nash.comparison == spec.cost_sup
    assert all(lam <= nash.comparison + 1e-6 for lam in nash.lambdas)
    # cross cost breaks the symmetry between the value fields and the
    # decoupled solution, but not between the two (symmetric) players
    assert abs(nash.lambdas[0] - nash.lambdas[1]) < 1e-8


def test_iteration_cap_reports_soft_failure(model, g0, coarse_grid):
    nash = eg.picard_solve(model, g0, coarse_grid, tol=1e-12, max_iter=1)
    assert not nash.converged
    assert nash.iterations == 1
    assert len(nash.deltas_history) == 1


def test_iteration_cap_must_allow_one_iteration(model, g0, coarse_grid):
    # with no iteration there is no solution to report
    with pytest.raises(ValueError, match="max_iter"):
        eg.picard_solve(model, g0, coarse_grid, max_iter=0)


@pytest.mark.parametrize("max_iter", [True, 2.5], ids=["bool", "float"])
def test_iteration_cap_must_be_an_integer(model, g0, coarse_grid, max_iter):
    # True used to run one iteration, and 2.5 to fail in range() with a bare TypeError
    with pytest.raises(ValueError, match=f"max_iter must be an integer, got {max_iter!r}"):
        eg.picard_solve(model, g0, coarse_grid, max_iter=max_iter)
    nash = eg.picard_solve(model, g0, coarse_grid, tol=1e-12, max_iter=np.int64(1))
    assert nash.iterations == 1


def test_inner_solver_failure_propagates(model, g0, coarse_grid):
    with pytest.raises(eg.MaxSweepsExceededError):
        eg.picard_solve(model, g0, coarse_grid, tol=1e-4, inner_tol=1e-300)


def test_one_trace_line_per_iteration(model, g0, coarse_grid, caplog):
    with caplog.at_level(logging.INFO, logger="ergodic_games.picard"):
        nash = eg.picard_solve(model, g0, coarse_grid, tol=1e-4)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "ergodic_games.picard" and r.levelno == logging.INFO]
    assert len(lines) == nash.iterations
    assert lines[0].startswith("picard_solve iteration 1: d_lambda=[-, -] d_xi=[")
    assert "policy_changed_nodes=- inner_iterations=[2, 2]" in lines[0]
    # the last iteration only re-verifies the converged policy
    assert lines[-1].endswith("policy_changed_nodes=0 inner_iterations=[1, 1]")
    for line in lines:
        timing = re.search(r" policy_search_s=(\d+\.\d{4}) inner_solve_s=(\d+\.\d{4}) "
                           r"policy_changed_nodes=", line)
        assert timing is not None, line
        # 81 per-node searches take well over the printed resolution
        assert float(timing.group(1)) > 0.0
    report = str(nash.report_dict())
    assert "policy_changed" not in report and "_s=" not in report
    with caplog.at_level(logging.INFO, logger="ergodic_games.picard"):
        eg.asymmetric_solve(model, g0, coarse_grid, 0.1, tol=1e-4, max_iter=1)
    # one loop serves both solvers; the discounted player's d_value marks this solve's line
    assert any(re.search(r"^picard_solve iteration 1: .* d_value=\[-, -\] .* "
                         r"policy_search_s=\d+\.\d{4} inner_solve_s=\d+\.\d{4} "
                         r"policy_changed_nodes=- ", r.getMessage())
               for r in caplog.records)


def test_gathered_frozen_costs_match_stacked_tables(model, coarse_grid):
    from ergodic_games.games import _frozen_tables

    spec = eg.three_player_symmetric(n_controls=9)
    nodes = coarse_grid.nodes()
    idx = np.random.default_rng(2).integers(0, 9, size=(len(nodes), 3))
    r_nodes, c_nodes = _frozen_tables(spec, nodes, idx)
    joint = tuple(idx[:, i] for i in range(3))
    np.testing.assert_array_equal(r_nodes, spec.drift_table()[joint])
    dense = np.meshgrid(*[g.points for g in spec.grids], indexing="ij")
    for i in range(3):
        # the dense cost table at each node, as float
        stacked = np.stack([np.broadcast_to(spec.costs[i](float(x), *dense), dense[0].shape)
                            for x in nodes]).astype(float)
        expected = stacked[(np.arange(len(nodes)),) + joint]
        assert c_nodes[i].dtype == expected.dtype
        np.testing.assert_array_equal(c_nodes[i], expected)


def test_symmetric_game_symmetric_policy(g0, g0_nash_coarse):
    cols = g0_nash_coarse.policy.control_columns(g0)
    np.testing.assert_array_equal(cols[0], cols[1])


@pytest.mark.parametrize("alphas", [(None, None), (None, 0.1), (0.5, 0.5)],
                         ids=["ergodic", "mixed", "discounted"])
def test_nash_csv_roundtrip(model, g0, coarse_grid, tmp_path, alphas):
    # an equilibrium without an ergodic player has no grid in its report
    g0_nash_coarse = eg.picard_solve(model, g0, coarse_grid, tol=1e-4, alphas=alphas)
    out = tmp_path / "run"
    out.mkdir()
    g0_nash_coarse.write(out)
    loaded = eg.NashSolution.read(out)
    assert tuple(loaded.lambdas) == tuple(g0_nash_coarse.lambdas)
    np.testing.assert_array_equal(loaded.policy.indices,
                                  g0_nash_coarse.policy.indices)
    for a, b in zip(loaded.solutions, g0_nash_coarse.solutions):
        np.testing.assert_array_equal(a.v, b.v)
        np.testing.assert_array_equal(a.xi, b.xi)
    assert loaded.grid.m == coarse_grid.m
    assert loaded.grid.dx == coarse_grid.dx
    assert loaded.report_dict() == g0_nash_coarse.report_dict()


def test_nash_read_counts_iterations_from_the_history(g0_nash_coarse, tmp_path):
    g0_nash_coarse.write(tmp_path)
    loaded = eg.NashSolution.read(tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert loaded.iterations == len(loaded.deltas_history) == g0_nash_coarse.iterations
    assert report["iterations"] == loaded.iterations


def test_nash_read_finds_columns_by_header_name(g0_nash_coarse, tmp_path):
    # nash.csv used to be read by column stride, so only write's order would do
    g0_nash_coarse.write(tmp_path)
    rows = [line.split(",") for line in (tmp_path / "nash.csv").read_text().splitlines()]
    (tmp_path / "nash.csv").write_text("".join(",".join(row[::-1]) + "\n" for row in rows))
    loaded = eg.NashSolution.read(tmp_path)
    np.testing.assert_array_equal(loaded.policy.indices, g0_nash_coarse.policy.indices)
    for a, b in zip(loaded.policy_values, g0_nash_coarse.policy_values):
        np.testing.assert_array_equal(a, b)
    assert loaded.report_dict() == g0_nash_coarse.report_dict()


def test_nash_read_rejects_files_that_disagree_on_the_player_count(g0_nash_coarse, tmp_path):
    g0_nash_coarse.write(tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    report["players"] = report["players"][:1]
    (tmp_path / "report.json").write_text(json.dumps(report))
    with pytest.raises(ValueError, match="disagree on the player count"):
        eg.NashSolution.read(tmp_path)


@pytest.mark.parametrize("index, read", [("7.0", 7), ("7.5", None), ("nan", None)])
def test_nash_read_takes_only_whole_control_indices(g0_nash_coarse, tmp_path, index, read):
    # the index columns used to be cast with astype(int), which truncated 7.5 to 7
    g0_nash_coarse.write(tmp_path)
    lines = (tmp_path / "nash.csv").read_text().splitlines()
    at = lines[0].split(",").index("u_2_index")
    row = lines[5].split(",")
    row[at] = index
    lines[5] = ",".join(row)
    (tmp_path / "nash.csv").write_text("\n".join(lines) + "\n")
    if read is None:
        with pytest.raises(ValueError, match="control indices must be finite whole numbers"):
            eg.NashSolution.read(tmp_path)
        return
    loaded = eg.NashSolution.read(tmp_path)
    assert loaded.policy.indices.dtype == int and loaded.policy.indices[4, 1] == read


def test_a_converged_solve_records_no_cycle(g0_nash_coarse):
    assert g0_nash_coarse.cycle is None


def test_asymmetric_solve_mixes_criteria(model, g0, coarse_grid):
    nash = eg.asymmetric_solve(model, g0, coarse_grid, alpha=0.1, tol=1e-4)
    assert nash.converged
    assert nash.alpha == 0.1
    assert nash.lambdas[0] is not None
    assert nash.lambdas[1] is None  # player 2 is scored by discounted value
    rep = nash.report_dict()
    assert rep["players"][0]["kind"] == "ergodic"
    assert rep["players"][1]["kind"] == "discounted"


def test_discount_sweep_approaches_ergodic(model, g0, coarse_grid):
    sweep = eg.vanishing_discount_sweep(model, g0, coarse_grid,
                                        alphas=(0.5, 0.1, 0.02), tol=1e-4)
    assert all(row.status == "ok" for row in sweep.rows)
    errs = [abs(row.alpha_v2_at_ref - row.lambda1) for row in sweep.rows]
    assert errs[-1] < errs[0]


def test_report_dict_carries_convergence_data(g0_nash_coarse):
    rep = g0_nash_coarse.report_dict()
    assert rep["converged"] is True
    assert rep["iterations"] == len(rep["deltas_history"])
    assert rep["comparison_bound"] == 2.0
    assert len(rep["players"]) == 2


def _runs(column):
    """Run-length form ``[(index, count), ...]`` of a policy column."""
    return [(int(k), len(list(g))) for k, g in itertools.groupby(column.tolist())]


_G0_RUNS = [(20, 1), (21, 2), (22, 18), (23, 14), (22, 3), (21, 2), (20, 1), (19, 2), (18, 3),
            (17, 14), (18, 18), (19, 2), (20, 1)]

# the results of the separate ergodic and asymmetric loops that the one
# per-player loop replaced: constants, policies and deltas, bit for bit
PINNED = {
    "g0": dict(
        lambdas=(0.3078268800063727, 0.3078268800063727),
        runs=(_G0_RUNS, _G0_RUNS),
        history=[
            {"iteration": 1, "lambda": [None, None],
             "xi": [0.31703844888451893, 0.31703844888451893]},
            {"iteration": 2, "lambda": [0.03787959773791888, 0.03787959773791888],
             "xi": [0.025417844171825354, 0.025417844171825354]},
            {"iteration": 3, "lambda": [0.001124717368420347, 0.001124717368420347],
             "xi": [0.0011638718383669422, 0.0011638718383669422]},
            {"iteration": 4, "lambda": [0.0, 0.0], "xi": [0.0, 0.0]},
        ],
    ),
    "coupled": dict(
        lambdas=(0.31212525856460344, 0.31212525856460643),
        runs=([(20, 1), (21, 7), (22, 19), (23, 6), (22, 5), (21, 2), (20, 1), (19, 2), (18, 4),
               (17, 9), (18, 20), (19, 4), (20, 1)],
              [(20, 1), (21, 4), (22, 20), (23, 9), (22, 4), (21, 2), (20, 1), (19, 2), (18, 5),
               (17, 6), (18, 19), (19, 7), (20, 1)]),
        history=[
            {"iteration": 1, "lambda": [None, None],
             "xi": [0.31703844888451893, 0.31703844888451893]},
            {"iteration": 2, "lambda": [0.033813898995347924, 0.03381389899534737],
             "xi": [0.023665631211726657, 0.023665631211689186]},
            {"iteration": 3, "lambda": [0.0013573971840801224, 0.001357397184082565],
             "xi": [0.002935465878910082, 0.0029354658789408905]},
            {"iteration": 4, "lambda": [0.0, 0.0], "xi": [0.0, 0.0]},
        ],
    ),
    "asymmetric": dict(
        lambdas=(0.30788561339353543, None),
        runs=(_G0_RUNS,
              [(20, 1), (21, 5), (22, 18), (23, 11), (22, 3), (21, 2), (20, 1), (19, 2), (18, 3),
               (17, 11), (18, 18), (19, 5), (20, 1)]),
        history=[
            {"iteration": 1, "lambda": [None, None], "value": [None, None],
             "xi": [0.31703844888451893, 0.3019093186144062]},
            {"iteration": 2, "lambda": [0.0378215372072655, None],
             "value": [None, 0.37632168691761114],
             "xi": [0.025334091619982207, 0.023056441601986805]},
            {"iteration": 3, "lambda": [0.0011253902249296899, None],
             "value": [None, 0.01078055209028772],
             "xi": [0.001227143414787829, 0.0010868256304120971]},
            {"iteration": 4, "lambda": [0.0, None], "value": [None, 3.108624468950438e-14],
             "xi": [0.0, 0.0]},
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_merged_loop_reproduces_pinned_results(model, coarse_grid, case):
    solve = {
        "g0": lambda: eg.picard_solve(model, eg.quadratic_decoupled(), coarse_grid),
        "coupled": lambda: eg.picard_solve(model, eg.coupled_cross_cost(), coarse_grid),
        "asymmetric": lambda: eg.asymmetric_solve(model, eg.quadratic_decoupled(), coarse_grid,
                                                  0.1),
    }[case]
    nash = solve()
    pinned = PINNED[case]
    assert nash.converged
    assert nash.lambdas == pinned["lambdas"]
    assert nash.iterations == len(pinned["history"])
    assert list(nash.deltas_history) == pinned["history"]
    # key order is part of the trace line and of the loaded report
    assert [list(d) for d in nash.deltas_history] == [list(d) for d in pinned["history"]]
    assert tuple(_runs(nash.policy.indices[:, i]) for i in range(2)) == pinned["runs"]


def test_asymmetric_solve_is_the_per_player_loop(model, g0, coarse_grid):
    a = eg.asymmetric_solve(model, g0, coarse_grid, 0.1)
    b = eg.picard_solve(model, g0, coarse_grid, alphas=(None, 0.1))
    assert a.report_dict() == b.report_dict()
    np.testing.assert_array_equal(a.policy.indices, b.policy.indices)
    for sa, sb in zip(a.solutions, b.solutions):
        np.testing.assert_array_equal(sa.v, sb.v)


def test_three_players_of_mixed_type(model, coarse_grid):
    # players 0 and 2 average over time, player 1 discounts at rate 0.2
    spec = eg.three_player_symmetric(n_controls=21)
    nash = eg.picard_solve(model, spec, coarse_grid, alphas=(None, 0.2, None))
    assert nash.converged
    assert nash.iterations == 4
    assert nash.lambdas[1] is None
    assert nash.lambdas[0] == nash.lambdas[2] == 0.2953661854429173
    assert nash.lambdas[0] <= nash.comparison
    assert nash.alpha == 0.2
    np.testing.assert_array_equal(nash.policy.indices[:, 0], nash.policy.indices[:, 2])
    assert [p["kind"] for p in nash.report_dict()["players"]] == [
        "ergodic", "discounted", "ergodic"]
    for deltas in nash.deltas_history:
        assert list(deltas) == ["iteration", "lambda", "value", "xi"]
        assert deltas["lambda"][1] is None
        assert deltas["value"][0] is None and deltas["value"][2] is None


def test_criteria_are_checked(model, g0, coarse_grid):
    with pytest.raises(ValueError, match="one criterion per player"):
        eg.picard_solve(model, g0, coarse_grid, alphas=(None,))
    with pytest.raises(ValueError, match="positive"):
        eg.picard_solve(model, g0, coarse_grid, alphas=(None, 0.0))
    with pytest.raises(ValueError, match="two players"):
        eg.asymmetric_solve(model, eg.three_player_symmetric(n_controls=5), coarse_grid, 0.1)
    with pytest.raises(ValueError, match="positive"):
        eg.asymmetric_solve(model, g0, coarse_grid, 0.0)


def _counted_solves(monkeypatch):
    """Count picard's grid solves, ergodic and discounted alike."""
    calls = []
    for name in ("solve_ergodic", "solve_discounted"):
        def counted(*args, solve=getattr(picard, name), **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)
        monkeypatch.setattr(picard, name, counted)
    return calls


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_a_rate_that_is_not_finite_and_positive_is_refused_before_any_solve(
        model, g0, coarse_grid, monkeypatch, rate):
    # an infinite rate used to pass and fail 50 Newton steps later, after player 0's solve
    calls = _counted_solves(monkeypatch)
    with pytest.raises(ValueError, match="positive alpha"):
        eg.picard_solve(model, g0, coarse_grid, alphas=(None, rate))
    with pytest.raises(ValueError, match="positive alpha"):
        eg.asymmetric_solve(model, g0, coarse_grid, rate)
    assert calls == []


def test_v_init_needs_one_profile_per_player(model, g0, coarse_grid, monkeypatch):
    # one profile used to raise a bare IndexError after the first search, and a third
    # was ignored
    def no_search(*args, **kwargs):
        raise AssertionError("policy searched before the v_init check")

    monkeypatch.setattr(picard, "isaac_fixed_point", no_search)
    calls = _counted_solves(monkeypatch)
    for k in (1, 3):
        with pytest.raises(ValueError, match=f"need one v_init profile per player, got {k}"):
            eg.picard_solve(model, g0, coarse_grid, v_init=[np.zeros(coarse_grid.m)] * k)
    assert calls == []


def test_restart_from_converged_field_takes_two_iterations(model, g0, coarse_grid,
                                                          g0_nash_coarse):
    xi = np.column_stack([s.xi for s in g0_nash_coarse.solutions])
    again = eg.picard_solve(model, g0, coarse_grid, tol=1e-4, xi_init=xi)
    # the first iteration has no delta of the constants yet
    assert again.converged
    assert again.iterations == 2
    np.testing.assert_array_equal(again.policy.indices, g0_nash_coarse.policy.indices)


def test_only_stale_nodes_are_searched(model, g0, coarse_grid, monkeypatch):
    calls = []
    search = picard.isaac_fixed_point

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return search(*args, **kwargs)

    monkeypatch.setattr(picard, "isaac_fixed_point", counted)
    nash = eg.picard_solve(model, g0, coarse_grid)
    assert nash.converged and nash.deltas_history[-1]["xi"] == [0.0, 0.0]
    # every iteration moves every gradient row, searched in one call; the final policy
    # needs no search
    assert calls == [coarse_grid.m] * nash.iterations


# three_player_symmetric(n_controls=9) at m=81: iteration 5 would repeat iteration 2's
# policy, so the run stops after 4.  The deltas are those the loop gave when it searched
# every node each time; lambda and the policy are iteration 4's, recorded with max_iter=4
# before the loop stopped at a cycle.  The symmetric players share each value.
_NC9_LAMBDA = "0x1.585ec6f6eae0ap-2"
_NC9_RUNS = [(4, 21), (5, 15), (4, 9), (3, 15), (4, 21)]
_NC9_DELTAS = [  # (lambda, xi) per iteration
    (None, "0x1.44a5ba262261ep-2"),
    ("0x1.e520576ea1548p-5", "0x1.0f37b506c74a8p-4"),
    ("0x1.c59e8870f9650p-6", "0x1.77437f6b85504p-5"),
    ("0x1.7cededf3c4810p-6", "0x1.ce54751ce23a8p-5"),
]


def _coarse_three_player(model, coarse_grid):
    spec = eg.three_player_symmetric(n_controls=9)
    return eg.picard_solve(model, spec, coarse_grid, max_iter=12)


def test_stale_node_skip_keeps_non_converging_results(model, coarse_grid):
    nash = _coarse_three_player(model, coarse_grid)
    assert not nash.converged and nash.iterations == 4
    assert [lam.hex() for lam in nash.lambdas] == [_NC9_LAMBDA] * 3
    assert [_runs(nash.policy.indices[:, i]) for i in range(3)] == [_NC9_RUNS] * 3
    for deltas, (lam, xi) in zip(nash.deltas_history, _NC9_DELTAS, strict=True):
        assert [None if d is None else d.hex() for d in deltas["lambda"]] == [lam] * 3
        assert [d.hex() for d in deltas["xi"]] == [xi] * 3


def test_policy_cycle_is_reported(model, coarse_grid, caplog):
    with caplog.at_level(logging.WARNING, logger="ergodic_games.picard"):
        _coarse_three_player(model, coarse_grid)
    assert [r.getMessage() for r in caplog.records] == [
        "picard_solve: no fixed point after 4 iterations; stopped as iteration 2's policy "
        "recurs at iteration 5 (period 3)"]


@pytest.mark.parametrize("spec, m, cycle, iterations", [
    (eg.three_player_symmetric(n_controls=9), 81, (2, 3), 4),
    (eg.quadratic_decoupled(n_controls=9), 201, (5, 2), 6),
], ids=["three_player", "quadratic_decoupled"])
def test_a_cycling_solve_stops_at_the_recurrence(model, monkeypatch, spec, m, cycle, iterations):
    # both used to run all 50 iterations after finding their cycle
    calls = _counted_solves(monkeypatch)
    nash = eg.picard_solve(model, spec, eg.Grid1D(-6.0, 6.0, m))
    assert (nash.converged, nash.cycle, nash.iterations) == (False, cycle, iterations)
    assert len(nash.deltas_history) == iterations
    assert len(calls) == iterations * spec.n_players
    # the returned policy is the recurring one, which the last solutions' gradients give
    xi = np.column_stack([sol.xi for sol in nash.solutions])
    np.testing.assert_array_equal(nash.policy.indices,
                                  eg.isaac_fixed_point(spec, nash.policy.nodes, xi))


def test_a_policy_that_repeats_in_consecutive_iterations_is_no_cycle(model, g0, coarse_grid):
    # at tol 0 the converged policy recurs every iteration, its deltas exactly 0 but not
    # below tol: the run ends at max_iter, with no period-2 cycle read off the repeats
    nash = eg.picard_solve(model, g0, coarse_grid, tol=0.0, max_iter=8)
    assert (nash.converged, nash.cycle, nash.iterations) == (False, None, 8)
    assert nash.deltas_history[-1]["xi"] == [0.0, 0.0]


def test_game_tables_memory_bounded_in_states(model):
    grid = eg.Grid1D(-6.0, 6.0, 101)
    tracemalloc.start()
    try:
        spec = eg.three_player_symmetric(n_controls=41)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        nash = eg.picard_solve(model, spec, grid)
        solve = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nash.converged
    # one dense 41^3 table is 0.55 MB; caching one per (player, state) peaked at 217 MB
    # to build the game and about 170 MB to solve it
    assert build < 8e6 and solve < 8e6, (build, solve)

"""Monte Carlo verification layer: payoff oracles, deviations, residuals."""

import dataclasses
import json
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
import yaml

import ergodic_games as eg
from ergodic_games import cli, games, sde, verify
from ergodic_games.ebsde import nearest_node, node_lookup
from ergodic_games.verify import (
    SCOPE_NOTE,
    bsde_path_residual,
    estimate_payoff,
    nash_deviation_test,
)

from conftest import E_BUMP_STANDARD, E_BUMP_SHIFTED, policy_of_constant_control


def test_zero_policy_payoff_matches_invariant_average(model, g0, coarse_grid):
    # both players at control 0.0: dynamics stay the standard OU process and
    # the cost reduces to the bump, whose stationary mean is known
    zero_idx = int(np.argmin(np.abs(np.asarray(g0.grids[0].points))))
    assert g0.grids[0].points[zero_idx] == 0.0
    policy = policy_of_constant_control(g0, coarse_grid, zero_idx)
    est = estimate_payoff(model, g0, policy, player=0, horizon=120.0,
                          step=0.01, n_paths=96, seed=5)
    assert abs(est.value - E_BUMP_STANDARD) < 3.0 * est.stderr + 0.01


def test_shifted_policy_payoff_oracle(model, g0, coarse_grid):
    # both players at +0.25: drift gains +0.5, the invariant law recenters
    # at sqrt(2)/2, and the control cost adds 0.0625
    points = np.asarray(g0.grids[0].points)
    idx = int(np.argmin(np.abs(points - 0.25)))
    assert points[idx] == 0.25
    policy = policy_of_constant_control(g0, coarse_grid, idx)
    est = estimate_payoff(model, g0, policy, player=0, horizon=120.0,
                          step=0.01, n_paths=96, seed=6)
    oracle = E_BUMP_SHIFTED + 0.0625
    assert abs(est.value - oracle) < 3.0 * est.stderr + 0.01


def test_payoff_is_deterministic_in_seed(model, g0, coarse_grid):
    policy = policy_of_constant_control(g0, coarse_grid, 20)
    a = estimate_payoff(model, g0, policy, 0, horizon=30.0, n_paths=16, seed=9)
    b = estimate_payoff(model, g0, policy, 0, horizon=30.0, n_paths=16, seed=9)
    c = estimate_payoff(model, g0, policy, 0, horizon=30.0, n_paths=16, seed=10)
    assert a.value == b.value and a.stderr == b.stderr
    assert a.value != c.value


def test_payoff_argument_validation(model, g0, coarse_grid):
    policy = policy_of_constant_control(g0, coarse_grid, 20)
    with pytest.raises(ValueError, match="player"):
        estimate_payoff(model, g0, policy, player=7)
    with pytest.raises(ValueError, match="burn"):
        estimate_payoff(model, g0, policy, 0, horizon=10.0, burn_in=10.0)
    with pytest.raises(eg.InsufficientHorizonError):
        estimate_payoff(model, g0, policy, 0, alpha=0.05, horizon=20.0)


def test_payoff_path_count_must_be_positive(model, g0, coarse_grid, g0_nash_coarse):
    policy = policy_of_constant_control(g0, coarse_grid, 20)
    for n_paths in (0, -3):
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            estimate_payoff(model, g0, policy, 0, horizon=30.0, n_paths=n_paths)
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=3, horizon=30.0,
                                n_paths=n_paths)
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            bsde_path_residual(model, g0, g0_nash_coarse, horizon=30.0, n_paths=n_paths)


def test_payoff_rejects_a_policy_of_another_game(model, g0, coarse_grid, monkeypatch):
    # an all -1 policy used to wrap round to the top control, and a third
    # column was ignored on the 2-player game
    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the policy check")

    monkeypatch.setattr(verify, "path_sums", no_paths)
    kw = dict(horizon=30.0, n_paths=2)
    for index, shown in ((-1, "-1 to -1"), (41, "41 to 41")):
        with pytest.raises(ValueError, match=f"control indices {shown}, outside their "
                                             "41-point control grid"):
            estimate_payoff(model, g0, policy_of_constant_control(g0, coarse_grid, index), 0,
                            **kw)
    three = eg.FeedbackPolicy(nodes=coarse_grid.nodes(), indices=np.zeros((81, 3), dtype=int))
    with pytest.raises(ValueError, match="policy has 3 players, the game 2"):
        estimate_payoff(model, g0, three, 0, **kw)


def test_deviation_test_rejects_equilibrium_of_another_game(model, g0_nash_coarse):
    # another player count, or policy indices beyond the game's control grid
    kw = dict(n_deviations=3, horizon=30.0, n_paths=2)
    with pytest.raises(ValueError, match="equilibrium has 2 players, the game 3"):
        nash_deviation_test(model, eg.three_player_symmetric(), g0_nash_coarse, **kw)
    top = int(g0_nash_coarse.policy.indices[:, 0].max())
    assert top >= 5
    with pytest.raises(ValueError, match=f"control indices .* to {top}, outside their "
                                         "5-point control grid"):
        nash_deviation_test(model, eg.quadratic_decoupled(n_controls=5), g0_nash_coarse, **kw)


def test_equilibrium_of_a_same_shaped_game_is_rejected(model, g0_nash_coarse, monkeypatch):
    # the coupled game also has 2 players x 41 controls: the saved fields do not solve its
    # equations at the saved policy
    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the equilibrium check")

    monkeypatch.setattr(verify, "path_sums", no_paths)
    coupled = eg.coupled_cross_cost()
    message = ("does not solve player 0's equation under this model and game: its residual "
               r"at the saved policy is 0\.00563, against the recorded 1\.72e-14$")
    with pytest.raises(ValueError, match=message):
        nash_deviation_test(model, coupled, g0_nash_coarse, n_deviations=3, horizon=30.0,
                            n_paths=2)
    with pytest.raises(ValueError, match=message):
        bsde_path_residual(model, coupled, g0_nash_coarse, horizon=5.0, n_paths=2)


def test_equilibrium_under_another_residual_drift_is_rejected(g0, coarse_grid, monkeypatch):
    # tanh drifts of scale 0.5 and -0.5 have the same constants, which alone used to be
    # compared: the harness then ran and failed rows
    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the equilibrium check")

    monkeypatch.setattr(verify, "path_sums", no_paths)
    tanh = eg.make_model({"bounded_drift": {"name": "tanh", "scale": 0.5}})
    nash = eg.picard_solve(tanh, g0, coarse_grid, tol=1e-4)
    other = eg.make_model({"bounded_drift": {"name": "tanh", "scale": -0.5}})
    with pytest.raises(ValueError, match=r"player 0's equation .* is 0\.216, against"):
        nash_deviation_test(other, g0, nash, n_deviations=6, horizon=40.0, n_paths=20)
    verify._check_same_game(tanh, g0, nash)


@pytest.mark.parametrize("spec, grid_m, cycle, residual", [
    (eg.quadratic_decoupled(n_controls=9), 201, (5, 2), "0.0706"),
    (eg.three_player_symmetric(n_controls=9), 81, (2, 3), "0.166"),
], ids=["g0_n9", "three_player_n9"])
def test_a_cycled_equilibrium_is_rejected(model, monkeypatch, spec, grid_m, cycle, residual):
    # the recurring policy comes with the previous iteration's solutions, whose constants
    # are not that policy's: the harness used to run against them
    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the equilibrium check")

    nash = eg.picard_solve(model, spec, eg.Grid1D(-6.0, 6.0, grid_m), tol=1e-4)
    assert (nash.converged, nash.cycle) == (False, cycle)
    monkeypatch.setattr(verify, "path_sums", no_paths)
    first, period = cycle
    message = (f"residual at the saved policy is {residual}, .*; its solve stopped at a cycle: "
               f"iteration {first}'s policy recurs at iteration {first + period} "
               fr"\(period {period}\)")
    with pytest.raises(ValueError, match=message):
        nash_deviation_test(model, spec, nash, n_deviations=3, horizon=30.0, n_paths=2)
    with pytest.raises(ValueError, match=message):
        bsde_path_residual(model, spec, nash, horizon=5.0, n_paths=2)


def test_an_equilibrium_that_ran_out_of_iterations_is_rejected(model, g0, coarse_grid):
    nash = eg.picard_solve(model, g0, coarse_grid, tol=1e-12, max_iter=2)
    assert not nash.converged and nash.cycle is None
    with pytest.raises(ValueError, match="its solve did not converge in 2 iterations$"):
        verify._check_same_game(model, g0, nash)


def test_discounted_reference_needs_the_start_on_its_grid(g0, g0_asymmetric, monkeypatch):
    # np.interp used to clamp x0=10 to the value at the grid's end node 6
    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the start state check")

    monkeypatch.setattr(verify, "path_sums", no_paths)
    with pytest.raises(ValueError, match=r"x0=10\.0 lies outside the grid \[-6\.0, 6\.0\]"):
        nash_deviation_test(eg.ou_model(x0=10.0), g0, g0_asymmetric, n_deviations=3,
                            horizon=100.0, n_paths=2)


def test_alpha_alone_selects_the_criterion(model, g0, coarse_grid):
    policy = policy_of_constant_control(g0, coarse_grid, 20)
    kw = dict(horizon=100.0, step=0.1, n_paths=2)
    ergodic = estimate_payoff(model, g0, policy, 0, **kw)
    assert (ergodic.kind, ergodic.alpha) == ("ergodic", None)
    discounted = estimate_payoff(model, g0, policy, 0, alpha=0.1, **kw)
    assert (discounted.kind, discounted.alpha, discounted.burn_in) == ("discounted", 0.1, 0.0)
    # an infinite rate used to fail in the tail formula with "math domain error"
    for alpha in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive alpha"):
            estimate_payoff(model, g0, policy, 0, alpha=alpha, **kw)


def test_discounted_payoff_of_a_cost_free_game(model, g0, coarse_grid):
    # every discounted payoff is 0, so no horizon is too short; the tail formula
    # used to take log(0) and raise "math domain error"
    free = eg.GameSpec(grids=g0.grids, drift_map=g0.drift_map,
                       costs=(lambda x, u, v: 0.0 * x,) * 2, cost_sup=0.0, cost_x_lip=0.0)
    policy = policy_of_constant_control(free, coarse_grid, 20)
    est = estimate_payoff(model, free, policy, 0, alpha=0.5, horizon=10.0, n_paths=4)
    assert (est.value, est.stderr) == (0.0, 0.0)


def test_discounted_payoff_of_constant_cost(model, g0, coarse_grid):
    # a flat cost c integrates to c / alpha regardless of the path
    flat = eg.GameSpec(
        grids=g0.grids, drift_map=g0.drift_map,
        costs=(lambda x, u, v: 0.5 + 0.0 * x, g0.costs[1]),
        cost_sup=g0.cost_sup, cost_x_lip=g0.cost_x_lip,
    )
    policy = policy_of_constant_control(flat, coarse_grid, 20)
    est = estimate_payoff(model, flat, policy, 0, alpha=0.25, horizon=60.0, n_paths=8,
                          seed=3)
    assert est.value == pytest.approx(0.5 / 0.25, rel=2e-3)
    assert est.stderr < 1e-12
    # and averages to exactly c over any window: every path sums the same
    # dyadic values in the same order
    est = estimate_payoff(model, flat, policy, 0, horizon=5.0, burn_in=1.0, step=0.05,
                          n_paths=16)
    assert est.value == 0.5
    assert est.stderr == 0.0


def test_deviation_report_shape_and_kinds(model, g0, g0_nash_coarse):
    rep = nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=6,
                              horizon=40.0, step=0.02, n_paths=24, seed=21)
    by_player = {}
    for r in rep.rows:
        by_player.setdefault(r.player, []).append(r)
    assert set(by_player) == {0, 1}
    for player, rows in by_player.items():
        assert rows[0].kind == "equilibrium"
        kinds = [r.kind for r in rows[1:]]
        assert kinds == ["constant", "node_perturbation", "random_feedback"] * 2
    assert rep.n_deviations_per_player == 6


def test_equilibrium_margins_vanish(model, g0, g0_nash_coarse):
    rep = nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=3,
                              horizon=60.0, step=0.02, n_paths=48, seed=2)
    for r in rep.rows:
        if r.kind == "equilibrium":
            assert abs(r.margin) <= r.threshold
    assert rep.all_passed
    assert rep.failures() == ()


def test_deviation_report_deterministic(model, g0, g0_nash_coarse):
    kw = dict(n_deviations=3, horizon=30.0, step=0.02, n_paths=16, seed=13)
    a = nash_deviation_test(model, g0, g0_nash_coarse, **kw)
    b = nash_deviation_test(model, g0, g0_nash_coarse, **kw)
    assert a.as_dict() == b.as_dict()
    kw["seed"] = 14
    c = nash_deviation_test(model, g0, g0_nash_coarse, **kw)
    assert a.as_dict() != c.as_dict()


def test_deviation_csv_layout(model, g0, g0_nash_coarse, tmp_path):
    rep = nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=3,
                              horizon=30.0, step=0.02, n_paths=16, seed=1)
    out = tmp_path / "dev.csv"
    rep.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("player,kind,description,value")
    assert len(lines) == 1 + len(rep.rows)
    # repr round-trip: the value column reparses to the exact float
    first = lines[1].split(",")
    assert float(first[3]) == rep.rows[0].estimate.value


def test_path_residual_scales_with_step(model, g0, g0_nash_coarse):
    kw = dict(player=0, horizon=25.0, n_paths=32, seed=4)
    r_coarse = bsde_path_residual(model, g0, g0_nash_coarse, step=0.02, **kw)
    r_fine = bsde_path_residual(model, g0, g0_nash_coarse, step=0.01, **kw)
    assert r_coarse > 0.0
    # returned value is RMS / sqrt(step); the raw RMS then halves like h
    rms_ratio = (r_fine * np.sqrt(0.01)) / (r_coarse * np.sqrt(0.02))
    assert 0.35 < rms_ratio < 0.65


def test_path_residual_discounted_branch(model, g0, coarse_grid):
    nash = eg.asymmetric_solve(model, g0, coarse_grid, alpha=0.2, tol=1e-4)
    r = bsde_path_residual(model, g0, nash, player=1, horizon=10.0,
                           step=0.02, n_paths=8, seed=8)
    assert np.isfinite(r) and r > 0.0


def test_scope_note_names_sampled_classes(model, g0, g0_nash_coarse):
    rep = nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=3,
                              horizon=25.0, step=0.02, n_paths=8, seed=0)
    assert "sampled" in rep.scope_note
    assert rep.scope_note == SCOPE_NOTE
    assert "constant controls" in SCOPE_NOTE


@pytest.mark.parametrize("value, equilibrium_passes, deviation_passes", [
    (1.25, True, True), (0.75, True, True), (1.5, False, True), (0.5, False, False)],
    ids=["at+threshold", "at-threshold", "over", "under"])
def test_deviation_row_pass_rule_at_the_threshold(value, equilibrium_passes,
                                                  deviation_passes):
    # reference 1 and threshold 0.25: the margins are exact in binary, and a margin of
    # exactly +-threshold passes the equilibrium row, which must vanish within it
    est = verify.PayoffEstimate(value=value, stderr=0.0, horizon=1.0, burn_in=0.0,
                                n_paths=1, step=0.5, player=1)
    eq, dev = (verify.DeviationRow(kind, "", est, reference=1.0, threshold=0.25)
               for kind in ("equilibrium", "constant"))
    assert eq.margin == dev.margin == value - 1.0 and eq.player == dev.player == 1
    assert est.kind == est.as_dict()["kind"] == "ergodic"
    assert (eq.passed, dev.passed) == (equilibrium_passes, deviation_passes)
    assert type(eq.passed) is bool and type(dev.passed) is bool
    rep = verify.DeviationReport(rows=(eq, dev), n_deviations_per_player=1,
                                 grid_error_budget=0.25)
    assert rep.all_passed == (equilibrium_passes and deviation_passes)
    assert rep.as_dict()["rows"][0]["passed"] is equilibrium_passes


@pytest.mark.parametrize("cls, derived", [
    (eg.NashSolution, "iterations"), (eg.DeviationReport, "all_passed"),
    (eg.DeviationReport, "scope_note"), (eg.DeviationRow, "player"),
    (eg.DeviationRow, "margin"), (eg.DeviationRow, "passed"), (eg.PayoffEstimate, "kind"),
    (eg.MomentReport, "bounded_in_horizon"), (eg.IsaacsReport, "fraction_with_pure_nash")])
def test_result_types_take_no_derived_field(cls, derived):
    # each follows from the fields that stay, so a caller cannot set it against them
    assert derived not in {f.name for f in dataclasses.fields(cls)}
    assert hasattr(cls, derived)


# -- the batched path engine behind the harness ---------------------------------------


def _reference_shift(spec, policy):
    """One policy's drift shift table, built from the joint drift table directly."""
    joint = tuple(policy.indices[:, i] for i in range(spec.n_players))
    return policy.nodes, spec.drift_table()[joint]


@pytest.fixture(scope="module")
def g0_asymmetric(model, g0, coarse_grid):
    return eg.asymmetric_solve(model, g0, coarse_grid, alpha=0.2, tol=1e-4)


def _captured_jobs(monkeypatch):
    jobs = []
    original = verify._estimate_jobs

    def capture(model, spec, batch, *args):
        jobs.extend(batch)
        return original(model, spec, batch, *args)

    monkeypatch.setattr(verify, "_estimate_jobs", capture)
    return jobs


def _former_seed(seed, player):
    """The equilibrium seed of ``player``'s rows when each player's rows had a seed of
    their own; player 0's is the one every row carries now."""
    return int(eg.path_stream(seed, 0xE0, player).integers(2**32))


def _rows_on_former_seeds(model, spec, nash, monkeypatch, seed, **kw):
    """``(description, value, stderr)`` of each harness row, player 0's as reported and
    every other player's estimated alone on their own policy and former seed."""
    with monkeypatch.context() as mp:
        jobs = _captured_jobs(mp)
        rep = nash_deviation_test(model, spec, nash, seed=seed, **kw)
    assert {r.estimate.seed for r in rep.rows} == {_former_seed(seed, 0)}
    out = []
    for job, row in zip(jobs, rep.rows):
        est = row.estimate
        if row.player != 0:
            est = estimate_payoff(model, spec, job.policy, job.player, horizon=kw["horizon"],
                                  step=kw["step"], n_paths=kw["n_paths"], burn_in=job.burn_in,
                                  alpha=job.alpha, seed=_former_seed(seed, row.player))
        out.append((row.description, est.value, est.stderr))
    return out


@pytest.mark.parametrize("game", ["ergodic", "asymmetric"])
def test_deviation_rows_equal_estimates_alone(model, g0, g0_nash_coarse, g0_asymmetric,
                                              monkeypatch, game):
    nash = g0_nash_coarse if game == "ergodic" else g0_asymmetric
    kw = dict(horizon=50.0, step=0.02, n_paths=8)
    with monkeypatch.context() as mp:
        jobs = _captured_jobs(mp)
        # a width cap below n_paths splits jobs across batches
        mp.setattr(sde, "_MAX_BATCH_PATHS", 5)
        rep = nash_deviation_test(model, g0, nash, n_deviations=3, seed=7, **kw)
    assert len(jobs) == len(rep.rows) == 8
    assert {job.alpha for job in jobs} == ({None} if game == "ergodic" else {None, 0.2})
    for job, row in zip(jobs, rep.rows):
        alone = estimate_payoff(model, g0, job.policy, job.player, burn_in=job.burn_in,
                                alpha=job.alpha, seed=row.estimate.seed, **kw)
        assert alone == row.estimate


@pytest.mark.parametrize("workers", [1, 2])
def test_jobs_that_share_a_policy_and_seed_equal_estimates_alone(
        model, g0, g0_asymmetric, monkeypatch, caplog, workers):
    # jobs 0, 2, 3 and 5 run one policy: ergodic jobs of both players, one with
    # another burn-in and one on an equal copy of the policy, and a discounted job
    eq = g0_asymmetric.policy
    copy = eg.FeedbackPolicy(nodes=eq.nodes, indices=eq.indices.copy())
    dev = eq.with_player_indices(0, np.full(len(eq.nodes), 3))
    jobs = [verify._Job(0, eq, 1.0, None), verify._Job(1, dev, 1.0, None),
            verify._Job(1, eq, 0.0, 0.2), verify._Job(0, eq, 2.5, None),
            verify._Job(0, dev, 1.0, None), verify._Job(1, copy, 1.0, None),
            verify._Job(1, dev, 0.0, 0.2)]
    kw = dict(horizon=50.0, step=0.02, n_paths=6)
    monkeypatch.setattr(sde, "_cpu_count", lambda: workers)
    monkeypatch.setattr(sde, "_MIN_WORKER_PATH_STEPS", 1)
    with caplog.at_level(logging.INFO, logger="ergodic_games.sde"):
        got = verify._estimate_jobs(model, g0, jobs, kw["horizon"], kw["step"], kw["n_paths"],
                                    4, "test")
    records = [r.trace for r in caplog.records if r.name == "ergodic_games.sde"]
    # two groups, eq and dev, on the seed's 6 streams
    assert len(records) == 1
    assert (records[0]["paths"], records[0]["streams"], records[0]["workers"]) == (
        2 * 6, 6, workers)
    for job, est in zip(jobs, got):
        alone = estimate_payoff(model, g0, job.policy, job.player, burn_in=job.burn_in,
                                alpha=job.alpha, seed=4, **kw)
        assert alone == est


def test_deviation_rows_reuse_the_equilibrium_paths(model, g0, g0_nash_coarse, coarse_grid):
    # seed 59 perturbs player 0's policy at node 0 (x = -6), which no path
    # visits, so that row repeats the equilibrium row's numbers bitwise
    rep = nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=3, horizon=30.0,
                              step=0.02, n_paths=12, seed=59)
    for player in (0, 1):
        rows = [r for r in rep.rows if r.player == player]
        assert rows[0].kind == "equilibrium"
        assert {r.estimate.seed for r in rows} == {rows[0].estimate.seed}
    eq, node = rep.rows[0], rep.rows[2]
    assert node.description.startswith("node 0 control")
    assert coarse_grid.nodes()[0] == -6.0
    assert (node.estimate.value, node.estimate.stderr) == (eq.estimate.value, eq.estimate.stderr)
    assert rep.rows[1].estimate.value != eq.estimate.value


def test_nearest_node_lookups_agree_at_half_way_states(model, g0, coarse_grid):
    # the 80 midpoints of Grid1D(-6, 6, 81) and their float neighbours, where
    # differently rounded formulas pick different nodes (x = -5.925 is one)
    nodes = coarse_grid.nodes()
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    xs = np.concatenate([np.nextafter(mid, -np.inf), mid, np.nextafter(mid, np.inf)])
    # node k plays u + v = -2 + 0.05 k, so the drift shift names its node
    i = np.minimum(np.arange(81), 40)
    policy = eg.FeedbackPolicy(nodes=nodes, indices=np.column_stack([i, np.arange(81) - i]))
    r_nodes = games._gather(g0, policy.indices)[0]
    assert len(np.unique(r_nodes)) == 81
    grid_idx = nearest_node(xs, node_lookup(coarse_grid.nodes()))
    np.testing.assert_array_equal(nearest_node(xs, node_lookup(policy.nodes)), grid_idx)
    assert nearest_node(-5.925, node_lookup(nodes)) == 0
    # the engine's first Euler step from each state adds sigma * r at its node;
    # its noise is the first normal of path 0 of seed 0
    step = 0.01
    z = eg.path_stream(0, 0).standard_normal(1)[0]
    for x, k in zip(xs, grid_idx):
        first = {}

        def keep(job, paths, start, states, node):
            first.update(x=states[1, 0], node=node[0, 0])

        sde.run_paths(dataclasses.replace(model, x0=x), 1, step, 0, 1, keep,
                      (policy.nodes, [r_nodes]))
        drift_term = model.sigma * r_nodes[k]
        dw = model.sigma * z * math.sqrt(step)
        assert first["node"] == k, x
        assert first["x"] == (model.lin_drift * x + drift_term) * step + x + dw, x


def test_stacked_gather_matches_per_policy_shift(model, g0, monkeypatch):
    grid = eg.Grid1D(-1.5, 1.5, 13)  # paths leave it, so the lookup clamps
    rng = np.random.default_rng(3)
    policies = [
        eg.FeedbackPolicy(nodes=grid.nodes(), indices=rng.integers(0, 41, size=(13, 2)))
        for _ in range(3)
    ]
    seed, n_paths, step = 11, 4, 0.01
    # several windows, and bands of 3 of a batch's keys
    n = 4 * sde._FINITE_CHECK_STEPS + 300
    monkeypatch.setattr(sde, "_BAND", 3)
    out = np.empty((len(policies), n_paths, n + 1))
    out[:, :, 0] = model.x0

    def keep(job, paths, start, states, nodes):
        out[job, paths, start + 1:start + len(states)] = states[1:].T

    monkeypatch.setattr(sde, "_MAX_BATCH_PATHS", 5)
    sde.run_paths(model, n, step, seed, n_paths, keep,
                  (grid.nodes(), [games._gather(g0, p.indices)[0] for p in policies]))
    assert np.abs(out).max() > 1.5
    # every path alone: a batch of one column each
    monkeypatch.setattr(sde, "_MAX_BATCH_PATHS", 1)
    for j, policy in enumerate(policies):
        shift = _reference_shift(g0, policy)
        for k in range(n_paths):
            alone = eg.sample_paths(model, shift, n * step, step, seed, n_paths=k + 1)[k]
            assert np.array_equal(alone, out[j, k])


# values of the full-array implementation the batched engine replaced; only
# the order of the time sums differs, so they agree to rounding
PARENT_ESTIMATES = {
    "ergodic": (0.32378403622676716, 0.016858841542713544),
    "discounted": (1.424558511584157, 0.062103705765653536),
    "rows": [
        (0.28639629701661024, 0.017431108439226798), (0.5029385092682429, 0.020231982634290428),
        (0.31136117355448756, 0.018319991047765678), (0.40359658482721256, 0.021913015672103513),
        (0.29504394498856695, 0.013806621216066182), (0.34656770025176864, 0.01629979154928888),
        (0.29543115264641023, 0.01393434170607134), (0.7846554222775713, 0.013321587059961313),
    ],
    "asymmetric_rows": [
        (0.3156261947809798, 0.009446479382522202), (0.5196898489670934, 0.012852834589875406),
        (0.33658154919176336, 0.010019204550835601), (0.44584563660446164, 0.01216574736254202),
        (1.5306439739313633, 0.10666624028749633), (1.758990497730142, 0.09840847815584063),
        (1.5378962009099917, 0.1087565744434612), (3.9885674463387226, 0.08451851411997595),
    ],
    "residual": 0.039850692442062415,
    "residual_discounted": 0.03569927681500891,
}


def test_estimates_match_parent_values(model, g0, g0_nash_coarse, g0_asymmetric, monkeypatch):
    close = dict(rel=1e-12, abs=0.0)
    got = {
        "ergodic": estimate_payoff(model, g0, g0_nash_coarse.policy, 0, horizon=30.0,
                                   step=0.02, n_paths=16, seed=9),
        "discounted": estimate_payoff(model, g0, g0_asymmetric.policy, 1, alpha=0.2,
                                      horizon=50.0, step=0.02, n_paths=16, seed=3),
    }
    for key, est in got.items():
        assert (est.value, est.stderr) == pytest.approx(PARENT_ESTIMATES[key], **close)
    for key, nash, horizon in (("rows", g0_nash_coarse, 30.0),
                               ("asymmetric_rows", g0_asymmetric, 50.0)):
        rows = _rows_on_former_seeds(model, g0, nash, monkeypatch, n_deviations=3,
                                     horizon=horizon, step=0.02, n_paths=12, seed=5)
        assert len(rows) == len(PARENT_ESTIMATES[key])
        for (_, value, stderr), pinned in zip(rows, PARENT_ESTIMATES[key]):
            assert (value, stderr) == pytest.approx(pinned, **close)
    assert bsde_path_residual(model, g0, g0_nash_coarse, player=0, horizon=25.0, step=0.02,
                              n_paths=32, seed=4) == pytest.approx(
        PARENT_ESTIMATES["residual"], **close)
    assert bsde_path_residual(model, g0, g0_asymmetric, player=1, horizon=10.0, step=0.02,
                              n_paths=8, seed=8) == pytest.approx(
        PARENT_ESTIMATES["residual_discounted"], **close)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimate_memory_flat_in_horizon(model, g0, g0_nash_coarse):
    def run(horizon):
        return _peak_bytes(lambda: estimate_payoff(
            model, g0, g0_nash_coarse.policy, 0, horizon=horizon, step=0.02, n_paths=16,
            burn_in=5.0, seed=1))

    short, long = run(50.0), run(400.0)  # 2,500 and 20,000 steps
    # one paths x steps array at the long horizon alone would be 2.6 MB
    assert long <= short + 128 * 1024, (short, long)


def test_moment_check_memory_flat_in_horizon(model):
    def run(horizon):
        return _peak_bytes(lambda: eg.moment_bound_check(model, horizon=horizon, step=0.02,
                                                         n_paths=64, seed=1))

    short, long = run(25.0), run(200.0)  # 2,500 and 20,000 steps
    # the long run's states alone would be 10.2 MB; what grows is one sum per step
    assert long <= short + 2 * 8 * 20_000, (short, long)


def test_harness_memory_flat_in_deviations(model, g0, g0_nash_coarse, monkeypatch):
    # 8 jobs of 256 paths fill one batch; 62 jobs run as eight batches.  One
    # worker keeps the engine in this process, where tracemalloc sees it
    monkeypatch.setattr(sde, "_cpu_count", lambda: 1)

    def run(n_deviations):
        return _peak_bytes(lambda: nash_deviation_test(
            model, g0, g0_nash_coarse, n_deviations=n_deviations, horizon=2.0, step=0.02,
            n_paths=256, burn_in=0.5, seed=3))

    assert 8 * 256 == sde._MAX_BATCH_PATHS
    few, many = run(3), run(30)
    # the states of the 62 jobs alone, held at once, would be 12.8 MB; what
    # does grow is a few KB of tables and sums per job
    assert many <= few + 1024 * 1024, (few, many)


# sigma * r overflows to inf, and the diverged job's Euler update then meets
# inf - inf
@pytest.mark.filterwarnings("ignore:invalid value encountered in add:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_divergence_of_one_job_inside_a_batch(model, g0, coarse_grid):
    # player 0's top control has a finite drift whose shift sigma * r overflows,
    # so a job playing it beyond |x| = 2 diverges when its first path gets
    # there; the other jobs do not
    assert model.sigma * 1.5e308 == np.inf
    spec = eg.GameSpec(
        grids=g0.grids, drift_map=lambda u, v: np.where(u >= 1.0, 1.5e308, u + v),
        costs=g0.costs, cost_sup=g0.cost_sup, cost_x_lip=g0.cost_x_lip,
    )
    nodes = coarse_grid.nodes()
    calm = policy_of_constant_control(spec, coarse_grid, 20)
    wild = calm.with_player_indices(0, np.where(np.abs(nodes) > 2.0, 40, 20))
    jobs = [verify._Job(0, policy, 1.0, None) for policy in (calm, wild, calm)]
    with pytest.raises(eg.SimulationDivergedError) as batched:
        verify._estimate_jobs(model, spec, jobs, 40.0, 0.01, 6, 2, "test")
    with pytest.raises(eg.SimulationDivergedError) as alone:
        eg.sample_paths(model, _reference_shift(spec, wild), 40.0, 0.01, 2, 6)
    assert batched.value.step_index == alone.value.step_index > 1


@pytest.mark.parametrize("band", [1, 7])
def test_band_size_changes_no_deviation_row(model, g0, g0_nash_coarse, monkeypatch, band):
    # the engine's batch holds 16 distinct keys: 16, or 3 bands of at most 7
    def rows():
        rep = nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=3, horizon=25.0,
                                  step=0.02, n_paths=8, seed=0)
        return [(r.estimate.value, r.estimate.stderr) for r in rep.rows]

    default = rows()
    monkeypatch.setattr(sde, "_BAND", band)
    assert rows() == default


def test_harness_logs_one_engine_line(model, g0, g0_nash_coarse, caplog):
    with caplog.at_level(logging.INFO, logger="ergodic_games.sde"):
        rep = nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=3,
                                  horizon=25.0, step=0.02, n_paths=8, seed=0)
    records = [r.trace for r in caplog.records if r.name == "ergodic_games.sde"]
    assert len(records) == 1
    engine = records[0]
    # 2 players x 4 rows on one seed: both equilibrium rows read one group, so 7 groups
    # of 8 paths; every group draws the seed's 8 streams, once per batch
    assert [engine[key] for key in ("label", "paths", "steps", "batches", "windows", "streams",
                                    "workers")] == ["nash_deviation_test", 7 * 8, 1250, 1, 5, 8, 1]
    assert engine["rng_s"] > 0.0 and engine["euler_s"] > 0.0
    assert "engine" not in str(rep.as_dict()) and "_s=" not in str(rep.as_dict())


def test_burn_in_that_rounds_to_the_horizon_is_rejected(model, g0, g0_nash_coarse, coarse_grid,
                                                         monkeypatch):
    # round(9.996 / 0.01) = 1000 of 1000 steps: the average would count no step
    spec = eg.quadratic_decoupled(n_controls=5)
    policy = policy_of_constant_control(spec, coarse_grid, 2)
    kw = dict(horizon=10.0, step=0.01, n_paths=2)
    ok = estimate_payoff(model, spec, policy, 0, burn_in=9.994, **kw)
    assert np.isfinite(ok.value) and np.isfinite(ok.stderr)
    rep = nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=3,
                              burn_in=9.994, **kw)
    assert all(np.isfinite(r.estimate.value) for r in rep.rows)

    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the burn-in check")

    monkeypatch.setattr(verify, "path_sums", no_paths)
    message = "burn_in 9.996 rounds to step 1000 of the 1000 steps of size 0.01 up to horizon 10"
    with pytest.raises(ValueError, match=message):
        estimate_payoff(model, spec, policy, 0, burn_in=9.996, **kw)
    with pytest.raises(ValueError, match=message):
        nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=3,
                            burn_in=9.996, **kw)


def test_a_player_with_one_control_has_no_deviation(model):
    spec = eg.quadratic_decoupled(n_controls=1)
    nash = eg.picard_solve(model, spec, eg.Grid1D(-6.0, 6.0, 81))
    rep = nash_deviation_test(model, spec, nash, n_deviations=3, horizon=30.0, n_paths=4)
    assert [(r.player, r.kind) for r in rep.rows] == [(0, "equilibrium"), (1, "equilibrium")]
    assert rep.all_passed
    assert rep.n_deviations_per_player == 3


@pytest.mark.parametrize("player", [-1, 2])
def test_path_residual_rejects_a_player_outside_the_game(model, g0, g0_nash_coarse, player):
    # -1 used to give the last player's residual, 2 a bare IndexError
    with pytest.raises(ValueError, match=f"player index {player} out of range"):
        bsde_path_residual(model, g0, g0_nash_coarse, player=player, horizon=5.0, n_paths=2)


def test_path_residual_rejects_equilibrium_of_another_game(model, g0_nash_coarse, monkeypatch):
    # both used to fail with a bare IndexError, as the deviation harness's checks did not run
    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the equilibrium check")

    monkeypatch.setattr(verify, "path_sums", no_paths)
    kw = dict(player=0, horizon=5.0, n_paths=2)
    with pytest.raises(ValueError, match="equilibrium has 2 players, the game 3"):
        bsde_path_residual(model, eg.three_player_symmetric(n_controls=9), g0_nash_coarse, **kw)
    top = int(g0_nash_coarse.policy.indices[:, 0].max())
    assert top >= 5
    with pytest.raises(ValueError, match=f"control indices .* to {top}, outside their "
                                         "5-point control grid"):
        bsde_path_residual(model, eg.quadratic_decoupled(n_controls=5), g0_nash_coarse, **kw)


# each fault of a joint control: the game it is checked against and the message of the one
# check (games._check_joint) that every entry point raises
_FAULTS = {
    "player_count": ({"name": "three_player_symmetric", "n_controls": 9},
                     "has 2 players, the game 3"),
    "index": ({"name": "quadratic_decoupled", "n_controls": 5},
              "outside their 5-point control grid"),
    "player": ({"name": "quadratic_decoupled"}, "player index 2 out of range"),
}


# each entry point handed the saved equilibrium (its policy, or the joint control of the
# node where player 0's index is largest) for another game
_ENTRY_POINTS = {
    "hamiltonian": lambda model, spec, nash, player: eg.hamiltonian(
        spec, player, 0.3, 1.0, tuple(nash.policy.indices[np.argmax(nash.policy.indices[:, 0])])),
    "estimate_payoff": lambda model, spec, nash, player: estimate_payoff(
        model, spec, nash.policy, player, horizon=30.0, n_paths=2),
    "nash_deviation_test": lambda model, spec, nash, player: nash_deviation_test(
        model, spec, nash, n_deviations=3, horizon=30.0, n_paths=2),
    "bsde_path_residual": lambda model, spec, nash, player: bsde_path_residual(
        model, spec, nash, player=player, horizon=5.0, n_paths=2),
}


@pytest.mark.parametrize("entry, fault", [
    (entry, fault) for entry in (*_ENTRY_POINTS, "verify-nash") for fault in _FAULTS
    # the deviation harness and verify-nash take no player
    if fault != "player" or entry not in ("nash_deviation_test", "verify-nash")])
def test_every_entry_point_rejects_a_joint_control_by_one_check(
        model, g0_nash_coarse, monkeypatch, tmp_path, caplog, entry, fault):
    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the joint control check")

    monkeypatch.setattr(verify, "path_sums", no_paths)
    game, message = _FAULTS[fault]
    assert int(g0_nash_coarse.policy.indices[:, 0].max()) >= 5
    if entry == "verify-nash":
        g0_nash_coarse.write(tmp_path)
        cfg = tmp_path / "other.yaml"
        cfg.write_text(yaml.safe_dump({"model": {}, "game": game, "mc": {
            "horizon": 30.0, "n_paths": 2, "n_deviations": 3}}))
        assert cli.main(["verify-nash", "--config", str(cfg), "--out", str(tmp_path / "verify"),
                         "--nash", str(tmp_path), "--quiet"]) == 1
        assert "config error" in caplog.text and message in caplog.text
        return
    player = 2 if fault == "player" else 0
    with pytest.raises(ValueError, match=message):
        _ENTRY_POINTS[entry](model, eg.make_game(game), g0_nash_coarse, player)


@pytest.mark.parametrize("player", [0.5, True, 1.0])
@pytest.mark.parametrize("entry", ["hamiltonian", "estimate_payoff", "bsde_path_residual"])
def test_a_player_index_must_be_an_integer(model, g0, g0_nash_coarse, monkeypatch, entry,
                                           player):
    # 0.5 used to fail with a TypeError inside, and True was read as player 1
    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the player check")

    monkeypatch.setattr(verify, "path_sums", no_paths)
    with pytest.raises(ValueError, match=f"player index {player} out of range"):
        _ENTRY_POINTS[entry](model, g0, g0_nash_coarse, player)


def test_a_numpy_integer_player_is_a_player(model, g0, g0_nash_coarse):
    kw = dict(horizon=30.0, step=0.02, n_paths=2)
    est = estimate_payoff(model, g0, g0_nash_coarse.policy, np.int64(1), **kw)
    assert est == estimate_payoff(model, g0, g0_nash_coarse.policy, 1, **kw)
    assert type(est.player) is int  # so the estimate's as_dict() writes as JSON
    assert bsde_path_residual(model, g0, g0_nash_coarse, player=np.int64(1), **kw) == \
        bsde_path_residual(model, g0, g0_nash_coarse, player=1, **kw)


_MONTE_CARLO_ENTRIES = {
    "estimate_payoff": lambda model, spec, nash, **kw: estimate_payoff(
        model, spec, nash.policy, 0, horizon=30.0, step=0.02, **kw),
    "nash_deviation_test": lambda model, spec, nash, **kw: nash_deviation_test(
        model, spec, nash, n_deviations=1, horizon=30.0, step=0.02, **kw),
    "bsde_path_residual": lambda model, spec, nash, **kw: bsde_path_residual(
        model, spec, nash, horizon=5.0, step=0.02, **kw),
}


@pytest.mark.parametrize("kw, message", [
    (dict(seed=1.5), "got 1.5"), (dict(seed=1.9), "got 1.9"), (dict(seed=True), "got True"),
    (dict(n_paths=True), "n_paths must be an integer, got True"),
    (dict(n_paths=2.5), "n_paths must be an integer, got 2.5")])
@pytest.mark.parametrize("entry", sorted(_MONTE_CARLO_ENTRIES))
def test_seeds_and_path_counts_must_be_integers(model, g0, g0_nash_coarse, entry, kw, message):
    # seeds 1.5, 1.9 and True used to run seed 1's bits and report seed 1.5;
    # n_paths=True ran one path and reported n_paths=True, and 2.5 raised a TypeError
    with pytest.raises(ValueError, match=re.escape(message)):
        _MONTE_CARLO_ENTRIES[entry](model, g0, g0_nash_coarse, **{"seed": 1, "n_paths": 2, **kw})


@pytest.mark.parametrize("entry", sorted(_MONTE_CARLO_ENTRIES))
def test_numpy_integer_seeds_and_path_counts_are_integers(model, g0, g0_nash_coarse, entry):
    call = _MONTE_CARLO_ENTRIES[entry]
    got = call(model, g0, g0_nash_coarse, seed=np.int64(7), n_paths=np.int32(3))
    assert got == call(model, g0, g0_nash_coarse, seed=7, n_paths=3)
    if entry != "bsde_path_residual":
        record = got.as_dict()
        json.dumps(record)  # an estimate records them as ints, so its record writes as JSON


def test_path_residual_needs_a_step(model, g0, g0_nash_coarse, monkeypatch):
    # horizon 0 used to average over no step: 0/0, NaN and a RuntimeWarning
    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the step check")

    monkeypatch.setattr(verify, "path_sums", no_paths)
    with pytest.raises(ValueError, match="horizon 0 and step 0.01 give no step"):
        bsde_path_residual(model, g0, g0_nash_coarse, horizon=0.0, step=0.01, n_paths=2)


def test_deviation_count_must_be_nonnegative(model, g0, g0_nash_coarse, monkeypatch):
    # -2 used to run, draw no deviation and report n_deviations_per_player=-2
    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the deviation count check")

    monkeypatch.setattr(verify, "path_sums", no_paths)
    with pytest.raises(ValueError, match="n_deviations must be nonnegative, got -2"):
        nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=-2, horizon=30.0,
                            n_paths=2)


def test_deviation_count_must_be_a_whole_number(model, g0, g0_nash_coarse, monkeypatch):
    # 1.5 used to fail with a TypeError from range(), and True ran one deviation
    kw = dict(horizon=30.0, n_paths=2)
    with monkeypatch.context() as mp:
        def no_paths(*args, **kwargs):
            raise AssertionError("paths simulated before the deviation count check")

        mp.setattr(verify, "path_sums", no_paths)
        for count in (1.5, True, 2.0):
            with pytest.raises(ValueError, match=f"n_deviations must be an integer, "
                                                 f"got {count!r}"):
                nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=count, **kw)
    rep = nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=np.int64(1), **kw)
    assert type(rep.n_deviations_per_player) is int and len(rep.rows) == 4


# bitwise values of the parent of the batch-keyed, sigma-scaled and uniformly
# interpolating engine: exact speed-ups must leave every bit where it was
PINNED_RESIDUALS = {
    "ergodic": 0.039850692442062415,
    "ergodic_two_word_seed": 0.030982152148756013,
    "discounted": 0.03569927681500891,
}
PINNED_ROWS = {
    5: [
        ("equilibrium policy", 0.28639629701661024, 0.01743110843922682),
        ("constant control #12 (-0.4)", 0.5029385092682429, 0.020231982634290428),
        ("node 34 control -> #38 (0.9)", 0.31136117355448756, 0.018319991047765678),
        ("random feedback field", 0.40359658482721256, 0.021913015672103513),
        ("equilibrium policy", 0.295043944988567, 0.013806621216066182),
        ("constant control #24 (0.2)", 0.34656770025176864, 0.01629979154928888),
        ("node 25 control -> #36 (0.8)", 0.29543115264641023, 0.01393434170607134),
        ("random feedback field", 0.7846554222775713, 0.013321587059961313),
    ],
    2**40: [
        ("equilibrium policy", 0.31784650336407233, 0.020347573250933525),
        ("constant control #29 (0.45)", 0.5964172542290341, 0.029913486540871795),
        ("node 8 control -> #10 (-0.5)", 0.31784650336407233, 0.020347573250933525),
        ("random feedback field", 0.5399637677916387, 0.024101628401339496),
        ("equilibrium policy", 0.3277360110217374, 0.01666600166840697),
        ("constant control #9 (-0.55)", 0.7194406194914768, 0.028700470149933863),
        ("node 37 control -> #9 (-0.55)", 0.3554643449214605, 0.013693529108378722),
        ("random feedback field", 0.6967180299526713, 0.024636301313379672),
    ],
}


def test_residuals_are_pinned_bitwise(model, g0, g0_nash_coarse, g0_asymmetric):
    assert bsde_path_residual(model, g0, g0_nash_coarse, player=0, horizon=25.0, step=0.02,
                              n_paths=32, seed=4) == PINNED_RESIDUALS["ergodic"]
    # seed -1 folds to two words per key; step 0.01 and a partial last window
    assert bsde_path_residual(model, g0, g0_nash_coarse, player=0, horizon=5.0, step=0.01,
                              n_paths=5, seed=-1) == PINNED_RESIDUALS["ergodic_two_word_seed"]
    assert bsde_path_residual(model, g0, g0_asymmetric, player=1, horizon=10.0, step=0.02,
                              n_paths=8, seed=8) == PINNED_RESIDUALS["discounted"]


@pytest.mark.parametrize("seed", sorted(PINNED_ROWS))
def test_deviation_rows_are_pinned_bitwise(model, g0, g0_nash_coarse, monkeypatch, seed):
    # seed 2**40 keys the deviation draws with two-word seeds; player 1's numbers
    # pin that player's policies on their former seed
    got = _rows_on_former_seeds(model, g0, g0_nash_coarse, monkeypatch, n_deviations=3,
                                horizon=30.0, step=0.02, n_paths=12, seed=seed)
    assert got == PINNED_ROWS[seed]

"""Monte Carlo verification layer: payoff oracles, deviations, residuals."""

import dataclasses
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

import ergodic_games as eg
from ergodic_games import sde, verify
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
    # the coupled game also has 2 players x 41 controls: only the names differ
    def no_paths(*args, **kwargs):
        raise AssertionError("paths simulated before the equilibrium check")

    monkeypatch.setattr(verify, "path_sums", no_paths)
    coupled = eg.coupled_cross_cost()
    message = "solved for game 'quadratic_decoupled', not 'coupled_cross_cost'"
    with pytest.raises(ValueError, match=message):
        nash_deviation_test(model, coupled, g0_nash_coarse, n_deviations=3, horizon=30.0,
                            n_paths=2)
    with pytest.raises(ValueError, match=message):
        bsde_path_residual(model, coupled, g0_nash_coarse, horizon=5.0, n_paths=2)


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
    for alpha in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="positive alpha"):
            estimate_payoff(model, g0, policy, 0, alpha=alpha, **kw)


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
    kinds = {job.kind for job in jobs}
    assert kinds == ({"ergodic"} if game == "ergodic" else {"ergodic", "discounted"})
    for job, row in zip(jobs, rep.rows):
        alone = estimate_payoff(model, g0, job.policy, job.player,
                                burn_in=job.burn_in, alpha=job.alpha, seed=job.seed, **kw)
        assert alone == row.estimate


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
    r_nodes = verify._policy_drift_nodes(g0, policy)
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

        sde.run_paths(dataclasses.replace(model, x0=x), 1, step, [0], 1, keep,
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
    seeds, n_paths, step = (11, 12, 13), 4, 0.01
    # several windows, and bands of 3 of a batch's distinct keys
    n = 4 * sde._FINITE_CHECK_STEPS + 300
    monkeypatch.setattr(sde, "_BAND", 3)
    out = np.empty((len(seeds), n_paths, n + 1))
    out[:, :, 0] = model.x0

    def keep(job, paths, start, states, nodes):
        out[job, paths, start + 1:start + len(states)] = states[1:].T

    monkeypatch.setattr(sde, "_MAX_BATCH_PATHS", 5)
    sde.run_paths(model, n, step, seeds, n_paths, keep,
                  (grid.nodes(), [verify._policy_drift_nodes(g0, p) for p in policies]))
    assert np.abs(out).max() > 1.5
    # every path alone: a batch of one column each
    monkeypatch.setattr(sde, "_MAX_BATCH_PATHS", 1)
    for j, (policy, seed) in enumerate(zip(policies, seeds)):
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


def test_estimates_match_parent_values(model, g0, g0_nash_coarse, g0_asymmetric):
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
        rep = nash_deviation_test(model, g0, nash, n_deviations=3, horizon=horizon,
                                  step=0.02, n_paths=12, seed=5)
        for row, pinned in zip(rep.rows, PARENT_ESTIMATES[key]):
            assert (row.estimate.value, row.estimate.stderr) == pytest.approx(pinned, **close)
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
    jobs = [verify._Job(0, policy, seed, "ergodic", 1.0, None)
            for policy, seed in ((calm, 1), (wild, 2), (calm, 3))]
    with pytest.raises(eg.SimulationDivergedError) as batched:
        verify._estimate_jobs(model, spec, jobs, 40.0, 0.01, 6, "test")
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
    lines = [r.getMessage() for r in caplog.records if r.name == "ergodic_games.sde"]
    assert len(lines) == 1
    m = re.fullmatch(r"nash_deviation_test engine: paths=(\d+) steps=(\d+) batches=(\d+) "
                     r"windows=(\d+) streams=(\d+) workers=1 rng_s=(\d+\.\d{4}) "
                     r"euler_s=(\d+\.\d{4}) cost_s=(\d+\.\d{4})", lines[0])
    assert m is not None, lines[0]
    # a player's four rows share the equilibrium row's 8 streams
    assert [int(v) for v in m.groups()[:5]] == [2 * 4 * 8, 1250, 1, 5, 2 * 8]
    assert float(m.group(6)) > 0.0 and float(m.group(7)) > 0.0
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
def test_deviation_rows_are_pinned_bitwise(model, g0, g0_nash_coarse, seed):
    # seed 2**40 keys the deviation draws with two-word seeds
    rep = nash_deviation_test(model, g0, g0_nash_coarse, n_deviations=3, horizon=30.0,
                              step=0.02, n_paths=12, seed=seed)
    got = [(r.description, r.estimate.value, r.estimate.stderr) for r in rep.rows]
    assert got == PINNED_ROWS[seed]

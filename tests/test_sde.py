"""Forward simulation: reproducibility, guards, divergence, invariant-law oracles,
memory and tracing."""

import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergodic_games as eg
from ergodic_games import sde
from ergodic_games.ebsde import nearest_node, node_lookup
from ergodic_games.sde import _n_steps

from conftest import E_BUMP_STANDARD, euler_reference, policy_of_constant_control

# finite, but sigma * _HUGE overflows to inf (sigma > 1), so a path that
# meets it turns non-finite on that step
_HUGE = np.finfo(float).max
# the steps after the overflow warn about inf arithmetic
ignore_overflow = pytest.mark.filterwarnings(
    "ignore:(overflow|invalid value) encountered:RuntimeWarning")


# uniform nodes -10.25, -9.75, ..., 10.25: every multiple of 0.5 is a cell
# midpoint, so a state's node lies beyond such a threshold exactly when the
# state does (ties aside)
_NODES = 0.5 * np.arange(-20.5, 21.0)


def _table(fn, nodes=_NODES):
    """The drift shift table ``(nodes, fn(nodes))``."""
    return nodes, fn(nodes)


def _shift_beyond(thr):
    """Zero at the nodes in [-thr, thr] and ``_HUGE`` at the others; ``thr`` a
    multiple of 0.5."""
    return _table(lambda x: np.where(np.abs(x) > thr, _HUGE, 0.0))


# a grid the paths of the tests below leave, so the lookup clamps
_SMALL = np.linspace(-1.5, 1.5, 13)


def test_path_stream_reproducible():
    a = eg.path_stream(7, 3).standard_normal(16)
    b = eg.path_stream(7, 3).standard_normal(16)
    assert np.array_equal(a, b)
    c = eg.path_stream(7, 4).standard_normal(16)
    assert not np.array_equal(a, c)


def test_path_stream_folds_negative_keys():
    a = eg.path_stream(-1, 2).standard_normal(4)
    b = eg.path_stream(0xFFFFFFFFFFFFFFFF, 2).standard_normal(4)
    assert np.array_equal(a, b)


# one- and two-word seeds, 0, -1 (folded) and 2**63, each with a path index,
# and the 3- and 4-word keys of the deviation draws
_KEYS = [(seed, k) for seed in (0, 1, 7, 2**32 - 1, 2**32, 2**63, -1, 2**64 - 1)
         for k in (0, 1, 2**32 - 1)] + [
    (0, 0xE0, 1), (5, 0xE0, 0), (2**40, 0xE0, 1),
    (5, 0xDE, 0, 2), (2**40, 0xDE, 1, 59), (-1, 0xDE, 0, 0),
    (3,), (2**63,), (2**64 - 1, 2**64 - 1, 2**64 - 1, 2**64 - 1, 2**64 - 1),
]
# engine keys (seed, path): one-word, two-word (2**40, -1) and 2**64 - 1 seeds,
# where -1 and 2**64 - 1 fold to the same words
_MIXED_SEEDS = [0, 2**40, 7, -1, 2**64 - 1, 2**32 - 1]


def _folded(*key):
    return [int(v) & 0xFFFFFFFFFFFFFFFF for v in key]


@pytest.mark.parametrize("seeds, n_paths", [(_MIXED_SEEDS, 3), (_MIXED_SEEDS[::-1], 3),
                                            ([_MIXED_SEEDS[0]], 1)],
                         ids=["mixed_word_counts", "reversed", "one_key"])
def test_batch_keying_is_default_rng(model, monkeypatch, seeds, n_paths):
    # default_rng on the folded words is the reference; a batch mixes word counts.
    # Each path is bitwise the Euler recursion fed by its key's normals, over
    # several windows and (bands of 4 keys) several bands
    monkeypatch.setattr(sde, "_BAND", 4)
    n = 4 * sde._FINITE_CHECK_STEPS + 37
    states = np.empty((len(seeds), n_paths, n + 1))

    def keep(job, paths, start, block, nodes):
        states[job, paths, start:start + len(block)] = block.T

    sde.run_paths(model, n, 0.01, seeds, n_paths, keep)
    for j, row in enumerate(states.reshape(-1, n + 1)):
        key = (seeds[j // n_paths], j % n_paths)
        normals = np.random.default_rng(_folded(*key)).standard_normal(n)
        assert np.array_equal(row, euler_reference(model, 0.01, [normals])[0]), key
    for key in _KEYS:
        assert np.array_equal(eg.path_stream(*key).standard_normal(4),
                              np.random.default_rng(_folded(*key)).standard_normal(4))


@pytest.mark.parametrize("max_batch, n_streams", [(2048, 6), (4, 4 + 4 + 1)],
                         ids=["one_batch", "split_batches"])
def test_equal_keys_share_noise_and_states(model, monkeypatch, max_batch, n_streams):
    # seeds [s, t, s]: columns 0-2 and 6-8 are the same three keys, and with a
    # width cap of 4 they fall in different batches; a batch seeds and draws
    # each of its distinct keys once, in bands of 4 keys over several windows
    monkeypatch.setattr(sde, "_MAX_BATCH_PATHS", max_batch)
    monkeypatch.setattr(sde, "_BAND", 4)
    n, n_paths = 4 * sde._FINITE_CHECK_STEPS + 37, 3
    states = np.empty((3, n_paths, n + 1))

    def keep(job, paths, start, block, nodes):
        states[job, paths, start:start + len(block)] = block.T

    tanh = np.tanh(_SMALL)
    counters = sde.run_paths(model, n, 0.01, [5, 6, 5], n_paths, keep,
                             drift=(_SMALL, [tanh, tanh, tanh]))
    states = states.reshape(3 * n_paths, n + 1)
    assert (counters["paths"], counters["steps"], counters["streams"]) == (9, n, n_streams)
    assert np.array_equal(states[:3], states[6:])
    assert not np.array_equal(states[:3], states[3:6])
    # every column is the Euler recursion fed by its key's normals
    normals = [eg.path_stream(seed, k).standard_normal(n) for seed in (5, 6, 5)
               for k in range(n_paths)]
    assert np.array_equal(states, euler_reference(model, 0.01, normals, (_SMALL, [tanh] * 9)))


def test_a_later_batch_with_more_keys_draws_them_all(model, monkeypatch):
    # seeds [5, 5, 6] in batches of 4 columns: the first batch holds 3 distinct
    # keys, the second 4 and the last 1, so a band sized by the first batch
    # would leave the second batch's last key undrawn
    monkeypatch.setattr(sde, "_MAX_BATCH_PATHS", 4)
    n, n_paths = 50, 3
    states = np.empty((3, n_paths, n + 1))

    def keep(job, paths, start, block, nodes):
        states[job, paths, start:start + len(block)] = block.T

    counters = sde.run_paths(model, n, 0.01, [5, 5, 6], n_paths, keep)
    assert (counters["batches"], counters["streams"]) == (3, 3 + 4 + 1)
    normals = [eg.path_stream(seed, k).standard_normal(n) for seed in (5, 5, 6)
               for k in range(n_paths)]
    assert np.array_equal(states.reshape(3 * n_paths, n + 1),
                          euler_reference(model, 0.01, normals))


@pytest.mark.parametrize("max_batch, first_path", [(2048, 0), (4, 0), (4, 3)],
                         ids=["one_batch", "split_batches", "range_of_paths"])
def test_consumer_nodes_are_the_nearest_nodes_of_its_states(model, monkeypatch, max_batch,
                                                            first_path):
    # seeds [5, 6, 5] with three different table rows, over several windows and
    # (bands of 4 keys) bands on a grid the paths leave: in every window
    # nodes[k] is the node of states[k]
    monkeypatch.setattr(sde, "_MAX_BATCH_PATHS", max_batch)
    monkeypatch.setattr(sde, "_BAND", 4)
    n, n_paths = 4 * sde._FINITE_CHECK_STEPS + 37, 3
    lookup = node_lookup(_SMALL)
    table = [np.tanh(_SMALL), 0.5 * np.sin(3.0 * _SMALL), -np.tanh(_SMALL)]
    states = np.empty((3, n_paths, n + 1))
    seen = np.zeros((3, n_paths, n), dtype=bool)

    def keep(job, paths, start, block, nodes):
        assert nodes.dtype == np.intp and nodes.shape == (len(block) - 1, block.shape[1])
        assert np.array_equal(nodes, nearest_node(block[:-1], lookup))
        states[job, paths, start:start + len(block)] = block.T
        seen[job, paths, start:start + len(nodes)] = True

    sde.run_paths(model, n, 0.01, [5, 6, 5], n_paths, keep, drift=(_SMALL, table),
                  first_path=first_path)
    assert seen.all()
    states = states.reshape(3 * n_paths, n + 1)
    assert np.abs(states).max() > 1.5
    # equal keys share their noise, but their rows of the table differ: each
    # column is the Euler recursion fed by its key's normals and its own row
    assert not np.array_equal(states[:3], states[6:])
    normals = [eg.path_stream(seed, first_path + k).standard_normal(n) for seed in (5, 6, 5)
               for k in range(n_paths)]
    rows = [row for row in table for _ in range(n_paths)]
    assert np.array_equal(states, euler_reference(model, 0.01, normals, (_SMALL, rows)))

    def no_nodes(job, paths, start, block, nodes):
        assert nodes is None

    sde.run_paths(model, n, 0.01, [5, 6, 5], n_paths, no_nodes, first_path=first_path)


def _alone(monkeypatch, model, shift, horizon, step, seed, k):
    """Path ``k`` of ``seed`` stepped in a batch of its own."""
    with monkeypatch.context() as m:
        m.setattr(sde, "_MAX_BATCH_PATHS", 1)
        return eg.sample_paths(model, shift, horizon, step, seed, n_paths=k + 1)[k]


def test_batch_row_matches_single_path(model, monkeypatch):
    shift = _table(np.tanh, _SMALL)
    batch = eg.sample_paths(model, shift, 2.0, 0.01, seed=5, n_paths=8)
    assert np.abs(batch).max() > 1.5
    for k in (0, 3, 7):
        assert np.array_equal(_alone(monkeypatch, model, shift, 2.0, 0.01, 5, k), batch[k])


def test_batch_independent_of_batch_size(model):
    a = eg.sample_paths(model, None, 1.0, 0.01, seed=2, n_paths=4)
    b = eg.sample_paths(model, None, 1.0, 0.01, seed=2, n_paths=9)
    assert np.array_equal(a, b[:4])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=-(2**63), max_value=2**63 - 1),
       idx=st.integers(min_value=0, max_value=2**32))
def test_any_seed_reproduces(seed, idx):
    a = eg.path_stream(seed, idx).standard_normal(3)
    b = eg.path_stream(seed, idx).standard_normal(3)
    assert np.array_equal(a, b)


def test_paths_identical_across_blocks_and_batches(model, monkeypatch):
    # non-unit noise, a residual drift, a shift, several windows, bands of 2
    # keys and (with the width cap lowered) several batches: every row stays
    # bitwise the single path
    rough = eg.SdeModel(
        lin_drift=-1.0,
        bounded_drift=lambda x: 0.5 * np.tanh(x), bounded_drift_sup=0.5,
        bounded_drift_lip=0.5, sigma=1.2, x0=0.3,
    )
    shift = _table(lambda x: 0.8 * np.sin(x), _SMALL)
    horizon = 0.01 * (8 * sde._FINITE_CHECK_STEPS + 37)
    monkeypatch.setattr(sde, "_BAND", 2)
    wide = eg.sample_paths(rough, shift, horizon, 0.01, seed=4, n_paths=5)
    monkeypatch.setattr(sde, "_MAX_BATCH_PATHS", 2)
    narrow = eg.sample_paths(rough, shift, horizon, 0.01, seed=4, n_paths=5)
    assert np.abs(wide).max() > 1.5
    assert np.array_equal(wide, narrow)
    for k in range(5):
        assert np.array_equal(_alone(monkeypatch, rough, shift, horizon, 0.01, 4, k), wide[k])
    # and the Euler recursion fed by each key's normals, over nine windows
    normals = [eg.path_stream(4, k).standard_normal(wide.shape[1] - 1) for k in range(5)]
    assert np.array_equal(wide, euler_reference(rough, 0.01, normals,
                                                (shift[0], [shift[1]] * 5)))


@ignore_overflow
@pytest.mark.parametrize("band", [1, 7])
def test_band_size_changes_no_number(model, monkeypatch, band):
    # the band only groups the drawing, scaling and copying of normals: paths
    # (20 keys: 20, or 3 bands of at most 7) and where a run diverges (9 keys)
    # are bitwise those of the default band
    shift = _table(lambda x: 0.8 * np.sin(x), _SMALL)
    horizon = 0.01 * (8 * sde._FINITE_CHECK_STEPS + 37)
    bad = _shift_beyond(3.0)

    def run():
        states = eg.sample_paths(model, shift, horizon, 0.01, seed=4, n_paths=20)
        with pytest.raises(eg.SimulationDivergedError) as exc:
            eg.sample_paths(model, bad, 200.0, 0.01, 1, 9)
        return states, exc.value.step_index

    default = run()
    assert np.abs(default[0]).max() > 1.5
    monkeypatch.setattr(sde, "_BAND", band)
    states, step_index = run()
    assert np.array_equal(states, default[0])
    assert step_index == default[1] > sde._FINITE_CHECK_STEPS


def test_zero_horizon_returns_initial_state(model):
    states = eg.sample_paths(model, None, 0.0, 0.5, 0, n_paths=1)
    assert states.shape == (1, 1)
    assert states[0, 0] == 0.0


def test_n_steps_validation():
    assert _n_steps(1.0, 0.1) == 10
    assert _n_steps(1.0, 0.3) == 4  # ceil
    with pytest.raises(ValueError):
        _n_steps(1.0, 0.0)
    with pytest.raises(ValueError):
        _n_steps(-1.0, 0.1)
    with pytest.raises(ValueError):
        _n_steps(0.05, 0.1)  # step > horizon


def test_step_stability_guard(model):
    # explicit Euler contraction requires 1 - step * dissipation > 0
    with pytest.raises(ValueError, match="dissipation"):
        eg.sample_paths(model, None, 10.0, 1.5, 0, n_paths=1)


def test_path_count_must_be_positive(model):
    # numpy would return NaN means for no paths and reject negative shapes
    for n_paths in (0, -3):
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            eg.sample_paths(model, None, 1.0, 0.01, 0, n_paths)
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            eg.moment_bound_check(model, horizon=1.0, n_paths=n_paths)
        with pytest.raises(ValueError, match="n_paths must be at least 1"):
            sde.run_paths(model, 10, 0.01, [0], n_paths, lambda *args: None)


def test_shift_table_must_have_one_value_per_node(model):
    # a longer table would be read in its first entries only, a shorter one
    # would fail mid-run on the gather
    for values in (np.zeros(len(_NODES) + 1), np.zeros(len(_NODES) - 1),
                   np.zeros((len(_NODES), 1)), 0.0):
        with pytest.raises(ValueError, match="one entry per node"):
            eg.sample_paths(model, (_NODES, values), 1.0, 0.01, 0, n_paths=2)


def test_shift_table_on_a_misread_grid_is_rejected(model):
    # before any step: a zero horizon, which steps no path, used to return the
    # initial states
    for nodes in ([-2.0, -1.0, 1.0, 2.0], [2.0, 1.0, 0.0, -1.0]):
        for horizon in (0.0, 1.0):
            with pytest.raises(ValueError, match="strictly ascending, equally spaced"):
                eg.sample_paths(model, (np.array(nodes), np.zeros(4)), horizon, 0.01, 0,
                                n_paths=2)


@pytest.mark.parametrize("max_batch, ranges", [(2048, [(0, 7)]), (5, [(0, 7)]),
                                               (4, [(0, 3), (3, 7)]), (1, [(0, 2), (2, 7)])],
                         ids=["one_batch", "split_batches", "ranges", "one_column_batches"])
def test_every_step_of_every_path_reaches_one_piece_of_one_job(model, monkeypatch, max_batch,
                                                               ranges):
    # three jobs of 7 paths in pieces of at most 3, over batches that cut jobs
    # and ranges that run paths k0..k1-1 on their own: each (job, path, step)
    # is handed over exactly once, in a piece of one job's paths
    monkeypatch.setattr(sde, "_MAX_BATCH_PATHS", max_batch)
    monkeypatch.setattr(sde, "_CONSUME_PATHS", 3)
    n, n_paths = sde._FINITE_CHECK_STEPS + 37, 7
    hits = np.zeros((3, n_paths, n), dtype=int)
    for k0, k1 in ranges:
        def count(job, paths, start, states, nodes):
            assert 0 <= paths.start < paths.stop <= k1 - k0 and paths.step is None
            assert states.shape[1] == nodes.shape[1] == paths.stop - paths.start <= 3
            hits[job, k0 + paths.start:k0 + paths.stop, start:start + len(nodes)] += 1

        sde.run_paths(model, n, 0.01, [5, 6, 5], k1 - k0, count,
                      (_SMALL, [np.tanh(_SMALL)] * 3), first_path=k0)
    assert (hits == 1).all()


@ignore_overflow
def test_divergence_detected(model):
    # a shift whose sigma-multiple overflows at every node must be caught on
    # the first Euler step
    bad = _shift_beyond(-1.0)
    with pytest.raises(eg.SimulationDivergedError) as exc:
        eg.sample_paths(model, bad, 1.0, 0.01, 0, n_paths=1)
    assert exc.value.step_index == 1


@ignore_overflow
def test_divergence_step_found_late_in_a_long_run(model):
    # the shift is zero until some path leaves [-3, 3] (whose ends are cell
    # midpoints of the table), so the batch follows the unshifted paths up to
    # that step and turns non-finite one step later
    thr = 3.0
    bad = _shift_beyond(thr)
    free = eg.sample_paths(model, None, 200.0, 0.01, 1, 5)
    first_out = int(np.argmax(np.any(np.abs(free) > thr, axis=0)))
    assert first_out > 300  # well past the first few hundred steps
    with pytest.raises(eg.SimulationDivergedError) as exc:
        eg.sample_paths(model, bad, 200.0, 0.01, 1, 5)
    assert exc.value.step_index == first_out + 1


def _model_with_residual(bounded_drift):
    """The reference OU model with ``bounded_drift`` as its residual drift,
    declared nonzero so that the engine calls it at every step."""
    return eg.SdeModel(lin_drift=-1.0, bounded_drift=bounded_drift, bounded_drift_sup=1.0,
                       bounded_drift_lip=0.0, sigma=math.sqrt(2.0), x0=0.0)


@ignore_overflow
def test_divergence_reported_when_a_callback_rejects_non_finite_states():
    # the shift turns a path non-finite once it leaves [-3, 3], and the model's
    # residual drift raises as soon as it is handed a non-finite state; the
    # caller still sees the typed error at the step where the batch diverged
    thr = 3.0

    def bounded_drift(x):
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite state")
        return np.zeros_like(x)

    strict = _model_with_residual(bounded_drift)
    free = eg.sample_paths(strict, None, 200.0, 0.01, 1, 5)
    first_out = int(np.argmax(np.any(np.abs(free) > thr, axis=0)))
    with pytest.raises(eg.SimulationDivergedError) as exc:
        eg.sample_paths(strict, _shift_beyond(thr), 200.0, 0.01, 1, 5)
    assert exc.value.step_index == first_out + 1


def test_divergence_overrun_bounded_by_the_scan_not_the_block():
    # after the batch turns non-finite the engine steps on only to the end of
    # the current scan window; the residual drift, called once per step, turns
    # the batch non-finite at step 300
    calls = {"total": 0, "after": 0}

    def bounded_drift(x):
        calls["total"] += 1
        if not np.all(np.isfinite(x)):
            calls["after"] += 1
        return np.full_like(x, np.nan) if calls["total"] == 300 else np.zeros_like(x)

    model = _model_with_residual(bounded_drift)
    calls.update(total=0, after=0)  # the model's construction check called it too
    with pytest.raises(eg.SimulationDivergedError) as exc:
        eg.sample_paths(model, None, 50.0, 0.01, 0, 3)
    assert exc.value.step_index == 300
    assert 0 < calls["after"] < sde._FINITE_CHECK_STEPS


def test_engine_logs_one_trace_line_per_run(model, g0, coarse_grid, caplog):
    policy = policy_of_constant_control(g0, coarse_grid, 20)
    with caplog.at_level(logging.INFO, logger="ergodic_games.sde"):
        eg.estimate_payoff(model, g0, policy, 0, horizon=25.0, burn_in=1.0, step=0.01,
                           n_paths=6, seed=1)
    lines = [r.getMessage() for r in caplog.records if r.name == "ergodic_games.sde"]
    assert len(lines) == 1
    m = re.fullmatch(r"estimate_payoff engine: paths=6 steps=2500 batches=1 windows=10 "
                     r"streams=6 workers=1 rng_s=\d+\.\d{4} euler_s=\d+\.\d{4} "
                     r"cost_s=\d+\.\d{4}", lines[0])
    assert m is not None, lines[0]


def test_simulation_rejects_multi_dimensional_models():
    # the model itself refuses, so no solver or engine ever sees one
    scalars = dict(lin_drift=-1.0, sigma=1.0, x0=0.0)
    for name, value in (("x0", [0.0, 0.0]), ("sigma", np.eye(2)), ("lin_drift", -np.eye(2))):
        with pytest.raises(ValueError, match=f"one-dimensional: {name}"):
            eg.SdeModel(
                bounded_drift=lambda x: 0.0 * x, bounded_drift_sup=0.0,
                bounded_drift_lip=0.0, **{**scalars, name: value},
            )
    built = eg.SdeModel(
        bounded_drift=lambda x: 0.0 * x, bounded_drift_sup=0.0,
        bounded_drift_lip=0.0, lin_drift=np.array([[-1.0]]), sigma=np.float32(2.0),
        x0=np.array([0.5]),
    )
    assert (built.lin_drift, built.sigma, built.x0) == (-1.0, 2.0, 0.5)
    assert all(type(v) is float for v in (built.lin_drift, built.sigma, built.x0))


def _flat_model(lin_drift=-1.0, x0=0.0):
    return eg.SdeModel(
        lin_drift=lin_drift, bounded_drift=lambda x: 0.0 * x, bounded_drift_sup=0.0,
        bounded_drift_lip=0.0, sigma=1.0, x0=x0,
    )


def test_model_rejects_non_dissipative_drift():
    for lin_drift in (1.0, 0.0, np.nan, -np.inf):
        with pytest.raises(ValueError, match="dissipativity"):
            _flat_model(lin_drift)
    # the rate is derived from the linear part, however small
    assert _flat_model(-0.999).dissipation == 0.999


def test_model_rejects_non_finite_start():
    for x0 in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="x0 must be finite"):
            _flat_model(x0=x0)


def test_step_guard_uses_the_derived_rate():
    # 1 - 0.3 * 4 < 0: each Euler step would flip the state's sign and scale it by 0.2
    with pytest.raises(ValueError, match="too large for dissipation 4.0"):
        eg.sample_paths(_flat_model(-4.0), None, 1.0, 0.3, 0, n_paths=1)


def test_model_rejects_understated_drift_bound():
    with pytest.raises(ValueError, match="bounded_drift"):
        eg.SdeModel(
            lin_drift=-1.0,
            bounded_drift=np.tanh, bounded_drift_sup=0.5,
            bounded_drift_lip=1.0, sigma=1.0, x0=0.0,
        )


def test_model_rejects_singular_noise():
    for sigma in (0.0, -0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma"):
            eg.SdeModel(
                lin_drift=-1.0,
                bounded_drift=lambda x: 0.0 * x, bounded_drift_sup=0.0,
                bounded_drift_lip=0.0, sigma=sigma, x0=0.0,
            )


def test_model_rejects_non_finite_drift_bounds():
    # each would pass the sampled comparisons vacuously (x > nan is False)
    for sup, lip in ((np.nan, 1.0), (0.5, np.nan), (np.nan, np.nan), (np.inf, 1.0)):
        with pytest.raises(ValueError, match="bounded_drift_sup=.* must be finite"):
            eg.SdeModel(lin_drift=-1.0, bounded_drift=lambda x: 0.5 * np.tanh(x),
                        bounded_drift_sup=sup, bounded_drift_lip=lip, sigma=1.0, x0=0.0)
    with pytest.raises(ValueError, match=r"\|bounded_drift\(x\)\|=nan"):
        eg.SdeModel(lin_drift=-1.0, bounded_drift=lambda x: np.where(x > 8.0, np.nan, 0.0),
                    bounded_drift_sup=1.0, bounded_drift_lip=1.0, sigma=1.0, x0=0.0)


def test_moment_bound_near_stationary_value(model):
    # OU with sigma^2 = 2: stationary second moment is 1; the sampled sup
    # carries Monte Carlo noise of a few percent
    rep = eg.moment_bound_check(model, horizon=10.0, step=0.01, n_paths=256, seed=0)
    assert rep.bounded_in_horizon
    assert 0.8 <= rep.sup_second_moment <= 1.5
    assert rep.sup_second_moment_doubled <= rep.sup_second_moment * 1.10
    assert rep.bound_constant == pytest.approx(rep.sup_second_moment)  # x0 = 0


def _invariant_average(model, g0, grid, g, control=0.0, **kw):
    """Long-run average of ``g`` along the dynamics with both players of ``g0``
    holding ``control``: the ergodic payoff of a player whose cost is ``g``,
    bounded by 20 in size and 1-Lipschitz."""
    spec = eg.GameSpec(grids=g0.grids, drift_map=g0.drift_map,
                       costs=(lambda x, u, v: g(x), g0.costs[1]),
                       cost_sup=20.0, cost_x_lip=1.0)
    points = np.asarray(g0.grids[0].points)
    idx = int(np.argmin(np.abs(points - control)))
    assert points[idx] == control
    policy = policy_of_constant_control(spec, grid, idx)
    return eg.estimate_payoff(model, spec, policy, 0, **kw)


def test_invariant_average_matches_quadrature(model, g0, coarse_grid):
    est = _invariant_average(model, g0, coarse_grid, eg.bump, horizon=150.0, burn_in=15.0,
                             step=0.01, n_paths=120, seed=3)
    assert est.kind == "ergodic"
    assert abs(est.value - E_BUMP_STANDARD) <= 3.0 * est.stderr + 0.01


def test_invariant_average_shifted_mean(model, g0, coarse_grid):
    # both players at +0.25 shift the drift by b = 0.5, which moves the
    # invariant mean to sqrt(2) * b; the clip at 20 is never reached
    est = _invariant_average(model, g0, coarse_grid, lambda x: np.clip(x, -20.0, 20.0),
                             control=0.25, horizon=150.0, burn_in=15.0, step=0.01,
                             n_paths=120, seed=4)
    assert abs(est.value - math.sqrt(2.0) * 0.5) <= 3.0 * est.stderr + 0.01


def test_invariant_average_constant_has_zero_stderr(model, g0, coarse_grid):
    est = _invariant_average(model, g0, coarse_grid, lambda x: 1.0 + 0.0 * x, horizon=5.0,
                             burn_in=1.0, step=0.05, n_paths=16)
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_invariant_average_matches_parent_values(model, g0, coarse_grid):
    # values of the full-array implementation the path engine replaced; only
    # the order of the time sums differs, and a zero shift changes no state
    est = _invariant_average(model, g0, coarse_grid, eg.bump, horizon=30.0, burn_in=5.0,
                             step=0.02, n_paths=16, seed=3)
    assert est.value == pytest.approx(0.3570573054102584, rel=1e-12)
    assert est.stderr == pytest.approx(0.010462162973639411, rel=1e-12)


def test_invariant_average_rejects_bad_burn_in(model, g0, coarse_grid):
    with pytest.raises(ValueError, match="burn_in"):
        _invariant_average(model, g0, coarse_grid, eg.bump, horizon=1.0, burn_in=2.0,
                           step=0.01, n_paths=2)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_invariant_average_memory_flat_in_horizon(model, g0, coarse_grid, monkeypatch):
    # one worker keeps the engine in this process, where tracemalloc sees it
    monkeypatch.setattr(sde, "_cpu_count", lambda: 1)

    def run(horizon):
        return _peak_bytes(lambda: _invariant_average(
            model, g0, coarse_grid, eg.bump, horizon=horizon, burn_in=1.0, step=0.05,
            n_paths=64, seed=0))

    short, long = run(60.0), run(480.0)  # 1,200 and 9,600 steps
    # a paths x steps array at the long horizon alone would be 4.9 MB
    assert long <= short + 256 * 1024, (short, long)


def _engine_bound(width, n_keys):
    """Bytes a run of ``width`` columns over ``n_keys`` distinct keys may hold: the
    time-major noise (whose rows also hold the nodes) and states, one window each,
    one band of normals and a generator per key, with 1 MiB to spare.  Taken before
    the run: a process's first generator allocates once-only caches."""
    eg.path_stream(0, 0)
    window = 8 * width * (sde._FINITE_CHECK_STEPS + 1)
    band = 8 * sde._BAND * sde._FINITE_CHECK_STEPS
    streams = _peak_bytes(lambda: [eg.path_stream(0, j) for j in range(n_keys)])
    return 2 * window + band + streams + 2**20


def test_engine_memory_is_two_windows_and_one_band(model):
    # a full batch over eight windows, with a drift table and a consumer that
    # keeps nothing: a draw block of 1,024 steps per key (16 MiB) would fail
    # this bound
    p, n = sde._MAX_BATCH_PATHS, 8 * sde._FINITE_CHECK_STEPS
    bound = _engine_bound(p, p)
    peak = _peak_bytes(lambda: sde.run_paths(
        model, n, 0.01, [0], p, lambda *args: None, drift=(_SMALL, [np.tanh(_SMALL)])))
    assert peak < bound, (peak, bound)


def test_engine_memory_at_the_wide_residual_shape(model):
    # 1,000 distinct keys over 1,000 steps with a drift table, the coarse
    # pathwise residual of a wide check in one process (on two CPUs it runs as
    # two workers of 500 keys): a draw block of 1,000 steps per key (8 MB)
    # would fail this bound
    p = n = 1000
    bound = _engine_bound(p, p)
    peak = _peak_bytes(lambda: sde.run_paths(
        model, n, 0.01, [0], p, lambda *args: None, drift=(_SMALL, [np.tanh(_SMALL)])))
    assert peak < bound, (peak, bound)


def test_engine_draws_each_shared_key_once(model):
    # eight seeds listed as one: a full batch of 2,048 columns over 256
    # distinct keys seeds 256 generators, not one per column (2,048 of them
    # would fail this bound), and draws each key's normals once per window
    n_paths = 256
    assert 8 * n_paths == sde._MAX_BATCH_PATHS
    n = 8 * sde._FINITE_CHECK_STEPS
    bound, counters = _engine_bound(sde._MAX_BATCH_PATHS, n_paths), {}
    peak = _peak_bytes(lambda: counters.update(sde.run_paths(
        model, n, 0.01, [0] * 8, n_paths, lambda *args: None)))
    assert counters["streams"] == n_paths
    assert peak < bound, (peak, bound)

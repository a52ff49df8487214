"""Forward simulation: reproducibility, guards, and invariant-law oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergodic_games as eg
from ergodic_games.sde import _n_steps

from conftest import E_BUMP_STANDARD


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


def test_batch_row_matches_single_path(model):
    shift = eg.DriftShift(shift=lambda x: np.tanh(x), bound=1.0)
    batch = eg.sample_paths(model, shift, 2.0, 0.01, seed=5, n_paths=8)
    for k in (0, 3, 7):
        single = eg.simulate(model, shift, 2.0, 0.01, seed=5, path_index=k)
        assert np.array_equal(single.states, batch[k])


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


def test_zero_horizon_returns_initial_state(model):
    p = eg.simulate(model, None, horizon=0.0, step=0.5)
    assert p.states.shape == (1, 1)
    assert p.states[0, 0] == 0.0


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
        eg.simulate(model, None, horizon=10.0, step=1.5)


def test_divergence_detected(model):
    # nan shift passes the sampled bound check (nan > bound is False) but
    # must be caught on the first Euler step
    bad = eg.DriftShift(shift=lambda x: np.full_like(np.asarray(x, float), np.nan),
                        bound=1.0)
    with pytest.raises(eg.SimulationDivergedError) as exc:
        eg.simulate(model, bad, horizon=1.0, step=0.01)
    assert exc.value.step_index == 1


def test_divergence_step_found_late_in_a_long_run(model):
    # the shift is zero until some path leaves [-3, 3], so the batch follows
    # the unshifted paths up to that step and turns non-finite one step later
    thr = 3.0
    bad = eg.DriftShift(
        shift=lambda x: np.where(np.abs(x) > thr, np.nan, 0.0), bound=1.0)
    free = eg.sample_paths(model, None, 200.0, 0.01, 1, 5)[:, :, 0]
    first_out = int(np.argmax(np.any(np.abs(free) > thr, axis=0)))
    assert first_out > 300  # well past the first few hundred steps
    with pytest.raises(eg.SimulationDivergedError) as exc:
        eg.sample_paths(model, bad, 200.0, 0.01, 1, 5)
    assert exc.value.step_index == first_out + 1


def test_divergence_reported_when_a_callback_rejects_non_finite_states(model):
    # the shift turns a path non-finite once it leaves [-3, 3] and raises as
    # soon as it is handed a non-finite state; the caller still sees the
    # typed error at the step where the batch diverged
    thr = 3.0

    def shift(x):
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite state")
        return np.where(np.abs(x) > thr, np.nan, 0.0)

    free = eg.sample_paths(model, None, 200.0, 0.01, 1, 5)[:, :, 0]
    first_out = int(np.argmax(np.any(np.abs(free) > thr, axis=0)))
    with pytest.raises(eg.SimulationDivergedError) as exc:
        eg.sample_paths(model, eg.DriftShift(shift=shift, bound=1.0), 200.0, 0.01, 1, 5)
    assert exc.value.step_index == first_out + 1


def test_model_rejects_non_dissipative_drift():
    with pytest.raises(ValueError, match="dissipativity"):
        eg.SdeModel(
            dim=1, lin_drift=1.0, dissipation=1.0,
            bounded_drift=lambda x: 0.0 * x, bounded_drift_sup=0.0,
            bounded_drift_lip=0.0, sigma=lambda x: 1.0,
            sigma_lo=1.0, sigma_hi=3.0, x0=0.0,
        )


def test_model_rejects_understated_drift_bound():
    with pytest.raises(ValueError, match="bounded_drift"):
        eg.SdeModel(
            dim=1, lin_drift=-1.0, dissipation=1.0,
            bounded_drift=np.tanh, bounded_drift_sup=0.5,
            bounded_drift_lip=1.0, sigma=lambda x: 1.0,
            sigma_lo=1.0, sigma_hi=3.0, x0=0.0,
        )


def test_model_rejects_singular_noise():
    with pytest.raises(ValueError, match="sigma"):
        eg.SdeModel(
            dim=1, lin_drift=-1.0, dissipation=1.0,
            bounded_drift=lambda x: 0.0 * x, bounded_drift_sup=0.0,
            bounded_drift_lip=0.0, sigma=lambda x: 0.0 * x,
            sigma_lo=0.0, sigma_hi=3.0, x0=0.0,
        )


def test_drift_shift_bound_checked():
    with pytest.raises(ValueError, match="shift"):
        eg.DriftShift(shift=lambda x: 2.0 * np.tanh(x), bound=1.0)


def test_moment_bound_near_stationary_value(model):
    # OU with sigma^2 = 2: stationary second moment is 1; the sampled sup
    # carries Monte Carlo noise of a few percent
    rep = eg.moment_bound_check(model, horizon=10.0, step=0.01, n_paths=256, seed=0)
    assert rep.bounded_in_horizon
    assert 0.8 <= rep.sup_second_moment <= 1.5
    assert rep.sup_second_moment_doubled <= rep.sup_second_moment * 1.10
    assert rep.bound_constant == pytest.approx(rep.sup_second_moment)  # x0 = 0


def test_invariant_average_matches_quadrature(model):
    est = eg.invariant_average(model, eg.bump, horizon=150.0, burn_in=15.0,
                               step=0.01, n_paths=120, seed=3)
    assert est.kind == "ergodic"
    assert abs(est.value - E_BUMP_STANDARD) <= 3.0 * est.stderr + 0.01


def test_invariant_average_shifted_mean(model):
    # constant shift b moves the invariant mean to sqrt(2) * b
    shift = eg.DriftShift(shift=lambda x: 0.5 + 0.0 * x, bound=0.5)
    est = eg.invariant_average(model, lambda x: x, horizon=150.0, burn_in=15.0,
                               step=0.01, n_paths=120, seed=4, shift=shift)
    assert abs(est.value - math.sqrt(2.0) * 0.5) <= 3.0 * est.stderr + 0.01


def test_invariant_average_constant_has_zero_stderr(model):
    est = eg.invariant_average(model, lambda x: 1.0 + 0.0 * x, horizon=5.0,
                               burn_in=1.0, step=0.05, n_paths=16)
    assert est.value == 1.0
    assert est.stderr == 0.0


def test_invariant_average_rejects_bad_burn_in(model):
    with pytest.raises(ValueError, match="burn_in"):
        eg.invariant_average(model, eg.bump, horizon=1.0, burn_in=2.0,
                             step=0.01, n_paths=2)


def test_path_csv_roundtrip(model, tmp_path):
    p = eg.simulate(model, None, horizon=0.1, step=0.05, seed=1)
    out = tmp_path / "path.csv"
    p.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x_1"
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], p.times)
    assert np.array_equal(data[:, 1], p.states[:, 0])  # repr roundtrips float64

"""Forward SDE machinery for dissipative diffusions.

Models have the form

    dX_t = (lin_drift * X_t + bounded_drift(X_t)) dt + sigma dW_t

on the real line, with a linear part that pulls the state back toward the
origin, a bounded Lipschitz residual drift, and a constant nonzero noise
coefficient.  Paths are produced by Euler-Maruyama stepping in
:func:`run_paths`, which steps many paths at once and hands their states to
a consumer window by window, so estimates need no array of size paths x
steps.  A change of measure is applied as an extra ``sigma * shift(x)``
drift term, ``shift`` a plain callable on arrays of states, so controlled
dynamics reuse the same integrator.

Randomness is drawn from one generator per path, keyed by
``(seed, path_index)``.  Each path's normals are drawn a block of steps at a
time, which only amortises the per-generator calls; stepping, the scan for
divergence and the consumer all work one fixed window of steps at a time, so
no number depends on the block size.  Path ``k`` of a batch is bitwise
identical to the same path simulated alone, so Monte Carlo estimates do not
depend on how paths are batched or scheduled.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ._csv import write_csv
from ._samples import check_states

__all__ = [
    "SimulationDivergedError",
    "SdeModel",
    "Path",
    "MomentReport",
    "path_stream",
    "simulate",
    "sample_paths",
    "moment_bound_check",
]

logger = logging.getLogger(__name__)

# Relative slack applied to sampled inequality checks; absorbs roundoff only.
_CHECK_SLACK = 1e-9
# fixed check states of SdeModel's construction-time check
_MODEL_CHECK_SAMPLES = 10_000


class SimulationDivergedError(RuntimeError):
    """A simulated state became non-finite.

    Attributes
    ----------
    step_index : int
        First Euler step at which a non-finite value appeared.  The engine
        scans once per ``_FINITE_CHECK_STEPS`` steps, so callbacks may
        see (and numpy may warn about) non-finite states for the rest of that
        window; a callback raising on them is reported as this error.
    """

    def __init__(self, step_index: int):
        super().__init__(f"simulation diverged: non-finite state at step {step_index}")
        self.step_index = step_index


def path_stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for one Monte Carlo stream, keyed by ``(seed, *key)``.

    Each distinct key tuple yields an independent, reproducible stream.
    Negative entries are folded into unsigned 64-bit words.
    """
    words = [int(v) & 0xFFFFFFFFFFFFFFFF for v in (seed, *key)]
    return np.random.default_rng(words)


def _broadcast(fn: Callable, x) -> np.ndarray:
    """``fn(x)`` as a float array of the shape of ``x``."""
    return np.broadcast_to(np.asarray(fn(x), dtype=float), np.shape(x))


@dataclass(frozen=True)
class SdeModel:
    """One-dimensional dissipative diffusion with bounded residual drift.

    Parameters
    ----------
    lin_drift : float
        Linear drift coefficient (a one-element array is accepted); finite
        and strictly negative, so the linear part is dissipative with rate
        :attr:`dissipation` ``= -lin_drift``.
    bounded_drift : callable
        Residual drift; must broadcast over numpy arrays.  Bounded by
        ``bounded_drift_sup`` and Lipschitz with constant
        ``bounded_drift_lip``; both constants must be finite, and both bounds
        are checked at construction on fixed states
        (:func:`~ergodic_games._samples.check_states`), where the drift must
        also be finite.
    sigma : float
        Additive noise coefficient; finite and nonzero.
    x0 : float
        Initial state; finite.
    """

    lin_drift: float
    bounded_drift: Callable
    bounded_drift_sup: float
    bounded_drift_lip: float
    sigma: float
    x0: float

    def __post_init__(self):
        for name in ("lin_drift", "sigma", "x0"):
            value = getattr(self, name)
            if np.size(value) != 1:
                raise ValueError(f"models are one-dimensional: {name} must be a scalar")
            object.__setattr__(self, name, float(np.asarray(value).item()))
        if not -math.inf < self.lin_drift < 0.0:
            raise ValueError(f"dissipativity check failed: lin_drift={self.lin_drift!r} "
                             "must be negative and finite")
        if self.sigma == 0.0 or not math.isfinite(self.sigma):
            raise ValueError(f"sigma check failed: noise must be finite and nonzero, "
                             f"got sigma={self.sigma!r}")
        if not math.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got x0={self.x0!r}")
        self._check_bounded_drift()

    @property
    def dissipation(self) -> float:
        """Dissipativity rate of the linear part, ``-lin_drift``."""
        return -self.lin_drift

    def _check_bounded_drift(self) -> None:
        sup, lip = self.bounded_drift_sup, self.bounded_drift_lip
        if not (math.isfinite(sup) and math.isfinite(lip)):
            raise ValueError(f"bounded_drift check failed: bounded_drift_sup={sup!r} and "
                             f"bounded_drift_lip={lip!r} must be finite")
        xs = check_states(_MODEL_CHECK_SAMPLES, 0)
        ys = check_states(_MODEL_CHECK_SAMPLES, 1)
        fx = _broadcast(self.bounded_drift, xs)
        fy = _broadcast(self.bounded_drift, ys)
        norm_f = np.abs(fx)
        # written as "not within the bound" so that a NaN value fails too
        if not np.all(norm_f <= sup * (1.0 + _CHECK_SLACK) + 1e-12):
            k = int(np.argmax(norm_f))
            raise ValueError(
                f"bounded_drift check failed: |bounded_drift(x)|={norm_f[k]:.6g} exceeds "
                f"bounded_drift_sup={sup:.6g} at sampled x={float(xs[k])!r}"
            )
        gap = np.abs(fx - fy) - lip * np.abs(xs - ys)
        if not np.all(gap <= _CHECK_SLACK * (1.0 + np.abs(xs - ys))):
            k = int(np.argmax(gap))
            raise ValueError(
                "bounded_drift check failed: Lipschitz bound bounded_drift_lip="
                f"{lip:.6g} violated at sampled pair x={float(xs[k])!r}, y={float(ys[k])!r}"
            )

    def drift_1d(self, x: np.ndarray) -> np.ndarray:
        """Uncontrolled drift ``lin_drift*x + bounded_drift(x)`` on an array of states."""
        return self.lin_drift * x + _broadcast(self.bounded_drift, x)


@dataclass(frozen=True)
class Path:
    """One simulated trajectory on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray  # shape (n_steps + 1,)

    def to_csv(self, path) -> None:
        """Write columns ``t, x_1``."""
        write_csv(path, ("t", "x_1"), zip(self.times.tolist(), self.states.tolist()))


@dataclass(frozen=True)
class MomentReport:
    """Sampled second-moment diagnostic for the uncontrolled dynamics."""

    sup_second_moment: float
    sup_second_moment_doubled: float
    bound_constant: float
    horizon: float
    n_paths: int
    bounded_in_horizon: bool


def _check_n_paths(n_paths: int) -> None:
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")


def _n_steps(horizon: float, step: float) -> int:
    if step <= 0.0:
        raise ValueError("step must be positive")
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    if horizon == 0.0:
        return 0
    if step > horizon:
        raise ValueError("step must not exceed horizon")
    return int(math.ceil(horizon / step - 1e-9))


# steps of one window: stepped, scanned for non-finite states and handed to
# the consumer together; a path's windows start at multiples of it whatever
# the batch, so every sum over them is the same as for the path alone
_FINITE_CHECK_STEPS = 256
# steps of normals drawn per call on each path's generator, a multiple of
# _FINITE_CHECK_STEPS so windows tile a block; it only amortises those calls,
# and no number depends on it
_BLOCK_STEPS = 1024
# most paths stepped together: memory is one path-major draw block of
# _BLOCK_STEPS x _MAX_BATCH_PATHS floats plus two window buffers (noise and
# states) of _FINITE_CHECK_STEPS x _MAX_BATCH_PATHS, whatever the horizon or
# path count
_MAX_BATCH_PATHS = 2048
# paths handed to the consumer at a time, one scan window of steps each: its
# temporaries (256 x 32 floats, 64 KB) stay in cache and below the 128 KB at
# which glibc's malloc maps fresh pages, which cuts the cost of a g0 payoff
# from about 35 to 12 ns per path-step against whole windows
_CONSUME_PATHS = 32


def _check_stability(model: SdeModel, step: float) -> None:
    # Explicit Euler on the dissipative part must keep its contraction.
    if 1.0 - step * model.dissipation <= 0.0:
        raise ValueError(
            f"step {step} too large for dissipation {model.dissipation}: "
            "1 - step*dissipation must stay positive"
        )


def copy_transposed(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src.T``, copied in bands of 64 rows of ``src``.

    A band of both arrays stays in cache, which makes the copy about three
    times faster than one strided ``copyto`` of a wide block.
    """
    for r in range(0, len(src), 64):
        np.copyto(dst[:, r:r + 64], src[r:r + 64].T)


def window_sum(values: np.ndarray) -> np.ndarray:
    """Column sums of a time-major block, added along a fixed pairwise tree.

    The tree depends on the number of rows only and every addition is
    elementwise, so a column's sum does not depend on how many columns (paths
    of other jobs) share the block; numpy's own ``sum`` picks its order from
    the array's layout.
    """
    v = values
    while len(v) > 1:
        n = len(v)
        half = (n + 1) // 2
        nxt = np.empty((half,) + v.shape[1:])
        np.add(v[:n - half], v[half:], out=nxt[:n - half])
        if n % 2:
            nxt[-1] = v[half - 1]
        v = nxt
    return v[0]


def run_paths(
    model: SdeModel,
    n_steps: int,
    step: float,
    n_paths: int,
    stream_key: Callable[[int], Tuple[int, int]],
    consume: Callable,
    shift_for: Optional[Callable] = None,
    with_noise: bool = False,
    label: str = "run_paths",
) -> None:
    """Euler-Maruyama for many paths of a model, streamed window by window.

    Path ``j`` draws its normals from ``path_stream(*stream_key(j))``.  Paths
    are stepped together in batches of at most ``_MAX_BATCH_PATHS`` columns.
    A batch draws each path's normals ``_BLOCK_STEPS`` steps per generator
    call into one path-major block, then transposes, scales and steps them one
    window of ``_FINITE_CHECK_STEPS`` steps at a time; its buffers are that
    block and two window-sized ones, and no number depends on the block size.
    ``shift_for(cols)`` returns the drift shift callback of the batch holding
    paths ``cols`` (a slice of ``range(n_paths)``).  Every
    ``_FINITE_CHECK_STEPS`` steps, once they are checked finite, the engine
    calls ``consume(cols, start, states, noise)`` for each run of at most
    ``_CONSUME_PATHS`` paths ``cols``: ``states`` holds their states at
    steps ``start`` to ``start + L`` time-major, shape ``(L + 1, width)``,
    and ``noise`` the standard normals of those steps path-major, shape
    ``(width, L)``, when ``with_noise`` (else None).  Both are views of
    buffers the engine reuses, so nothing of size paths x steps is built.
    Path ``j`` is bitwise the same as when simulated alone.  One INFO line
    per call reports paths, steps, batches, blocks and the seconds spent
    drawing normals (``rng_s``), stepping (``euler_s``) and in ``consume``
    (``cost_s``).  ``n_paths`` must be at least 1.
    """
    _check_n_paths(n_paths)
    if n_steps > 0:
        _check_stability(model, step)
    seconds = [0.0, 0.0, 0.0]  # rng, euler, consume
    n_batches = n_blocks = 0
    for b0 in range(0, n_paths if n_steps > 0 else 0, _MAX_BATCH_PATHS):
        cols = slice(b0, min(b0 + _MAX_BATCH_PATHS, n_paths))
        n_blocks += _run_batch(model, n_steps, step, cols, stream_key, consume, shift_for,
                               with_noise, seconds)
        n_batches += 1
    logger.info("%s engine: paths=%d steps=%d batches=%d blocks=%d rng_s=%.4f "
                "euler_s=%.4f cost_s=%.4f", label, n_paths, n_steps, n_batches, n_blocks,
                *seconds)


def _run_batch(model: SdeModel, n_steps: int, step: float, cols: slice,
               stream_key: Callable, consume: Callable, shift_for: Optional[Callable],
               with_noise: bool, seconds: list) -> int:
    """One batch of :func:`run_paths`; its buffers are freed when it returns."""
    clock = time.perf_counter
    t0 = clock()
    a = model.lin_drift
    sqrt_h = math.sqrt(step)
    has_residual = model.bounded_drift_sup != 0.0
    # a 0-d array: ufuncs take it without converting a Python float every step
    sigma = np.array(model.sigma)
    streams = [path_stream(*stream_key(j)) for j in range(cols.start, cols.stop)]
    p = len(streams)
    drawn = np.empty((p, min(_BLOCK_STEPS, n_steps)))  # path-major, as each stream draws
    win = min(_FINITE_CHECK_STEPS, n_steps)
    noise = np.empty((win, p))  # one window, time-major, scaled by sigma * sqrt(step)
    states = np.empty((win + 1, p))
    states[0] = model.x0
    tmp = np.empty(p)
    shift_fn = shift_for(cols) if shift_for is not None else None
    seconds[0] += clock() - t0
    n_blocks = 0
    for start in range(0, n_steps, _BLOCK_STEPS):
        t0 = clock()
        n_blk = min(_BLOCK_STEPS, n_steps - start)
        for row, stream in zip(drawn, streams):
            stream.standard_normal(out=row[:n_blk])
        seconds[0] += clock() - t0
        for c0 in range(0, n_blk, _FINITE_CHECK_STEPS):
            t0 = clock()
            stop = min(_FINITE_CHECK_STEPS, n_blk - c0)
            dw = noise[:stop]
            # time-major layout keeps every per-step slice contiguous
            copy_transposed(dw, drawn[:, c0:c0 + stop])
            t1 = clock()
            seconds[0] += t1 - t0
            # (sigma * z) * sqrt_h, in this order: every path's bits depend on it
            dw *= sigma
            dw *= sqrt_h
            x = states[0]
            try:
                for k in range(stop):
                    nxt = states[k + 1]
                    np.multiply(x, a, out=nxt)
                    if has_residual:
                        nxt += np.asarray(model.bounded_drift(x), dtype=float)
                    if shift_fn is not None:
                        np.multiply(sigma, np.asarray(shift_fn(x), dtype=float), out=tmp)
                        nxt += tmp
                    nxt *= step
                    nxt += x
                    nxt += dw[k]
                    x = nxt
            except Exception:
                # a callback may reject the states of a path that already diverged
                stop = k
                if np.isfinite(states[1:stop + 1]).all():
                    raise
            # any non-finite entry makes its step's sum non-finite; the first such
            # step is where the batch diverged
            bad = ~np.isfinite(states[1:stop + 1].sum(axis=1))
            if bad.any():
                raise SimulationDivergedError(start + c0 + 1 + int(np.argmax(bad)))
            t2 = clock()
            for p0 in range(0, p, _CONSUME_PATHS):
                p1 = min(p0 + _CONSUME_PATHS, p)
                consume(slice(cols.start + p0, cols.start + p1), start + c0,
                        states[:stop + 1, p0:p1],
                        drawn[p0:p1, c0:c0 + stop] if with_noise else None)
            seconds[1] += t2 - t1
            seconds[2] += clock() - t2
            states[0] = states[stop]
        n_blocks += 1
    return n_blocks


def _all_states(
    model: SdeModel,
    shift: Optional[Callable],
    horizon: float,
    step: float,
    n_paths: int,
    stream_key: Callable[[int], Tuple[int, int]],
    return_noise: bool,
    label: str,
):
    """Keep every window: states ``(n_paths, n_steps + 1)`` and, on request, noise."""
    n = _n_steps(horizon, step)
    _check_n_paths(n_paths)
    states = np.empty((n_paths, n + 1))
    states[:, 0] = model.x0
    noise = np.empty((n_paths, n)) if return_noise else None

    def keep(cols, start, block, drawn):
        copy_transposed(states[cols, start + 1:start + len(block)], block[1:])
        if drawn is not None:
            noise[cols, start:start + drawn.shape[1]] = drawn

    shift_for = (lambda cols: shift) if shift is not None else None
    run_paths(model, n, step, n_paths, stream_key, keep, shift_for, return_noise, label)
    return states, noise


def simulate(
    model: SdeModel,
    shift: Optional[Callable] = None,
    horizon: float = 1.0,
    step: float = 0.01,
    seed: int = 0,
    path_index: int = 0,
) -> Path:
    """Euler-Maruyama path with ``ceil(horizon/step)`` steps.

    ``shift`` (None for the uncontrolled dynamics) maps an array of states to
    drift shifts of the same shape, added as ``sigma * shift(x)``.  With
    ``horizon == 0`` the path holds the single initial state.  The same
    ``(seed, path_index)`` always reproduces the same path.
    """
    states, _ = _all_states(model, shift, horizon, step, 1, lambda j: (seed, path_index),
                            False, "simulate")
    times = np.arange(states.shape[1]) * step
    return Path(times=times, states=states[0])


def sample_paths(
    model: SdeModel,
    shift: Optional[Callable],
    horizon: float,
    step: float,
    seed: int,
    n_paths: int,
    return_noise: bool = False,
):
    """States of ``n_paths`` independent paths, shape ``(n_paths, n_steps+1)``.

    ``shift`` is as for :func:`simulate`, and row ``k`` equals
    ``simulate(..., path_index=k)`` bitwise.  With
    ``return_noise`` the ``(n_paths, n_steps)`` standard normals that drove
    them come back too.
    """
    states, noise = _all_states(model, shift, horizon, step, n_paths, lambda j: (seed, j),
                                return_noise, "sample_paths")
    return (states, noise) if return_noise else states


def moment_bound_check(
    model: SdeModel,
    horizon: float = 10.0,
    step: float = 0.01,
    n_paths: int = 256,
    seed: int = 0,
    growth_slack: float = 0.10,
) -> MomentReport:
    """Largest mean squared state over the time grid, at ``horizon`` and
    ``2 * horizon``.

    Dissipativity keeps this quantity bounded uniformly in the horizon, so the
    doubled-horizon estimate must not exceed the base one by more than
    ``growth_slack`` (relative).  The implied constant is
    ``sup_second_moment / (1 + |x0|^2)``.
    """
    states = sample_paths(model, None, 2.0 * horizon, step, seed, n_paths)
    mean_sq = (states**2).mean(axis=0)
    n_half = _n_steps(horizon, step)
    sup_t = float(np.max(mean_sq[: n_half + 1]))
    sup_2t = float(np.max(mean_sq))
    c = sup_t / (1.0 + model.x0**2)
    return MomentReport(
        sup_second_moment=sup_t,
        sup_second_moment_doubled=sup_2t,
        bound_constant=c,
        horizon=horizon,
        n_paths=n_paths,
        bounded_in_horizon=bool(sup_2t <= sup_t * (1.0 + growth_slack)),
    )


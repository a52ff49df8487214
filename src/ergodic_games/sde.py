"""Forward SDE machinery for dissipative diffusions.

Models have the form

    dX_t = (lin_drift * X_t + bounded_drift(X_t)) dt + sigma dW_t

on the real line, with a linear part that pulls the state back toward the
origin, a bounded Lipschitz residual drift, and a constant nonzero noise
coefficient.  Paths are produced by Euler-Maruyama stepping in
:func:`run_paths`, which steps many paths at once and hands their states to
a consumer window by window, so estimates need no array of size paths x
steps.  A change of measure is an extra ``sigma * shift`` drift term,
``shift`` a table on uniform nodes read at each state's nearest node (which
the consumer gets too), so controlled dynamics reuse the same integrator.

Randomness is drawn from one generator per path, keyed by
``(seed, path_index)``: numpy's ``default_rng`` of those words.  A run of
:func:`run_paths` has one seed, and its jobs (the rows of its drift table)
all read it: path ``k`` of every job follows the normals of stream ``(seed,
k)``, so jobs differ only in their drift.  A batch is a range of paths for a
block of whole jobs; it seeds the range's keys in one vectorized pass of
numpy's seed hashing (:func:`_path_streams`, bitwise the generators of
:func:`path_stream`) and draws each key once, for every job of the block.
Drawing, stepping, the scan for divergence and the consumer all work one
fixed window of steps at a time; each window's normals are drawn and scaled
a band of keys at a time, which only groups the work, so no number depends
on the band size.  Path ``k`` of a batch is bitwise identical to the same
path simulated alone, so Monte Carlo estimates do not depend on how paths are
batched or scheduled.  :func:`sample_paths` records every state of the paths
of one seed; the checks in :mod:`.verify` consume windows as they come.

For the same reason :func:`path_sums`, which adds up per-path terms over a
run, may split the paths into contiguous ranges and run each range in a
process of its own, started by ``os.fork`` and sending its sums back
through a pipe: every range keeps its paths' keys through ``first_path``,
so the sums joined in path order are the bits one process would have made.
A worker keeps the heap it frees (:func:`_keep_heap`): it exits after one
run, so pages given back to the system would only be faulted in again.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import logging
import math
import os
import pickle
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Optional, Sequence

import numpy as np

from ._samples import CHECK_SAMPLES, check_states, first_over
from .ebsde import nearest_node, node_lookup

__all__ = [
    "SimulationDivergedError",
    "SdeModel",
    "MomentReport",
    "path_stream",
    "sample_paths",
    "moment_bound_check",
]

logger = logging.getLogger(__name__)

# relative growth of the sampled second moment allowed when the horizon doubles
_GROWTH_SLACK = 0.10


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

    def __reduce__(self):
        # rebuilt from the step, not the message, when a worker process sends it
        return type(self), (self.step_index,)


def _integer(v, name: str, error: type = ValueError) -> int:
    """``int(v)``, or ``error`` unless ``v`` is an integer (a numpy one, not a bool)."""
    if isinstance(v, bool) or not isinstance(v, Integral):
        raise error(f"{name} must be an integer, got {v!r}")
    return int(v)


def _real(v, name: str, error: type = ValueError) -> float:
    """``float(v)``, or ``error`` where ``v`` is a bool (YAML's ``true`` would read 1.0) or
    anything ``float`` refuses."""
    if not isinstance(v, bool):
        try:
            return float(v)
        except (TypeError, ValueError):
            pass
    raise error(f"{name} must be a number, got {v!r}")


def path_stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for one Monte Carlo stream, keyed by ``(seed, *key)``.

    Each distinct key tuple yields an independent, reproducible stream:
    ``np.random.default_rng`` of the key's entries, each folded into an
    unsigned 64-bit word (so ``-1`` and ``2**64 - 1`` name the same stream).
    An entry that is not an integer (a bool or 1.5) is a ValueError.
    """
    return np.random.default_rng([_integer(v, "a stream key") & 0xFFFFFFFFFFFFFFFF
                                  for v in (seed, *key)])


# numpy's SeedSequence hashing (a pool of 4 words): its hash and mix constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.cache
def _fixed_state() -> type:
    """A seed sequence whose state is a given row, built on first use: defining it
    imports ``numpy.random``, which ``import ergodic_games`` does not."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    return FixedState


def _path_streams(seed: int, keys: Sequence[int]) -> list:
    """``[path_stream(seed, k) for k in keys]`` bit for bit: every key's ``SeedSequence``
    (the seed's one or two 32-bit words, then the key's one) hashed in one vector pass,
    its state handed to ``PCG64``.  Every key must lie in ``0..2**32-1``."""
    word = _integer(seed, "a stream key") & 0xFFFFFFFFFFFFFFFF
    # entropy zero-padded to the pool: the seed's low word, its high one if nonzero, the key
    pool = np.zeros((4, len(keys)), dtype=np.uint32)
    pool[0], pool[1] = word & 0xFFFFFFFF, word >> 32
    pool[1 + (word >> 32 > 0)] = keys
    const = {_MULT_A: _INIT_A, _MULT_B: _INIT_B}  # each hash's running constant

    def hashed(words, mult):
        words = words ^ np.uint32(const[mult])
        const[mult] = const[mult] * mult & 0xFFFFFFFF
        words = words * np.uint32(const[mult])
        return words ^ (words >> 16)

    pool = [hashed(words, _MULT_A) for words in pool]
    for src, dst in itertools.permutations(range(4), 2):
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed(pool[src], _MULT_A)
        pool[dst] = mixed ^ (mixed >> 16)
    state = np.stack([hashed(pool[i % 4], _MULT_B) for i in range(8)], axis=1)
    fixed = _fixed_state()
    return [np.random.Generator(np.random.PCG64(fixed(row)))
            for row in state.astype("<u4").view("<u8").astype(np.uint64)]


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
        xs = check_states(CHECK_SAMPLES, 0)
        ys = check_states(CHECK_SAMPLES, 1)
        fx = _broadcast(self.bounded_drift, xs)
        fy = _broadcast(self.bounded_drift, ys)
        k = first_over(np.abs(fx), sup)
        if k is not None:
            raise ValueError(f"bounded_drift check failed: |bounded_drift(x)|={abs(fx[k]):.6g} "
                             f"exceeds bounded_drift_sup={sup:.6g} at sampled x={float(xs[k])!r}")
        k = first_over(np.abs(fx - fy), lip * np.abs(xs - ys))
        if k is not None:
            raise ValueError(
                "bounded_drift check failed: Lipschitz bound bounded_drift_lip="
                f"{lip:.6g} violated at sampled pair x={float(xs[k])!r}, y={float(ys[k])!r}"
            )

    def drift_1d(self, x: np.ndarray) -> np.ndarray:
        """Uncontrolled drift ``lin_drift*x + bounded_drift(x)`` on an array of states."""
        return self.lin_drift * x + _broadcast(self.bounded_drift, x)


@dataclass(frozen=True)
class MomentReport:
    """Sampled second-moment diagnostic for the uncontrolled dynamics."""

    sup_second_moment: float
    sup_second_moment_doubled: float
    bound_constant: float
    horizon: float
    n_paths: int

    @property
    def bounded_in_horizon(self) -> bool:
        return self.sup_second_moment_doubled <= self.sup_second_moment * (1.0 + _GROWTH_SLACK)


def _check_n_paths(n_paths: int) -> int:
    if (n := _integer(n_paths, "n_paths")) < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    return n


def _n_jobs(drift: Optional[tuple]) -> int:
    return 1 if drift is None else len(drift[1])  # a job per drift row, or one


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


# steps of one window: drawn, stepped, scanned for non-finite states and handed
# to the consumer together; a path's windows start at multiples of it whatever
# the batch, so every sum over them is the same as for the path alone
_FINITE_CHECK_STEPS = 256
# keys whose window of normals is drawn and scaled in one (_BAND, window)
# buffer (128 KiB), which stays in cache; it only groups the work, and no
# number depends on it
_BAND = 64
# most paths stepped together: memory is two window buffers (noise, whose used
# rows also hold the nodes, and states) of _FINITE_CHECK_STEPS + 1 rows of
# _MAX_BATCH_PATHS, one band and a generator per key, whatever the horizon
_MAX_BATCH_PATHS = 2048
# most paths of one job handed to the consumer at a time, one scan window of
# steps each: its temporaries (256 x 32 floats, 64 KB) stay in cache and below
# the 128 KB at which glibc's malloc maps fresh pages, which cuts the cost of a
# g0 payoff from about 35 to 12 ns per path-step against whole windows
_CONSUME_PATHS = 32


def window_sum(values: np.ndarray) -> np.ndarray:
    """Column sums of a time-major block, added along a fixed pairwise tree.

    The tree depends on the number of rows only and every addition is
    elementwise, so a column's sum does not depend on how many columns (paths
    of other jobs) share the block; numpy's own ``sum`` picks its order from
    the array's layout.
    """
    v, n = values, len(values)
    # one half-size buffer: the first level adds into it, the later ones in place
    buf = np.empty(((n + 1) // 2,) + values.shape[1:]) if n > 1 else None
    while n > 1:
        half = (n + 1) // 2
        np.add(v[:n - half], v[half:n], out=buf[:n - half])
        if n % 2 and v is values:  # later odd middle rows already sit at their index
            buf[half - 1] = values[half - 1]
        v, n = buf, half
    return v[0]


def run_paths(
    model: SdeModel,
    n_steps: int,
    step: float,
    seed: int,
    n_paths: int,
    consume: Callable,
    drift: Optional[tuple] = None,
    first_path: int = 0,
) -> dict:
    """Euler-Maruyama for ``n_paths`` paths of each job, streamed window by window.

    The jobs are the rows of the drift table, or one job without a drift.
    Path ``k`` of every job is driven by the normals of ``path_stream(seed,
    first_path + k)``, so a range of paths run on its own (``first_path >
    0``) gives those paths' bits; ``first_path + n_paths`` may not exceed
    ``2**32``.  ``drift = (nodes, table)`` adds ``sigma * table[j][i]`` to
    each Euler step of job ``j``, ``i`` the node nearest its state
    (:func:`nearest_node`).  The run is set up once, before any step: the
    node grid is checked, the table's rows are joined and scaled by
    ``sigma``, and two window buffers and one band of ``_BAND`` keys by one
    window are allocated: with a generator per key, the engine's memory
    whatever the number of keys.  Each batch then steps a range of at most
    ``_MAX_BATCH_PATHS`` paths for as many whole jobs as fit in that many
    columns, job by job; it seeds the range's keys in one pass of
    :func:`_path_streams` and works one window of ``_FINITE_CHECK_STEPS``
    steps at a time: it draws and scales the window's normals a band of keys
    at a time, hands each band to every job of the batch with one broadcast
    copy into the time-major noise window, and steps them, so no number
    depends on the band size.  After each window, once checked finite, the
    engine calls ``consume(job, paths, start, states, nodes)`` for each run of
    at most ``_CONSUME_PATHS`` columns of one job: ``paths`` is a slice of
    ``0..n_paths-1``, ``states`` their states at steps ``start`` to ``start +
    L`` time-major, shape ``(L + 1, width)``, and ``nodes[k]`` the node of
    ``states[k]`` (None without a ``drift``): views of the window buffers, so
    nothing of size paths x steps is built.  Each path is bitwise the same as
    when simulated alone.  Returns the counters ``paths``, ``steps``,
    ``batches``, ``windows``, ``streams`` (each batch's keys, summed) and the
    seconds spent drawing, scaling and copying normals (``rng_s``), stepping
    (``euler_s``) and in ``consume`` (``cost_s``), which :func:`_log_engine`
    reports.  ``n_paths`` must be at least 1.  A batch that diverges stops
    and the later ones still run; the earliest divergence step of all
    batches is raised, as one batch of all the paths, or any split of them
    over workers, reports it.
    """
    n_paths = _check_n_paths(n_paths)
    if not 0 <= first_path <= 2**32 - n_paths:
        raise ValueError(f"path keys {first_path} to {first_path + n_paths - 1} leave 0..2**32-1")
    # explicit Euler on the dissipative part must keep its contraction
    if n_steps > 0 and 1.0 - step * model.dissipation <= 0.0:
        raise ValueError(f"step {step} too large for dissipation {model.dissipation}: "
                         "1 - step*dissipation must stay positive")
    clock = time.perf_counter
    n_jobs = _n_jobs(drift)
    # a batch: w paths (fewer in the last range) of each of a block of jobs
    w = min(n_paths, _MAX_BATCH_PATHS)
    block = min(n_jobs, _MAX_BATCH_PATHS // w)
    if drift is not None:
        # every job's row end to end, scaled once in place (a freed temporary of its
        # size raised g0's workers' peak RSS by 1 MiB); offset j * m indexes job j's row
        nodes, table = drift
        flat = np.concatenate(table, dtype=float)
        flat *= model.sigma
        lookup = tuple(np.array(float(v)) for v in node_lookup(nodes))
        m, scaled_all, at_all = len(nodes), np.empty(block * w), np.empty(block * w, dtype=np.intp)
    # one window each, time-major (a batch of p columns views (win + 1) * p entries),
    # and the band: buffers freed per batch moved glibc's mmap threshold and the RSS
    win = min(_FINITE_CHECK_STEPS, n_steps)
    noise_all, states_all = np.empty((win + 1) * block * w), np.empty((win + 1) * block * w)
    band = np.empty((min(_BAND, w), win))
    sqrt_h = math.sqrt(step)
    has_residual = model.bounded_drift_sup != 0.0
    # 0-d arrays and a positional out: ufuncs take them without converting a
    # Python float or parsing a keyword every step
    a, h, sigma = np.array(model.lin_drift), np.array(step), np.array(model.sigma)
    add, multiply = np.add, np.multiply
    rng_s = euler_s = cost_s = 0.0
    n_batches = n_streams = 0
    diverged: Optional[SimulationDivergedError] = None
    for j0, k0 in itertools.product(range(0, n_jobs, block),
                                    range(0, n_paths if n_steps > 0 else 0, w)):
        t0 = clock()
        width, jobs = min(w, n_paths - k0), range(j0, min(j0 + block, n_jobs))
        p = len(jobs) * width
        streams = _path_streams(seed, range(first_path + k0, first_path + k0 + width))
        # each job's paths in runs of at most _CONSUME_PATHS: (job, its paths, columns)
        pieces = [(job, slice(k0 + k, k0 + min(k + _CONSUME_PATHS, width)),
                   slice(i * width + k, i * width + min(k + _CONSUME_PATHS, width)))
                  for i, job in enumerate(jobs) for k in range(0, width, _CONSUME_PATHS)]
        if drift is not None:
            scaled, at = scaled_all[:p], at_all[:p]
            offsets = np.repeat(np.arange(jobs.start, jobs.stop) * m, width)
        # scaled by sigma * sqrt(step): step k reads row k + 1 and, with a drift,
        # writes the node of its state into row k, whose noise step k - 1 has used
        noise = noise_all[:(win + 1) * p].reshape(win + 1, p)
        node_rows = noise.view(np.intp)
        states = states_all[:(win + 1) * p].reshape(win + 1, p)
        states[0] = model.x0
        # each step's rows, as views built once: indexing makes a view every step
        x_rows, dw_rows, node_at = list(states), list(noise[1:]), list(node_rows)
        rng_s += clock() - t0
        try:
            for start in range(0, n_steps, _FINITE_CHECK_STEPS):
                t0 = clock()
                stop = min(_FINITE_CHECK_STEPS, n_steps - start)
                dw = noise[1:stop + 1].reshape(stop, len(jobs), width)
                for b in range(0, width, _BAND):
                    keys = streams[b:b + _BAND]
                    drawn = band[:len(keys), :stop]
                    for row, stream in zip(drawn, keys):
                        stream.standard_normal(out=row)
                    # (sigma * z) * sqrt_h, in this order: every path's bits depend on it
                    drawn *= sigma
                    drawn *= sqrt_h
                    # time-major layout keeps every per-step slice contiguous; one
                    # broadcast copy hands the band to every job
                    np.copyto(dw[:, :, b:b + len(keys)], drawn.T[:, None, :])
                t1 = clock()
                rng_s += t1 - t0
                x = x_rows[0]
                try:
                    for k in range(stop):
                        nxt = x_rows[k + 1]
                        multiply(x, a, nxt)
                        if has_residual:
                            nxt += np.asarray(model.bounded_drift(x), dtype=float)
                        if drift is not None:
                            add(nearest_node(x, lookup, (scaled, node_at[k])), offsets, at)
                            # take's out= would buffer a copy in its default mode
                            add(nxt, flat.take(at), nxt)
                        multiply(nxt, h, nxt)
                        add(nxt, x, nxt)
                        add(nxt, dw_rows[k], nxt)
                        x = nxt
                except Exception:
                    # bounded_drift may reject the states of a path that already diverged
                    stop = k
                    if np.isfinite(states[1:stop + 1]).all():
                        raise
                # any non-finite entry makes its step's sum non-finite; the first such
                # step is where the batch diverged
                bad = ~np.isfinite(states[1:stop + 1].sum(axis=1))
                if bad.any():
                    raise SimulationDivergedError(start + 1 + int(np.argmax(bad)))
                t2 = clock()
                for job, paths, at_cols in pieces:
                    consume(job, paths, start, states[:stop + 1, at_cols],
                            node_rows[:stop, at_cols] if drift is not None else None)
                euler_s += t2 - t1
                cost_s += clock() - t2
                states[0] = states[stop]
        except SimulationDivergedError as err:
            if diverged is None or err.step_index < diverged.step_index:
                diverged = err
        else:
            n_batches += 1
            n_streams += width
    if diverged is not None:
        raise diverged
    windows = n_batches * len(range(0, n_steps, _FINITE_CHECK_STEPS))
    return dict(paths=n_jobs * n_paths, steps=n_steps, batches=n_batches, windows=windows,
                streams=n_streams, rng_s=rng_s, euler_s=euler_s, cost_s=cost_s)


def _log_engine(label: str, workers: int, *counters: dict) -> None:
    """One INFO line, its numbers the record's ``trace`` (kind ``"engine"``), for the engine
    runs of one call: every counter of :func:`run_paths` summed over ``counters`` (one per
    path range; each range steps the same ``steps``), and the ``workers`` that ran them."""
    trace = {"kind": "engine", "label": label,
             **{key: sum(c[key] for c in counters) for key in counters[0]},
             "steps": counters[0]["steps"], "workers": workers}
    logger.info("%(label)s engine: paths=%(paths)d steps=%(steps)d batches=%(batches)d "
                "windows=%(windows)d streams=%(streams)d workers=%(workers)d "
                "rng_s=%(rng_s).4f euler_s=%(euler_s).4f cost_s=%(cost_s).4f", trace,
                extra={"trace": trace})


# path-steps of engine work a worker process must get.  A g0-sized process on a
# 2-CPU host (no-op consumer, 3 medians of 15) ran 250k / 500k / 1M path-steps in
# 31-43 / 47-54 / 53-67 ms in-process and 37-39 / 42-46 / 51-55 ms split in two:
# a split wins once each worker gets 250k, and is a toss-up at 125k
_MIN_WORKER_PATH_STEPS = 250_000


def _cpu_count() -> int:
    """CPUs this process may run on (``taskset -c 0`` pins it to one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def path_sums(label: str, model: SdeModel, n_steps: int, step: float, seed: int,
              n_paths: int, terms: Callable, drift: Optional[tuple] = None,
              groups: Optional[Sequence[int]] = None) -> np.ndarray:
    """Per-path sums of ``terms`` over one engine run, shape ``(len(groups), n_paths)``.

    Entry ``[r, k]`` sums terms of path ``k`` of job ``groups[r]`` of
    :func:`run_paths` of ``seed`` (one job per row of the ``drift`` table; without
    ``groups`` row ``r`` reads job ``r``), so several rows may share one job's
    paths, which are simulated once.  ``terms(row, start, states, nodes)`` gets
    each window of the paths of the row's job as a consumer does and returns their
    terms time-major, one row per step it counts, or None; each window's rows are
    added along :func:`window_sum`'s tree, so a row's sums do not depend on the
    other rows.  The run uses ``min(CPUs, n_paths, path-steps //
    _MIN_WORKER_PATH_STEPS)`` workers, so on two CPUs every run of 500,000
    path-steps or more splits: with one, with no ``fork`` on the platform, or in a
    daemonic process (which may have no children), it runs here.  Otherwise each
    contiguous range of paths runs in a child of ``os.fork`` (:func:`_forked`),
    which inherits ``terms`` (closures need no pickling) and ``numpy.random``,
    loaded here first (:func:`_fixed_state`), and keeps the heap it frees
    (:func:`_keep_heap`), and the ranges' sums are joined in path order: the bits
    of one process.  Every range is waited for: if every failing range diverged,
    the earliest divergence is raised, the step one batch of all the paths
    reports; otherwise the lowest failing range's exception is.  A killed worker
    raises ``BrokenProcessPool``, no worker outlives the call, and no process pool
    module is imported.  :func:`_log_engine` reports the run as one ``label`` line.
    """
    n_paths = _check_n_paths(n_paths)
    n_jobs = _n_jobs(drift)
    groups = range(n_jobs) if groups is None else groups
    feeds = [[] for _ in range(n_jobs)]  # the rows of each job
    for row, job in enumerate(groups):
        feeds[job].append(row)

    def run_range(k0, k1):
        sums = np.zeros((len(groups), k1 - k0))

        def add(job, paths, start, states, nodes):
            for row in feeds[job]:
                values = terms(row, start, states, nodes)
                if values is not None:
                    sums[row, paths] += window_sum(values)

        return sums, run_paths(model, n_steps, step, seed, k1 - k0, add, drift, first_path=k0)

    path_steps = n_jobs * n_paths * n_steps
    workers = max(1, min(_cpu_count(), n_paths, path_steps // _MIN_WORKER_PATH_STEPS))
    # a daemonic process may have no children; only a loaded multiprocessing can be one
    mp = sys.modules.get("multiprocessing")
    if not hasattr(os, "fork") or (mp is not None and mp.current_process().daemon):
        workers = 1
    if workers == 1:
        done = [run_range(0, n_paths)]
    else:
        bounds = [n_paths * w // workers for w in range(workers + 1)]
        _fixed_state()  # imports numpy.random once here, not in every worker
        outcomes = _forked(run_range, zip(bounds, bounds[1:]))
        failed = [value for ok, value in outcomes if not ok]
        if failed:
            diverged = all(isinstance(e, SimulationDivergedError) for e in failed)
            raise min(failed, key=lambda e: e.step_index) if diverged else failed[0]
        done = [value for _, value in outcomes]
    _log_engine(label, workers, *(counters for _, counters in done))
    return np.concatenate([sums for sums, _ in done], axis=1)


def _forked(work: Callable, ranges) -> list:
    """``(ok, value)`` of ``work(k0, k1)`` for each range, run in a forked child that
    sends it pickled through a pipe: the result, the exception raised (a RuntimeError
    naming one that does not pickle), with the child's traceback as its cause, or, if
    the child died first, a BrokenProcessPool.  The pipes are read to EOF in range
    order, then every child is reaped, and killed first if this process was
    interrupted, so none outlives the call."""
    pids, pipes, sent = [], [], None
    try:
        for k0, k1 in ranges:
            read, write = os.pipe()
            try:
                pipes.append(open(read, "rb"))
                _flush_std_streams()  # else the child writes this process's buffered output again
                pids.append(os.fork())  # recorded before anything else can raise
                if pids[-1] == 0:  # the child, which never returns
                    try:
                        _keep_heap()
                        try:
                            data = pickle.dumps((True, work(k0, k1), None))
                        except BaseException as err:
                            remote = traceback.format_exc()
                            try:
                                pickle.loads(data := pickle.dumps((False, err, remote)))
                            except Exception as failure:
                                data = pickle.dumps((False, RuntimeError(
                                    f"a worker raised {err!r}, which does not pickle: "
                                    f"{failure!r}"), remote))
                        with open(write, "wb") as pipe:
                            pipe.write(data)
                        _flush_std_streams()
                    finally:
                        os._exit(0)
            finally:
                os.close(write)
        sent = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if sent is None:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    outcomes = []
    for data in sent:
        try:
            ok, value, remote = pickle.loads(data)
        except Exception:  # none or a part of an outcome
            from concurrent.futures.process import BrokenProcessPool

            ok, remote = False, None
            value = BrokenProcessPool("a worker died before sending its sums")
        if remote is not None:
            # pickling dropped the traceback: chain its text, as concurrent.futures does
            value.__cause__ = Exception(f'\n"""\n{remote}"""')
        outcomes.append((ok, value))
    return outcomes


def _keep_heap() -> None:
    """glibc's ``mallopt(M_TRIM_THRESHOLD, 1 GiB)`` (no-op without ``mallopt``): a worker
    runs once and exits, and a fresh fork never reaches glibc's raised trim threshold,
    so it would give back and fault in again the heap of every consumer call."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, 1 << 30)


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None and not stream.closed:
            stream.flush()


def sample_paths(
    model: SdeModel,
    shift: Optional[tuple],
    horizon: float,
    step: float,
    seed: int,
    n_paths: int,
) -> np.ndarray:
    """States of ``n_paths`` independent paths, shape ``(n_paths, n_steps+1)``.

    ``shift`` is None for the uncontrolled dynamics, or a table ``(nodes,
    values)`` of drift shifts at the uniform grid ``nodes``: each step adds
    ``sigma * values[i]``, ``i`` the node nearest its state, and ``values``
    must be 1-d with one entry per node.  With ``horizon == 0`` each row
    holds the single initial state.  Row ``k`` is path ``k`` of ``seed``
    (stream ``(seed, k)``), bitwise the same for any ``n_paths`` above
    ``k``.
    """
    n = _n_steps(horizon, step)
    n_paths = _check_n_paths(n_paths)
    drift = None
    if shift is not None:
        nodes, values = shift
        if np.ndim(values) != 1 or len(values) != len(nodes):
            raise ValueError(f"shift values must be 1-d with one entry per node: got shape "
                             f"{np.shape(values)} for {len(nodes)} nodes")
        drift = (nodes, [values])
    states = np.empty((n_paths, n + 1))
    states[:, 0] = model.x0

    def keep(job, paths, start, block, nodes):
        states[paths, start + 1:start + len(block)] = block[1:].T

    _log_engine("sample_paths", 1, run_paths(model, n, step, seed, n_paths, keep, drift))
    return states


def moment_bound_check(
    model: SdeModel,
    horizon: float = 10.0,
    step: float = 0.01,
    n_paths: int = 256,
    seed: int = 0,
) -> MomentReport:
    """Largest mean squared state over the time grid, at ``horizon`` and
    ``2 * horizon``.

    Dissipativity keeps this quantity bounded uniformly in the horizon, so the
    doubled-horizon estimate must not exceed the base one by more than 10%.
    The implied constant is ``sup_second_moment / (1 + |x0|^2)``.  Paths
    stream through :func:`run_paths`: memory holds one sum per step, not
    every state.
    """
    n = _n_steps(2.0 * horizon, step)
    # each step's squares are added path by path in column order, as a mean over
    # the axis of paths of a (paths, steps) array adds them: the same bits
    mean_sq = np.zeros(n + 1)

    def add_squares(job, paths, start, states, nodes):
        acc = mean_sq[start + 1:start + len(states)]
        for col in np.square(states[1:]).T:
            acc += col

    _log_engine("moment_bound_check", 1, run_paths(model, n, step, seed, n_paths, add_squares))
    mean_sq[0] = np.full(n_paths, model.x0 * model.x0).cumsum()[-1]  # cumsum: in order
    mean_sq /= n_paths
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
    )


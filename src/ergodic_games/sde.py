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
``(seed, path_index)``: numpy's ``default_rng`` of those words.
:func:`run_paths` alone applies the keying rule: given a list of seeds and
``n_paths``, column ``j`` is path ``j % n_paths`` of ``seeds[j // n_paths]``.
A batch seeds and draws each distinct key once, and every column of that key
reads the same normals, so jobs listing one seed share their paths' noise.
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
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._samples import _CHECK_SLACK, check_states
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

# fixed check states of SdeModel's construction-time check
_MODEL_CHECK_SAMPLES = 10_000
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


def path_stream(seed: int, *key: int) -> np.random.Generator:
    """Generator for one Monte Carlo stream, keyed by ``(seed, *key)``.

    Each distinct key tuple yields an independent, reproducible stream:
    ``np.random.default_rng`` of the key's entries, each folded into an
    unsigned 64-bit word (so ``-1`` and ``2**64 - 1`` name the same stream).
    """
    return np.random.default_rng([int(v) & 0xFFFFFFFFFFFFFFFF for v in (seed, *key)])


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


def _check_stability(model: SdeModel, step: float) -> None:
    # Explicit Euler on the dissipative part must keep its contraction.
    if 1.0 - step * model.dissipation <= 0.0:
        raise ValueError(
            f"step {step} too large for dissipation {model.dissipation}: "
            "1 - step*dissipation must stay positive"
        )


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
    seeds: Sequence[int],
    n_paths: int,
    consume: Callable,
    drift: Optional[tuple] = None,
    first_path: int = 0,
) -> dict:
    """Euler-Maruyama for ``n_paths`` paths of each seed, streamed window by window.

    Job ``s`` owns columns ``s * n_paths`` to ``(s + 1) * n_paths - 1``, and
    its path ``k`` is driven by the normals of ``path_stream(seeds[s],
    first_path + k)``: jobs of equal seeds follow the same noise, and a range
    of paths run on its own (``first_path > 0``) gives those paths' bits.
    ``drift = (nodes, table)`` adds ``sigma * table[s][i]`` to each Euler step
    of job ``s``, ``i`` the node nearest its state (:func:`nearest_node`).
    The run is set up once, before any step: the node grid is checked, the
    table's rows are joined and scaled by ``sigma``, and two window buffers
    and one band of ``_BAND`` keys by one window are allocated: with a
    generator per key, the engine's memory whatever the number of keys.
    Columns are then stepped in batches of at most ``_MAX_BATCH_PATHS``; a
    batch seeds one stream per distinct key and works one window of
    ``_FINITE_CHECK_STEPS`` steps at a time: it draws and scales the
    window's normals a band of keys at a time, copies each run of columns
    that read consecutive keys into the time-major noise window with one
    transposed copy, and steps them, so no number depends on the band size.
    After each window, once checked finite, the engine calls
    ``consume(job, paths, start, states, nodes)`` for each run of at most
    ``_CONSUME_PATHS`` columns of one job: ``paths`` is a slice of
    ``0..n_paths-1``, ``states`` their states at steps ``start`` to ``start +
    L`` time-major, shape ``(L + 1, width)``, and ``nodes[k]`` the node of
    ``states[k]`` (None without a ``drift``): views of the window buffers, so
    nothing of size paths x steps is built.  Each path is bitwise the same as
    when simulated alone.  Returns the counters ``paths``, ``steps``,
    ``batches``, ``windows``, ``streams`` (each batch's distinct keys, summed)
    and the seconds spent drawing, scaling and copying normals (``rng_s``),
    stepping (``euler_s``) and in ``consume`` (``cost_s``), which
    :func:`_log_engine` reports.  ``n_paths`` must be at least 1.  A batch
    that diverges stops and the later ones still run; the earliest
    divergence step of all batches is raised, as one batch of all the paths,
    or any split of them over workers, reports it.
    """
    _check_n_paths(n_paths)
    if n_steps > 0:
        _check_stability(model, step)
    total = len(seeds) * n_paths
    width = min(total, _MAX_BATCH_PATHS)
    prepared = None
    if drift is not None:
        # every job's row end to end, scaled once in place (a freed temporary of its
        # size raised g0's workers' peak RSS by 1 MiB); offset s * m indexes job s's row
        nodes, table = drift
        flat = np.concatenate(table, dtype=float)
        flat *= model.sigma
        lookup = tuple(np.array(float(v)) for v in node_lookup(nodes))
        prepared = (lookup, flat, len(nodes), np.empty(width), np.empty(width, dtype=np.intp))
    # one window each, time-major (a batch of p columns views (win + 1) * p entries),
    # and the band: buffers freed per batch moved glibc's mmap threshold and the RSS
    win = min(_FINITE_CHECK_STEPS, n_steps)
    noise, states = np.empty((win + 1) * width), np.empty((win + 1) * width)
    band = np.empty((min(_BAND, width), win))
    seconds = [0.0, 0.0, 0.0]  # rng, euler, consume
    n_batches = n_streams = 0
    diverged: Optional[SimulationDivergedError] = None
    for b0 in range(0, total if n_steps > 0 else 0, _MAX_BATCH_PATHS):
        cols = slice(b0, min(b0 + _MAX_BATCH_PATHS, total))
        try:
            n_streams += _run_batch(model, n_steps, step, seeds, n_paths, first_path, cols,
                                    consume, prepared, band, noise, states, seconds)
        except SimulationDivergedError as err:
            if diverged is None or err.step_index < diverged.step_index:
                diverged = err
            continue
        n_batches += 1
    if diverged is not None:
        raise diverged
    windows = n_batches * len(range(0, n_steps, _FINITE_CHECK_STEPS))
    return {"paths": total, "steps": n_steps, "batches": n_batches, "windows": windows,
            "streams": n_streams, "rng_s": seconds[0], "euler_s": seconds[1],
            "cost_s": seconds[2]}


def _log_engine(label: str, workers: int, *counters: dict) -> None:
    """One INFO line for the engine runs of one call: every counter of
    :func:`run_paths` summed over ``counters`` (one per path range; each
    range steps the same ``steps``), and the ``workers`` that ran them."""
    total = {key: sum(c[key] for c in counters) for key in counters[0]}
    logger.info("%s engine: paths=%d steps=%d batches=%d windows=%d streams=%d workers=%d "
                "rng_s=%.4f euler_s=%.4f cost_s=%.4f", label, total["paths"],
                counters[0]["steps"], total["batches"], total["windows"], total["streams"],
                workers, total["rng_s"], total["euler_s"], total["cost_s"])


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


def path_sums(label: str, model: SdeModel, n_steps: int, step: float, seeds: Sequence[int],
              n_paths: int, terms: Callable, drift: Optional[tuple] = None) -> np.ndarray:
    """Per-path sums of ``terms`` over one engine run, shape ``(len(seeds), n_paths)``.

    Entry ``[s, k]`` is path ``k`` of job ``s`` of :func:`run_paths`.
    ``terms(job, start, states, nodes)`` gets each window of one job's paths
    as a consumer does and returns their terms time-major, one row per step
    it counts, or None; each window's rows are added along
    :func:`window_sum`'s tree.  The run uses ``min(CPUs, n_paths,
    path-steps // _MIN_WORKER_PATH_STEPS)`` workers, so on two CPUs every run
    of 500,000 path-steps or more splits: with one, with no
    ``fork`` on the platform, or in a daemonic process (which may have no
    children), it runs here.  Otherwise each contiguous range of paths runs
    in a child of ``os.fork`` (:func:`_forked`), which inherits ``terms``
    (closures need no pickling), and the ranges' sums are joined in path
    order: the bits of one process.  Every range is waited for: if every
    failing range diverged, the earliest divergence is raised, the step one
    batch of all the paths reports; otherwise the lowest failing range's
    exception is.  A killed worker raises ``BrokenProcessPool``, no worker
    outlives the call, and no process pool module is imported.
    :func:`_log_engine` reports the run as one ``label`` line.
    """
    _check_n_paths(n_paths)

    def run_range(k0, k1):
        sums = np.zeros((len(seeds), k1 - k0))

        def add(job, paths, start, states, nodes):
            values = terms(job, start, states, nodes)
            if values is not None:
                sums[job, paths] += window_sum(values)

        return sums, run_paths(model, n_steps, step, seeds, k1 - k0, add, drift, first_path=k0)

    path_steps = len(seeds) * n_paths * n_steps
    workers = max(1, min(_cpu_count(), n_paths, path_steps // _MIN_WORKER_PATH_STEPS))
    # a daemonic process may have no children; only a loaded multiprocessing can be one
    mp = sys.modules.get("multiprocessing")
    if not hasattr(os, "fork") or (mp is not None and mp.current_process().daemon):
        workers = 1
    if workers == 1:
        done = [run_range(0, n_paths)]
    else:
        bounds = [n_paths * w // workers for w in range(workers + 1)]
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


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None and not stream.closed:
            stream.flush()


def _run_batch(model: SdeModel, n_steps: int, step: float, seeds: Sequence[int],
               n_paths: int, first_path: int, cols: slice, consume: Callable,
               prepared: Optional[tuple], band: np.ndarray, noise: np.ndarray,
               states: np.ndarray, seconds: list) -> int:
    """One batch of :func:`run_paths` in views of its buffers (``band`` holds one
    window of normals of ``_BAND`` keys), returning the number of streams drawn;
    its consumer sees only its windows.  ``prepared`` is the run's drift set-up
    ``(lookup, flat, m, scaled, at)``, or None."""
    clock = time.perf_counter
    t0 = clock()
    sqrt_h = math.sqrt(step)
    has_residual = model.bounded_drift_sup != 0.0
    # 0-d arrays and a positional out: ufuncs take them without converting a
    # Python float or parsing a keyword every step
    a, h, sigma = np.array(model.lin_drift), np.array(step), np.array(model.sigma)
    add, multiply = np.add, np.multiply
    # only this batch's keys: all columns' key tuples at once grow with the run;
    # rows[c] is the number of the distinct key that column c reads
    key_row = {}
    rows = np.array([key_row.setdefault((seeds[j // n_paths], first_path + j % n_paths),
                                        len(key_row))
                     for j in range(cols.start, cols.stop)], dtype=np.intp)
    streams = [path_stream(*key) for key in key_row]
    p = len(rows)
    # each band's streams and its runs of columns that read consecutive keys: (the
    # keys' rows in the band, the columns), one transposed copy each per window
    edges = (np.flatnonzero((np.diff(rows) != 1) | (rows[1:] % _BAND == 0)) + 1).tolist()
    bands = [(streams[b:b + _BAND], []) for b in range(0, len(streams), _BAND)]
    for c0, c1 in zip([0] + edges, edges + [p]):
        b, k = divmod(int(rows[c0]), _BAND)
        bands[b][1].append((slice(k, k + c1 - c0), slice(c0, c1)))
    # runs of at most _CONSUME_PATHS columns of one job: (job, its paths, columns)
    pieces = []
    c = cols.start
    while c < cols.stop:
        job, k = divmod(c, n_paths)
        w = min(_CONSUME_PATHS, n_paths - k, cols.stop - c)
        pieces.append((job, slice(k, k + w), slice(c - cols.start, c - cols.start + w)))
        c += w
    if prepared is not None:
        lookup, flat, m, scaled, at = prepared
        scaled, at = scaled[:p], at[:p]
        offsets = np.arange(cols.start, cols.stop) // n_paths * m
    win = min(_FINITE_CHECK_STEPS, n_steps)
    # scaled by sigma * sqrt(step): step k reads row k + 1 and, with a drift,
    # writes the node of its state into row k, whose noise step k - 1 has used
    noise = noise[:(win + 1) * p].reshape(win + 1, p)
    node_rows = noise.view(np.intp)
    states = states[:(win + 1) * p].reshape(win + 1, p)
    states[0] = model.x0
    # each step's rows, as views built once: indexing makes a view every step
    x_rows, dw_rows, node_at = list(states), list(noise[1:]), list(node_rows)
    seconds[0] += clock() - t0
    for start in range(0, n_steps, _FINITE_CHECK_STEPS):
        t0 = clock()
        stop = min(_FINITE_CHECK_STEPS, n_steps - start)
        dw = noise[1:stop + 1]
        for keys, runs in bands:
            drawn = band[:len(keys), :stop]
            for row, stream in zip(drawn, keys):
                stream.standard_normal(out=row)
            # (sigma * z) * sqrt_h, in this order: every path's bits depend on it
            drawn *= sigma
            drawn *= sqrt_h
            # time-major layout keeps every per-step slice contiguous
            for at_keys, at_cols in runs:
                np.copyto(dw[:, at_cols], drawn[at_keys].T)
        t1 = clock()
        seconds[0] += t1 - t0
        x = x_rows[0]
        try:
            for k in range(stop):
                nxt = x_rows[k + 1]
                multiply(x, a, nxt)
                if has_residual:
                    nxt += np.asarray(model.bounded_drift(x), dtype=float)
                if prepared is not None:
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
                    node_rows[:stop, at_cols] if prepared is not None else None)
        seconds[1] += t2 - t1
        seconds[2] += clock() - t2
        states[0] = states[stop]
    return len(streams)


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
    _check_n_paths(n_paths)
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

    _log_engine("sample_paths", 1, run_paths(model, n, step, [seed], n_paths, keep, drift))
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

    _log_engine("moment_bound_check", 1, run_paths(model, n, step, [seed], n_paths, add_squares))
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
        bounded_in_horizon=bool(sup_2t <= sup_t * (1.0 + _GROWTH_SLACK)),
    )


"""Forward SDE machinery for dissipative diffusions.

Models have the form

    dX_t = (lin_drift @ X_t + bounded_drift(X_t)) dt + sigma(X_t) dW_t

with a linear part that pulls the state back toward the origin, a bounded
Lipschitz residual drift, and an invertible noise map.  Paths of 1-d models
are produced by Euler-Maruyama stepping in :func:`run_paths`, which steps
many paths at once and hands their states to a consumer window by window,
so estimates need no array of size paths x steps.  A change of measure is
applied as an extra ``sigma(x) @ shift(x)`` drift term, so controlled
dynamics reuse the same integrator.

Randomness is drawn from one generator per path, keyed by
``(seed, path_index)``, in fixed time blocks.  Path ``k`` of a batch is
bitwise identical to the same path simulated alone, so Monte Carlo estimates
do not depend on how paths are batched or scheduled.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "SimulationDivergedError",
    "SdeModel",
    "DriftShift",
    "Path",
    "PayoffEstimate",
    "MomentReport",
    "path_stream",
    "simulate",
    "sample_paths",
    "moment_bound_check",
    "invariant_average",
]

logger = logging.getLogger(__name__)

# Relative slack applied to sampled inequality checks; absorbs roundoff only.
_CHECK_SLACK = 1e-9


class SimulationDivergedError(RuntimeError):
    """A simulated state became non-finite.

    Attributes
    ----------
    step_index : int
        First Euler step at which a non-finite value appeared.  The 1-d
        engine scans once per ``_FINITE_CHECK_STEPS`` steps, so callbacks may
        see (and numpy may warn about) non-finite states for the rest of that
        block; a callback raising on them is reported as this error.
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


def _as_matrix(a, dim: int) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim == 0:
        m = m * np.eye(dim)
    if m.shape != (dim, dim):
        raise ValueError(f"lin_drift must be a {dim}x{dim} matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class SdeModel:
    """Dissipative diffusion with bounded residual drift and invertible noise.

    Parameters
    ----------
    dim : int
        State dimension.
    lin_drift : array_like
        Linear drift matrix.  Must satisfy ``x . (lin_drift @ x) <=
        -dissipation * |x|^2`` (checked on random samples at construction).
    dissipation : float
        Strictly positive dissipativity rate of the linear part.
    bounded_drift : callable
        Residual drift.  For ``dim == 1`` it must broadcast over numpy
        arrays; for ``dim > 1`` it maps a ``(dim,)`` vector to a ``(dim,)``
        vector.  Bounded by ``bounded_drift_sup`` and Lipschitz with constant
        ``bounded_drift_lip`` (both sampled at construction).
    sigma : callable
        Noise map.  Scalar-valued and broadcastable for ``dim == 1``,
        ``(dim,)`` -> ``(dim, dim)`` otherwise.  Must be invertible with
        ``sigma_lo <= |sigma(x)| + |sigma(x)^-1| <= sigma_hi`` (Frobenius
        norms; sampled at construction).
    x0 : array_like
        Initial state.
    check_samples, check_seed : int
        Sample count and seed for the construction-time assumption checks.
    """

    dim: int
    lin_drift: np.ndarray
    dissipation: float
    bounded_drift: Callable
    bounded_drift_sup: float
    bounded_drift_lip: float
    sigma: Callable
    sigma_lo: float
    sigma_hi: float
    x0: np.ndarray
    check_samples: int = 10_000
    check_seed: int = 7

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.dissipation <= 0.0:
            raise ValueError("dissipation must be positive")
        object.__setattr__(self, "lin_drift", _as_matrix(self.lin_drift, self.dim))
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.shape != (self.dim,):
            raise ValueError(f"x0 must have shape ({self.dim},), got {x0.shape}")
        object.__setattr__(self, "x0", x0)
        self._run_assumption_checks()

    # -- sampled assumption checks -------------------------------------------------

    def _run_assumption_checks(self) -> None:
        rng = path_stream(self.check_seed, 0xA55)
        n = int(self.check_samples)
        xs = rng.normal(scale=3.0, size=(n, self.dim))
        ys = rng.normal(scale=3.0, size=(n, self.dim))

        quad = np.einsum("ij,ij->i", xs @ self.lin_drift.T, xs)
        bound = -self.dissipation * np.einsum("ij,ij->i", xs, xs)
        slack = _CHECK_SLACK * (1.0 + np.abs(bound))
        if np.any(quad > bound + slack):
            k = int(np.argmax(quad - bound))
            raise ValueError(
                "dissipativity check failed: x.(lin_drift@x) > -dissipation*|x|^2 "
                f"at sampled x={xs[k]!r}"
            )

        fx = self._drift_residual_samples(xs)
        fy = self._drift_residual_samples(ys)
        norm_f = np.linalg.norm(fx, axis=1)
        if np.any(norm_f > self.bounded_drift_sup * (1.0 + _CHECK_SLACK) + 1e-12):
            k = int(np.argmax(norm_f))
            raise ValueError(
                f"bounded_drift check failed: |bounded_drift(x)|={norm_f[k]:.6g} exceeds "
                f"bounded_drift_sup={self.bounded_drift_sup:.6g} at sampled x={xs[k]!r}"
            )
        gap = np.linalg.norm(fx - fy, axis=1) - self.bounded_drift_lip * np.linalg.norm(
            xs - ys, axis=1
        )
        if np.any(gap > _CHECK_SLACK * (1.0 + np.linalg.norm(xs - ys, axis=1))):
            k = int(np.argmax(gap))
            raise ValueError(
                "bounded_drift check failed: Lipschitz bound bounded_drift_lip="
                f"{self.bounded_drift_lip:.6g} violated at sampled pair "
                f"x={xs[k]!r}, y={ys[k]!r}"
            )

        self._check_sigma_samples(xs)

    def _drift_residual_samples(self, xs: np.ndarray) -> np.ndarray:
        if self.dim == 1:
            vals = np.broadcast_to(np.asarray(self.bounded_drift(xs[:, 0]), dtype=float), (len(xs),))
            return vals[:, None]
        return np.stack([np.asarray(self.bounded_drift(x), dtype=float) for x in xs])

    def _check_sigma_samples(self, xs: np.ndarray) -> None:
        lo, hi = self.sigma_lo, self.sigma_hi
        if self.dim == 1:
            s = np.broadcast_to(np.asarray(self.sigma(xs[:, 0]), dtype=float), (len(xs),))
            if np.any(s == 0.0) or not np.all(np.isfinite(s)):
                raise ValueError("sigma check failed: non-invertible (zero or non-finite) value")
            combo = np.abs(s) + 1.0 / np.abs(s)
        else:
            combo = np.empty(len(xs))
            for k, x in enumerate(xs):
                mat = np.asarray(self.sigma(x), dtype=float)
                if mat.shape != (self.dim, self.dim):
                    raise ValueError(
                        f"sigma check failed: expected ({self.dim},{self.dim}) matrix, got {mat.shape}"
                    )
                try:
                    inv = np.linalg.inv(mat)
                except np.linalg.LinAlgError as err:
                    raise ValueError(
                        f"sigma check failed: singular noise map at sampled x={x!r}"
                    ) from err
                combo[k] = np.linalg.norm(mat) + np.linalg.norm(inv)
        slack = _CHECK_SLACK * (1.0 + np.abs(combo))
        if np.any(combo > hi + slack) or np.any(combo < lo - slack):
            k = int(np.argmax(np.maximum(combo - hi, lo - combo)))
            raise ValueError(
                f"sigma check failed: |sigma|+|sigma^-1|={combo[k]:.6g} outside "
                f"[sigma_lo={lo:.6g}, sigma_hi={hi:.6g}] at sample {k}"
            )

    # -- grid-facing helpers -------------------------------------------------------

    def drift_1d(self, x: np.ndarray) -> np.ndarray:
        """Uncontrolled drift ``lin_drift*x + bounded_drift(x)`` (dim == 1 only)."""
        if self.dim != 1:
            raise ValueError("drift_1d requires a one-dimensional model")
        a = float(self.lin_drift[0, 0])
        return a * x + np.broadcast_to(np.asarray(self.bounded_drift(x), dtype=float), np.shape(x))

    def sigma_1d(self, x: np.ndarray) -> np.ndarray:
        """Scalar noise coefficient on an array of states (dim == 1 only)."""
        if self.dim != 1:
            raise ValueError("sigma_1d requires a one-dimensional model")
        return np.broadcast_to(np.asarray(self.sigma(x), dtype=float), np.shape(x))


@dataclass(frozen=True)
class DriftShift:
    """Feedback drift shift entering the dynamics as ``sigma(x) @ shift(x)``.

    ``shift`` must broadcast over arrays for one-dimensional models and map
    ``(dim,)`` to ``(dim,)`` otherwise.  ``bound`` is a sup-norm bound on the
    shift, sampled at construction.
    """

    shift: Callable
    bound: float
    dim: int = 1
    check_samples: int = 1_000
    check_seed: int = 7

    def __post_init__(self):
        rng = path_stream(self.check_seed, 0x5F1)
        xs = rng.normal(scale=3.0, size=(int(self.check_samples), self.dim))
        if self.dim == 1:
            vals = np.abs(np.broadcast_to(np.asarray(self.shift(xs[:, 0]), dtype=float), (len(xs),)))
        else:
            vals = np.array([np.linalg.norm(np.asarray(self.shift(x), dtype=float)) for x in xs])
        if np.any(vals > self.bound * (1.0 + _CHECK_SLACK) + 1e-12):
            k = int(np.argmax(vals))
            raise ValueError(
                f"drift shift check failed: |shift(x)|={vals[k]:.6g} exceeds bound={self.bound:.6g} "
                f"at sampled x={xs[k]!r}"
            )


@dataclass(frozen=True)
class Path:
    """One simulated trajectory on a uniform time grid."""

    times: np.ndarray
    states: np.ndarray  # shape (n_steps + 1, dim)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, path) -> None:
        """Write columns ``t, x_1, ..., x_dim``."""
        header = ",".join(["t"] + [f"x_{j + 1}" for j in range(self.dim)])
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for t, row in zip(self.times, self.states):
                cells = [repr(float(t))] + [repr(float(v)) for v in row]
                fh.write(",".join(cells) + "\n")


@dataclass(frozen=True)
class PayoffEstimate:
    """Monte Carlo payoff (or observable) estimate with its standard error."""

    value: float
    stderr: float
    kind: str  # "ergodic" or "discounted"
    horizon: float
    burn_in: float
    n_paths: int
    step: float
    player: Optional[int] = None
    alpha: Optional[float] = None
    seed: Optional[int] = None

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "kind": self.kind,
            "horizon": self.horizon,
            "burn_in": self.burn_in,
            "n_paths": self.n_paths,
            "step": self.step,
            "player": self.player,
            "alpha": self.alpha,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class MomentReport:
    """Sampled second-moment diagnostic for the uncontrolled dynamics."""

    sup_second_moment: float
    sup_second_moment_doubled: float
    bound_constant: float
    horizon: float
    n_paths: int
    bounded_in_horizon: bool


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


# steps simulated between two scans for non-finite states
_FINITE_CHECK_STEPS = 256
# steps drawn and stepped per time block: fixed (and independent of the batch
# width) so a path's numbers, and every sum over its blocks, do not depend on
# the batch it runs in; a multiple of _FINITE_CHECK_STEPS, so divergence is
# scanned on the same step grid as a single path
_BLOCK_STEPS = 1024
# most paths stepped together: memory is a few block buffers of
# _BLOCK_STEPS x _MAX_BATCH_PATHS floats, whatever the horizon or path count
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
    """Euler-Maruyama for many paths of a 1-d model, streamed in time blocks.

    Path ``j`` draws its normals from ``path_stream(*stream_key(j))``.  Paths
    are stepped together in batches of at most ``_MAX_BATCH_PATHS`` columns,
    each batch draws its normals in time blocks of ``_BLOCK_STEPS`` steps.
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
    (``cost_s``).
    """
    if model.dim != 1:
        raise ValueError("path simulation requires a one-dimensional model")
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
    a = float(model.lin_drift[0, 0])
    sqrt_h = math.sqrt(step)
    has_residual = model.bounded_drift_sup != 0.0
    sigma = model.sigma
    streams = [path_stream(*stream_key(j)) for j in range(cols.start, cols.stop)]
    p = len(streams)
    width = min(_BLOCK_STEPS, n_steps)
    drawn = np.empty((p, width))  # path-major, as each stream draws
    noise = np.empty((width, p))
    states = np.empty((width + 1, p))
    states[0] = float(model.x0[0])
    tmp = np.empty(p)
    shift_fn = shift_for(cols) if shift_for is not None else None
    seconds[0] += clock() - t0
    n_blocks = 0
    for start in range(0, n_steps, _BLOCK_STEPS):
        t0 = clock()
        n_blk = min(_BLOCK_STEPS, n_steps - start)
        for row, stream in zip(drawn, streams):
            stream.standard_normal(out=row[:n_blk])
        # time-major layout keeps every per-step slice contiguous
        copy_transposed(noise[:n_blk], drawn[:, :n_blk])
        seconds[0] += clock() - t0
        x = states[0]
        for c0 in range(0, n_blk, _FINITE_CHECK_STEPS):
            t1 = clock()
            stop = min(c0 + _FINITE_CHECK_STEPS, n_blk)
            try:
                for k in range(c0, stop):
                    # the products below broadcast sigma; a broadcast_to view per
                    # step would cost more than the step's arithmetic on narrow batches
                    sig = np.asarray(sigma(x), dtype=float)
                    nxt = states[k + 1]
                    np.multiply(x, a, out=nxt)
                    if has_residual:
                        nxt += np.asarray(model.bounded_drift(x), dtype=float)
                    if shift_fn is not None:
                        np.multiply(sig, np.asarray(shift_fn(x), dtype=float), out=tmp)
                        nxt += tmp
                    nxt *= step
                    nxt += x
                    np.multiply(sig, noise[k], out=tmp)
                    tmp *= sqrt_h
                    nxt += tmp
                    x = nxt
            except Exception:
                # a callback may reject the states of a path that already diverged
                stop = k
                if np.isfinite(states[c0 + 1:stop + 1]).all():
                    raise
            # any non-finite entry makes its step's sum non-finite; the first such
            # step is where the batch diverged
            bad = ~np.isfinite(states[c0 + 1:stop + 1].sum(axis=1))
            if bad.any():
                raise SimulationDivergedError(start + c0 + 1 + int(np.argmax(bad)))
            t2 = clock()
            for p0 in range(0, p, _CONSUME_PATHS):
                p1 = min(p0 + _CONSUME_PATHS, p)
                consume(slice(cols.start + p0, cols.start + p1), start + c0,
                        states[c0:stop + 1, p0:p1], drawn[p0:p1, c0:stop] if with_noise else None)
            seconds[1] += t2 - t1
            seconds[2] += clock() - t2
        states[0] = states[n_blk]
        n_blocks += 1
    return n_blocks


def _all_states(
    model: SdeModel,
    shift: Optional[DriftShift],
    horizon: float,
    step: float,
    n_paths: int,
    stream_key: Callable[[int], Tuple[int, int]],
    return_noise: bool,
    label: str,
):
    """Keep every window: states ``(n_paths, n_steps + 1)`` and, on request, noise."""
    n = _n_steps(horizon, step)
    states = np.empty((n_paths, n + 1))
    states[:, 0] = float(model.x0[0])
    noise = np.empty((n_paths, n)) if return_noise else None

    def keep(cols, start, block, drawn):
        copy_transposed(states[cols, start + 1:start + len(block)], block[1:])
        if drawn is not None:
            noise[cols, start:start + drawn.shape[1]] = drawn

    shift_for = (lambda cols: shift.shift) if shift is not None else None
    run_paths(model, n, step, n_paths, stream_key, keep, shift_for, return_noise, label)
    return states, noise


def simulate(
    model: SdeModel,
    shift: Optional[DriftShift] = None,
    horizon: float = 1.0,
    step: float = 0.01,
    seed: int = 0,
    path_index: int = 0,
) -> Path:
    """Euler-Maruyama path with ``ceil(horizon/step)`` steps (1-d models).

    With ``horizon == 0`` the path holds the single initial state.  The same
    ``(seed, path_index)`` always reproduces the same path.
    """
    states, _ = _all_states(model, shift, horizon, step, 1, lambda j: (seed, path_index),
                            False, "simulate")
    times = np.arange(states.shape[1]) * step
    return Path(times=times, states=states[0][:, None])


def sample_paths(
    model: SdeModel,
    shift: Optional[DriftShift],
    horizon: float,
    step: float,
    seed: int,
    n_paths: int,
    return_noise: bool = False,
):
    """States of ``n_paths`` independent paths, shape ``(n_paths, n_steps+1, 1)``.

    Row ``k`` equals ``simulate(..., path_index=k)`` bitwise.  With
    ``return_noise`` the ``(n_paths, n_steps)`` standard normals that drove
    them come back too.
    """
    states, noise = _all_states(model, shift, horizon, step, n_paths, lambda j: (seed, j),
                                return_noise, "sample_paths")
    if return_noise:
        return states[:, :, None], noise
    return states[:, :, None]


def moment_bound_check(
    model: SdeModel,
    horizon: float = 10.0,
    step: float = 0.01,
    n_paths: int = 256,
    seed: int = 0,
    growth_slack: float = 0.10,
) -> MomentReport:
    """Largest mean squared state norm over the time grid, at ``horizon`` and
    ``2 * horizon``.

    Dissipativity keeps this quantity bounded uniformly in the horizon, so the
    doubled-horizon estimate must not exceed the base one by more than
    ``growth_slack`` (relative).  The implied constant is
    ``sup_second_moment / (1 + |x0|^2)``.
    """
    states = sample_paths(model, None, 2.0 * horizon, step, seed, n_paths)
    sq = np.sum(states**2, axis=2)  # (n_paths, n_steps+1)
    mean_sq = sq.mean(axis=0)
    n_half = _n_steps(horizon, step)
    sup_t = float(np.max(mean_sq[: n_half + 1]))
    sup_2t = float(np.max(mean_sq))
    c = sup_t / (1.0 + float(np.sum(model.x0**2)))
    return MomentReport(
        sup_second_moment=sup_t,
        sup_second_moment_doubled=sup_2t,
        bound_constant=c,
        horizon=horizon,
        n_paths=n_paths,
        bounded_in_horizon=bool(sup_2t <= sup_t * (1.0 + growth_slack)),
    )


def invariant_average(
    model: SdeModel,
    g: Callable,
    horizon: float,
    burn_in: float,
    step: float,
    n_paths: int,
    seed: int = 0,
    shift: Optional[DriftShift] = None,
) -> PayoffEstimate:
    """Long-run average of ``g`` along the (optionally shifted) dynamics.

    Time-averages ``g(X_t)`` over ``[burn_in, horizon)`` for each path, then
    averages across paths.  ``stderr`` is the standard error of the per-path
    averages, so a constant ``g`` yields ``stderr == 0`` exactly.
    """
    if not 0.0 <= burn_in < horizon:
        raise ValueError("burn_in must satisfy 0 <= burn_in < horizon")
    n = _n_steps(horizon, step)
    k0 = int(round(burn_in / step))
    sums = np.zeros(n_paths)

    def accumulate(cols, start, states, noise):
        first = max(k0 - start, 0)
        xs = states[first:-1]
        if len(xs):
            vals = np.broadcast_to(np.asarray(g(xs), dtype=float), xs.shape)
            sums[cols] += window_sum(vals)

    shift_for = (lambda cols: shift.shift) if shift is not None else None
    run_paths(model, n, step, n_paths, lambda j: (seed, j), accumulate, shift_for,
              label="invariant_average")
    per_path = sums / (n - k0)
    value = float(per_path.mean())
    stderr = 0.0
    if n_paths > 1:
        stderr = float(per_path.std(ddof=1) / math.sqrt(n_paths))
    return PayoffEstimate(
        value=value,
        stderr=stderr,
        kind="ergodic",
        horizon=horizon,
        burn_in=burn_in,
        n_paths=n_paths,
        step=step,
        seed=seed,
    )

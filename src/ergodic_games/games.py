"""Static game layer: control grids, Hamiltonians, pointwise Nash points.

Each player picks a scalar control from a finite grid.  The joint control
enters the dynamics through a shared scalar drift map and each player pays a
running cost.  For a state ``x`` and per-player gradient values ``z``,
player ``i``'s Hamiltonian is

    H_i(x, z_i, u) = z_i * drift_map(u) + cost_i(x, u)

and a joint control is a pointwise Nash point when no player can lower their
own Hamiltonian by a unilateral grid move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np

from ._samples import _CHECK_SLACK, check_states
from .sde import path_stream

__all__ = [
    "NoPureNashError",
    "ControlGrid",
    "GameSpec",
    "JointControl",
    "FeedbackPolicy",
    "IsaacsReport",
    "hamiltonian",
    "isaac_fixed_point",
    "verify_isaacs",
]

# A joint control is one grid index per player.
JointControl = Tuple[int, ...]

# fixed states of GameSpec's construction-time cost checks
_CHECK_SAMPLES = 64
# floats in one slab of the Lipschitz check's difference: small beside a joint
# table, so the check holds no table-sized temporary besides the two cost blocks
_GAP_CHUNK = 16_384


class NoPureNashError(RuntimeError):
    """No joint grid control is stable under unilateral deviations."""

    def __init__(self, x, z):
        super().__init__(f"no pure Nash point on the control grids at x={x!r}, z={z!r}")
        self.x = x
        self.z = z

    def __reduce__(self):
        return type(self), (self.x, self.z)


@dataclass(frozen=True)
class ControlGrid:
    """Strictly ascending, finite list of admissible scalar control points for
    one player: grid indices order the controls as their values do."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1:
            raise ValueError(f"control grid points must be scalars (a 1-d array), "
                             f"got shape {pts.shape}")
        if pts.size == 0:
            raise ValueError("control grid must be nonempty")
        if not np.all(np.isfinite(pts)):
            raise ValueError("control grid points must be finite")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("control grid points must be strictly ascending")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @staticmethod
    def uniform(lo: float, hi: float, n: int) -> "ControlGrid":
        return ControlGrid(np.linspace(lo, hi, n))


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Immutable description of an n-player game on finite control grids.

    Each of ``grids`` is ascending (:class:`ControlGrid`), so joint control
    indices order the controls as their values do.  ``drift_map`` and each
    ``costs[i]`` receive the per-player control values as separate positional
    arguments (``costs[i]`` gets the state first) and must broadcast over
    numpy arrays: called on the open joint control meshes (one axis per
    player, as ``np.meshgrid(..., sparse=True)``), their output must broadcast
    to the joint grid's shape (else ``ValueError``).  They must act
    elementwise: a search also calls them with player 0's mesh cut to a subset
    of its rows, so no value may depend on the meshes' shapes.  Nothing is
    cached per state, so tabulation memory is O(|U|^n), independent of the
    state grid.  ``cost_sup`` bounds ``|cost_i|`` and ``cost_x_lip`` is a
    Lipschitz constant of the costs in the state; both must be finite and are
    verified at construction on fixed states
    (:func:`~ergodic_games._samples.check_states`), where the costs must also
    be finite.  ``drift_map`` must be finite on the grids (else
    ``ValueError``); ``drift_bound``, ``max |drift_map|`` over the grids, is
    computed once at construction.
    """

    grids: Tuple[ControlGrid, ...]
    drift_map: Callable
    costs: Tuple[Callable, ...]
    cost_sup: float
    cost_x_lip: float
    name: str = ""
    drift_bound: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "grids", tuple(self.grids))
        object.__setattr__(self, "costs", tuple(self.costs))
        if len(self.grids) < 1:
            raise ValueError("at least one player required")
        if len(self.costs) != len(self.grids):
            raise ValueError("need exactly one cost per player")
        mesh = np.meshgrid(*[g.points for g in self.grids], indexing="ij", sparse=True)
        for a in mesh:
            a.flags.writeable = False
        object.__setattr__(self, "_mesh", mesh)
        drift = self._compact(self.drift_map)
        table = np.broadcast_to(drift, self._shape())
        # compact array: broadcasting repeats values but drops none
        if not np.isfinite(drift).all():
            u = np.unravel_index(int(np.argmin(np.isfinite(table))), table.shape)
            controls = tuple(float(v) for v in self.control_values(u))
            raise ValueError(f"drift_map check failed: value {float(table[u])} at joint "
                             f"control {controls} is not finite")
        object.__setattr__(self, "drift_bound", float(np.abs(drift).max()))
        object.__setattr__(self, "_drift_table", table)
        self._run_checks()

    @property
    def n_players(self) -> int:
        return len(self.grids)

    def product_size(self) -> int:
        n = 1
        for g in self.grids:
            n *= len(g)
        return n

    # -- tables over the joint control grid ----------------------------------------

    def _shape(self) -> Tuple[int, ...]:
        return tuple(len(g) for g in self.grids)

    def _compact(self, fn, *args, lead: Tuple[int, ...] = (), check: bool = True) -> np.ndarray:
        """``fn(*args, *meshes)`` in one call on the open meshes, checked (unless
        ``check`` is false) to broadcast to the joint grid after ``lead`` axes of the
        arguments, but kept in its own (often much smaller) shape."""
        try:
            raw = np.asarray(fn(*args, *getattr(self, "_mesh")), dtype=float)
            if check:
                np.broadcast_to(raw, lead + self._shape())
        except (TypeError, ValueError) as err:
            raise ValueError(f"game callables must broadcast over the joint control grid of "
                             f"shape {self._shape()}: {err}") from err
        return raw

    def drift_table(self) -> np.ndarray:
        """``drift_map`` on the full joint grid (read-only, tabulated at construction)."""
        return getattr(self, "_drift_table")

    def control_values(self, u: JointControl) -> list:
        return [g.points[j] for g, j in zip(self.grids, u)]

    # -- construction checks on fixed states -----------------------------------------

    def _cost_block(self, cost: Callable, xs: np.ndarray, check: bool) -> np.ndarray:
        """``cost`` at the states ``xs`` in one call: compact, with a leading sample
        axis (of length 1 where the cost does not depend on the state)."""
        n = self.n_players
        if len(xs) == 1:
            # a lone state goes in as a float, as in a search: the result then has
            # the shape of the cost's own temporaries, which numpy can reuse
            raw = self._compact(cost, float(xs[0]), check=check)
        else:
            raw = self._compact(cost, xs.reshape((-1,) + (1,) * n), lead=(len(xs),), check=check)
        return raw.reshape((1,) * (n + 1 - raw.ndim) + raw.shape)

    def _run_checks(self) -> None:
        """Check ``cost_sup`` at each state and ``cost_x_lip`` between paired states.

        Each cost is called on a block of states at once.  The first state runs
        alone; its compact size sets the block, so that a block's compact array
        holds at most one joint table.  The broadcast over the joint grid is
        validated on the first call of each block size.
        """
        if not (math.isfinite(self.cost_sup) and math.isfinite(self.cost_x_lip)):
            raise ValueError(f"cost check failed: cost_sup={self.cost_sup!r} and "
                             f"cost_x_lip={self.cost_x_lip!r} must be finite")
        xs = check_states(_CHECK_SAMPLES, 0)
        ys = check_states(_CHECK_SAMPLES, 1)
        lip_bound = self.cost_x_lip * np.abs(xs - ys)
        lip_bound += _CHECK_SLACK * (1.0 + lip_bound) + 1e-12
        for i in range(self.n_players):
            start, block, checked = 0, 1, set()
            while start < _CHECK_SAMPLES:
                stop = min(start + block, _CHECK_SAMPLES)
                size = self._check_block(i, xs[start:stop], ys[start:stop],
                                         lip_bound[start:stop], stop - start not in checked)
                checked.add(stop - start)
                if start == 0:
                    block = max(1, self.product_size() // size)
                start = stop

    def _check_block(self, i: int, xs: np.ndarray, ys: np.ndarray,
                     lip_bound: np.ndarray, check: bool) -> int:
        """Both checks of ``costs[i]`` on one block; the compact size of its values.

        The error names the block's first failing state, the bound on
        ``|cost_i(x)|`` before the Lipschitz bound between ``x`` and ``y``.
        """
        cx = self._cost_block(self.costs[i], xs, check)
        # one value per state, or one for all where the cost ignores the state;
        # taken before cy exists, so no more than two block-sized arrays are live
        largest = np.abs(cx).max(axis=tuple(range(1, cx.ndim)))
        cy = self._cost_block(self.costs[i], ys, check)
        # "not within the bound", so that a NaN value fails too
        over = ~(largest <= self.cost_sup * (1.0 + _CHECK_SLACK) + 1e-12)
        bad = over | ~(_max_abs_gap(cx, cy) <= lip_bound)
        if bad.any():
            k = int(np.argmax(bad))
            j = k if len(largest) > 1 else 0
            if over[j]:
                raise ValueError(
                    f"cost check failed: |cost_{i}|={float(largest[j]):.6g} exceeds "
                    f"cost_sup={self.cost_sup:.6g} at sampled x={float(xs[k]):.6g}"
                )
            raise ValueError(
                f"cost check failed: cost_{i} violates cost_x_lip={self.cost_x_lip:.6g} "
                f"between sampled states x={float(xs[k]):.6g}, y={float(ys[k]):.6g}"
            )
        return cx.size


def _max_abs_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``max |a - b|`` over every axis but the first (NaN if any entry is NaN).

    Taken in slabs of the second axis, each of about ``_GAP_CHUNK`` floats, or
    of one index of that axis where that holds more.
    """
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    rest = tuple(range(1, a.ndim))
    step = max(1, _GAP_CHUNK * a.shape[1] // a.size)
    gap = np.zeros(len(a))
    for j in range(0, a.shape[1], step):
        d = a[:, j:j + step] - b[:, j:j + step]
        np.abs(d, out=d)
        np.maximum(gap, d.max(axis=rest), out=gap)
    return gap


def hamiltonian(spec: GameSpec, player: int, x, z_i, u: JointControl) -> float:
    """Player's Hamiltonian ``z_i * drift_map(u) + cost_i(x, u)`` at one point."""
    _validate_joint(spec, u)
    vals = spec.control_values(u)
    r = float(np.asarray(spec.drift_map(*vals)))
    c = float(np.asarray(spec.costs[player](x, *vals)))
    return float(z_i) * r + c


def _validate_joint(spec: GameSpec, u: Sequence[int]) -> None:
    if len(u) != spec.n_players:
        raise ValueError(f"joint control needs {spec.n_players} indices, got {len(u)}")
    for j, (g, idx) in enumerate(zip(spec.grids, u)):
        if not 0 <= int(idx) < len(g):
            raise ValueError(f"control index {idx} out of range for player {j}")


def isaac_fixed_point(spec: GameSpec, x, z) -> JointControl:
    """Joint control at which every Hamiltonian is unilaterally minimal.

    One pass per player marks where that player's Hamiltonian is minimal
    along their own axis: player 0's over the whole joint grid, the others'
    only on player 0's *rows* (indices marked for some choice of the others),
    which hold every stable control.  The first control marked by every player
    in row-major index order wins; grids are ascending, so ties go to the
    smallest tuple of control values.  Time and memory are O(|U|^n) per call,
    for the later passes too when every row survives.

    Raises :class:`NoPureNashError` when no joint control is stable.
    """
    if len(z) != spec.n_players:
        raise ValueError(f"need one gradient value per player, got {len(z)}")
    drift = spec.drift_table()
    mesh = getattr(spec, "_mesh")
    # one Hamiltonian buffer per call: fresh arrays per player cost more than the arithmetic
    h = np.empty(spec._shape())
    for i in range(spec.n_players):
        np.multiply(drift, float(z[i]), out=h)
        # the raw cost broadcasts into the buffer: no table-sized temporary
        h += spec.costs[i](x, *mesh)
        best = h <= h.min(axis=i, keepdims=True)
        if i:
            mask &= best
            continue
        # player 0's rows; none when z[0] or the cost is NaN
        rows = best.any(axis=tuple(range(1, spec.n_players))).nonzero()[0]
        mask, drift = best.take(rows, axis=0), drift.take(rows, axis=0)
        mesh = [mesh[0].take(rows, axis=0), *mesh[1:]]
        h = h.reshape(-1)[:mask.size].reshape(mask.shape)
    # per-axis indices of the marked controls, the first in row-major order
    hits = mask.nonzero()
    if not hits[0].size:
        raise NoPureNashError(x, z)
    return (int(rows[hits[0][0]]),) + tuple(int(a[0]) for a in hits[1:])


@dataclass(frozen=True)
class IsaacsReport:
    """Sampled diagnostic for existence and stability of pointwise Nash points."""

    fraction_with_pure_nash: float
    max_continuity_jump: float
    n_samples: int
    delta: float
    n_failures: int
    example_failures: tuple


def verify_isaacs(
    spec: GameSpec,
    n_samples: int = 300,
    delta: float = 1e-3,
    seed: int = 0,
) -> IsaacsReport:
    """Sample ``(x, z)`` pairs and probe the pointwise Nash search.

    ``x`` and every player's gradient value are drawn from centered normals
    with scale 2.  For each sample the search is retried at a
    ``delta``-perturbed ``z`` and the largest change of the per-player
    Hamiltonian values is recorded (``delta == 0`` reproduces the same
    point, so the jump is zero).  A sample counts as a hit only when both
    searches find a pure Nash point.  ``n_samples`` must be at least 1: no
    sample would certify nothing.  These defaults are also the CLI's:
    ``check-assumptions`` passes ``mc.isaacs_samples`` and ``mc.isaacs_delta``
    only when a config sets them.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    rng = path_stream(seed, 0x15AAC)
    hits = 0
    max_jump = 0.0
    failures = []
    for _ in range(n_samples):
        x = float(rng.normal(scale=2.0))
        z = tuple(float(rng.normal(scale=2.0)) for _ in range(spec.n_players))
        # a random unit direction per player: a sign
        direction = np.sign(rng.standard_normal(len(z))).tolist()
        try:
            u = isaac_fixed_point(spec, x, z)
        except NoPureNashError:
            if len(failures) < 5:
                failures.append((x, z))
            continue
        z_near = tuple(z_i + delta * d for z_i, d in zip(z, direction))
        try:
            u_near = isaac_fixed_point(spec, x, z_near)
        except NoPureNashError:
            if len(failures) < 5:
                failures.append((x, z_near))
            continue
        hits += 1
        jump = max(
            abs(
                hamiltonian(spec, i, x, z_near[i], u_near)
                - hamiltonian(spec, i, x, z[i], u)
            )
            for i in range(spec.n_players)
        )
        max_jump = max(max_jump, jump)
    return IsaacsReport(
        fraction_with_pure_nash=hits / n_samples,
        max_continuity_jump=max_jump,
        n_samples=n_samples,
        delta=delta,
        n_failures=n_samples - hits,
        example_failures=tuple(failures),
    )


@dataclass(frozen=True)
class FeedbackPolicy:
    """Joint feedback control tabulated on a uniform state grid.

    ``indices[k, i]`` is player ``i``'s control grid index at state node
    ``k``.  Off-node states are resolved to the nearest node, clamped to the
    grid, by :func:`~ergodic_games.ebsde.nearest_node`.
    """

    nodes: np.ndarray
    indices: np.ndarray  # (n_nodes, n_players) int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        idx = np.asarray(self.indices, dtype=int)
        if idx.ndim != 2 or len(idx) != len(nodes):
            raise ValueError("indices must be (n_nodes, n_players)")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "indices", idx)

    @property
    def n_players(self) -> int:
        return self.indices.shape[1]

    def control_columns(self, spec: GameSpec) -> list:
        """Per-player arrays of control values along the state nodes."""
        cols = []
        for i, g in enumerate(spec.grids):
            cols.append(np.asarray(g.points, dtype=float)[self.indices[:, i]])
        return cols

    def with_player_indices(self, player: int, new_indices: np.ndarray) -> "FeedbackPolicy":
        idx = self.indices.copy()
        idx[:, player] = np.asarray(new_indices, dtype=int)
        return FeedbackPolicy(nodes=self.nodes, indices=idx)

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

from ._samples import check_states, first_over
from .ebsde import node_lookup
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

# fixed states of GameSpec's cost checks; few, as each evaluates every joint control
_CHECK_SAMPLES = 64
# floats in one slab of the Lipschitz check's difference: small beside a joint
# table, so the check holds no table-sized temporary besides the two cost blocks
_GAP_CHUNK = 16_384
# floats in the Hamiltonian buffer of a batched search (at least one joint table or
# one row of it): enough nodes per numpy call that dispatch no longer dominates
_SEARCH_FLOATS = 2**15
# samples verify_isaacs draws and searches at once (more than its default 300), so
# its memory does not grow with n_samples
_ISAACS_BLOCK = 1024
# the pruned pass's rounding margin: relative (machine epsilon) and absolute (the
# smallest normal float, far above any product's underflow)
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


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
    to the joint grid's shape (else ``ValueError``).  A search
    (:func:`isaac_fixed_point`) passes the state as a ``(K, 1, ..., 1)`` array,
    one entry per node or stacked row it searches at once, as the
    construction checks do.  The callables must act elementwise: the later
    players' pass also gets player 0's mesh cut to the stacked rows' indices,
    so no value may depend on the meshes' shapes.  The drift is stored once,
    as one joint table (:meth:`drift_table`), also where it ignores a player.
    Where ``costs[0]``'s compact values have length 1 on the other players'
    axes, player 0's Hamiltonian reads their controls through the drift
    alone: the columns of ``drift_table().reshape(|U_0|, -1)`` are then
    grouped at construction into classes of bitwise equal columns, and the
    search evaluates one column per class.  ``_classes`` holds ``(reps,
    cls)``, the first column of each class (ascending) and each column's
    class, or None where no column repeats or cost 0 reads the others.
    Where cost 0 reads the others through the drift alone, player 0's search
    also drops the rows that a dominance bound shows can reach no column
    minimum (see :func:`isaac_fixed_point`); its ``Δ`` is cached on the spec
    in ``_dominance``, two ``(|U_0|, |U_0|)`` arrays filled one reference row
    at a time on first use (None where cost 0 reads the others).
    Nothing is cached per state, so tabulation memory is O(max(|U|^n,
    _SEARCH_FLOATS)), independent of the state grid.  ``cost_sup`` bounds
    ``|cost_i|`` and ``cost_x_lip`` is a Lipschitz constant of the costs in
    the state; both must be finite and are verified at construction on fixed
    states (:func:`~ergodic_games._samples.check_states`), where the costs
    must also be finite.  ``drift_map`` must be finite on the grids (else
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
        table = np.ascontiguousarray(np.broadcast_to(self._compact(self.drift_map),
                                                     self._shape()))
        table.flags.writeable = False
        if not np.isfinite(table).all():
            u = np.unravel_index(int(np.argmin(np.isfinite(table))), table.shape)
            controls = tuple(float(v) for v in self.control_values(u))
            raise ValueError(f"drift_map check failed: value {float(table[u])} at joint "
                             f"control {controls} is not finite")
        object.__setattr__(self, "drift_bound", float(np.abs(table).max()))
        object.__setattr__(self, "_drift_table", table)
        cost0 = self._run_checks()
        # player 0's Hamiltonian reads the others' controls through the drift alone
        # where cost 0's compact values have length 1 on their axes
        own = math.prod(cost0[2:]) == 1
        object.__setattr__(self, "_classes", _column_classes(table) if own else None)
        # player 0's pruned pass fills Δ one reference row at a time, on first use
        n0 = len(self.grids[0])
        dominance = (np.empty((2, n0, n0)), np.zeros(n0, dtype=bool)) if own else None
        object.__setattr__(self, "_dominance", dominance)

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
        """``drift_map`` on the joint grid (read-only, C-ordered, tabulated at construction)."""
        return getattr(self, "_drift_table")

    def control_values(self, u: JointControl) -> list:
        return [g.points[j] for g, j in zip(self.grids, u)]

    # -- construction checks on fixed states -----------------------------------------

    def _cost_block(self, cost: Callable, xs: np.ndarray, check: bool) -> np.ndarray:
        """``cost`` at the states ``xs`` in one call: compact, with a leading sample
        axis (of length 1 where the cost does not depend on the state)."""
        n = self.n_players
        if len(xs) == 1:
            # a lone state goes in as a float, as hamiltonian() passes it: the result
            # then has the shape of the cost's own temporaries, which numpy can reuse
            raw = self._compact(cost, float(xs[0]), check=check)
        else:
            raw = self._compact(cost, xs.reshape((-1,) + (1,) * n), lead=(len(xs),), check=check)
        return raw.reshape((1,) * (n + 1 - raw.ndim) + raw.shape)

    def _run_checks(self) -> Tuple[int, ...]:
        """Check ``cost_sup`` at each state and ``cost_x_lip`` between paired states.

        Each cost is called on a block of states at once.  The first state runs
        alone; its compact size sets the block, so that a block's compact array
        holds at most one joint table.  The broadcast over the joint grid is
        validated on the first call of each block size.  Returns the compact
        shape of cost 0 at the first state, its sample axis first.
        """
        if not (math.isfinite(self.cost_sup) and math.isfinite(self.cost_x_lip)):
            raise ValueError(f"cost check failed: cost_sup={self.cost_sup!r} and "
                             f"cost_x_lip={self.cost_x_lip!r} must be finite")
        xs = check_states(_CHECK_SAMPLES, 0)
        ys = check_states(_CHECK_SAMPLES, 1)
        lip_bound = self.cost_x_lip * np.abs(xs - ys)
        firsts = []
        for i in range(self.n_players):
            start, block, checked = 0, 1, set()
            while start < _CHECK_SAMPLES:
                stop = min(start + block, _CHECK_SAMPLES)
                shape = self._check_block(i, xs[start:stop], ys[start:stop],
                                          lip_bound[start:stop], stop - start not in checked)
                checked.add(stop - start)
                if start == 0:
                    firsts.append(shape)
                    block = max(1, self.product_size() // math.prod(shape))
                start = stop
        return firsts[0]

    def _check_block(self, i: int, xs: np.ndarray, ys: np.ndarray,
                     lip_bound: np.ndarray, check: bool) -> Tuple[int, ...]:
        """Both checks of ``costs[i]`` on one block; the compact shape of its values.

        The error names the block's first failing state, the bound on
        ``|cost_i(x)|`` before the Lipschitz bound between ``x`` and ``y``.
        """
        cx = self._cost_block(self.costs[i], xs, check)
        # one value per state, or one for all where the cost ignores the state;
        # taken before cy exists, so no more than two block-sized arrays are live
        largest = np.abs(cx).max(axis=tuple(range(1, cx.ndim)))
        cy = self._cost_block(self.costs[i], ys, check)
        over = first_over(largest, self.cost_sup)
        gap = first_over(_max_abs_gap(cx, cy), lip_bound)
        if over is not None and (gap is None or over <= gap):
            raise ValueError(
                f"cost check failed: |cost_{i}|={float(largest[over]):.6g} exceeds "
                f"cost_sup={self.cost_sup:.6g} at sampled x={float(xs[over]):.6g}"
            )
        if gap is not None:
            raise ValueError(
                f"cost check failed: cost_{i} violates cost_x_lip={self.cost_x_lip:.6g} "
                f"between sampled states x={float(xs[gap]):.6g}, y={float(ys[gap]):.6g}"
            )
        return cx.shape


def _column_classes(table: np.ndarray):
    """Classes of bitwise equal columns of player 0's view of the drift table,
    ``table.reshape(|U_0|, -1)``: ``(reps, cls)``, the first column of each class
    in ascending order and the class of each column, or None where every column
    is its own class."""
    bits = table.reshape(len(table), -1).view(np.int64)
    order = np.lexsort(bits)  # stable: each run of equal columns starts at its first
    new = np.zeros(bits.shape[1], dtype=bool)
    new[0] = True
    for row in bits:
        key = row[order]
        new[1:] |= key[1:] != key[:-1]
    # each column labelled by the first column of its class: the labels sort as the
    # classes' first columns do
    first = np.empty_like(order)
    first[order] = order[new][np.cumsum(new) - 1]
    _, reps, cls = np.unique(first, return_index=True, return_inverse=True)
    return None if len(reps) == len(cls) else (reps, cls)


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
    if not 0 <= player < spec.n_players:
        raise ValueError(f"player index {player} out of range")
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


def isaac_fixed_point(spec: GameSpec, x, z):
    """Joint control at which every Hamiltonian is unilaterally minimal.

    For a state ``x`` and one gradient value per player ``z`` it returns a
    tuple of grid indices.  For states of shape ``(K,)`` and gradients of
    shape ``(K, n)`` it returns a ``(K, n)`` ``intp`` array whose row ``k``
    is the control of ``(x[k], z[k])``: the search runs once for the batch.

    One pass per player marks where that player's Hamiltonian is minimal
    along their own axis: player 0's over whole joint tables, ``_SEARCH_FLOATS
    // |U|^n`` nodes at a time (at least one), each node keeping its *rows*
    (player-0 indices marked for some choice of the others), which hold every
    stable control.  Where the spec has classes of equal drift columns (see
    :class:`GameSpec`), the pass evaluates the ``|U_0| x C`` class table,
    gathered once per call, and gives each column its class's marks: equal
    columns have equal Hamiltonian entries, so the marks are the full pass's
    bits.  Where cost 0 reads the others' controls through the drift alone
    (``quadratic_decoupled`` and ``three_player_symmetric``, not
    ``coupled_cross_cost``), the pass forms only the rows that a dominance
    bound keeps: each node takes the best row r on the table's first column,
    and drops every row u with ``z0·Δ(u, r) + (K[u] - K[r]) > 32·ε·(|z0|·2·
    drift_bound + |K[u]| + |K[r]|) + tiny``, K being cost 0 at the node and
    Δ(u, r) ``min_c (T[u, c] - T[r, c])`` over the table T for z0 >= 0 (the
    max for z0 < 0).  The margin bounds every rounding, so a dropped row lies
    strictly above row r in every column and the kept rows' marks are the
    full pass's bits; a node whose margin sum is NaN, infinite or above
    2**1000 keeps every row.  Elsewhere the pass runs over whole tables.  The others
    then run on the kept rows of many nodes, stacked, ``_SEARCH_FLOATS //
    |U|^(n-1)`` rows at a time: a later player's marks on a row depend on
    that row alone.  Both passes refill one Hamiltonian buffer, so memory is
    O(max(|U|^n, _SEARCH_FLOATS)) floats whatever the batch size.  A node's
    control is its first control marked by every player in row-major index
    order; grids are ascending, so ties go to the smallest tuple of control
    values.

    Raises :class:`NoPureNashError` for the first state with no stable joint
    control, non-finite gradients and states included.
    """
    if np.ndim(x) == 0:
        return tuple(int(j) for j in isaac_fixed_point(spec, np.array([x]), np.array([z]))[0])
    x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
    controls, stable = _search(spec, x, z)
    if not stable.all():
        k = int(np.argmin(stable))
        raise NoPureNashError(float(x[k]), tuple(float(v) for v in z[k]))
    return controls


def _search(spec: GameSpec, x: np.ndarray, z: np.ndarray) -> tuple:
    """The batch search of :func:`isaac_fixed_point` without its raise: the ``(K, n)``
    controls and a ``(K,)`` flag, true where the row has a stable joint control.  A row
    without one is flagged false and its controls are 0; so is a row whose state or any
    gradient is not finite, which neither pass sees.

    Player 0's pass is :func:`_player0_pruned` where cost 0 reads the others' controls
    through the drift alone (the spec's ``_dominance`` is set), else :func:`_player0_rows`
    over whole tables.  The pruned pass takes ``_SEARCH_FLOATS // (4 |U_0| + C)`` nodes
    at a time, C the columns of its table: a node's dominance test holds a few vectors
    of |U_0| floats, and the node keeps about one row of C."""
    n, shape, size = spec.n_players, spec._shape(), spec.product_size()
    if x.ndim != 1 or z.shape != (len(x), n):
        raise ValueError(f"need one gradient value per player ({n}) at each state, got "
                         f"states of shape {x.shape} and gradients of shape {z.shape}")
    out, stable = np.zeros((len(x), n), dtype=np.intp), np.zeros(len(x), dtype=bool)
    live = np.flatnonzero(np.isfinite(x) & np.isfinite(z).all(axis=1))
    x, z = x[live], z[live]
    if not len(x):
        return out, stable
    width = size // shape[0]
    table, cls = _player0_table(spec)
    pruned, columns = getattr(spec, "_dominance") is not None, table.size // shape[0]
    player0 = _player0_pruned if pruned else _player0_rows
    # a node's floats in player 0's pass: its whole table, or the dominance test's few
    # vectors of |U_0| and about one kept row
    per_node = 4 * shape[0] + columns if pruned else table.size
    nodes_per, rows_per = max(1, _SEARCH_FLOATS // per_node), max(1, _SEARCH_FLOATS // width)
    # one Hamiltonian buffer for both passes, each refilling its front; it holds a node's
    # every row and their column minima
    buf = np.empty(max(min(nodes_per, len(x)) * per_node, table.size + columns,
                       min(rows_per, len(x) * shape[0]) * width))
    # the later players run once a chunk of kept rows is pending, or at the last node,
    # so the marks held at once stay about one chunk's worth whatever the batch size
    pending, n_pending = [], 0
    for k0 in range(0, len(x), nodes_per):
        xs, zs = x[k0:k0 + nodes_per], z[k0:k0 + nodes_per]
        nodes, rows, marks = player0(spec, xs, zs, table, cls, buf)
        pending.append((nodes + k0, rows, marks))
        n_pending += len(rows)
        if n_pending < rows_per and k0 + len(xs) < len(x):
            continue
        nodes, rows, marks = _joined(pending)
        pending, n_pending = [], 0
        found, first = _later_players(spec, x, z, nodes, rows, marks, buf)
        del marks  # the next chunk's pass runs without these marks
        # each node's first row with a mark: rows are stacked in ascending order per node
        hit = found.nonzero()[0]
        starts = np.ones(len(hit), dtype=bool)
        np.not_equal(nodes[hit[1:]], nodes[hit[:-1]], out=starts[1:])
        hit = hit[starts]
        at = live[nodes[hit]]
        out[at] = np.array(np.unravel_index(rows[hit] * width + first[hit], shape)).T
        stable[at] = True
    return out, stable


def _player0_table(spec: GameSpec) -> tuple:
    """Player 0's drift table as the search reads it, and the class of each column: the
    joint table and None, or one column per class of equal columns (``(|U_0|, C, 1, ...,
    1)``, in C order for the pass's strided reads) and each column's class."""
    classes = getattr(spec, "_classes")
    if classes is None:
        return spec.drift_table(), None
    table = np.take(spec.drift_table().reshape(len(spec.grids[0]), -1), classes[0], axis=1)
    return table.reshape(table.shape + (1,) * (spec.n_players - 2)), classes[1]


def _player0_rows(spec: GameSpec, x: np.ndarray, z: np.ndarray, table: np.ndarray,
                  cls, buf: np.ndarray) -> tuple:
    """Player 0's pass over the Hamiltonian tables of the nodes ``x``, formed in the front
    of ``buf``, the state going to the cost as a ``(c, 1, ..., 1)`` array.  ``table`` is
    the drift table, or one column per class of equal drift columns (``(|U_0|, C, 1, ...,
    1)``) with ``cls`` the class of each column (else None).  The node and row of each kept
    row (node-major, rows ascending) and the row's player-0 marks on the joint grid."""
    lead = (-1,) + (1,) * spec.n_players
    h = buf[:len(x) * table.size].reshape((len(x),) + table.shape)
    np.multiply(table, z[:, 0].reshape(lead), out=h)
    # the raw cost broadcasts into the buffer: no table-sized temporary
    h += spec.costs[0](x.reshape(lead), *getattr(spec, "_mesh"))
    best = h <= h.min(axis=1, keepdims=True)
    # none where the cost is NaN
    nodes, rows = best.any(axis=tuple(range(2, h.ndim))).nonzero()
    return nodes, rows, _joint_marks(spec, best[nodes, rows], cls)


def _player0_pruned(spec: GameSpec, x: np.ndarray, z: np.ndarray, table: np.ndarray,
                    cls, buf: np.ndarray) -> tuple:
    """:func:`_player0_rows` where cost 0 reads the others' controls through the drift
    alone, so that cost 0 at a node is one value per row: the same kept rows and marks,
    from the Hamiltonians of the rows that :func:`_undominated` keeps.

    A dropped row lies strictly above a kept one in every column, so the column minima
    over the kept rows are those over all rows, and the kept rows' Hamiltonians, formed
    by the same two ufunc operations as over whole tables, get the same marks.  Each
    node's m rows (m the most any node keeps, the others padded with their first kept
    row, which leaves the minima as they are) and their column minima are formed in
    ``buf``, as many nodes at a time as it holds; it holds at least ``(|U_0| + 1) C``
    floats, C the columns of ``table``."""
    n0 = len(table)
    t = table.reshape(n0, -1)
    lead = (-1,) + (1,) * spec.n_players
    cost = np.asarray(spec.costs[0](x.reshape(lead), *getattr(spec, "_mesh")), dtype=float)
    cost = np.broadcast_to(cost, (len(x), n0) + (1,) * (spec.n_players - 1)).reshape(len(x), n0)
    keep = _undominated(spec, t, z[:, :1], cost, buf)
    counts = keep.sum(axis=1)
    m = int(counts.max())
    real = np.arange(m) < counts[:, None]
    idx = np.argsort(~keep, axis=1, kind="stable")[:, :m]  # the kept rows first, ascending
    idx = np.where(real, idx, idx[:, :1])
    step, found = len(buf) // ((m + 1) * t.shape[1]), []
    for a in range(0, len(x), step):
        rows = idx[a:a + step]
        h = buf[:rows.size * t.shape[1]].reshape(rows.shape + (-1,))
        np.take(t, rows, axis=0, out=h, mode="clip")
        h *= z[a:a + step, :1, None]
        h += np.take_along_axis(cost[a:a + step], rows, axis=1)[:, :, None]
        low = buf[h.size:h.size + len(rows) * t.shape[1]].reshape(len(rows), 1, -1)
        best = h <= h.min(axis=1, keepdims=True, out=low)
        nodes, slots = (real[a:a + step] & best.any(axis=2)).nonzero()
        found.append((nodes + a, rows[nodes, slots], best[nodes, slots]))
    nodes, rows, marks = _joined(found)
    return nodes, rows, _joint_marks(spec, marks, cls)


def _undominated(spec: GameSpec, t: np.ndarray, z0: np.ndarray, k: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
    """Where each node keeps a row of player 0's table ``t`` (``(|U_0|, C)``), for the
    gradients ``z0`` (``(K, 1)``) and cost 0 at each node and row ``k`` (``(K, |U_0|)``);
    ``scratch`` holds at least ``t.size`` floats.

    A node takes as its reference r the best row on ``t``'s first column, and drops a row
    u where ``z0·Δ(u, r) + (k[u] - k[r])`` exceeds ``32·ε·(|z0|·2·drift_bound + |k[u]| +
    |k[r]|) + tiny``, Δ(u, r) being ``min_c (t[u, c] - t[r, c])`` for z0 >= 0 and the
    max for z0 < 0 (:func:`_dominance`).  The margin bounds the rounding of both
    Hamiltonian entries and of the test itself, so a dropped row lies strictly above
    row r in every column.  A node whose margin sum ``|z0|·2·drift_bound + 2·max|k|``
    is NaN, infinite or above 2**1000 keeps every row."""
    with np.errstate(over="ignore", invalid="ignore"):
        ref = np.argmin(t[:, 0] * z0 + k, axis=1)
        kr = np.take_along_axis(k, ref[:, None], axis=1)
        spread = np.abs(z0) * (2.0 * spec.drift_bound)
        gap = _dominance(spec, t, ref, scratch)[(z0[:, 0] < 0.0).astype(np.intp), ref]
        gap *= z0
        gap += k - kr
        margin = np.abs(k)
        bounded = spread[:, 0] + 2.0 * margin.max(axis=1) <= 2.0**1000
        margin += np.abs(kr)
        margin += spread
        margin *= 32.0 * _EPS
        margin += _TINY
        keep = ~(gap > margin)
    keep[~bounded] = True
    return keep


def _dominance(spec: GameSpec, t: np.ndarray, refs: np.ndarray, scratch: np.ndarray):
    """The spec's ``(2, |U_0|, |U_0|)`` Δ of the table ``t`` of player 0's pruned pass,
    ``[0, r, u] = min_c (t[u, c] - t[r, c])`` and ``[1, r, u]`` the max, with the rows of
    ``refs`` filled: a row is computed on first use, in the front of ``scratch``."""
    delta, done = getattr(spec, "_dominance")
    need = np.zeros(len(done), dtype=bool)
    need[refs] = True
    for r in np.flatnonzero(need & ~done):
        d = np.subtract(t, t[r], out=scratch[:t.size].reshape(t.shape))
        d.min(axis=1, out=delta[0, r])
        d.max(axis=1, out=delta[1, r])
        done[r] = True
    return delta


def _joined(parts: list) -> tuple:
    """Triples of arrays joined field by field; a lone triple as it is, not copied."""
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(a) for a in zip(*parts))


def _joint_marks(spec: GameSpec, marks: np.ndarray, cls) -> np.ndarray:
    """Kept rows' player-0 marks, one per column of the pass's table, on the joint grid:
    a column has its class representative's Hamiltonian entries, so its marks."""
    marks = marks.reshape(len(marks), -1)
    if cls is not None:
        marks = marks.take(cls, axis=1)
    return marks.reshape((len(marks),) + spec._shape()[1:])


def _later_players(spec: GameSpec, x: np.ndarray, z: np.ndarray, nodes: np.ndarray,
                   rows: np.ndarray, marks: np.ndarray, buf: np.ndarray) -> tuple:
    """Players 1..n-1 on stacked rows, a chunk at a time: row ``r`` of node ``nodes[r]`` is
    player 0's index ``rows[r]`` and ``marks[r]`` its player-0 marks, cut in place to the
    controls every player marks.  A later player's marks on a row depend on that row
    alone.  Whether each row has a marked control, and the first in row-major order."""
    n, drift, mesh = spec.n_players, spec.drift_table(), getattr(spec, "_mesh")
    width = math.prod(marks.shape[1:])
    chunk = max(1, _SEARCH_FLOATS // width)
    lead = (-1,) + (1,) * (n - 1)
    found, first = np.empty(len(rows), dtype=bool), np.empty(len(rows), dtype=np.intp)
    for r0 in range(0, len(rows), chunk):
        at, row, mask = nodes[r0:r0 + chunk], rows[r0:r0 + chunk], marks[r0:r0 + chunk]
        h = buf[:len(at) * width].reshape(mask.shape)
        xr, u0 = x[at].reshape(lead), mesh[0].take(row, axis=0)
        for i in range(1, n):
            # "clip" writes straight into h: the default mode buffers a copy of it
            np.take(drift, row, axis=0, out=h, mode="clip")
            h *= z[at, i].reshape(lead)
            h += spec.costs[i](xr, u0, *mesh[1:])
            mask &= h <= h.min(axis=i, keepdims=True)
        mask = mask.reshape(len(at), width)
        found[r0:r0 + chunk], first[r0:r0 + chunk] = mask.any(axis=1), mask.argmax(axis=1)
    return found, first


def _frozen_tables(spec: GameSpec, nodes: np.ndarray, idx: np.ndarray):
    """The drift and each player's cost at the joint control ``idx[k]``, per state
    ``nodes[k]`` (each cost is called once on the states and the control columns:
    elementwise, so the tables' entries)."""
    joint = tuple(idx[:, i] for i in range(spec.n_players))
    cols = [g.points[j] for g, j in zip(spec.grids, joint)]
    c_nodes = [np.broadcast_to(np.asarray(cost(nodes, *cols), dtype=float), nodes.shape)
               for cost in spec.costs]
    return spec.drift_table()[joint], c_nodes


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

    ``x`` and every player's gradient value are drawn from centered normals with
    scale 2.  For each sample the search is retried at a ``delta``-perturbed ``z``
    and the largest change of the per-player Hamiltonian values is recorded
    (``delta == 0`` reproduces the same point, so the jump is zero).  Samples are
    drawn and searched ``_ISAACS_BLOCK`` at a time, both searches of a block's
    samples as one batch search, so memory does not grow with ``n_samples``.
    A sample counts as a hit only when both find a pure Nash point;
    ``example_failures`` lists the first five other samples, each at the first of
    its gradients without one.  ``n_samples`` must be at least 1: no sample would
    certify nothing.  These defaults are also the CLI's: ``check-assumptions``
    passes ``mc.isaacs_samples`` and ``mc.isaacs_delta`` only when a config sets them.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    n = spec.n_players
    stream = path_stream(seed, 0x15AAC)
    hits, jumps, failures = 0, [], []
    for b0 in range(0, n_samples, _ISAACS_BLOCK):
        b = min(_ISAACS_BLOCK, n_samples - b0)
        # per sample, in the stream's order: x, z, then a random unit direction per
        # player (a sign); 2 g + 0.0 are the bits of normal(scale=2.0)
        g = stream.standard_normal((b, 1 + 2 * n))
        x, z = 2.0 * g[:, 0] + 0.0, 2.0 * g[:, 1:n + 1] + 0.0
        z_near = z + delta * np.sign(g[:, n + 1:])
        xs, zs = np.concatenate([x, x]), np.concatenate([z, z_near])
        controls, stable = _search(spec, xs, zs)
        first_ok = stable[:b]
        hit = first_ok & stable[b:]
        failures += [(float(x[k]), tuple(float(v) for v in (z_near if first_ok[k] else z)[k]))
                     for k in np.flatnonzero(~hit)[:5 - len(failures)]]
        r, c = _frozen_tables(spec, xs, controls)
        h = zs * r[:, None] + np.stack(c, axis=1)
        jumps.append(np.abs(h[b:] - h[:b]).max(axis=1)[hit].max(initial=0.0))
        hits += int(np.count_nonzero(hit))
    return IsaacsReport(
        fraction_with_pure_nash=hits / n_samples,
        max_continuity_jump=float(np.max(jumps)),
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
    grid, by :func:`~ergodic_games.ebsde.nearest_node`, so ``nodes`` must be uniform.
    """

    nodes: np.ndarray
    indices: np.ndarray  # (n_nodes, n_players) int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        idx = np.asarray(self.indices, dtype=int)
        if idx.ndim != 2 or len(idx) != len(nodes):
            raise ValueError("indices must be (n_nodes, n_players)")
        node_lookup(nodes)  # rejects the grids that nearest_node would misread
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

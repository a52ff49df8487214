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
from numbers import Integral
from typing import Callable, Optional, Tuple

import numpy as np

from ._samples import check_states, first_over
from .ebsde import frozen_driver, node_lookup
from .sde import _integer, path_stream

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
        """``n`` equally spaced controls from ``lo`` to ``hi``; an ``n`` that is no
        integer (a bool or 41.0) is a ValueError."""
        return ControlGrid(np.linspace(lo, hi, _integer(n, "n")))


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
    one entry per node or stacked prefix it searches at once, as the
    construction checks do.  The callables must act elementwise: player i's
    pass gets the earlier players' controls as ``(K, 1, ..., 1)`` arrays of
    the stacked prefixes' values and the other meshes cut to their own axes,
    so no value may depend on the meshes' shapes.  The drift is stored once,
    as one joint table (:meth:`drift_table`), also where it ignores a player.
    Where ``costs[i]``'s compact values have length 1 on the other players'
    axes, player i's Hamiltonian reads their controls through the drift
    alone.  For player 0 the columns of ``drift_table().reshape(|U_0|, -1)``
    are then grouped at construction into classes of bitwise equal columns,
    and the search evaluates one column per class.  ``_classes`` holds
    ``(reps, cls)``, the first column of each class (ascending) and each
    column's class, or None where no column repeats or cost 0 reads the
    others.  Such a player i < n-1 also drops the rows that a dominance
    bound shows can reach no column minimum (:func:`_undominated`);
    ``_dominance[i]`` is its cache (:func:`_dominance`), None for any other
    player.
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
        # player i's Hamiltonian reads the others' controls through the drift alone
        # where cost i's compact values have length 1 on their axes
        own = [math.prod(c[1:]) == c[1 + i] for i, c in enumerate(self._run_checks())]
        object.__setattr__(self, "_classes", _column_classes(table) if own[0] else None)
        # such a player's pass, the last player's excepted, fills Δ on first use
        shape = self._shape()
        dominance = tuple([np.full(math.prod(shape[:i + 1]), -1, dtype=np.intp),
                           np.empty((0, 2, shape[i]))] if own[i] and i < len(shape) - 1
                          else None for i in range(len(shape)))
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
        """Each player's control value at the joint control ``u`` (:func:`_check_joint`)."""
        idx = _check_joint(self, np.reshape(u, (1, -1)), "joint control")[0]
        return [g.points[j] for g, j in zip(self.grids, idx)]

    # -- construction checks on fixed states -----------------------------------------

    def _cost_block(self, cost: Callable, xs: np.ndarray, check: bool) -> np.ndarray:
        """``cost`` at the states ``xs`` in one call: compact, with a leading sample
        axis (of length 1 where the cost does not depend on the state)."""
        n = self.n_players
        if len(xs) == 1:
            # a lone state goes in as a float, so the result has the shape of the cost's
            # own temporaries and numpy sums into them in place; a (1, ..., 1) state
            # would broadcast each sum into a new array, one joint table more at peak
            raw = self._compact(cost, float(xs[0]), check=check)
        else:
            raw = self._compact(cost, xs.reshape((-1,) + (1,) * n), lead=(len(xs),), check=check)
        return raw.reshape((1,) * (n + 1 - raw.ndim) + raw.shape)

    def _run_checks(self) -> list:
        """Check ``cost_sup`` at each state and ``cost_x_lip`` between paired states.

        Each cost is called on a block of states at once.  The first state runs
        alone; its compact size sets the block, so that a block's compact array
        holds at most one joint table.  The broadcast over the joint grid is
        validated on the first call of each block size.  Returns each cost's
        compact shape at the first state, its sample axis first.
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
        return firsts

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
    """Player's Hamiltonian ``z_i * drift_map(u) + cost_i(x, u)`` at one point, read off
    :func:`_frozen_tables`; ``player`` and ``u`` are checked by :func:`_check_joint`."""
    idx = _check_joint(spec, np.reshape(u, (1, -1)), "joint control", player)
    r, c = _frozen_tables(spec, np.array([x], dtype=float), idx)
    return float(z_i) * float(r[0]) + float(c[player][0])


def _whole(indices) -> np.ndarray:
    """``indices`` as ``int``s; a ValueError where one is no finite whole number (an
    integral float, as a CSV file reads back, is one)."""
    raw = np.asarray(indices)
    whole = np.isfinite(raw) & (raw == np.floor(raw)) if raw.dtype.kind == "f" else True
    if not np.all(whole):
        raise ValueError(f"control indices must be finite whole numbers, got "
                         f"{float(raw[~whole][0])!r}")
    return np.asarray(raw, dtype=int)


def _check_joint(spec: GameSpec, indices, owner: str,
                 player: Optional[int] = None) -> np.ndarray:
    """``indices``, one joint control per row, as whole numbers (:func:`_whole`) that fit
    the game: one column per player, each on its player's control grid; ``player``, when
    given, must be one of the game's, an integer that is no bool.  Else a ValueError that
    names ``owner``."""
    if player is not None and (isinstance(player, bool) or not isinstance(player, Integral)
                               or not 0 <= player < spec.n_players):
        raise ValueError(f"player index {player} out of range")
    idx = _whole(indices)
    if idx.shape[1] != spec.n_players:
        raise ValueError(f"{owner} has {idx.shape[1]} players, the game {spec.n_players}")
    for i, (col, grid_i) in enumerate(zip(idx.T, spec.grids)):
        if col.min() < 0 or col.max() >= len(grid_i):
            raise ValueError(f"player {i}'s policy uses control indices {col.min()} to "
                             f"{col.max()}, outside their {len(grid_i)}-point control grid")
    return idx


def isaac_fixed_point(spec: GameSpec, x, z):
    """Joint control at which every Hamiltonian is unilaterally minimal.

    For a state ``x`` and one gradient value per player ``z`` it returns a
    tuple of grid indices.  For states of shape ``(K,)`` and gradients of
    shape ``(K, n)`` it returns a ``(K, n)`` ``intp`` array whose row ``k``
    is the control of ``(x[k], z[k])``: the search runs once for the batch.

    One pass per player, in player order, marks where that player's
    Hamiltonian is minimal along their own axis.  Player i's pass runs on
    stacked *prefixes* ``(node, u_0, ..., u_{i-1})`` with the earlier
    players' marks; its table on a prefix is the drift's slice there,
    ``(|U_i|, rest)`` (player 0's prefix is the node).  It hands player i+1
    each (prefix, row) pair that still has a mark, so every stable control
    lies on a pair handed on.  Where the spec has classes of equal drift
    columns (see :class:`GameSpec`), player 0's pass evaluates the ``|U_0|
    x C`` class table, gathered once per call: equal columns have equal
    Hamiltonian entries, so equal marks.  Where cost i reads the others'
    controls through the drift alone (every player of ``quadratic_decoupled``
    and ``three_player_symmetric``, neither of ``coupled_cross_cost``) and
    i < n-1, the pass forms only the rows that the exact dominance bound of
    :func:`_undominated` keeps, so the column minima, the marks and every
    control stay the full pass's bits.  Products that overflow are infinite
    entries, without a warning.  Memory is O(max(|U|^n,
    _SEARCH_FLOATS)) floats whatever the batch size.  A node's control is
    its first control marked by every player in row-major index order; grids
    are ascending, so ties go to the smallest tuple of control values.

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
    gradient is not finite, which no pass sees.

    Each player's pass is :func:`_pass`.  Player 0's runs on ``_SEARCH_FLOATS`` floats'
    worth of nodes at a time (at least one), the later players' once the prefixes player 0
    hands on are worth as much to player 1, or at the last node: so the memory held at once
    stays bounded whatever the batch size."""
    n, shape = spec.n_players, spec._shape()
    if x.ndim != 1 or z.shape != (len(x), n):
        raise ValueError(f"need one gradient value per player ({n}) at each state, got "
                         f"states of shape {x.shape} and gradients of shape {z.shape}")
    out, stable = np.zeros((len(x), n), dtype=np.intp), np.zeros(len(x), dtype=bool)
    live = np.flatnonzero(np.isfinite(x) & np.isfinite(z).all(axis=1))
    x, z = x[live], z[live]
    if not len(x):
        return out, stable
    tables, cls = _tables(spec)
    # floats a pass holds per item: a pruned pass's dominance test (a few vectors of
    # |U_i|) and about one kept row's marks, a byte per column; else every row and minima
    per = [4 * t.shape[1] + t.shape[2] // 8 if d is not None else (t.shape[1] + 1) * t.shape[2]
           for t, d in zip(tables, getattr(spec, "_dominance"))]
    nodes_per, rows_per = (max(1, _SEARCH_FLOATS // per[0]),
                           max(1, _SEARCH_FLOATS // per[min(1, n - 1)]))
    # one Hamiltonian buffer for every pass, each refilling its front; it holds a chunk
    # of player 0's nodes, and any one prefix's every row with their column minima
    buf = np.empty(max([min(nodes_per, len(x)) * per[0]]
                       + [(t.shape[1] + 1) * t.shape[2] for t in tables]))
    pending, n_pending, every, zeros = [], 0, np.arange(len(x)), np.zeros(len(x), dtype=np.intp)
    for k0 in range(0, len(x), nodes_per):
        k1 = min(k0 + nodes_per, len(x))
        items = (every[k0:k1], zeros[k0:k1], None)  # each node, with the empty prefix
        pending.append(_pass(spec, 0, tables[0], None, x, z, items, buf))
        n_pending += len(pending[-1][0])
        if n_pending < rows_per and k1 < len(x):
            continue
        items = _joined(pending)
        pending, n_pending = [], 0
        for i in range(1, n):
            items = _pass(spec, i, tables[i], cls if i == 1 else None, x, z, items, buf)
        # every item left is a stable control, in row-major order per node: take the first
        nodes, joint, _ = items
        first = np.ones(len(nodes), dtype=bool)
        np.not_equal(nodes[1:], nodes[:-1], out=first[1:])
        at = live[nodes[first]]
        out[at] = np.array(np.unravel_index(joint[first], shape)).T
        stable[at] = True
    return out, stable


def _tables(spec: GameSpec) -> tuple:
    """Each player's drift table as its pass reads it, ``(prefixes, |U_i|, columns)``, and
    the class of each of player 0's joint columns as a ``(|U_1|, rest)`` array: player i's
    table on a prefix ``(u_0, ..., u_{i-1})`` (flat in row-major order) is the drift's slice
    there.  Where the spec has classes of equal columns, player 0's table holds one column
    per class (C order, for the pass's row reads), gathered once per call; else the class
    is None."""
    shape, drift = spec._shape(), spec.drift_table()
    tables = [drift.reshape(math.prod(shape[:i]), shape[i], -1) for i in range(len(shape))]
    classes = getattr(spec, "_classes")
    if classes is None:
        return tables, None
    return [np.take(tables[0], classes[0], axis=2)] + tables[1:], classes[1].reshape(shape[1], -1)


def _pass(spec: GameSpec, i: int, table: np.ndarray, cols, x: np.ndarray, z: np.ndarray,
          items: tuple, buf: np.ndarray) -> tuple:
    """Player i's pass over stacked items ``(nodes, prefixes, marks)``: item k is the flat
    prefix ``prefixes[k]`` of players 0..i-1 at node ``nodes[k]``, with the earlier players'
    marks on the rest of the grid (None for player 0).  Returns, in order, the items for
    player i+1: each (prefix, row) pair still marked once player i's marks are ANDed in.

    ``table`` is :func:`_tables`' table of player i, C its columns (player 0's marks go out
    on them); ``cols`` maps a slice's rows and columns to the incoming marks' columns (None:
    laid out as the slice).  Where the spec's ``_dominance[i]`` is set, the pass forms only
    the rows :func:`_undominated` keeps, m per item (m the most any item keeps, the others
    padded with their first kept row, which leaves the minima as they are); else every row.
    Either way the Hamiltonians are formed by the same two ufunc operations, with their
    column minima, in the front of ``buf``, as many items at a time as it holds; it holds
    at least ``(|U_i| + 1) C`` floats."""
    nodes, prefixes, marks = items
    if not len(nodes):
        return items
    shape, (_, n_i, c) = spec.drift_table().shape, table.shape
    cache, zi = getattr(spec, "_dominance")[i], z[nodes, i]
    lead = (-1,) + (1,) * (len(shape) - i)
    # the prefix's controls as (K, 1, ..., 1) arrays, the meshes cut to the axes i..n-1
    ahead = [g.points[j].reshape(lead)
             for g, j in zip(spec.grids, np.unravel_index(prefixes, shape[:i]) if i else ())]
    mesh = [a.reshape(a.shape[i:]) for a in getattr(spec, "_mesh")[i:]]
    cost = spec.costs[i](x[nodes].reshape(lead), *ahead, *mesh)
    if cache is None:  # every row: each prefix's whole slice
        m, view, idx, src = n_i, shape[i + 1:], None, table
    else:
        cost = np.broadcast_to(cost, (len(nodes), n_i) + (1,) * (len(shape) - i - 1))
        cost = cost.reshape(len(nodes), n_i)
        keep = _undominated(spec, table, cache, prefixes, zi[:, None], cost, buf)
        counts = keep.sum(axis=1)
        m, view, src = int(counts.max()), (c,), table.reshape(-1, c)
        real = np.arange(m) < counts[:, None]
        idx = np.argsort(~keep, axis=1, kind="stable")[:, :m]  # the kept rows first, ascending
        idx = np.where(real, idx, idx[:, :1])
        cost = cost[np.arange(len(idx))[:, None], idx][:, :, None]
        if marks is not None and cols is None:
            cols = np.arange(n_i * c).reshape(n_i, c)
    step, found = len(buf) // ((m + 1) * c), []
    if step < len(nodes) and idx is None:  # cut below into chunks of items
        cost = np.broadcast_to(cost, (len(nodes), n_i) + view)
    for a in range(0, len(nodes), step):
        part = slice(a, a + step)
        # each prefix's slice or each kept row (its flat index), copied into h; "clip"
        # writes straight into h, where the default mode buffers a copy of it
        at = prefixes[part] if idx is None else prefixes[part, None] * n_i + idx[part]
        h = buf[:len(at) * m * c].reshape(at.shape + src.shape[1:])
        z_part = zi[part].reshape((-1,) + (1,) * (h.ndim - 1))
        with np.errstate(over="ignore"):
            if len(src) == 1 and idx is None:  # player 0's one slice, read in place
                np.multiply(src, z_part, out=h)
            else:
                np.take(src, at, axis=0, out=h, mode="clip")
                h *= z_part
            h = h.reshape((-1, m) + view)
            h += cost[part] if step < len(nodes) else cost
        low = buf[h.size:h.size + len(h) * c].reshape((len(h), 1) + view)
        best = (h <= h.min(axis=1, keepdims=True, out=low)).reshape(len(h), m, -1)
        if marks is not None:
            held = marks[part]
            if cols is not None:  # each formed row's marks
                sel = cols if idx is None else cols[idx[part]]
                held = held[np.arange(len(h))[:, None, None], sel]
            best &= held.reshape(best.shape)
        hit = best.any(axis=2)
        if idx is not None:
            hit &= real[part]
        k, s = np.divmod(hit.ravel().nonzero()[0], m)  # a 2-d nonzero is many times slower
        # each (prefix, row) pair's flat index, its prefix for player i+1
        found.append((nodes[a + k], at[k] * n_i + s if idx is None else at[k, s], best[k, s]))
    return _joined(found)


def _undominated(spec: GameSpec, table: np.ndarray, cache: list, prefixes: np.ndarray,
                 zi: np.ndarray, k: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Where each item keeps a row of its prefix's slice ``table[prefixes[j]]`` (``(|U_i|,
    C)``), for the gradients ``zi`` (``(K, 1)``) and cost i at each item and row ``k``
    (``(K, |U_i|)``); ``scratch`` holds at least ``|U_i| C`` floats.

    An item takes as its reference r the best row on the slice's first column, and drops a
    row u where ``zi·Δ(u, r) + (k[u] - k[r])`` exceeds ``32·ε·(|zi|·2·drift_bound + |k[u]|
    + |k[r]|) + tiny``, Δ(u, r) being ``min_c (T[u, c] - T[r, c])`` over the slice T for
    zi >= 0 and the max for zi < 0 (:func:`_dominance`).  The margin bounds the rounding
    of both Hamiltonian entries and of the test itself, so a dropped row lies strictly
    above row r in every column: the column minima and the marks stay those of every row.
    An item whose margin sum ``|zi|·2·drift_bound + 2·max|k|`` is NaN, infinite or above
    2**1000 keeps every row."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = table[prefixes, :, 0]
        h *= zi
        h += k
        ref = np.argmin(h, axis=1)
        kr = k[np.arange(len(k)), ref][:, None]
        spread = np.abs(zi) * (2.0 * spec.drift_bound)
        gap = _dominance(table, cache, prefixes * table.shape[1] + ref, zi[:, 0] < 0.0, scratch)
        gap *= zi
        gap += np.subtract(k, kr, out=h)
        margin = np.abs(k, out=h)
        bounded = spread[:, 0] + 2.0 * margin.max(axis=1) <= 2.0**1000
        margin += np.abs(kr)
        margin += spread
        margin *= 32.0 * _EPS
        margin += _TINY
        keep = ~(gap > margin)
    keep[~bounded] = True
    return keep


def _dominance(table: np.ndarray, cache: list, pairs: np.ndarray, neg: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
    """The ``(K, |U_i|)`` Δ(·, r) of each (prefix, reference) pair ``pairs[j]`` (flat, as
    ``prefix·|U_i| + r``) of ``table``: ``min_c (T[u, c] - T[r, c])`` over the prefix's
    slice T, or the max where ``neg[j]``.  ``cache`` is the spec's ``_dominance[i]``,
    ``[slots, rows]``: ``rows`` holds a ``(2, |U_i|)`` min and max pair per pair filled so
    far, each computed on first use in the front of ``scratch``, and ``slots`` (one entry
    per pair, flat as above) its index in ``rows`` or -1."""
    slots, n_i = cache[0], table.shape[1]
    new = []
    for q in pairs[slots[pairs] < 0].tolist():
        if slots[q] < 0:
            t = table[q // n_i]
            d = np.subtract(t, t[q % n_i], out=scratch[:t.size].reshape(t.shape))
            slots[q] = len(cache[1]) + len(new)
            new.append((d.min(axis=1), d.max(axis=1)))
    if new:
        cache[1] = np.concatenate((cache[1], new))
    # gathered into the front of scratch where it fits: the caller's buffer is free here
    size = len(pairs) * n_i
    out = scratch[:size].reshape(-1, n_i) if size <= len(scratch) else None
    return np.take(cache[1].reshape(-1, n_i), 2 * slots[pairs] + neg, axis=0, out=out)


def _joined(parts: list) -> tuple:
    """Triples of arrays joined field by field; a lone triple as it is, not copied."""
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(a) for a in zip(*parts))


def _gather(spec: GameSpec, idx: np.ndarray) -> tuple:
    """The drift and each player's control value at each joint control ``idx[k]``."""
    joint = tuple(idx.T)
    return spec.drift_table()[joint], [g.points[j] for g, j in zip(spec.grids, joint)]


def _frozen_tables(spec: GameSpec, nodes: np.ndarray, idx: np.ndarray):
    """The drift and each player's cost at the joint control ``idx[k]``, per state
    ``nodes[k]`` (each cost is called once on the states and the control columns:
    elementwise, so the tables' entries)."""
    drift, cols = _gather(spec, idx)
    return drift, [np.broadcast_to(np.asarray(cost(nodes, *cols), dtype=float), nodes.shape)
                   for cost in spec.costs]


def _frozen_drivers(spec: GameSpec, nodes: np.ndarray, idx: np.ndarray) -> list:
    """Each player's affine driver at the joint control ``idx[k]`` on ``nodes[k]``."""
    r_nodes, c_nodes = _frozen_tables(spec, nodes, idx)
    return [frozen_driver(r_nodes, c, spec.drift_bound, spec.cost_sup) for c in c_nodes]


@dataclass(frozen=True)
class IsaacsReport:
    """Sampled diagnostic for existence and stability of pointwise Nash points."""

    max_continuity_jump: float
    n_samples: int
    delta: float
    n_failures: int
    example_failures: tuple

    @property
    def fraction_with_pure_nash(self) -> float:
        return (self.n_samples - self.n_failures) / self.n_samples


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
    its gradients without one.  ``n_samples`` must be an integer (not a bool) of
    at least 1: no sample would certify nothing.  These defaults are also the
    CLI's: ``check-assumptions`` passes ``mc.isaacs_samples`` and
    ``mc.isaacs_delta`` only when a config sets them.
    """
    if (n_samples := _integer(n_samples, "n_samples")) < 1:
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
        max_continuity_jump=float(np.max(jumps)),
        n_samples=n_samples,
        delta=delta,
        n_failures=n_samples - hits,
        example_failures=tuple(failures),
    )


@dataclass(frozen=True)
class FeedbackPolicy:
    """Joint feedback control tabulated on a uniform state grid.

    ``indices[k, i]`` is player ``i``'s control grid index at state node ``k``, a whole
    number (:func:`_whole`).  Off-node states are resolved to the nearest node, clamped to
    the grid, by :func:`~ergodic_games.ebsde.nearest_node`, so ``nodes`` must be uniform.
    """

    nodes: np.ndarray
    indices: np.ndarray  # (n_nodes, n_players) int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        idx = _whole(self.indices)
        if idx.ndim != 2 or len(idx) != len(nodes):
            raise ValueError("indices must be (n_nodes, n_players)")
        node_lookup(nodes)  # rejects the grids that nearest_node would misread
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "indices", idx)

    @property
    def n_players(self) -> int:
        return self.indices.shape[1]

    def control_columns(self, spec: GameSpec) -> list:
        """Per-player arrays of control values along the state nodes (:func:`_gather`)."""
        return _gather(spec, self.indices)[1]

    def with_player_indices(self, player: int, new_indices: np.ndarray) -> "FeedbackPolicy":
        idx = self.indices.copy()
        idx[:, player] = _whole(new_indices)
        return FeedbackPolicy(nodes=self.nodes, indices=idx)

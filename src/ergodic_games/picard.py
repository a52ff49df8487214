"""Coupled solver: Picard iteration over frozen best-response drivers.

Each outer iteration freezes the joint feedback control obtained from the
current gradient fields, which turns the coupled system into one independent
linear-in-gradient backward equation per player:

    f_i(x, z) = z * drift_map(u*(x)) + cost_i(x, u*(x))

These are solved directly on the grid (one Newton step each, as the frozen
drivers are affine in ``z``), the gradient fields are replaced by the new
ones, and the loop stops once every player's long-run constant and
interior gradient field are stationary to tolerance.  All frozen drivers
share the z-Lipschitz constant ``drift_bound`` of the game, which is what
makes the iteration well posed uniformly in the iteration count.

Each player is scored by a long-run average or by a discounted payoff, in
any mix (the paper's interacting players of different type); the asymmetric
variant pairs an ergodic player 1 with a discounted player 2, and a sweep
over its discount rates tracks the vanishing-discount limit.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from ._csv import write_csv, write_json
from .ebsde import (
    Grid1D,
    GridSolution,
    MaxSweepsExceededError,
    NonMonotoneSchemeError,
    _check_rate,
    solve_discounted,
    solve_ergodic,
)
from .games import FeedbackPolicy, GameSpec, NoPureNashError, _frozen_drivers, isaac_fixed_point
from .sde import SdeModel, _integer

__all__ = [
    "NashSolution",
    "SweepRow",
    "SweepResult",
    "picard_solve",
    "asymmetric_solve",
    "vanishing_discount_sweep",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class NashSolution:
    """Converged (or best-effort) feedback Nash point of the grid game.

    ``solutions[i]`` is the per-player grid solution (ergodic, or discounted
    for a discounting player), ``policy`` the joint feedback control
    generated by the final gradient fields and ``comparison`` the upper bound
    on every player's long-run cost: ``cost_sup``, the constant of the ergodic
    equation with the dominating driver ``drift_bound * |z| + cost_sup``, which
    the flat profile solves exactly.  ``cycle`` is ``(first, period)`` when the
    run stopped because iteration ``first``'s policy recurred ``period`` (at
    least 2) iterations later, else ``None``.  ``iterations`` is the length of
    ``deltas_history``; ``lambdas[i]``, the long-run cost of each ergodic
    player (``None`` for a discounting one), and ``alpha``, the discount rate
    of the discounting players when they share one, are read off the solutions.
    """

    spec_name: str
    solutions: Tuple[GridSolution, ...]
    policy: FeedbackPolicy
    policy_values: Tuple[np.ndarray, ...]  # per player, control value per node
    comparison: float
    converged: bool
    deltas_history: Tuple[dict, ...]
    cycle: Optional[Tuple[int, int]]

    @property
    def iterations(self) -> int:
        return len(self.deltas_history)

    @property
    def lambdas(self) -> Tuple[Optional[float], ...]:
        return tuple(sol.lam for sol in self.solutions)

    @property
    def alpha(self) -> Optional[float]:
        rates = {sol.alpha for sol in self.solutions if sol.alpha is not None}
        return rates.pop() if len(rates) == 1 else None

    @property
    def grid(self) -> Grid1D:
        return self.solutions[0].grid

    def report_dict(self) -> dict:
        per_player = []
        for i, sol in enumerate(self.solutions):
            d = sol.report_dict()
            d["player"] = i
            d["kind"] = "ergodic" if sol.alpha is None else "discounted"
            per_player.append(d)
        return {
            "game": self.spec_name,
            "lambdas": [None if v is None else float(v) for v in self.lambdas],
            "comparison_bound": self.comparison,
            "converged": self.converged,
            "iterations": self.iterations,
            "alpha": self.alpha,
            "deltas_history": list(self.deltas_history),
            "cycle": None if self.cycle is None else list(self.cycle),
            "players": per_player,
        }

    def write(self, out) -> None:
        """Save to directory ``out``: ``report.json`` holds the :meth:`report_dict`, and
        ``nash.csv`` the column ``x``, then ``v_i, xi_i, u_i, u_i_index`` per player ``i``."""
        out = Path(out)
        names, columns = ["x"], [self.grid.nodes()]
        for i, sol in enumerate(self.solutions):
            names += [f"v_{i + 1}", f"xi_{i + 1}", f"u_{i + 1}", f"u_{i + 1}_index"]
            columns += [sol.v, sol.xi, self.policy_values[i], self.policy.indices[:, i]]
        write_csv(out / "nash.csv", names, zip(*columns))
        write_json(out / "report.json", self.report_dict())

    @classmethod
    def read(cls, nash_dir) -> "NashSolution":
        """Rebuild what :meth:`write` saved in ``nash_dir``, finding the columns of ``nash.csv``
        by name.  The grid comes from the ``x`` column (CSV floats round-trip); what the
        report derives is derived again.  A missing file raises FileNotFoundError, and files
        that disagree on the player count, or control indices that are not whole numbers, a
        ValueError."""
        d = Path(nash_dir)
        with open(d / "nash.csv") as fh:
            names = fh.readline().strip().split(",")
            col = dict(zip(names, np.loadtxt(fh, delimiter=",", ndmin=2).T))
        report = json.loads((d / "report.json").read_text())
        players = range(1, len(report["players"]) + 1)
        if len(players) != sum(name.startswith("v_") for name in names):
            raise ValueError(f"nash.csv and report.json in {d} disagree on the player count")
        grid = Grid1D(float(col["x"][0]), float(col["x"][-1]), len(col["x"]))
        return cls(
            spec_name=report["game"],
            solutions=tuple(GridSolution(
                grid=grid, v=col[f"v_{i}"], xi=col[f"xi_{i}"],
                lam=None if "alpha" in pd else float(pd["lambda"]),
                alpha=float(pd["alpha"]) if "alpha" in pd else None,
                residual_sup=float(pd["residual_sup"]), iterations=int(pd["iterations"]),
            ) for i, pd in zip(players, report["players"])),
            policy=FeedbackPolicy(nodes=grid.nodes(), indices=np.column_stack(
                [col[f"u_{i}_index"] for i in players])),
            policy_values=tuple(col[f"u_{i}"] for i in players),
            comparison=float(report["comparison_bound"]),
            converged=bool(report["converged"]),
            deltas_history=tuple(report["deltas_history"]),
            cycle=tuple(report["cycle"]) if report["cycle"] else None,
        )


def _policy_from_xi(spec: GameSpec, nodes: np.ndarray, xi: np.ndarray, searched: np.ndarray,
                    idx: np.ndarray) -> np.ndarray:
    """``idx`` searched again where a row of ``xi`` differs from ``searched``, the rows that set
    it (NaN: never searched), in one batch call of :func:`isaac_fixed_point` (none when no row
    moved); a control is a function of its node and row, so the other nodes keep theirs.
    ``searched`` is updated in place."""
    idx = idx.copy()
    stale = np.flatnonzero(np.any(xi != searched, axis=1))
    if len(stale):
        idx[stale] = isaac_fixed_point(spec, nodes[stale], xi[stale])
        searched[stale] = xi[stale]
    return idx


def _interior_sup(grid: Grid1D, a: np.ndarray) -> float:
    return float(np.max(np.abs(a[grid.interior])))


def _log_iteration(deltas: dict, idx, prev_idx, sols, policy_s: float, inner_s: float) -> None:
    """One INFO trace line per outer iteration, its numbers the record's ``trace`` (kind
    ``"picard_iteration"``): deltas, wall times, policy changes (None at first), inner work."""
    changed = None if prev_idx is None else int(np.any(idx != prev_idx, axis=1).sum())
    trace = {"kind": "picard_iteration", **deltas, "policy_search_s": policy_s,
             "inner_solve_s": inner_s, "policy_changed_nodes": changed,
             "inner_iterations": [s.iterations for s in sols]}
    moves = " ".join(f"d_{key}=[" + ", ".join("-" if d is None else f"{d:.3e}" for d in vals)
                     + "]" for key, vals in deltas.items() if key != "iteration")
    logger.info("picard_solve iteration %d: %s policy_search_s=%.4f inner_solve_s=%.4f "
                "policy_changed_nodes=%s inner_iterations=%s", deltas["iteration"], moves,
                policy_s, inner_s, "-" if changed is None else changed,
                trace["inner_iterations"], extra={"trace": trace})


def picard_solve(
    model: SdeModel,
    spec: GameSpec,
    grid: Grid1D,
    tol: float = 1e-4,
    max_iter: int = 50,
    inner_tol: float = 1e-6,
    v_init: Optional[Sequence[np.ndarray]] = None,
    xi_init: Optional[np.ndarray] = None,
    alphas: Optional[Sequence[Optional[float]]] = None,
) -> NashSolution:
    """Fixed point of the coupled system by frozen-policy iterations.

    ``alphas`` gives each player's criterion: ``None`` (the default for
    everyone) for a long-run average, a positive discount rate otherwise.
    Gradient fields start at zero (``xi_init`` overrides; a restart from a
    converged field takes two iterations, as the first one has no delta of
    the constants yet).  Each iteration searches the pointwise Nash control
    again at the nodes whose gradient row moved, all of them in one batch call
    of :func:`~ergodic_games.games.isaac_fixed_point` (a node with no stable
    control raises :class:`~ergodic_games.games.NoPureNashError` naming its
    state and gradient row), solves every player's frozen
    equation directly to ``inner_tol`` (warm-started), takes the new gradient
    fields as they are, and records the per-player deltas:
    ``|lam_new - lam_old|`` of an ergodic player under ``"lambda"``, the
    interior ``sup |v_new - v_old|`` of a discounted one under ``"value"``
    (a key present only when some player discounts) and the interior
    ``sup |xi_new - xi_old|`` of everyone under ``"xi"``; one INFO line logs
    them with the wall seconds of the policy search (frozen coefficients
    included) and of the inner solves, the count of nodes whose policy
    changed and the inner iteration counts.  Convergence requires all
    deltas below ``tol``.  Each policy fixes the next, so one that recurs two
    or more iterations after it last appeared has entered a cycle: the run
    stops before that iteration's solves, returning the previous iteration's
    solutions with the recurring policy, and its warning and ``cycle`` name
    the recurrence.  Such a run, and one that exhausts ``max_iter`` (an
    integer, at least 1), is a soft failure (``converged = False``); inner
    solver errors propagate.
    """
    alphas = (None,) * spec.n_players if alphas is None else tuple(alphas)
    if len(alphas) != spec.n_players:
        raise ValueError(f"need one criterion per player, got {len(alphas)}")
    for a in alphas:
        if a is not None:
            _check_rate(a)
    if v_init is not None and len(v_init) != spec.n_players:
        raise ValueError(f"need one v_init profile per player, got {len(v_init)}")
    if (max_iter := _integer(max_iter, "max_iter")) < 1:
        raise ValueError("max_iter must be at least 1")
    n = spec.n_players
    nodes = grid.nodes()
    xi = np.zeros((grid.m, n)) if xi_init is None else np.asarray(xi_init, dtype=float).copy()
    if xi.shape != (grid.m, n):
        raise ValueError(f"xi_init must have shape ({grid.m}, {n})")
    discounts = any(a is not None for a in alphas)
    # the last constant of an ergodic player, the last profile of a discounted one
    prev: list = [None] * n
    v_warm: list = list(v_init) if v_init is not None else [None] * n
    sols: list = [None] * n
    history: list = []
    converged = False
    # the policy and the gradient rows that set it; the last iteration of each policy seen
    idx, searched = np.zeros((grid.m, n), dtype=int), np.full_like(xi, np.nan)
    seen, cycle = {}, None
    for it in range(1, max_iter + 1):
        t0 = time.perf_counter()
        prev_idx, idx = (idx if it > 1 else None), _policy_from_xi(spec, nodes, xi, searched, idx)
        last = seen.get(idx.tobytes())
        seen[idx.tobytes()] = it
        if last is not None and last < it - 1:  # each policy fixes the next: a cycle
            cycle = (last, it - last)
            break
        drivers = _frozen_drivers(spec, nodes, idx)
        t1 = time.perf_counter()
        for i, (alpha, driver) in enumerate(zip(alphas, drivers)):
            if alpha is None:
                sols[i] = solve_ergodic(model, driver, grid, tol=inner_tol, v_init=v_warm[i])
            else:
                sols[i] = solve_discounted(model, driver, grid, alpha, tol=inner_tol,
                                           v_init=v_warm[i])
            v_warm[i] = sols[i].v
        t2 = time.perf_counter()
        xi_new = np.column_stack([sol.xi for sol in sols])
        deltas = {
            "iteration": it,
            "lambda": [None if a is not None or p is None else abs(sol.lam - p)
                       for a, p, sol in zip(alphas, prev, sols)],
        }
        if discounts:
            deltas["value"] = [None if a is None or p is None else _interior_sup(grid, sol.v - p)
                               for a, p, sol in zip(alphas, prev, sols)]
        deltas["xi"] = [_interior_sup(grid, xi_new[:, i] - xi[:, i]) for i in range(n)]
        history.append(deltas)
        _log_iteration(deltas, idx, prev_idx, sols, t1 - t0, t2 - t1)
        xi = xi_new
        prev = [sol.lam if a is None else sol.v for a, sol in zip(alphas, sols)]
        criterion = [deltas["lambda" if a is None else "value"][i] for i, a in enumerate(alphas)]
        if all(d is not None and d < tol for d in criterion + deltas["xi"]):
            converged = True
            break
    if not converged:
        logger.warning("picard_solve: no fixed point after %d iterations%s", len(history),
                       "" if not cycle else "; stopped as iteration %d's policy recurs at "
                       "iteration %d (period %d)" % (cycle[0], sum(cycle), cycle[1]))
    final_idx = _policy_from_xi(spec, nodes, xi, searched, idx)
    policy = FeedbackPolicy(nodes=nodes, indices=final_idx)
    return NashSolution(
        spec_name=spec.name,
        solutions=tuple(sols),
        policy=policy,
        policy_values=tuple(policy.control_columns(spec)),
        comparison=float(spec.cost_sup),
        converged=converged,
        deltas_history=tuple(history),
        cycle=cycle,
    )


def asymmetric_solve(
    model: SdeModel,
    spec: GameSpec,
    grid: Grid1D,
    alpha: float,
    **kwargs,
) -> NashSolution:
    """Two-player fixed point with an ergodic player 1 and a discounted player 2.

    :func:`picard_solve` with ``alphas=(None, alpha)`` and the other keyword
    arguments: player 2's deltas are the interior sups of the profile and
    gradient changes, and ``lambdas[1]`` is ``None``; the discounted value is
    in ``solutions[1]``.
    """
    if spec.n_players != 2:
        raise ValueError("asymmetric_solve requires exactly two players")
    return picard_solve(model, spec, grid, alphas=(None, alpha), **kwargs)


@dataclass(frozen=True)
class SweepRow:
    """One discount rate of a vanishing-discount sweep."""

    alpha: float
    lambda1: Optional[float]
    alpha_v2_at_ref: Optional[float]
    centered_profile_distance: Optional[float]
    status: str


@dataclass(frozen=True)
class SweepResult:
    rows: Tuple[SweepRow, ...]

    def to_csv(self, path) -> None:
        write_csv(path, [f.name for f in fields(SweepRow)], map(astuple, self.rows))

    def as_dicts(self) -> list:
        return [asdict(r) for r in self.rows]


def vanishing_discount_sweep(
    model: SdeModel,
    spec: GameSpec,
    grid: Grid1D,
    alphas: Sequence[float],
    **kwargs,
) -> SweepResult:
    """Asymmetric solves along a list of discount rates.

    Each row records player 1's constant, ``alpha * v2`` at the reference
    node, and the interior sup-distance between consecutive centered player-2
    profiles ``v2 - v2(x_ref)``.  Solver failures mark the row's ``status``
    and leave the remaining columns empty rather than aborting the sweep.
    Keyword arguments go to every :func:`asymmetric_solve`, each warm-started
    from the previous row's profiles.
    """
    rows = []
    prev_centered: Optional[np.ndarray] = None
    warm = None
    for a in alphas:
        try:
            nash = asymmetric_solve(model, spec, grid, float(a), v_init=warm, **kwargs)
        except (MaxSweepsExceededError, NonMonotoneSchemeError, NoPureNashError) as err:
            rows.append(SweepRow(float(a), None, None, None, f"error: {err}"))
            prev_centered = None
            warm = None
            continue
        sol2 = nash.solutions[1]
        iref = grid.x_ref_index
        centered = sol2.v - sol2.v[iref]
        dist = None
        if prev_centered is not None:
            dist = _interior_sup(grid, centered - prev_centered)
        status = "ok" if nash.converged else "not_converged"
        rows.append(
            SweepRow(
                alpha=float(a),
                lambda1=nash.lambdas[0],
                alpha_v2_at_ref=float(a) * float(sol2.v[iref]),
                centered_profile_distance=dist,
                status=status,
            )
        )
        prev_centered = centered
        warm = [nash.solutions[0].v, sol2.v]
    return SweepResult(rows=tuple(rows))

"""Monte Carlo verification of computed equilibria.

Payoffs are estimated by simulating the controlled dynamics (the joint
feedback policy enters as a drift shift through the noise map) and averaging
the deviating player's running cost: time-averaged over a window for ergodic
payoffs, discounted from the start state otherwise.  The Nash property is
probed by re-estimating a player's payoff under sampled unilateral
deviations, on the paths of the equilibrium estimates, which every player
shares; none may undercut the equilibrium value by more than a
noise-plus-grid allowance.  A pathwise residual of the backward equation
gives an independent consistency check that shrinks with the step size.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from numbers import Integral
from typing import ClassVar, Optional, Sequence, Tuple

import numpy as np

from ._csv import write_csv
from ._samples import first_over
from .ebsde import (_check_rate, hjb_residual, interp_table, nearest_node, node_lookup,
                    uniform_interp)
from .games import FeedbackPolicy, GameSpec, _check_joint, _frozen_drivers, _gather
from .picard import NashSolution
from .sde import (
    SdeModel,
    _n_steps,
    path_stream,
    path_sums,
    sample_paths,  # noqa: F401  (perfbench/tracing.py wraps verify.sample_paths)
)

__all__ = [
    "InsufficientHorizonError",
    "PayoffEstimate",
    "DeviationRow",
    "DeviationReport",
    "estimate_payoff",
    "nash_deviation_test",
    "bsde_path_residual",
]

logger = logging.getLogger(__name__)

# a discounted payoff's horizon must push the tail below this; a cost-free game's tail is 0
_EPS_TAIL = 1e-3

SCOPE_NOTE = (
    "Deviation classes sampled: constant controls, single-node perturbations, "
    "random feedback fields. This certifies stability against the sampled "
    "classes only, not optimality over every adapted strategy."
)


class InsufficientHorizonError(ValueError):
    """Horizon too short for the requested discounted tail accuracy."""


@dataclass(frozen=True)
class PayoffEstimate:
    """Monte Carlo payoff estimate with its standard error; its ``kind`` is
    ``"ergodic"`` without a discount rate ``alpha``, else ``"discounted"``."""

    value: float
    stderr: float
    horizon: float
    burn_in: float
    n_paths: int
    step: float
    player: Optional[int] = None
    alpha: Optional[float] = None
    seed: Optional[int] = None

    @property
    def kind(self) -> str:
        return "ergodic" if self.alpha is None else "discounted"

    def as_dict(self) -> dict:
        return {**asdict(self), "kind": self.kind}


@dataclass(frozen=True)
class _Job:
    """One payoff estimate: a player's cost along one joint policy's paths."""

    player: int
    policy: FeedbackPolicy
    burn_in: float
    alpha: Optional[float]


def _job(model: SdeModel, spec: GameSpec, policy: FeedbackPolicy, player: int,
         horizon: float, burn_in: Optional[float], alpha: Optional[float]) -> _Job:
    """Validate one estimate's criterion (``alpha`` None: long-run average, else discounted);
    the burn-in of a discounted payoff is zero."""
    if alpha is None:
        if burn_in is None:
            burn_in = 20.0 / model.dissipation
        if not 0.0 <= burn_in < horizon:
            raise ValueError("burn_in must satisfy 0 <= burn_in < horizon")
        return _Job(player, policy, burn_in, None)
    _check_rate(alpha)
    needed = math.log(max(spec.cost_sup, alpha * _EPS_TAIL) / (alpha * _EPS_TAIL)) / alpha
    if horizon < needed:
        raise InsufficientHorizonError(
            f"horizon {horizon:.6g} below the discounted tail requirement "
            f"{needed:.6g} for alpha={alpha:.6g} and a tail below {_EPS_TAIL:.6g}"
        )
    return _Job(player, policy, 0.0, alpha)


def _groups(jobs: Sequence[_Job]) -> Tuple[list, list]:
    """The engine group of each job, numbered in order of first appearance, and each
    group's first job: jobs share a group where their policy indices agree."""
    number, groups, heads = {}, [], []
    for j, job in enumerate(jobs):
        groups.append(number.setdefault(job.policy.indices.tobytes(), len(heads)))
        if groups[-1] == len(heads):
            heads.append(j)
    return groups, heads


def _estimate_jobs(model: SdeModel, spec: GameSpec, jobs: Sequence[_Job], horizon: float,
                   step: float, n_paths: int, seed: int, label: str) -> list:
    """Every job's payoff from one run of the path engine on ``seed``.

    Every job runs paths ``0..n_paths-1`` of ``seed``.  Jobs of equal policy
    indices form one group of the engine, whose paths are simulated once and
    feed each of its jobs.  Each path's cost is summed over the steps after
    the job's burn-in (``exp(-alpha t) dt`` weighted for discounted jobs) by
    :func:`path_sums`, as the engine hands over each window of steps, so no
    array of size paths x steps is built and a job's estimate does not
    depend on the other jobs in the run.  Means and standard errors come from
    the per-path sums, which are the same bits however many processes ran.
    """
    n = _n_steps(horizon, step)
    first_step = [int(round(job.burn_in / step)) for job in jobs]
    for job, first in zip(jobs, first_step):
        if first >= n:  # the average would have no step to count
            raise ValueError(f"burn_in {job.burn_in:.6g} rounds to step {first} of the {n} "
                             f"steps of size {step:.6g} up to horizon {horizon:.6g}")
    groups, heads = _groups(jobs)
    tables = [_gather(spec, jobs[j].policy.indices) for j in heads]
    drift = (jobs[0].policy.nodes, [r for r, _ in tables])

    def costs(j, start, states, nodes):
        job = jobs[j]
        # left endpoints of the window's steps that the payoff counts
        skip = max(first_step[j] - start, 0)
        xs = states[skip:-1]
        if not len(xs):
            return None
        controls = [col.take(nodes[skip:]) for col in tables[groups[j]][1]]
        cost = np.asarray(spec.costs[job.player](xs, *controls), dtype=float)
        cost = cost if cost.shape == xs.shape else np.broadcast_to(cost, xs.shape)
        if job.alpha is not None:
            t = np.arange(start + skip, start + len(states) - 1) * step
            cost = cost * (np.exp(-job.alpha * t) * step)[:, None]
        return cost

    sums = path_sums(label, model, n, step, seed, n_paths, costs, drift, groups)
    out = []
    for j, job in enumerate(jobs):
        per_path = sums[j]
        if job.alpha is None:
            per_path = per_path / (n - first_step[j])
        out.append(PayoffEstimate(
            value=float(per_path.mean()),
            stderr=float(per_path.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0,
            horizon=horizon,
            burn_in=job.burn_in,
            n_paths=int(n_paths),
            step=step,
            player=job.player,
            alpha=job.alpha,
            seed=int(seed),
        ))
    return out


def estimate_payoff(
    model: SdeModel,
    spec: GameSpec,
    policy: FeedbackPolicy,
    player: int,
    horizon: float = 200.0,
    step: float = 0.01,
    n_paths: int = 200,
    burn_in: Optional[float] = None,
    alpha: Optional[float] = None,
    seed: int = 0,
) -> PayoffEstimate:
    """Monte Carlo payoff of one player under a joint feedback policy.

    With ``alpha=None`` the player's cost is time-averaged over
    ``[burn_in, horizon)`` (default burn-in ``20 / dissipation``); a positive
    ``alpha`` accumulates ``exp(-alpha t) cost dt`` from the
    model's start state and requires the horizon to push the tail below
    ``1e-3`` (otherwise :class:`InsufficientHorizonError`); a deviation
    is simulated by passing ``policy.with_player_indices(...)``.  The
    estimate is bitwise the row :func:`nash_deviation_test` reports for the
    same policy, player and seed (``PayoffEstimate.seed``; every row of
    every player carries the one equilibrium seed).  A policy whose player
    count or control indices do not fit the game is a ValueError.
    """
    _check_joint(spec, policy.indices, "policy", player)
    jobs = [_job(model, spec, policy, int(player), horizon, burn_in, alpha)]
    return _estimate_jobs(model, spec, jobs, horizon, step, n_paths, seed, "estimate_payoff")[0]


@dataclass(frozen=True)
class DeviationRow:
    """One sampled unilateral deviation and its estimated payoff change: ``margin``
    is the estimate less the reference; the equilibrium row passes within
    ``threshold`` of zero, a deviation that undercuts by no more than it."""

    kind: str
    description: str
    estimate: PayoffEstimate
    reference: float
    threshold: float

    @property
    def player(self) -> int:
        return self.estimate.player

    @property
    def margin(self) -> float:
        return self.estimate.value - self.reference

    @property
    def passed(self) -> bool:
        if self.kind == "equilibrium":
            return bool(abs(self.margin) <= self.threshold)
        return bool(self.margin >= -self.threshold)

    def as_dict(self) -> dict:
        return {
            "player": self.player,
            "kind": self.kind,
            "description": self.description,
            "value": self.estimate.value,
            "stderr": self.estimate.stderr,
            "reference": self.reference,
            "margin": self.margin,
            "threshold": self.threshold,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of the sampled unilateral-deviation harness."""

    rows: Tuple[DeviationRow, ...]
    n_deviations_per_player: int
    grid_error_budget: float
    scope_note: ClassVar[str] = SCOPE_NOTE

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self) -> Tuple[DeviationRow, ...]:
        return tuple(r for r in self.rows if not r.passed)

    def as_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "n_deviations_per_player": self.n_deviations_per_player,
            "grid_error_budget": self.grid_error_budget,
            "scope_note": self.scope_note,
            "rows": [r.as_dict() for r in self.rows],
        }

    def to_csv(self, path) -> None:
        cols = ("player", "kind", "description", "value", "stderr",
                "reference", "margin", "threshold", "passed")
        write_csv(path, cols, ([d[c] for c in cols] for d in map(DeviationRow.as_dict, self.rows)))


def _reference_value(nash: NashSolution, player: int,
                     model: SdeModel) -> Tuple[float, Optional[float]]:
    sol = nash.solutions[player]
    if sol.alpha is None:
        return float(sol.lam), None
    grid = sol.grid
    # value_at rejects an off-grid state too; this message names the player
    if not grid.x_min <= model.x0 <= grid.x_max:
        raise ValueError(f"start state x0={model.x0!r} lies outside the grid "
                         f"[{grid.x_min!r}, {grid.x_max!r}] of player {player}'s value")
    return float(sol.value_at(model.x0)), sol.alpha


def _check_same_game(model: SdeModel, spec: GameSpec, nash: NashSolution,
                     player: Optional[int] = None) -> None:
    """``nash`` fits ``spec`` (and ``player`` is one of its players; :func:`_check_joint`)
    and solves each player's equation under ``model`` and ``spec`` to its residual."""
    _check_joint(spec, nash.policy.indices, "equilibrium", player)
    drivers = _frozen_drivers(spec, nash.policy.nodes, nash.policy.indices)
    for i, (sol, driver) in enumerate(zip(nash.solutions, drivers)):
        lam, alpha = (sol.lam, 0.0) if sol.alpha is None else (0.0, sol.alpha)
        res = hjb_residual(model, driver, sol.grid, sol.v, sol.xi, lam, alpha)
        if first_over(res, sol.residual_sup) is not None:
            why = "" if nash.converged else (
                f"; its solve did not converge in {nash.iterations} iterations" if not nash.cycle
                else "; its solve stopped at a cycle: iteration %d's policy recurs at iteration "
                "%d (period %d)" % (nash.cycle[0], sum(nash.cycle), nash.cycle[1]))
            raise ValueError(f"equilibrium does not solve player {i}'s equation under this "
                             f"model and game: its residual at the saved policy is {res:.3g}, "
                             f"against the recorded {sol.residual_sup:.3g}{why}")


def nash_deviation_test(
    model: SdeModel,
    spec: GameSpec,
    nash: NashSolution,
    n_deviations: int = 60,
    horizon: float = 200.0,
    step: float = 0.01,
    n_paths: int = 200,
    seed: int = 0,
    grid_error_budget: float = 0.05,
    burn_in: Optional[float] = None,
) -> DeviationReport:
    """Estimate payoffs under sampled unilateral deviations of every player.

    For each player the harness first re-estimates the equilibrium payoff
    (its margin must vanish within threshold), then samples ``n_deviations``
    deviations split evenly over three kinds: constant controls, a single
    perturbed node, and fully random feedback fields.  Every row of every
    player is simulated on one equilibrium seed, so on the same streams: the
    equilibrium policy runs once for all the players' equilibrium rows, as
    does each distinct deviation policy, and a deviation that changes no
    visited node repeats its player's equilibrium row's value and stderr.
    A deviation passes when it does not *undercut* the player's reference
    value by more than ``3 * stderr + grid_error_budget``.  Ergodic players
    are referenced to their long-run constant, a discounted player to their
    value function at the start state, which must lie on their grid.  An
    equilibrium that does not fit the game (player count, control indices)
    or whose saved fields do not solve each player's equation under
    ``model`` and ``spec`` at the saved policy to the recorded
    ``residual_sup`` (one of another game or model, or a cycle) is a
    ValueError, as is an ``n_deviations`` that is no nonnegative integer.
    A discounted payoff's horizon must push its tail below ``1e-3``.  All
    rows are estimated by one engine run whose paths may be split over CPUs
    (as in ``_estimate_jobs``); the report is byte-identical whatever the
    split.
    """
    if isinstance(n_deviations, bool) or not isinstance(n_deviations, Integral):
        raise ValueError(f"n_deviations must be a whole number, got {n_deviations!r}")
    if n_deviations < 0:
        raise ValueError(f"n_deviations must be nonnegative, got {n_deviations}")
    n_deviations = int(n_deviations)  # a numpy integer too reports as a plain int
    _check_same_game(model, spec, nash)
    # every job is built (and its arguments checked) before any path is
    # simulated; the deviation draws do not depend on the estimates
    m = len(nash.policy.nodes)
    # one equilibrium seed for every player: all rows share its paths' noise
    eq_seed = int(path_stream(seed, 0xE0, 0).integers(2**32))
    jobs, labels = [], []
    for player in range(spec.n_players):
        ref, alpha = _reference_value(nash, player, model)
        criterion = dict(horizon=horizon, burn_in=burn_in, alpha=alpha)
        jobs.append(_job(model, spec, nash.policy, player, **criterion))
        labels.append(("equilibrium", "equilibrium policy", ref))
        grid_i = spec.grids[player]
        n_controls = len(grid_i)
        for k in range(n_deviations if n_controls > 1 else 0):  # one control: no deviation
            rng = path_stream(seed, 0xDE, player, k)
            mode = k % 3
            if mode == 0:
                j = int(rng.integers(n_controls))
                idx = np.full(m, j, dtype=int)
                desc = f"constant control #{j} ({grid_i.points[j]:.6g})"
                kind = "constant"
            elif mode == 1:
                node = int(rng.integers(m))
                cur = int(nash.policy.indices[node, player])
                j = int(rng.integers(n_controls - 1))
                if j >= cur:
                    j += 1
                idx = nash.policy.indices[:, player].copy()
                idx[node] = j
                desc = f"node {node} control -> #{j} ({grid_i.points[j]:.6g})"
                kind = "node_perturbation"
            else:
                idx = rng.integers(n_controls, size=m)
                desc = "random feedback field"
                kind = "random_feedback"
            jobs.append(_job(model, spec, nash.policy.with_player_indices(player, idx), player,
                             **criterion))
            labels.append((kind, desc, ref))

    estimates = _estimate_jobs(model, spec, jobs, horizon, step, n_paths, eq_seed,
                               "nash_deviation_test")
    rows = tuple(DeviationRow(kind=kind, description=desc, estimate=est, reference=ref,
                              threshold=3.0 * est.stderr + grid_error_budget)
                 for est, (kind, desc, ref) in zip(estimates, labels))
    report = DeviationReport(
        rows=rows,
        n_deviations_per_player=n_deviations,
        grid_error_budget=grid_error_budget,
    )
    if not report.all_passed:
        logger.warning("deviation harness: %d failing rows", len(report.failures()))
    return report


def bsde_path_residual(
    model: SdeModel,
    spec: GameSpec,
    nash: NashSolution,
    player: int = 0,
    horizon: float = 50.0,
    step: float = 0.01,
    n_paths: int = 64,
    seed: int = 0,
) -> float:
    """Root-mean-square pathwise backward-equation residual, divided by sqrt(step).

    Simulates the equilibrium dynamics and accumulates per-step residuals

        v(X_{t+h}) - v(X_t) + (H_i(X_t, xi(X_t), u*(X_t)) - lam_i) h
            - xi(X_t) dW_t

    with ``v`` and ``xi`` linearly interpolated from the player's grid
    solution, the policy resolved at the nearest node, and ``dW_t = (X_{t+h}
    - X_t - b(X_t) h) / sigma`` (``b = model.drift_1d``) read off the states.
    For a discounted player the constant is replaced by ``alpha v(X_t)``.
    The returned value is ``sqrt(mean(residual^2)) / sqrt(step)``.  A player
    index outside ``range(spec.n_players)``, an equilibrium that
    :func:`nash_deviation_test` refuses, or a horizon that gives no step, is
    a ValueError.  The per-path sums of squares come from :func:`path_sums`,
    so they are the same bits however many processes ran.
    """
    _check_same_game(model, spec, nash, player)
    sol = nash.solutions[player]
    policy = nash.policy
    n = _n_steps(horizon, step)
    if n == 0:
        raise ValueError(f"horizon {horizon:.6g} and step {step:.6g} give no step")
    lookup = node_lookup(policy.nodes)
    v_table = interp_table(policy.nodes, sol.v)
    xi_table = interp_table(policy.nodes, sol.xi)
    r_nodes, columns = _gather(spec, policy.indices)

    def squares(job, start, states, nodes):
        # time-major, as the states; both interpolants share one segment lookup
        # over the window's L + 1 states: the steps' X_t at the engine's
        # nodes, then the last step's X_{t+h}, looked up here
        xs = np.ascontiguousarray(states)
        node = np.concatenate([nodes, nearest_node(xs[-1:], lookup)])
        v, xi = uniform_interp(xs, node, v_table, xi_table)
        x_t = xs[:-1]
        v_t = v[:-1]
        xi_t = xi[:-1]
        node = node[:-1]
        r_t = r_nodes.take(node)
        controls = [col.take(node) for col in columns]
        cost_t = np.broadcast_to(np.asarray(spec.costs[player](x_t, *controls), dtype=float),
                                 x_t.shape)
        hamilton = xi_t * r_t + cost_t
        const = sol.lam if sol.alpha is None else sol.alpha * v_t
        # the uncontrolled equation's Brownian increments drive the backward
        # equation: the controls enter only through the Hamiltonian's xi r
        dw = (xs[1:] - x_t - model.drift_1d(x_t) * step) / model.sigma
        residual = v[1:] - v_t + (hamilton - const) * step - xi_t * dw
        return residual**2

    sq_sums = path_sums("bsde_path_residual", model, n, step, seed, n_paths, squares,
                        (policy.nodes, [r_nodes]))
    return float(np.sqrt(sq_sums[0].sum() / (n_paths * n)) / math.sqrt(step))

"""Monte Carlo verification of computed equilibria.

Payoffs are estimated by simulating the controlled dynamics (the joint
feedback policy enters as a drift shift through the noise map) and averaging
the deviating player's running cost: time-averaged over a window for ergodic
payoffs, discounted from the start state otherwise.  The Nash property is
probed by re-estimating a player's payoff under sampled unilateral
deviations; none may undercut the equilibrium value by more than a noise-
plus-grid allowance.  A pathwise residual of the backward equation gives an
independent consistency check that shrinks with the step size.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .ebsde import DiscountedSolution
from .games import FeedbackPolicy, GameSpec
from .picard import NashSolution
from .sde import DriftShift, PayoffEstimate, SdeModel, path_stream, sample_paths

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

SCOPE_NOTE = (
    "Deviation classes sampled: constant controls, single-node perturbations, "
    "random feedback fields. This certifies stability against the sampled "
    "classes only, not optimality over every adapted strategy."
)


class InsufficientHorizonError(ValueError):
    """Horizon too short for the requested discounted tail accuracy."""


def _policy_drift_nodes(spec: GameSpec, policy: FeedbackPolicy) -> np.ndarray:
    joint = tuple(policy.indices[:, i] for i in range(spec.n_players))
    return spec.drift_table()[joint]


def _policy_shift(spec: GameSpec, policy: FeedbackPolicy) -> DriftShift:
    r_nodes = _policy_drift_nodes(spec, policy)
    lo = float(policy.nodes[0])
    inv_dx = 1.0 / (policy.nodes[1] - policy.nodes[0]) if len(policy.nodes) > 1 else 1.0

    def shift(x, _r=r_nodes, _lo=lo, _inv=inv_dx):
        idx = np.rint((x - _lo) * _inv).astype(np.intp)
        # mode="clip" clamps to the node range in the lookup itself
        return _r.take(idx, mode="clip")

    return DriftShift(shift=shift, bound=spec.drift_bound, check_samples=64)


def _required_horizon(spec: GameSpec, alpha: float, eps_tail: float) -> float:
    return math.log(spec.cost_sup / (alpha * eps_tail)) / alpha


def estimate_payoff(
    model: SdeModel,
    spec: GameSpec,
    policy: FeedbackPolicy,
    player: int,
    kind: str = "ergodic",
    horizon: float = 200.0,
    step: float = 0.01,
    n_paths: int = 200,
    burn_in: Optional[float] = None,
    alpha: Optional[float] = None,
    seed: int = 0,
    eps_tail: float = 1e-3,
    override_player: Optional[int] = None,
    override_indices: Optional[np.ndarray] = None,
) -> PayoffEstimate:
    """Monte Carlo payoff of one player under a joint feedback policy.

    ``kind="ergodic"`` time-averages the player's cost over
    ``[burn_in, horizon)`` (default burn-in ``20 / dissipation``);
    ``kind="discounted"`` accumulates ``exp(-alpha t) cost dt`` from the
    model's start state and requires the horizon to push the tail below
    ``eps_tail`` (otherwise :class:`InsufficientHorizonError`).  An override
    replaces one player's node-to-control map before simulating.
    """
    if model.dim != 1:
        raise ValueError("payoff estimation requires a one-dimensional model")
    if not 0 <= player < spec.n_players:
        raise ValueError(f"player index {player} out of range")
    if override_player is not None:
        policy = policy.with_player_indices(override_player, override_indices)
    if kind == "ergodic":
        if burn_in is None:
            burn_in = 20.0 / model.dissipation
        if not 0.0 <= burn_in < horizon:
            raise ValueError("burn_in must satisfy 0 <= burn_in < horizon")
    elif kind == "discounted":
        if alpha is None or alpha <= 0.0:
            raise ValueError("discounted payoffs need a positive alpha")
        needed = _required_horizon(spec, alpha, eps_tail)
        if horizon < needed:
            raise InsufficientHorizonError(
                f"horizon {horizon:.6g} below the discounted tail requirement "
                f"{needed:.6g} for alpha={alpha:.6g}, eps_tail={eps_tail:.6g}"
            )
        burn_in = 0.0
    else:
        raise ValueError(f"unknown payoff kind {kind!r}")

    shift = _policy_shift(spec, policy)
    states = sample_paths(model, shift, horizon, step, seed, n_paths)
    # left endpoints of the steps the payoff counts: those after the burn-in
    # (zero for discounted payoffs)
    k0 = int(round(burn_in / step))
    xs = states[:, k0:-1, 0]
    node = policy.node_index(xs)
    controls = [col[node] for col in policy.control_columns(spec)]
    costs = np.asarray(spec.costs[player](xs, *controls), dtype=float)
    costs = np.broadcast_to(costs, xs.shape)

    if kind == "ergodic":
        per_path = costs.mean(axis=1)
    else:
        t = np.arange(xs.shape[1]) * step
        weights = np.exp(-alpha * t) * step
        per_path = costs @ weights
    value = float(per_path.mean())
    stderr = float(per_path.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return PayoffEstimate(
        value=value,
        stderr=stderr,
        kind=kind,
        horizon=horizon,
        burn_in=burn_in,
        n_paths=n_paths,
        step=step,
        player=player,
        alpha=alpha,
        seed=seed,
    )


@dataclass(frozen=True)
class DeviationRow:
    """One sampled unilateral deviation and its estimated payoff change."""

    player: int
    kind: str
    description: str
    estimate: PayoffEstimate
    reference: float
    margin: float
    threshold: float
    passed: bool

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
    all_passed: bool
    n_deviations_per_player: int
    grid_error_budget: float
    scope_note: str = SCOPE_NOTE

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
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for r in self.rows:
                d = r.as_dict()
                cells = []
                for c in cols:
                    v = d[c]
                    if isinstance(v, float):
                        cells.append(repr(v))
                    elif isinstance(v, bool):
                        cells.append(str(v).lower())
                    else:
                        cells.append(str(v).replace(",", ";"))
                fh.write(",".join(cells) + "\n")


def _reference_value(nash: NashSolution, player: int, model: SdeModel) -> Tuple[float, str, Optional[float]]:
    sol = nash.solutions[player]
    if isinstance(sol, DiscountedSolution):
        return float(sol.value_at(float(model.x0[0]))), "discounted", sol.alpha
    return float(nash.lambdas[player]), "ergodic", None


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
    eps_tail: float = 1e-3,
) -> DeviationReport:
    """Estimate payoffs under sampled unilateral deviations of every player.

    For each player the harness first re-estimates the equilibrium payoff
    (its margin must vanish within threshold), then samples ``n_deviations``
    deviations split evenly over three kinds: constant controls, a single
    perturbed node, and fully random feedback fields.  A deviation passes
    when it does not *undercut* the player's reference value by more than
    ``3 * stderr + grid_error_budget``.  Ergodic players are referenced to
    their long-run constant, a discounted player to their value function at
    the start state.
    """
    rows = []
    m = len(nash.policy.nodes)
    for player in range(spec.n_players):
        ref, ref_kind, alpha = _reference_value(nash, player, model)
        common = dict(
            horizon=horizon, step=step, n_paths=n_paths, burn_in=burn_in,
            eps_tail=eps_tail,
        )
        if ref_kind == "discounted":
            common.update(kind="discounted", alpha=alpha)
        est = estimate_payoff(
            model, spec, nash.policy, player,
            seed=int(path_stream(seed, 0xE0, player).integers(2**32)),
            **common,
        )
        margin = est.value - ref
        thr = 3.0 * est.stderr + grid_error_budget
        rows.append(
            DeviationRow(
                player=player, kind="equilibrium", description="equilibrium policy",
                estimate=est, reference=ref, margin=margin, threshold=thr,
                passed=bool(abs(margin) <= thr),
            )
        )
        grid_i = spec.grids[player]
        n_controls = len(grid_i)
        for k in range(n_deviations):
            rng = path_stream(seed, 0xDE, player, k)
            mode = k % 3
            if mode == 0:
                j = int(rng.integers(n_controls))
                idx = np.full(m, j, dtype=int)
                desc = f"constant control #{j} ({_fmt_point(grid_i.points[j])})"
                kind = "constant"
            elif mode == 1:
                node = int(rng.integers(m))
                cur = int(nash.policy.indices[node, player])
                j = int(rng.integers(n_controls - 1))
                if j >= cur:
                    j += 1
                idx = nash.policy.indices[:, player].copy()
                idx[node] = j
                desc = f"node {node} control -> #{j} ({_fmt_point(grid_i.points[j])})"
                kind = "node_perturbation"
            else:
                idx = rng.integers(n_controls, size=m)
                desc = "random feedback field"
                kind = "random_feedback"
            est = estimate_payoff(
                model, spec, nash.policy, player,
                seed=int(rng.integers(2**32)),
                override_player=player, override_indices=idx,
                **common,
            )
            margin = est.value - ref
            thr = 3.0 * est.stderr + grid_error_budget
            rows.append(
                DeviationRow(
                    player=player, kind=kind, description=desc, estimate=est,
                    reference=ref, margin=margin, threshold=thr,
                    passed=bool(margin >= -thr),
                )
            )
    report = DeviationReport(
        rows=tuple(rows),
        all_passed=bool(all(r.passed for r in rows)),
        n_deviations_per_player=n_deviations,
        grid_error_budget=grid_error_budget,
    )
    if not report.all_passed:
        logger.warning("deviation harness: %d failing rows", len(report.failures()))
    return report


def _fmt_point(p) -> str:
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    if arr.size == 1:
        return f"{float(arr[0]):.6g}"
    return "[" + " ".join(f"{float(v):.6g}" for v in arr) + "]"


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

    Simulates the equilibrium dynamics, reconstructs the unshifted Brownian
    increments, and accumulates per-step residuals

        v(X_{t+h}) - v(X_t) + (H_i(X_t, xi(X_t), u*(X_t)) - lam_i) h
            - xi(X_t) dW_t

    with ``v`` and ``xi`` linearly interpolated from the player's grid
    solution and the policy resolved at the nearest node.  For a discounted
    player the constant is replaced by ``alpha v(X_t)``.  The returned value
    is ``sqrt(mean(residual^2)) / sqrt(step)``.
    """
    if model.dim != 1:
        raise ValueError("path residuals require a one-dimensional model")
    sol = nash.solutions[player]
    policy = nash.policy
    shift = _policy_shift(spec, policy)
    states, noise = sample_paths(model, shift, horizon, step, seed, n_paths,
                                 return_noise=True)
    xs = states[:, :, 0]
    x_t = xs[:, :-1]
    x_next = xs[:, 1:]
    nodes = policy.nodes
    v_t = np.interp(x_t, nodes, sol.v)
    v_next = np.interp(x_next, nodes, sol.v)
    xi_t = np.interp(x_t, nodes, sol.xi)

    node = policy.node_index(x_t)
    r_nodes = _policy_drift_nodes(spec, policy)
    r_t = r_nodes[node]
    controls = [col[node] for col in policy.control_columns(spec)]
    cost_t = np.broadcast_to(
        np.asarray(spec.costs[player](x_t, *controls), dtype=float), x_t.shape
    )
    hamilton = xi_t * r_t + cost_t
    if isinstance(sol, DiscountedSolution):
        const = sol.alpha * v_t
    else:
        const = nash.lambdas[player]
    # increments of the unshifted Brownian motion
    dw = math.sqrt(step) * noise + r_t * step
    residual = v_next - v_t + (hamilton - const) * step - xi_t * dw
    return float(np.sqrt(np.mean(residual**2)) / math.sqrt(step))

"""Spans around the library's public calls, recorded from outside the library.

A :class:`Tracer` replaces chosen module attributes (the names each caller
looks up at call time) with wrappers that record one span per call: an id,
the id of the enclosing span, a name ``<layer>.<function>``, start and end
times, and counts measured from the call's arguments and result.  Spans stay
in memory until :meth:`Tracer.dump`.  :meth:`Tracer.restore` puts every
original attribute back.

:func:`layer_metrics` turns the spans of one traced pass into the per-layer
numbers the benchmark reports.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans under a
root add up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from workloads import GRID_SIZES

# counters that must repeat exactly between passes with the same inputs
EXACT_COUNTS = (
    "games.isaac_calls",
    "games.joint_points",
    "ebsde.solve_calls",
    "ebsde.iterations",
    "ebsde.node_iterations",
    "picard.calls",
    "picard.iterations",
    "continuous.outer_iterations",
    "sde.sample_paths_calls",
    "sde.path_steps",
    "sde.bytes_computed",
    "verify.estimate_calls",
    "verify.rows",
    "verify.rows_passed",
    "cli.calls",
)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


# -- counts measured at each wrapped call ------------------------------------------


def _isaac_counts(args, kwargs, result) -> dict:
    return {"joint_points": _arg(args, kwargs, 0, "spec").product_size()}


def _solve_counts(args, kwargs, result) -> dict:
    return {"m": _arg(args, kwargs, 2, "grid").m, "iterations": int(result.iterations)}


def _iteration_counts(args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations)}


def _sample_counts(args, kwargs, result) -> dict:
    states = result[0] if isinstance(result, tuple) else result
    n_paths, n_steps = states.shape[0], states.shape[1] - 1
    return {
        "seed": int(_arg(args, kwargs, 4, "seed")),
        "n_paths": n_paths,
        "n_steps": n_steps,
        "path_steps": n_paths * n_steps,
        # float64 normals, their time-major copy, and the states
        "bytes_computed": 8 * (2 * n_paths * n_steps + n_paths * (n_steps + 1)),
    }


def _deviation_counts(args, kwargs, result) -> dict:
    return {"rows": len(result.rows), "rows_passed": sum(bool(r.passed) for r in result.rows)}


def _cli_counts(args, kwargs, result) -> dict:
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    written = 0
    if out is not None and out.is_dir():
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return {"bytes_written": written}


# (module, attribute, span name, counts): the names each caller resolves at call time
WRAP_POINTS = (
    ("ergodic_games", "ou_model", "catalog.ou_model", None),
    ("ergodic_games", "quadratic_decoupled", "catalog.quadratic_decoupled", None),
    ("ergodic_games", "coupled_cross_cost", "catalog.coupled_cross_cost", None),
    ("ergodic_games", "three_player_symmetric", "catalog.three_player_symmetric", None),
    ("ergodic_games", "make_driver", "catalog.make_driver", None),
    ("ergodic_games", "make_growth_driver", "catalog.make_growth_driver", None),
    ("ergodic_games.cli", "make_model", "catalog.make_model", None),
    ("ergodic_games.cli", "make_game", "catalog.make_game", None),
    ("ergodic_games.cli", "make_driver", "catalog.make_driver", None),
    ("ergodic_games.cli", "make_growth_driver", "catalog.make_growth_driver", None),
    ("ergodic_games.picard", "isaac_fixed_point", "games.isaac_fixed_point", _isaac_counts),
    ("ergodic_games", "solve_ergodic", "ebsde.solve_ergodic", _solve_counts),
    ("ergodic_games", "solve_discounted", "ebsde.solve_discounted", _solve_counts),
    ("ergodic_games.picard", "solve_ergodic", "ebsde.solve_ergodic", _solve_counts),
    ("ergodic_games.picard", "solve_discounted", "ebsde.solve_discounted", _solve_counts),
    ("ergodic_games.continuous", "solve_ergodic", "ebsde.solve_ergodic", _solve_counts),
    ("ergodic_games.cli", "solve_ergodic", "ebsde.solve_ergodic", _solve_counts),
    ("ergodic_games", "picard_solve", "picard.picard_solve", _iteration_counts),
    ("ergodic_games", "asymmetric_solve", "picard.asymmetric_solve", _iteration_counts),
    ("ergodic_games.cli", "picard_solve", "picard.picard_solve", _iteration_counts),
    ("ergodic_games.cli", "asymmetric_solve", "picard.asymmetric_solve", _iteration_counts),
    ("ergodic_games", "solve_continuous_ebsde", "continuous.solve_continuous_ebsde",
     _iteration_counts),
    ("ergodic_games.cli", "solve_continuous_ebsde", "continuous.solve_continuous_ebsde",
     _iteration_counts),
    ("ergodic_games.verify", "sample_paths", "sde.sample_paths", _sample_counts),
    ("ergodic_games.verify", "estimate_payoff", "verify.estimate_payoff", None),
    ("ergodic_games", "nash_deviation_test", "verify.nash_deviation_test", _deviation_counts),
    ("ergodic_games.cli", "nash_deviation_test", "verify.nash_deviation_test",
     _deviation_counts),
    ("ergodic_games", "bsde_path_residual", "verify.bsde_path_residual", None),
    ("ergodic_games.cli", "main", "cli.main", _cli_counts),
)


class Tracer:
    """In-memory span recorder that can wrap module attributes."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        sp = Span(len(self.spans), self._stack[-1] if self._stack else None, name,
                  self.clock(), attrs=dict(attrs))
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.t1 = self.clock()

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
                if counts is not None:
                    sp.attrs.update(counts(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def install(self) -> None:
        """Wrap every ``WRAP_POINTS`` attribute; a missing one raises, wrapping nothing."""
        for mod_name, attr, name, counts in WRAP_POINTS:
            try:
                self.wrap(importlib.import_module(mod_name), attr, name, counts)
            except AttributeError:
                self.restore()
                raise

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        rows = [
            {"id": s.id, "parent": s.parent, "name": s.name, "t0": s.t0, "t1": s.t1,
             "attrs": s.attrs}
            for s in self.spans
        ]
        Path(path).write_text(json.dumps(rows) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus its direct children's."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer counts and times from the spans of one traced worker."""
    own = self_times(spans)

    def pick(name_prefix: str) -> List[Span]:
        return [s for s in spans if s.name.startswith(name_prefix)]

    def total(sel, key=None) -> float:
        return sum(s.attrs.get(key, 0) if key else s.duration for s in sel)

    def self_sum(sel) -> float:
        return sum(own[s.id] for s in sel)

    solves = pick("ebsde.")
    isaac = pick("games.")
    picard = pick("picard.")
    cont = pick("continuous.")
    sample = pick("sde.")
    est = pick("verify.estimate_payoff")
    harness = pick("verify.nash_deviation_test")
    cli = pick("cli.")
    m = {
        "catalog.build_s": self_sum(pick("catalog.")),
        "games.isaac_calls": len(isaac),
        "games.isaac_s": total(isaac),
        "games.joint_points": total(isaac, "joint_points"),
        "ebsde.solve_calls": len(solves),
        "ebsde.solve_s": total(solves),
        "ebsde.iterations": total(solves, "iterations"),
        "ebsde.node_iterations": sum(s.attrs["m"] * s.attrs["iterations"] for s in solves),
        "picard.calls": len(picard),
        "picard.iterations": total(picard, "iterations"),
        "picard.self_s": self_sum(picard),
        "continuous.outer_iterations": total(cont, "iterations"),
        "continuous.self_s": self_sum(cont),
        "sde.sample_paths_calls": len(sample),
        "sde.sample_paths_s": total(sample),
        "sde.path_steps": total(sample, "path_steps"),
        "sde.bytes_computed": total(sample, "bytes_computed"),
        "verify.estimate_calls": len(est),
        "verify.estimate_self_s": self_sum(est),
        "verify.harness_self_s": self_sum(harness),
        "verify.residual_s": total(pick("verify.bsde_path_residual")),
        "verify.rows": total(harness, "rows"),
        "verify.rows_passed": total(harness, "rows_passed"),
        "cli.calls": len(cli),
        "cli.self_s": self_sum(cli),
        "cli.bytes_written": total(cli, "bytes_written"),
    }
    for size in GRID_SIZES:
        at = [s for s in solves if s.attrs["m"] == size]
        m[f"ebsde.solve_s.m{size}"] = total(at)
        m[f"ebsde.iterations.m{size}"] = total(at, "iterations")
    return m

"""One pass of one workload, in a fresh process started by ``run.py``.

The worker builds the pass's inputs, records the set-up time (from the
launch time its parent passes in, to the first operation), runs every
operation once and prints one JSON object as its last line of output.  With
``--trace 1`` it wraps the library's public calls first, and afterwards
reports per-layer numbers, writes the spans to ``--spans`` and restores
every wrapped name.

The shared host's processor speed drifts by up to 1.5x within seconds, which
moves wall times between runs far more than a regression bound allows.  So
the worker times a fixed calibration (:func:`calibrate`) after set-up and
after every operation, and reports ``setup_s`` and ``total_s`` in seconds at
the reference speed: each wall time is multiplied by ``CAL_REF_S`` over the
calibration time measured around it.  The wall times are kept as
``wall_setup_s`` and ``wall_total_s``; a traced pass scales its layer times
by the pass's ratio of ``total_s`` to ``wall_total_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tracing
import workloads

# the calibration's wall time when the host runs at its common speed (2-core
# VM, Python 3.11, numpy 2.4): the reference speed times are scaled to
CAL_REF_S = 0.045


def rng_seconds(spans) -> float:
    """Time to redraw, through the public ``path_stream``, every stream the pass sampled."""
    from ergodic_games import path_stream

    spent = 0.0
    for s in spans:
        if s.name == "sde.sample_paths":
            t0 = time.perf_counter()
            for k in range(s.attrs["n_paths"]):
                path_stream(s.attrs["seed"], k).standard_normal(s.attrs["n_steps"])
            spent += time.perf_counter() - t0
    return spent


def calibrate() -> float:
    """Wall time of fixed work like the library's: interpreter loops and numpy vector ops.

    The work updates its arrays in place, so its time does not depend on the
    state in which the operations before it left the memory allocator.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 401)  # a grid solver's vector
    y = np.linspace(0.0, 1.0, 20_000)  # a Monte Carlo path batch
    t0 = time.perf_counter()
    acc = 0
    for k in range(450_000):
        acc += k * k
    for _ in range(1800):
        np.multiply(x, x, out=x)
        np.sqrt(x + 1.0, out=x)
    for _ in range(180):
        np.negative(y, out=y)
        np.exp(y, out=y)
        y += y.sum() * 1e-9
    return time.perf_counter() - t0


def run_pass(workload: str, seed: int, launch: float, workdir: Path, tracer=None) -> dict:
    """Set up and run one pass; ``tracer`` (already installed) records its spans."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    info = workloads.Pass(observed={}, digests={})
    with span("bench.setup"):
        ops = workloads.build(workload, seed, workdir, info)
    wall_setup_s = time.monotonic() - launch
    checks = []
    op_s = {}
    with span("bench.pass") as root:
        with span("bench.calibrate"):
            cal = [calibrate()]
        for op in ops:
            t_op = time.perf_counter()
            try:
                checks += op.call()
            except Exception as err:  # a raising operation is a failed operation
                traceback.print_exc()
                checks.append(workloads.Check(op.name, False, f"{type(err).__name__}: {err}"))
            op_s[op.name] = time.perf_counter() - t_op
            with span("bench.calibrate"):
                cal.append(calibrate())
    # each operation at the speed the calibrations on either side of it saw
    scaled = {name: t * 2 * CAL_REF_S / (cal[k] + cal[k + 1])
              for k, (name, t) in enumerate(op_s.items())}
    total_s = sum(scaled.values())
    failures = [f"{c.label}: {c.detail}" for c in checks if not c.ok]
    out = {
        "setup_s": wall_setup_s * CAL_REF_S / cal[0],
        "total_s": total_s,
        "wall_setup_s": wall_setup_s,
        "wall_total_s": sum(op_s.values()),
        "calibration_s": cal,
        "op_s": op_s,
        "mc_s": sum(scaled[op.name] for op in ops if op.path_steps),
        "mc_path_steps": sum(op.path_steps for op in ops),
        "attempted": len(checks),
        "failed": len(failures),
        "failures": failures[:20],
        "observed": info.observed,
        "digests": info.digests,
    }
    if tracer is not None:
        own = tracing.self_times(tracer.spans)
        layers = tracing.layer_metrics(tracer.spans)
        layers["bench.self_s"] = own[root.id]
        out["traced_wall_s"] = root.duration
        out["layers"] = layers
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--workdir", required=True, help="directory for scratch artifacts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workdir = Path(tempfile.mkdtemp(dir=args.workdir))
    try:
        out = run_pass(args.workload, args.seed, args.launch, workdir, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None:
        out["layers"]["sde.rng_s"] = rng_seconds(tracer.spans)
        # layer times at the reference speed too, so they compare with total_s
        scale = out["total_s"] / out["wall_total_s"]
        out["layers"] = {k: v * scale if k.endswith("_s") else v
                         for k, v in out["layers"].items()}
        if args.spans:
            tracer.dump(Path(args.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Path ranges in worker processes: the same bits, the same errors, no process left behind.

Runs here are small, so the helper would keep them in-process; most tests
force two workers by lowering its CPU count and per-worker threshold.
"""

import json
import logging
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ergodic_games as eg
from ergodic_games import catalog, cli, continuous, ebsde, games, picard, sde, verify

from conftest import euler_reference, policy_of_constant_control

SRC = Path(__file__).resolve().parents[1] / "src"

# uniform drift table nodes, -10.25 to 10.25
_NODES = 0.5 * np.arange(-20.5, 21.0)

# one instance of every exception class the package defines
_ERRORS = {
    sde.SimulationDivergedError: lambda: sde.SimulationDivergedError(300),
    games.NoPureNashError: lambda: games.NoPureNashError(0.5, (1.25, -2.0)),
    ebsde.MaxSweepsExceededError: lambda: ebsde.MaxSweepsExceededError(
        3.5e-4, 50, 0.3075, np.linspace(-1.0, 1.0, 7), [1.0, 0.01, 3.5e-4], 1e-11, 7.1e-11),
    ebsde.NonMonotoneSchemeError: lambda: ebsde.NonMonotoneSchemeError(
        "not monotone at x=-4.5", -4.5, 18.3, 2.0),
    continuous.GrowthViolationError: lambda: continuous.GrowthViolationError("grows too fast"),
    verify.InsufficientHorizonError: lambda: verify.InsufficientHorizonError("horizon 5"),
    cli.ConfigError: lambda: cli.ConfigError("grid.m is missing"),
}


def _package_errors():
    found = set()
    for module in (catalog, cli, continuous, ebsde, games, picard, sde, verify):
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__.startswith("ergodic_games")):
                found.add(obj)
    return found


def test_every_package_error_is_round_tripped():
    assert _package_errors() == set(_ERRORS)


@pytest.mark.parametrize("cls", sorted(_ERRORS, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_errors_survive_pickling(cls):
    # a worker process's error crosses to the caller pickled
    err = _ERRORS[cls]()
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err) and back.args == err.args
    assert sorted(vars(back)) == sorted(vars(err))
    for name, value in vars(err).items():
        np.testing.assert_equal(getattr(back, name), value)


def _force_two_workers(monkeypatch):
    """Every run of at least two paths splits over two forked workers."""
    monkeypatch.setattr(sde, "_cpu_count", lambda: 2)
    monkeypatch.setattr(sde, "_MIN_WORKER_PATH_STEPS", 1)


@pytest.fixture
def two_workers(monkeypatch):
    _force_two_workers(monkeypatch)


def _engine_record(caplog):
    """The numbers of the one engine line ``caplog`` holds, as its record carries them."""
    records = [r.trace for r in caplog.records if r.name == "ergodic_games.sde"]
    assert len(records) == 1, records
    return records[0]


def _forked_and_in_process(monkeypatch, caplog, call):
    """``call()`` in-process, then on two forced workers; results and engine records."""
    out = []
    for workers in (1, 2):
        if workers == 2:
            _force_two_workers(monkeypatch)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="ergodic_games.sde"):
            result = call()
        out.append((result, _engine_record(caplog)))
        assert multiprocessing.active_children() == []
    return out


@pytest.fixture(scope="module")
def three_player_nash(model, coarse_grid):
    # 9 controls cycle (2, 3) at m=81, an equilibrium the harness refuses; 21 converge
    spec = eg.three_player_symmetric(n_controls=21)
    return spec, eg.picard_solve(model, spec, coarse_grid, tol=1e-4)


def _nash_rows(model, spec, nash, n_paths, seed):
    rep = eg.nash_deviation_test(model, spec, nash, n_deviations=3, horizon=12.0, step=0.02,
                                 n_paths=n_paths, burn_in=2.0, seed=seed)
    return rep.as_dict()


@pytest.mark.parametrize("n_paths", [7, 1])
@pytest.mark.parametrize("game", ["g0", "three_player_symmetric"])
def test_deviation_rows_are_bitwise_those_of_one_process(model, g0, g0_nash_coarse,
                                                         three_player_nash, monkeypatch,
                                                         caplog, game, n_paths):
    spec, nash = (g0, g0_nash_coarse) if game == "g0" else three_player_nash
    seeds = (0, 11) if game == "g0" else (0, 5, 2**40)
    for seed in seeds:
        monkeypatch.undo()
        (one, engine1), (two, engine2) = _forked_and_in_process(
            monkeypatch, caplog, lambda: _nash_rows(model, spec, nash, n_paths, seed))
        # repr of a float keeps every bit, and tells -0.0 from 0.0
        assert repr(two) == repr(one)
        assert engine1["workers"] == 1
        assert engine2["workers"] == (2 if n_paths > 1 else 1)
        assert (engine2["paths"], engine2["streams"]) == (engine1["paths"], engine1["streams"])


@pytest.mark.parametrize("n_paths", [7, 1])
def test_path_residual_is_bitwise_that_of_one_process(model, g0, g0_nash_coarse, monkeypatch,
                                                      caplog, n_paths):
    (one, engine1), (two, engine2) = _forked_and_in_process(
        monkeypatch, caplog, lambda: eg.bsde_path_residual(
            model, g0, g0_nash_coarse, horizon=10.0, step=0.02, n_paths=n_paths, seed=4))
    assert repr(two) == repr(one)
    assert engine2["workers"] == (2 if n_paths > 1 else 1)
    assert (engine2["paths"], engine2["streams"]) == (engine1["paths"], engine1["streams"])


@pytest.mark.parametrize("n_jobs, n_paths, n_steps, workers", [
    (1, 1000, 499, 1), (1, 1000, 500, 2), (1000, 1, 500, 1)])
def test_two_cpus_split_every_run_of_half_a_million_path_steps(model, monkeypatch, caplog,
                                                               n_jobs, n_paths, n_steps, workers):
    # the rule min(CPUs, n_paths, path-steps // _MIN_WORKER_PATH_STEPS) at its
    # own threshold: 499,000 path-steps stay here, 500,000 split, and one path
    # (of however many jobs) is never split
    monkeypatch.setattr(sde, "_cpu_count", lambda: 2)
    drift = (_NODES, [np.zeros(len(_NODES))] * n_jobs)
    with caplog.at_level(logging.INFO, logger="ergodic_games.sde"):
        sde.path_sums("rule", model, n_steps, 0.02, 0, n_paths, lambda *args: None, drift)
    assert _engine_record(caplog)["workers"] == workers


def test_a_range_of_paths_keeps_its_keys(model, monkeypatch):
    # paths 3 to 6 of seed 5 under two drift rows, run as a range of their own:
    # each is the Euler recursion fed by its key's normals and its row, over
    # several windows and (bands of 3 keys) two bands
    monkeypatch.setattr(sde, "_BAND", 3)
    n = 4 * sde._FINITE_CHECK_STEPS + 37
    rows = [np.zeros(len(_NODES)), 0.5 * np.tanh(_NODES)]
    states = np.empty((2, 4, n + 1))

    def keep(job, paths, start, block, nodes):
        states[job, paths, start:start + len(block)] = block.T

    sde.run_paths(model, n, 0.01, 5, 4, keep, (_NODES, rows), first_path=3)
    normals = [eg.path_stream(5, 3 + k).standard_normal(n) for k in range(4)]
    for row, got in zip(rows, states):
        assert np.array_equal(got, euler_reference(model, 0.01, normals, (_NODES, [row] * 4)))


def _divergence(model, g0, coarse_grid):
    """``diverged(n_paths)``: the error of an estimate on ``n_paths`` paths of seed 2.

    The policy's top control beyond |x| = 2 has a drift shift that overflows;
    each path diverges when it first gets there.
    """
    spec = eg.GameSpec(
        grids=g0.grids, drift_map=lambda u, v: np.where(u >= 1.0, 1.5e308, u + v),
        costs=g0.costs, cost_sup=g0.cost_sup, cost_x_lip=g0.cost_x_lip,
    )
    nodes = coarse_grid.nodes()
    wild = policy_of_constant_control(spec, coarse_grid, 20).with_player_indices(
        0, np.where(np.abs(nodes) > 2.0, 40, 20))

    def diverged(n_paths):
        with pytest.raises(eg.SimulationDivergedError) as exc:
            eg.estimate_payoff(model, spec, wild, 0, n_paths=n_paths, horizon=40.0, step=0.01,
                               burn_in=1.0, seed=2)
        return exc.value

    return diverged


# sigma * r overflows to inf, and the diverged paths' Euler updates meet inf - inf
@pytest.mark.filterwarnings("ignore:invalid value encountered in (add|cast):RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_divergence_on_workers_is_that_of_one_process(model, g0, coarse_grid, monkeypatch):
    diverged = _divergence(model, g0, coarse_grid)
    one = diverged(6)
    # paths 0-2, the first of two workers' ranges, diverge later than paths 3-5
    assert diverged(3).step_index > one.step_index > 1
    _force_two_workers(monkeypatch)
    forked = diverged(6)
    assert type(forked) is eg.SimulationDivergedError
    assert str(forked) == str(one)
    assert forked.step_index == one.step_index
    assert multiprocessing.active_children() == []


@pytest.mark.filterwarnings("ignore:invalid value encountered in (add|cast):RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_divergence_of_many_batches_is_that_of_one(model, g0, coarse_grid, monkeypatch):
    # batches of 3 paths: the first batch diverges later than the second, which
    # still runs, in one process as on two workers
    diverged = _divergence(model, g0, coarse_grid)
    assert diverged(6).step_index == 37
    monkeypatch.setattr(sde, "_MAX_BATCH_PATHS", 3)
    assert diverged(6).step_index == 37
    _force_two_workers(monkeypatch)
    assert diverged(6).step_index == 37
    assert multiprocessing.active_children() == []


def test_a_cost_error_in_a_worker_reaches_the_caller(model, g0, coarse_grid, two_workers):
    refuse = {"on": False}

    def cost(x, u, v):
        if refuse["on"]:
            raise ValueError("cost refused the states", x.shape[1])
        return u**2 + eg.bump(x)

    spec = eg.GameSpec(grids=g0.grids, drift_map=g0.drift_map, costs=(cost, g0.costs[1]),
                       cost_sup=g0.cost_sup, cost_x_lip=g0.cost_x_lip)
    refuse["on"] = True  # after the construction checks; the workers inherit it
    policy = policy_of_constant_control(spec, coarse_grid, 20)
    with pytest.raises(ValueError) as exc:
        eg.estimate_payoff(model, spec, policy, 0, horizon=10.0, step=0.02, n_paths=6,
                           burn_in=1.0)
    assert type(exc.value) is ValueError
    # each range hands over its own 3 paths at a time
    assert exc.value.args == ("cost refused the states", 3)
    assert multiprocessing.active_children() == []


def _in_lower_range(model, seed):
    """``lower(start, states)``: whether a range's first window (``start`` 0)
    holds paths 0-1 of ``seed``, the lower of the two ranges 4 paths split
    into; their states at step 1 name them.  A later window says nothing, and
    asking about one is an error."""
    first = eg.sample_paths(model, None, 0.01, 0.01, seed, 2)[:, 1]

    def lower(start, states):
        assert start == 0, "only a range's first window holds step 1"
        return states[1, 0] in first

    return lower


def test_the_lowest_ranges_error_wins(model, two_workers):
    lower = _in_lower_range(model, 0)

    def terms(job, start, states, nodes):
        # the higher range fails first; the caller still reports the lowest
        if lower(start, states):
            time.sleep(0.2)
            raise ValueError("lower range", states.shape[1])
        raise sde.SimulationDivergedError(1)

    with pytest.raises(ValueError) as exc:
        sde.path_sums("test", model, 10, 0.01, 0, 4, terms)
    assert exc.value.args == ("lower range", 2)
    assert multiprocessing.active_children() == []


# the drift shift sigma * _HUGE overflows beyond |x| = 2.5
_BEYOND = (_NODES, [np.where(np.abs(_NODES) > 2.5, np.finfo(float).max, 0.0)])


@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
def test_the_earliest_divergence_wins(model, two_workers):
    # paths 0-1 of seed 3 diverge later than paths 2-3, after their first window
    for first_path, step_index in ((0, 1700), (2, 775)):
        with pytest.raises(sde.SimulationDivergedError) as exc:
            sde.run_paths(model, 4000, 0.01, 3, 2, lambda *args: None, _BEYOND, first_path)
        assert exc.value.step_index == step_index
    lower = _in_lower_range(model, 3)

    def terms(job, start, states, nodes):
        # the lower range diverges later, and reports first: only the higher
        # range waits, in its first window
        if start == 0 and not lower(start, states):
            time.sleep(0.2)

    with pytest.raises(sde.SimulationDivergedError) as exc:
        sde.path_sums("test", model, 4000, 0.01, 3, 4, terms, _BEYOND)
    assert exc.value.step_index == 775
    assert multiprocessing.active_children() == []


def test_a_killed_worker_raises_instead_of_hanging(model, two_workers):
    from concurrent.futures.process import BrokenProcessPool

    lower = _in_lower_range(model, 0)

    def terms(job, start, states, nodes):
        if not lower(start, states):
            os._exit(3)

    with pytest.raises(BrokenProcessPool):
        sde.path_sums("test", model, 10, 0.01, 0, 4, terms)
    assert multiprocessing.active_children() == []


def _sums_in_this_process(model, conn):
    pids = set()

    def terms(job, start, states, nodes):
        pids.add(os.getpid())
        return np.ones_like(states[1:])

    conn.send((sde.path_sums("test", model, 10, 0.01, 0, 4, terms), pids))


def test_a_daemonic_caller_runs_its_ranges_itself(model, two_workers):
    # a daemonic process may not start children: its run stays in-process
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_sums_in_this_process, args=(model, send), daemon=True)
    proc.start()
    assert recv.poll(60)
    sums, pids = recv.recv()
    proc.join(60)
    assert proc.exitcode == 0
    assert pids == {proc.pid}
    assert np.array_equal(sums, np.full((1, 4), 10.0))


def _no_child_left():
    """Whether this process has no child, running or zombie."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _run_in_a_fresh_interpreter(code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


_FORCE_TWO_WORKERS = """
import json, os, sys
from ergodic_games import sde
sde._cpu_count = lambda: 2
sde._MIN_WORKER_PATH_STEPS = 1
"""


def test_a_split_run_loads_no_process_pool():
    # the run-time twin of test_samples' import check: the workers are plain forks
    loaded = _run_in_a_fresh_interpreter(_FORCE_TWO_WORKERS + """
import ergodic_games as eg
pid = os.getpid()
sums = sde.path_sums("t", eg.ou_model(), 10, 0.01, 0, 4,
                     lambda job, start, states, nodes: states[1:] * 0.0 + os.getpid())
print(json.dumps({"pids": sorted(set(sums[0] / 10) - {pid}),
                  "modules": sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing"
                                    or m == "concurrent.futures")}))
""")
    assert len(loaded["pids"]) == 2 and loaded["modules"] == []


def test_a_split_run_loads_numpy_random_before_its_workers_start():
    # a solve loads no numpy.random; the split residual after it loads the
    # module in the caller, which its forked workers then share instead of each
    # importing it (about 9 ms a worker)
    loaded = _run_in_a_fresh_interpreter(_FORCE_TWO_WORKERS + """
import ergodic_games as eg
model, g0 = eg.ou_model(), eg.quadratic_decoupled()
nash = eg.picard_solve(model, g0, eg.Grid1D(-6.0, 6.0, 41), tol=1e-4)
solved = "numpy.random" in sys.modules
eg.bsde_path_residual(model, g0, nash, horizon=1.0, step=0.02, n_paths=4, seed=0)
print(json.dumps([solved, "numpy.random" in sys.modules]))
""")
    assert loaded == [False, True]


def test_a_split_verify_nash_records_its_workers_memory(tmp_path):
    # a fresh interpreter has waited for no other child
    cfg = tmp_path / "g.yaml"
    cfg.write_text(json.dumps({
        "model": {}, "grid": {"x_min": -6.0, "x_max": 6.0, "m": 41},
        "game": {"name": "quadratic_decoupled", "n_controls": 11}, "solver": {"tol": 1.0e-4},
        "mc": {"horizon": 10.0, "step": 0.02, "n_paths": 8, "n_deviations": 1, "burn_in": 1.0}}))
    man = _run_in_a_fresh_interpreter(_FORCE_TWO_WORKERS + f"""
from ergodic_games import cli
assert cli.main(["verify-nash", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "v")!r},
                 "--quiet"]) in (0, 3)
print(open({str(tmp_path / "v" / "manifest.json")!r}).read().replace("\\n", " "))
""")
    assert man["peak_rss_children_mb"] > 0


def test_the_wide_coarse_residual_leaves_its_engine_to_the_workers():
    # verify_wide's step-0.02 residual, 1,000 paths x 1,000 steps, on two CPUs:
    # its windows, band and generators live in the two workers, so this
    # process's peak RSS stays put (in one process it rises by about 6 MiB).
    # An exec'd interpreter's peak starts at that of the process that started
    # it (here pytest's), a forked child's at its own RSS: the run forks first
    out = _run_in_a_fresh_interpreter("""
import os
if os.fork():
    os._exit(os.waitstatus_to_exitcode(os.wait()[1]))
import json, logging, resource
import ergodic_games as eg
from ergodic_games import sde
sde._cpu_count = lambda: 2
records = []
handler = logging.Handler()
handler.emit = lambda record: records.append(record.trace)
logging.getLogger("ergodic_games.sde").addHandler(handler)
logging.getLogger("ergodic_games.sde").setLevel(logging.INFO)
model, g0 = eg.ou_model(), eg.quadratic_decoupled()
nash = eg.picard_solve(model, g0, eg.Grid1D(-6.0, 6.0, 81), tol=1e-4)
def residual():
    return eg.bsde_path_residual(model, g0, nash, horizon=20.0, step=0.02, n_paths=1000, seed=0)
eg.bsde_path_residual(model, g0, nash, horizon=2.0, step=0.02, n_paths=4, seed=0)  # loads numpy.random
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
split = residual()
grown, engine = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, records[-1]
sde._cpu_count = lambda: 1
print(json.dumps({"grown_kib": grown, "engine": engine, "same": split == residual()}))
""")
    assert out["grown_kib"] < 1024, out
    engine = out["engine"]
    assert (engine["workers"], engine["paths"], engine["steps"]) == (2, 1000, 1000)
    assert out["same"]


def test_the_heap_setting_runs_only_in_the_workers(model, monkeypatch):
    # each worker sets it for itself before its range; the caller never does
    calls = []
    monkeypatch.setattr(sde, "_keep_heap", lambda: calls.append(os.getpid()))

    def terms(job, start, states, nodes):
        return np.full_like(states[1:], float(calls == [os.getpid()]))

    assert np.array_equal(sde.path_sums("test", model, 10, 0.01, 0, 4, terms),
                          np.zeros((1, 4)))
    _force_two_workers(monkeypatch)
    assert np.array_equal(sde.path_sums("test", model, 10, 0.01, 0, 4, terms),
                          np.full((1, 4), 10.0))
    assert calls == []
    assert _no_child_left()


class _CLibrary:
    def __init__(self, *functions):
        self.calls = []
        for name in functions:
            setattr(self, name, lambda *args, name=name: self.calls.append((name, args)))


def test_the_heap_setting_is_glibcs_trim_threshold(monkeypatch):
    libc = _CLibrary("mallopt")
    monkeypatch.setattr(sde.ctypes, "CDLL", lambda name: libc if name is None else None)
    sde._keep_heap()
    assert libc.calls == [("mallopt", (-1, 1 << 30))]  # M_TRIM_THRESHOLD, 1 GiB


def test_a_c_library_without_mallopt_keeps_the_default(monkeypatch):
    libc = _CLibrary("malloc")
    monkeypatch.setattr(sde.ctypes, "CDLL", lambda name: libc)
    sde._keep_heap()
    assert libc.calls == []


@pytest.mark.skipif(not hasattr(sde.ctypes.CDLL(None), "mallopt"), reason="needs glibc's mallopt")
def test_workers_that_keep_their_heap_fault_less_often():
    # verify_wide's residual pair on two workers each.  Workers that keep their
    # heap fault about 7k times in all (glibc 2.36); how often trimmed ones do
    # depends on the heap layout the fork inherits, which moves with the size of
    # the environment: 7k to 46k, so the saving ranges from 2% to 85%
    out = _run_in_a_fresh_interpreter(_FORCE_TWO_WORKERS + """
import resource
import ergodic_games as eg
model, g0 = eg.ou_model(), eg.quadratic_decoupled()
nash = eg.picard_solve(model, g0, eg.Grid1D(-6.0, 6.0, 81), tol=1e-4)
def faults():
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    value = [eg.bsde_path_residual(model, g0, nash, horizon=20.0, step=h, n_paths=1000, seed=0)
             for h in (0.02, 0.01)]
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before, value
kept, value = faults()
sde._keep_heap = lambda: None
trimmed, same = faults()
print(json.dumps({"kept": kept, "trimmed": trimmed, "same": value == same}))
""")
    assert out["kept"] < out["trimmed"], out
    assert out["same"]


@pytest.mark.skipif(not hasattr(sde.ctypes.CDLL(None), "mallopt"), reason="needs glibc's mallopt")
def test_workers_that_keep_their_heap_fault_no_more_in_a_longer_run():
    # a consumer whose temporaries top the heap (thirty-two 64 KiB blocks, each
    # below glibc's mmap threshold, 2 MiB in all), on two workers of 32 paths,
    # one call a window: a fresh fork gives them back after each call and
    # faults them in again, so 36 more windows cost up to 36 * 512 more minor
    # faults a worker (23k to 35k in all on glibc 2.36); a worker that keeps its
    # heap faults them in once
    out = _run_in_a_fresh_interpreter(_FORCE_TWO_WORKERS + """
import resource
import numpy as np
import ergodic_games as eg
def terms(job, start, states, nodes):
    blocks = [np.ones(8192) for _ in range(32)]
def growth():
    faults = []
    for windows in (4, 40):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        sde.path_sums("t", eg.ou_model(), windows * sde._FINITE_CHECK_STEPS, 0.01, 0, 64, terms)
        faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)
    return faults[1] - faults[0]
kept = growth()
sde._keep_heap = lambda: None
print(json.dumps({"kept": kept, "trimmed": growth()}))
""")
    assert out["trimmed"] >= 2 * 36 * 128, out
    assert out["kept"] <= out["trimmed"] / 10, out


class _NeedsTwoArguments(Exception):
    # pickles, but loading calls __init__ with one argument
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_error_that_does_not_pickle_is_named(model, two_workers):
    class LocalError(Exception):
        pass  # a local class does not pickle

    for err, name in ((LocalError("kept here"), "LocalError"),
                      (_NeedsTwoArguments(1, 2), "_NeedsTwoArguments")):
        def terms(job, start, states, nodes):
            raise err

        with pytest.raises(RuntimeError, match=f"raised .*{name}.*does not pickle"):
            sde.path_sums("test", model, 10, 0.01, 0, 4, terms)
        assert _no_child_left()


def test_a_workers_error_carries_its_traceback(model, two_workers):
    def terms(job, start, states, nodes):
        raise ValueError("refused in the worker")

    with pytest.raises(ValueError, match="refused in the worker") as exc:
        sde.path_sums("test", model, 10, 0.01, 0, 4, terms)
    cause = str(exc.value.__cause__)
    assert 'raise ValueError("refused in the worker")' in cause
    assert "in terms" in cause
    # a cause is no field of the error: cli's error record leaves it out
    assert vars(exc.value) == {}
    assert _no_child_left()


def test_a_failed_fork_leaves_no_descriptor_or_child(model, two_workers, monkeypatch):
    fork, calls = os.fork, []

    def second_fails():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError("no process for the second range")
        return fork()

    fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", second_fails)
    with pytest.raises(BlockingIOError):
        sde.path_sums("test", model, 10, 0.01, 0, 4, lambda *args: None)
    monkeypatch.setattr(os, "fork", fork)
    assert len(calls) == 2
    assert set(os.listdir("/proc/self/fd")) == fds
    assert _no_child_left()


def test_a_result_larger_than_a_pipe_arrives_intact(model, monkeypatch):
    # each worker sends 40 x 500 sums, 160 KB: more than a pipe holds
    def terms(job, start, states, nodes):
        return states[1:] + job

    drift = (_NODES, [np.zeros(len(_NODES))] * 40)
    one = sde.path_sums("test", model, 2, 0.01, 0, 1000, terms, drift)
    _force_two_workers(monkeypatch)
    assert np.array_equal(sde.path_sums("test", model, 2, 0.01, 0, 1000, terms, drift), one)
    assert _no_child_left()


@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
def test_no_child_is_left_after_a_failure(model, two_workers):
    lower = _in_lower_range(model, 0)

    def raises(job, start, states, nodes):
        raise ValueError("refused")

    def dies(job, start, states, nodes):
        if not lower(start, states):
            os._exit(3)

    from concurrent.futures.process import BrokenProcessPool

    for terms, drift, error in ((raises, None, ValueError), (dies, None, BrokenProcessPool),
                                (lambda *args: None, _BEYOND, sde.SimulationDivergedError)):
        with pytest.raises(error):
            sde.path_sums("test", model, 4000, 0.01, 3, 4, terms, drift)
        assert _no_child_left()


def test_an_interrupted_caller_leaves_no_child(model, two_workers):
    def terms(job, start, states, nodes):
        time.sleep(60)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    # the timer is not inherited: only this process is interrupted, while it waits
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    t0 = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            sde.path_sums("test", model, 10, 0.01, 0, 4, terms)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - t0 < 30
    assert _no_child_left()

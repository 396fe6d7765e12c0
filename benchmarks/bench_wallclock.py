"""WALL -- real (host) seconds per steady-state replayed run.

Every earlier benchmark measures *simulated* time: message counts,
bytes, modeled makespans.  This one measures what the compiled replay
fast path actually buys on the host: wall-clock seconds per
``Program.run`` once the schedules and step plans are warm (frozen
per-rank StepPlans -- prebound numpy calls, no per-sweep cache probe or
AST walk) against the same sweeps through ``interpret_doall`` (the
interpreted reference executor, called from a parsub routine).  Both
executors produce bit-identical
results and traces -- the benchmark verifies that on every scenario --
so the ratio is pure interpreter overhead stripped from the hot loop.

Scenarios (the doall content of the paper's workloads):

* ``jacobi``     -- the Listing-3 five-point stencil, the headline;
* ``adi``        -- ADI's defect-correction sweeps (residual + update
                    doalls; the tridiagonal line solves are hand-written
                    kernels outside the doall path and excluded);
* ``multigrid``  -- the finest-level zebra relaxation rhs loops plus the
                    residual loop of the 2-D multigrid solver;
* ``redistribute`` -- block<->cyclic layout flips with stencil sweeps in
                    each layout: repartition schedules replay (layout-
                    pair keyed), while every flip deliberately orphans
                    the doall plans (epoch-keyed), so this measures the
                    fast path when plans must be *rebuilt* mid-run --
                    the stale-plan guard under timing pressure.

Output: ``benchmarks/results/WALL.txt`` (human table) and
``benchmarks/results/BENCH_wallclock.json`` (the perf trajectory
artifact; see docs/performance.md for how to read it).

Acceptance: steady-state replay (the geometric mean over the three
pure-replay scenarios) is >= 3x faster compiled than interpreted, with
bit-identical results and traces everywhere.  ``--smoke`` runs tiny
sizes and exits nonzero if compiled replay is slower than interpreted
on the jacobi scenario (the CI gate).
"""

import os
import sys
import time

import numpy as np

try:
    from benchmarks._report import RESULTS_DIR, report, write_json
except ModuleNotFoundError:  # invoked as a script: python benchmarks/bench_...
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from benchmarks._report import RESULTS_DIR, report, write_json

import repro
from repro import Machine, ProcessorGrid, Session
from repro.compiler.schedule import interpret_doall
from repro.lang import Assign, DistArray, Doall, Owner, loopvars
from repro.tensor.adi import _build_residual_loop, _build_update_loop, default_tau
from repro.tensor.jacobi import build_jacobi_loop
from repro.tensor.multigrid2d import MG2
from repro.tensor.poisson import Coeffs2D

JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_wallclock.json")


def _trace_sig(trace):
    """Everything that must be bit-identical between the two executors."""
    return (
        [(m.src, m.dst, m.tag, m.nbytes, m.t_send, m.t_arrive, m.t_recv)
         for m in trace.messages],
        [(m.proc, m.label, m.payload) for m in trace.marks],
        [(c.proc, c.start, c.end, c.label) for c in trace.computes],
    )


def _run(prog, iters, compiled):
    """``prog.run(iters=)``, or the same sweeps through the interpreted
    reference executor."""
    if compiled:
        return prog.run(iters=iters)

    def routine(ctx):
        for _ in range(iters):
            for loop in prog.loops:
                yield from interpret_doall(ctx, loop)
    return prog.session.run(routine, grid=prog.grid)


def _time_runs(run_once, reps):
    """Best (min) wall seconds of ``reps`` timed calls (first call warms).

    The minimum is the standard estimator for wall-clock benchmarks
    (``timeit`` uses it): scheduler noise and background load only ever
    *add* time, so the fastest observation is the closest to the true
    cost of the work.
    """
    run_once()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        run_once()
        samples.append(time.perf_counter() - t0)
    return min(samples)


def _measure(make_runner, reps):
    """Time one scenario in both executor modes and check equivalence.

    ``make_runner(compiled)`` must return ``(run_once, result)`` where
    ``run_once()`` performs one steady-state replayed run and
    ``result()`` returns ``(arrays, trace)`` of a final verification
    run.  Returns a result-row dict.
    """
    t_compiled = _time_runs(make_runner(True)[0], reps)
    t_interp = _time_runs(make_runner(False)[0], reps)
    xa, ta = make_runner(True)[1]()
    xb, tb = make_runner(False)[1]()
    identical = all(np.array_equal(a, b) for a, b in zip(xa, xb))
    trace_identical = _trace_sig(ta) == _trace_sig(tb)
    return {
        "compiled_s": t_compiled,
        "interpreted_s": t_interp,
        "speedup": t_interp / t_compiled,
        "messages": ta.message_count(),
        "bytes": ta.total_bytes(),
        "identical_results": bool(identical),
        "identical_traces": bool(trace_identical),
    }


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def scenario_jacobi(n, p, iters):
    f = 1e-3 * np.random.default_rng(11).standard_normal((n + 1, n + 1))

    def make(compiled):
        grid = ProcessorGrid((p, p))
        X = DistArray((n + 1, n + 1), grid, dist=("block", "block"), name="X")
        F = DistArray((n + 1, n + 1), grid, dist=("block", "block"), name="F")
        F.from_global(f)
        sess = Session(Machine(n_procs=p * p))
        prog = repro.compile(build_jacobi_loop(X, F, n, grid), session=sess)

        def run_once():
            _run(prog, iters, compiled)

        def result():
            X.from_global(np.zeros_like(f))
            trace = _run(prog, iters, compiled)
            return (X.to_global(),), trace

        return run_once, result

    return make


def scenario_adi(n, p, iters):
    coeffs = Coeffs2D()
    tau = default_tau(n, coeffs)
    h2 = (1.0 / n) ** 2
    f = 1e-3 * np.random.default_rng(12).standard_normal((n + 1, n + 1))

    def make(compiled):
        grid = ProcessorGrid((p, p))
        dist = ("block", "block")
        u = DistArray(f.shape, grid, dist=dist, name="u")
        F = DistArray(f.shape, grid, dist=dist, name="F")
        r = DistArray(f.shape, grid, dist=dist, name="r")
        v = DistArray(f.shape, grid, dist=dist, name="v")
        F.from_global(f)
        v.from_global(0.1 * f)
        sess = Session(Machine(n_procs=p * p))
        loops = [
            _build_residual_loop(r, u, F, n, h2, h2, coeffs, grid),
            _build_update_loop(u, v, n, tau, grid),
        ]
        prog = repro.compile(loops, session=sess)

        def run_once():
            _run(prog, iters, compiled)

        def result():
            u.from_global(np.zeros_like(f))
            trace = _run(prog, iters, compiled)
            return (u.to_global(), r.to_global()), trace

        return run_once, result

    return make


def scenario_multigrid(n, p, iters):
    f = 1e-3 * np.random.default_rng(13).standard_normal((n + 1, n + 1))

    def make(compiled):
        grid = ProcessorGrid((p,))
        u = DistArray(f.shape, grid, dist=("*", "block"), name="u2")
        F = DistArray(f.shape, grid, dist=("*", "block"), name="f2")
        F.from_global(f)
        u.from_global(0.01 * f)
        mg = MG2(u, F, grid, Coeffs2D())
        fine = mg.levels[0]
        loops = [lp for lp in (fine["zebra"]["even"], fine["zebra"]["odd"],
                               fine["resid"]) if lp is not None]
        sess = Session(Machine(n_procs=p))
        prog = repro.compile(loops, session=sess)

        def run_once():
            _run(prog, iters, compiled)

        def result():
            trace = _run(prog, iters, compiled)
            return (fine["tmp"].to_global(), fine["r"].to_global()), trace

        return run_once, result

    return make


def scenario_redistribute(n, p, flips, sweeps):
    f0 = np.arange(float(n + 1) * (n + 1)).reshape(n + 1, n + 1)

    def make(compiled):
        grid = ProcessorGrid((p,))
        u = DistArray(f0.shape, grid, dist=("*", "block"), name="u")
        v = DistArray(f0.shape, grid, dist=("*", "block"), name="v")
        u.from_global(f0)
        i, j = loopvars("i j")
        loop = Doall(
            vars=(i, j),
            ranges=[(1, n - 1), (1, n - 1)],
            on=Owner(v, (i, j)),
            body=[Assign(v[i, j], 0.5 * (u[i, j - 1] + u[i, j + 1]))],
            grid=grid,
        )
        sess = Session(Machine(n_procs=p), grid)

        def program(ctx):
            for flip in range(flips):
                spec = ("*", "cyclic") if flip % 2 == 0 else ("*", "block")
                yield from ctx.redistribute(u, spec)
                yield from ctx.redistribute(v, spec)
                for _ in range(sweeps):
                    if compiled:
                        yield from ctx.doall(loop)
                    else:
                        yield from interpret_doall(ctx, loop)

        def run_once():
            sess.run(program)

        def result():
            trace = sess.run(program)
            return (u.to_global(), v.to_global()), trace

        return run_once, result

    return make


def geomean(xs):
    return float(np.exp(np.mean(np.log(xs))))


def run(smoke=False):
    if smoke:
        reps = 3
        scenarios = {
            "jacobi": (scenario_jacobi(24, 2, 10), True),
            "adi": (scenario_adi(24, 2, 6), True),
            "multigrid": (scenario_multigrid(16, 2, 6), True),
            "redistribute": (scenario_redistribute(16, 2, 4, 3), False),
        }
    else:
        reps = 7
        scenarios = {
            "jacobi": (scenario_jacobi(63, 2, 50), True),
            "adi": (scenario_adi(48, 2, 30), True),
            "multigrid": (scenario_multigrid(64, 4, 20), True),
            "redistribute": (scenario_redistribute(32, 4, 6, 4), False),
        }

    rows = {}
    for name, (make, _steady) in scenarios.items():
        rows[name] = _measure(make, reps)

    steady = [rows[n]["speedup"] for n, (_, s) in scenarios.items() if s]
    headline = geomean(steady)
    payload = {
        "experiment": "WALL",
        "mode": "smoke" if smoke else "full",
        "reps": reps,
        "scenarios": rows,
        "steady_state_speedup": headline,
        "all_identical": all(
            r["identical_results"] and r["identical_traces"] for r in rows.values()
        ),
        "notes": (
            "speedup = interpreted_s / compiled_s per steady-state replayed "
            "run; steady_state_speedup is the geometric mean over the "
            "pure-replay scenarios (jacobi/adi/multigrid).  The "
            "redistribute scenario intentionally orphans doall plans on "
            "every layout flip (epoch-keyed), so it measures compiled "
            "execution under plan rebuild, not pure replay."
        ),
    }
    write_json("wallclock", payload)

    lines = [
        f"{'scenario':<13} {'interp ms':>10} {'compiled ms':>12} "
        f"{'speedup':>8}  identical",
    ]
    for name, r in rows.items():
        lines.append(
            f"{name:<13} {r['interpreted_s'] * 1e3:>10.2f} "
            f"{r['compiled_s'] * 1e3:>12.2f} {r['speedup']:>7.2f}x  "
            f"{r['identical_results'] and r['identical_traces']}"
        )
    lines.append(
        f"steady-state replay speedup (geomean jacobi/adi/multigrid): "
        f"{headline:.2f}x"
    )
    lines.append(f"json: {os.path.relpath(JSON_PATH)}")
    report("WALL", "wall-clock per replayed run, compiled vs interpreted", lines)

    ok = payload["all_identical"]
    if smoke:
        ok = ok and rows["jacobi"]["speedup"] > 1.0
        if not ok:
            print("SMOKE FAIL: compiled replay slower than interpreted "
                  "on jacobi, or results diverged", file=sys.stderr)
    else:
        ok = ok and headline >= 3.0
        if not ok:
            print("FAIL: steady-state speedup below 3x or results diverged",
                  file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv))

"""Session/Program API: isolation, replay, shim fidelity, key identity.

Covers the compile-and-run contract:

* two Sessions over the same arrays never share schedule or plan
  entries (isolation by construction);
* ``Program.run()`` twice on one Session replays (gather hit rate > 0
  on the second run) with bit-identical results, while a fresh Session
  starts at zero hits;
* the deprecated ``run_spmd`` / session-less ``KaliCtx.doall`` shims
  produce bit-identical traces and hit rates to the Session path on the
  Jacobi golden stencil;
* plan-cache keys are immune to CPython id() reuse (regression for the
  ``id(array)`` aliasing bug).
"""

import gc

import numpy as np
import pytest

import repro
from repro import Machine, ProcessorGrid, Session
from repro.compiler.commsched import clear_schedule_cache
from repro.compiler.schedule import clear_plan_cache
from repro.lang import Assign, DistArray, Doall, KaliCtx, Owner, loopvars, run_spmd
from repro.tensor.jacobi import build_jacobi_loop, jacobi_reference
from repro.util.errors import ReproDeprecationWarning, ValidationError


def _stencil_loop(g, n=12, name_prefix=""):
    u = DistArray((n,), g, dist=("block",), name=name_prefix + "u")
    v = DistArray((n,), g, dist=("block",), name=name_prefix + "v")
    u.from_global(np.arange(float(n)))
    (i,) = loopvars("i")
    loop = Doall(
        vars=(i,),
        ranges=[(1, n - 2)],
        on=Owner(v, (i,)),
        body=[Assign(v[i], u[i - 1] + u[i + 1])],
        grid=g,
    )
    return loop, u, v


def _trace_fingerprint(trace):
    """Everything observable about a trace, for bit-identity checks."""
    return (
        [(c.proc, c.start, c.end, c.label) for c in trace.computes],
        [
            (m.src, m.dst, m.tag, m.nbytes, m.hops, m.t_send, m.t_arrive)
            for m in trace.messages
        ],
        [(m.proc, m.time, m.label, m.payload) for m in trace.marks],
        dict(trace.finish_times),
    )


# ----------------------------------------------------------------------
# Isolation
# ----------------------------------------------------------------------


def test_two_sessions_never_share_schedules():
    """Caches warmed in one Session are invisible to another."""
    p = 2
    g = ProcessorGrid((p,))
    loop, u, v = _stencil_loop(g)

    def prog(ctx):
        yield from ctx.doall(loop)

    s1 = Session(Machine(n_procs=p), g)
    s2 = Session(Machine(n_procs=p), g)
    t1a = s1.run(prog)
    t1b = s1.run(prog)
    # second run in s1 replays: no build events at all
    assert "build" not in t1b.schedule_counts()
    assert s1.plans.kind_stats()["doall"]["misses"] == 1
    # a different Session starts cold: it must compile its own plan
    assert len(s2.plans) == 0 and s2.stats()["schedules"]["hits"] == 0
    t2 = s2.run(prog)
    assert t2.schedule_counts()["build"] >= 1
    assert s2.plans.kind_stats()["doall"]["misses"] == 1
    # and the two sessions' caches hold separate entries
    assert s1.plans is not s2.plans and s1.cache is not s2.cache
    assert _trace_fingerprint(t1a) == _trace_fingerprint(t2)


def test_two_sessions_cached_gather_isolated():
    p = 2
    g = ProcessorGrid((p,))
    A = DistArray((8,), g, dist=("block",), name="A")
    A.from_global(np.arange(8.0))
    idx = {0: np.array([[7]]), 1: np.array([[0]])}

    def prog(ctx):
        yield from ctx.cached_gather(g, A, idx[ctx.rank])

    s1 = Session(Machine(n_procs=p), g)
    s2 = Session(Machine(n_procs=p), g)
    s1.run(prog)
    s1.run(prog)
    assert s1.cache.by_direction["gather"] == {"hits": p, "misses": p}
    # the second session sees none of s1's schedules
    s2.run(prog)
    assert s2.cache.by_direction["gather"] == {"hits": 0, "misses": p}
    assert len(s1.cache) == p and len(s2.cache) == p


# ----------------------------------------------------------------------
# Program replay (acceptance criteria)
# ----------------------------------------------------------------------


def test_program_run_twice_replays_with_bit_identical_results():
    """Two runs of one Program: the second is pure replay (gather hit
    rate > 0, zero compiles) and bit-identical; a fresh Session starts
    at zero hits."""
    n, p, iters = 33, 2, 5
    rng = np.random.default_rng(3)
    f = 1e-3 * rng.standard_normal((n, n))

    session = Session(Machine(n_procs=p * p))
    assert session.stats()["schedules"]["hits"] == 0  # fresh: zero hits
    assert session.plans.stats()["hits"] == 0

    grid = ProcessorGrid((p, p))
    X = DistArray((n, n), grid, dist=("block", "block"), name="X")
    F = DistArray((n, n), grid, dist=("block", "block"), name="F")
    loop = build_jacobi_loop(X, F, n - 1, grid)
    program = session.compile(loop)

    t1 = program.run(F=f, X=np.zeros((n, n)), iters=iters)
    x1 = X.to_global().copy()
    t2 = program.run(X=np.zeros((n, n)), iters=iters)
    x2 = X.to_global().copy()

    assert t2.schedule_hit_rate("gather") > 0
    assert "build" not in t2.schedule_counts()
    # pure-doall programs report their replay ratio in hit_rates too
    assert program.stats()["hit_rates"]["doall"] > 0.9
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_allclose(x1, jacobi_reference(f, iters), rtol=1e-12)

    # a fresh Session compiling the same source starts cold again
    fresh = Session(Machine(n_procs=p * p))
    assert fresh.stats()["schedules"]["hits"] == 0
    assert fresh.plans.stats() == {"entries": 0, "hits": 0, "misses": 0}


def test_stats_count_schedules_frozen_in_doall_plans():
    """A compiled stencil's gather schedules are frozen inside its
    cached doall analysis (the PlanCache), not the ScheduleCache;
    ``stats()["schedules"]["entries"]`` counts them all the same."""
    p = 2
    g = ProcessorGrid((p,))
    loop, u, v = _stencil_loop(g)
    session = Session(Machine(n_procs=p), g)
    session.compile(loop).run(iters=2)
    assert len(session.cache) == 0
    # one frozen gather schedule for u per rank
    assert session.stats()["schedules"]["entries"] == p
    session.clear()
    assert session.stats()["schedules"]["entries"] == 0


def test_kf1_source_compiles_and_runs():
    src = """
processors procs(2)
real a(0:9) dist (block)
real b(0:9) dist (block)
doall (i) = [1, 8] on owner(b(i))
  b(i) = 2*a(i-1) + a(i+1)
end doall
"""
    prog = repro.compile(src, machine=Machine(n_procs=2))
    a = np.arange(10.0)
    prog.run(a=a)
    expect = 2 * a[0:8] + a[2:10]
    np.testing.assert_array_equal(prog.arrays["b"].to_global()[1:9], expect)
    # the parsed KF1Program object compiles too
    parsed = repro.parse_program(src)
    prog2 = parsed.compile(machine=Machine(n_procs=2))
    prog2.run(a=a)
    np.testing.assert_array_equal(
        prog2.arrays["b"].to_global(), prog.arrays["b"].to_global()
    )


def test_program_estimate_schedules_stats_explain():
    n, p = 17, 2
    g = ProcessorGrid((p,))
    loop, u, v = _stencil_loop(g, n=n)
    session = Session(Machine(n_procs=p), g)
    program = session.compile(loop)

    # estimate wraps predicted_time; overlapped never exceeds serialized
    est = program.estimate()
    assert est > 0
    assert program.estimate(overlap=True) <= est
    # frozen schedules are visible before any run
    scheds = program.schedules()
    assert len(scheds["gather"]) == p and scheds["scatter"] == []
    assert all(s.direction == "gather" for s in scheds["gather"])
    # explain names the loop and the per-rank wire volumes
    text = program.explain()
    assert "doall[i]" in text and "rank 0" in text
    # stats reflect the session's accounting
    program.run()
    st = program.stats()
    assert st["runs"] == 1
    assert st["plans"]["doall"]["misses"] == 1


def test_program_parsub_and_errors():
    p = 2
    g = ProcessorGrid((p,))
    seen = []

    def routine(ctx, tag):
        seen.append((ctx.rank, tag))
        yield from ()

    prog = repro.compile(routine, machine=Machine(n_procs=p), grid=g)
    prog.run("hello")
    assert sorted(seen) == [(0, "hello"), (1, "hello")]
    with pytest.raises(ValidationError, match="compiled loops"):
        prog.explain()
    with pytest.raises(ValidationError, match="compiled loops"):
        prog.schedules()

    loop, u, v = _stencil_loop(g)
    lprog = repro.compile(loop, machine=Machine(n_procs=p))
    with pytest.raises(ValidationError, match="unknown binding"):
        lprog.run(nosuch=np.zeros(12))
    with pytest.raises(ValidationError, match="positional"):
        lprog.run(1)
    with pytest.raises(ValidationError, match="cannot compile"):
        repro.compile(42)


def test_program_guard_rails():
    """Conflicting machines, duplicate array names, and parsub overlap
    are loud errors, not silent surprises."""
    p = 2
    g = ProcessorGrid((p,))
    loop, u, v = _stencil_loop(g)
    session = Session(Machine(n_procs=p), g)
    with pytest.raises(ValidationError, match="pass machine to the Session"):
        repro.compile(loop, session=session, machine=Machine(n_procs=p))
    with pytest.raises(ValidationError, match="grid mismatch"):
        repro.compile(loop, session=session, grid=ProcessorGrid((1,)))

    # two distinct arrays under one name compile and run fine, but the
    # shared name cannot be bound (which array would it mean?)
    loop2, _, _ = _stencil_loop(g)  # same names, different arrays
    prog2 = session.compile([loop, loop2])
    assert prog2.ambiguous_names == {"u", "v"}
    prog2.run()  # positional-free run needs no names
    with pytest.raises(ValidationError, match="ambiguous"):
        prog2.run(u=np.zeros(12))

    def routine(ctx):
        yield from ()

    prog = repro.compile(routine, machine=Machine(n_procs=p), grid=g)
    with pytest.raises(ValidationError, match="overlap applies to loop"):
        prog.run(overlap=True)


def test_history_bounded_but_runs_counted():
    p = 2
    g = ProcessorGrid((p,))
    s = Session(Machine(n_procs=p), g, max_history=3)

    def prog(ctx):
        yield from ()

    for _ in range(5):
        s.run(prog)
    assert len(s.history) == 3
    assert s.runs == 5 and s.stats()["runs"] == 5


def test_run_spmd_shim_forwards_routine_args_verbatim():
    """The legacy signature passes positional and keyword args straight
    to the routine (the shim must not let Session.run capture them)."""
    g = ProcessorGrid((2,))
    seen = []

    def routine(ctx, scale, offset=0):
        seen.append((ctx.rank, scale, offset))
        yield from ()

    with pytest.warns(ReproDeprecationWarning):
        run_spmd(Machine(n_procs=2), g, routine, 2, offset=7)
    assert seen == [(0, 2, 7), (1, 2, 7)]


def test_adi_line_plans_visible_in_session_stats():
    """The ADI line-solver plans ride in the session's PlanCache."""
    from repro.tensor.adi import adi_solve

    n, p = 16, 2
    rng = np.random.default_rng(5)
    f = 1e-3 * rng.standard_normal((n + 1, n + 1))
    session = Session()
    adi_solve(
        Machine(n_procs=p * p), ProcessorGrid((p, p)), f, iters=3,
        session=session,
    )
    kinds = session.plans.kind_stats()
    assert "adi-line" in kinds and "doall" in kinds
    # one line plan per (axis, rank) compiled, then replayed every sweep
    assert kinds["adi-line"]["misses"] == 2 * p * p
    assert kinds["adi-line"]["hits"] == 2 * p * p * 2  # iters-1 replays


# ----------------------------------------------------------------------
# Shim fidelity
# ----------------------------------------------------------------------


def _jacobi_session_trace(n, p, iters, f):
    grid = ProcessorGrid((p, p))
    X = DistArray((n, n), grid, dist=("block", "block"), name="X")
    F = DistArray((n, n), grid, dist=("block", "block"), name="F")
    F.from_global(f)
    loop = build_jacobi_loop(X, F, n - 1, grid)

    def prog(ctx):
        for _ in range(iters):
            yield from ctx.doall(loop)

    trace = Session(Machine(n_procs=p * p), grid).run(prog)
    return X.to_global(), trace


def test_run_spmd_shim_bit_identical_to_session_path():
    """The deprecated launcher must match the Session path exactly:
    same trace events, same schedule hit rates, same results."""
    n, p, iters = 17, 2, 3
    rng = np.random.default_rng(11)
    f = 1e-3 * rng.standard_normal((n, n))

    x_new, t_new = _jacobi_session_trace(n, p, iters, f)

    clear_plan_cache()
    clear_schedule_cache()
    grid = ProcessorGrid((p, p))
    X = DistArray((n, n), grid, dist=("block", "block"), name="X")
    F = DistArray((n, n), grid, dist=("block", "block"), name="F")
    F.from_global(f)
    loop = build_jacobi_loop(X, F, n - 1, grid)

    def prog(ctx):
        for _ in range(iters):
            yield from ctx.doall(loop)

    with pytest.warns(ReproDeprecationWarning):
        t_old = run_spmd(Machine(n_procs=p * p), grid, prog)
    clear_plan_cache()

    np.testing.assert_array_equal(X.to_global(), x_new)
    assert _trace_fingerprint(t_old) == _trace_fingerprint(t_new)
    assert t_old.schedule_hit_rate("gather") == t_new.schedule_hit_rate("gather")
    assert t_old.schedule_counts() == t_new.schedule_counts()


def test_sessionless_ctx_doall_shim_bit_identical():
    """Hand-wired KaliCtx programs (no Session) still execute through
    the default caches, warn, and match the Session path exactly."""
    n, p, iters = 17, 2, 2
    rng = np.random.default_rng(13)
    f = 1e-3 * rng.standard_normal((n, n))

    x_new, t_new = _jacobi_session_trace(n, p, iters, f)

    clear_plan_cache()
    clear_schedule_cache()
    grid = ProcessorGrid((p, p))
    X = DistArray((n, n), grid, dist=("block", "block"), name="X")
    F = DistArray((n, n), grid, dist=("block", "block"), name="F")
    F.from_global(f)
    loop = build_jacobi_loop(X, F, n - 1, grid)

    def prog(ctx):
        for _ in range(iters):
            yield from ctx.doall(loop)

    machine = Machine(n_procs=p * p)
    programs = {r: prog(KaliCtx(r, grid, run_id=None)) for r in grid.linear}
    with pytest.warns(ReproDeprecationWarning):
        t_old = machine.run(programs)
    clear_plan_cache()

    np.testing.assert_array_equal(X.to_global(), x_new)
    assert _trace_fingerprint(t_old) == _trace_fingerprint(t_new)


# ----------------------------------------------------------------------
# Cache-key identity: uid, never id()
# ----------------------------------------------------------------------


def test_plan_keys_survive_id_reuse():
    """CPython reuses object addresses after GC: a freed array's plan
    key must never alias a live one's.  Regression for keying Owner/Ref
    on id(array): allocate a batch of arrays, record their Owner keys by
    address, free them, allocate a fresh batch -- some land on recycled
    addresses -- and check that no freed array's key matches a live
    one's (under id() keys they collide exactly)."""
    g = ProcessorGrid((2,))
    (i,) = loopvars("i")

    def batch(n):
        return [DistArray((8,), g, dist=("block",), name="u") for _ in range(n)]

    # collect earlier tests' cyclic garbage first: freed by the collect
    # below, it would take the freed arrays' addresses before they can
    # be recycled
    gc.collect()
    old = batch(100)
    old_keys = {id(a): Owner(a, (i,)).key() for a in old}
    del old
    gc.collect()

    reused = 0
    for a in batch(300):
        stale_key = old_keys.get(id(a))
        if stale_key is None:
            continue
        reused += 1
        assert Owner(a, (i,)).key() != stale_key, (
            "id() reuse aliased a freed array's plan key with a live one's"
        )
        assert a[i].key() != ("ref",) + stale_key[1:]
    if reused == 0:
        pytest.skip("allocator never recycled an address; nothing to check")


def test_owner_and_ref_keys_use_uid():
    g = ProcessorGrid((2,))
    A = DistArray((8,), g, dist=("block",), name="A")
    (i,) = loopvars("i")
    assert A.uid in Owner(A, (i,)).key()
    assert A.uid in A[i].key()
    assert id(A) not in Owner(A, (i,)).key()

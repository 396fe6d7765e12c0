"""The compiled replay fast path: StepPlan equivalence and lifecycle.

``Program.run`` and ``ctx.doall`` replay frozen per-rank StepPlans;
``interpret_doall`` is the interpreted reference executor.  Everything
observable -- array results, message streams, marks, compute charges,
cache accounting -- must be bit-identical between the two.  These tests
pin that, plus the plan-lifecycle guarantees (stale plans dropped on
redistribution) and the snapshot-elision and cheap-marks machinery that
ride along.
"""

from functools import partial

import numpy as np
import pytest

import repro
from repro import Machine, ProcessorGrid, Session
from repro.compiler.commgen import StepPlan, freeze_positions
from repro.compiler.commsched import freeze_payload
from repro.compiler.schedule import (
    _eval_expr,
    drop_plans_for_array,
    interpret_doall,
)
from repro.lang import Assign, DistArray, Doall, Owner, loopvars
from repro.lang.expr import compile_expr
from repro.machine.ops import Recv, Send
from repro.machine.simulator import _snapshot


def trace_sig(trace):
    """Everything two equivalent executions must agree on, bit for bit."""
    return (
        [(m.src, m.dst, m.tag, m.nbytes, m.t_send, m.t_arrive, m.t_recv)
         for m in trace.messages],
        [(m.proc, m.label, m.payload) for m in trace.marks],
        [(c.proc, c.start, c.end, c.label) for c in trace.computes],
        dict(trace.finish_times),
    )


def stencil_program(n, p, dist=("block", "block"), backend=None):
    grid = ProcessorGrid((p, p))
    X = DistArray((n, n), grid, dist=dist, name="X")
    F = DistArray((n, n), grid, dist=dist, name="F")
    F.from_global(np.random.default_rng(5).standard_normal((n, n)))
    i, j = loopvars("i j")
    body = [Assign(
        X[i, j],
        0.25 * (X[i + 1, j] + X[i - 1, j] + X[i, j + 1] + X[i, j - 1]) - F[i, j],
    )]
    loop = Doall(vars=(i, j), ranges=[(1, n - 2), (1, n - 2)],
                 on=Owner(X, (i, j)), body=body, grid=grid)
    sess = Session(Machine(n_procs=p * p), grid, backend=backend)
    return repro.compile(loop, session=sess), X


def run_interpreted(prog, iters=1, overlap=False):
    """``prog.run(iters=, overlap=)`` through the interpreted reference
    executor: a parsub routine probing and interpreting every loop."""
    def routine(ctx):
        for _ in range(iters):
            for loop in prog.loops:
                yield from interpret_doall(ctx, loop, overlap=overlap)
    return prog.session.run(routine, grid=prog.grid)


def close_backend(prog):
    """Release a session's multiprocessing worker pool, if it spawned one."""
    if prog.session._mp_backend is not None:
        prog.session._mp_backend.close()


# The bit-identity contract holds across *executors* (compiled vs
# interpreted) and across *backends* (event-driven simulator vs real
# shared-memory worker processes): every parametrized case below is
# compared against the interpreted simulator reference.
BACKENDS = [None, "multiprocessing"]


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("backend", BACKENDS)
def test_stencil_bit_identical(overlap, backend):
    pa, Xa = stencil_program(20, 2, backend=backend)
    pb, Xb = stencil_program(20, 2)
    ta = pa.run(iters=4, overlap=overlap)
    tb = run_interpreted(pb, iters=4, overlap=overlap)
    close_backend(pa)
    np.testing.assert_array_equal(Xa.to_global(), Xb.to_global())
    assert trace_sig(ta) == trace_sig(tb)


@pytest.mark.parametrize("backend", BACKENDS)
def test_remote_write_bit_identical(backend):
    """Mismatched layouts force scatter schedules; every executor and
    backend must agree with the interpreted simulator reference."""
    def run(compiled, backend=None):
        g = ProcessorGrid((4,))
        A = DistArray((17,), g, dist=("block",), name="A")
        B = DistArray((17,), g, dist=("cyclic",), name="B")
        A.from_global(np.arange(17.0))
        (i,) = loopvars("i")
        loop = Doall(vars=(i,), ranges=[(1, 15)], on=Owner(A, (i,)),
                     body=[Assign(B[i], A[i - 1] + 2.0 * A[i + 1])], grid=g)
        sess = Session(Machine(n_procs=4), g, backend=backend)
        prog = repro.compile(loop, session=sess)
        trace = prog.run(iters=3) if compiled else run_interpreted(prog, 3)
        close_backend(prog)
        return B.to_global(), trace

    xa, ta = run(True, backend)
    xb, tb = run(False)
    np.testing.assert_array_equal(xa, xb)
    assert trace_sig(ta) == trace_sig(tb)


def test_diagonal_flat_store_bit_identical():
    """A[i, i] is not box-decomposable: the frozen flat-store path."""
    def run(compiled):
        g = ProcessorGrid((2,))
        A = DistArray((9, 9), g, dist=("block", "*"), name="A")
        B = DistArray((9, 9), g, dist=("block", "*"), name="B")
        B.from_global(np.random.default_rng(1).standard_normal((9, 9)))
        (i,) = loopvars("i")
        loop = Doall(vars=(i,), ranges=[(0, 8)], on=Owner(A, (i, 0)),
                     body=[Assign(A[i, i], B[i, i] * 3.0 - 1.0)], grid=g)
        sess = Session(Machine(n_procs=2), g)
        prog = repro.compile(loop, session=sess)
        trace = prog.run(iters=2) if compiled else run_interpreted(prog, 2)
        return A.to_global(), trace

    xa, ta = run(True)
    xb, tb = run(False)
    np.testing.assert_array_equal(xa, xb)
    assert trace_sig(ta) == trace_sig(tb)


def test_strided_ranges_bit_identical():
    """Stride-2 loops (zebra sweeps) defeat the slice fast path cleanly."""
    def run(compiled):
        g = ProcessorGrid((2,))
        u = DistArray((16,), g, dist=("cyclic",), name="u")
        v = DistArray((16,), g, dist=("cyclic",), name="v")
        u.from_global(np.arange(16.0))
        (i,) = loopvars("i")
        loop = Doall(vars=(i,), ranges=[(1, 14, 2)], on=Owner(v, (i,)),
                     body=[Assign(v[i], u[i - 1] + u[i + 1])], grid=g)
        sess = Session(Machine(n_procs=2), g)
        prog = repro.compile(loop, session=sess)
        trace = prog.run(iters=3) if compiled else run_interpreted(prog, 3)
        return v.to_global(), trace

    xa, ta = run(True)
    xb, tb = run(False)
    np.testing.assert_array_equal(xa, xb)
    assert trace_sig(ta) == trace_sig(tb)


def test_plan_accounting_identical():
    """Fast-path as-if hits keep PlanCache stats equal to per-sweep probes."""
    pa, _ = stencil_program(16, 2)
    pb, _ = stencil_program(16, 2)
    pa.run(iters=5)
    run_interpreted(pb, iters=5)
    assert (pa.session.plans.kind_stats()["doall"]
            == pb.session.plans.kind_stats()["doall"])
    pa.run(iters=3)
    run_interpreted(pb, iters=3)
    assert (pa.session.plans.kind_stats()["doall"]
            == pb.session.plans.kind_stats()["doall"])
    assert pa.session.hit_rates()["doall"] == pb.session.hit_rates()["doall"]


# ----------------------------------------------------------------------
# Plan lifecycle: redistribution must retire compiled closures
# ----------------------------------------------------------------------


def test_step_plans_dropped_with_analysis():
    prog, X = stencil_program(16, 2)
    prog.run(iters=2)
    plans = prog.session.plans
    (entry,) = [v for (kind, _), (v, _) in plans._entries.items() if kind == "doall"]
    assert entry.step_plans, "compiled run must have built step plans"
    assert drop_plans_for_array(X) >= 1
    assert not [k for k in plans._entries if k[0] == "doall"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_redistribute_between_runs_regression(backend):
    """Layout flips between runs: the compiled path must rebuild, never
    write through a closure captured against the old blocks -- and the
    multiprocessing backend must respawn its worker pool (epoch-keyed),
    never sweep against stale shared-memory adoptions."""
    def run(compiled, backend=None):
        g = ProcessorGrid((2,))
        u = DistArray((13,), g, dist=("block",), name="u")
        v = DistArray((13,), g, dist=("block",), name="v")
        u.from_global(np.arange(13.0))
        (i,) = loopvars("i")
        loop = Doall(vars=(i,), ranges=[(1, 11)], on=Owner(v, (i,)),
                     body=[Assign(v[i], 0.5 * (u[i - 1] + u[i + 1]))], grid=g)
        sess = Session(Machine(n_procs=2), g, backend=backend)
        prog = repro.compile(loop, session=sess)
        out = []
        for spec in [None, ("cyclic",), ("block",)]:
            if spec is not None:
                u.redistribute(spec)
                v.redistribute(spec)
            if compiled:
                prog.run(iters=2)
            else:
                run_interpreted(prog, iters=2)
            out.append(v.to_global().copy())
        close_backend(prog)
        return out

    for a, b in zip(run(True, backend), run(False)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("backend", BACKENDS)
def test_redistribute_mid_run_bit_identical(backend):
    """Parsub programs (opaque generators, mid-run repartitions) run on
    the backend's inner reference machine; the trace must not care."""
    def run(compiled, backend=None):
        g = ProcessorGrid((2,))
        u = DistArray((12,), g, dist=("block",), name="u")
        v = DistArray((12,), g, dist=("block",), name="v")
        u.from_global(np.arange(12.0))
        (i,) = loopvars("i")
        loop = Doall(vars=(i,), ranges=[(1, 10)], on=Owner(v, (i,)),
                     body=[Assign(v[i], 0.5 * (u[i - 1] + u[i + 1]))], grid=g)
        sess = Session(Machine(n_procs=2), g, backend=backend)

        def program(ctx):
            doall = ctx.doall if compiled else partial(interpret_doall, ctx)
            yield from doall(loop)
            yield from ctx.redistribute(u, ("cyclic",))
            yield from doall(loop)
            yield from ctx.redistribute(u, ("block",))
            yield from doall(loop)

        trace = sess.run(program)
        if sess._mp_backend is not None:
            sess._mp_backend.close()
        return v.to_global(), trace

    xa, ta = run(True, backend)
    xb, tb = run(False)
    np.testing.assert_array_equal(xa, xb)
    assert trace_sig(ta) == trace_sig(tb)


def test_stale_section_still_fails_loudly_when_compiled():
    """Redistributing a base must not let a compiled plan silently reuse
    a stale Section; the Section freshness check still fires."""
    from repro.util.errors import ValidationError

    g = ProcessorGrid((2,))
    A = DistArray((8, 4), g, dist=("block", "*"), name="A")
    B = DistArray((8,), g, dist=("block",), name="B")
    sect = A[:, 1]
    (i,) = loopvars("i")
    loop = Doall(vars=(i,), ranges=[(1, 6)], on=Owner(B, (i,)),
                 body=[Assign(B[i], sect[i] + 1.0)], grid=g)
    sess = Session(Machine(n_procs=2), g)
    prog = repro.compile(loop, session=sess)
    prog.run()
    A.redistribute(("cyclic", "*"))
    with pytest.raises(ValidationError, match="stale section"):
        prog.run()


# ----------------------------------------------------------------------
# Snapshot elision
# ----------------------------------------------------------------------


def test_copy_in_semantics_survive_snapshot_elision():
    """The sender overwrites X in phase 4 of the same sweep its ghosts
    were sent; receivers must still observe the pre-sweep values."""
    pa, Xa = stencil_program(12, 2)
    pb, Xb = stencil_program(12, 2)
    pa.run(iters=6)
    run_interpreted(pb, iters=6)
    np.testing.assert_array_equal(Xa.to_global(), Xb.to_global())


def test_snapshot_skips_frozen_copies_mutable():
    frozen = freeze_payload(np.arange(4.0))
    assert _snapshot(frozen) is frozen
    live = np.arange(4.0)
    copy = _snapshot(live)
    assert copy is not live
    copy_view = _snapshot(live[1:])
    assert copy_view.base is not live


def test_freeze_payload_copies_views():
    base = np.arange(10.0)
    view = base[2:6]
    frozen = freeze_payload(view)
    assert not frozen.flags.writeable
    base[:] = -1.0  # later mutation must not reach the frozen payload
    np.testing.assert_array_equal(frozen, [2.0, 3.0, 4.0, 5.0])


def test_snapshot_copies_readonly_views_of_live_memory():
    """A read-only *view* (broadcast_to of a mutable buffer) is not
    by-value: the sender can still mutate it through the base, so the
    simulator must copy it -- only owning frozen arrays skip."""
    base = np.zeros(4)
    view = np.broadcast_to(base, (4,))
    assert not view.flags.writeable  # the trap: read-only but aliased
    snap = _snapshot(view)
    base[:] = 9.0
    np.testing.assert_array_equal(snap, np.zeros(4))

    def sender():
        x = np.zeros(4)
        yield Send(1, np.broadcast_to(x, (4,)), tag="t")
        x[:] = 9.0

    def receiver():
        got = yield Recv(src=0, tag="t")
        np.testing.assert_array_equal(got, np.zeros(4))

    Machine(n_procs=2).run({0: sender(), 1: receiver()})


def test_adhoc_send_still_deep_copied():
    """Hand-written node programs sending live buffers keep by-value
    semantics: the simulator still snapshots writeable payloads."""
    buf = np.zeros(3)

    def sender(ctx_rank=0):
        yield Send(1, buf, tag="t")
        buf[:] = 9.0

    def receiver():
        got = yield Recv(src=0, tag="t")
        assert got.sum() == 0.0, "receiver saw the sender's later mutation"

    Machine(n_procs=2).run({0: sender(), 1: receiver()})


# ----------------------------------------------------------------------
# compile_expr / freeze_positions units
# ----------------------------------------------------------------------


def test_compile_expr_matches_interpreter():
    g = ProcessorGrid((1,))
    A = DistArray((6,), g, dist=("block",), name="A")
    (i,) = loopvars("i")
    expr = (2.0 * A[i] - A[i + 1]) / (A[i - 1] + 3.0) + (-A[i])
    vals = {0: np.array([1.0, 2.0]), 1: np.array([4.0, 5.0]),
            2: np.array([7.0, 8.0])}

    offs = {}
    for ref in expr.refs():
        offs[id(ref)] = int(ref.idx[0].const)

    fn = compile_expr(expr, resolve=lambda ref: lambda: vals[offs[id(ref)] + 1])

    class FakeWs:
        def fetch(self, idx):
            return vals[int(np.asarray(idx[0]).reshape(-1)[0])]

    class FakeIters:
        def env(self):
            return {"i": np.array([1])}

    ref_result = _eval_expr(expr, {id(A): FakeWs()}, FakeIters())
    np.testing.assert_array_equal(np.asarray(fn()), np.asarray(ref_result))


def test_freeze_positions_contiguous_box():
    pos = (np.arange(3).reshape(3, 1), np.arange(2, 6).reshape(1, 4))
    assert freeze_positions(pos) == (slice(0, 3), slice(2, 6))
    buf = np.arange(50.0).reshape(5, 10)
    np.testing.assert_array_equal(buf[freeze_positions(pos)], buf[pos])


def test_freeze_positions_rejects_non_boxes():
    # strided run
    assert freeze_positions((np.array([0, 2, 4]),)) is None
    # diagonal: both entries vary along axis 0
    diag = (np.arange(3).reshape(3, 1), np.arange(3).reshape(3, 1))
    assert freeze_positions(diag) is None
    # shape infidelity: slice form would add a dimension
    assert freeze_positions((np.arange(3), np.asarray(2))) is None
    # empty
    assert freeze_positions((np.empty((0,), dtype=np.int64),)) is None


def test_step_plan_is_memoized_per_rank():
    prog, _ = stencil_program(12, 2)
    prog.run()
    plans = prog.session.plans
    (analysis,) = [v for (kind, _), (v, _) in plans._entries.items()
                   if kind == "doall"]
    assert analysis.step_plan(0) is analysis.step_plan(0)
    assert isinstance(analysis.step_plan(1), StepPlan)
    assert set(analysis.step_plans) == {0, 1, 2, 3}


# ----------------------------------------------------------------------
# Cheap-marks mode
# ----------------------------------------------------------------------


def test_cheap_marks_counts_match_full():
    pa, _ = stencil_program(14, 2)
    full = pa.run(iters=4)
    cheap = pa.run(iters=4, marks="cheap")
    assert cheap.level == "cheap"
    assert full.level == "full"
    # no per-op schedule marks were materialized...
    assert cheap.schedule_events() == []
    assert cheap.mark_counts
    # ...but every count, rate, and wire number is unchanged
    assert cheap.schedule_counts() == full.schedule_counts()
    assert cheap.schedule_counts("gather") == full.schedule_counts("gather")
    assert cheap.schedule_directions() == full.schedule_directions()
    assert cheap.schedule_hit_rate() == full.schedule_hit_rate()
    assert cheap.message_count() == full.message_count()
    assert cheap.total_bytes() == full.total_bytes()


def test_cheap_marks_for_gather_and_repartition():
    g = ProcessorGrid((2,))
    A = DistArray((10,), g, dist=("block",), name="A")
    A.from_global(np.arange(10.0))
    idx = np.array([[1], [8], [3]])

    def program(ctx):
        yield from ctx.cached_gather(g, A, idx)
        yield from ctx.cached_gather(g, A, idx)
        yield from ctx.redistribute(A, ("cyclic",))

    full_t = Session(Machine(n_procs=2), g).run(program)
    A2 = DistArray((10,), g, dist=("block",), name="A")
    A2.from_global(np.arange(10.0))

    def program2(ctx):
        yield from ctx.cached_gather(g, A2, idx)
        yield from ctx.cached_gather(g, A2, idx)
        yield from ctx.redistribute(A2, ("cyclic",))

    cheap_t = Session(Machine(n_procs=2), g, marks="cheap").run(program2)
    assert cheap_t.level == "cheap"
    assert cheap_t.schedule_counts("gather") == full_t.schedule_counts("gather")
    assert (cheap_t.schedule_counts("repartition")
            == full_t.schedule_counts("repartition"))
    assert cheap_t.schedule_hit_rate("gather") == full_t.schedule_hit_rate("gather")
    assert cheap_t.message_count() == full_t.message_count()


def test_marks_validation():
    from repro.util.errors import ValidationError

    with pytest.raises(ValidationError, match="marks"):
        Session(marks="nope")
    g = ProcessorGrid((1,))
    from repro.lang.context import KaliCtx

    with pytest.raises(ValidationError, match="marks"):
        KaliCtx(0, g, session=Session(), marks="loud")

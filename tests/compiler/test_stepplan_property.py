"""Property test: the compiled replay fast path is bit-identical to the
interpreted executor across distributions, stencil shapes, overlap
modes, and mid-run redistribution.

For every drawn case the same program runs once through the compiled
replay (frozen StepPlans) and once through ``interpret_doall`` (the
interpreted reference).  Results, the full message stream (sources, destinations,
tags, byte counts, timings), marks, compute charges, and the schedule /
plan hit accounting must agree exactly -- not approximately.
"""

from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import Machine, ProcessorGrid, Session
from repro.compiler.schedule import interpret_doall
from repro.lang import Assign, BlockCyclic, DistArray, Doall, Owner, loopvars


def _dist_of(kind: str):
    if kind.startswith("blockcyclic"):
        return BlockCyclic(int(kind.rsplit("-", 1)[1]))
    return kind


def trace_sig(trace):
    return (
        [(m.src, m.dst, m.tag, m.nbytes, m.t_send, m.t_arrive, m.t_recv)
         for m in trace.messages],
        [(m.proc, m.label, m.payload) for m in trace.marks],
        [(c.proc, c.start, c.end, c.label) for c in trace.computes],
    )


@st.composite
def stencil_cases(draw):
    p = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=max(8, 2 * p), max_value=24))
    kind = draw(st.sampled_from(["block", "cyclic", "blockcyclic-2"]))
    write_kind = draw(st.sampled_from(["same", "block", "cyclic"]))
    off_l = draw(st.integers(min_value=1, max_value=2))
    off_r = draw(st.integers(min_value=1, max_value=2))
    overlap = draw(st.booleans())
    iters = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return p, n, kind, write_kind, off_l, off_r, overlap, iters, seed


@given(stencil_cases())
@settings(max_examples=25, deadline=None)
def test_compiled_equals_interpreted(case):
    p, n, kind, write_kind, off_l, off_r, overlap, iters, seed = case
    values = np.random.default_rng(seed).standard_normal(n)
    wkind = kind if write_kind == "same" else write_kind

    def run(compiled):
        g = ProcessorGrid((p,))
        u = DistArray((n,), g, dist=(_dist_of(kind),), name="u")
        v = DistArray((n,), g, dist=(_dist_of(wkind),), name="v")
        u.from_global(values)
        (i,) = loopvars("i")
        loop = Doall(
            vars=(i,),
            ranges=[(off_l, n - 1 - off_r)],
            on=Owner(u, (i,)),
            body=[Assign(v[i], 2.0 * u[i - off_l] - u[i + off_r] + 0.5)],
            grid=g,
        )
        sess = Session(Machine(n_procs=p), g)
        prog = repro.compile(loop, session=sess)
        if compiled:
            trace = prog.run(iters=iters, overlap=overlap)
        else:
            def routine(ctx):
                for _ in range(iters):
                    yield from interpret_doall(ctx, loop, overlap=overlap)
            trace = sess.run(routine)
        return v.to_global(), trace, prog.session

    xa, ta, sa = run(True)
    xb, tb, sb = run(False)
    np.testing.assert_array_equal(xa, xb)
    assert trace_sig(ta) == trace_sig(tb)
    # cache accounting (plan hits, schedule hit rates) must agree too
    assert sa.plans.kind_stats() == sb.plans.kind_stats()
    assert ta.schedule_hit_rate() == tb.schedule_hit_rate()
    assert ta.schedule_directions() == tb.schedule_directions()


@st.composite
def redistribution_cases(draw):
    p = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=2 * p + 4, max_value=20))
    kinds = draw(
        st.lists(st.sampled_from(["block", "cyclic", "blockcyclic-2"]),
                 min_size=2, max_size=3, unique=True)
    )
    sweeps = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return p, n, kinds, sweeps, seed


@given(redistribution_cases())
@settings(max_examples=15, deadline=None)
def test_equivalence_across_mid_run_redistribution(case):
    """Layout flips mid-run orphan the plans; both executors rebuild to
    the same answers, messages, and marks."""
    p, n, kinds, sweeps, seed = case
    values = np.random.default_rng(seed).standard_normal(n)

    def run(compiled):
        g = ProcessorGrid((p,))
        u = DistArray((n,), g, dist=(_dist_of(kinds[0]),), name="u")
        v = DistArray((n,), g, dist=(_dist_of(kinds[0]),), name="v")
        u.from_global(values)
        (i,) = loopvars("i")
        loop = Doall(
            vars=(i,),
            ranges=[(1, n - 2)],
            on=Owner(u, (i,)),
            body=[Assign(v[i], 0.5 * (u[i - 1] + u[i + 1]))],
            grid=g,
        )
        sess = Session(Machine(n_procs=p), g)

        def program(ctx):
            doall = ctx.doall if compiled else partial(interpret_doall, ctx)
            for kind in kinds[1:] + kinds[:1]:
                for _ in range(sweeps):
                    yield from doall(loop)
                yield from ctx.redistribute(u, (_dist_of(kind),))

        trace = sess.run(program)
        return u.to_global(), v.to_global(), trace

    ua, va, ta = run(True)
    ub, vb, tb = run(False)
    np.testing.assert_array_equal(ua, ub)
    np.testing.assert_array_equal(va, vb)
    assert trace_sig(ta) == trace_sig(tb)

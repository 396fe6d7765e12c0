"""Batched ensemble execution (``Program.run_batch``).

The contract under test: running one compiled Program over B parameter
bindings as a single batched sweep is **bit-identical** to running it B
times, one binding at a time, from the same starting state -- while
replaying the frozen schedules once per sweep (same wire message count
as a single run, payload slots widened by the batch factor).
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import Machine, ProcessorGrid, Session
from repro.lang import Assign, BlockCyclic, DistArray, Doall, Owner, loopvars
from repro.session import BatchResult, run_batch
from repro.util.errors import ValidationError

SRC = """
processors procs({p})
real x(0:{m}) dist ({dist})
real y(0:{m}) dist (block)
doall (i) = [1, {hi}] on owner(y(i))
  y(i) = x(i-1) + 2.0*x(i+1)
end doall
"""


def _prog(p=2, n=8, dist="block"):
    src = SRC.format(p=p, m=n - 1, hi=n - 2, dist=dist)
    return repro.compile(src, session=Session(Machine(n_procs=p)))


def _bindings(nb, n=8, seed=0):
    rng = np.random.default_rng(seed)
    return [{"x": rng.standard_normal(n)} for _ in range(nb)]


def _looped_reference(prog, bindings, **kwargs):
    """Per-binding run loop from the program's pre-call state."""
    arrays = {}
    for loop in prog.loops:
        for arr in loop.arrays():
            arrays[arr.uid] = arr
    snap = {
        (uid, r): arr.local(r).copy()
        for uid, arr in arrays.items() for r in prog.grid.linear
    }
    out = []
    for b in bindings:
        for (uid, r), saved in snap.items():
            arrays[uid].local(r)[...] = saved
        prog.run(**b, **kwargs)
        out.append({
            name: arr.to_global().copy() for name, arr in prog.arrays.items()
        })
    return out


# ----------------------------------------------------------------------
# Semantics
# ----------------------------------------------------------------------


def test_run_batch_matches_looped_runs():
    prog, ref_prog = _prog(), _prog()
    binds = _bindings(5)
    ref = _looped_reference(ref_prog, binds)
    res = prog.run_batch(binds)
    assert isinstance(res, BatchResult)
    assert len(res) == 5 and sorted(res.keys()) == ["x", "y"]
    for b in range(5):
        np.testing.assert_array_equal(res["y"][b], ref[b]["y"])
        np.testing.assert_array_equal(res["x"][b], binds[b]["x"])


def test_run_batch_leaves_last_member_state_like_a_loop():
    prog, ref_prog = _prog(), _prog()
    binds = _bindings(3)
    for b in binds:
        ref_prog.run(**b)
    prog.run_batch(binds)
    np.testing.assert_array_equal(
        prog.arrays["y"].to_global(), ref_prog.arrays["y"].to_global()
    )


def test_run_batch_message_count_equals_single_run():
    """The tentpole wire property: batching widens payloads, it never
    multiplies messages."""
    prog, single = _prog(p=3, n=12), _prog(p=3, n=12)
    binds = _bindings(8, n=12)
    t1 = single.run(**binds[0])
    res = prog.run_batch(binds)
    assert len(res.trace.messages) == len(t1.messages)
    assert [(m.src, m.dst) for m in res.trace.messages] == \
        [(m.src, m.dst) for m in t1.messages]
    # payload slots widen by exactly the batch factor
    for mb, m1 in zip(res.trace.messages, t1.messages):
        assert mb.nbytes == 8 * m1.nbytes


def test_run_batch_iters_and_overlap():
    prog, ref_prog = _prog(p=2, n=10), _prog(p=2, n=10)
    binds = _bindings(4, n=10, seed=3)
    ref = _looped_reference(ref_prog, binds, iters=3, overlap=True)
    res = prog.run_batch(binds, iters=3, overlap=True)
    for b in range(4):
        np.testing.assert_array_equal(res["y"][b], ref[b]["y"])


def test_module_level_run_batch_delegates():
    prog = _prog()
    res = run_batch(prog, _bindings(2))
    assert isinstance(res, BatchResult) and len(res) == 2


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def test_run_batch_rejects_bad_inputs():
    prog = _prog()
    with pytest.raises(ValidationError):
        prog.run_batch([])
    with pytest.raises(ValidationError):
        prog.run_batch([{"nope": np.zeros(8)}])
    with pytest.raises(ValidationError):
        prog.run_batch(_bindings(2), iters=0)


def test_run_batch_rejects_parsub_programs():
    sess = Session(Machine(n_procs=2), ProcessorGrid((2,)))
    prog = repro.compile(lambda ctx: iter(()), session=sess)
    with pytest.raises(ValidationError):
        prog.run_batch([{}])


# ----------------------------------------------------------------------
# Property: bit-identity across distributions, overlap, batch sizes
# ----------------------------------------------------------------------


def _dist_of(kind: str):
    if kind.startswith("blockcyclic"):
        return BlockCyclic(int(kind.rsplit("-", 1)[1]))
    return kind


@st.composite
def batch_cases(draw):
    # "2d-perm" stores v(j, i) from a loop over (i, j): the permuted box
    # store whose perm/boxshape the batched plan rewrites
    loop_kind = draw(st.sampled_from(["1d", "2d-perm"]))
    p = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=max(8, 2 * p), max_value=20))
    kind = draw(st.sampled_from(["block", "cyclic", "blockcyclic-2"]))
    wkind = draw(st.sampled_from(["same", "block", "cyclic"]))
    nb = draw(st.integers(min_value=1, max_value=6))
    overlap = draw(st.booleans())
    iters = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return loop_kind, p, n, kind, wkind, nb, overlap, iters, seed


M = 3   # second extent of the 2-D case


def _make(loop_kind, p, n, kind, wkind):
    g = ProcessorGrid((p,))
    if loop_kind == "2d-perm":
        u = DistArray((n, M), g, dist=(_dist_of(kind), "*"), name="u")
        v = DistArray((M, n), g, dist=("*", _dist_of(wkind)), name="v")
        i, j = loopvars("i j")
        loop = Doall(
            vars=(i, j),
            ranges=[(1, n - 2), (0, M - 1)],
            on=Owner(v, (j, i)),
            body=[Assign(v[j, i], 2.0 * u[i - 1, j] - u[i + 1, j] + 0.5)],
            grid=g,
        )
        return repro.compile(loop, session=Session(Machine(n_procs=p), g))
    u = DistArray((n,), g, dist=(_dist_of(kind),), name="u")
    v = DistArray((n,), g, dist=(_dist_of(wkind),), name="v")
    (i,) = loopvars("i")
    loop = Doall(
        vars=(i,),
        ranges=[(1, n - 2)],
        on=Owner(u, (i,)),
        body=[Assign(v[i], 2.0 * u[i - 1] - u[i + 1] + 0.5)],
        grid=g,
    )
    return repro.compile(loop, session=Session(Machine(n_procs=p), g))


@given(batch_cases())
@settings(max_examples=25, deadline=None)
def test_run_batch_bit_identical_to_looped(case):
    loop_kind, p, n, kind, wkind, nb, overlap, iters, seed = case
    wkind = kind if wkind == "same" else wkind
    rng = np.random.default_rng(seed)
    shape = (n, M) if loop_kind == "2d-perm" else (n,)
    binds = [{"u": rng.standard_normal(shape)} for _ in range(nb)]

    batched = _make(loop_kind, p, n, kind, wkind)
    looped = _make(loop_kind, p, n, kind, wkind)
    ref = _looped_reference(looped, binds, iters=iters, overlap=overlap)
    res = batched.run_batch(binds, iters=iters, overlap=overlap)
    for b in range(nb):
        np.testing.assert_array_equal(res["v"][b], ref[b]["v"])
        np.testing.assert_array_equal(res["u"][b], ref[b]["u"])
    # one batched run puts exactly one single run's messages on the wire
    single = _make(loop_kind, p, n, kind, wkind)
    t1 = single.run(**binds[0], iters=iters, overlap=overlap)

    def wire(trace):
        return Counter((m.src, m.dst, m.tag) for m in trace.messages)

    assert len(res.trace.messages) == len(t1.messages)
    assert wire(res.trace) == wire(t1)


@given(st.sampled_from(["block", "cyclic", "blockcyclic-2"]),
       st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None)
def test_run_batch_survives_redistribution_between_calls(kind, seed):
    """A layout flip between batched calls orphans the cached plans;
    the rebuilt batched plans still match the looped reference."""
    p, n, nb = 2, 12, 3
    rng = np.random.default_rng(seed)
    binds = [{"u": rng.standard_normal(n)} for _ in range(nb)]

    def run_one(batch):
        g = ProcessorGrid((p,))
        u = DistArray((n,), g, dist=("block",), name="u")
        v = DistArray((n,), g, dist=("block",), name="v")
        (i,) = loopvars("i")
        loop = Doall(
            vars=(i,), ranges=[(1, n - 2)], on=Owner(u, (i,)),
            body=[Assign(v[i], 0.5 * (u[i - 1] + u[i + 1]))], grid=g,
        )
        sess = Session(Machine(n_procs=p), g)
        prog = repro.compile(loop, session=sess)
        outs = []

        def sweep():
            if batch:
                outs.append({k: res[k] for res in [prog.run_batch(binds)]
                             for k in res.keys()})
            else:
                ref = _looped_reference(prog, binds)
                outs.append({
                    name: np.stack([r[name] for r in ref])
                    for name in ref[0]
                })

        sweep()
        sess.run(lambda ctx: ctx.redistribute(u, (_dist_of(kind),)))
        sweep()
        return outs

    a, b = run_one(True), run_one(False)
    for res_a, res_b in zip(a, b):
        for name in res_a:
            np.testing.assert_array_equal(res_a[name], res_b[name])

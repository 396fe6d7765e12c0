"""Self-time arithmetic, generator-aware spans, and wrapper removal."""

import numpy as np
import pytest

import repro
from perfbench.tracer import (
    TARGETS, WRAPPED, Tracer, _repro_modules, instrument, traced_generator,
)
from perfbench.workloads import jacobi_source


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clk = FakeClock()
    t = Tracer(clock=clk)
    outer = t.enter("outer")
    clk.now += 10
    inner = t.enter("inner")
    clk.now += 3
    t.exit(inner)
    clk.now += 2
    inner = t.enter("inner")
    leaf = t.enter("leaf")
    clk.now += 4
    t.exit(leaf)
    clk.now += 1
    t.exit(inner)
    clk.now += 1
    t.exit(outer)

    totals = t.totals()
    assert totals["outer"] == [1, 21, 13]
    assert totals["inner"] == [2, 8, 4]
    assert totals["leaf"] == [1, 4, 4]
    ids = {name: sid for sid, name, *_ in t.spans}
    parents = {name: parent for _, name, _, _, parent, _ in t.spans}
    assert parents["leaf"] == ids["inner"] != 0
    assert parents["outer"] == 0


def test_generator_resumes_are_spans_of_their_own():
    """The driver's self time excludes the generator's resumes, and each
    resume's self time excludes the spans opened inside it."""
    clk = FakeClock()
    t = Tracer(clock=clk)

    def rank():
        total = 0
        for _ in range(3):
            clk.now += 2
            leaf = t.enter("leaf")
            clk.now += 1
            t.exit(leaf)
            total += yield "op"
        return total

    def caller():
        return (yield from traced_generator(t, "rank", rank()))

    loop = t.enter("loop")
    gen = caller()
    clk.now += 5
    assert next(gen) == "op"
    for k in (1, 2):
        clk.now += 5
        assert gen.send(k) == "op"
    clk.now += 5
    with pytest.raises(StopIteration) as stop:
        gen.send(3)
    t.exit(loop)

    assert stop.value.value == 6
    totals = t.totals()
    assert totals["rank"] == [4, 9, 6]      # 3 resumes + the final one
    assert totals["leaf"] == [3, 3, 3]
    assert totals["loop"] == [1, 29, 20]    # 4 x 5 of its own


def test_traced_generator_forwards_throw():
    t = Tracer()

    def gen():
        try:
            yield 1
        except KeyError:
            yield "caught"

    wrapped = traced_generator(t, "g", gen())
    assert next(wrapped) == 1
    assert wrapped.throw(KeyError()) == "caught"
    assert t.totals()["g"][0] == 2


def test_paused_tracer_records_nothing():
    t = Tracer()
    t.active = False
    t.exit(t.enter("x"))
    t.count("n", 3)
    assert t.totals() == {} and t.counts() == {} and t.spans == []


def _tiny_jacobi():
    session = repro.Session(repro.Machine(n_procs=4))
    program = repro.compile(jacobi_source(8, (2, 2)), session=session)
    f = np.random.default_rng(0).standard_normal((9, 9))
    program.run(X=np.zeros_like(f), F=f, iters=3)
    return program.arrays["X"].to_global()


def test_recorded_spans_account_for_self_time():
    """The online totals equal what the recorded spans give: duration
    minus the durations of the direct children."""
    t = Tracer()
    with instrument(t):
        _tiny_jacobi()
    names = {s[1] for s in t.spans}
    assert {"simulator.run", "session.rank_program", "schedule.replay",
            "commsched.sends", "commsched.recvs", "compiler.compile",
            "lang.bind", "lang.fetch"} <= names
    child = {}
    for _, _, start, end, parent, _ in t.spans:
        child[parent] = child.get(parent, 0) + end - start
    selfs = {}
    for sid, name, start, end, _, _ in t.spans:
        own = end - start - child.get(sid, 0)
        assert own >= 0
        selfs[name] = selfs.get(name, 0) + own
    assert selfs == {k: v[2] for k, v in t.totals().items()}


def _leftover_wrappers() -> list[str]:
    """Names under which a perfbench.tracer wrapper is still reachable."""
    found = []
    for mod in _repro_modules():
        for key, value in list(vars(mod).items()):
            if getattr(value, WRAPPED, False):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if getattr(fn, WRAPPED, False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


def _reachable_originals():
    """(namespace, attribute, object) for every target, aliases included."""
    import importlib
    import sys

    found = []
    for _, modname, path, _, _ in TARGETS:
        module = importlib.import_module(modname)
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            cls = getattr(module, owner_path)
            owner = next(k for k in cls.__mro__ if attr in k.__dict__)
            found.append((owner, attr, owner.__dict__[attr]))
        else:
            fn = getattr(module, attr)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro"):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            found.append((mod, key, fn))
    return found


def test_wrappers_fully_removed():
    before = _reachable_originals()
    assert len(before) > len(TARGETS)       # aliases such as repro.compile
    t = Tracer()
    with instrument(t):
        assert len(_leftover_wrappers()) >= len(before)
        _tiny_jacobi()
    assert _leftover_wrappers() == []
    for namespace, attr, original in before:
        assert vars(namespace)[attr] is original, (namespace, attr)
    # a run after removal reaches none of the tracer's hooks
    recorded = len(t.spans)
    _tiny_jacobi()
    assert len(t.spans) == recorded


def test_failed_install_is_undone():
    bad = TARGETS[:3] + [("x", "repro.session", "NoSuchThing.run", None, None)]
    with pytest.raises(AttributeError):
        with instrument(Tracer(), targets=bad):
            pass
    assert _leftover_wrappers() == []

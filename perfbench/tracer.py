"""Span recorder and the wrappers that time each layer from outside.

The benchmark does not instrument ``src/``: :func:`instrument` replaces
the public entry points of each layer (listed in :data:`TARGETS`) with
thin wrappers for the length of a ``with`` block and puts the original
objects back afterwards.  Every wrapped call is one span (name, start,
end, parent, op id).  A wrapped *generator* -- the simulator drives
each rank as a generator of machine ops -- is timed per resume: each
``send`` into it is one span, so the time a rank spends suspended
inside the event loop is charged to the event loop, not to the rank.

Self time is accounted as spans close: a span's self time is its
duration minus the durations of the spans that ran directly inside it
on the same thread.  Totals are kept per ``(phase, name)``; the raw
spans are kept in memory (up to ``keep`` of them) and written out when
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

#: marks every wrapper this module installs (the removal check looks
#: for it)
WRAPPED = "__perfbench_wrapped__"


class _ThreadState:
    __slots__ = ("stack", "op", "table", "counts")

    def __init__(self):
        self.stack: list[list] = []
        self.op = None
        #: (phase, name) -> [spans, inclusive ns, self ns]
        self.table: dict[tuple, list] = {}
        #: (phase, name) -> summed count
        self.counts: dict[tuple, int] = {}


class Tracer:
    """In-memory span recorder with per-thread self-time accounting."""

    def __init__(self, clock=time.perf_counter_ns, keep: int = 20_000):
        self.clock = clock
        self.keep = keep
        #: recorded spans: (id, name, start ns, end ns, parent id, op)
        self.spans: list[tuple] = []
        #: label the main thread sets around set-up, ops and checks
        self.phase = "setup"
        #: spans are recorded only while active (checks run inactive)
        self.active = True
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def set_op(self, op) -> None:
        """Tag the spans this thread opens from now on with ``op``."""
        self._state().op = op

    def enter(self, name: str):
        if not self.active:
            return None
        frame = [next(self._ids), name, 0, 0]
        self._state().stack.append(frame)
        frame[2] = self.clock()
        return frame

    def exit(self, frame) -> None:
        if frame is None:
            return
        end = self.clock()
        st = self._state()
        st.stack.pop()
        sid, name, start, child = frame
        dur = end - start
        parent = st.stack[-1] if st.stack else None
        if parent is not None:
            parent[3] += dur
        row = st.table.get((self.phase, name))
        if row is None:
            row = st.table[(self.phase, name)] = [0, 0, 0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child
        if len(self.spans) < self.keep:
            self.spans.append(
                (sid, name, start, end, parent[0] if parent else 0, st.op)
            )

    def count(self, name: str, n: int) -> None:
        """Add ``n`` to the counter ``name`` (recorded only while active)."""
        if not self.active:
            return
        st = self._state()
        key = (self.phase, name)
        st.counts[key] = st.counts.get(key, 0) + n

    # -- reading ------------------------------------------------------------

    def totals(self, phases=None) -> dict[str, list]:
        """``name -> [spans, inclusive ns, self ns]`` summed over threads
        and over ``phases`` (all phases when None)."""
        out: dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for (phase, name), row in list(st.table.items()):
                if phases is not None and phase not in phases:
                    continue
                acc = out.setdefault(name, [0, 0, 0])
                for k in range(3):
                    acc[k] += row[k]
        return out

    def counts(self, phases=None) -> dict[str, int]:
        out: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for (phase, name), n in list(st.counts.items()):
                if phases is None or phase in phases:
                    out[name] = out.get(name, 0) + n
        return out

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines (times in ns)."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def traced_generator(tracer: Tracer, name: str, gen):
    """Drive ``gen``, timing each resume as one span named ``name``."""
    method, arg = gen.send, None
    while True:
        frame = tracer.enter(name)
        try:
            op = method(arg)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.exit(frame)
        try:
            arg = yield op
            method = gen.send
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into gen, like yield from
            method, arg = gen.throw, exc


def _span_wrapper(tracer: Tracer, name: str, fn, classify=None):
    """Time every call of ``fn``; a returned generator is timed per resume.

    ``classify(result)`` may rename the span after the call (the plan
    cache probe reports a hit or a miss that way).
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
            if frame is not None and classify is not None:
                frame[1] = classify(out)
        finally:
            tracer.exit(frame)
        if inspect.isgenerator(out):
            return traced_generator(tracer, name, out)
        return out

    setattr(wrapper, WRAPPED, True)
    return wrapper


def _machine_run_wrapper(tracer: Tracer, name: str, fn):
    """``Machine.run``: one span, plus per-resume spans for every rank
    program, so the event loop's self time excludes the ranks' work."""
    @functools.wraps(fn)
    def run(self, programs, *args, **kwargs):
        wrap = functools.partial(traced_generator, tracer, "session.rank_program")
        if callable(programs) and not isinstance(programs, dict):
            factory = programs
            programs = lambda rank: wrap(factory(rank))  # noqa: E731
        else:
            programs = {rank: wrap(gen) for rank, gen in dict(programs).items()}
        frame = tracer.enter(name)
        try:
            return fn(self, programs, *args, **kwargs)
        finally:
            tracer.exit(frame)

    setattr(run, WRAPPED, True)
    return run


def _local_move_wrapper(tracer: Tracer, name: str, fn):
    """``transfer_local_move``: a span plus the bytes the move writes
    (computed from the moved values' size, not measured traffic)."""
    @functools.wraps(fn)
    def local_move(sched, read, write):
        def counted_write(idx, values):
            tracer.count("commsched.local_move_bytes", values.nbytes)
            write(idx, values)

        frame = tracer.enter(name)
        try:
            return fn(sched, read, counted_write)
        finally:
            tracer.exit(frame)

    setattr(local_move, WRAPPED, True)
    return local_move


def _analysis_kind(result) -> str:
    return "compiler.analysis.hit" if result[1] else "compiler.analysis.miss"


#: (span name, module, attribute path, wrapper factory, classify)
TARGETS = [
    ("simulator.run", "repro.machine.simulator", "Machine.run",
     _machine_run_wrapper, None),
    ("session.program_run", "repro.session", "Program.run", None, None),
    ("session.run_batch", "repro.session", "Program.run_batch", None, None),
    ("session.run", "repro.session", "Session.run", None, None),
    ("schedule.replay", "repro.compiler.schedule", "replay_analysis",
     None, None),
    ("schedule.replay_batch", "repro.compiler.schedule",
     "replay_batch_analysis", None, None),
    ("commsched.sends", "repro.compiler.commsched", "transfer_sends",
     None, None),
    ("commsched.recvs", "repro.compiler.commsched", "transfer_recvs",
     None, None),
    ("commsched.local_move", "repro.compiler.commsched",
     "transfer_local_move", _local_move_wrapper, None),
    ("commsched.repartition", "repro.compiler.commsched",
     "cached_repartition", None, None),
    ("compiler.compile", "repro.session", "compile", None, None),
    ("compiler.analysis", "repro.compiler.schedule", "PlanCache.analysis",
     None, _analysis_kind),
    ("mpbackend.run_loops", "repro.machine.mpbackend",
     "MultiprocessingBackend.run_loops", None, None),
    ("lang.bind", "repro.lang.array", "BaseDistArray.from_global",
     None, None),
    ("lang.fetch", "repro.lang.array", "BaseDistArray.to_global",
     None, None),
    ("serve.checkout", "repro.serve", "SessionPool.acquire", None, None),
    ("elastic.checkpoint", "repro.elastic", "checkpoint", None, None),
    ("elastic.restore", "repro.elastic", "restore", None, None),
    ("elastic.to_bytes", "repro.elastic", "Checkpoint.to_bytes", None, None),
    ("elastic.from_bytes", "repro.elastic", "Checkpoint.from_bytes",
     None, None),
]


def _repro_modules():
    return [
        m for k, m in list(sys.modules.items())
        if m is not None and (k == "repro" or k.startswith("repro."))
    ]


class instrument:
    """``with instrument(tracer):`` -- wrap every target, restore on exit.

    A module-level function is replaced under every name any ``repro``
    module binds it to (``from x import f`` copies the reference); a
    method is replaced on the class that defines it.
    """

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.tracer = tracer
        self.targets = targets
        #: (namespace, attribute, original) to put back, install order
        self._undo: list[tuple] = []

    def __enter__(self) -> "instrument":
        import importlib

        try:
            for name, modname, path, factory, classify in self.targets:
                module = importlib.import_module(modname)
                owner_path, _, attr = path.rpartition(".")
                factory = factory or (
                    lambda t, n, f, c=classify: _span_wrapper(t, n, f, c)
                )
                if owner_path:
                    self._wrap_method(module, owner_path, attr, name, factory)
                else:
                    self._wrap_function(module, attr, name, factory)
        except BaseException:
            self.__exit__()
            raise
        return self

    def _wrap_method(self, module, owner_path, attr, name, factory):
        cls = getattr(module, owner_path)
        owner = next(k for k in cls.__mro__ if attr in k.__dict__)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(factory(self.tracer, name, raw.__func__))
        else:
            wrapped = factory(self.tracer, name, raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _wrap_function(self, module, attr, name, factory):
        original = getattr(module, attr)
        wrapped = factory(self.tracer, name, original)
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def __exit__(self, *exc) -> None:
        while self._undo:
            namespace, attr, original = self._undo.pop()
            setattr(namespace, attr, original)

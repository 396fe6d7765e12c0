"""Load drivers: set-up repetitions, the closed loop and the open loop.

Every driver times only the system's work.  The checks against
Listing 1 or the numpy references run after each op (closed loop, with
tracing paused) or as each response completes (open loop).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.util.errors import ServerOverloadError

#: seed-stream index of set-up inputs (ops use 0, 1, 2, ...)
SETUP_INPUTS = 1_000_000


class Window:
    """What one measured window produced."""

    def __init__(self):
        self.samples: list[float] = []   # op seconds (open loop: from due)
        self.ratios: list[float] = []    # op seconds / reference seconds
        self.kinds: list = []            # request kind of each sample
        self.ref_s: list[float] = []     # reference seconds per sweep
        self.attempted = 0
        self.failed = 0
        self.wrong = 0   # failures that are not refusals or late answers
        self.good_in_limit = 0
        self.reasons: dict[str, int] = {}
        self.seconds = 0.0
        self.sweeps = 0
        self.members = 0
        self.lags: list[float] = []
        self.queue_waits: list[float] = []
        self.rejected = 0
        self.deadline_missed = 0
        self.ckpt_bytes: list[int] = []
        self.absorbed = 0

    @property
    def ops(self) -> int:
        """Ops of the window itself (set-ups absorbed later excluded)."""
        return self.attempted - self.absorbed

    def absorb(self, other: "Window") -> None:
        """Count another window's attempts and failures in this one."""
        self.attempted += other.attempted
        self.absorbed += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        for why, k in other.reasons.items():
            self.reasons[why] = self.reasons.get(why, 0) + k

    def fail(self, why: str, wrong: bool = True) -> None:
        """Count a failed op; ``wrong=False`` for one that was refused or
        answered too late but not answered wrongly."""
        self.failed += 1
        self.wrong += wrong
        self.reasons[why] = self.reasons.get(why, 0) + 1


class Signatures:
    """Per-key trace signatures; any op whose signature differs from the
    first one seen under its key is a failure."""

    def __init__(self):
        self.first: dict = {}

    def same(self, key, sig) -> bool:
        return self.first.setdefault(key, sig) == sig


def setups(wl, count: int, tracer, traced: bool, win: Window, sigs: Signatures):
    """Set the system up ``count`` times from scratch; returns the last
    instance (the others are closed), the set-up seconds and, per set-up,
    its span table."""
    times, tables, inst = [], [], None
    for k in range(count):
        phase = f"setup{k}"
        x = wl.inputs(SETUP_INPUTS + k) if wl.mode == "closed" else None
        tracer.phase = phase
        tracer.set_op(phase)
        tracer.active = traced
        t0 = time.perf_counter()
        new, first = wl.setup(x)
        times.append(time.perf_counter() - t0)
        tracer.active = False
        tables.append(tracer.totals(phases={phase}))
        win.attempted += 1
        if inst is not None:
            inst.close()
        inst = new
        if wl.mode == "closed":
            chk = wl.check(inst, x, first)
            if not chk.ok:
                win.fail(f"set-up: {chk.why}")
            if not sigs.same(wl.name, wl.trace_signature(inst)):
                win.fail("set-up: trace signature changed")
        else:
            for req, response in first:
                chk = wl.check(req, response)
                if not chk.ok:
                    win.fail(f"set-up: {chk.why}")
                if not sigs.same(*wl.response_signature(req, response)):
                    win.fail("set-up: trace signature changed")
    return inst, times, tables


def closed_loop(wl, inst, seconds: float, tracer, traced: bool,
                sigs: Signatures) -> Window:
    """One caller: the next op starts when the previous one is checked."""
    win = Window()
    tracer.phase = "op"
    end = time.perf_counter() + seconds
    busy = 0.0
    i = 0
    while time.perf_counter() < end:
        x = wl.inputs(i)
        tracer.set_op(i)
        tracer.active = traced
        t0 = time.perf_counter()
        try:
            result = wl.op(inst, x)
        except Exception as exc:  # an op that raises is a failed op
            tracer.active = False
            win.attempted += 1
            win.fail(f"raised {type(exc).__name__}: {exc}")
            i += 1
            continue
        dt = time.perf_counter() - t0
        tracer.active = False
        busy += dt
        win.attempted += 1
        win.sweeps += wl.sweeps_per_op
        chk = wl.check(inst, x, result)
        if not chk.ok:
            win.fail(chk.why)
        elif not sigs.same(wl.name, wl.trace_signature(inst)):
            win.fail("trace signature changed")
        else:
            win.samples.append(dt)
            win.ratios.append(dt / chk.ref_s)
            win.ref_s.append(chk.ref_s / wl.sweeps_per_op)
            win.good_in_limit += 1
        if hasattr(inst, "ckpt_bytes"):
            win.ckpt_bytes.append(inst.ckpt_bytes)
        i += 1
    win.seconds = busy
    return win


def open_loop(dues, submit, clock=time.perf_counter, sleep=time.sleep):
    """Send request ``i`` at ``start + dues[i]`` whatever the system is
    doing; returns ``(start, lags)``, each lag being how late the send
    was.  ``submit(i, due)`` gets the absolute due time and must not wait
    for the response."""
    start = clock()
    lags = []
    for i, due in enumerate(dues):
        target = start + due
        now = clock()
        if now < target:
            sleep(target - now)
            now = clock()
        lags.append(now - target)
        submit(i, target)
    return start, lags


def latencies(dues_abs: dict, done: dict) -> dict:
    """Per request: completion time minus due time, so a stall that
    delays the sends also charges every request sent late behind it."""
    return {i: done[i] - dues_abs[i] for i in done}


def serve_loop(wl, inst, seconds: float, tracer, traced: bool,
               sigs: Signatures, drain_s: float = 60.0) -> Window:
    """Open loop: seeded Poisson arrivals sent from this thread.

    Each response is checked as it completes (on the thread that
    completes it) and then dropped, so the run holds no backlog of
    result arrays."""
    win = Window()
    tracer.phase = "op"
    sched = wl.schedule(seconds)
    due_abs, done, submitted, started, outcomes = {}, {}, {}, {}, {}
    pending: set = set()   # submitted, not yet checked
    drained = threading.Condition()

    def on_start(op):
        started[op] = time.perf_counter()
        tracer.set_op(op)

    def on_done(i, fut):
        done[i] = time.perf_counter()
        try:
            response = fut.result()
            outcomes[i] = (wl.check(sched[i], response),
                           wl.response_signature(sched[i], response))
        except Exception as exc:  # a request that raised is a failure
            outcomes[i] = f"raised {type(exc).__name__}: {exc}"
        with drained:
            pending.discard(i)
            drained.notify_all()

    def submit(i, target):
        due_abs[i] = target
        submitted[i] = time.perf_counter()
        with drained:
            pending.add(i)
        try:
            fut = wl.submit(inst, i, sched[i])
        except ServerOverloadError:
            win.rejected += 1
            with drained:
                pending.discard(i)
            outcomes[i] = "refused"
            return
        # the future is not kept: the response is dropped once checked
        fut.add_done_callback(lambda f, i=i: on_done(i, f))

    inst.on_start = on_start
    tracer.active = traced
    _start, win.lags = open_loop([r[0] for r in sched], submit)
    with drained:
        drained.wait_for(lambda: not pending, timeout=drain_s)
    tracer.active = False
    inst.on_start = lambda op: None

    lat = latencies(due_abs, done)
    win.attempted = len(sched)
    win.seconds = seconds
    for i, req in enumerate(sched):
        outcome = outcomes.get(i, "no response")
        if isinstance(outcome, str):
            win.fail(outcome, wrong=outcome != "refused")
            continue
        chk, (key, sig) = outcome
        members = len(req[3])
        win.sweeps += req[2]
        win.members += members if members > 1 else 0
        if not chk.ok:
            win.fail(chk.why)
            continue
        if not sigs.same(key, sig):
            win.fail("trace signature changed")
            continue
        ref_s = wl.reference_seconds(req)
        win.queue_waits.append(started[i] - submitted[i])
        win.samples.append(lat[i])
        win.ratios.append(lat[i] / ref_s)
        win.kinds.append(wl.kind(req))
        win.ref_s.append(ref_s / (req[2] * members))
        if lat[i] > wl.LATENCY_LIMIT_S:
            win.deadline_missed += 1
            win.fail("missed the latency limit", wrong=False)
        else:
            win.good_in_limit += 1
    return win


def percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def percentile_ms(seconds, q) -> float:
    return percentile(np.asarray(seconds) * 1e3, q)

"""The benchmark's four workloads, driven through the public API only.

Each workload builds its inputs from the run's seed, sets the system up
from a fresh :class:`repro.Session` (or :class:`repro.Server`), runs
ops, and checks every op's output outside the timed region:

* ``jacobi-sim`` / ``jacobi-mp2`` -- Listing-3 Jacobi, one op is
  ``Program.run(iters=30)`` on a freshly seeded ``F`` (``X`` reset to
  zero, as Listing 1 starts) plus the fetch of ``X``.
* ``serve-mix`` -- a threaded :class:`repro.Server` fed by an open loop.
* ``relayout`` -- block/cyclic flips with stencil sweeps in a parsub,
  then a checkpoint round trip through a simulated loss of the arrays.
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro import DistArray, Machine, ProcessorGrid, Session
from repro.lang import Assign, Doall, Owner, loopvars

#: allclose tolerance of every check against Listing 1 or a numpy
#: reference: the distributed sweeps evaluate the same expressions in
#: the same order, so they agree to rounding (bit-for-bit in practice)
RTOL, ATOL = 1e-12, 1e-14

SIZES = {
    "full": {"n": 64, "iters": 30, "serve_n": (16, 32, 64),
             "relayout_n": 64},
    "tiny": {"n": 12, "iters": 3, "serve_n": (8, 12),
             "relayout_n": 12},
}


def listing1(f: np.ndarray, iters: int) -> np.ndarray:
    """The paper's Listing 1: sequential Jacobi with a temporary.

    The yardstick lives in the benchmark so that a change to the
    program cannot move it.
    """
    X = np.zeros_like(f)
    for _ in range(iters):
        tmp = X.copy()
        X[1:-1, 1:-1] = (
            0.25 * (tmp[2:, 1:-1] + tmp[:-2, 1:-1] + tmp[1:-1, 2:]
                    + tmp[1:-1, :-2])
            - f[1:-1, 1:-1]
        )
    return X


def timed_listing1(f: np.ndarray, iters: int) -> tuple[np.ndarray, float]:
    """Listing 1 and the CPU time this thread spent in it (which leaves
    out waits for the interpreter lock another thread holds)."""
    t0 = time.thread_time()
    out = listing1(f, iters)
    return out, time.thread_time() - t0


def jacobi_source(n: int, grid: tuple[int, int]) -> str:
    """Listing 3 in KF1 on an (n+1) x (n+1) grid."""
    return f"""
processors procs({grid[0]}, {grid[1]})
real X(0:{n}, 0:{n}) dist (block, block)
real F(0:{n}, 0:{n}) dist (block, block)
doall (i, j) = [1, {n - 1}] * [1, {n - 1}] on owner(X(i, j))
  X(i, j) = 0.25*(X(i+1, j) + X(i-1, j) + X(i, j+1) + X(i, j-1)) - F(i, j)
end doall
"""


def signature(trace, sweeps: int) -> tuple:
    """Messages, bytes and simulated makespan (us) per sweep: exact
    properties of the frozen program, identical on every run."""
    return (
        trace.message_count() / sweeps,
        trace.total_bytes() / sweeps,
        trace.makespan() * 1e6 / sweeps,
    )


def close_enough(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and bool(
        np.allclose(got, want, rtol=RTOL, atol=ATOL)
    )


class Check:
    """Outcome of checking one op: correct or not, the Listing-1 (or
    numpy reference) time for the same work, and a reason if wrong."""

    __slots__ = ("ok", "ref_s", "why")

    def __init__(self, ok: bool, ref_s: float, why: str = ""):
        self.ok, self.ref_s, self.why = ok, ref_s, why


# ----------------------------------------------------------------------
# Closed-loop Jacobi (simulator and multiprocessing backends)
# ----------------------------------------------------------------------


class _JacobiInstance:
    def __init__(self, session, program):
        self.session = session
        self.program = program
        self.trace = None

    def run(self, f: np.ndarray, iters: int) -> np.ndarray:
        self.trace = self.program.run(X=np.zeros_like(f), F=f, iters=iters)
        return self.program.arrays["X"].to_global()

    def close(self) -> None:
        self.session.close_backend()


class Jacobi:
    """Listing-3 Jacobi, closed loop with one caller."""

    mode = "closed"

    def __init__(self, name: str, seed: int, size: str, *, grid, backend):
        cfg = SIZES[size]
        self.name = name
        self.seed = seed
        self.n, self.iters = cfg["n"], cfg["iters"]
        self.grid = grid
        self.backend = backend
        self.sweeps_per_op = self.iters
        self.source = jacobi_source(self.n, grid)
        self.twin = None
        if backend == "multiprocessing":
            # the simulator run of the same inputs every mp op must
            # match bit for bit (built once; not part of set-up time)
            self.twin = self._fresh("simulator")

    def inputs(self, i: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, i])
        return 1e-3 * rng.standard_normal((self.n + 1, self.n + 1))

    def _fresh(self, backend) -> _JacobiInstance:
        size = self.grid[0] * self.grid[1]
        session = Session(Machine(n_procs=size), backend=backend)
        return _JacobiInstance(
            session, repro.compile(self.source, session=session)
        )

    def setup(self, f):
        inst = self._fresh(self.backend)
        return inst, inst.run(f, self.iters)

    def op(self, inst, f):
        return inst.run(f, self.iters)

    def check(self, inst, f, result) -> Check:
        want, ref_s = timed_listing1(f, self.iters)
        if not close_enough(result, want):
            return Check(False, ref_s, "differs from Listing 1")
        if self.twin is not None:
            twin = self.twin.run(f, self.iters)
            if not np.array_equal(result, twin):
                return Check(False, ref_s, "differs from the simulator run")
            if signature(inst.trace, 1) != signature(self.twin.trace, 1):
                return Check(False, ref_s, "trace differs from the simulator")
        return Check(True, ref_s)

    def trace_signature(self, inst) -> tuple:
        return signature(inst.trace, self.iters)

    def close(self) -> None:
        if self.twin is not None:
            self.twin.close()


# ----------------------------------------------------------------------
# relayout: block <-> cyclic flips, stencil sweeps, checkpoint round trip
# ----------------------------------------------------------------------


class _RelayoutInstance:
    def __init__(self, n: int, sweeps: int):
        grid = ProcessorGrid((4,))
        # a short trace history: every checkpoint carries the session's
        # history, so the default (256 traces) would make the blob, and
        # the op, grow for the first 256 ops of a run
        self.session = Session(Machine(n_procs=4), grid, max_history=4)
        self.A = DistArray((n, n), grid, dist=("block", "*"), name="A")
        self.B = DistArray((n, n), grid, dist=("block", "*"), name="B")
        i, j = loopvars("i j")
        A, B = self.A, self.B
        self.loops = [
            Doall(vars=(i, j), ranges=[(1, n - 2), (1, n - 2)],
                  on=Owner(B, (i, j)),
                  body=[Assign(B[i, j], 0.25 * (A[i + 1, j] + A[i - 1, j]
                                                + A[i, j + 1] + A[i, j - 1]))],
                  grid=grid),
            Doall(vars=(i, j), ranges=[(1, n - 2), (1, n - 2)],
                  on=Owner(A, (i, j)),
                  body=[Assign(A[i, j], 0.5 * (B[i + 1, j] + B[i - 1, j])
                               - 0.1 * A[i, j])],
                  grid=grid),
        ]
        # the loop program is what checkpoint/restore capture
        self.program = repro.compile(self.loops, session=self.session)
        self.sweeps = sweeps
        self.trace = None
        self.ckpt_bytes = 0

    def _cycle(self, ctx):
        for dist in (("cyclic", "*"), ("block", "*")):
            yield from ctx.redistribute(self.A, dist)
            yield from ctx.redistribute(self.B, dist)
            for _ in range(self.sweeps):
                for loop in self.loops:
                    yield from ctx.doall(loop)

    def run(self, a0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self.A.from_global(a0)
        self.B.from_global(np.zeros_like(a0))
        self.trace = self.session.run(self._cycle)
        blob = repro.elastic.checkpoint(self.session).to_bytes()
        self.ckpt_bytes = len(blob)
        # the arrays are lost; restore must bring back the checkpoint
        self.A.from_global(np.zeros_like(a0))
        self.B.from_global(np.zeros_like(a0))
        repro.elastic.restore(
            self.session, repro.elastic.Checkpoint.from_bytes(blob)
        )
        return self.A.to_global(), self.B.to_global()

    def close(self) -> None:
        self.session.close_backend()


def relayout_reference(a0: np.ndarray, sweeps: int):
    """The relayout op's stencil sweeps, sequentially in numpy (layout
    flips move data but change no value)."""
    A, B = a0.copy(), np.zeros_like(a0)
    for _ in range(2 * sweeps):
        B[1:-1, 1:-1] = 0.25 * (A[2:, 1:-1] + A[:-2, 1:-1]
                                + A[1:-1, 2:] + A[1:-1, :-2])
        A[1:-1, 1:-1] = 0.5 * (B[2:, 1:-1] + B[:-2, 1:-1]) - 0.1 * A[1:-1, 1:-1]
    return A, B


class Relayout:
    """One op is one block -> cyclic -> block cycle of two arrays with
    stencil sweeps after each flip, then checkpoint -> to_bytes ->
    (arrays wiped) -> from_bytes -> restore."""

    mode = "closed"
    #: stencil sweeps (both loops) after each flip
    SWEEPS = 2

    def __init__(self, name: str, seed: int, size: str):
        self.name = name
        self.seed = seed
        self.n = SIZES[size]["relayout_n"]
        self.sweeps_per_op = 2 * self.SWEEPS

    def inputs(self, i: int) -> np.ndarray:
        return np.random.default_rng([self.seed, i]).standard_normal(
            (self.n, self.n)
        )

    def setup(self, a0):
        inst = _RelayoutInstance(self.n, self.SWEEPS)
        return inst, inst.run(a0)

    def op(self, inst, a0):
        return inst.run(a0)

    def check(self, inst, a0, result) -> Check:
        t0 = time.thread_time()
        want = relayout_reference(a0, self.SWEEPS)
        ref_s = time.thread_time() - t0
        for got, exp, name in zip(result, want, "AB"):
            if not close_enough(got, exp):
                return Check(False, ref_s,
                             f"{name} differs from the numpy reference "
                             "after the checkpoint round trip")
        return Check(True, ref_s)

    def trace_signature(self, inst) -> tuple:
        return signature(inst.trace, self.sweeps_per_op)

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve-mix: open-loop requests into a threaded Server
# ----------------------------------------------------------------------


class _Request:
    """A request that runs a program and reads its result under the
    program's run lock, so a later request cannot overwrite the result
    before it is read.  ``Server.submit`` calls :meth:`run`,
    ``Server.submit_batch`` calls :meth:`run_batch`."""

    def __init__(self, program, inst):
        self.program = program
        self.inst = inst

    def run(self, *, session, op, iters, X, F):
        with self.program.lock:
            self.inst.on_start(op)
            trace = self.program.run(session=session, iters=iters, X=X, F=F)
            return trace, self.program.arrays["X"].to_global()

    def run_batch(self, bindings, *, session, op, iters):
        with self.program.lock:
            self.inst.on_start(op)
            res = self.program.run_batch(bindings, session=session, iters=iters)
            return res.trace, res["X"]


class _ServeInstance:
    def __init__(self, configs, threads: int, max_queue: int):
        self.server = repro.Server(
            machine=Machine(n_procs=4), threads=threads, max_queue=max_queue
        )
        #: called with the request's op id on the worker thread, right
        #: before Program.run(_batch) is entered
        self.on_start = lambda op: None
        self.requests = [
            _Request(self.server.compile(jacobi_source(n, grid)), self)
            for n, grid in configs
        ]

    def close(self) -> None:
        self.server.close()


class ServeMix:
    """Open-loop Poisson arrivals into ``Server(threads=2)``."""

    mode = "open"
    THREADS = 2
    #: admitted backlog beyond the running threads; large enough that a
    #: Poisson burst at the offered rate is queued, not refused
    MAX_QUEUE = 512
    #: requests per second offered (below today's capacity)
    RATE = 60.0
    #: a response later than this misses the latency limit
    LATENCY_LIMIT_S = 0.5
    GRIDS = ((2, 2), (4, 1))
    SWEEPS = (2, 4, 8)
    #: one request in BATCH_EVERY is a submit_batch ensemble of BATCH
    BATCH_EVERY, BATCH = 5, 4
    #: seeded F inputs per problem size; requests draw from them
    INPUTS = 8

    def __init__(self, name: str, seed: int, size: str):
        self.name = name
        self.seed = seed
        self.sizes = SIZES[size]["serve_n"]
        self.configs = [(n, g) for n in self.sizes for g in self.GRIDS]
        rng = np.random.default_rng([seed, 0])
        self.fs = {
            n: [1e-3 * rng.standard_normal((n + 1, n + 1))
                for _ in range(self.INPUTS)]
            for n in self.sizes
        }
        #: (n, sweeps) -> Listing-1 CPU seconds, one per checked member
        self.l1_s: dict = {}

    def reference_seconds(self, req: tuple) -> float:
        """Listing-1 seconds for the work of one request (all members):
        the median of the Listing-1 timings :meth:`check` made for its
        size and sweeps."""
        _, cfg, sweeps, fidx = req
        times = self.l1_s[(self.configs[cfg][0], sweeps)]
        return float(np.median(times)) * len(fidx)

    def schedule(self, seconds: float) -> list[tuple]:
        """Seeded arrivals: (due offset s, config index, sweeps, F indices);
        one F index is a single run, several are a batch.

        Request kinds are dealt from shuffled decks that hold every
        (program, sweeps) pair the same number of times, so the seed
        changes arrival times, order and inputs but not the mix: the
        tail percentiles would otherwise follow how many of the largest
        batches a seed happens to draw."""
        rng = np.random.default_rng([self.seed, 1])
        kinds = [
            (cfg, sweeps, members)
            for cfg in range(len(self.configs)) for sweeps in self.SWEEPS
            for members in (1,) * (self.BATCH_EVERY - 1) + (self.BATCH,)
        ]
        out, deck, t = [], [], 0.0
        while True:
            t += rng.exponential(1.0 / self.RATE)
            if t >= seconds:
                return out
            if not deck:
                deck = list(rng.permutation(len(kinds)))
            cfg, sweeps, members = kinds[deck.pop()]
            fidx = tuple(int(k) for k in rng.integers(self.INPUTS, size=members))
            out.append((t, cfg, sweeps, fidx))

    def submit(self, inst, op: int, req: tuple):
        _, cfg, sweeps, fidx = req
        n = self.configs[cfg][0]
        target = inst.requests[cfg]
        zeros = np.zeros((n + 1, n + 1))
        if len(fidx) == 1:
            return inst.server.submit(
                target, op=op, iters=sweeps, X=zeros, F=self.fs[n][fidx[0]]
            )
        return inst.server.submit_batch(
            target, [{"X": zeros, "F": self.fs[n][k]} for k in fidx],
            op=op, iters=sweeps,
        )

    def setup(self, _inputs=None):
        """Fresh Server, every program compiled, one verified single
        run per program; returns the instance and those results."""
        inst = _ServeInstance(self.configs, self.THREADS, self.MAX_QUEUE)
        reqs = [(0.0, c, self.SWEEPS[0], (0,)) for c in range(len(self.configs))]
        futs = [self.submit(inst, -1 - k, r) for k, r in enumerate(reqs)]
        return inst, [(r, f.result()) for r, f in zip(reqs, futs)]

    def check(self, req: tuple, response) -> Check:
        _, cfg, sweeps, fidx = req
        n = self.configs[cfg][0]
        result = response[1]
        results = result if len(fidx) > 1 else result[None]
        if results.shape[0] != len(fidx):
            return Check(False, 0.0, "wrong batch size")
        # checked on the thread that completed the request, so Listing 1
        # is timed under the same host load as the requests
        times = self.l1_s.setdefault((n, sweeps), [])
        for got, k in zip(results, fidx):
            want, dt = timed_listing1(self.fs[n][k], sweeps)
            times.append(dt)
            if not close_enough(got, want):
                return Check(False, 0.0, "differs from Listing 1")
        return Check(True, 0.0)

    def kind(self, req: tuple) -> tuple:
        """(program index, sweeps, members) of a request."""
        return (req[1], req[2], len(req[3]))

    def response_signature(self, req: tuple, response) -> tuple:
        """(key, signature) of one response's trace; equal keys must
        give equal signatures."""
        return self.kind(req), signature(response[0], req[2])

    def close(self) -> None:
        pass


def make(name: str, seed: int, size: str = "full"):
    if name == "jacobi-sim":
        return Jacobi(name, seed, size, grid=(2, 2), backend=None)
    if name == "jacobi-mp2":
        return Jacobi(name, seed, size, grid=(2, 1), backend="multiprocessing")
    if name == "serve-mix":
        return ServeMix(name, seed, size)
    if name == "relayout":
        return Relayout(name, seed, size)
    raise ValueError(f"unknown workload {name!r}")

"""The multiprocessing backend and the simulator-fidelity fixes it exposed.

Building a second backend that must match the simulator bit-for-bit
turned several latent simulator behaviors into contracts:

* run ids must be unique across *processes* (forked workers inherit the
  counter);
* published trace records are immutable -- consume times are stamped by
  rebuilding, never mutating;
* ``_snapshot``/``freeze_payload`` accept read-only views whose whole
  base chain is frozen, without weakening copy semantics for views of
  live storage;
* :class:`~repro.util.errors.DeadlockError` reports each stuck rank's
  undelivered mailbox keys, so cross-backend protocol drift is
  diagnosable from the exception alone.

Bit-identity of the backend itself (results, traces, accounting) is
pinned in ``tests/compiler/test_stepplan.py``, parametrized over
backends; this file covers the backend's machinery and those contracts.
"""

import multiprocessing
import os

import numpy as np
import pytest

import repro
from repro import (
    DistArray,
    Machine,
    MultiprocessingBackend,
    ProcessorGrid,
    Session,
)
from repro.compiler.commsched import freeze_payload
from repro.lang import Assign, Doall, Owner, loopvars
from repro.lang.context import next_run_id
from repro.machine.ops import Recv, Send, frozen_by_value
from repro.machine.simulator import _snapshot
from repro.machine.trace import Trace
from repro.util.errors import DeadlockError, ValidationError


def jacobi_program(n, w, backend=None, session_kw=(), shape=None):
    grid = ProcessorGrid(shape or (w, 1))
    X = DistArray((n, n), grid, dist=("block", "block"), name="X")
    F = DistArray((n, n), grid, dist=("block", "block"), name="F")
    F.from_global(np.random.default_rng(7).standard_normal((n, n)))
    i, j = loopvars("i j")
    loop = Doall(
        vars=(i, j), ranges=[(1, n - 2), (1, n - 2)], on=Owner(X, (i, j)),
        body=[Assign(
            X[i, j],
            0.25 * (X[i + 1, j] + X[i - 1, j] + X[i, j + 1] + X[i, j - 1])
            - F[i, j],
        )],
        grid=grid,
    )
    sess = Session(Machine(n_procs=grid.size), grid, backend=backend,
                   **dict(session_kw))
    return repro.compile(loop, session=sess), X


# ----------------------------------------------------------------------
# Backend selection and lifecycle
# ----------------------------------------------------------------------


def test_backend_validation():
    with pytest.raises(ValidationError, match="unknown backend"):
        Session(backend="threads")
    sess = Session(Machine(n_procs=2), ProcessorGrid((2,)))
    with pytest.raises(ValidationError, match="unknown backend"):
        sess.run(lambda ctx: iter(()), backend="threads")
    with pytest.raises(ValidationError, match="not both"):
        MultiprocessingBackend(Machine(n_procs=2), n_procs=2)


def test_backend_instance_supplies_machine():
    """An explicit Backend instance stands in for the machine it wraps."""
    with MultiprocessingBackend(n_procs=2) as backend:
        assert backend.n_procs == 2
        grid = ProcessorGrid((2,))
        X = DistArray((10,), grid, dist=("block",), name="X")
        (i,) = loopvars("i")
        loop = Doall(vars=(i,), ranges=[(1, 8)], on=Owner(X, (i,)),
                     body=[Assign(X[i], X[i - 1] + 1.0)], grid=grid)
        sess = Session(grid=grid, backend=backend)
        prog = repro.compile(loop, session=sess)
        trace = prog.run()
        assert trace.message_count() > 0
        assert sess.runs == 1


def test_pool_persists_across_runs_and_close_restores_blocks():
    prog, X = jacobi_program(12, 2, backend="multiprocessing")
    prog.run(iters=2)
    backend = prog.session._mp_backend
    pool = backend._pool
    assert pool is not None and pool.alive()
    prog.run(iters=2)
    assert backend._pool is pool, "steady-state reruns must reuse the pool"
    result = X.to_global().copy()
    backend.close()
    assert backend._pool is None
    # blocks were un-adopted: data survives, and further runs respawn
    np.testing.assert_array_equal(X.to_global(), result)
    prog.run(iters=1)
    assert backend._pool is not None and backend._pool is not pool
    backend.close()


def test_mp_accounting_matches_simulator():
    pa, _ = jacobi_program(12, 2, backend=None)
    pb, _ = jacobi_program(12, 2, backend="multiprocessing")
    for iters in (3, 1, 4):
        pa.run(iters=iters)
        pb.run(iters=iters)
    pb.session._mp_backend.close()
    assert pa.session.stats() == pb.session.stats()
    assert pa.session.hit_rates() == pb.session.hit_rates()


def test_mp_generic_run_delegates_to_inner_machine():
    backend = MultiprocessingBackend(n_procs=2)

    def sender():
        yield Send(1, np.arange(3.0), tag="t")

    def receiver():
        got = yield Recv(src=0, tag="t")
        np.testing.assert_array_equal(got, np.arange(3.0))

    trace = backend.run({0: sender(), 1: receiver()})
    assert trace.message_count() == 1
    backend.close()


# ----------------------------------------------------------------------
# Fault injection: workers dying mid-sweep fail loudly and recover
# ----------------------------------------------------------------------


@pytest.fixture
def inject_fault():
    """Arm the backend's test-only fault hook; always disarmed after.

    Workers inherit the spec at *fork* time, so arm before the first
    run (or close the pool so it respawns armed).
    """
    from repro.machine import mpbackend

    def arm(**spec):
        mpbackend._FAULT_INJECTION = spec

    yield arm
    mpbackend._FAULT_INJECTION = None


def test_worker_exception_reports_per_rank_traceback(inject_fault):
    """A worker raising mid-sweep: MachineError with that rank's full
    traceback, peers broken out of the barrier, nothing hangs."""
    from repro.util.errors import MachineError

    inject_fault(rank=1, sweep=1, action="raise")
    prog, X = jacobi_program(12, 2, backend="multiprocessing")
    with pytest.raises(MachineError) as exc_info:
        prog.run(iters=3)
    msg = str(exc_info.value)
    assert "-- rank 1 --" in msg
    assert "injected fault on rank 1 at sweep 1" in msg
    assert "RuntimeError" in msg, "per-rank sections carry the traceback"


def test_worker_killed_outright_fails_loudly_not_hangs(inject_fault):
    """A worker dying without a goodbye (os._exit, as the OOM killer
    would): the parent must detect the death, break the surviving
    ranks out of the sweep barrier, and raise -- never deadlock."""
    from repro.util.errors import MachineError

    inject_fault(rank=1, sweep=0, action="exit")
    prog, X = jacobi_program(12, 2, backend="multiprocessing")
    with pytest.raises(MachineError) as exc_info:
        prog.run(iters=2)
    msg = str(exc_info.value)
    assert "-- rank 1 --" in msg
    assert "died" in msg


def test_failed_ranks_name_only_the_ranks_that_died():
    """Survivors broken out of the sweep barrier by a peer's death
    report their tracebacks, but they are not failed ranks: killing
    ranks 1 and 2 of a 2x2 run reports exactly (1, 2)."""
    from repro import faults
    from repro.util.errors import MachineError

    prog, _ = jacobi_program(12, 4, backend="multiprocessing", shape=(2, 2))
    try:
        with faults.kill_rank([1, 2], sweep=2) as fault:
            with pytest.raises(MachineError) as exc_info:
                prog.run(iters=4)
    finally:
        prog.session.close_backend()
    assert exc_info.value.failed_ranks == (1, 2)
    assert fault.fired == [(1, 2)]
    msg = str(exc_info.value)
    assert "-- rank 0 --" in msg and "BrokenBarrierError" in msg


def test_pool_respawns_cleanly_after_worker_failure(inject_fault):
    """After a failure closed the pool, the next run respawns workers
    and produces correct results (matching the simulator)."""
    from repro.machine import mpbackend
    from repro.util.errors import MachineError

    inject_fault(rank=0, sweep=0, action="raise")
    prog, X = jacobi_program(12, 2, backend="multiprocessing")
    with pytest.raises(MachineError):
        prog.run(iters=2)
    backend = prog.session._mp_backend
    failed_pool = backend._pool
    assert failed_pool is None or not failed_pool.alive(), \
        "a failed pool must be torn down"
    mpbackend._FAULT_INJECTION = None

    ref, Xr = jacobi_program(12, 2, backend=None)
    ref.run(iters=2)
    prog.run(iters=2)
    assert backend._pool is not None and backend._pool.alive()
    assert backend._pool is not failed_pool
    np.testing.assert_array_equal(X.to_global(), Xr.to_global())
    backend.close()


def test_fault_hook_inert_when_disarmed():
    """The hook's disarmed state is the hot path: no behavior change."""
    from repro.machine.mpbackend import _maybe_inject_fault

    _maybe_inject_fault(0, 0)  # no spec: returns without effect
    pa, Xa = jacobi_program(12, 2, backend=None)
    pb, Xb = jacobi_program(12, 2, backend="multiprocessing")
    pa.run(iters=2)
    pb.run(iters=2)
    pb.session._mp_backend.close()
    np.testing.assert_array_equal(Xa.to_global(), Xb.to_global())


# ----------------------------------------------------------------------
# Run ids: unique across processes (forked workers inherit the counter)
# ----------------------------------------------------------------------


def test_run_ids_keyed_by_pid():
    rid = next_run_id()
    assert rid[0] == os.getpid()
    assert next_run_id() != rid


def test_run_ids_unique_across_forked_processes():
    """A forked child inherits the parent's counter state; ids must
    still never collide (two backends running concurrently allocate
    from different processes)."""
    parent_ids = [next_run_id() for _ in range(4)]
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()

    def child(q):
        q.put([next_run_id() for _ in range(4)])

    proc = ctx.Process(target=child, args=(queue,))
    proc.start()
    child_ids = queue.get(timeout=30)
    proc.join(timeout=30)
    assert set(parent_ids).isdisjoint(child_ids)
    # and the parent's own stream is unaffected
    assert next_run_id() not in parent_ids + child_ids


# ----------------------------------------------------------------------
# Trace records: stamped by rebuilding, never by mutation
# ----------------------------------------------------------------------


def test_stamp_recv_rebuilds_record_never_mutates():
    """A caller observing the trace mid-run holds the published record;
    stamping the consume time must replace the list entry, leaving the
    observed object (and its hash) untouched."""
    trace = Trace(n_procs=2)
    captured = {}

    def sender():
        yield Send(1, np.arange(3.0), tag="t")
        # the send is published (and the receiver has not run yet):
        # grab the record exactly as a mid-run observer would
        captured["rec"] = trace.messages[0]
        captured["hash"] = hash(captured["rec"])

    def receiver():
        yield Recv(src=0, tag="t")

    Machine(n_procs=2).run({0: sender(), 1: receiver()}, trace=trace)
    old = captured["rec"]
    assert old.t_recv is None, "published record was mutated in place"
    assert hash(old) == captured["hash"]
    new = trace.messages[0]
    assert new is not old
    assert new.t_recv is not None
    assert (new.src, new.dst, new.tag, new.nbytes, new.hops,
            new.t_send, new.t_arrive) == (
        old.src, old.dst, old.tag, old.nbytes, old.hops,
        old.t_send, old.t_arrive)


# ----------------------------------------------------------------------
# Snapshot/freeze: frozen base chains pass through, live views copy
# ----------------------------------------------------------------------


def test_snapshot_accepts_views_of_frozen_base():
    """A read-only view of a frozen owning array is by-value already:
    no surviving reference can mutate it, so neither _snapshot nor
    freeze_payload may copy it."""
    frozen = freeze_payload(np.arange(10.0))
    view = frozen[2:6]
    assert not view.flags.writeable and view.base is frozen
    assert frozen_by_value(view)
    assert _snapshot(view) is view
    assert freeze_payload(view) is view
    # chains of views resolve through to the owning array
    deeper = view[1:3]
    assert frozen_by_value(deeper)
    assert _snapshot(deeper) is deeper


def test_snapshot_still_copies_readonly_views_of_live_storage():
    """The other half of the contract, unweakened: read-only is not
    by-value when anything up the base chain is writable."""
    live = np.zeros(6)
    readonly = live[1:5].view()
    readonly.flags.writeable = False
    assert not frozen_by_value(readonly)
    snap = _snapshot(readonly)
    live[:] = 9.0
    np.testing.assert_array_equal(snap, np.zeros(4))
    frozen = freeze_payload(readonly)
    np.testing.assert_array_equal(frozen, np.full(4, 9.0))
    live[:] = -1.0
    np.testing.assert_array_equal(frozen, np.full(4, 9.0))


# ----------------------------------------------------------------------
# Deadlock diagnostics: pending mailbox keys
# ----------------------------------------------------------------------


def test_deadlock_error_lists_pending_mailbox_keys():
    """A tag near-miss hangs the receiver; the exception must show the
    message sitting undelivered in its mailbox."""
    def sender():
        yield Send(1, np.zeros(2), tag="right")

    def receiver():
        yield Recv(src=0, tag="wrong")

    with pytest.raises(DeadlockError) as exc_info:
        Machine(n_procs=2).run({0: sender(), 1: receiver()})
    err = exc_info.value
    assert err.blocked[1] == (0, "wrong")
    assert err.pending[1] == [(0, "right")]
    message = str(err)
    assert "undelivered mailbox" in message
    assert "'right'" in message


def test_deadlock_error_empty_mailbox_reported():
    def receiver():
        yield Recv(src=1, tag="never")

    def other():
        yield Recv(src=0, tag="never")

    with pytest.raises(DeadlockError) as exc_info:
        Machine(n_procs=2).run({0: receiver(), 1: other()})
    err = exc_info.value
    assert err.pending == {0: [], 1: []}
    assert "undelivered mailbox: empty" in str(err)

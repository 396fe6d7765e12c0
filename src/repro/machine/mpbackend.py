"""Shared-memory multiprocessing backend: real parallel replay of
compiled loop programs.

The simulator executes N ranks inside one Python process; this backend
executes them as N *real* forked worker processes, one per grid rank,
and keeps everything else -- results, schedule accounting, and the
cost-model-stamped trace -- bit-identical to the simulator.  The design
lowers exactly the frozen artifacts the compiler already produces:

* **plan shipping**: each rank's frozen
  :class:`~repro.compiler.commgen.StepPlan` (closures, workspaces,
  store coordinates) and :class:`~repro.compiler.commsched.TransferSchedule`
  index arrays are materialized in the parent and inherited by the
  workers at ``fork`` time -- shipped once per plan freeze, never per
  sweep.  Fork is mandatory: plans contain compiled closures that
  cannot (and should never need to) be pickled.
* **shared-memory array storage**: every distributed array block the
  program touches is *adopted* into a
  :mod:`multiprocessing.shared_memory` segment before the workers fork,
  so worker stores are immediately visible to the parent (``to_global``
  and bindings keep working unchanged) and gather/scatter value vectors
  move through preallocated shared slots -- no pickling, no payload
  copies through a queue, per sweep.
* **steady-state replay as real execution**: a sweep is two (three with
  remote writes) barrier-separated phases per loop -- fill the gather
  slots and do local moves; drain slots into workspaces, evaluate the
  prebound statement closures, store; apply incoming scatter values.
  The phase structure realizes the same copy-in/copy-out semantics the
  event-driven simulator enforces through virtual time, so the floats
  are bit-identical.
* **the simulator as trace oracle**: trace *timings* are statements of
  the cost model, not of the host machine, so the backend derives its
  trace by running the inner reference :class:`Machine` over data-free
  shadow op streams (:func:`repro.compiler.schedule.shadow_replay_analysis`)
  that mirror the replay exactly -- same marks, flops, tags, and byte
  counts.  Shadow traces are cached per (plans, iters, mode), so
  repeated runs of one program pay for the oracle once.

Generic (non-loop) node programs -- parsub routines, hand-written
message passing -- are delegated to the inner simulator unchanged:
generators close over arbitrary shared state and are exactly what the
reference backend exists to execute.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Any, Callable, Iterable

import numpy as np

from repro.machine.backend import Backend, NodeProgram
from repro.machine.costmodel import CostModel
from repro.machine.simulator import Machine
from repro.machine.topology import Topology
from repro.machine.trace import Trace
from repro.util.errors import MachineError, ValidationError

#: Live worker pools, closed at interpreter exit as a safety net (the
#: backend closes its pool deterministically; this catches abandoned
#: backends so shared-memory segments never outlive the parent).
_ALL_POOLS: "weakref.WeakSet[_WorkerPool]" = weakref.WeakSet()


@atexit.register
def _close_all_pools() -> None:  # pragma: no cover - interpreter exit
    for pool in list(_ALL_POOLS):
        pool.close()


#: Fault injection: ``{"rank": r, "sweep": s, "action": a}`` makes
#: worker ``r`` fail at the start of its ``s``-th sweep (counted across
#: runs within one pool's life) -- ``"raise"`` raises inside the sweep
#: driver (the worker reports a traceback), ``"exit"`` kills the
#: process outright (``os._exit``, no goodbye on the pipe).  An
#: optional ``"delay_s"`` sleeps before failing (a slow death: peers
#: block in the barrier for that long, modeling delayed recovery).
#: Workers inherit the value at fork time, so set it *before* the pool
#: spawns and clear it after; ``None`` (the default) is dead code on
#: the hot path.  The supported way to drive this is the
#: :mod:`repro.faults` chaos API, which also arms :data:`_FAULT_OBSERVER`
#: to count firings and disarm transient faults.
_FAULT_INJECTION: dict | None = None

#: Parent-side hook called with the sorted failed-rank tuple whenever a
#: pool run fails, *before* the MachineError is raised.  Installed by
#: :mod:`repro.faults` to implement fault budgets (``times=``); ``None``
#: means no observer.
_FAULT_OBSERVER = None


def _maybe_inject_fault(rank: int, sweeps_done: int) -> None:
    spec = _FAULT_INJECTION
    if not spec:
        return
    target = spec.get("rank")
    if rank != target and not (
        not isinstance(target, int) and rank in target
    ):
        return
    if sweeps_done != spec.get("sweep", 0):
        return
    delay = spec.get("delay_s", 0.0)
    if delay:
        time.sleep(delay)
    if spec.get("action") == "exit":
        os._exit(1)
    raise RuntimeError(
        f"injected fault on rank {rank} at sweep {sweeps_done}"
    )


class MultiprocessingBackend(Backend):
    """Execute compiled loop programs on real shared-memory workers.

    Wraps an inner reference :class:`~repro.machine.simulator.Machine`
    that defines the modeled hardware (topology, cost model) and serves
    as the trace oracle.  ``run`` on arbitrary node programs delegates
    to it; the parallel fast path (:meth:`run_loops`) engages for
    frozen loop :class:`~repro.session.Program` replays, which
    ``Program.run(backend=...)`` routes here.

    One persistent worker pool is kept per backend, keyed on the plan
    identities, array layout epochs, and grid of the last program run;
    running a different program (or redistributing an array) tears the
    pool down and respawns against the new frozen plans.  Call
    :meth:`close` (or use the backend as a context manager) to release
    the workers and shared-memory segments deterministically.
    """

    def __init__(
        self,
        machine: Machine | None = None,
        *,
        n_procs: int | None = None,
        topology: Topology | None = None,
        cost: CostModel | None = None,
    ):
        if machine is None:
            machine = Machine(n_procs=n_procs, topology=topology, cost=cost)
        elif n_procs is not None or topology is not None or cost is not None:
            raise ValidationError(
                "pass either a machine or its parameters, not both"
            )
        #: the inner reference simulator: defines topology/cost, runs
        #: generic node programs, and produces the oracle traces
        self.machine = machine
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX hosts
            raise ValidationError(
                "the multiprocessing backend requires the 'fork' start "
                "method (compiled plans hold closures that cannot be "
                "pickled); this platform does not provide it"
            ) from None
        self._pool: _WorkerPool | None = None
        # oracle-trace templates: key -> (strong analysis refs, Trace).
        # The refs pin the analyses so a key's embedded id()s can never
        # alias a recycled object.
        self._oracle: OrderedDict[tuple, tuple[tuple, Trace]] = OrderedDict()

    # -- Backend surface ---------------------------------------------------

    @property
    def topology(self) -> Topology:  # type: ignore[override]
        return self.machine.topology

    @property
    def cost(self) -> CostModel:  # type: ignore[override]
        return self.machine.cost

    def run(
        self,
        programs: dict[int, NodeProgram] | Callable[[int], NodeProgram],
        ranks: Iterable[int] | None = None,
        trace: Trace | None = None,
    ) -> Trace:
        """Run arbitrary node programs on the inner reference machine.

        Generator node programs close over shared in-process state
        (arrays, caches, staged repartitions), so the reference
        semantics *is* their parallel semantics; only frozen loop
        replays (:meth:`run_loops`) have the data-flow structure that
        lowers onto real processes.
        """
        return self.machine.run(programs, ranks=ranks, trace=trace)

    # -- the parallel fast path --------------------------------------------

    def run_loops(
        self,
        session,
        loops,
        grid,
        *,
        iters: int = 1,
        overlap: bool = False,
        marks: str | None = None,
    ) -> Trace:
        """Replay a frozen loop program with real parallel workers.

        Resolves each rank's run through the same driver as
        ``Program.run`` on the simulator
        (:func:`~repro.compiler.schedule.resolve_sweeps`: one probe per
        loop per rank, as-if hits after, so cache accounting is
        identical), executes ``iters`` sweeps on the worker pool, and
        returns the oracle trace of exactly those replays.  The caller
        (``Program.run``) records the trace in the session history.
        """
        from repro.compiler.schedule import resolve_sweeps

        if grid.size > self.n_procs:
            raise ValidationError(
                f"grid of {grid.size} procs exceeds machine size {self.n_procs}"
            )
        sweeps = {
            rank: list(resolve_sweeps(session.plans, loops, iters))
            for rank in grid.linear
        }
        analyses = [analysis for analysis, _ in sweeps[grid.linear[-1]][:len(loops)]]

        pool = self._ensure_pool(analyses, grid)
        pool.run_sweeps(iters)

        return self._oracle_trace(session, analyses, grid, overlap, marks, sweeps)

    # -- worker pool management --------------------------------------------

    def _ensure_pool(self, analyses, grid) -> "_WorkerPool":
        key = _pool_key(analyses, grid)
        pool = self._pool
        if pool is not None:
            if pool.key == key and pool.alive():
                return pool
            pool.close()
            self._pool = None
        pool = _WorkerPool(self._mp, analyses, grid, key)
        self._pool = pool
        return pool

    def close(self) -> None:
        """Release the worker pool and its shared-memory segments.

        Array blocks adopted into shared memory are copied back into
        private storage first, so the arrays stay fully usable.  The
        backend itself remains usable: the next ``run_loops`` respawns
        a pool.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "MultiprocessingBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- the trace oracle --------------------------------------------------

    def _oracle_trace(self, session, analyses, grid, overlap, marks, sweeps) -> Trace:
        """The simulator's trace of the per-rank replays in ``sweeps``
        (rank -> ``(analysis, reused)`` per loop execution)."""
        marks_mode = marks if marks is not None else getattr(session, "marks", "full")
        key = (
            tuple(id(a) for a in analyses),
            grid.key(),
            id(self.machine),
            overlap,
            marks_mode,
            # run length plus each rank's first-sweep build/hit flags
            # (every later replay is a hit)
            tuple(
                (len(seq), tuple(r for _, r in seq[:len(analyses)]))
                for seq in sweeps.values()
            ),
        )
        entry = self._oracle.get(key)
        if entry is None:
            template = self._shadow_run(session, grid, overlap, marks_mode, sweeps)
            self._oracle[key] = entry = (tuple(analyses), template)
            while len(self._oracle) > 32:
                self._oracle.popitem(last=False)
        else:
            self._oracle.move_to_end(key)
        template = entry[1]
        # materialize a fresh Trace per run; record objects are immutable
        # once a run finishes, so sharing them across materializations is
        # safe while the lists/dicts stay caller-owned
        return Trace(
            n_procs=template.n_procs,
            computes=list(template.computes),
            messages=list(template.messages),
            marks=list(template.marks),
            finish_times=dict(template.finish_times),
            level=template.level,
            mark_counts=dict(template.mark_counts),
        )

    def _shadow_run(self, session, grid, overlap, marks_mode, sweeps) -> Trace:
        from repro.compiler.schedule import shadow_replay_analysis

        def shadow(ctx):
            for analysis, reused in sweeps[ctx.rank]:
                yield from shadow_replay_analysis(
                    ctx, analysis, overlap=overlap, reused=reused
                )

        return session._execute(self.machine, grid, shadow, marks_mode)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiprocessingBackend({self.machine!r}, "
            f"pool={'up' if self._pool is not None else 'down'})"
        )


# ----------------------------------------------------------------------
# Worker pool: shared-memory adoption, slot table, forked rank workers
# ----------------------------------------------------------------------


def _storage_of(array):
    """The block-owning array beneath ``array`` (sections peel off)."""
    while not hasattr(array, "_blocks"):
        array = array.base
    return array


def _pool_key(analyses, grid) -> tuple:
    """Identity of the frozen state a pool was built against.

    Embeds the analysis identities (the plans shipped at fork time) and
    every touched array's storage identity + layout epoch, so a
    redistribution -- or a different program -- forces a respawn
    against fresh plans and fresh block adoption.
    """
    arrays = []
    seen: set[int] = set()
    for analysis in analyses:
        for arr in analysis.loop.arrays():
            base = _storage_of(arr)
            if id(base) not in seen:
                seen.add(id(base))
                arrays.append(base)
    return (
        grid.key(),
        tuple(id(a) for a in analyses),
        tuple((id(arr), arr.comm_epoch) for arr in arrays),
    )


class _LoopStep:
    """One rank's worker-side recipe for one loop of the program.

    Everything is pre-resolved to concrete ndarrays (shared-memory
    block views, transfer slots, plan workspaces) in the parent before
    the fork; the per-sweep drive is pure array copies and the plan's
    prebound closures.
    """

    __slots__ = (
        "gather_sends",   # (slot, block, src_idx): slot[...] = block[src_idx]
        "local_moves",    # (buf, dst_idx, block, src_idx)
        "gather_recvs",   # (buf, dst_idx, slot): buf[dst_idx] = slot
        "evals",          # the StepPlan's prebound rhs closures
        "stores",         # per stmt: ("box"|"flat"|"transfer", ...) | None
        "scatter_recvs",  # (block, piece, slot): block[piece] = slot
        "has_remote",     # loop-level: any rank scatters (phase C exists)
    )

    def __init__(self):
        self.gather_sends: list[tuple] = []
        self.local_moves: list[tuple] = []
        self.gather_recvs: list[tuple] = []
        self.evals: list = []
        self.stores: list = []
        self.scatter_recvs: list[tuple] = []
        self.has_remote = False


def _build_script(analyses, me: int, slots: dict) -> list[_LoopStep]:
    """Resolve one rank's frozen plans against the shared slot table."""
    steps: list[_LoopStep] = []
    for n, analysis in enumerate(analyses):
        plan = analysis.step_plan(me)
        step = _LoopStep()
        step.evals = plan.evals
        step.has_remote = analysis.has_remote_writes
        for wire, array, sched, buf in plan.reads:
            if sched is None:
                continue
            block = (
                array.local(me)
                if (sched.sends or sched.self_src is not None)
                else None
            )
            for dst, src_idx in sched.sends:
                step.gather_sends.append((slots[(n, wire, me, dst)], block, src_idx))
            if buf is not None and sched.self_src is not None:
                step.local_moves.append((buf, sched.self_dst, block, sched.self_src))
            if buf is not None:
                for src, dst_idx in sched.recvs:
                    step.gather_recvs.append((buf, dst_idx, slots[(n, wire, src, me)]))
        for store in plan.stores:
            if store is None:
                step.stores.append(None)
                continue
            kind = store[0]
            if kind == "box":
                _, array, locs, perm, boxshape = store
                step.stores.append(("box", array.local(me), locs, perm, boxshape))
            elif kind == "flat":
                _, array, locs = store
                step.stores.append(("flat", array.local(me), locs))
            else:  # "transfer": scatter through the slot table
                _, array, sched, wire = store
                block = array.local(me)
                sends = [
                    (slots[(n, wire, me, dst)], sel) for dst, sel in sched.sends
                ]
                step.stores.append(
                    ("transfer", block, sched.self_dst, sched.self_src, sends)
                )
                for src, piece in sched.recvs:
                    step.scatter_recvs.append(
                        (block, piece, slots[(n, wire, src, me)])
                    )
        steps.append(step)
    return steps


def _run_step(step: _LoopStep, barrier) -> None:
    """One sweep of one loop on one worker.

    Phase A fills this rank's outgoing gather slots from its (pre-store)
    blocks and copies owned data into the plan workspaces -- the
    barrier then guarantees every rank's copy-in snapshot is complete
    before any rank stores, which is exactly the ordering the simulator
    enforces by sending pre-store payloads.  Phase B drains incoming
    slots into the workspaces, evaluates the prebound closures, and
    stores (filling scatter slots for remote writes).  Phase C -- only
    when the loop scatters at all -- applies incoming scatter values
    after a second barrier.  The trailing barrier protects slot reuse
    by the next loop/sweep.  Every rank executes the same barrier
    count per step (the phase structure depends only on loop-level
    facts), so the pool can never split-brain.
    """
    for slot, block, src_idx in step.gather_sends:
        slot[...] = block[src_idx]
    for buf, dst_idx, block, src_idx in step.local_moves:
        buf[dst_idx] = block[src_idx]
    barrier.wait()
    for buf, dst_idx, slot in step.gather_recvs:
        buf[dst_idx] = slot
    values_by_stmt = [None if fn is None else fn() for fn in step.evals]
    for values, store in zip(values_by_stmt, step.stores):
        if store is None:
            continue
        kind = store[0]
        if kind == "box":
            _, block, locs, perm, boxshape = store
            block[locs] = values.transpose(perm).reshape(boxshape)
        elif kind == "flat":
            _, block, locs = store
            block[locs] = values.reshape(-1)
        else:
            _, block, self_dst, self_src, sends = store
            flat = None if values is None else values.reshape(-1)
            if self_src is not None:
                block[self_dst] = flat[self_src]
            for slot, sel in sends:
                slot[...] = flat[sel]
    if step.has_remote:
        barrier.wait()
        for block, piece, slot in step.scatter_recvs:
            block[piece] = slot
    barrier.wait()


def _worker_main(rank: int, conn, barrier, steps: list[_LoopStep]) -> None:
    """Persistent rank worker: drive sweeps on command until told to exit."""
    sweeps_done = 0
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "exit":
            return
        if msg[0] != "run":  # pragma: no cover - defensive
            conn.send(("err", rank, f"unknown command {msg!r}"))
            continue
        try:
            for _ in range(msg[1]):
                _maybe_inject_fault(rank, sweeps_done)
                for step in steps:
                    _run_step(step, barrier)
                sweeps_done += 1
            conn.send(("ok", rank))
        except threading.BrokenBarrierError:
            # a peer failed first and aborted the barrier: report, but
            # as a survivor, not as a failed rank
            conn.send(("broken", rank, traceback.format_exc()))
        except Exception:
            # break the other ranks out of their barriers, then report
            try:
                barrier.abort()
            except Exception:  # pragma: no cover - defensive
                pass
            conn.send(("err", rank, traceback.format_exc()))


class _WorkerPool:
    """Forked rank workers + the shared-memory state they execute on."""

    def __init__(self, mp, analyses, grid, key: tuple):
        self.key = key
        self.ranks = list(grid.linear)
        self._closed = False
        self._segments: list[shared_memory.SharedMemory] = []
        # (storage array, rank, shm view, original private block)
        self._adopted: list[tuple] = []
        self._slots: dict[tuple, np.ndarray] = {}
        self._procs: dict[int, Any] = {}
        self._pipes: dict[int, Any] = {}
        self._barrier = mp.Barrier(len(self.ranks))
        _ALL_POOLS.add(self)
        try:
            self._adopt_arrays(analyses)
            self._build_slots(analyses, grid)
            # materialize every rank's script *before* the first fork so
            # all workers inherit identical frozen state
            scripts = {
                rank: _build_script(analyses, rank, self._slots)
                for rank in self.ranks
            }
            for rank in self.ranks:
                parent_conn, child_conn = mp.Pipe()
                proc = mp.Process(
                    target=_worker_main,
                    args=(rank, child_conn, self._barrier, scripts[rank]),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._procs[rank] = proc
                self._pipes[rank] = parent_conn
        except BaseException:
            self.close()
            raise

    # -- shared-memory adoption -------------------------------------------

    def _shm_ndarray(self, shape, dtype) -> np.ndarray:
        nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        seg = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        self._segments.append(seg)
        return np.ndarray(shape, dtype=dtype, buffer=seg.buf)

    def _adopt_arrays(self, analyses) -> None:
        """Move every touched array's blocks into shared memory.

        The shm-backed view *replaces* the private block in the array's
        own ``_blocks`` dict, so the parent's bindings (``from_global``)
        and reads (``to_global``) flow through shared memory untouched
        -- and the forked workers observe binding writes made between
        runs.  ``close`` copies the contents back and restores the
        private blocks.
        """
        seen: set[int] = set()
        for analysis in analyses:
            for arr in analysis.loop.arrays():
                storage = _storage_of(arr)
                if id(storage) in seen:
                    continue
                seen.add(id(storage))
                for rank, block in list(storage._blocks.items()):
                    view = self._shm_ndarray(block.shape, block.dtype)
                    view[...] = block
                    storage._blocks[rank] = view
                    self._adopted.append((storage, rank, view, block))

    def _build_slots(self, analyses, grid) -> None:
        """One shared slot per frozen message: the wire, minus the wire.

        Keyed ``(loop_idx, wire_kind, src, dst)``; each schedule sends
        at most one message per (destination, wire) per sweep, so a
        slot is written exactly once between barriers.  Gather slots
        take the sender's open-mesh payload shape (identical to the
        receiver's workspace positions shape -- both sides froze the
        same per-dimension global index lists); scatter slots are flat
        value runs.
        """
        for n, analysis in enumerate(analyses):
            for arr_idx, plans in enumerate(analysis.read_plans):
                for rank in self.ranks:
                    plan = plans[rank]
                    sched = plan.transfer
                    if sched is None:
                        continue
                    for dst, src_idx in sched.sends:
                        shape = tuple(int(np.asarray(a).size) for a in src_idx)
                        self._slots[(n, f"gh{arr_idx}", rank, dst)] = (
                            self._shm_ndarray(shape, plan.array.dtype)
                        )
            for stmt_idx, wplans in enumerate(analysis.write_plans):
                dtype = analysis.stmts[stmt_idx].lhs_array.dtype
                for rank in self.ranks:
                    sched = wplans[rank].transfer
                    if sched is None:
                        continue
                    for dst, sel in sched.sends:
                        shape = (int(np.asarray(sel).size),)
                        self._slots[(n, f"wr{stmt_idx}", rank, dst)] = (
                            self._shm_ndarray(shape, dtype)
                        )

    # -- driving ----------------------------------------------------------

    def alive(self) -> bool:
        return (
            not self._closed
            and bool(self._procs)
            and all(p.is_alive() for p in self._procs.values())
        )

    def run_sweeps(self, iters: int) -> None:
        """Execute ``iters`` full sweeps (all loops, in order) on all ranks.

        Completions are collected round-robin over every outstanding
        rank, never blocking on one: a rank killed outright (e.g. by
        the OOM killer, or the fault-injection tests' ``os._exit``)
        leaves its *peers* stuck in the sweep barrier, so waiting on
        ranks in order would deadlock on the first stuck peer and never
        reach the dead one.  The first death detected aborts the
        barrier, which breaks the peers out (they report
        BrokenBarrierError tracebacks); every failure is then raised as
        one MachineError with per-rank sections.  Its ``failed_ranks``
        names only the ranks that died or raised on their own -- never
        the survivors broken out of the barrier.
        """
        if self._closed:
            raise MachineError("worker pool is closed")
        for conn in self._pipes.values():
            conn.send(("run", iters))
        failures: list[tuple[int, str]] = []
        survivors: list[tuple[int, str]] = []  # broken out of the barrier
        pending = dict(self._pipes)
        while pending:
            for rank in list(pending):
                conn = pending[rank]
                if conn.poll(0.05):
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        # poll() also returns True on EOF: the worker
                        # died between finishing a send and our read,
                        # or without sending at all
                        failures.append(
                            (rank, "worker process died (pipe closed)")
                        )
                        self._abort_barrier()
                    else:
                        if msg[0] == "err":
                            failures.append((rank, msg[2]))
                        elif msg[0] == "broken":
                            survivors.append((rank, msg[2]))
                    del pending[rank]
                elif not self._procs[rank].is_alive():
                    failures.append((rank, "worker process died"))
                    # release peers stuck waiting for the dead rank
                    self._abort_barrier()
                    del pending[rank]
        if failures or survivors:
            self.close()
            failed_ranks = tuple(sorted(rank for rank, _ in failures))
            observer = _FAULT_OBSERVER
            if observer is not None:
                try:
                    observer(failed_ranks)
                except Exception:  # pragma: no cover - defensive
                    pass
            detail = "\n".join(
                f"-- rank {rank} --\n{tb}"
                for rank, tb in sorted(failures + survivors)
            )
            err = MachineError(
                "multiprocessing backend worker failure:\n" + detail
            )
            #: consumed by the Supervisor's RecoveryLog
            err.failed_ranks = failed_ranks
            raise err

    def _abort_barrier(self) -> None:
        try:
            self._barrier.abort()
        except Exception:  # pragma: no cover - defensive
            pass

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Stop workers, un-adopt arrays, release shared memory."""
        if self._closed:
            return
        self._closed = True
        for conn in self._pipes.values():
            try:
                conn.send(("exit",))
            except (OSError, ValueError):
                pass
        for proc in self._procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._pipes.values():
            conn.close()
        # drop every parent-side reference into the segments (Process
        # objects hold the scripts via their args) before closing them
        self._procs = {}
        self._pipes = {}
        self._slots = {}
        for storage, rank, view, block in self._adopted:
            if storage._blocks.get(rank) is view:
                block[...] = view
                storage._blocks[rank] = block
        self._adopted = []
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - lingering view
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []

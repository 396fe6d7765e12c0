"""Per-processor execution of compiled doall loops.

``execute_doall(ctx, loop)`` is a generator of machine ops implementing
one rank's share of the loop:

1. replay the send half of each read array's frozen gather
   :class:`~repro.compiler.commsched.TransferSchedule` (payload
   snapshotted -> the receiver observes pre-loop values: copy-in) and
   perform its local move into the workspace;
2. replay the receive half: ghost regions land in the workspace through
   the schedule's precomputed scatter positions;
3. evaluate all statement right-hand sides vectorized over the local
   iteration box (one Compute op charges the flop count);
4. replay each statement's frozen scatter TransferSchedule: local
   stores and outgoing remote-write messages read the flat value vector
   through precomputed selection arrays, incoming messages (values
   only, no index lists on the wire) land through precomputed
   local-block coordinates.

With ``overlap=True`` the executor models communication/computation
overlap: since the gather sends of phase 1 are asynchronous, the
iteration points whose reads are all locally owned (the *interior*,
derived by ``LoopAnalysis.interior_count``) are charged as a Compute op
*between* phases 1 and 2, so that work proceeds while ghost values are
in flight; only the remaining boundary points are charged after the
receives.  The wire content is identical in both modes -- overlap
changes when time is charged, never what is sent.

Analyses are cached by structural loop key, so loops re-executed every
iteration (the common case) compile once; the read-side gather
schedules and the write-side scatter schedules both replay from the
cached analysis through the shared transfer executor without
re-deriving any index list.

One executor drives the phases: it replays the rank's frozen
:class:`~repro.compiler.commgen.StepPlan` -- statement right-hand sides
lowered once into closures over pre-bound numpy ufuncs, array
references pre-resolved to workspace positions (slice views for box
patterns), store coordinates frozen, workspaces persistent -- so the
steady-state sweep never walks an expression AST or evaluates an
affine index.  Single runs (:func:`replay_analysis`) and batched
ensembles (:func:`replay_batch_analysis`) share it and differ only in
data.  :func:`interpret_doall` re-derives all of that per sweep and is
kept as the reference semantics; both produce bit-identical results,
traces, and cache accounting (see docs/performance.md).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from repro.compiler import access as acc
from repro.compiler.commgen import LoopAnalysis
from repro.compiler.commsched import (
    execute_transfer,
    transfer_local_move,
    transfer_recvs,
    transfer_sends,
    uid_chain,
)
from repro.lang.doall import Doall
from repro.lang.expr import BinOp, Const, Ref
from repro.machine.ops import Compute, Mark, Recv, Send
from repro.util.errors import CompileError, ValidationError

#: Every live PlanCache (including session-owned ones), so that
#: layout-invalidation hooks (``drop_plans_for_array``) reach plans no
#: matter which Session compiled them.  Weak: a Session's caches die
#: with the Session.
_ALL_PLAN_CACHES: "weakref.WeakSet[PlanCache]" = weakref.WeakSet()


def _loop_uids(loop: Doall) -> tuple:
    """uids of every array (and section base) the loop touches."""
    out: set[int] = set()
    for arr in loop.arrays():
        out.update(uid_chain(arr))
    return tuple(out)


class PlanCache:
    """Keyed store of compiled plans with per-kind hit/miss accounting.

    Holds every *locally derivable* compiled artifact: doall loop
    analyses (kind ``"doall"`` -- these carry the frozen gather/scatter
    :class:`~repro.compiler.commsched.TransferSchedule` objects) and the
    ADI line-solve plans (kind ``"adi-line"``,
    :mod:`repro.tensor.adi`).  Wire schedules that need a collective
    build protocol live in the companion
    :class:`~repro.compiler.commsched.ScheduleCache` instead.

    Entries are LRU-bounded: plan keys embed each array's ``comm_epoch``
    (and uid), so a redistribution orphans the old entries; they are
    purged eagerly by :func:`drop_plans_for_array` and, as a backstop,
    evicted once the cache exceeds the cap.  Eviction is always safe --
    plans are derived deterministically and locally, so a rank
    recompiling what another rank still has cached produces identical
    communication.

    The cache is **thread-safe** and may be shared by many Sessions (the
    serving layer, :mod:`repro.serve`, does exactly that): every probe,
    store, LRU touch, counter bump, and purge happens under one
    re-entrant lock, and a miss holds the lock *across* ``build()`` so
    one compile serves every concurrent requester of the same key --
    compile once, serve everyone.  That is sound because the cached
    artifacts are immutable once published: a
    :class:`~repro.compiler.commgen.LoopAnalysis` and its frozen
    :class:`~repro.compiler.commsched.TransferSchedule` objects are
    never mutated after construction, and the analysis's two lazy
    memoizations (per-rank StepPlans, the overlap interior split) are
    guarded by the analysis's own lock -- so replaying a shared plan
    from many threads needs no further synchronization.  See
    "Thread safety and the immutability contract" in ``docs/api.md``.

    >>> cache = PlanCache(max_entries=8)
    >>> cache.get("demo", ("k",), lambda: 42)
    (42, False)
    >>> cache.get("demo", ("k",), lambda: 43)   # replays the cached plan
    (42, True)
    >>> cache.kind_stats()
    {'demo': {'hits': 1, 'misses': 1}}
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries <= 0:
            raise ValidationError("PlanCache needs max_entries >= 1")
        self.max_entries = max_entries
        # (kind, key) -> (plan, uids of the arrays the plan was built on)
        self._entries: OrderedDict[tuple, tuple[Any, tuple]] = OrderedDict()
        #: per-kind hit/miss counters, e.g. ``{"doall": {"hits": 9,
        #: "misses": 1}}``
        self.by_kind: dict[str, dict[str, int]] = {}
        # guards entries, LRU order, and counters; re-entrant because a
        # build() may consult the cache it is being stored into
        self._lock = threading.RLock()
        _ALL_PLAN_CACHES.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, kind: str, outcome: str) -> None:
        d = self.by_kind.setdefault(kind, {"hits": 0, "misses": 0})
        d[outcome] += 1

    def get(self, kind: str, key, build: Callable[[], Any], uids=(),
            count: bool = True) -> tuple[Any, bool]:
        """Cached plan under ``(kind, key)``; returns ``(plan, was_cached)``.

        On a miss ``build()`` derives the plan, which is stored tagged
        with ``uids`` (the arrays it depends on) so
        :meth:`drop_for_array` can purge it on redistribution; pass a
        zero-argument callable to defer that derivation to the miss
        path and keep hits walk-free.  ``count=False`` makes a
        read-only peek: the hit counter stays untouched, so
        static-analysis lookups (estimates, explain) do not inflate the
        replay statistics.  A miss always counts -- it did the compile
        work.

        The lock is held across ``build()``: concurrent requesters of
        one uncompiled key serialize on the single compile and all
        receive the same plan object, instead of racing N redundant
        compiles whose last store wins.
        """
        k = (kind, key)
        with self._lock:
            entry = self._entries.get(k)
            if entry is not None:
                self._entries.move_to_end(k)
                if count:
                    self._count(kind, "hits")
                return entry[0], True
            plan = build()
            self._count(kind, "misses")
            self._entries[k] = (plan, tuple(uids() if callable(uids) else uids))
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return plan, False

    def analysis(self, loop: Doall, count: bool = True) -> tuple[LoopAnalysis, bool]:
        """Cached :class:`LoopAnalysis` of ``loop``; ``(analysis, was_cached)``.

        The structural key is computed once here -- it walks the whole
        loop body, so the replay path must not derive it twice per
        execution.
        """
        # uids deferred to the miss path: a replay must pay for one
        # loop-body walk (the key), never two
        return self.get(
            "doall", loop.key(), lambda: LoopAnalysis(loop),
            uids=lambda: _loop_uids(loop), count=count,
        )

    def count_replay(self, kind: str) -> None:
        """Record an as-if hit for a plan the caller already holds.

        The run driver (:func:`resolve_sweeps`) resolves each loop's
        analysis once per run and replays it every sweep; the
        interpreted path probes the cache per sweep instead.  Counting
        the replays here keeps the hit/miss accounting identical between
        the two executors without paying for the structural key walk.
        """
        with self._lock:
            self._count(kind, "hits")

    def clear_kind(self, kind: str) -> int:
        """Drop every plan of one kind; returns the count removed."""
        with self._lock:
            doomed = [k for k in self._entries if k[0] == kind]
            for k in doomed:
                del self._entries[k]
            return len(doomed)

    def drop(self, kind: str, key) -> None:
        with self._lock:
            self._entries.pop((kind, key), None)

    def drop_loop(self, loop: Doall) -> None:
        self.drop("doall", loop.key())

    def drop_for_array(self, array) -> int:
        """Purge every plan built against ``array`` (or a section of
        it); returns the count.  Called on redistribution so orphaned
        plans (their keys embed the old comm epoch) do not accumulate.
        """
        uid = array.uid
        with self._lock:
            doomed = [k for k, (_, uids) in self._entries.items() if uid in uids]
            for k in doomed:
                del self._entries[k]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.by_kind = {}

    def transfer_count(self) -> int:
        """Per-rank transfer schedules frozen inside the cached doall
        analyses (their gather and scatter schedules)."""
        with self._lock:
            return sum(
                plan.transfer is not None
                for (kind, _), (analysis, _) in self._entries.items()
                if kind == "doall"
                for plans in analysis.read_plans + analysis.write_plans
                for plan in plans.values()
            )

    def stats(self) -> dict[str, int]:
        with self._lock:
            hits = sum(d["hits"] for d in self.by_kind.values())
            misses = sum(d["misses"] for d in self.by_kind.values())
            return {
                "entries": len(self._entries), "hits": hits, "misses": misses,
            }

    def kind_stats(self) -> dict[str, dict[str, int]]:
        """Per-kind hit/miss counters (kinds seen so far)."""
        with self._lock:
            return {k: dict(v) for k, v in self.by_kind.items()}


#: Plan cache behind the implicit default Session (the deprecated
#: ``run_spmd`` / hand-wired ``KaliCtx`` path).  Sessions own their own
#: PlanCache; see :mod:`repro.session`.
DEFAULT_PLANS = PlanCache()


def plans_of(ctx) -> PlanCache:
    """The plan cache governing ``ctx``: its Session's, else the default."""
    session = getattr(ctx, "session", None)
    return DEFAULT_PLANS if session is None else session.plans


def clear_plan_cache() -> None:
    """Reset the default plan cache -- doall analyses *and* every other
    plan kind riding in it, e.g. the ADI line plans (mostly for tests).
    Session-owned caches are unaffected; clear those per session."""
    DEFAULT_PLANS.clear()


def drop_plan(loop: Doall) -> None:
    """Forget one loop's cached analysis in *every* live plan cache
    (``Doall.invalidate_plan`` hook)."""
    for cache in list(_ALL_PLAN_CACHES):
        cache.drop_loop(loop)


def drop_plans_for_array(array) -> int:
    """Purge plans referencing ``array`` from every live plan cache."""
    return sum(cache.drop_for_array(array) for cache in list(_ALL_PLAN_CACHES))


def get_analysis(loop: Doall) -> tuple[LoopAnalysis, bool]:
    """Cached analysis of ``loop`` in the default plan cache."""
    return DEFAULT_PLANS.analysis(loop)


def execute_doall(ctx, loop: Doall, overlap: bool = False):
    """Yield the machine ops realizing this rank's share of ``loop``.

    With ``overlap=True`` the interior iteration points (reads all
    locally owned) are charged before the ghost receives, modeling
    computation proceeding while remote values are in flight; the wire
    content is unchanged.

    Probes the plan cache for the loop's analysis, then replays the
    rank's frozen :class:`~repro.compiler.commgen.StepPlan` --
    prebound numpy calls, no per-sweep expression interpretation.
    :func:`interpret_doall` is the interpreted reference with
    bit-identical results, traces, and cache accounting.
    """
    me = ctx.rank
    if not loop.grid.contains(me):
        raise CompileError(f"rank {me} executing doall outside its grid")
    analysis, reused = plans_of(ctx).analysis(loop)
    yield from replay_analysis(ctx, analysis, overlap=overlap, reused=reused)


def resolve_sweeps(plans: PlanCache, loops, iters: int):
    """Yield ``(analysis, reused)`` for every loop execution of a run.

    The resolve-once steady-state driver behind every frozen loop
    program run (``Program.run``, ``Program.run_batch``, the
    multiprocessing backend and its shadow trace): ``iters`` sweeps of
    ``loops`` in order, each loop's analysis probed in ``plans`` at its
    first execution only.  Later sweeps replay the pinned analysis --
    skipping the structural-key walk -- and count as-if hits, so the
    accounting equals one probe per execution, as with
    :func:`execute_doall`.  Loop programs contain no redistribution, so
    a pinned analysis cannot go stale within a run; between runs the
    probe picks up any layout change.
    """
    resolved: list = [None] * len(loops)
    for _ in range(iters):
        for n, loop in enumerate(loops):
            if resolved[n] is None:
                resolved[n], reused = plans.analysis(loop)
            else:
                reused = True
                plans.count_replay("doall")
            yield resolved[n], reused


def replay_analysis(
    ctx, analysis: LoopAnalysis, overlap: bool = False, reused: bool = True,
):
    """Drive one rank's share of an already-resolved doall analysis.

    The replay half of :func:`execute_doall`, split out so a caller
    holding the analysis (:func:`resolve_sweeps` resolves each loop's
    plan once per run) can skip the per-sweep cache probe -- the
    structural key walk -- entirely.  ``reused`` feeds the
    ``commsched/hit`` vs ``commsched/build`` mark, mirroring what a
    probe would have reported.
    """
    me = ctx.rank
    yield from _replay(
        ctx, analysis.step_plan(me), overlap, reused, lambda array: array.local(me)
    )


def replay_batch_analysis(
    ctx, analysis: LoopAnalysis, blocks: dict, nbatch: int,
    overlap: bool = False, reused: bool = True,
):
    """Drive one rank's share of a doall over ``nbatch`` bindings at once.

    The batched twin of :func:`replay_analysis` behind
    ``Program.run_batch``: the same frozen schedules replay once per
    sweep, but every fetch, closure, and store carries a leading batch
    axis, so one pass advances all ensemble members together.  ``blocks``
    maps ``array.uid`` to this rank's batched local block -- shape
    ``(nbatch,) + local shape`` -- which the driver reads ghosts from
    and stores results into (the live arrays are never touched; the
    caller owns the batched copies and the write-back).

    Wire discipline: message *counts* and tags are identical to one
    single-binding sweep -- each payload slot just widens by the batch
    factor.  Compute charges scale by ``nbatch`` (the ensemble honestly
    does that many members' flops).
    """
    yield from _replay(
        ctx, analysis.step_plan(ctx.rank, nbatch=nbatch), overlap, reused,
        lambda array: blocks[array.uid],
    )


def announce_replay(ctx, analysis: LoopAnalysis, reused: bool):
    """Announce one doall replay (or compile) to the trace.

    Yields the ``commsched/hit`` / ``commsched/build`` Marks -- or, in
    cheap-marks mode, aggregates counters on the context and yields
    nothing (the Session folds the counts into ``Trace.mark_counts``
    after the run).  Shared by the live executors *and* the
    multiprocessing backend's shadow replay, so the two op streams can
    never drift on mark content.
    """
    kind = "commsched/hit" if reused else "commsched/build"
    if getattr(ctx, "marks", "full") == "cheap":
        note = ctx.count_mark
        note(kind, "doall")
        if analysis.has_read_transfers:
            note(kind, "gather")
        if analysis.has_remote_writes:
            note(kind, "scatter")
        return
    yield Mark(kind, payload=("doall", analysis.var_label))
    if analysis.has_read_transfers:
        # the loop's gather schedules replay (or compile) together
        # with the plan; announce them under their own direction so
        # per-direction reuse reporting sees the read side
        yield Mark(kind, payload=("gather", analysis.read_names))
    if analysis.has_remote_writes:
        # likewise for the write-side scatter schedules
        yield Mark(kind, payload=("scatter", analysis.scatter_names))


def _replay(ctx, plan, overlap: bool, reused: bool, block_of):
    """Announce and replay a frozen :class:`~repro.compiler.commgen.StepPlan`.

    The compiled hot loop: every index array, closure, label, and flop
    charge was frozen at plan-build time; each sweep is sends, local
    moves, receives, prebound rhs closures, and prebound stores.  The
    yielded op stream is bit-identical to :func:`interpret_doall`.

    Single and batched plans replay here alike and differ only in
    data: the plan's selection prefix (``plan.lead``) goes before every
    frozen schedule selection, ``plan.flat_shape`` shapes a statement's
    value vector, and ``block_of(array)`` -- the caller's block lookup,
    this rank's live block or a batch's shadow block -- is resolved on
    every sweep, never captured.
    """
    tag = ctx.next_tag(plan.analysis.loop.grid)
    yield from announce_replay(ctx, plan.analysis, reused)
    lead = plan.lead
    readers: list[tuple] = []
    for wire_kind, array, sched, buf in plan.reads:
        if sched is None:
            continue
        if sched.sends or sched.self_src is not None:
            read = _reader(block_of(array), lead)
        else:
            read = None
        yield from transfer_sends(ctx, sched, read, tag=tag, kind=wire_kind)
        if buf is not None:
            transfer_local_move(sched, read, _writer(buf, lead))
        if sched.recvs:
            readers.append((sched, buf, wire_kind))

    interior, interior_flops, remaining, remaining_flops = plan.charges(overlap)
    if interior:
        yield Compute(flops=interior_flops, label=plan.label_interior)

    for sched, buf, wire_kind in readers:
        yield from transfer_recvs(
            ctx, sched, _writer(buf, lead), tag=tag, kind=wire_kind
        )

    if remaining:
        yield Compute(
            flops=remaining_flops,
            label=plan.label_boundary if interior else plan.label,
        )

    stmt_vals = [None if fn is None else fn() for fn in plan.evals]

    for values, store in zip(stmt_vals, plan.stores):
        if store is None:
            continue
        op = store[0]
        if op == "box":
            _, array, locs, perm, boxshape = store
            block_of(array)[locs] = values.transpose(perm).reshape(boxshape)
        elif op == "flat":
            _, array, locs = store
            block_of(array)[locs] = values.reshape(plan.flat_shape)
        else:  # "transfer": remote-write scatter replay
            _, array, sched, wire_kind = store
            yield from execute_transfer(
                ctx,
                sched,
                read=_reader(
                    None if values is None else values.reshape(plan.flat_shape),
                    lead,
                ),
                write=_writer(lambda array=array: block_of(array), lead),
                tag=tag,
                kind=wire_kind,
            )


def _lead(lead: tuple, idx) -> tuple:
    """``idx`` behind the selection prefix ``lead``.

    Schedules freeze two selection forms: open-mesh tuples (gather
    send/recv sides, local boxes) and flat coordinate arrays (scatter
    selections).  Either way the batched form is the same selection on
    every ensemble member at once.
    """
    return lead + (idx if isinstance(idx, tuple) else (idx,))


def _reader(source, lead: tuple):
    """The transfer executor's ``read(idx)``: the frozen selection
    ``idx`` on ``source`` behind the plan's prefix ``lead`` (``()``
    single, ``(slice(None),)`` batched).  None without a source."""
    if source is None:
        return None
    if not lead:
        return source.__getitem__
    return lambda idx: source[_lead(lead, idx)]


def _writer(target, lead: tuple):
    """The store twin of :func:`_reader`: ``write(idx, values)``.

    ``target`` is an array, or a zero-argument callable looked up at
    each write -- scatter targets, since a rank that only *sends* for a
    scatter owns no block of the lhs and never writes.
    """
    if callable(target):
        return lambda idx, values: _writer(target(), lead)(idx, values)
    if not lead:
        return target.__setitem__

    def write(idx, values):
        target[_lead(lead, idx)] = values
    return write


# ----------------------------------------------------------------------
# The interpreted reference executor
# ----------------------------------------------------------------------


class _Workspace:
    """Gathered read data for one array on one rank."""

    __slots__ = ("needed", "data")

    def __init__(self, needed: list[np.ndarray], dtype):
        self.needed = needed
        self.data = np.empty([n.size for n in needed], dtype=dtype)

    def put_at(self, pos: tuple, values: np.ndarray) -> None:
        """Scatter a box of values through precomputed positions."""
        self.data[pos] = values

    def fetch(self, idx_arrays: list[np.ndarray]) -> np.ndarray:
        pos = tuple(
            acc.positions_in(n, np.asarray(g)) for n, g in zip(self.needed, idx_arrays)
        )
        return self.data[pos]


def _eval_expr(expr, workspaces: dict[int, _Workspace], iters) -> np.ndarray | float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Ref):
        ws = workspaces[id(expr.array)]
        idx = [acc.eval_index(e, iters) for e in expr.idx]
        return ws.fetch(idx)
    if isinstance(expr, BinOp):
        left = _eval_expr(expr.left, workspaces, iters)
        right = _eval_expr(expr.right, workspaces, iters)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right
    raise CompileError(f"cannot evaluate expression {expr!r}")


def interpret_doall(ctx, loop: Doall, overlap: bool = False):
    """The interpreted reference executor for this rank's share of ``loop``.

    Probes the plan cache on every call, like :func:`execute_doall`,
    then re-derives workspace positions and walks the expression ASTs
    every sweep -- everything a :class:`~repro.compiler.commgen.StepPlan`
    freezes.  Kept as the semantics the compiled replay must match
    bit-for-bit: the equivalence tests and
    ``benchmarks/bench_wallclock.py`` call it from a parsub routine and
    diff results, op streams, and hit/miss counts against the compiled
    path.
    """
    me = ctx.rank
    if not loop.grid.contains(me):
        raise CompileError(f"rank {me} executing doall outside its grid")
    analysis, reused = plans_of(ctx).analysis(loop)
    tag = ctx.next_tag(analysis.loop.grid)
    yield from announce_replay(ctx, analysis, reused)

    iters = analysis.iters[me]
    label = f"doall[{analysis.var_label}]"

    # ---- phase 1: gather-schedule sends + local moves --------------------
    # Each read array's frozen gather TransferSchedule replays through
    # the shared transfer executor: the send half posts pre-write
    # snapshots (copy-in), the local move copies own data into the
    # workspace.  Sends for *all* arrays go out before any receive, so
    # they are in flight together.
    workspaces: dict[int, _Workspace] = {}
    readers: list[tuple] = []  # (arr_idx, sched, workspace) pending recv halves
    for arr_idx, plans in enumerate(analysis.read_plans):
        plan = plans[me]
        array = plan.array
        if plan.needed is not None:
            workspaces[id(array)] = _Workspace(plan.needed, array.dtype)
        sched = plan.transfer
        if sched is None:
            continue
        ws = workspaces.get(id(array))
        if sched.sends or sched.self_src is not None:
            block = array.local(me)
            read = block.__getitem__
        else:
            read = None
        yield from transfer_sends(ctx, sched, read, tag=tag, kind=f"gh{arr_idx}")
        if ws is not None:
            transfer_local_move(sched, read, ws.put_at)
        if sched.recvs:
            # recvs are only frozen for ranks with needed data, so a
            # workspace always exists here
            readers.append((arr_idx, sched, ws))

    # ---- phase 1b (overlap): interior compute while ghosts fly -----------
    n_points = iters.count()
    interior = analysis.interior_count(me) if overlap else 0
    remaining = n_points - interior
    if interior:
        yield Compute(
            flops=interior * analysis.flops_per_point(),
            label=f"{label}/interior",
        )

    # ---- phase 2: gather-schedule receives -------------------------------
    for arr_idx, sched, ws in readers:
        yield from transfer_recvs(ctx, sched, ws.put_at, tag=tag, kind=f"gh{arr_idx}")

    # ---- phase 3: evaluate (boundary points under overlap) ---------------
    if remaining:
        yield Compute(
            flops=remaining * analysis.flops_per_point(),
            label=f"{label}/boundary" if interior else label,
        )

    stmt_vals: list[np.ndarray | None] = []
    for sa in analysis.stmts:
        if n_points:
            values = _eval_expr(sa.stmt.rhs, workspaces, iters)
            stmt_vals.append(
                np.broadcast_to(
                    np.asarray(values, dtype=sa.lhs_array.dtype), iters.shape()
                )
            )
        else:
            stmt_vals.append(None)

    # ---- phase 4: scatter-schedule replay ---------------------------------
    # All-local statements store through their frozen open-mesh box (or
    # per-sweep flat coordinates when not box-decomposable); statements
    # with remote writes replay their frozen scatter TransferSchedule:
    # local stores and outgoing messages read the flat value vector
    # through precomputed selection arrays, incoming messages (values
    # only, no index lists) land through precomputed local-block
    # coordinates.
    for stmt_idx, sa in enumerate(analysis.stmts):
        wplan = analysis.write_plans[stmt_idx][me]
        values = stmt_vals[stmt_idx]
        if analysis.writes_local:
            if values is None:
                continue
            if wplan.local_box is not None:
                locs, perm, shape = wplan.local_box
                sa.lhs_array.local(me)[locs] = values.transpose(perm).reshape(shape)
            else:
                _flat_local_store(sa, iters, me, values)
            continue
        sched = wplan.transfer
        if sched is None:
            continue
        yield from execute_transfer(
            ctx,
            sched,
            read=_reader(None if values is None else values.reshape(-1), ()),
            write=_writer(lambda array=sa.lhs_array: array.local(me), ()),
            tag=tag,
            kind=f"wr{stmt_idx}",
        )


def _flat_local_store(sa, iters, rank: int, values: np.ndarray) -> None:
    """Per-sweep fallback for non-box-decomposable all-local writes."""
    array = sa.lhs_array
    idx_arrays = sa.lhs_index_arrays(iters)
    full_idx = [
        np.broadcast_to(np.asarray(a), values.shape).reshape(-1)
        for a in idx_arrays
    ]
    locs = tuple(
        np.asarray(array.dim(k).local_index(full_idx[k]), dtype=np.int64)
        for k in range(array.ndim)
    )
    array.local(rank)[locs] = values.reshape(-1)


def shadow_replay_analysis(
    ctx, analysis: LoopAnalysis, overlap: bool = False, reused: bool = True,
):
    """Data-free mirror of :func:`replay_analysis` (compiled path).

    Yields the *exact* op stream a compiled replay of ``analysis``
    produces -- same Marks, same Compute flops and labels, same Sends
    (tag and byte count) and Recvs in the same order -- but moves no
    array data: sends carry ``data=None`` with the frozen payload's
    byte count, receives discard, and no store runs.  This is how the
    multiprocessing backend derives its cost-model-stamped trace: the
    floats are computed by real parallel workers, while the inner
    simulator runs this shadow stream to produce a trace bit-identical
    to what the simulator backend would have recorded.

    Deliberately takes the analysis (never probing the plan cache):
    cache accounting for a shadowed run is done once by the parent, not
    once per shadow rank.
    """
    me = ctx.rank
    tag = ctx.next_tag(analysis.loop.grid)
    yield from announce_replay(ctx, analysis, reused)
    yield from _shadow_step_plan(ctx, analysis.step_plan(me), overlap, tag)


def _shadow_step_plan(ctx, plan, overlap: bool, tag):
    """Data-free mirror of :func:`_replay` -- ops only."""
    me = ctx.rank
    readers: list[tuple] = []
    for wire_kind, array, sched, _buf in plan.reads:
        if sched is None:
            continue
        itemsize = array.dtype.itemsize
        for dst, src_idx in sched.sends:
            yield Send(
                dst, None, tag=(tag, wire_kind, me),
                nbytes=_index_nbytes(src_idx, itemsize),
            )
        if sched.recvs:
            readers.append((sched, wire_kind))

    interior, interior_flops, remaining, remaining_flops = plan.charges(overlap)
    if interior:
        yield Compute(flops=interior_flops, label=plan.label_interior)

    for sched, wire_kind in readers:
        for src, _dst_idx in sched.recvs:
            yield Recv(src=src, tag=(tag, wire_kind, src))

    if remaining:
        yield Compute(
            flops=remaining_flops,
            label=plan.label_boundary if interior else plan.label,
        )

    for store in plan.stores:
        if store is None or store[0] != "transfer":
            continue
        _, array, sched, wire_kind = store
        itemsize = array.dtype.itemsize
        for dst, sel in sched.sends:
            yield Send(
                dst, None, tag=(tag, wire_kind, me),
                nbytes=_index_nbytes(sel, itemsize),
            )
        for src, _dst_idx in sched.recvs:
            yield Recv(src=src, tag=(tag, wire_kind, src))


def _index_nbytes(idx, itemsize: int) -> int:
    """Byte count of the payload a source-side index selection reads.

    Matches ``read(idx).nbytes`` for the two frozen send-index forms: an
    open-mesh ``np.ix_`` tuple (gather sends; payload size is the
    product of the per-dimension sizes) and a flat selection array
    (scatter sends into the value vector).
    """
    if isinstance(idx, tuple):
        n = 1
        for a in idx:
            n *= int(np.asarray(a).size)
    else:
        n = int(np.asarray(idx).size)
    return n * int(itemsize)

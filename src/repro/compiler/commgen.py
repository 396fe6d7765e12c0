"""Communication-set generation and the whole-loop static analysis.

:class:`LoopAnalysis` is the compile step of the paper's KF1 compiler:
from the loop alone (no execution) it derives, for every rank,

* the iteration set (strip-mining),
* the needed-element box product per read array,
* matching (src, dst) transfer sets: ``owned(src) ∩ needed(dst)``,
* the write plan: local stores plus any remote-write scatter sets.

Everything is deterministic and derivable by every rank independently,
which is why the generated sends and receives match without any runtime
negotiation -- the property the paper relies on for affine loops.

The analysis result is *frozen* into per-rank
:class:`~repro.compiler.commsched.TransferSchedule` objects on both
sides: :meth:`ReadPlan.freeze` compiles each rank's share of the ghost
exchange into a gather-direction schedule (open-mesh local-block
coordinates out, workspace scatter positions in), and the write
analysis compiles each statement's remote-write sets into a
scatter-direction schedule (value-vector selections out, local-block
coordinates in).  The executor in :mod:`repro.compiler.schedule`
replays both through
:func:`~repro.compiler.commsched.execute_transfer`'s wire halves on
every sweep, so repeated doall executions (the common case) pay for
communication-set derivation exactly once and every direction data
moves shares one executor and one trace vocabulary.

The analysis also derives the *interior* iteration count per rank: the
points whose reads are all locally owned and can therefore be computed
while ghost messages are still in flight.  The overlap-aware executor
splits its Compute op on this count; see ``LoopAnalysis.interior_count``.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.compiler import access as acc
from repro.compiler.stripmine import IterSet, stripmine
from repro.lang.array import BaseDistArray
from repro.lang.doall import Doall
from repro.lang.expr import compile_expr
from repro.util.errors import CompileError


class ReadPlan:
    """Gather plan (and compiled communication schedule) for one array
    on one rank.

    The ``recv_from``/``send_to``/``own_overlap`` global index lists are
    the analysis result; ``transfer`` is the frozen gather-direction
    :class:`~repro.compiler.commsched.TransferSchedule` derived from
    them once at compile time: open-mesh local-block coordinates for
    every outgoing coalesced ghost message (source side) and workspace
    scatter positions for every incoming one (destination side), with
    the own-data overlap as the schedule's local move.  Re-executing the
    loop every sweep replays this schedule through the shared transfer
    executor instead of re-deriving index arrays -- the read side of the
    wire path is the same code path as the write side and repartition.
    ``transfer`` is None when the rank neither reads nor owns any part
    of the array.
    """

    __slots__ = ("array", "needed", "recv_from", "send_to", "own_overlap", "transfer")

    def __init__(self, array: BaseDistArray):
        self.array = array
        self.needed: list[np.ndarray] | None = None
        # rank -> per-dim global index lists
        self.recv_from: dict[int, list[np.ndarray]] = {}
        self.send_to: dict[int, list[np.ndarray]] = {}
        self.own_overlap: list[np.ndarray] | None = None
        #: frozen gather-direction TransferSchedule (see freeze())
        self.transfer: "TransferSchedule | None" = None

    def freeze(self, rank: int) -> None:
        """Compile the index lists into a gather TransferSchedule."""
        from repro.compiler.commsched import TransferSchedule

        array = self.array
        ts = TransferSchedule("gather", rank=rank, grid=array.grid)
        if self.needed is not None:
            for src in sorted(self.recv_from):
                lists = self.recv_from[src]
                pos = np.ix_(
                    *(acc.positions_in(n, g) for n, g in zip(self.needed, lists))
                )
                ts.recvs.append((src, pos))
            if self.own_overlap is not None:
                ts.self_dst = np.ix_(
                    *(
                        acc.positions_in(n, g)
                        for n, g in zip(self.needed, self.own_overlap)
                    )
                )
        if array.grid.contains(rank):
            if self.own_overlap is not None:
                ts.self_src = np.ix_(*local_positions(array, self.own_overlap))
            for dst in sorted(self.send_to):
                ts.sends.append((dst, np.ix_(*local_positions(array, self.send_to[dst]))))
        elif self.own_overlap is not None:
            # only reachable for a replicated array on a sub-grid: the
            # rank "overlaps" every element but stores no copy to read
            raise CompileError(
                f"rank {rank} reads replicated array {array.name!r} but "
                "owns no copy of it (the array's grid does not contain "
                "the rank); replicate on the loop grid instead"
            )
        if ts.sends or ts.recvs or ts.self_src is not None:
            self.transfer = ts


class WritePlan:
    """Write plan (frozen scatter schedule) for one statement on one rank.

    ``transfer`` is the frozen scatter-direction
    :class:`~repro.compiler.commsched.TransferSchedule` derived once at
    compile time: selection arrays into the statement's flat value
    vector for every outgoing coalesced value message and for the local
    store, and precomputed local-block coordinates for every incoming
    one.  The executor in :mod:`repro.compiler.schedule` replays these
    arrays every sweep -- no owner computation, no index lists on the
    wire (messages carry values only) -- mirroring the frozen
    :class:`ReadPlan` on the read side.  ``transfer`` is None when the
    statement moves no messages on this rank.

    For the all-local fast path (every write lands on the executing
    rank -- the paper's stencils) the store is frozen as ``local_box``
    instead: an open-mesh local-coordinate box plus the axis mapping
    from the iteration box, O(extent-per-dim) memory rather than
    O(iteration-points) coordinate arrays.  ``local_box`` is None when
    the lhs is not box-decomposable (e.g. ``A[i, i]``); the executor
    then derives flat coordinates per sweep, as the seed did.
    """

    __slots__ = ("transfer", "local_box")

    def __init__(self):
        self.transfer = None
        self.local_box = None


class LoopAnalysis:
    """Static analysis of one doall loop over its whole grid."""

    def __init__(self, loop: Doall):
        self.loop = loop
        self.ranks = loop.grid.linear
        self.iters: dict[int, IterSet] = stripmine(loop)
        self.stmts = [acc.StmtAccess(st) for st in loop.body]
        self.writes_local = acc.writes_are_local(loop)
        # Strings the executor stamps on every sweep's ops (Compute
        # labels, commsched mark payloads): joined once here, never in
        # the replay loop.
        self.var_label = ",".join(v.name for v in loop.vars)
        self.scatter_names = ",".join(sa.lhs_array.name for sa in self.stmts)
        #: per-rank compiled replay recipes, built lazily by
        #: :meth:`step_plan` and dropped together with the analysis
        #: (the cache entry is the only owner), so layout invalidation
        #: (``drop_plans_for_array``) retires compiled closures exactly
        #: when it retires the schedules they were built against.
        #: Keyed by rank for single-run plans and ``(rank, nbatch)`` for
        #: batched ones (``Program.run_batch``).
        self.step_plans: dict[object, "StepPlan"] = {}
        # guards the two lazy memoizations (step plans, interior
        # counts): an analysis may be shared across Sessions through a
        # shared PlanCache, and everything else on it is immutable
        # after construction (the contract that makes sharing sound)
        self._memo_lock = threading.Lock()

        # ---- read analysis ------------------------------------------------
        read_map = acc.arrays_read(loop)
        self.read_arrays: list[BaseDistArray] = [a for a, _ in read_map.values()]
        self.read_refs: list[list] = [refs for _, refs in read_map.values()]
        self.read_names = ",".join(a.name for a in self.read_arrays)
        # needed[arr_idx][rank] -> per-dim lists or None
        self.needed: list[dict[int, list[np.ndarray] | None]] = []
        self.read_plans: list[dict[int, ReadPlan]] = []
        # per read array: rank -> owned lists snapshot (None entry for
        # arrays replicated at analysis time).  The lazy interior
        # derivation must consult this snapshot, never the array's live
        # layout -- a post-analysis redistribution would otherwise leak
        # into an estimate frozen under the old layout.
        self._read_owned: list[dict[int, list[np.ndarray] | None] | None] = []
        for array, refs in zip(self.read_arrays, self.read_refs):
            needed = {
                r: acc.needed_lists(array, refs, self.iters[r]) for r in self.ranks
            }
            self.needed.append(needed)
            owned = {r: acc.owned_lists(array, r) for r in self.ranks}
            self._read_owned.append(None if array.replicated else owned)
            plans: dict[int, ReadPlan] = {}
            for me in self.ranks:
                plans[me] = ReadPlan(array)
                plans[me].needed = needed[me]
            if array.replicated:
                # Full copy everywhere: needs are satisfied locally.
                for me in self.ranks:
                    plans[me].own_overlap = needed[me]
                self.read_plans.append(plans)
                continue
            for me in self.ranks:
                plans[me].own_overlap = acc.intersect_lists(needed[me], owned[me])
                for q in self.ranks:
                    if q == me:
                        continue
                    inter = acc.intersect_lists(needed[me], owned[q])
                    if inter is not None:
                        plans[me].recv_from[q] = inter
                        plans[q].send_to[me] = inter
            self.read_plans.append(plans)

        # ---- freeze: compile plans into reusable comm schedules -----------
        for plans in self.read_plans:
            for me, plan in plans.items():
                plan.freeze(me)
        self.has_read_transfers = any(
            plan.transfer is not None
            and (plan.transfer.sends or plan.transfer.recvs)
            for plans in self.read_plans
            for plan in plans.values()
        )

        # ---- interior analysis: what can compute before ghosts arrive -----
        # interior_count(rank) counts the iteration points whose every
        # rhs read is locally owned by that rank.  These points can be
        # evaluated while the ghost messages of the same sweep are still
        # in flight, so the overlap-aware executor splits its Compute op
        # on this boundary.  Derived lazily per rank (the serialized
        # executor never asks) and memoized with the cached analysis.
        self._interior_counts: dict[int, int] = {}

        # ---- write analysis: freeze scatter schedules ---------------------
        # write_plans[stmt_idx][rank].  Like the read side, the analysis
        # result is frozen once: selection arrays into each rank's flat
        # value vector (what to store locally / send to each owner) and
        # local-block coordinates for every incoming value message, so
        # the executor never re-derives owners or payload index lists
        # and remote-write messages carry values only.
        from repro.compiler.commsched import TransferSchedule

        def transfer_of(plan):
            if plan.transfer is None:
                plan.transfer = TransferSchedule("scatter")
            return plan.transfer

        self.write_plans: list[dict[int, WritePlan]] = []
        for sa in self.stmts:
            plans = {r: WritePlan() for r in self.ranks}
            for r in self.ranks:
                iters = self.iters[r]
                if iters.empty:
                    continue
                idx_arrays = sa.lhs_index_arrays(iters)
                if self.writes_local:
                    plans[r].local_box = freeze_box_store(
                        sa.lhs_array, idx_arrays, iters.shape()
                    )
                    continue
                shape = iters.shape()
                full_idx = [
                    np.broadcast_to(np.asarray(a), shape).reshape(-1)
                    for a in idx_arrays
                ]
                ts = transfer_of(plans[r])
                owners = sa.lhs_array.owner_ranks_vec(tuple(idx_arrays))
                owners = np.broadcast_to(owners, shape).reshape(-1)
                for dst in (int(d) for d in np.unique(owners)):
                    sel = np.nonzero(owners == dst)[0]
                    piece = tuple(
                        local_positions(sa.lhs_array, [g[sel] for g in full_idx])
                    )
                    if dst == r:
                        ts.self_src = sel
                        ts.self_dst = piece
                        continue
                    ts.sends.append((dst, sel))
                    if dst in plans:
                        transfer_of(plans[dst]).recvs.append((r, piece))
            self.write_plans.append(plans)
        self.has_remote_writes = any(
            plan.transfer is not None
            and (plan.transfer.sends or plan.transfer.recvs)
            for plans in self.write_plans
            for plan in plans.values()
        )

    # ------------------------------------------------------------------

    def step_plan(self, rank: int, nbatch: int | None = None) -> "StepPlan":
        """This rank's compiled replay recipe (built once, memoized).

        The plan freezes everything the interpreted executor re-derives
        per sweep -- workspace buffers, per-reference fetch positions,
        lowered rhs closures, lhs store coordinates -- so steady-state
        replay is a straight drive over prebound numpy calls.  Living on
        the analysis, a plan's lifetime is exactly the analysis's cache
        entry lifetime: redistribution keys it away and
        ``drop_plans_for_array`` purges it eagerly.

        ``nbatch`` asks for the *batched* variant of the recipe: the
        same schedules and closures with a leading batch axis of that
        extent threaded through every workspace, fetch, and store (see
        ``Program.run_batch``).  Batched plans memoize under
        ``(rank, nbatch)`` next to the single-run plans.
        """
        key = rank if nbatch is None else (rank, nbatch)
        plan = self.step_plans.get(key)
        if plan is None:
            with self._memo_lock:
                plan = self.step_plans.get(key)
                if plan is None:
                    plan = StepPlan(self, rank, nbatch=nbatch)
                    self.step_plans[key] = plan
        return plan

    def interior_count(self, rank: int) -> int:
        """Iteration points of ``rank`` whose reads are all locally owned.

        Computed from the exact per-reference index arrays (not the box
        over-approximation of the needed lists), so the count is what the
        executor could genuinely evaluate before any ghost arrives.
        Memoized: the analysis is cached and replayed every sweep.
        """
        if rank in self._interior_counts:
            return self._interior_counts[rank]
        with self._memo_lock:
            if rank not in self._interior_counts:
                self._interior_counts[rank] = self._derive_interior_count(rank)
        return self._interior_counts[rank]

    def _derive_interior_count(self, rank: int) -> int:
        iters = self.iters[rank]
        if iters.empty:
            return 0
        mask = np.ones(iters.shape(), dtype=bool)
        for (array, refs), owned_by_rank in zip(
            zip(self.read_arrays, self.read_refs), self._read_owned
        ):
            if owned_by_rank is None:
                continue  # replicated at analysis time: reads all local
            owned = owned_by_rank[rank]
            if owned is None:
                return 0  # rank owns nothing: every point waits on ghosts
            for ref in refs:
                for k in range(array.ndim):
                    vals = np.asarray(acc.eval_index(ref.idx[k], iters))
                    mask = mask & np.isin(vals, owned[k])
            if not mask.any():
                return 0
        return int(np.count_nonzero(mask))

    def flops_per_point(self) -> float:
        """Flop estimate per iteration point over the whole body."""
        return float(sum(sa.stmt.rhs.flops() + 1 for sa in self.stmts))

    def rank_flops(self, rank: int) -> float:
        return self.iters[rank].count() * self.flops_per_point()

    def rank_interior_flops(self, rank: int) -> float:
        """Flops of ``rank``'s ghost-independent (interior) points."""
        return self.interior_count(rank) * self.flops_per_point()


class StepPlan:
    """One rank's compiled replay recipe for a doall loop.

    Everything the interpreted executor re-derives per sweep is frozen
    here once, at plan-build time:

    * persistent gather workspaces (one buffer per read array, reused
      every sweep -- the local move plus the schedule receives overwrite
      every needed element, so no per-sweep allocation or clearing);
    * per-statement rhs closures lowered by
      :func:`~repro.lang.expr.compile_expr`: each array reference is
      pre-bound to its workspace positions (a slice view when the
      positions form a contiguous box -- the paper's stencils -- else a
      precomputed fancy gather), so replay never touches the expression
      AST or evaluates an affine index;
    * per-statement store recipes: the open-mesh box (or its slice
      form), frozen flat coordinates for non-box-decomposable writes
      (which the interpreted path re-derives every sweep), or the
      scatter TransferSchedule for remote writes;
    * the Compute labels and flop charges.

    The plan deliberately captures *arrays*, never their local blocks:
    the executor in :mod:`repro.compiler.schedule` resolves source and
    store blocks through its caller's block lookup on each sweep, so a
    block swapped by redistribution can never be written through a
    stale captured buffer -- and the plan itself lives on the
    :class:`LoopAnalysis`, whose cache key embeds every array's comm
    epoch and which ``drop_plans_for_array`` purges eagerly.  The
    replayed op stream (messages, marks, computes) is bit-identical to
    the interpreted reference's, which the equivalence tests assert.

    **Batched plans.**  Built with ``nbatch=B``, the plan is the recipe
    for executing the loop over ``B`` independent parameter bindings at
    once (``Program.run_batch``): every workspace gains a leading batch
    axis, every frozen fetch and store selection is prefixed with
    ``slice(None)`` on that axis, and the rhs closures broadcast over it
    for free (:func:`~repro.lang.expr.compile_expr` closures are plain
    numpy ufunc chains).  The *schedules* are shared untouched with the
    single-run plan -- same sends, same receives, same tags -- so the
    wire message **count** is identical to one single-binding sweep;
    only the payload slots widen by the batch factor.  One executor
    drives both kinds; they differ only through the plan's data
    (:attr:`lead`, :attr:`flat_shape`) and the caller's block lookup,
    which for a batch addresses the batched shadow blocks
    (``blocks[array.uid]``), never the live single-member arrays.
    """

    __slots__ = (
        "rank",
        "nbatch",
        "lead",
        "flat_shape",
        "analysis",
        "shape",
        "n_points",
        "flops",
        "label",
        "label_interior",
        "label_boundary",
        "reads",
        "evals",
        "stores",
        "_split",
    )

    def __init__(self, analysis: LoopAnalysis, rank: int,
                 nbatch: int | None = None):
        self.rank = rank
        self.nbatch = nbatch
        self.analysis = analysis
        iters = analysis.iters[rank]
        self.shape = iters.shape()
        self.n_points = iters.count()
        scale = 1 if nbatch is None else nbatch
        self.flops = self.n_points * analysis.flops_per_point() * scale
        self.label = f"doall[{analysis.var_label}]"
        self.label_interior = f"{self.label}/interior"
        self.label_boundary = f"{self.label}/boundary"
        # overlap split (interior/boundary flop charges), derived lazily
        # like LoopAnalysis.interior_count -- serialized replays never ask
        self._split: tuple | None = None
        # the batch axis: batched buffers get a leading extent-B axis and
        # batched selections a slice(None) prefix; single-run plans get
        # neither, keeping their recipes byte-identical to before
        lead_shape = () if nbatch is None else (nbatch,)
        lead_sel = () if nbatch is None else (slice(None),)
        #: selection prefix the executor puts before every frozen
        #: schedule selection: ``()`` single, ``(slice(None),)`` batched
        self.lead = lead_sel
        #: shape of one statement's flat value vector (``(B, -1)``
        #: batched: the same scatter columns on every member)
        self.flat_shape = lead_shape + (-1,)

        # ---- read side: persistent workspaces + send/recv recipes ------
        #: (wire kind, array, gather schedule | None, workspace | None)
        self.reads: list[tuple] = []
        bufs: dict[int, np.ndarray] = {}
        needed_of: dict[int, list[np.ndarray]] = {}
        for arr_idx, plans in enumerate(analysis.read_plans):
            plan = plans[rank]
            array = plan.array
            buf = None
            if plan.needed is not None:
                buf = np.empty(
                    lead_shape + tuple(n.size for n in plan.needed),
                    dtype=array.dtype,
                )
                bufs[id(array)] = buf
                needed_of[id(array)] = plan.needed
            self.reads.append((f"gh{arr_idx}", array, plan.transfer, buf))

        # ---- statement rhs closures ------------------------------------
        def resolve(ref):
            buf = bufs[id(ref.array)]
            needed = needed_of[id(ref.array)]
            pos = tuple(
                acc.positions_in(n, np.asarray(acc.eval_index(e, iters)))
                for n, e in zip(needed, ref.idx)
            )
            box = freeze_positions(pos)
            # batch prefix: with the advanced indices consecutive after
            # the leading slice, numpy keeps their broadcast dims in
            # place, so the fetch shape is exactly (B,) + single shape
            sel = lead_sel + (pos if box is None else box)
            return lambda: buf[sel]

        shape = lead_shape + self.shape
        #: per-statement closures producing the broadcast value box
        self.evals: list = []
        for sa in analysis.stmts:
            if self.n_points == 0:
                self.evals.append(None)
                continue
            fn = compile_expr(sa.stmt.rhs, resolve)
            dt = sa.lhs_array.dtype
            self.evals.append(
                lambda fn=fn, dt=dt: np.broadcast_to(
                    np.asarray(fn(), dtype=dt), shape
                )
            )

        # ---- statement store recipes -----------------------------------
        #: per-statement: ("box", array, locs, perm, shape) |
        #: ("flat", array, locs) | ("transfer", sched, kind) | None
        self.stores: list[tuple | None] = []
        for stmt_idx, sa in enumerate(analysis.stmts):
            wplan = analysis.write_plans[stmt_idx][rank]
            if analysis.writes_local:
                if self.n_points == 0:
                    self.stores.append(None)
                elif wplan.local_box is not None:
                    locs, perm, boxshape = wplan.local_box
                    box = freeze_positions(locs)
                    if nbatch is not None:
                        # pre-prefix the recipe so the batched store is
                        # the same one-liner as the single one:
                        # transpose order shifts past the batch axis
                        perm = (0,) + tuple(ax + 1 for ax in perm)
                        boxshape = (nbatch,) + boxshape
                    self.stores.append(
                        ("box", sa.lhs_array,
                         lead_sel + (locs if box is None else box),
                         perm, boxshape)
                    )
                else:
                    # non-box-decomposable all-local write: freeze the
                    # flat coordinates the interpreted fallback
                    # (_flat_local_store) re-derives every sweep
                    self.stores.append(
                        ("flat", sa.lhs_array,
                         lead_sel + frozen_flat_store(sa, iters))
                    )
            else:
                sched = wplan.transfer
                self.stores.append(
                    None if sched is None
                    else ("transfer", sa.lhs_array, sched, f"wr{stmt_idx}")
                )

    def charges(self, overlap: bool) -> tuple:
        """(interior points, interior flops, boundary points, boundary
        flops) for the requested overlap mode; the split is derived
        lazily and memoized (serialized replays never pay for it).  A
        batched plan scales both point counts and flops by its batch
        extent -- the ensemble honestly does B members' work per
        sweep."""
        scale = 1 if self.nbatch is None else self.nbatch
        if not overlap:
            return 0, 0.0, self.n_points * scale, self.flops
        if self._split is None:
            fpp = self.analysis.flops_per_point() * scale
            interior = self.analysis.interior_count(self.rank)
            remaining = self.n_points - interior
            self._split = (
                interior * scale, interior * fpp,
                remaining * scale, remaining * fpp,
            )
        return self._split


def freeze_positions(pos) -> tuple | None:
    """Slice form of a broadcast-ready index tuple, or None.

    ``pos`` is a tuple of per-dimension position arrays as the workspace
    fetch and the box store use them.  When it denotes a box -- each
    entry varies along its own axis only, its values form a contiguous
    ascending run, and slice indexing yields the *same result shape* the
    fancy broadcast would (they differ when the indexed array has more
    dimensions than the loop nest, e.g. ``A[i, k]`` in a 1-var loop) --
    the equivalent basic (slice) indexing reads or writes the same
    elements without the per-call fancy-index gather, returning views on
    reads.  Anything else (strided runs, diagonal patterns,
    multi-variable indices) returns None and the caller keeps the
    precomputed fancy arrays.
    """
    d = len(pos)
    arrays = [np.asarray(p) for p in pos]
    fancy_shape = np.broadcast_shapes(*(p.shape for p in arrays))
    out = []
    sizes = []
    for k, p in enumerate(arrays):
        if p.ndim not in (0, d):
            return None
        if any(p.shape[ax] > 1 for ax in range(p.ndim) if ax != k):
            return None
        flat = p.reshape(-1)
        if flat.size == 0:
            return None
        if flat.size > 1 and not np.all(np.diff(flat) == 1):
            return None
        sizes.append(int(flat.size))
        out.append(slice(int(flat[0]), int(flat[-1]) + 1))
    if tuple(fancy_shape) != tuple(sizes):
        return None
    return tuple(out)


def frozen_flat_store(sa, iters: IterSet) -> tuple:
    """Frozen local flat coordinates of a non-box-decomposable lhs.

    The per-sweep fallback in the interpreted executor derives these
    from the lhs index expressions on every execution; they only depend
    on the iteration set and the (epoch-keyed) layout, so the compiled
    plan computes them once.
    """
    array = sa.lhs_array
    shape = iters.shape()
    idx_arrays = sa.lhs_index_arrays(iters)
    full_idx = [
        np.broadcast_to(np.asarray(a), shape).reshape(-1) for a in idx_arrays
    ]
    return tuple(
        np.asarray(array.dim(k).local_index(full_idx[k]), dtype=np.int64)
        for k in range(array.ndim)
    )


def freeze_box_store(array: BaseDistArray, idx_arrays, iters_shape: tuple):
    """Freeze an all-local write as an open-mesh box store.

    Returns ``(locs, perm, shape)`` -- a precomputed local-coordinate
    open mesh, the transpose order mapping the iteration box onto
    array-dimension order, and the target box shape -- or None when the
    lhs index expressions do not decompose into one independent loop
    axis per array dimension (e.g. ``A[i, i]``, or a loop variable
    absent from the lhs so distinct iterations collide); the executor
    then falls back to per-sweep flat coordinates.  The box costs
    O(extent-per-dim) memory in the cached analysis, where per-point
    coordinate arrays would cost O(iteration-points) per statement.
    """
    d = len(iters_shape)
    lists: list[np.ndarray] = []
    axes: list[int | None] = []
    seen: set[int] = set()
    for a in idx_arrays:
        a = np.asarray(a)
        if a.size == 1:
            axes.append(None)
            lists.append(a.reshape(1))
        elif a.ndim == d:
            varying = [ax for ax in range(d) if a.shape[ax] > 1]
            if (
                len(varying) != 1
                or a.shape[varying[0]] != iters_shape[varying[0]]
                or varying[0] in seen
            ):
                return None
            seen.add(varying[0])
            axes.append(varying[0])
            lists.append(a.reshape(-1))
        else:
            return None
    leftover = [ax for ax in range(d) if ax not in seen]
    if any(iters_shape[ax] > 1 for ax in leftover):
        return None  # an unconsumed iteration axis would collide writes
    perm = tuple([ax for ax in axes if ax is not None] + leftover)
    dims = local_positions(array, lists)
    return np.ix_(*dims), perm, tuple(x.size for x in dims)


def local_positions(dims_owner, lists: list[np.ndarray]) -> list[np.ndarray]:
    """Translate per-dim global index lists into local-block index lists.

    ``dims_owner`` is anything exposing ``dim(k)`` bound distributions
    (an array or a :class:`~repro.lang.dist.Distribution`); translation
    is rank-independent for every supported distribution.  The one
    shared helper for the read side, the write side, and repartition.
    """
    return [
        np.asarray(dims_owner.dim(k).local_index(g), dtype=np.int64)
        for k, g in enumerate(lists)
    ]

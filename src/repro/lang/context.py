"""SPMD execution context and the legacy launch shim.

A parallel subroutine (the paper's ``parsub``) is a Python generator
function ``def routine(ctx, ...)`` executed by every rank of a processor
grid; ``yield from`` composes nested parsubs and compiled doall
segments.  :class:`KaliCtx` carries the rank plus per-grid tag counters
so that implicitly generated messages match across ranks, mirroring the
compiler-assigned channel identities of real KF1.

Every context belongs to a :class:`~repro.session.Session`, which owns
the caches its collective operations consult (compiled doall plans,
transfer schedules, run identities).  A context built *without* a
session -- the legacy hand-wired path, and the deprecated
:func:`run_spmd` launcher -- falls back to the implicit default Session
backed by the historical process-global caches, so old code keeps its
exact behavior while new code gets isolation by construction.
"""

from __future__ import annotations

import itertools
import operator
import os
import warnings
from typing import Any, Callable

from repro.lang.procs import ProcessorGrid
from repro.machine import collectives
from repro.machine.simulator import Machine
from repro.machine.trace import Trace
from repro.util.errors import ReproDeprecationWarning, ValidationError

#: Launch-identity counter behind :func:`next_run_id`; all ranks of one
#: launch share one id, which scopes collective cache decisions to that
#: run (per-grid tag counters restart every run, so tags alone recur).
#: ``itertools.count`` hands out each integer exactly once even under
#: free-threaded concurrent ``next()`` calls, so no lock is needed.
_RUN_IDS = itertools.count()


def next_run_id() -> tuple[int, int]:
    """Allocate a launch identity unique *across processes and threads*.

    Run ids scope :class:`~repro.compiler.commsched.ScheduleCache`
    per-run decision logs and repartition staging tokens, so two
    concurrent launches must never share one.  A bare ``c = c + 1``
    counter fails that twice over: a worker process forked by the
    multiprocessing backend inherits the parent's counter state and
    would re-issue the same integers, and two serving threads
    (:mod:`repro.serve`) racing the read-increment-write would collide
    within one process.  Keying the id by ``(pid, counter)`` with an
    atomic ``itertools.count`` makes collisions impossible no matter
    which process or thread allocates -- ids are only ever used as
    opaque hashable tokens, never ordered or arithmetic'd on.
    """
    return (os.getpid(), next(_RUN_IDS))


class KaliCtx:
    """Per-rank execution context for SPMD parallel subroutines.

    ``session`` is the :class:`~repro.session.Session` whose caches the
    context's collective operations (``doall``, ``cached_gather``,
    ``redistribute``) consult; :meth:`Session.run` wires it
    automatically.  A session-less context falls back to the
    process-global default caches (deprecated; kept for the legacy
    hand-wired path).
    """

    def __init__(
        self,
        rank: int,
        grid: ProcessorGrid,
        run_id: int | None = None,
        session=None,
        marks: str | None = None,
    ):
        if not grid.contains(rank):
            raise ValidationError(f"rank {rank} not in grid {grid.shape}")
        self.rank = rank
        self.grid = grid
        self.run_id = run_id
        self.session = session
        #: "full" records every schedule Mark; "cheap" aggregates them
        #: into :attr:`mark_counts` (no per-op mark objects on the hot
        #: path; the Session folds the counts into the trace).
        self.marks = (
            marks if marks is not None else getattr(session, "marks", "full")
        )
        if self.marks not in ("full", "cheap"):
            raise ValidationError(
                f"marks must be 'full' or 'cheap', got {self.marks!r}"
            )
        #: (label, direction) -> count, filled in cheap-marks mode.
        self.mark_counts: dict[tuple, int] = {}
        #: per-grid tag allocators; ``itertools.count`` objects, so
        #: allocation is atomic (see :meth:`next_tag`).
        self._counters: dict[tuple, itertools.count] = {}

    def count_mark(self, label: str, direction: str) -> None:
        """Aggregate one schedule event (cheap-marks mode)."""
        key = (label, direction)
        counts = self.mark_counts
        counts[key] = counts.get(key, 0) + 1

    # -- tag discipline --------------------------------------------------

    def next_tag(self, grid: ProcessorGrid) -> tuple:
        """Deterministic tag shared by all ranks of ``grid``.

        Every rank of ``grid`` executes the same sequence of collective
        operations on it (SPMD discipline), so a per-grid counter yields
        identical tags on all members without communication.

        Allocation is atomic: the bare ``c = get(); put(c + 1)``
        read-modify-write would hand two threads the same tag if a
        context were ever driven concurrently (``dict.setdefault`` plus
        ``next()`` on an ``itertools.count`` never lose an increment),
        so the serving layer cannot silently alias two collectives'
        message streams.
        """
        k = grid.key()
        counter = self._counters.get(k)
        if counter is None:
            counter = self._counters.setdefault(k, itertools.count())
        return ("kali", k, next(counter))

    # -- session plumbing --------------------------------------------------

    def _schedule_cache(self, override=None, op: str = "collective"):
        """Transfer-schedule cache for this context's collectives.

        An explicit ``override`` always wins; a Session-bound context
        uses its Session's cache.  A session-less context with no
        override is the deprecated path: it warns and falls back to the
        process-global default (commsched resolves ``None``), the same
        shim contract as :meth:`doall`.
        """
        if override is not None:
            return override
        if self.session is not None:
            return self.session.cache
        warnings.warn(
            f"KaliCtx.{op} without a Session or explicit cache uses the "
            "deprecated process-global schedule cache; launch via "
            "repro.Session(...).run(...) or pass cache=",
            ReproDeprecationWarning,
            stacklevel=3,
        )
        return None  # commsched falls back to the process-global default

    # -- compiled loops ---------------------------------------------------

    def doall(self, loop, overlap: bool = False):
        """Execute a doall loop; yields machine ops (use ``yield from``).

        With ``overlap=True`` the executor charges the loop's interior
        iteration points (whose reads are all locally owned) *before*
        blocking on ghost receives, modeling computation overlapping
        with in-flight communication; the messages themselves are
        byte-identical to the serialized mode.  See
        :func:`repro.compiler.schedule.execute_doall`.

        Each call replays the loop's frozen
        :class:`~repro.compiler.commgen.StepPlan`;
        :func:`repro.compiler.schedule.interpret_doall` is the
        interpreted reference (same results, same trace).

        The loop's compiled plan (and its frozen TransferSchedules)
        lives in this context's Session plan cache; compile loops ahead
        of time with :func:`repro.compile` to warm it explicitly.  On a
        session-less context this is a deprecated shim over the
        process-global default plan cache.
        """
        from repro.compiler.schedule import execute_doall

        if self.session is None:
            warnings.warn(
                "KaliCtx.doall without a Session uses the deprecated "
                "process-global plan cache; launch via "
                "repro.Session(...).run(...) or repro.compile(...).run()",
                ReproDeprecationWarning,
                stacklevel=2,
            )
        return execute_doall(self, loop, overlap=overlap)

    # -- irregular gathers ------------------------------------------------

    def cached_gather(self, grid: ProcessorGrid, array, indices, cache=None):
        """Collective irregular gather with schedule caching.

        First call with a given index pattern runs the full two-round
        inspection; repeats replay the cached schedule with one round of
        coalesced value messages.  ``cache`` defaults to this context's
        Session cache (for a session-less context, the process-wide
        :data:`repro.compiler.commsched.DEFAULT_CACHE`).  Yields machine
        ops (use ``yield from``); evaluates to the gathered values.
        """
        from repro.compiler.commsched import cached_inspector_gather

        return cached_inspector_gather(
            self, grid, array, indices,
            cache=self._schedule_cache(cache, op="cached_gather"),
        )

    # -- redistribution ----------------------------------------------------

    def redistribute(self, array, dist, cache=None, grid=None):
        """Collective owner-to-owner repartition of ``array`` to ``dist``.

        Every rank of ``array.grid`` must call this (SPMD discipline).
        Each rank sends only the intersections of its old block with the
        new owners' blocks -- the full array is never materialized --
        and the repartition schedule is cached (keyed on the layout
        pair, not the comm epoch), so repeated flips between two layouts
        replay without re-deriving the moves.  ``cache`` defaults to
        this context's Session cache (for a session-less context, the
        process-wide :data:`repro.compiler.commsched.DEFAULT_CACHE`).
        Yields machine ops (use ``yield from``).

        ``grid`` additionally moves the array to a *different*
        processor grid (grow or shrink the rank set -- the elastic
        morphing primitive, see :mod:`repro.elastic`); the call is then
        collective over the union of the old and new rank sets, and the
        cached schedule keys on the (from-grid+specs, to-grid+specs)
        pair so morphing back is a replay.

        >>> import numpy as np
        >>> from repro import DistArray, ProcessorGrid, Session
        >>> from repro.machine import Machine
        >>> grid = ProcessorGrid((2,))
        >>> A = DistArray((4,), grid, dist=("block",), name="A")
        >>> A.from_global(np.arange(4.0))
        >>> def prog(ctx):
        ...     yield from ctx.redistribute(A, ("cyclic",))
        >>> trace = Session(Machine(n_procs=2), grid).run(prog)
        >>> A.dist.spec_key()
        (('cyclic',),)
        >>> A.to_global()                      # values survive the relayout
        array([0., 1., 2., 3.])
        >>> sorted(trace.schedule_directions())
        ['repartition']
        """
        from repro.compiler.commsched import cached_repartition

        return cached_repartition(
            self, array, dist,
            cache=self._schedule_cache(cache, op="redistribute"),
            new_grid=grid,
        )

    # -- collectives over grids -------------------------------------------

    def allreduce(self, grid: ProcessorGrid, value: Any, op: Callable = operator.add):
        tag = self.next_tag(grid)
        return collectives.allreduce(self.rank, grid.linear, value, tag=tag, op=op)

    def bcast(self, grid: ProcessorGrid, value: Any, *, root: int):
        tag = self.next_tag(grid)
        return collectives.bcast(self.rank, grid.linear, value, root=root, tag=tag)

    def gather(self, grid: ProcessorGrid, value: Any, *, root: int):
        tag = self.next_tag(grid)
        return collectives.gather(self.rank, grid.linear, value, root=root, tag=tag)


def run_spmd(
    machine: Machine,
    grid: ProcessorGrid,
    routine: Callable,
    *args: Any,
    **kwargs: Any,
) -> Trace:
    """Deprecated launcher: run ``routine`` on every rank of ``grid``.

    This was the launch of the paper's main program before compile and
    run became first-class: it routes through the implicit default
    :class:`~repro.session.Session` (whose caches are the historical
    process-global ones), so its traces are bit-identical to the
    pre-Session behavior.  New code should hold an explicit Session --
    ``Session(machine, grid).run(routine, ...)`` -- or compile a Program
    via :func:`repro.compile`; see ``docs/api.md`` for the migration
    table.
    """
    warnings.warn(
        "run_spmd is deprecated: use repro.Session(machine, grid).run(...) "
        "or repro.compile(...).run() (see docs/api.md)",
        ReproDeprecationWarning,
        stacklevel=2,
    )
    from repro.session import default_session

    # _launch_routine, not run: the legacy signature forwards *all*
    # kwargs to the routine, including ones named machine or grid.
    return default_session()._launch_routine(machine, grid, routine, args, kwargs)

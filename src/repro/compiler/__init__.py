"""The KF1 mini-compiler.

Given a :class:`~repro.lang.doall.Doall`, this package performs the
transformations the paper attributes to the Kali compiler:

* **strip-mining** (:mod:`repro.compiler.stripmine`): partition the
  iteration space among processors according to the ``on`` clause;
* **access analysis** (:mod:`repro.compiler.access`): per-processor
  needed-element sets for every array reference;
* **communication generation** (:mod:`repro.compiler.commgen`): matching
  send/receive sets from the overlap of owned and needed data, frozen
  into per-rank communication schedules (precomputed gather/scatter
  position arrays) at analysis time;
* **scheduling** (:mod:`repro.compiler.schedule`): the per-processor node
  program implementing copy-in/copy-out semantics.  Analyses are cached
  by structural loop key, so a loop re-executed every sweep replays its
  frozen schedule instead of re-deriving communication sets -- the
  replay/compile events appear in traces as ``commsched/hit`` and
  ``commsched/build`` marks;
* **performance estimation** (:mod:`repro.compiler.estimate`): the static
  per-loop communication/compute predictor the paper proposes as the
  companion tool;
* **dynamic inspection** (:mod:`repro.compiler.inspector`): the runtime
  two-round gather fallback for irregular references (paper's reference
  [17], the Crowley/Saltz inspector/executor scheme).

The bidirectional TransferSchedule subsystem lives in
:mod:`repro.compiler.commsched`: a
:class:`~repro.compiler.commsched.TransferSchedule` is one rank's
compiled share of a collective transfer -- a **gather** (the inspector ->
schedule -> executor pipeline for irregular references: a one-time
inspection builds the schedule, the vectorized executor replays it with
a single round of coalesced per-owner messages), a **scatter** (the
frozen remote-write plans of doall loops), or a **repartition** (the
owner-to-owner relayout behind ``DistArray.redistribute`` /
``ctx.redistribute``).  All three replay through one executor
(:func:`~repro.compiler.commsched.execute_transfer`) and share the
``commsched/*`` trace-mark vocabulary.  Caching: gather schedules key on
the array's ``uid``/``comm_epoch`` and an index-pattern fingerprint, so
redistribution (which bumps the epoch) orphans them; repartition
schedules key on the (from-layout, to-layout) spec pair instead, so
repeated layout flips replay forever; scatter schedules ride in the
structurally-keyed doall plan cache.
"""

from repro.compiler.schedule import (
    DEFAULT_PLANS,
    PlanCache,
    clear_plan_cache,
    drop_plan,
    execute_doall,
    interpret_doall,
    plans_of,
)
from repro.compiler.estimate import estimate_doall, LoopEstimate
from repro.compiler.inspector import inspector_gather
from repro.compiler.commsched import (
    DEFAULT_CACHE,
    GatherSchedule,
    ScheduleCache,
    TransferSchedule,
    build_gather_schedule,
    build_repartition_schedule,
    cached_inspector_gather,
    cached_repartition,
    clear_schedule_cache,
    execute_gather,
    execute_repartition,
    execute_transfer,
    index_fingerprint,
    repartition_key,
    repartition_pieces,
    schedule_key,
)

__all__ = [
    "execute_doall",
    "interpret_doall",
    "PlanCache",
    "DEFAULT_PLANS",
    "plans_of",
    "clear_plan_cache",
    "drop_plan",
    "estimate_doall",
    "LoopEstimate",
    "inspector_gather",
    # the bidirectional TransferSchedule subsystem
    "TransferSchedule",
    "GatherSchedule",
    "ScheduleCache",
    "DEFAULT_CACHE",
    "execute_transfer",
    "build_gather_schedule",
    "execute_gather",
    "build_repartition_schedule",
    "execute_repartition",
    "cached_repartition",
    "repartition_key",
    "repartition_pieces",
    "cached_inspector_gather",
    "clear_schedule_cache",
    "index_fingerprint",
    "schedule_key",
]

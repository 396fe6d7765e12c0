"""Self-healing runs: supervised execution with checkpointed recovery.

PR 8 built the recovery *mechanism* -- checkpoint/restore/morph survive
killed ranks bit-identically -- but driving it was a hand-written
drill.  This module turns the drill into *policy*: a
:class:`Supervisor` wraps ``Program.run``/``run_batch`` so that a
``MachineError`` from a dead multiprocessing rank is handled, not
fatal:

1. the session's worker pools are closed (the failed pool already is;
   this also quiesces siblings, un-adopting shared memory);
2. the latest mid-run checkpoint *taken by this supervised call* --
   every ``checkpoint_every`` sweeps, as an incremental delta chained
   against the previous boundary's snapshot -- is restored, scoped to
   the failed program only (never a stale checkpoint left over from an
   earlier ``checkpoint_every`` run);
3. the run resumes from the checkpoint's sweep cursor (never sweep 0)
   after an exponential backoff with jitter, under a bounded retry
   budget;
4. after ``degrade_after`` *consecutive* failures the remaining sweeps
   execute on the simulator backend -- degraded but correct, since the
   simulator is the reference semantics -- with a loud
   :class:`RuntimeWarning`;
5. every recovery decision lands in a :class:`RecoveryLog` surfaced via
   ``Session.stats()["recovery"]``.

Because restores are value-exact and the split-iters invariant holds
(``run(iters=a)`` then ``run(iters=b)`` equals ``run(iters=a+b)``), a
supervised run that survived any number of faults produces results
bit-identical to an uninterrupted one -- the property
``benchmarks/bench_resilience.py`` and ``tests/supervise/`` gate.

>>> from repro.supervise import SupervisorPolicy
>>> p = SupervisorPolicy(max_retries=4, backoff_base=0.1, jitter=0.0)
>>> [round(p.backoff(n), 3) for n in range(1, 5)]
[0.1, 0.2, 0.4, 0.8]
"""

from __future__ import annotations

import random
import time
import warnings
from typing import Any, Callable

from repro.elastic import checkpoint as _checkpoint
from repro.elastic import restore as _restore
from repro.util.errors import MachineError, ValidationError

#: RecoveryLog keeps at most this many event records (counters are
#: exact forever; the event list is a bounded ring like Session.history)
_MAX_EVENTS = 256


class SupervisorPolicy:
    """Knobs of the recovery loop; defaults favor fast, bounded retries.

    ``max_retries`` bounds the *total* recovery attempts one
    ``Supervisor.run``/``run_batch`` call may spend; the failure that
    exceeds it propagates.  Backoff before retry ``n`` (1-based,
    counting *consecutive* failures) is
    ``min(backoff_max, backoff_base * backoff_factor**(n-1))``,
    stretched by a uniform random fraction up to ``jitter`` (seeded via
    ``seed`` for reproducible drills).  ``degrade_after`` consecutive
    failures switch the remaining work to the simulator backend;
    ``checkpoint_every`` is the default sweep interval between
    incremental checkpoints.  ``sleep`` is the clock hook (tests stub
    it to run drills instantly).
    """

    def __init__(
        self,
        *,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_factor: float = 2.0,
        backoff_max: float = 2.0,
        jitter: float = 0.25,
        degrade_after: int = 2,
        checkpoint_every: int = 1,
        seed: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if degrade_after < 1:
            raise ValidationError("degrade_after must be >= 1")
        if checkpoint_every < 1:
            raise ValidationError("checkpoint_every must be >= 1")
        if not 0.0 <= jitter:
            raise ValidationError("jitter must be >= 0")
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.jitter = jitter
        self.degrade_after = degrade_after
        self.checkpoint_every = checkpoint_every
        self.sleep = sleep
        self._rng = random.Random(seed)

    def backoff(self, consecutive: int) -> float:
        """Jittered backoff (seconds) before the ``consecutive``-th
        consecutive retry (1-based)."""
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, consecutive - 1),
        )
        return base * (1.0 + self.jitter * self._rng.random())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SupervisorPolicy(max_retries={self.max_retries}, "
            f"backoff={self.backoff_base}*{self.backoff_factor}^n"
            f"<={self.backoff_max}, jitter={self.jitter}, "
            f"degrade_after={self.degrade_after}, "
            f"checkpoint_every={self.checkpoint_every})"
        )


class RecoveryEvent:
    """One recovery decision: what failed, what the Supervisor did."""

    __slots__ = ("cause", "ranks", "sweep", "backoff_s", "attempt", "action",
                 "backend")

    def __init__(self, *, cause: str, ranks: tuple, sweep: int,
                 backoff_s: float, attempt: int, action: str, backend: str):
        #: first line of the triggering error
        self.cause = cause
        #: failed ranks reported by the backend (empty if unknown)
        self.ranks = tuple(ranks)
        #: sweep cursor the retry resumed from (0 = run start)
        self.sweep = int(sweep)
        #: seconds slept before the retry
        self.backoff_s = float(backoff_s)
        #: 1-based retry counter within the supervised call
        self.attempt = int(attempt)
        #: ``"retry"``, ``"degrade"``, or ``"gave-up"``
        self.action = action
        #: name of the backend the retry ran on (after any degradation)
        self.backend = backend

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecoveryEvent({self.action} attempt={self.attempt} "
            f"sweep={self.sweep} ranks={self.ranks} "
            f"backoff={self.backoff_s:.3f}s)"
        )


class RecoveryLog:
    """Bounded record of every recovery event, plus exact counters.

    Attached to ``Session.recovery`` by the :class:`Supervisor` and
    summarized in ``Session.stats()["recovery"]``.  ``events`` keeps
    the last :data:`_MAX_EVENTS` :class:`RecoveryEvent` records;
    ``retries``/``degradations``/``gave_up`` count forever.
    """

    def __init__(self):
        self.events: list[RecoveryEvent] = []
        self.retries = 0
        self.degradations = 0
        self.gave_up = 0

    def record(self, event: RecoveryEvent) -> RecoveryEvent:
        self.events.append(event)
        if len(self.events) > _MAX_EVENTS:
            del self.events[:-_MAX_EVENTS]
        if event.action == "gave-up":
            self.gave_up += 1
        else:
            self.retries += 1
            if event.action == "degrade":
                self.degradations += 1
        return event

    def summary(self) -> dict:
        """Counters + the most recent event, for ``Session.stats()``."""
        return {
            "events": len(self.events),
            "retries": self.retries,
            "degradations": self.degradations,
            "gave_up": self.gave_up,
            "last": self.events[-1].as_dict() if self.events else None,
        }

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecoveryLog(retries={self.retries}, "
            f"degradations={self.degradations}, gave_up={self.gave_up})"
        )


def _backend_name(backend, session) -> str:
    """Plain name of a run's backend: ``None`` resolves to the
    session's default, an instance to its class name."""
    if backend is None:
        backend = session.backend
    if backend is None:
        return "simulator"
    return backend if isinstance(backend, str) else type(backend).__name__


def _cause_of(exc: BaseException) -> str:
    return str(exc).splitlines()[0] if str(exc) else type(exc).__name__


class Supervisor:
    """Self-healing wrapper around a Session's program runs.

    ``Supervisor(session)`` adopts the session: its
    :class:`RecoveryLog` lands on ``session.recovery`` (visible in
    ``session.stats()``), and :meth:`run`/:meth:`run_batch` execute
    programs with checkpointed retry under the
    :class:`SupervisorPolicy`.  Degradation to the simulator backend is
    sticky per Supervisor -- once a pool has proven unreliable enough
    to degrade, later calls stay on the reference backend until
    :meth:`reset_degradation`.
    """

    def __init__(self, session, policy: SupervisorPolicy | None = None):
        self.session = session
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.log = RecoveryLog()
        session.recovery = self.log
        self._degraded = False

    @property
    def degraded(self) -> bool:
        """True once recovery has fallen back to the simulator backend."""
        return self._degraded

    def reset_degradation(self) -> None:
        """Allow the originally requested backend again."""
        self._degraded = False

    # -- supervised execution ----------------------------------------------

    def run(
        self,
        program,
        *,
        iters: int = 1,
        checkpoint_every: int | None = None,
        backend=None,
        overlap: bool = False,
        marks: str | None = None,
        bindings: dict | None = None,
        **kw_bindings: Any,
    ):
        """Run ``program`` to completion, healing backend failures.

        Semantics of a successful call are exactly
        ``program.run(iters=iters, backend=backend, **bindings)`` --
        bit-identical results, since restores are value-exact and the
        split-iters invariant holds -- except the sweeps execute in
        ``checkpoint_every``-sized legs (default from the policy) with
        an incremental checkpoint after each, and a ``MachineError``
        triggers restore + backoff + retry from the latest checkpoint
        instead of propagating.  Once the retry budget is exhausted the
        final error propagates (after a ``gave-up`` log entry); the
        arrays then hold the restored last-checkpoint state, so a
        caller with its own policy can still resume by hand.

        Returns the final leg's trace.
        """
        program._require_loops("Supervisor.run()")
        policy = self.policy
        k = checkpoint_every if checkpoint_every is not None else policy.checkpoint_every
        if k < 1:
            raise ValidationError(f"checkpoint_every must be >= 1, got {k}")
        if iters < 1:
            raise ValidationError(f"iters must be >= 1, got {iters}")
        sess = self.session
        eff_backend = "simulator" if self._degraded else backend

        merged = dict(bindings or {})
        merged.update(kw_bindings)
        with program.lock:
            program._apply_bindings(merged)
            base = _checkpoint(sess, sweep=0, programs=[program])
            program.ckpt_base = base
            program.ckpt_latest = base
            # the hydrated latest snapshot: what a recovery restores and
            # what the next boundary's delta diffs against (chained, so
            # an array that stops changing elides again)
            resume = base
            trace, done = None, 0
            retries = consecutive = 0
            while done < iters:
                leg = min(k, iters - done)
                try:
                    trace = program.run(
                        iters=leg, overlap=overlap, marks=marks,
                        backend=eff_backend,
                    )
                except MachineError as exc:
                    eff_backend, retries, consecutive = self._recover(
                        exc, program, resume, sweep=done, retries=retries,
                        consecutive=consecutive, backend=eff_backend,
                    )
                    continue
                consecutive = 0
                done += leg
                inc = _checkpoint(
                    sess, sweep=done, base=resume, programs=[program]
                )
                program.ckpt_base = resume
                program.ckpt_latest = inc
                resume = inc.merged(resume)
            return trace

    def run_batch(self, program, bindings, **kwargs):
        """Supervised :meth:`repro.session.Program.run_batch`.

        Batched runs execute on the simulator backend and have no sweep
        legs to resume (each member re-binds from the pre-call state),
        so supervision here is simpler: snapshot the pre-call state,
        and on ``MachineError`` restore it, back off, and retry the
        whole batch under the same retry budget.
        """
        program._require_loops("Supervisor.run_batch()")
        sess = self.session
        with program.lock:
            base = _checkpoint(sess, sweep=0, programs=[program])
            retries = consecutive = 0
            while True:
                try:
                    return program.run_batch(bindings, **kwargs)
                except MachineError as exc:
                    _, retries, consecutive = self._recover(
                        exc, program, base, sweep=0, retries=retries,
                        consecutive=consecutive, backend="simulator",
                        can_degrade=False,
                    )

    # -- the recovery step --------------------------------------------------

    def _recover(
        self, exc, program, resume, *, sweep, retries, consecutive, backend,
        can_degrade=True,
    ):
        """Handle one ``MachineError``: restore, back off, maybe degrade.

        ``resume`` is the checkpoint the caller intends the retry to
        resume from -- the supervised call's own latest (hydrated)
        snapshot, passed explicitly so recovery can never pick up a
        stale ``program.latest_checkpoint()`` left behind by an earlier
        checkpointed run.  Returns ``(backend, retries, consecutive)``
        for the next attempt, or re-raises ``exc`` once the retry
        budget is spent.
        """
        policy = self.policy
        sess = self.session
        retries += 1
        consecutive += 1
        cause = _cause_of(exc)
        ranks = tuple(getattr(exc, "failed_ranks", ()))
        # quiesce: the failed pool already closed itself; this closes
        # sibling pools and un-adopts shared memory so the restore
        # writes land in private storage
        sess.close_backend()
        _restore(sess, resume, programs=[program], counters=False)
        if retries > policy.max_retries:
            self.log.record(RecoveryEvent(
                cause=cause, ranks=ranks, sweep=sweep, backoff_s=0.0,
                attempt=retries, action="gave-up",
                backend=_backend_name(backend, sess),
            ))
            raise exc
        action = "retry"
        if can_degrade and consecutive >= policy.degrade_after \
                and backend != "simulator":
            backend = "simulator"
            self._degraded = True
            action = "degrade"
            warnings.warn(
                f"Supervisor: {consecutive} consecutive backend failures "
                f"(last: {cause}); degrading the remaining sweeps to the "
                "simulator backend -- results stay correct, wall-clock "
                "parallelism is lost. Investigate the worker pool.",
                RuntimeWarning,
                stacklevel=4,
            )
        backoff_s = policy.backoff(consecutive)
        self.log.record(RecoveryEvent(
            cause=cause, ranks=ranks, sweep=sweep, backoff_s=backoff_s,
            attempt=retries, action=action,
            backend=_backend_name(backend, sess),
        ))
        policy.sleep(backoff_s)
        return backend, retries, consecutive

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Supervisor(degraded={self._degraded}, log={self.log!r})"
        )


__all__ = ["Supervisor", "SupervisorPolicy", "RecoveryLog", "RecoveryEvent"]

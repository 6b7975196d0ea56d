"""The progress engine: deferred notifications, LPCs, and AM polling.

UPC++ requires "user-level progress" — the runtime only advances internal
state (delivers active messages, fires deferred completion notifications,
runs local procedure calls) inside calls to the progress engine: explicit
``progress()``, or implicitly ``future::wait()``, ``barrier()``, etc.

This module implements that engine for one rank.  Its single most important
queue, :attr:`ProgressEngine._deferred`, is the heart of the paper: under
*deferred* notification semantics, **every** asynchronous operation — even
one whose data movement finished synchronously via shared-memory bypass —
must push its completion notification here and pay the enqueue cost now and
the dispatch cost later, inside some progress call.  Eager notification
(Section III) is precisely the optimization of bypassing this queue when the
transfer completed synchronously.

With ``flags.progress_adaptive`` set, the drain loop is governed by an
:class:`~repro.runtime.adaptive_progress.AdaptiveProgressController`
(wired onto :attr:`RankContext.progress_ctl` by the world): each full poll
drains at most the controller's batch cap, provably-empty polls are elided
on the controller's cadence (charging ``PROGRESS_POLL_SKIP`` instead of a
full ``PROGRESS_POLL``), and the ``progress_max_age_ticks`` bound
guarantees no queued notification outlives its age budget — aged entries
are dispatched past the cap, and enqueue-time activity opportunistically
retires them.  With the flag off (the default) the engine is bit-identical
to the static drain-until-quiescent behaviour.

With ``flags.wait_hints`` set, a blocking wait additionally publishes a
:class:`~repro.runtime.wait_hints.WaitTarget` on the context, and each
poll starts with a *targeted drain*: one ``PROGRESS_HINT_SCAN``-charged
scan removes every queued thunk that resolves the awaited cell — wherever
it sits in the queue — and dispatches it ahead of the batch cap.  The
capped FIFO drain then proceeds unchanged over the remainder, so the
hint only reorders dispatch within the wait; nothing is dropped or run
twice, and queue-age accounting stays valid because removals never
reorder the survivors (FIFO stamps stay monotone).  While a targeted
wait is active the entry/exit aggregation flushes narrow to the awaited
destination (plus near-full ride-alongs and aged buffers) — see
:meth:`repro.gasnet.aggregator.AmAggregator.flush_for_wait`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.sim.costmodel import CostAction

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.adaptive_progress import AdaptiveProgressController
    from repro.runtime.context import RankContext

# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` or
# ``Event.X`` read runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_PROGRESS_QUEUE_ENQUEUE = CostAction.PROGRESS_QUEUE_ENQUEUE
_LPC_ENQUEUE = CostAction.LPC_ENQUEUE
_PROGRESS_POLL = CostAction.PROGRESS_POLL
_PROGRESS_DISPATCH = CostAction.PROGRESS_DISPATCH
_PROGRESS_POLL_SKIP = CostAction.PROGRESS_POLL_SKIP
_PROGRESS_ADAPT = CostAction.PROGRESS_ADAPT
_PROGRESS_HINT_SCAN = CostAction.PROGRESS_HINT_SCAN


Thunk = Callable[[], None]


class ProgressEngine:
    """Per-rank progress queues and the drain loop."""

    __slots__ = ("_ctx", "_deferred", "_lpcs", "_in_progress", "_pollers")

    def __init__(self, ctx: "RankContext"):
        self._ctx = ctx
        #: (enqueue timestamp ns, thunk, cell-or-None) — FIFO, so heads
        #: are oldest; the cell is the promise cell the thunk resolves
        #: (when the enqueuer knows it), matched by targeted drains
        self._deferred: deque[tuple[float, Thunk, object]] = deque()
        self._lpcs: deque[tuple[float, Thunk, object]] = deque()
        self._in_progress = False
        #: callables polled on every progress call (the conduit registers
        #: its AM-delivery poll here); each returns True if it did work.
        self._pollers: list[Callable[[], bool]] = []

    # -- enqueue ----------------------------------------------------------

    def enqueue_deferred(self, thunk: Thunk, cell: object = None) -> None:
        """Queue a deferred completion notification (charges enqueue cost).

        ``cell`` optionally names the promise cell ``thunk`` resolves, so
        a targeted drain (``wait_hints``) can find the entries an active
        wait is blocked on; ``None`` (the default) makes the entry
        invisible to targeting — it simply waits its FIFO turn.
        """
        ctx = self._ctx
        ctl = ctx.progress_ctl
        if ctl is not None and not self._in_progress:
            # enqueueing is engine activity: retire notifications that the
            # batch cap left behind past their age bound (the progress-queue
            # analogue of the aggregator's flush-at-next-conduit-activity)
            self._drain_aged(ctx, ctl)
        ctx.charge(_PROGRESS_QUEUE_ENQUEUE)
        self._deferred.append((ctx.clock.now_ns, thunk, cell))

    def enqueue_lpc(self, thunk: Thunk, cell: object = None) -> None:
        """Queue a local procedure call for the next progress call."""
        ctx = self._ctx
        ctl = ctx.progress_ctl
        if ctl is not None and not self._in_progress:
            self._drain_aged(ctx, ctl)
        ctx.charge(_LPC_ENQUEUE)
        self._lpcs.append((ctx.clock.now_ns, thunk, cell))

    def register_poller(self, poll: Callable[[], bool]) -> None:
        """Register a poll hook (e.g. conduit AM delivery)."""
        self._pollers.append(poll)

    # -- queries -----------------------------------------------------------

    def has_pending(self) -> bool:
        """Whether a progress call right now would do local work."""
        return bool(self._deferred) or bool(self._lpcs)

    def pending_deferred(self) -> int:
        return len(self._deferred)

    def oldest_pending_age_ns(self) -> float | None:
        """Age of the oldest queued thunk (None when both queues are empty).

        Both queues are FIFO with monotone enqueue stamps, so the heads are
        the oldest entries.  Exposed so the latency-guarantee invariant
        ("no entry outlives ``progress_max_age_ticks`` across engine
        activity") is externally checkable.
        """
        now = self._ctx.clock.now_ns
        ages = [now - q[0][0] for q in (self._deferred, self._lpcs) if q]
        return max(ages) if ages else None

    @property
    def in_progress(self) -> bool:
        """True while executing inside the progress engine (callbacks see
        this; re-entrant progress calls are no-ops, as in UPC++)."""
        return self._in_progress

    # -- the drain loop ---------------------------------------------------------

    def progress(self) -> bool:
        """One pass of user-level progress.

        Polls the conduit (delivering any arrived AMs), then drains the
        deferred-notification and LPC queues.  Notifications enqueued *by*
        callbacks during the drain are also executed (the loop runs until
        quiescent), matching UPC++'s drain-until-empty behavior.  Under
        ``progress_adaptive`` the drain is capped per poll (aged entries
        excepted) and provably-empty polls may be elided — see
        :mod:`repro.runtime.adaptive_progress`.

        Returns True if any work was performed.  Re-entrant calls (progress
        from inside a callback) return False immediately.
        """
        if self._in_progress:
            return False
        ctx = self._ctx
        ctl = ctx.progress_ctl
        if ctl is not None:
            return self._progress_adaptive(ctx, ctl)
        ctx.charge(_PROGRESS_POLL)
        self._in_progress = True
        did_work = False
        obs = ctx.obs
        if obs is not None:
            obs.on_progress_enter(len(self._deferred), ctx.clock.now_ns)
        target = ctx.active_wait_target
        dispatched = 0
        try:
            # publish destination-batched AMs before doing anything else:
            # progress entry is a flush point (covers barrier()/wait() too,
            # which drive their waits through this method); a targeted wait
            # narrows the flush to the awaited destination + ride-alongs
            if self._flush_for_progress(ctx, target, "progress_entry"):
                did_work = True
            for poll in self._pollers:
                if poll():
                    did_work = True
            if target is not None and target.cell is not None:
                # the awaited entries jump the FIFO; the static drain below
                # retires everything else in this same poll regardless
                n = self._drain_targeted(ctx, target.cell)
                if n:
                    did_work = True
                    dispatched += n
            while self._deferred or self._lpcs:
                while self._deferred:
                    thunk = self._deferred.popleft()[1]
                    ctx.charge(_PROGRESS_DISPATCH)
                    thunk()
                    did_work = True
                    dispatched += 1
                while self._lpcs:
                    lpc = self._lpcs.popleft()[1]
                    ctx.charge(_PROGRESS_DISPATCH)
                    lpc()
                    did_work = True
                    dispatched += 1
                # callbacks may have triggered AM sends back to ourselves
                for poll in self._pollers:
                    if poll():
                        did_work = True
            # handlers run during the drain may have buffered new
            # aggregatable AMs; flush before returning so nothing is
            # stranded while this rank blocks (e.g. inside a barrier)
            if self._flush_for_progress(ctx, target, "progress_exit"):
                did_work = True
        finally:
            self._in_progress = False
        if obs is not None:
            obs.on_progress_drained(dispatched)
        return did_work

    # -- adaptive drain ----------------------------------------------------

    def _can_elide(self, ctx: "RankContext") -> bool:
        """Whether a poll right now provably has nothing to do: no queued
        thunks, no arrived AMs, no parked aggregation.  (Custom pollers
        beyond the conduit's must not rely on elided polls; the runtime
        registers only the conduit poll, whose work is exactly
        ``conduit.has_incoming``.)"""
        if self._deferred or self._lpcs:
            return False
        conduit = ctx.conduit
        if conduit is not None and conduit.has_incoming(ctx.rank):
            return False
        agg = ctx.am_agg
        return agg is None or not agg.has_pending()

    def _progress_adaptive(
        self, ctx: "RankContext", ctl: "AdaptiveProgressController"
    ) -> bool:
        if ctl.may_skip() and self._can_elide(ctx):
            ctx.charge(_PROGRESS_POLL_SKIP)
            ctl.on_skip()
            return False
        ctx.charge(_PROGRESS_POLL)
        ctx.charge(_PROGRESS_ADAPT)
        self._in_progress = True
        did_work = False
        obs = ctx.obs
        if obs is not None:
            obs.on_progress_enter(len(self._deferred), ctx.clock.now_ns)
        target = ctx.active_wait_target
        cap = ctl.on_poll(len(self._deferred))
        max_age = ctl.max_age_ns
        dispatched = 0
        hinted = 0
        try:
            if self._flush_for_progress(ctx, target, "progress_entry"):
                did_work = True
            for poll in self._pollers:
                if poll():
                    did_work = True
            if target is not None and target.cell is not None:
                # dispatch what the caller is blocked on ahead of (and not
                # counted against) the batch cap — the whole point of the
                # hint: the awaited completion must not wait ceil(depth/cap)
                # polls for its FIFO turn
                hinted = self._drain_targeted(ctx, target.cell)
                if hinted:
                    did_work = True
                    ctl.on_hinted(hinted)
            while self._deferred or self._lpcs:
                if dispatched >= cap:
                    # cap reached: only heads past their age budget may
                    # still go; check BOTH queues (a fresh deferred head
                    # must not mask an aged LPC behind it)
                    now = ctx.clock.now_ns
                    if self._deferred and now - self._deferred[0][0] >= max_age:
                        queue = self._deferred
                    elif self._lpcs and now - self._lpcs[0][0] >= max_age:
                        queue = self._lpcs
                    else:
                        # leave the remainder for the next poll
                        break
                else:
                    queue = self._deferred if self._deferred else self._lpcs
                thunk = queue.popleft()[1]
                ctx.charge(_PROGRESS_DISPATCH)
                thunk()
                did_work = True
                dispatched += 1
                if not self._deferred and not self._lpcs:
                    # callbacks may have triggered AM sends back to ourselves
                    for poll in self._pollers:
                        if poll():
                            did_work = True
            if self._flush_for_progress(ctx, target, "progress_exit"):
                did_work = True
        finally:
            self._in_progress = False
        ctl.on_drained(
            ctx.clock.now_ns,
            dispatched,
            len(self._deferred) + len(self._lpcs),
            did_work,
        )
        if obs is not None:
            obs.on_progress_drained(dispatched + hinted)
        return did_work

    def _drain_aged(
        self, ctx: "RankContext", ctl: "AdaptiveProgressController"
    ) -> None:
        """Dispatch queue heads that outlived ``progress_max_age_ticks``.

        Called from enqueue-time engine activity (never re-entrantly): a
        rank that keeps issuing without polling would otherwise strand its
        earlier deferred notifications past the latency guarantee.  New
        enqueues during the drain carry fresh stamps, so the loop
        terminates as soon as a head is inside its budget.
        """
        max_age = ctl.max_age_ns
        now = ctx.clock.now_ns
        if not (
            (self._deferred and now - self._deferred[0][0] >= max_age)
            or (self._lpcs and now - self._lpcs[0][0] >= max_age)
        ):
            return
        # the mini-drain is a (partial) pass of the engine: model it as one
        ctx.charge(_PROGRESS_POLL)
        self._in_progress = True
        dispatched = 0
        try:
            while True:
                now = ctx.clock.now_ns
                if self._deferred and now - self._deferred[0][0] >= max_age:
                    queue = self._deferred
                elif self._lpcs and now - self._lpcs[0][0] >= max_age:
                    queue = self._lpcs
                else:
                    break
                thunk = queue.popleft()[1]
                ctx.charge(_PROGRESS_DISPATCH)
                thunk()
                dispatched += 1
        finally:
            self._in_progress = False
        ctl.on_aged_drain(dispatched)

    # -- targeted drain (wait hints) ---------------------------------------

    def _drain_targeted(self, ctx: "RankContext", cell: object) -> int:
        """Dispatch every queued thunk that resolves ``cell``, wherever it
        sits in either queue.

        One ``PROGRESS_HINT_SCAN`` models the scan; each match is charged
        the normal ``PROGRESS_DISPATCH``.  Matches are removed *before*
        any of them runs — their callbacks may enqueue new entries (e.g.
        ``then`` chains), which must land behind the surviving FIFO, not
        be swept up mid-rebuild.  Removal preserves the survivors' order,
        so both queues stay FIFO with monotone stamps and the age
        accounting (``oldest_pending_age_ns``) remains valid.  Only
        called between ``_in_progress = True``/``False`` of a poll.
        """
        ctx.charge(_PROGRESS_HINT_SCAN)
        matched: list[Thunk] = []
        for name in ("_deferred", "_lpcs"):
            queue = getattr(self, name)
            if not queue:
                continue
            if not any(entry[2] is cell for entry in queue):
                continue
            kept = deque(entry for entry in queue if entry[2] is not cell)
            matched.extend(
                entry[1] for entry in queue if entry[2] is cell
            )
            setattr(self, name, kept)
        for thunk in matched:
            ctx.charge(_PROGRESS_DISPATCH)
            thunk()
        return len(matched)

    def _flush_for_progress(self, ctx: "RankContext", target, reason: str):
        """The poll's aggregation flush, narrowed by an active wait target.

        Without a target (or with a non-targeted one — a barrier is
        blocked on everything) this is exactly the pre-existing
        ``flush_aggregation``: every buffer ships.  With a targeted wait
        active, only the awaited destination, near-full ride-alongs and
        aged buffers ship — sparse buffers keep batching while the
        caller spins, and the wait loop itself flushes everything before
        actually blocking (see ``Future._wait_hinted``), so nothing can
        be stranded.
        """
        if target is None or not target.targeted:
            return ctx.flush_aggregation(reason=reason)
        agg = ctx.am_agg
        if agg is not None and agg.has_pending():
            dsts = target.flush_dsts
            if len(dsts) > 1:
                # a counter wait: every member destination is awaited, so
                # each gets the targeted-flush treatment (ride-alongs and
                # age flushes are handled inside the first call; the rest
                # only ship their own buffer if still pending)
                return sum(agg.flush_for_wait(d) for d in dsts)
            return agg.flush_for_wait(dsts[0] if dsts else None)
        return 0

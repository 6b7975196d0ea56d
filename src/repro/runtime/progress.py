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
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.sim.costmodel import CostAction

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import RankContext

# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` or
# ``Event.X`` read runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_PROGRESS_QUEUE_ENQUEUE = CostAction.PROGRESS_QUEUE_ENQUEUE
_LPC_ENQUEUE = CostAction.LPC_ENQUEUE
_PROGRESS_POLL = CostAction.PROGRESS_POLL
_PROGRESS_DISPATCH = CostAction.PROGRESS_DISPATCH


Thunk = Callable[[], None]


class ProgressEngine:
    """Per-rank progress queues and the drain loop."""

    __slots__ = ("_ctx", "_deferred", "_lpcs", "_in_progress")

    def __init__(self, ctx: "RankContext"):
        self._ctx = ctx
        #: deferred completion notifications, FIFO
        self._deferred: deque[Thunk] = deque()
        self._lpcs: deque[Thunk] = deque()
        self._in_progress = False

    # -- enqueue ----------------------------------------------------------

    def enqueue_deferred(self, thunk: Thunk) -> None:
        """Queue a deferred completion notification (charges enqueue cost)."""
        self._ctx.charge(_PROGRESS_QUEUE_ENQUEUE)
        self._deferred.append(thunk)

    def enqueue_lpc(self, thunk: Thunk) -> None:
        """Queue a local procedure call for the next progress call."""
        self._ctx.charge(_LPC_ENQUEUE)
        self._lpcs.append(thunk)

    # -- queries -----------------------------------------------------------

    def has_pending(self) -> bool:
        """Whether a progress call right now would do local work."""
        return bool(self._deferred) or bool(self._lpcs)

    def pending_deferred(self) -> int:
        return len(self._deferred)

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
        quiescent), matching UPC++'s drain-until-empty behavior.

        Returns True if any work was performed.  Re-entrant calls (progress
        from inside a callback) return False immediately.
        """
        if self._in_progress:
            return False
        ctx = self._ctx
        ctx.charge(_PROGRESS_POLL)
        self._in_progress = True
        did_work = False
        obs = ctx.obs
        if obs is not None:
            obs.on_progress_enter(len(self._deferred), ctx.clock.now_ns)
        # without an aggregator both flushes below are no-ops
        aggregating = ctx.am_agg is not None
        try:
            # publish destination-batched AMs before doing anything else:
            # progress entry is a flush point (covers barrier()/wait() too,
            # which drive their waits through this method)
            if aggregating and ctx.flush_aggregation(reason="progress_entry"):
                did_work = True
            if ctx.conduit.poll(ctx):
                did_work = True
            while self._deferred or self._lpcs:
                while self._deferred:
                    thunk = self._deferred.popleft()
                    ctx.charge(_PROGRESS_DISPATCH)
                    thunk()
                    did_work = True
                while self._lpcs:
                    lpc = self._lpcs.popleft()
                    ctx.charge(_PROGRESS_DISPATCH)
                    lpc()
                    did_work = True
                # callbacks may have triggered AM sends back to ourselves
                if ctx.conduit.poll(ctx):
                    did_work = True
            # handlers run during the drain may have buffered new
            # aggregatable AMs; flush before returning so nothing is
            # stranded while this rank blocks (e.g. inside a barrier)
            if aggregating and ctx.flush_aggregation(reason="progress_exit"):
                did_work = True
        finally:
            self._in_progress = False
        return did_work

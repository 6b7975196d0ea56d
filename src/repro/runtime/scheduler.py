"""Deterministic cooperative scheduling for simulated SPMD ranks.

:class:`SchedulerCore` is the scheduling policy: the rank state table,
blocked-rank predicates, the round-robin promote-and-pick scan, the
deadlock declaration, and the first-error record.  Ranks run under it on
:class:`~repro.runtime.event_loop.EventLoopScheduler`: every simulated
rank ("process" in the paper's single-node runs) is multiplexed onto one
OS thread and exactly **one** rank runs at any moment; control passes at
well-defined switch points (progress calls, blocking waits, barriers,
rank completion).  Every switch decision goes
through the core's methods, so a program's interleaving — and therefore
its functional results and virtual clocks — is a pure function of the
program (``tests/test_sched_golden.py`` pins it event by event).

Blocking is predicate-based: a rank blocks with a ``wake_when`` callable;
whenever the scheduler picks the next rank to run it first re-evaluates
blocked ranks' predicates (safe, because only the current owner of control
touches shared state).  If no rank is runnable and no predicate is true,
the job is hung: a :class:`~repro.errors.DeadlockError` is raised in every
blocked rank, mirroring a wedged SPMD job.

Wake lists (``FeatureFlags.sched_wake_list``, default on) replace that
per-switch predicate scan with event-driven notification: a blocking
construct that can name its wake event passes a *wake key* alongside the
predicate (see :class:`~repro.runtime.switchpoints.BlockUntil`), the
completion sites (cell fulfillment, conduit inbox pushes, barrier epoch
advance) set a per-rank wake bit, and :meth:`SchedulerCore._pick_next`
promotes exactly the ranks whose bits are set — no predicate is evaluated.
The promotion set and the ring-order pick are provably identical to the
scan's (DESIGN.md §9 has the argument); any rank that blocks *without* a
key drops the whole scheduler back to the predicate scan until it wakes,
so exotic ``BlockUntil`` uses keep their exact legacy semantics and the
scan stays available as the differential oracle
(``sched_wake_list=False``).
"""

from __future__ import annotations

import logging
from typing import Callable, Optional

from repro.errors import DeadlockError

_READY = "ready"
_BLOCKED = "blocked"
_DONE = "done"


class SchedulerCore:
    """Scheduling policy: which rank runs next, and when the job is hung.

    Parameters
    ----------
    nranks:
        Number of simulated ranks.
    switch_trace:
        Optional list; when given, every scheduling decision appends a
        small tuple (``("yield", rank)``, ``("block", rank)``,
        ``("pick", me, chosen)``, …), so two runs of the same program
        produce equal traces iff they scheduled identically — the golden
        oracle's measurement device.  ``None`` (the default) records
        nothing.
    wake_list:
        Use event-driven wake lists for keyed blocks (the default); False
        forces the legacy per-switch predicate scan for everything — the
        differential oracle the wake-list tests diff against.
    """

    def __init__(
        self,
        nranks: int,
        switch_trace: Optional[list] = None,
        *,
        wake_list: bool = True,
    ):
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.nranks = nranks
        self._states = [_READY] * nranks
        self._preds: list[Optional[Callable[[], bool]]] = [None] * nranks
        #: exact count of ranks in ``_BLOCKED`` — maintained at every state
        #: transition so :meth:`_pick_next` can skip the promotion scan
        #: (and early-break) when nothing is blocked.  Undercounting would
        #: change scheduling; every mutation site guards on the prior state.
        self._blocked = 0
        self._error: Optional[BaseException] = None
        self._started = False
        self._switch_trace = switch_trace
        #: control transfers between *distinct* ranks (bench: switches/sec)
        self.switches = 0
        # -- wake-list state (all bitmasks are over rank numbers) ----------
        self._wake_list = wake_list
        #: bit r set ⇔ ``_states[r] is _READY`` (maintained at every state
        #: transition; the masked pick reads it with two shifts)
        self._ready_mask = (1 << nranks) - 1
        #: blocked ranks whose registered wake event has fired (subset of
        #: ``_keyed_mask``) — the promotion set of the next masked pick
        self._wake_mask = 0
        #: blocked ranks that registered a recognized wake key
        self._keyed_mask = 0
        #: keyed blocked ranks woken by an incoming AM / pending progress
        #: work (every recognized key includes ``ctx.has_incoming()``)
        self._incoming_waiters = 0
        #: keyed blocked ranks woken by the barrier epoch advancing
        self._epoch_waiters = 0
        #: count of blocked ranks *without* a key: while nonzero the pick
        #: falls back to the legacy predicate scan (exotic BlockUntil uses
        #: keep their exact semantics; with ``wake_list=False`` every
        #: block counts here, making the scan unconditional)
        self._unkeyed = 0
        #: per-rank blocking-episode counter: a cell callback registered in
        #: an earlier episode compares its captured generation against this
        #: and does nothing when stale (the rank was woken by another event
        #: and has moved on — possibly blocking again on a different cell)
        self._wake_gen = [0] * nranks
        #: the World whose completion sites notify this scheduler, bound by
        #: :meth:`World.attach_scheduler <repro.runtime.runtime.World.\
        #: attach_scheduler>`.  Until bound, keyed blocks are demoted to
        #: the predicate scan (see :meth:`_enter_blocked`).
        self._wake_source = None
        #: keyed blocks demoted to the scan because no wake source was
        #: bound when they parked — the observable form of the old silent
        #: nested-world fallback (zero on every properly attached run)
        self.keyed_scan_fallbacks = 0
        self._fallback_noted = False

    # -- driver API ---------------------------------------------------------

    def first_error(self) -> Optional[BaseException]:
        return self._error

    # -- internals ----------------------------------------------------------

    def _record_error(self, exc: BaseException) -> None:
        """First error wins; later failures are teardown echoes."""
        if self._error is None:
            self._error = exc

    def _teardown_error(self) -> DeadlockError:
        """The exception secondary ranks see while the job unwinds."""
        return DeadlockError(
            f"SPMD job tearing down after failure: {self._error!r}"
        )

    def _deadlock_error(self) -> DeadlockError:
        return DeadlockError(
            "all simulated ranks are blocked and no pending event can wake "
            "any of them (states: "
            + ", ".join(f"{i}:{s}" for i, s in enumerate(self._states))
            + ")"
        )

    # -- wake-list internals -------------------------------------------------

    def bind_wake_source(self, world) -> None:
        """Record ``world`` as the source of wake events for this
        scheduler (called by ``World.attach_scheduler``).  Every
        recognized wake key's predicate folds in events — an incoming AM,
        the barrier epoch advancing — that only the world-level notify
        sites push, so until a source is bound a keyed block may not park
        on its wake bit: it would sleep through its own wake."""
        self._wake_source = world

    def _enter_blocked(self, rank: int, pred, wake) -> None:
        """Record ``rank`` as blocked; register its wake key (or count it
        unkeyed, which pins the pick to the legacy scan until it wakes)."""
        self._states[rank] = _BLOCKED
        self._preds[rank] = pred
        self._blocked += 1
        bit = 1 << rank
        self._ready_mask &= ~bit
        if not self._wake_list or wake is None:
            self._unkeyed += 1
            return
        if self._wake_source is None:
            # keyed, but no world routes wake events here: this scheduler
            # is driving ranks of a world that was never attached via
            # World.attach_scheduler.  Demote to the predicate scan —
            # correct (the scan re-evaluates the predicate every switch),
            # observable (counter + one-time note), never a lost wake.
            self.keyed_scan_fallbacks += 1
            if not self._fallback_noted:
                self._fallback_noted = True
                logging.getLogger(__name__).debug(
                    "keyed block on a scheduler with no bound wake "
                    "source; falling back to the predicate scan (counted "
                    "in SchedulerCore.keyed_scan_fallbacks — attach the "
                    "scheduler via World.attach_scheduler to restore "
                    "wake-list scheduling)"
                )
            self._unkeyed += 1
            return
        kind = wake[0]
        if kind == "cell":
            self._keyed_mask |= bit
            self._incoming_waiters |= bit
            self._wake_gen[rank] += 1
            gen = self._wake_gen[rank]
            # the cell was observed non-ready just before this block, so
            # the callback always parks (never fires inline here)
            wake[1].add_callback(
                lambda _vals, r=rank, g=gen: self._cell_wake(r, g)
            )
        elif kind == "epoch":
            self._keyed_mask |= bit
            self._incoming_waiters |= bit
            self._epoch_waiters |= bit
        else:
            self._unkeyed += 1

    def _unregister_wake(self, rank: int) -> None:
        """Drop ``rank``'s wake registration — called on every transition
        out of ``_BLOCKED`` (promotion, teardown wake, failure)."""
        bit = 1 << rank
        if self._keyed_mask & bit:
            self._keyed_mask &= ~bit
            self._incoming_waiters &= ~bit
            self._epoch_waiters &= ~bit
            self._wake_mask &= ~bit
            self._wake_gen[rank] += 1
        else:
            self._unkeyed -= 1

    def _cell_wake(self, rank: int, gen: int) -> None:
        """A cell this rank blocked on became ready (stale-guarded)."""
        if self._wake_gen[rank] == gen:
            bit = 1 << rank
            if self._keyed_mask & bit:
                self._wake_mask |= bit

    def notify_incoming(self, rank: int) -> None:
        """An AM was pushed to ``rank``'s inbox: wake it if it is parked
        on any recognized key (every key includes ``has_incoming()``)."""
        bit = 1 << rank
        if self._incoming_waiters & bit:
            self._wake_mask |= bit

    def notify_barrier_epoch(self) -> None:
        """The barrier epoch advanced: wake every parked barrier waiter."""
        self._wake_mask |= self._epoch_waiters

    def _pick_next(self, me: int, *, include_self: bool) -> Optional[int]:
        """Choose the next rank to run, scanning round-robin from ``me+1``.

        Blocked ranks whose predicates now hold are promoted to ready (all
        of them — promotion must not stop at the first hit, later switch
        points depend on it); the pick is the first rank, in ring order,
        that is ready once its visit's promotion has been applied.
        Returns ``None`` when no rank can make progress.

        With wake lists on and every blocked rank keyed, the promotion set
        is exactly the fired wake bits and the pick is two mask shifts —
        no predicate runs, O(set bits) instead of O(n).  The result is
        identical to the scan's: a keyed rank's wake bit is set iff its
        predicate is true (the events are monotone while the rank is
        parked and every mutation site notifies — DESIGN.md §9), and both
        paths pick the minimum ring distance over ready ∪ promoted.
        Any unkeyed blocked rank forces the legacy scan, which evaluates
        predicates in exactly the ascending ring-distance order of the
        original two-pass implementation, so promotions and the final pick
        are unchanged.
        """
        n = self.nranks
        states = self._states
        preds = self._preds
        first: Optional[int] = None
        if self._wake_list and self._unkeyed == 0:
            wake = self._wake_mask
            if wake:
                # promote every woken rank (not just the eventual pick —
                # later switch points depend on full promotion)
                while wake:
                    low = wake & -wake
                    r = low.bit_length() - 1
                    wake &= wake - 1
                    states[r] = _READY
                    preds[r] = None
                    self._blocked -= 1
                    self._unregister_wake(r)
                    self._ready_mask |= low
            ready = self._ready_mask
            # ring order from me+1: ranks above me, then below, then (only
            # when the caller may self-resume) me itself
            hi = ready >> (me + 1)
            if hi:
                first = me + 1 + ((hi & -hi).bit_length() - 1)
            else:
                lo = ready & ((1 << me) - 1)
                if lo:
                    first = (lo & -lo).bit_length() - 1
                elif include_self and (ready >> me) & 1:
                    first = me
        else:
            # ring distances 1..n-1 visit every other rank; distance n is
            # `me` itself, visited (last) only when the caller may
            # self-resume
            stop = n + 1 if include_self else n
            if self._blocked == 0:
                # nothing to promote: the pick is simply the first ready
                # rank in ring order, and the scan can stop there.  Same
                # result as the full scan (whose promotion pass would be a
                # no-op), but O(1) instead of O(n) in the switch-dense
                # common case.
                for i in range(1, stop):
                    r = me + i
                    if r >= n:
                        r -= n
                    if states[r] is _READY:
                        first = r
                        break
            else:
                for i in range(1, stop):
                    r = me + i
                    if r >= n:
                        r -= n
                    st = states[r]
                    if st is _BLOCKED:
                        pred = preds[r]
                        if pred is not None and pred():
                            states[r] = _READY
                            preds[r] = None
                            self._blocked -= 1
                            self._unregister_wake(r)
                            self._ready_mask |= 1 << r
                            if first is None:
                                first = r
                    elif st is _READY and first is None:
                        first = r
        if self._switch_trace is not None:
            self._switch_trace.append(("pick", me, first))
        return first


"""Rank scheduling: every simulated rank on one single-threaded event loop.

:class:`EventLoopScheduler` is the only scheduler.  Every simulated rank
("process" in the paper's single-node runs) is multiplexed onto the
calling thread and exactly **one** rank runs at any moment; control
passes at well-defined switch points (progress calls, blocking waits,
barriers, rank completion).  A program's interleaving — and therefore its
functional results and virtual clocks — is a pure function of the program
(``tests/test_sched_golden.py`` pins it event by event).

Rank bodies written as generators (yielding
:class:`~repro.runtime.switchpoints.SwitchCommand` objects) are resumed in
place by a trampoline, so a switch costs one generator ``send`` and a
1024-rank world needs zero extra threads — the
lightweight-task-as-continuation design of many-task runtimes.  Every
bundled app and benchmark runner ships such a body.

Plain-function bodies (user code) run through a per-rank *thread shim*:
one helper thread per rank, handing control to and from the loop through
a pair of Events so that exactly one of them runs at any moment.  The shim
turns a blocking primitive called on its thread into the same switch
command a generator body would yield, so both kinds of body schedule
identically.

Blocking is predicate-based: a rank blocks with a ``wake_when`` callable;
whenever the loop picks the next rank to run it first promotes blocked
ranks whose predicates hold (safe, because only the current owner of
control touches shared state).  If no rank is runnable and no predicate is
true, the job is hung: a :class:`~repro.errors.DeadlockError` is raised in
every blocked rank, mirroring a wedged SPMD job.

Wake lists (``FeatureFlags.sched_wake_list``, default on) replace that
per-switch predicate scan with event-driven notification: a blocking
construct that can name its wake event passes a *wake key* alongside the
predicate (see :class:`~repro.runtime.switchpoints.BlockUntil`), the
completion sites (cell fulfillment, conduit inbox pushes, barrier epoch
advance) set a per-rank wake bit, and :meth:`EventLoopScheduler._pick_next`
promotes exactly the ranks whose bits are set — no predicate is evaluated.
The promotion set and the ring-order pick are provably identical to the
scan's (DESIGN.md §9 has the argument); any rank that blocks *without* a
key drops the whole loop back to the predicate scan until it wakes, so
exotic ``BlockUntil`` uses keep their exact legacy semantics and the scan
stays available as the differential oracle (``sched_wake_list=False``).

The loop keeps the token-passing control flow of the thread-per-rank
scheduler it replaced, branch for branch (immediate-true predicates,
conservative self-resume, the deadlock declaration in both the blocking
and the finishing path, first-error-wins teardown), and reproduces the
switch traces, values and clocks recorded from it exactly.
"""

from __future__ import annotations

import inspect
import threading
from types import GeneratorType
from typing import Any, Callable, Optional, Sequence

from repro.errors import DeadlockError, SchedulerError
from repro.runtime.context import current_ctx_or_none, set_current_ctx
from repro.runtime.switchpoints import (
    BlockUntil,
    IdleUntil,
    SwitchCommand,
    YIELD_NOW,
    run_blocking,
)

# rank states (identity-compared on the hot path)
_READY = "ready"
_BLOCKED = "blocked"
_DONE = "done"

# task-outcome kinds (identity-compared on the hot path)
_CMD = "cmd"
_FINISHED = "finished"
_ERROR = "error"


class _GenTask:
    """A rank body running as a generator continuation on the loop thread."""

    __slots__ = ("gen", "started")

    kind = "gen"

    def __init__(self, gen):
        self.gen = gen
        self.started = False

    def resume(self, throw: Optional[BaseException] = None):
        self.started = True
        try:
            if throw is not None:
                cmd = self.gen.throw(throw)
            else:
                cmd = self.gen.send(None)
        except StopIteration as stop:
            return _FINISHED, stop.value
        except BaseException as exc:  # noqa: BLE001 - routed to teardown
            return _ERROR, exc
        if isinstance(cmd, SwitchCommand):
            return _CMD, cmd
        return _ERROR, SchedulerError(
            f"rank body yielded {cmd!r}; expected a SwitchCommand"
        )


class _ThreadShimTask:
    """A plain-function rank body on a helper thread.

    The loop and the shim thread hand control back and forth through a
    pair of Events, exactly one of the two running at any moment: plain
    bodies schedule exactly as generator bodies do, at the cost of two
    thread switches per switch point.
    """

    kind = "shim"

    def __init__(self, rank: int, ctx, fn, args: Sequence[Any]):
        self._rank = rank
        self._ctx = ctx
        self._fn = fn
        self._args = args
        self._resume_evt = threading.Event()
        self._post_evt = threading.Event()
        self._outcome = None
        self._throw: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self.started = False

    def owns_current_thread(self) -> bool:
        return self._thread is threading.current_thread()

    # -- loop side ---------------------------------------------------------

    def resume(self, throw: Optional[BaseException] = None):
        self._throw = throw
        if not self.started:
            self.started = True
            self._thread = threading.Thread(
                target=self._main,
                name=f"repro-shim-{self._rank}",
                daemon=True,
            )
            self._thread.start()
        else:
            self._resume_evt.set()
        self._post_evt.wait()
        self._post_evt.clear()
        out = self._outcome
        self._outcome = None
        return out

    # -- shim-thread side --------------------------------------------------

    def post_cmd(self, cmd: SwitchCommand) -> None:
        """Park the shim thread on a switch command until the loop resumes
        it (raising here if the loop is propagating a teardown)."""
        self._outcome = (_CMD, cmd)
        self._post_evt.set()
        self._resume_evt.wait()
        self._resume_evt.clear()
        if self._throw is not None:
            exc = self._throw
            self._throw = None
            raise exc

    def _main(self) -> None:
        set_current_ctx(self._ctx)
        try:
            rv = self._fn(*self._args)
            if isinstance(rv, GeneratorType):
                # the body returned a continuation (e.g. a lambda wrapping
                # a generator function): drive it here, on the blocking
                # primitives this shim provides
                rv = run_blocking(self._ctx, rv)
        except BaseException as exc:  # noqa: BLE001 - routed to teardown
            set_current_ctx(None)
            self._outcome = (_ERROR, exc)
            self._post_evt.set()
            return
        set_current_ctx(None)
        self._outcome = (_FINISHED, rv)
        self._post_evt.set()


class EventLoopScheduler:
    """All ranks of one simulated job multiplexed onto the calling thread.

    Usage (done by :func:`repro.runtime.runtime.spmd_run`)::

        sched = EventLoopScheduler(ranks)
        results = sched.run(world, fn, args)
        if sched.first_error() is not None: raise sched.first_error()

    ``fn`` being a generator function selects the continuation path; any
    other callable runs under the thread shim.

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
        self._tasks: list = [None] * nranks
        self._results: list = [None] * nranks
        #: the IdleUntil each ready rank last yielded, until it is resumed
        self._idle: list[Optional[IdleUntil]] = [None] * nranks
        self._contexts: Optional[list] = None
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

    def first_error(self) -> Optional[BaseException]:
        return self._error

    # -- context-facing API (reached through RankContext) -------------------

    def yield_now(self, rank: int) -> None:
        task = self._tasks[rank]
        if type(task) is _ThreadShimTask and task.owns_current_thread():
            task.post_cmd(YIELD_NOW)
            return
        # inline call from a continuation task: legal only when no actual
        # switch would happen (the no-peer fast return)
        if self._switch_trace is not None:
            self._switch_trace.append(("yield", rank))
        if self._pick_next(rank, include_self=False) is None:
            return
        raise SchedulerError(
            f"rank {rank} called yield_to_others from inside a continuation "
            "task while another rank is runnable; continuation bodies must "
            "yield switch commands (yield YIELD_NOW) instead"
        )

    def block_until(self, rank: int, wake_when, wake=None) -> None:
        task = self._tasks[rank]
        if type(task) is _ThreadShimTask and task.owns_current_thread():
            task.post_cmd(BlockUntil(wake_when, wake))
            return
        if wake_when():
            return
        raise SchedulerError(
            f"rank {rank} called block_until from inside a continuation "
            "task with a pending predicate; continuation bodies must yield "
            "switch commands (yield from fut.wait_gen() / barrier_gen()) "
            "instead of calling blocking primitives inline"
        )

    # -- driver --------------------------------------------------------------

    def run(self, world, fn, args: Sequence[Any] = ()) -> list:
        """Run ``fn(*args)`` on every rank to completion; return per-rank
        results (the first failure is recorded, not raised — the caller
        checks :meth:`first_error`)."""
        if self._started:
            raise SchedulerError("scheduler already started")
        self._started = True
        # wire the wake fabric: completion sites notify this loop and every
        # ctx routes blocking through it (idempotent for a world already
        # attached to this loop)
        world.attach_scheduler(self)
        contexts = world.contexts
        self._contexts = contexts
        genfunc = inspect.isgeneratorfunction(fn)
        for r in range(self.nranks):
            if genfunc:
                self._tasks[r] = _GenTask(fn(*args))
            else:
                self._tasks[r] = _ThreadShimTask(r, contexts[r], fn, args)
        prev_ctx = current_ctx_or_none()
        try:
            self._drive(contexts)
        finally:
            set_current_ctx(prev_ctx)
        return list(self._results)

    # -- loop internals ------------------------------------------------------

    def _drive(self, contexts) -> None:
        states = self._states
        tasks = self._tasks
        idles = self._idle
        trace = self._switch_trace
        cur = 0
        throw: Optional[BaseException] = None
        bound = -1  # rank whose ctx is bound to the loop thread's TLS
        while True:
            idle = idles[cur]
            if idle is not None:
                # the idle loop's turn, run here if it polls nothing and
                # moves the clock; else the body repeats both checks
                ctx = contexts[cur]
                if not ctx.has_incoming() and ctx.clock.advance_slice(
                    idle.until_ns, idle.slice_ns
                ):
                    if trace is not None:
                        trace.append(("yield", cur))
                    nxt = self._pick_next(cur, include_self=False)
                    if nxt is not None and nxt != cur:
                        self.switches += 1
                        cur = nxt
                    continue
                idles[cur] = None
            task = tasks[cur]
            if task.kind == "gen" and bound != cur:
                set_current_ctx(contexts[cur])
                bound = cur
            kind, payload = task.resume(throw)
            throw = None
            if kind is _CMD:
                cmd = payload
                if type(cmd) is BlockUntil:
                    pred = cmd.wake_when
                    if pred():
                        continue  # immediate-true: no switch
                    if trace is not None:
                        trace.append(("block", cur))
                    self._enter_blocked(cur, pred, cmd.wake)
                    nxt = self._pick_next(cur, include_self=True)
                    if nxt == cur:
                        # own predicate turned true during the scan (which
                        # promoted it) — conservatively re-run
                        continue
                    if nxt is None:
                        self._deadlock_unwind(cur)
                        return
                    self.switches += 1
                    cur = nxt
                else:  # YieldNow or IdleUntil
                    if type(cmd) is IdleUntil:
                        idles[cur] = cmd
                    if trace is not None:
                        trace.append(("yield", cur))
                    nxt = self._pick_next(cur, include_self=False)
                    if nxt is None or nxt == cur:
                        continue
                    self.switches += 1
                    cur = nxt
            elif kind is _FINISHED:
                if trace is not None:
                    trace.append(("finish", cur))
                self._results[cur] = payload
                self._retire(cur)
                nxt = self._pick_next(cur, include_self=False)
                if nxt is not None:
                    self.switches += 1
                    cur = nxt
                    continue
                if any(s is _BLOCKED for s in states):
                    # survivors are all blocked with false predicates: hung
                    if trace is not None:
                        trace.append(("deadlock", tuple(states)))
                    self._record_error(self._deadlock_error())
                    self._teardown(skip=None)
                return
            else:  # _ERROR
                if trace is not None:
                    trace.append(("fail", cur))
                self._record_error(payload)
                self._retire(cur)
                self._teardown(skip=cur)
                return

    def _retire(self, rank: int) -> None:
        """Move ``rank`` to ``_DONE`` from any state, dropping its wake
        registration if it was parked."""
        if self._states[rank] is _BLOCKED:
            self._blocked -= 1
            self._unregister_wake(rank)
        self._states[rank] = _DONE
        self._idle[rank] = None
        self._ready_mask &= ~(1 << rank)
        self._preds[rank] = None

    def _unwind(self, rank: int, exc: BaseException) -> None:
        """Raise ``exc`` in ``rank``'s body at its switch point, then the
        teardown error at every further switch command, until the body
        finishes (a clean finish keeps its return value)."""
        task = self._tasks[rank]
        if task.kind == "gen":
            # unwind cleanup (finally blocks) runs on the loop thread: bind
            # the rank's own ctx so rank_me()/charges land on the right rank
            set_current_ctx(self._contexts[rank])
        kind, payload = task.resume(exc)
        while kind is _CMD:
            kind, payload = task.resume(self._teardown_error())
        if kind is _FINISHED:
            self._results[rank] = payload

    def _deadlock_unwind(self, cur: int) -> None:
        """Deadlock declared at ``cur``'s blocking switch point: the
        declaring rank sees the state-dump error raised at its blocking
        call; every other live rank sees the teardown wrap."""
        if self._switch_trace is not None:
            self._switch_trace.append(("deadlock", tuple(self._states)))
        exc = self._deadlock_error()
        self._record_error(exc)
        self._unwind(cur, exc)
        self._retire(cur)
        self._teardown(skip=cur)

    def _teardown(self, skip: Optional[int]) -> None:
        """Unwind every live rank with the teardown error, in rank order
        (unwinds touch only per-rank state, so the order is unobservable
        in results and clocks).  A rank that never ran has executed no
        user code and is retired silently."""
        states = self._states
        for r in range(self.nranks):
            if r == skip or states[r] is _DONE:
                continue
            task = self._tasks[r]
            if task.started:
                self._unwind(r, self._teardown_error())
            elif task.kind == "gen":
                task.gen.close()
            self._retire(r)

    # -- errors --------------------------------------------------------------

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

    # -- wake lists ------------------------------------------------------------

    def _enter_blocked(self, rank: int, pred, wake) -> None:
        """Record ``rank`` as blocked; register its wake key (or count it
        unkeyed, which pins the pick to the legacy scan until it wakes).

        Only :meth:`_drive` blocks a rank, and :meth:`run` attached the
        world before any body started, so every world-level wake event of
        a keyed block reaches :meth:`notify_incoming` /
        :meth:`notify_barrier_epoch`."""
        self._states[rank] = _BLOCKED
        self._preds[rank] = pred
        self._blocked += 1
        bit = 1 << rank
        self._ready_mask &= ~bit
        if not self._wake_list or wake is None:
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

"""Rank scheduling: every simulated rank on one single-threaded event loop.

Rank bodies written as generators (yielding
:class:`~repro.runtime.switchpoints.SwitchCommand` objects) are resumed in
place by a trampoline on the calling thread, so a switch costs one
generator ``send`` and a 1024-rank world needs zero extra threads — the
lightweight-task-as-continuation design of many-task runtimes.

Plain-function bodies run through a per-rank *thread shim*: one helper
thread per rank, handing control to and from the loop through a pair of
Events so that exactly one of them runs at any moment.  The shim turns a
blocking primitive called on its thread into the same switch command a
generator body would yield, so both kinds of body schedule identically.

Every switch decision goes through :class:`SchedulerCore`'s
promote-and-pick scan, and the loop keeps the token-passing control flow
of the thread-per-rank scheduler it replaced, branch for branch
(immediate-true predicates, conservative self-resume, the deadlock
declaration in both the blocking and the finishing path, first-error-wins
teardown).  ``tests/test_sched_golden.py`` holds switch traces, values,
and clocks recorded from that scheduler, and the loop reproduces them
exactly.
"""

from __future__ import annotations

import inspect
import threading
from types import GeneratorType
from typing import Any, Optional, Sequence

from repro.errors import SchedulerError
from repro.runtime.context import current_ctx_or_none, set_current_ctx
from repro.runtime.scheduler import (
    SchedulerCore,
    _BLOCKED,
    _DONE,
    _READY,
)
from repro.runtime.switchpoints import (
    BlockUntil,
    SwitchCommand,
    YieldNow,
    YIELD_NOW,
    run_blocking,
)

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


class EventLoopScheduler(SchedulerCore):
    """All ranks of one simulated job multiplexed onto the calling thread.

    Usage (done by :func:`repro.runtime.runtime.spmd_run`)::

        sched = EventLoopScheduler(ranks)
        results = sched.run(world, fn, args)
        if sched.first_error() is not None: raise sched.first_error()

    ``fn`` being a generator function selects the fast continuation path;
    any other callable runs under the thread shim.
    """

    def __init__(
        self,
        nranks: int,
        switch_trace: Optional[list] = None,
        *,
        wake_list: bool = True,
    ):
        super().__init__(nranks, switch_trace, wake_list=wake_list)
        self._tasks: list = [None] * nranks
        self._results: list = [None] * nranks
        self._contexts: Optional[list] = None

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
        preds = self._preds
        tasks = self._tasks
        trace = self._switch_trace
        cur = 0
        throw: Optional[BaseException] = None
        bound = -1  # rank whose ctx is bound to the loop thread's TLS
        while True:
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
                        # own predicate turned true during the scan —
                        # conservatively re-run
                        states[cur] = _READY
                        preds[cur] = None
                        continue
                    if nxt is None:
                        self._deadlock_unwind(cur)
                        return
                    self.switches += 1
                    cur = nxt
                else:  # YieldNow
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
                states[cur] = _DONE
                self._ready_mask &= ~(1 << cur)
                preds[cur] = None
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
                states[cur] = _DONE
                self._ready_mask &= ~(1 << cur)
                preds[cur] = None
                self._teardown(skip=cur)
                return

    def _deadlock_unwind(self, cur: int) -> None:
        """Deadlock declared at ``cur``'s blocking switch point: the
        declaring rank sees the state-dump error raised at its blocking
        call; every other live rank sees the teardown wrap."""
        if self._switch_trace is not None:
            self._switch_trace.append(("deadlock", tuple(self._states)))
        exc = self._deadlock_error()
        self._record_error(exc)
        task = self._tasks[cur]
        if task.kind == "gen":
            # the declarer's cleanup (finally blocks) runs on the loop
            # thread — keep its own ctx bound while it unwinds
            set_current_ctx(self._contexts[cur])
        kind, payload = task.resume(exc)
        while kind is _CMD:
            kind, payload = task.resume(self._teardown_error())
        if kind is _FINISHED:
            self._results[cur] = payload
        if self._states[cur] is _BLOCKED:
            self._blocked -= 1
            self._unregister_wake(cur)
        self._states[cur] = _DONE
        self._ready_mask &= ~(1 << cur)
        self._preds[cur] = None
        self._teardown(skip=cur)

    def _teardown(self, skip: Optional[int]) -> None:
        """Unwind every live rank with the teardown error, in rank order
        (unwinds touch only per-rank state, so the order is unobservable
        in results and clocks)."""
        states = self._states
        for r in range(self.nranks):
            if r == skip or states[r] is _DONE:
                continue
            task = self._tasks[r]
            if task is None or not task.started:
                # never ran: no user code has executed — retire it
                # silently
                if task is not None and task.kind == "gen":
                    task.gen.close()
                if states[r] is _BLOCKED:
                    self._blocked -= 1
                    self._unregister_wake(r)
                states[r] = _DONE
                self._ready_mask &= ~(1 << r)
                continue
            if task.kind == "gen":
                # unwind cleanup runs on the loop thread: bind the rank's
                # own ctx so rank_me()/charges land on the right rank
                set_current_ctx(self._contexts[r])
            kind, payload = task.resume(self._teardown_error())
            while kind is _CMD:
                kind, payload = task.resume(self._teardown_error())
            if kind is _FINISHED:
                self._results[r] = payload
            if states[r] is _BLOCKED:
                self._blocked -= 1
                self._unregister_wake(r)
            states[r] = _DONE
            self._ready_mask &= ~(1 << r)
            self._preds[r] = None

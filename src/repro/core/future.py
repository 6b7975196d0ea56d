"""Futures: the consumer side of an asynchronous result.

Mirrors ``upcxx::future<T...>``:

* :meth:`Future.is_ready` — readiness query (one load);
* :meth:`Future.result` — the value(s); requires readiness;
* :meth:`Future.then` — attach a callback.  Per UPC++ semantics the
  callback runs **synchronously during** ``then`` if the future is already
  ready — this is exactly the observable semantic difference between eager
  and deferred notification that the paper's footnote 3 discusses;
* :meth:`Future.wait` — spin on the progress engine until ready (blocking
  the simulated rank, letting other ranks run).

:func:`make_future` constructs ready futures; the value-less case uses the
shared pre-allocated cell on builds with that optimization (§III-B).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.cell import PromiseCell, alloc_cell, ready_cell, ready_unit_cell
from repro.errors import FutureError
from repro.runtime.context import current_ctx
from repro.runtime.switchpoints import BlockUntil, run_blocking
from repro.runtime.wait_hints import WaitTarget
from repro.sim.costmodel import CostAction


# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` or
# ``Event.X`` read runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_FUTURE_READY_CHECK = CostAction.FUTURE_READY_CHECK
_FUTURE_CALLBACK_SCHEDULE = CostAction.FUTURE_CALLBACK_SCHEDULE


class Future:
    """A handle on a :class:`~repro.core.cell.PromiseCell`.

    ``nvalues`` is the arity: ``future<>`` has 0, ``future<T>`` 1, etc.
    ``result()`` unwraps arity-1 futures to the bare value and returns a
    tuple for higher arities (None for arity 0), following the ergonomics
    of the C++ API.
    """

    __slots__ = ("_cell", "_span", "_hint_dst", "_sched_charged")

    def __init__(self, cell: PromiseCell):
        self._cell = cell
        #: operation span this future notifies (observability only; set by
        #: CxDispatcher.result() so wait() can stamp the waited phase)
        self._span = None
        #: destination rank of the operation behind this future when it
        #: was injected off-node (set by CxDispatcher.result(); None for
        #: local ops) — a hinted wait passes it to the AM aggregator
        self._hint_dst = None
        #: whether this future already paid FUTURE_CALLBACK_SCHEDULE for a
        #: ``then`` (the legacy bookkeeping is per chain head, not per call
        #: — a second ``then`` on a ready future re-enters the same state)
        self._sched_charged = False

    # -- queries ----------------------------------------------------------

    @property
    def nvalues(self) -> int:
        return self._cell.nvalues

    def is_ready(self) -> bool:
        """Readiness check (charges one load-like cost)."""
        current_ctx().charge(_FUTURE_READY_CHECK)
        return self._cell.ready

    def result(self):
        """The produced value(s); raises if not ready.

        Arity 0 → ``None``; arity 1 → the value; arity ≥2 → a tuple.
        """
        vals = self._cell.result_tuple()
        if self._cell.nvalues == 0:
            return None
        if self._cell.nvalues == 1:
            return vals[0]
        return vals

    def result_tuple(self) -> tuple:
        """The values as a tuple regardless of arity (raises if not ready)."""
        return self._cell.result_tuple()

    # -- composition ----------------------------------------------------------

    def then(self, fn: Callable[..., Any]) -> "Future":
        """Schedule ``fn(*values)`` for when this future is ready.

        Returns a future of ``fn``'s result; if ``fn`` itself returns a
        future, the result is flattened (the returned future adopts it).

        If this future is already ready, ``fn`` executes immediately —
        synchronously inside ``then`` (UPC++ semantics; under deferred
        notification an operation future is never ready this early, so the
        callback is guaranteed to run inside a later progress call).
        """
        ctx = current_ctx()
        cell = self._cell
        if cell.ready and ctx.flags.eager_notification:
            # §III-B fast path: on eager builds a ready future's callback
            # runs inline right here — nothing is scheduled and no cell is
            # allocated, so no scheduling cost is charged either.  Deferred
            # builds keep the legacy charge below even when ready, matching
            # the release's unconditional scheduling bookkeeping.
            return _capture(ctx, fn, cell.result_tuple())
        if cell.ready:
            # deferred-build ready fast path: the release charges its
            # scheduling bookkeeping once per chain head — a repeat `then`
            # on an already-chained ready future schedules nothing new, so
            # the charge is deduplicated (regression-pinned in
            # tests/test_future_edge.py)
            if not self._sched_charged:
                self._sched_charged = True
                ctx.charge(_FUTURE_CALLBACK_SCHEDULE)
            return _capture(ctx, fn, cell.result_tuple())
        self._sched_charged = True
        ctx.charge(_FUTURE_CALLBACK_SCHEDULE)
        # arity is unknown until fn runs; _deliver fixes it before fulfilling
        result_cell = alloc_cell(ctx, nvalues=0, deps=1)

        def on_ready(vals: tuple) -> None:
            out = fn(*vals)
            _deliver(result_cell, out)

        cell.add_callback(on_ready)
        return Future(result_cell)

    # -- blocking -----------------------------------------------------------

    def wait(self):
        """Block (the simulated rank) until ready; return :meth:`result`.

        Runs the progress engine while waiting, as ``upcxx::future::wait``
        does, and yields to other simulated ranks when locally stalled.
        """
        ctx = current_ctx()
        cell = self._cell
        ctx.charge(_FUTURE_READY_CHECK)
        if cell.ready:
            return self._finish_wait(ctx)
        return run_blocking(ctx, self._wait_spin_gen(ctx, cell))

    def wait_gen(self):
        """Generator form of :meth:`wait` for continuation rank bodies:
        ``value = yield from fut.wait_gen()``.

        Yields switch commands instead of calling the blocking scheduler
        primitives, so the event-loop scheduler interprets the waits in
        place; :meth:`wait` drives this same spin through ``run_blocking``
        — one implementation, identical charge sequence on both paths.
        """
        ctx = current_ctx()
        cell = self._cell
        ctx.charge(_FUTURE_READY_CHECK)
        if cell.ready:
            return self._finish_wait(ctx)
        return (yield from self._wait_spin_gen(ctx, cell))

    def _wait_spin_gen(self, ctx, cell):
        """The not-ready wait spin (progress / re-check / block) as a
        switch-command generator."""
        if ctx.wait_hints:
            return (yield from self._wait_hinted_gen(ctx, cell))
        while True:
            ctx.progress()
            ctx.charge(_FUTURE_READY_CHECK)
            if cell.ready:
                return self._finish_wait(ctx)
            yield BlockUntil(
                lambda: cell.ready or ctx.has_incoming(),
                wake=("cell", cell),
            )

    def _wait_hinted_gen(self, ctx, cell):
        """The ``wait_hints`` spin: same loop as ``wait`` but with this
        future's cell/destination published as the active wait target, so
        each poll's targeted drain dispatches the awaited notifications
        ahead of the batch cap and the aggregator flushes the awaited
        destination first (see :mod:`repro.runtime.wait_hints`)."""
        span = self._span
        if span is not None and span.t_hinted is None:
            span.t_hinted = ctx.clock.now_ns
        obs = ctx.obs
        if obs is not None:
            obs.on_wait_hint(self._hint_dst)
        t0 = ctx.clock.now_ns
        ctx.push_wait_target(
            WaitTarget(cell=cell, dst_rank=self._hint_dst, op="future")
        )
        try:
            while True:
                ctx.progress()
                ctx.charge(_FUTURE_READY_CHECK)
                if cell.ready:
                    if obs is not None:
                        obs.on_wait_stall(ctx.clock.now_ns - t0)
                    return self._finish_wait(ctx)
                # about to block: publish *every* parked bundle, not just
                # the targeted ones — a peer may be blocked on an AM the
                # targeted flush deliberately left batching
                ctx.flush_aggregation(reason="wait_block")
                yield BlockUntil(
                    lambda: cell.ready or ctx.has_incoming(),
                    wake=("cell", cell),
                )
        finally:
            ctx.pop_wait_target()

    def _finish_wait(self, ctx):
        """Common tail of ``wait``: stamp the waited phase and unwrap."""
        span = self._span
        if span is not None and span.t_waited is None:
            span.t_waited = ctx.clock.now_ns
        return self.result()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ready" if self._cell.ready else "pending"
        return f"<Future nvalues={self._cell.nvalues} {state}>"


def _deliver(result_cell: PromiseCell, out) -> None:
    """Complete a ``then`` result cell with ``out`` (flattening futures)."""
    if isinstance(out, Future):
        inner = out._cell

        def adopt(vals: tuple) -> None:
            result_cell.nvalues = len(vals)
            result_cell.values = vals if vals else ()
            result_cell.fulfill()

        inner.add_callback(adopt)
        return
    if out is None:
        result_cell.nvalues = 0
        result_cell.values = ()
    elif isinstance(out, tuple):
        result_cell.nvalues = len(out)
        result_cell.values = out
    else:
        result_cell.nvalues = 1
        result_cell.values = (out,)
    result_cell.fulfill()


def _capture(ctx, fn: Callable[..., Any], vals: tuple) -> "Future":
    """Run ``fn`` immediately (ready input) and wrap its result."""
    out = fn(*vals)
    if isinstance(out, Future):
        return out
    if out is None:
        return Future(ready_unit_cell(ctx))
    if isinstance(out, tuple):
        return Future(ready_cell(ctx, out))
    return Future(ready_cell(ctx, (out,)))


def make_future(*values) -> Future:
    """A ready future holding ``values`` (``upcxx::make_future``).

    The value-less call ``make_future()`` is the idiomatic base case for
    conjoining loops; with the 2021.3.6 shared-ready-cell optimization it
    performs no allocation.
    """
    ctx = current_ctx()
    if not values:
        return Future(ready_unit_cell(ctx))
    return Future(ready_cell(ctx, values))


def to_future(value) -> Future:
    """Coerce ``value`` to a future (futures pass through unchanged)."""
    if isinstance(value, Future):
        return value
    return make_future(value)

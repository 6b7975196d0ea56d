"""The completions mechanism, including eager/deferred notification.

This module is the paper's Section III-A in executable form.

**Requesting completions.**  ``operation_cx`` / ``source_cx`` / ``remote_cx``
are factory namespaces whose methods return :class:`Completions` objects;
requests compose with ``|`` and are passed to communication operations::

    rput(value, gptr,
         source_cx.as_future() | operation_cx.as_promise(prom))

``as_future()``/``as_promise()`` use the build's default notification
discipline (eager on 2021.3.6-eager — the proposed default —, deferred
otherwise, mirroring the ``UPCXX_DEFER_COMPLETION`` macro).  The explicit
``as_eager_*``/``as_defer_*`` factories (new in 2021.3.6) force one or the
other; *eager* is permissive ("allow, do not guarantee"), *defer* is a
guarantee of the legacy behaviour.

**Delivering completions.**  Operations create a :class:`CxDispatcher` and
report each event either

* synchronously completed during initiation (:meth:`CxDispatcher.notify_sync`)
  — the shared-memory-bypass case, where eager requests take the fast path:
  a ready future (no allocation for value-less results on 2021.3.6) or a
  wholly untouched promise; deferred requests allocate a cell / register on
  the promise and round-trip through the progress queue; or
* asynchronous (:meth:`CxDispatcher.pend`) — the off-node case: state is
  allocated up front and the returned :class:`PendingEvent` is completed
  later from inside the progress engine, which is deferred notification by
  construction.

**Notifiable completions beyond futures (``cx_continuations``).**  Two
further completion kinds generalize the eager idea past future objects
(MPI Continuations / UNR lineage — see DESIGN.md §11):

* *continuation completions* (``operation_cx.as_continuation(fn)``):
  the callback is attached at initiation and runs inline at whichever
  agent observes completion — on the ``notify_sync`` fast path for
  synchronous transfers (zero future/cell allocation, even on defer
  builds) or from the progress engine's ack dispatch on the ``pend``
  path;
* *counter completions* (:class:`CxCounter`): N operation events
  aggregate into one notification on a shared cell, one allocation
  total.

Both are gated behind ``FeatureFlags.cx_continuations`` — with the flag
off the factories raise and every existing path is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.cell import alloc_cell, ready_cell, ready_unit_cell
from repro.core.events import Event
from repro.core.future import Future
from repro.core.promise import Promise
from repro.errors import CompletionError
from repro.runtime.context import current_ctx
from repro.runtime.switchpoints import BlockUntil, run_blocking
from repro.sim.costmodel import CostAction

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import OpSpan
    from repro.runtime.context import RankContext

_FUTURE = "future"
_PROMISE = "promise"
_LPC = "lpc"
_RPC = "rpc"
_CONTINUATION = "continuation"
_COUNTER = "counter"

_DEFAULT = "default"
_EAGER = "eager"
_DEFER = "defer"

# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` or
# ``Event.X`` read runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_SOURCE = Event.SOURCE
_REMOTE = Event.REMOTE
_OPERATION = Event.OPERATION
_COMPLETION_PROCESS = CostAction.COMPLETION_PROCESS
_CX_CONTINUATION_DISPATCH = CostAction.CX_CONTINUATION_DISPATCH
_CX_COUNTER_SIGNAL = CostAction.CX_COUNTER_SIGNAL
_CX_COUNTER_TRIP = CostAction.CX_COUNTER_TRIP
_FUTURE_READY_CHECK = CostAction.FUTURE_READY_CHECK


class CompletionRequest:
    """One requested notification: (event, mechanism, eagerness, payload).

    A value object: nothing assigns to a request after construction, which
    is what lets the payload-less factories hand out shared constants.
    """

    __slots__ = ("event", "kind", "eagerness", "promise", "fn", "args",
                 "counter")

    def __init__(
        self,
        event: Event,
        kind: str,  # future | promise | lpc | rpc | continuation | counter
        eagerness: str = _DEFAULT,  # default | eager | defer
        promise: Optional[Promise] = None,
        fn: Optional[Callable] = None,
        args: tuple = (),
        counter: Optional["CxCounter"] = None,
    ):
        self.event = event
        self.kind = kind
        self.eagerness = eagerness
        self.promise = promise
        self.fn = fn
        self.args = args
        self.counter = counter

    def describe(self) -> str:
        e = "" if self.eagerness == _DEFAULT else f"_{self.eagerness}"
        return f"{self.event.value}_cx::as{e}_{self.kind}"

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"CompletionRequest({fields})"


class Completions:
    """An ordered composition of completion requests (a value object, like
    :class:`CompletionRequest`)."""

    __slots__ = ("requests",)

    def __init__(self, requests: tuple[CompletionRequest, ...] = ()):
        self.requests = requests

    def __or__(self, other: "Completions") -> "Completions":
        if not isinstance(other, Completions):
            return NotImplemented
        return Completions(self.requests + other.requests)

    def by_event(self, event: Event) -> list[CompletionRequest]:
        return [r for r in self.requests if r.event is event]

    def __len__(self) -> int:
        return len(self.requests)

    def __repr__(self) -> str:
        return f"Completions(requests={self.requests!r})"


class _CxFactory:
    """Factory namespace bound to one event kind (``operation_cx`` etc.).

    The payload-less requests (``as_future``/``as_eager_future``/
    ``as_defer_future``) are built once here and shared by every call.
    """

    __slots__ = ("_event", "_future", "_eager_future", "_defer_future")

    def __init__(self, event: Event):
        self._event = event
        self._future = self._one(_FUTURE)
        self._eager_future = self._one(_FUTURE, eagerness=_EAGER)
        self._defer_future = self._one(_FUTURE, eagerness=_DEFER)

    def _one(self, kind: str, **kw) -> Completions:
        return Completions((CompletionRequest(self._event, kind, **kw),))

    # -- futures -------------------------------------------------------------

    def as_future(self) -> Completions:
        """Notify via a future using the build's default discipline."""
        return self._future

    def as_eager_future(self) -> Completions:
        """Permit eager notification (2021.3.6 factories)."""
        return self._eager_future

    def as_defer_future(self) -> Completions:
        """Guarantee deferred (legacy) notification."""
        return self._defer_future

    # -- promises (built per operation, so inline rather than via _one) ---------

    def as_promise(self, p: Promise) -> Completions:
        """Notify by fulfilling ``p``, default discipline."""
        return Completions(
            (CompletionRequest(self._event, _PROMISE, _DEFAULT, p),)
        )

    def as_eager_promise(self, p: Promise) -> Completions:
        return Completions(
            (CompletionRequest(self._event, _PROMISE, _EAGER, p),)
        )

    def as_defer_promise(self, p: Promise) -> Completions:
        return Completions(
            (CompletionRequest(self._event, _PROMISE, _DEFER, p),)
        )

    # -- procedure calls ---------------------------------------------------------

    def as_lpc(self, fn: Callable, *args) -> Completions:
        """Run ``fn(*args)`` on the initiator inside a progress call."""
        if self._event is _REMOTE:
            raise CompletionError("remote completion cannot use an LPC")
        return self._one(_LPC, fn=fn, args=args)

    def as_rpc(self, fn: Callable, *args) -> Completions:
        """Run ``fn(*args)`` on the *target* after data arrival (puts only)."""
        if self._event is not _REMOTE:
            raise CompletionError(
                "as_rpc is only available for remote completion (remote_cx)"
            )
        return self._one(_RPC, fn=fn, args=args)

    # -- notifiable completions (cx_continuations) ---------------------------

    def as_continuation(self, fn: Callable, *args) -> Completions:
        """Run ``fn(*args, *values)`` inline at whichever agent observes
        this event's completion (``FeatureFlags.cx_continuations``).

        No future or cell is allocated: a synchronously completing
        operation dispatches the callback right inside ``notify_sync``
        (even on defer builds — the continuation *is* the eager
        discipline, there is no object whose readiness could be
        observed early), and an off-node operation dispatches it from
        the progress engine when the ack arrives.
        """
        if self._event is _REMOTE:
            raise CompletionError(
                "remote completion cannot use a continuation (use as_rpc)"
            )
        return self._one(_CONTINUATION, fn=fn, args=args)

    def as_counter(self, counter: "CxCounter") -> Completions:
        """Signal ``counter`` when this event completes
        (``FeatureFlags.cx_continuations``).

        N operations sharing one :class:`CxCounter` produce a single
        notification when the last one signals — one cell allocation
        and one wake for the whole batch.
        """
        if self._event is _REMOTE:
            raise CompletionError(
                "remote completion cannot target a counter"
            )
        return self._one(_COUNTER, counter=counter)


#: Source-completion factory namespace (``source_cx`` in UPC++).
source_cx = _CxFactory(_SOURCE)
#: Remote-completion factory namespace (``remote_cx``).
remote_cx = _CxFactory(_REMOTE)
#: Operation-completion factory namespace (``operation_cx``).
operation_cx = _CxFactory(_OPERATION)


class CxCounter:
    """N operation events → one notification (a UNR-style counter object).

    Construct with the number of expected events, attach to operations
    via ``operation_cx.as_counter(ctr)`` (or ``source_cx``), and wait on
    the aggregate::

        ctr = CxCounter(len(batch))
        for dest, val in batch:
            rput(val, dest, operation_cx.as_counter(ctr))
        ctr.wait()          # one notification for the whole batch

    One cell allocation backs all N events; each member event charges the
    cheap ``CX_COUNTER_SIGNAL`` and the Nth charges ``CX_COUNTER_TRIP``
    and fires the single notification (cell callbacks run, parked waiters
    wake via the ordinary ``("cell", cell)`` wake key).

    Requires ``FeatureFlags.cx_continuations``.
    """

    __slots__ = ("_cell", "_expected", "_signalled")

    def __init__(self, n: int):
        ctx = current_ctx()
        if not ctx.flags.cx_continuations:
            raise CompletionError(
                "CxCounter requires FeatureFlags.cx_continuations "
                f"(build is {ctx.config.version.value})"
            )
        if n < 1:
            raise CompletionError(f"CxCounter needs n >= 1, got {n}")
        #: the one shared cell: deps = n, each signal clears one
        self._cell = alloc_cell(ctx, nvalues=0, deps=n)
        self._expected = n
        self._signalled = 0

    # -- queries ----------------------------------------------------------

    @property
    def expected(self) -> int:
        return self._expected

    @property
    def signalled(self) -> int:
        return self._signalled

    @property
    def done(self) -> bool:
        """Whether all N member events have completed."""
        return self._cell.ready

    # -- producer side (called by the completion machinery) ----------------

    def signal(self, ctx: "RankContext") -> None:
        """One member event completed (dispatcher-internal)."""
        if self._signalled >= self._expected:
            raise CompletionError(
                f"CxCounter over-signalled: already got {self._expected}"
            )
        self._signalled += 1
        ctx.charge(_CX_COUNTER_SIGNAL)
        if self._signalled == self._expected:
            # the aggregate notification: charged once per counter, then
            # the cell fires callbacks / wakes parked waiters
            ctx.charge(_CX_COUNTER_TRIP)
        self._cell.fulfill()

    def add_callback(self, cb: Callable[[], None]) -> None:
        """Run ``cb()`` when the counter trips (immediately if done)."""
        self._cell.add_callback(lambda _vals: cb())

    # -- blocking ----------------------------------------------------------

    def wait(self) -> None:
        """Block (the simulated rank) until the counter trips.

        Same spin discipline as :meth:`Future.wait`.
        """
        ctx = current_ctx()
        cell = self._cell
        ctx.charge(_FUTURE_READY_CHECK)
        if cell.ready:
            return
        run_blocking(ctx, self._wait_spin_gen(ctx, cell))

    def wait_gen(self):
        """Generator form of :meth:`wait` for continuation rank bodies."""
        ctx = current_ctx()
        cell = self._cell
        ctx.charge(_FUTURE_READY_CHECK)
        if cell.ready:
            return
        yield from self._wait_spin_gen(ctx, cell)

    def _wait_spin_gen(self, ctx, cell):
        while True:
            ctx.progress()
            ctx.charge(_FUTURE_READY_CHECK)
            if cell.ready:
                return
            yield BlockUntil(
                lambda: cell.ready or ctx.has_incoming(),
                wake=("cell", cell),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CxCounter {self._signalled}/{self._expected}"
            f"{' done' if self.done else ''}>"
        )


@dataclass
class PendingEvent:
    """Handle for completing an asynchronous (off-node) event later.

    Created by :meth:`CxDispatcher.pend` at initiation; :meth:`complete`
    must be invoked from progress-engine context when the underlying
    operation finishes.
    """

    ctx: "RankContext"
    requests: list[CompletionRequest]
    cells: list = field(default_factory=list)  # parallel to future requests
    #: operation span whose notification this event closes (obs only)
    span: Optional["OpSpan"] = None

    def complete(self, values: tuple = ()) -> None:
        span = self.span
        if span is not None and span.t_transfer is None:
            # the transfer itself finished now; the notification below is
            # dispatched in the same progress call (deferred by construction)
            span.t_transfer = self.ctx.clock.now_ns
        cell_iter = iter(self.cells)
        for req in self.requests:
            if req.kind == _FUTURE:
                cell = next(cell_iter)
                if cell.nvalues:
                    cell.values = values
                cell.fulfill()
            elif req.kind == _PROMISE:
                if req.promise.cell.nvalues:
                    req.promise.fulfill_result(*values)
                else:
                    req.promise.fulfill_anonymous(1)
            elif req.kind == _LPC:
                self.ctx.progress_engine.enqueue_lpc(
                    lambda r=req: r.fn(*r.args)
                )
            elif req.kind == _CONTINUATION:
                # fires from whichever agent observed completion — here,
                # the progress engine delivering the ack: already inside
                # progress context, dispatch inline
                self.ctx.charge(_CX_CONTINUATION_DISPATCH)
                req.fn(*req.args, *values)
            elif req.kind == _COUNTER:
                req.counter.signal(self.ctx)
        if span is not None:
            self.ctx.obs.close_notification(span, self.ctx.clock.now_ns)


class CxDispatcher:
    """Per-operation completion handling.

    Parameters
    ----------
    ctx:
        The initiating rank's context.
    comps:
        The user's :class:`Completions` (or an op-supplied default).
    supported:
        Events this operation supports (e.g. gets have no remote event).
    value_event:
        The event that carries the operation's produced values (``None``
        for value-less operations); ``nvalues`` is the arity.
    """

    def __init__(
        self,
        ctx: "RankContext",
        comps: Completions,
        *,
        supported: frozenset[Event] | set[Event],
        value_event: Optional[Event] = None,
        nvalues: int = 0,
        op_name: str = "operation",
    ):
        self.ctx = ctx
        self.comps = comps
        self.value_event = value_event
        self.nvalues = nvalues
        self._futures: list[Future] = []
        ctx.charge(_COMPLETION_PROCESS)
        flags = ctx.flags
        for req in comps.requests:
            if req.event not in supported:
                raise CompletionError(
                    f"{op_name} does not support {req.event.value} completion"
                )
            if (
                req.eagerness != _DEFAULT
                and not flags.eager_factories_available
            ):
                raise CompletionError(
                    f"{req.describe()} requires the 2021.3.6 completion "
                    f"factories (build is {ctx.config.version.value})"
                )
            if (
                req.kind in (_CONTINUATION, _COUNTER)
                and not flags.cx_continuations
            ):
                raise CompletionError(
                    f"{req.describe()} requires "
                    f"FeatureFlags.cx_continuations "
                    f"(build is {ctx.config.version.value})"
                )
        obs = ctx.obs
        self._span: Optional["OpSpan"] = (
            obs.begin_span(
                op_name, _DEFER if self.any_deferred() else _EAGER
            )
            if obs is not None
            else None
        )

    # -- observability --------------------------------------------------------

    def mark_injected(
        self, target_rank: int, nbytes: int, *, local: bool
    ) -> None:
        """Stamp the injection phase on this operation's span (no-op with
        observability off).  ``local`` is the locality the op has already
        branched on — never re-derived here."""
        span = self._span
        if span is not None:
            span.target = target_rank
            span.nbytes = nbytes
            span.locality = "pshm" if local else "offnode"
            span.t_injected = self.ctx.clock.now_ns

    # -- policy --------------------------------------------------------------

    def _eager_allowed(self, req: CompletionRequest) -> bool:
        if req.eagerness == _EAGER:
            return True
        if req.eagerness == _DEFER:
            return False
        return self.ctx.flags.eager_notification

    def _values_for(self, event: Event, values: tuple) -> tuple:
        return values if event is self.value_event else ()

    def any_deferred(self) -> bool:
        """Whether any requested notification will take the deferred path
        even for a synchronously completing operation."""
        return any(
            req.kind in (_FUTURE, _PROMISE) and not self._eager_allowed(req)
            for req in self.comps.requests
        )

    # -- synchronous completion (the shared-memory-bypass case) ---------------

    def notify_sync(self, event: Event, values: tuple = ()) -> None:
        """Deliver ``event``, which completed synchronously during
        initiation, to every matching request.

        Eager requests are notified immediately: futures come back already
        ready (value-less ones via the shared cell — zero allocations) and
        promises are left entirely untouched.  Deferred requests take the
        legacy path: allocate/register now, notify from a later progress
        call.
        """
        ctx = self.ctx
        vals = self._values_for(event, values)
        # observability: the transfer is complete *now* for the operation
        # event; each request's branch below closes the notification at the
        # instant it becomes user-visible (immediately for eager, from the
        # progress-queue thunk for deferred).
        span = self._span if event is _OPERATION else None
        if span is not None and span.t_transfer is None:
            span.t_transfer = ctx.clock.now_ns
        for req in self.comps.requests:
            if req.event is not event:
                continue
            if req.kind == _FUTURE:
                if self._eager_allowed(req):
                    if vals:
                        self._futures.append(Future(ready_cell(ctx, vals)))
                    else:
                        self._futures.append(Future(ready_unit_cell(ctx)))
                    if span is not None:
                        ctx.obs.close_notification(span, ctx.clock.now_ns)
                else:
                    cell = alloc_cell(ctx, nvalues=len(vals), deps=1)

                    def ready_it(cell=cell, vals=vals, note=span):
                        if cell.nvalues:
                            cell.values = vals
                        cell.fulfill()
                        if note is not None:
                            ctx.obs.close_notification(
                                note, ctx.clock.now_ns
                            )

                    ctx.progress_engine.enqueue_deferred(ready_it)
                    self._futures.append(Future(cell))
            elif req.kind == _PROMISE:
                if self._eager_allowed(req):
                    # elide all modification of the promise
                    if span is not None:
                        ctx.obs.close_notification(span, ctx.clock.now_ns)
                else:
                    req.promise.require_anonymous(1)

                    def fulfill_it(req=req, vals=vals, note=span):
                        if req.promise.cell.nvalues:
                            req.promise.fulfill_result(*vals)
                        else:
                            req.promise.fulfill_anonymous(1)
                        if note is not None:
                            ctx.obs.close_notification(
                                note, ctx.clock.now_ns
                            )

                    ctx.progress_engine.enqueue_deferred(fulfill_it)
            elif req.kind == _LPC:
                if span is not None:

                    def run_it(req=req, note=span):
                        req.fn(*req.args)
                        ctx.obs.close_notification(note, ctx.clock.now_ns)

                    ctx.progress_engine.enqueue_lpc(run_it)
                else:
                    ctx.progress_engine.enqueue_lpc(
                        lambda req=req: req.fn(*req.args)
                    )
            elif req.kind == _CONTINUATION:
                # eager by construction: the initiating agent observed
                # completion synchronously, so the callback runs right
                # here — zero future/cell allocation and no progress-queue
                # round trip, even on defer builds (there is no object
                # whose readiness could have been observed early, so the
                # legacy semantics have nothing to preserve)
                ctx.charge(_CX_CONTINUATION_DISPATCH)
                req.fn(*req.args, *vals)
                if span is not None:
                    ctx.obs.close_notification(span, ctx.clock.now_ns)
            elif req.kind == _COUNTER:
                req.counter.signal(ctx)
                if span is not None:
                    ctx.obs.close_notification(span, ctx.clock.now_ns)
            # _RPC requests are shipped by the operation itself

    # -- asynchronous completion (the off-node case) -----------------------------

    def pend(self, event: Event) -> PendingEvent:
        """Prepare deferred delivery for an event that will complete later
        (off-node transfer).  Futures/promise state is allocated up front;
        the returned handle's ``complete()`` fires from progress context."""
        ctx = self.ctx
        reqs = self.comps.by_event(event)
        pending = PendingEvent(
            ctx=ctx,
            requests=reqs,
            span=self._span if event is _OPERATION else None,
        )
        arity = self.nvalues if event is self.value_event else 0
        for req in reqs:
            if req.kind == _FUTURE:
                cell = alloc_cell(ctx, nvalues=arity, deps=1)
                pending.cells.append(cell)
                self._futures.append(Future(cell))
            elif req.kind == _PROMISE:
                req.promise.require_anonymous(1)
        return pending

    # -- rpc access for put implementations ----------------------------------------

    def rpc_requests(self) -> list[CompletionRequest]:
        return [r for r in self.comps.requests if r.kind == _RPC]

    # -- operation return value ---------------------------------------------------

    def result(self):
        """What the operation returns: None / a future / a tuple of
        futures, matching the number of future-kind requests (in
        composition order)."""
        if not self._futures:
            return None
        if self._span is not None:
            for f in self._futures:
                f._span = self._span  # lets wait() stamp t_waited
        if len(self._futures) == 1:
            return self._futures[0]
        return tuple(self._futures)

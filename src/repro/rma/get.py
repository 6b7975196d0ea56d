"""One-sided gets (``upcxx::rget``).

Two forms, exactly as in UPC++ and as benchmarked in Figures 2–4:

* :func:`rget` — *value-producing*: returns ``future<T>``.  Even when the
  transfer completes synchronously, the ready future must hold the value,
  so a promise-cell allocation is unavoidable (§III-B);
* :func:`rget_into` — *non-value*: the data lands in caller-provided local
  memory and the notification is a value-less ``future<>`` — which, under
  eager notification with the shared ready cell, costs no allocation at
  all.  This is why the microbenchmarks show non-value gets beating value
  gets by up to ~90%.

Gets support source and operation completion (no remote event).
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.completions import Completions, CxDispatcher, operation_cx
from repro.core.events import Event
from repro.errors import InvalidGlobalPointer, LocalityError
from repro.memory.global_ptr import GlobalPtr, LocalRef
from repro.runtime.context import current_ctx
from repro.sim.costmodel import CostAction

# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` or
# ``Event.X`` read runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_SOURCE = Event.SOURCE
_OPERATION = Event.OPERATION
_RMA_CALL_OVERHEAD = CostAction.RMA_CALL_OVERHEAD
_HEAP_ALLOC_OP_DESCRIPTOR = CostAction.HEAP_ALLOC_OP_DESCRIPTOR
_HEAP_FREE = CostAction.HEAP_FREE
_GPTR_DOWNCAST = CostAction.GPTR_DOWNCAST
_CPU_LOAD = CostAction.CPU_LOAD
_MEMCPY_8B = CostAction.MEMCPY_8B
_MEMCPY_PER_BYTE = CostAction.MEMCPY_PER_BYTE
_LOCALITY_BRANCH = CostAction.LOCALITY_BRANCH

_GET_EVENTS = (_SOURCE, _OPERATION)
#: the default completion (a shared constant), bound once
_OPERATION_FUTURE = operation_cx.as_future()


def rget(src: GlobalPtr, comps: Optional[Completions] = None):
    """Read one element from ``src``; the operation event carries the
    value (``future<T>``)."""
    ctx = current_ctx()
    ctx.charge(_RMA_CALL_OVERHEAD)
    if src.is_null:
        raise InvalidGlobalPointer("rget from a null global pointer")
    if comps is None:
        comps = _OPERATION_FUTURE
    disp = CxDispatcher(
        ctx,
        comps,
        supported=_GET_EVENTS,
        value_event=_OPERATION,
        nvalues=1,
        op_name="rget",
    )
    if src.is_local(ctx):
        if not ctx.flags.elide_local_rma_alloc:
            ctx.charge(_HEAP_ALLOC_OP_DESCRIPTOR)
            ctx.charge(_HEAP_FREE)
        ctx.charge(_GPTR_DOWNCAST)
        ctx.charge(_CPU_LOAD)
        disp.mark_injected(src.rank, src.ts.size, local=True)
        if disp.wants_source:
            disp.notify_sync(_SOURCE)
        value = ctx.world.segments[src.rank].read_scalar(src.offset, src.ts)
        disp.notify_sync(_OPERATION, (value,))
        return disp.result()
    return _remote_get(ctx, disp, src, count=None, dest=None)


def rget_into(
    src: GlobalPtr,
    dest: Union[GlobalPtr, LocalRef],
    count: int = 1,
    comps: Optional[Completions] = None,
):
    """Read ``count`` elements from ``src`` into caller-owned local memory
    (``dest``); notification is value-less (``future<>``)."""
    ctx = current_ctx()
    ctx.charge(_RMA_CALL_OVERHEAD)
    if src.is_null:
        raise InvalidGlobalPointer("rget_into from a null global pointer")
    if count < 1:
        raise ValueError("rget_into needs count >= 1")
    dest_ref = _resolve_dest(ctx, dest)
    if comps is None:
        comps = _OPERATION_FUTURE
    disp = CxDispatcher(
        ctx, comps, supported=_GET_EVENTS, op_name="rget_into"
    )
    nbytes = count * src.ts.size
    if src.is_local(ctx):
        if not ctx.flags.elide_local_rma_alloc:
            ctx.charge(_HEAP_ALLOC_OP_DESCRIPTOR)
            ctx.charge(_HEAP_FREE)
        ctx.charge(_GPTR_DOWNCAST)
        disp.mark_injected(src.rank, nbytes, local=True)
        if disp.wants_source:
            disp.notify_sync(_SOURCE)
        seg = ctx.world.segments[src.rank]
        if count == 1 and dest_ref.ts is src.ts:
            # one element, no conversion: skip the array round trip
            value = seg.read_scalar(src.offset, src.ts)
            ctx.charge(_MEMCPY_8B)
            dest_ref.segment.write_scalar(dest_ref.offset, dest_ref.ts, value)
        else:
            data = seg.read_array(src.offset, src.ts, count)
            if nbytes <= 8:
                ctx.charge(_MEMCPY_8B)
            else:
                ctx.charge_bytes(_MEMCPY_PER_BYTE, nbytes)
            dest_ref.segment.write_array(dest_ref.offset, dest_ref.ts, data)
        disp.notify_sync(_OPERATION)
        return disp.result()
    return _remote_get(ctx, disp, src, count=count, dest=dest_ref)


def rget_bulk(src: GlobalPtr, count: int, comps: Optional[Completions] = None):
    """Read ``count`` elements; the operation event carries a numpy array
    (value-producing bulk get)."""
    ctx = current_ctx()
    ctx.charge(_RMA_CALL_OVERHEAD)
    if src.is_null:
        raise InvalidGlobalPointer("rget_bulk from a null global pointer")
    if count < 1:
        raise ValueError("rget_bulk needs count >= 1")
    if comps is None:
        comps = _OPERATION_FUTURE
    disp = CxDispatcher(
        ctx,
        comps,
        supported=_GET_EVENTS,
        value_event=_OPERATION,
        nvalues=1,
        op_name="rget_bulk",
    )
    nbytes = count * src.ts.size
    if src.is_local(ctx):
        if not ctx.flags.elide_local_rma_alloc:
            ctx.charge(_HEAP_ALLOC_OP_DESCRIPTOR)
            ctx.charge(_HEAP_FREE)
        ctx.charge(_GPTR_DOWNCAST)
        disp.mark_injected(src.rank, nbytes, local=True)
        if disp.wants_source:
            disp.notify_sync(_SOURCE)
        ctx.charge_bytes(_MEMCPY_PER_BYTE, nbytes)
        data = ctx.world.segments[src.rank].read_array(
            src.offset, src.ts, count
        )
        disp.notify_sync(_OPERATION, (data,))
        return disp.result()
    return _remote_get(ctx, disp, src, count=count, dest=None)


def _resolve_dest(ctx, dest: Union[GlobalPtr, LocalRef]) -> LocalRef:
    if isinstance(dest, LocalRef):
        return dest
    if isinstance(dest, GlobalPtr):
        if dest.is_null:
            raise InvalidGlobalPointer("rget_into to a null global pointer")
        if not ctx.is_local_rank(dest.rank):
            raise LocalityError(
                "rget_into destination must be locally addressable"
            )
        return LocalRef(
            ctx.world.segments[dest.rank], dest.offset, dest.ts
        )
    raise TypeError("rget_into dest must be a GlobalPtr or LocalRef")


def _remote_get(ctx, disp, src: GlobalPtr, *, count, dest):
    """Off-node request/reply; the reply carries the data."""
    if ctx.flags.eager_notification:
        ctx.charge(_LOCALITY_BRANCH)  # the one extra branch
    ctx.charge(_HEAP_ALLOC_OP_DESCRIPTOR)
    ctx.charge(_HEAP_FREE)
    disp.notify_sync(_SOURCE)
    pending = disp.pend(_OPERATION)
    nbytes = (count or 1) * src.ts.size
    ctx.conduit.send_am(
        ctx, src.rank, _get_request,
        (pending, src, count, dest, nbytes, ctx.rank),
        nbytes=0, label="get_req", aggregatable=True,
    )
    disp.mark_injected(src.rank, nbytes, local=False)
    return disp.result()


def _get_request(tctx, pending, src: GlobalPtr, count, dest, nbytes: int,
                 initiator: int) -> None:
    """Target side: read, reply with the data.  The AM handlers take their
    state as AM arguments, so a round trip allocates no closure."""
    seg = tctx.world.segments[src.rank]
    if count is None:
        tctx.charge(_CPU_LOAD)
        data = seg.read_scalar(src.offset, src.ts)
    else:
        tctx.charge_bytes(_MEMCPY_PER_BYTE, nbytes)
        data = seg.read_array(src.offset, src.ts, count)
    tctx.conduit.send_am(
        tctx, initiator, _get_reply, (pending, dest, data, nbytes),
        nbytes=nbytes, label="get_reply",
    )


def _get_reply(ictx, pending, dest, data, nbytes: int) -> None:
    """Initiator side: land the data (``rget_into``) and complete."""
    if dest is None:
        pending.complete((data,))
        return
    dest.segment.write_array(dest.offset, dest.ts, data)
    ictx.charge_bytes(_MEMCPY_PER_BYTE, nbytes)
    pending.complete(())

"""One-sided puts (``upcxx::rput``).

Supports all three completion events: source (the source data has been
captured), remote (an RPC on the target after data arrival), operation
(done from the initiator's view).  Returned futures are ordered source
before operation when both are requested, matching the tuple order of the
paper's Section II-A example.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.completions import Completions, CxDispatcher, operation_cx
from repro.core.events import Event
from repro.errors import InvalidGlobalPointer
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.context import current_ctx
from repro.sim.costmodel import CostAction

# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` or
# ``Event.X`` read runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_SOURCE = Event.SOURCE
_REMOTE = Event.REMOTE
_OPERATION = Event.OPERATION
_HEAP_ALLOC_OP_DESCRIPTOR = CostAction.HEAP_ALLOC_OP_DESCRIPTOR
_HEAP_FREE = CostAction.HEAP_FREE
_GPTR_DOWNCAST = CostAction.GPTR_DOWNCAST
_MEMCPY_8B = CostAction.MEMCPY_8B
_MEMCPY_PER_BYTE = CostAction.MEMCPY_PER_BYTE
_LOCALITY_BRANCH = CostAction.LOCALITY_BRANCH
_RMA_CALL_OVERHEAD = CostAction.RMA_CALL_OVERHEAD

_PUT_EVENTS = (_SOURCE, _REMOTE, _OPERATION)
#: the default completion (a shared constant), bound once
_OPERATION_FUTURE = operation_cx.as_future()
_SCALAR_TYPES = (int, float)


def _ship_remote_rpcs(ctx, disp: CxDispatcher, dest_rank: int) -> None:
    """Remote-completion RPCs always travel as AMs to the target (even a
    co-located one), executing there inside its progress engine."""
    for req in disp.rpc_requests():
        # fire-and-forget at the target: nobody spins on it, so it may
        # ride in a bundle (the ack below must not — see the aggregation
        # correctness gate)
        ctx.conduit.send_am(
            ctx,
            dest_rank,
            lambda tctx, r=req: r.fn(*r.args),
            nbytes=0,
            label="remote_cx_rpc",
            aggregatable=True,
        )


def _local_put(ctx, disp: CxDispatcher, dest: GlobalPtr, write, data,
               nbytes: int):
    """Shared-memory-bypass path: synchronous data movement (``write`` is
    the target segment's ``write_scalar`` or ``write_array``)."""
    if not ctx.flags.elide_local_rma_alloc:
        # 2021.3.0: extra op-descriptor allocation even for local targets
        ctx.charge(_HEAP_ALLOC_OP_DESCRIPTOR)
        ctx.charge(_HEAP_FREE)
    ctx.charge(_GPTR_DOWNCAST)
    disp.mark_injected(dest.rank, nbytes, local=True)
    write(dest.offset, dest.ts, data)
    if nbytes <= 8:
        ctx.charge(_MEMCPY_8B)
    else:
        ctx.charge_bytes(_MEMCPY_PER_BYTE, nbytes)
    if disp.wants_remote:
        _ship_remote_rpcs(ctx, disp, dest.rank)
    if disp.wants_source:
        disp.notify_sync(_SOURCE)
    disp.notify_sync(_OPERATION)
    return disp.result()


def _remote_put(ctx, disp: CxDispatcher, dest: GlobalPtr, payload, nbytes: int):
    """Off-node path: request/reply AM pair, deferred completion."""
    if ctx.flags.eager_notification:
        # the one branch eager support adds to the off-node path (§IV-A)
        ctx.charge(_LOCALITY_BRANCH)
    ctx.charge(_HEAP_ALLOC_OP_DESCRIPTOR)
    ctx.charge(_HEAP_FREE)
    if disp.wants_source:
        disp.notify_sync(_SOURCE)  # payload captured at injection
    pending = disp.pend(_OPERATION)
    rpc_reqs = disp.rpc_requests() if disp.wants_remote else ()
    ctx.conduit.send_am(
        ctx, dest.rank, _put_request,
        (pending, dest, payload, nbytes, rpc_reqs, ctx.rank),
        nbytes=nbytes, label="put_req", aggregatable=True,
    )
    disp.mark_injected(dest.rank, nbytes, local=False)
    return disp.result()


def _put_request(tctx, pending, dest: GlobalPtr, payload, nbytes: int,
                 rpc_reqs, initiator: int) -> None:
    """Target side: write, run remote completions, ack.  The AM handlers
    take their state as AM arguments, so a round trip allocates no
    closure."""
    # the exact-type test spares an int or float the np.ndim call
    if type(payload) in _SCALAR_TYPES or np.ndim(payload) == 0:
        tctx.world.segments[dest.rank].write_scalar(
            dest.offset, dest.ts, payload
        )
        tctx.charge(_MEMCPY_8B)
    else:
        tctx.world.segments[dest.rank].write_array(
            dest.offset, dest.ts, payload
        )
        tctx.charge_bytes(_MEMCPY_PER_BYTE, nbytes)
    for req in rpc_reqs:
        req.fn(*req.args)
    tctx.conduit.send_am(
        tctx, initiator, _put_ack, (pending,), nbytes=0, label="put_ack"
    )


def _put_ack(ictx, pending) -> None:
    pending.complete(())


def rput(value, dest: GlobalPtr, comps: Optional[Completions] = None):
    """Write one element to ``dest`` asynchronously.

    Returns None / a future / a tuple of futures according to the
    requested completions (default: ``operation_cx.as_future()``).
    """
    ctx = current_ctx()
    ctx.charge(_RMA_CALL_OVERHEAD)
    if dest.is_null:
        raise InvalidGlobalPointer("rput to a null global pointer")
    if comps is None:
        comps = _OPERATION_FUTURE
    disp = CxDispatcher(ctx, comps, supported=_PUT_EVENTS, op_name="rput")
    if dest.is_local(ctx):
        seg = ctx.world.segments[dest.rank]
        return _local_put(
            ctx, disp, dest, seg.write_scalar, value, dest.ts.size
        )
    return _remote_put(ctx, disp, dest, value, dest.ts.size)


def rput_bulk(values, dest: GlobalPtr, comps: Optional[Completions] = None):
    """Write a contiguous block of elements starting at ``dest``.

    ``values`` is any 1-D sequence convertible to the destination dtype.
    """
    ctx = current_ctx()
    ctx.charge(_RMA_CALL_OVERHEAD)
    if dest.is_null:
        raise InvalidGlobalPointer("rput_bulk to a null global pointer")
    arr = np.asarray(values, dtype=dest.ts.dtype)
    if arr.ndim != 1:
        raise ValueError("rput_bulk expects a 1-D sequence")
    if comps is None:
        comps = _OPERATION_FUTURE
    disp = CxDispatcher(
        ctx, comps, supported=_PUT_EVENTS, op_name="rput_bulk"
    )
    nbytes = arr.size * dest.ts.size
    if dest.is_local(ctx):
        seg = ctx.world.segments[dest.rank]
        return _local_put(ctx, disp, dest, seg.write_array, arr, nbytes)
    # the payload is captured by value at injection (source completes now)
    return _remote_put(ctx, disp, dest, arr.copy(), nbytes)

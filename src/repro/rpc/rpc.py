"""Remote procedure calls.

:func:`rpc` ships a callback to the target rank, runs it inside the
target's progress engine, and returns a ``future<T>`` on the initiator
that readies (always via the progress engine — an RPC round trip is never
synchronous) with the callback's return value.  A callback returning a
future defers the reply until that future readies, as in UPC++.

:func:`rpc_ff` is the fire-and-forget form: no reply, no future, halved
traffic — used by the graph-matching application for its message pattern.

Callback exceptions propagate to the initiator wrapped in
:class:`~repro.errors.RpcError` (the real runtime would abort the job;
raising at the waiter is the debuggable analogue).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.completions import Completions, CxDispatcher, operation_cx
from repro.core.events import Event
from repro.core.future import Future
from repro.errors import RpcError, UpcxxError
from repro.rpc.serialization import payload_nbytes
from repro.runtime.context import current_ctx
from repro.sim.costmodel import CostAction

# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` or
# ``Event.X`` read runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_OPERATION = Event.OPERATION
_RPC_SERIALIZE_PER_BYTE = CostAction.RPC_SERIALIZE_PER_BYTE

_RPC_EVENTS = (_OPERATION,)


def _charge_serialize(ctx, nbytes: int) -> None:
    if nbytes:
        ctx.charge_bytes(_RPC_SERIALIZE_PER_BYTE, nbytes)


def rpc(target: int, fn: Callable, *args,
        comps: Optional[Completions] = None):
    """Run ``fn(*args)`` on rank ``target``.

    Default completion is ``operation_cx.as_future()`` carrying the
    callback's return value (``future<T>``); promise and LPC operation
    completions are also supported.  An RPC round trip never completes
    synchronously, so eager factories behave identically to deferred ones
    here (as in UPC++, where RPC futures are never ready at initiation).
    """
    ctx = current_ctx()
    if not (0 <= target < ctx.world_size):
        raise UpcxxError(f"rpc target rank {target} out of range")
    if comps is None:
        comps = operation_cx.as_future()
    disp = CxDispatcher(
        ctx,
        comps,
        supported=_RPC_EVENTS,
        value_event=_OPERATION,
        nvalues=1,
        op_name="rpc",
    )
    nbytes = payload_nbytes(args)
    _charge_serialize(ctx, nbytes)
    pending = disp.pend(_OPERATION)
    initiator = ctx.rank

    def on_target(tctx):
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - shipped to initiator
            _reply(tctx, initiator, pending, error=exc)
            return
        if isinstance(result, Future):
            # reply deferred until the returned future readies
            result._cell.add_callback(
                lambda vals: _reply(
                    tctx, initiator, pending,
                    value=vals[0] if len(vals) == 1 else (
                        None if not vals else vals
                    ),
                )
            )
        else:
            _reply(tctx, initiator, pending, value=result)

    ctx.conduit.send_am(
        ctx, target, on_target, nbytes=nbytes, label="rpc", aggregatable=True
    )
    # locality tag for the span: a topology lookup that charges nothing
    disp.mark_injected(
        target, nbytes, local=ctx.world.same_node(ctx.rank, target)
    )
    return disp.result()


def _reply(tctx, initiator: int, pending, value=None, error=None) -> None:
    reply_bytes = payload_nbytes(value) if error is None else 64
    _charge_serialize(tctx, reply_bytes)

    def on_initiator(ictx):
        if error is not None:
            # deliver the failure at the consumer: readying the cell with
            # a raising thunk would hide the traceback, so raise here —
            # inside the initiator's progress engine, as UPC++ would abort
            raise RpcError(
                f"RPC callback raised on rank {tctx.rank}: {error!r}"
            ) from error
        pending.complete((value,))

    tctx.conduit.send_am(
        tctx, initiator, on_initiator, nbytes=reply_bytes, label="rpc_reply"
    )


def rpc_ff(target: int, fn: Callable, *args) -> None:
    """Fire-and-forget RPC: run ``fn(*args)`` on ``target``, no reply."""
    ctx = current_ctx()
    if not (0 <= target < ctx.world_size):
        raise UpcxxError(f"rpc_ff target rank {target} out of range")
    nbytes = payload_nbytes(args)
    _charge_serialize(ctx, nbytes)
    obs = ctx.obs
    span = None
    if obs is not None:
        # no dispatcher on the fire-and-forget path: there is no
        # completion to notify, so the span ends at injection
        span = obs.begin_span(
            "rpc_ff",
            "none",
            target=target,
            nbytes=nbytes,
            locality=(
                "pshm"
                if ctx.world.same_node(ctx.rank, target)
                else "offnode"
            ),
        )
    ctx.conduit.send_am(
        ctx, target, _run_ff, (fn, args), nbytes=nbytes, label="rpc_ff",
        aggregatable=True,
    )
    if span is not None:
        span.t_injected = ctx.clock.now_ns


def _run_ff(tctx, fn: Callable, args: tuple) -> None:
    """Target-side handler of :func:`rpc_ff`.

    A module-level function with ``(fn, args)`` as the AM arguments, not a
    closure per call: a fire-and-forget message can sit in an aggregation
    buffer or inbox until the next barrier, and a closure would keep four
    GC-tracked objects (function, cell tuple, two cells) alive that long
    where the argument pair keeps one.
    """
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001
        raise RpcError(
            f"rpc_ff callback raised on rank {tctx.rank}: {exc!r}"
        ) from exc

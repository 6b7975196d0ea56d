"""Atomic domains: the full set of UPC++ atomic operations.

An :class:`AtomicDomain` is constructed over an element type and an
explicit set of operations (as in UPC++, where the op set lets GASNet-EX
select a coherent implementation — NIC offload vs. CPU).  Issuing an op
outside the declared set is an error.

Operation classes:

* value-less updates — ``store, add, sub, inc, dec, bit_and, bit_or,
  bit_xor, min, max``: no fetched value; notification is ``future<>``;
* value-producing (fetching) — ``load, fetch_add, fetch_sub, fetch_inc,
  fetch_dec, fetch_bit_and, fetch_bit_or, fetch_bit_xor, fetch_min,
  fetch_max, compare_exchange``: the operation event carries the fetched
  value (``future<T>``), so even an eager ready future must allocate;
* **non-value fetching** (new in 2021.3.6, §III-B) — ``fetch_*_into`` and
  ``load_into, compare_exchange_into``: the fetched value is written to a
  caller-provided local location and the notification is value-less.

On-node targets complete synchronously via CPU atomics on the shared
segment (the PSHM path); off-node targets take an AM round trip through
the conduit, with the fetched value in the reply.  Per §IV-A, eager
support does not lengthen the off-node AMO path at all.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.completions import Completions, CxDispatcher, operation_cx
from repro.core.events import Event
from repro.errors import AtomicDomainError, InvalidGlobalPointer
from repro.memory.global_ptr import GlobalPtr, LocalRef
from repro.memory.segment import TypeSpec, type_spec
from repro.runtime.context import current_ctx
from repro.sim.costmodel import CostAction

_AMO_EVENTS = frozenset({Event.OPERATION})

#: value-less update ops
_UPDATE_OPS = frozenset(
    {"store", "add", "sub", "inc", "dec", "bit_and", "bit_or", "bit_xor",
     "min", "max"}
)
#: fetching ops (value-producing, or *_into non-value form)
_FETCH_OPS = frozenset(
    {"load", "fetch_add", "fetch_sub", "fetch_inc", "fetch_dec",
     "fetch_bit_and", "fetch_bit_or", "fetch_bit_xor", "fetch_min",
     "fetch_max", "compare_exchange"}
)
#: every op name accepted by AtomicDomain(ops=...)
AMO_OPS = _UPDATE_OPS | _FETCH_OPS

_INT_ONLY = {"bit_and", "bit_or", "bit_xor",
             "fetch_bit_and", "fetch_bit_or", "fetch_bit_xor"}


def _wrap_signed(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def _apply(op: str, old, operand, operand2, ts: TypeSpec):
    """Compute (new_value, fetched) for an atomic op.

    ``fetched`` is the value the fetching form returns (the *old* value,
    except ``load``/``compare_exchange`` which follow their own rules).
    """
    if op in ("load",):
        return old, old
    if op == "store":
        return operand, None
    if op in ("add", "fetch_add"):
        new = old + operand
    elif op in ("sub", "fetch_sub"):
        new = old - operand
    elif op in ("inc", "fetch_inc"):
        new = old + 1
    elif op in ("dec", "fetch_dec"):
        new = old - 1
    elif op in ("bit_and", "fetch_bit_and"):
        new = old & operand
    elif op in ("bit_or", "fetch_bit_or"):
        new = old | operand
    elif op in ("bit_xor", "fetch_bit_xor"):
        new = old ^ operand
    elif op in ("min", "fetch_min"):
        new = min(old, operand)
    elif op in ("max", "fetch_max"):
        new = max(old, operand)
    elif op == "compare_exchange":
        new = operand2 if old == operand else old
        return new, old
    else:  # pragma: no cover - guarded by the op-set check
        raise AtomicDomainError(f"unknown atomic op {op!r}")
    if ts.dtype.kind == "u":
        new &= (1 << (8 * ts.size)) - 1
    elif ts.dtype.kind == "i":
        new = _wrap_signed(int(new), 8 * ts.size)
    return new, old


class AtomicDomain:
    """A set of atomic operations over one element type.

    Parameters
    ----------
    ops:
        The operations this domain supports (names from :data:`AMO_OPS`;
        a fetching op's ``_into`` variant is covered by the base name).
    ts:
        Element type (default ``"u64"``, the paper's 64-bit payload).
    """

    def __init__(self, ops, ts: Union[str, TypeSpec] = "u64"):
        self.ts = type_spec(ts)
        opset = frozenset(ops)
        unknown = opset - AMO_OPS
        if unknown:
            raise AtomicDomainError(
                f"unknown atomic ops: {sorted(unknown)}; known: "
                f"{sorted(AMO_OPS)}"
            )
        if self.ts.dtype.kind == "f":
            bad = opset & _INT_ONLY
            if bad:
                raise AtomicDomainError(
                    f"bitwise ops not valid on {self.ts.name}: {sorted(bad)}"
                )
        self.ops = opset
        self._destroyed = False

    def destroy(self) -> None:
        """Collectively tear down the domain (ops are errors afterwards)."""
        self._destroyed = True

    # -- op issue -----------------------------------------------------------

    def _check(self, op: str, target: GlobalPtr) -> None:
        if self._destroyed:
            raise AtomicDomainError("atomic domain used after destroy()")
        if op not in self.ops:
            raise AtomicDomainError(
                f"op {op!r} is not in this domain's op set {sorted(self.ops)}"
            )
        if target.is_null:
            raise InvalidGlobalPointer(f"atomic {op} on a null pointer")
        if target.ts is not self.ts:
            raise AtomicDomainError(
                f"atomic domain over {self.ts.name} cannot target "
                f"{target.ts.name} memory"
            )

    def _issue(
        self,
        op: str,
        target: GlobalPtr,
        operand=None,
        operand2=None,
        result_into: Optional[Union[GlobalPtr, LocalRef]] = None,
        comps: Optional[Completions] = None,
    ):
        ctx = current_ctx()
        ctx.charge(CostAction.AMO_CALL_OVERHEAD)
        self._check(op, target)
        fetching = op in _FETCH_OPS
        if result_into is not None:
            if not fetching:
                raise AtomicDomainError(
                    f"op {op!r} produces no value to write into memory"
                )
            if not ctx.flags.nonvalue_fetching_atomics:
                raise AtomicDomainError(
                    "non-value fetching atomics require the 2021.3.6 "
                    f"builds (build is {ctx.config.version.value})"
                )
            result_ref = self._resolve_into(ctx, result_into)
        else:
            result_ref = None
        if comps is None:
            comps = operation_cx.as_future()
        produces_value = fetching and result_ref is None
        disp = CxDispatcher(
            ctx,
            comps,
            supported=_AMO_EVENTS,
            value_event=Event.OPERATION if produces_value else None,
            nvalues=1 if produces_value else 0,
            op_name=f"atomic {op}",
        )
        # the AMO path always performs its (pre-existing) protocol branch;
        # eager support changed nothing on this path (§IV-A)
        ctx.charge(CostAction.LOCALITY_BRANCH)
        if not ctx.conduit.pshm_reachable(ctx.rank, target.rank):
            # off-node: identical in every build (§IV-A) — per-op state is
            # always allocated for the in-flight operation
            ctx.charge(CostAction.HEAP_ALLOC_OP_DESCRIPTOR)
            ctx.charge(CostAction.HEAP_FREE)
            return self._issue_remote(
                ctx, disp, op, target, operand, operand2, result_ref,
                produces_value,
            )
        if disp.any_deferred():
            # deferred AMO completion keeps its per-op descriptor (the
            # 2021.3.6 allocation elision applies to RMA only)
            ctx.charge(CostAction.HEAP_ALLOC_OP_DESCRIPTOR)
            ctx.charge(CostAction.HEAP_FREE)
        # on-node: CPU atomic on the shared segment, synchronous.
        # Concurrent atomics from co-located peers contend on cache
        # lines and fences; the penalty scales with the peer count.
        disp.mark_injected(target.rank, target.ts.size, local=True)
        seg = ctx.world.segment_of(target.rank)
        ctx.charge(CostAction.CPU_ATOMIC_RMW)
        peers = ctx.world.ranks_per_node - 1
        if peers > 0:
            ctx.charge(CostAction.AMO_CONTENTION_PER_PEER, peers)
        old = seg.read_scalar(target.offset, target.ts)
        new, fetched = _apply(op, old, operand, operand2, target.ts)
        if new is not None and op != "load":
            seg.write_scalar(target.offset, target.ts, new)
        if result_ref is not None:
            ctx.charge(CostAction.CPU_STORE)
            result_ref.segment.write_scalar(
                result_ref.offset, result_ref.ts, fetched
            )
            disp.notify_sync(Event.OPERATION)
        elif produces_value:
            disp.notify_sync(Event.OPERATION, (fetched,))
        else:
            disp.notify_sync(Event.OPERATION)
        return disp.result()

    def _issue_remote(
        self, ctx, disp, op, target, operand, operand2, result_ref,
        produces_value,
    ):
        """Off-node AMO: executed by the owner via AM, value in the reply."""
        pending = disp.pend(Event.OPERATION)
        initiator = ctx.rank
        ts = target.ts

        def on_target(tctx):
            seg = tctx.world.segment_of(target.rank)
            tctx.charge(CostAction.CPU_ATOMIC_RMW)
            peers = tctx.world.ranks_per_node - 1
            if peers > 0:
                tctx.charge(CostAction.AMO_CONTENTION_PER_PEER, peers)
            old = seg.read_scalar(target.offset, ts)
            new, fetched = _apply(op, old, operand, operand2, ts)
            if new is not None and op != "load":
                seg.write_scalar(target.offset, ts, new)

            def on_reply(ictx, fetched=fetched):
                if result_ref is not None:
                    ictx.charge(CostAction.CPU_STORE)
                    result_ref.segment.write_scalar(
                        result_ref.offset, result_ref.ts, fetched
                    )
                    pending.complete(())
                elif produces_value:
                    pending.complete((fetched,))
                else:
                    pending.complete(())

            tctx.conduit.send_am(
                tctx, initiator, on_reply, nbytes=ts.size, label="amo_reply"
            )

        ctx.conduit.send_am(
            ctx, target.rank, on_target, nbytes=ts.size, label="amo_req",
            aggregatable=True,
        )
        disp.mark_injected(target.rank, ts.size, local=False)
        return disp.result()

    @staticmethod
    def _resolve_into(ctx, dest: Union[GlobalPtr, LocalRef]) -> LocalRef:
        if isinstance(dest, LocalRef):
            return dest
        if isinstance(dest, GlobalPtr):
            if not ctx.is_local_rank(dest.rank):
                raise AtomicDomainError(
                    "fetch-into destination must be locally addressable"
                )
            return LocalRef(
                ctx.world.segment_of(dest.rank), dest.offset, dest.ts
            )
        raise TypeError("fetch-into destination must be GlobalPtr or LocalRef")

    # -- public op methods -------------------------------------------------------
    # value-less updates

    def store(self, target, value, comps=None):
        return self._issue("store", target, value, comps=comps)

    def add(self, target, value, comps=None):
        return self._issue("add", target, value, comps=comps)

    def sub(self, target, value, comps=None):
        return self._issue("sub", target, value, comps=comps)

    def inc(self, target, comps=None):
        return self._issue("inc", target, comps=comps)

    def dec(self, target, comps=None):
        return self._issue("dec", target, comps=comps)

    def bit_and(self, target, value, comps=None):
        return self._issue("bit_and", target, value, comps=comps)

    def bit_or(self, target, value, comps=None):
        return self._issue("bit_or", target, value, comps=comps)

    def bit_xor(self, target, value, comps=None):
        return self._issue("bit_xor", target, value, comps=comps)

    def min(self, target, value, comps=None):
        return self._issue("min", target, value, comps=comps)

    def max(self, target, value, comps=None):
        return self._issue("max", target, value, comps=comps)

    # fetching (value-producing)

    def load(self, target, comps=None):
        return self._issue("load", target, comps=comps)

    def fetch_add(self, target, value, comps=None):
        return self._issue("fetch_add", target, value, comps=comps)

    def fetch_sub(self, target, value, comps=None):
        return self._issue("fetch_sub", target, value, comps=comps)

    def fetch_inc(self, target, comps=None):
        return self._issue("fetch_inc", target, comps=comps)

    def fetch_dec(self, target, comps=None):
        return self._issue("fetch_dec", target, comps=comps)

    def fetch_bit_and(self, target, value, comps=None):
        return self._issue("fetch_bit_and", target, value, comps=comps)

    def fetch_bit_or(self, target, value, comps=None):
        return self._issue("fetch_bit_or", target, value, comps=comps)

    def fetch_bit_xor(self, target, value, comps=None):
        return self._issue("fetch_bit_xor", target, value, comps=comps)

    def fetch_min(self, target, value, comps=None):
        return self._issue("fetch_min", target, value, comps=comps)

    def fetch_max(self, target, value, comps=None):
        return self._issue("fetch_max", target, value, comps=comps)

    def compare_exchange(self, target, expected, desired, comps=None):
        return self._issue(
            "compare_exchange", target, expected, desired, comps=comps
        )

    # non-value fetching (new in 2021.3.6, §III-B)

    def load_into(self, target, result, comps=None):
        return self._issue("load", target, result_into=result, comps=comps)

    def fetch_add_into(self, target, value, result, comps=None):
        return self._issue(
            "fetch_add", target, value, result_into=result, comps=comps
        )

    def fetch_sub_into(self, target, value, result, comps=None):
        return self._issue(
            "fetch_sub", target, value, result_into=result, comps=comps
        )

    def fetch_inc_into(self, target, result, comps=None):
        return self._issue(
            "fetch_inc", target, result_into=result, comps=comps
        )

    def fetch_dec_into(self, target, result, comps=None):
        return self._issue(
            "fetch_dec", target, result_into=result, comps=comps
        )

    def fetch_bit_xor_into(self, target, value, result, comps=None):
        return self._issue(
            "fetch_bit_xor", target, value, result_into=result, comps=comps
        )

    def fetch_bit_and_into(self, target, value, result, comps=None):
        return self._issue(
            "fetch_bit_and", target, value, result_into=result, comps=comps
        )

    def fetch_bit_or_into(self, target, value, result, comps=None):
        return self._issue(
            "fetch_bit_or", target, value, result_into=result, comps=comps
        )

    def fetch_min_into(self, target, value, result, comps=None):
        return self._issue(
            "fetch_min", target, value, result_into=result, comps=comps
        )

    def fetch_max_into(self, target, value, result, comps=None):
        return self._issue(
            "fetch_max", target, value, result_into=result, comps=comps
        )

    def compare_exchange_into(self, target, expected, desired, result, comps=None):
        return self._issue(
            "compare_exchange", target, expected, desired,
            result_into=result, comps=comps,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AtomicDomain {self.ts.name} ops={sorted(self.ops)}>"

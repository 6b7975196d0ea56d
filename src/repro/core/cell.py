"""The internal promise cell: the heap object behind every future/promise.

In UPC++ each non-ready future corresponds to a dynamically allocated
internal promise cell (Section II-A).  The 2021.3.0 path allocates one for
*every* asynchronous operation, even those that complete synchronously via
shared-memory bypass; eliminating exactly this allocation (plus the
progress-queue round trip) is what eager notification buys.

Cells are created through the factory functions below, never directly, so
that heap-cost accounting is centralized (the one subclass,
``when_all``'s dependency-graph vertex, charges the same allocation as it
is built):

* :func:`alloc_cell` — a fresh non-ready cell; charges one promise-cell
  heap allocation (and its eventual free, amortized at allocation time);
* :func:`ready_cell` — a fresh *ready* cell holding values; same charge
  (the value must live somewhere — §III-B explains why this allocation
  cannot be elided for value-producing operations);
* :func:`ready_unit_cell` — a ready value-less cell.  With the 2021.3.6
  ``ready_future_shared_cell`` optimization this returns the world's shared
  pre-allocated cell at **zero** heap cost; on 2021.3.0 it allocates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import FutureError, PromiseError
from repro.sim.costmodel import CostAction

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import RankContext


# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` or
# ``Event.X`` read runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_HEAP_ALLOC_PROMISE_CELL = CostAction.HEAP_ALLOC_PROMISE_CELL
_HEAP_FREE = CostAction.HEAP_FREE


class PromiseCell:
    """State machine shared by futures (consumers) and promises (producers).

    A cell is *ready* once its dependency counter reaches zero; promises
    start the counter at 1 (the master dependency cleared by
    ``finalize()``), plain operation cells at 1 (cleared when the operation
    completes), and conjoined cells at the number of non-ready inputs.
    """

    __slots__ = ("nvalues", "values", "deps", "callbacks", "shared")

    def __init__(self, nvalues: int = 0, deps: int = 1, shared: bool = False):
        if deps < 0:
            raise PromiseError("dependency count cannot be negative")
        self.nvalues = nvalues
        self.values: Optional[tuple] = () if nvalues == 0 else None
        self.deps = deps
        self.callbacks: Optional[list[Callable[[tuple], None]]] = None
        self.shared = shared

    # -- state ---------------------------------------------------------------

    @property
    def ready(self) -> bool:
        return self.deps == 0 and (self.nvalues == 0 or self.values is not None)

    def result_tuple(self) -> tuple:
        if not self.ready:
            raise FutureError("result requested from a non-ready future")
        return self.values if self.values is not None else ()

    # -- producer side ---------------------------------------------------------

    def add_deps(self, n: int) -> None:
        if self.ready:
            raise PromiseError("cannot add dependencies to a ready cell")
        if self.shared:
            raise PromiseError("the shared ready cell is immutable")
        self.deps += n

    def set_values(self, values: tuple) -> None:
        """Store the produced values (does not decrement the counter)."""
        if self.shared:
            raise PromiseError("the shared ready cell is immutable")
        if len(values) != self.nvalues:
            raise PromiseError(
                f"cell expects {self.nvalues} values, got {len(values)}"
            )
        if self.nvalues and self.values is not None:
            raise PromiseError("cell values already set")
        self.values = values

    def fulfill(self, n: int = 1) -> bool:
        """Clear ``n`` dependencies; fire callbacks if the cell became
        ready.  Returns True exactly when this call made it ready."""
        if self.shared:
            raise PromiseError("the shared ready cell is immutable")
        if n < 0:
            raise PromiseError("cannot fulfill a negative count")
        deps = self.deps
        if n > deps:
            raise PromiseError(
                f"over-fulfillment: {n} > outstanding {deps}"
            )
        if n == 0:
            return False
        deps -= n
        self.deps = deps
        if deps:
            return False
        values = self.values
        if values is None and self.nvalues:
            raise PromiseError(
                "all dependencies cleared but values never supplied"
            )
        cbs = self.callbacks
        if cbs is not None:
            self.callbacks = None
            if values is None:
                values = ()
            for cb in cbs:
                cb(values)
        return True

    # -- consumer side -----------------------------------------------------------

    def add_callback(self, cb: Callable[[tuple], None]) -> None:
        """Attach ``cb`` to run (synchronously) when the cell becomes ready.
        If already ready the callback runs immediately."""
        values = self.values
        if self.deps == 0 and (values is not None or self.nvalues == 0):
            cb(values if values is not None else ())
            return
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = [cb]
        else:
            cbs.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ready" if self.ready else f"deps={self.deps}"
        return f"<PromiseCell nvalues={self.nvalues} {state}>"


# ---------------------------------------------------------------------------
# allocation factories (all heap accounting happens here).  Each charges the
# eventual free at allocation time (amortized); totals are identical and
# tests can still count allocations exactly.
# ---------------------------------------------------------------------------


def alloc_cell(ctx: "RankContext", nvalues: int = 0, deps: int = 1) -> PromiseCell:
    """A fresh non-ready cell (one heap allocation)."""
    ctx.charge(_HEAP_ALLOC_PROMISE_CELL)
    ctx.charge(_HEAP_FREE)
    return PromiseCell(nvalues, deps)


def ready_cell(ctx: "RankContext", values: tuple) -> PromiseCell:
    """A fresh ready cell holding ``values`` (one heap allocation —
    unavoidable for value-producing results, §III-B)."""
    ctx.charge(_HEAP_ALLOC_PROMISE_CELL)
    ctx.charge(_HEAP_FREE)
    cell = PromiseCell(len(values), 0)
    if values:
        cell.values = values
    return cell


def ready_unit_cell(ctx: "RankContext") -> PromiseCell:
    """A ready value-less cell.

    Under the ``ready_future_shared_cell`` optimization this is the world's
    shared pre-allocated cell (zero cost); otherwise it allocates like any
    other cell (2021.3.0 behaviour).
    """
    if ctx.flags.ready_future_shared_cell:
        return ctx.world.shared_ready_cell
    ctx.charge(_HEAP_ALLOC_PROMISE_CELL)
    ctx.charge(_HEAP_FREE)
    return PromiseCell(0, 0)

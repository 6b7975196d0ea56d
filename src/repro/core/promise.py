"""Promises: the producer side of an asynchronous result.

Mirrors ``upcxx::promise<T...>``.  A promise is "particularly efficient at
keeping track of multiple asynchronous operations, essentially acting as a
counter" (Section II-A): registering an operation increments the dependency
counter, completion decrements it, and the single heap allocation is the
explicitly constructed promise itself — in contrast to future conjoining,
which allocates a cell per conjoined operation.

The counter starts at 1: that master dependency is cleared by
:meth:`Promise.finalize`, which closes registration and returns the future.
"""

from __future__ import annotations

from repro.core.cell import PromiseCell, alloc_cell
from repro.core.future import Future
from repro.errors import PromiseError
from repro.runtime.context import current_ctx
from repro.sim.costmodel import CostAction


# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` or
# ``Event.X`` read runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_PROMISE_REGISTER = CostAction.PROMISE_REGISTER
_PROMISE_FULFILL = CostAction.PROMISE_FULFILL


class Promise:
    """An explicitly allocated completion counter.

    Parameters
    ----------
    nvalues:
        Arity of the produced result.  A promise with ``nvalues > 0`` can
        track only a single value-producing operation (the §III-B
        motivation for non-value fetching atomics); a value-less promise
        can track any number of operations.
    """

    __slots__ = ("_cell", "_finalized")

    def __init__(self, nvalues: int = 0):
        ctx = current_ctx()
        self._cell = alloc_cell(ctx, nvalues=nvalues, deps=1)
        self._finalized = False

    # -- registration (producer) ---------------------------------------------

    def require_anonymous(self, n: int) -> None:
        """Register ``n`` additional dependencies (operations) on this
        promise.  Illegal after :meth:`finalize`."""
        if n < 0:
            raise PromiseError("cannot require a negative dependency count")
        if self._finalized:
            raise PromiseError("require_anonymous after finalize")
        current_ctx().charge(_PROMISE_REGISTER)
        self._cell.add_deps(n)

    def fulfill_anonymous(self, n: int = 1) -> None:
        """Clear ``n`` previously registered dependencies."""
        current_ctx().charge(_PROMISE_FULFILL)
        # the master (finalize) dependency is not fulfillable anonymously
        outstanding = self._cell.deps - (0 if self._finalized else 1)
        if n > outstanding:
            raise PromiseError(
                f"fulfill_anonymous({n}) exceeds registered dependencies "
                f"({outstanding})"
            )
        self._cell.fulfill(n)

    def fulfill_result(self, *values) -> None:
        """Supply the result values and clear one dependency (for
        value-producing promises tracking their single operation)."""
        current_ctx().charge(_PROMISE_FULFILL)
        if self._cell.nvalues != len(values):
            raise PromiseError(
                f"promise expects {self._cell.nvalues} values, "
                f"got {len(values)}"
            )
        if self._cell.nvalues:
            self._cell.set_values(tuple(values))
        self._cell.fulfill(1)

    # -- consumption ----------------------------------------------------------

    def finalize(self) -> Future:
        """Close registration: clear the master dependency and return the
        future.  Idempotent per UPC++ (subsequent calls just return the
        future)."""
        if not self._finalized:
            self._finalized = True
            self._cell.fulfill(1)
        return Future(self._cell)

    def get_future(self) -> Future:
        """The future associated with this promise (without finalizing)."""
        return Future(self._cell)

    # -- internals for the completions dispatcher -------------------------------

    @property
    def cell(self) -> PromiseCell:
        return self._cell

    @property
    def finalized(self) -> bool:
        return self._finalized

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Promise nvalues={self._cell.nvalues} deps={self._cell.deps} "
            f"{'finalized' if self._finalized else 'open'}>"
        )

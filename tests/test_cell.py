"""Unit tests for the promise-cell state machine and allocation factories."""

from typing import Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cell import (
    PromiseCell,
    alloc_cell,
    ready_cell,
    ready_unit_cell,
)
from repro.errors import FutureError, PromiseError
from repro.runtime.config import Version
from repro.sim.costmodel import CostAction


class TestStateMachine:
    def test_fresh_cell_not_ready(self):
        assert not PromiseCell(deps=1).ready

    def test_zero_deps_valueless_is_ready(self):
        assert PromiseCell(nvalues=0, deps=0).ready

    def test_fulfill_readies(self):
        c = PromiseCell(deps=1)
        assert c.fulfill() is True
        assert c.ready

    def test_partial_fulfill_not_ready(self):
        c = PromiseCell(deps=3)
        assert c.fulfill() is False
        assert c.fulfill() is False
        assert not c.ready
        assert c.fulfill() is True

    def test_fulfill_many_at_once(self):
        c = PromiseCell(deps=5)
        c.fulfill(5)
        assert c.ready

    def test_over_fulfillment_rejected(self):
        c = PromiseCell(deps=1)
        c.fulfill()
        with pytest.raises(PromiseError):
            c.fulfill()

    def test_negative_fulfill_rejected(self):
        with pytest.raises(PromiseError):
            PromiseCell(deps=1).fulfill(-1)

    def test_zero_fulfill_noop(self):
        c = PromiseCell(deps=1)
        assert c.fulfill(0) is False

    def test_add_deps(self):
        c = PromiseCell(deps=1)
        c.add_deps(2)
        c.fulfill(2)
        assert not c.ready
        c.fulfill()
        assert c.ready

    def test_add_deps_to_ready_rejected(self):
        c = PromiseCell(deps=0)
        with pytest.raises(PromiseError):
            c.add_deps(1)

    def test_negative_initial_deps_rejected(self):
        with pytest.raises(PromiseError):
            PromiseCell(deps=-1)


class TestValues:
    def test_value_cell_needs_values_to_ready(self):
        c = PromiseCell(nvalues=1, deps=1)
        with pytest.raises(PromiseError):
            c.fulfill()

    def test_set_values_then_fulfill(self):
        c = PromiseCell(nvalues=2, deps=1)
        c.set_values((1, 2))
        c.fulfill()
        assert c.result_tuple() == (1, 2)

    def test_wrong_arity_rejected(self):
        c = PromiseCell(nvalues=2, deps=1)
        with pytest.raises(PromiseError):
            c.set_values((1,))

    def test_double_set_rejected(self):
        c = PromiseCell(nvalues=1, deps=1)
        c.set_values((1,))
        with pytest.raises(PromiseError):
            c.set_values((2,))

    def test_result_of_nonready_rejected(self):
        with pytest.raises(FutureError):
            PromiseCell(deps=1).result_tuple()


class TestCallbacks:
    def test_callback_fires_on_ready(self):
        c = PromiseCell(nvalues=1, deps=1)
        got = []
        c.add_callback(got.append)
        c.set_values((42,))
        c.fulfill()
        assert got == [(42,)]

    def test_callback_on_already_ready_runs_immediately(self):
        c = PromiseCell(deps=0)
        got = []
        c.add_callback(got.append)
        assert got == [()]

    def test_multiple_callbacks_in_order(self):
        c = PromiseCell(deps=1)
        order = []
        c.add_callback(lambda _: order.append("a"))
        c.add_callback(lambda _: order.append("b"))
        c.fulfill()
        assert order == ["a", "b"]

    def test_callbacks_fire_once(self):
        c = PromiseCell(deps=2)
        count = []
        c.add_callback(lambda _: count.append(1))
        c.fulfill()
        c.fulfill()
        assert len(count) == 1


class TestSharedCell:
    def test_shared_cell_immutable(self):
        c = PromiseCell(deps=0, shared=True)
        with pytest.raises(PromiseError):
            c.fulfill()
        with pytest.raises(PromiseError):
            c.add_deps(1)
        with pytest.raises(PromiseError):
            c.set_values(())


class TestFactories:
    def test_alloc_cell_charges(self, ctx):
        before = ctx.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL)
        alloc_cell(ctx)
        assert ctx.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL) == before + 1
        assert ctx.costs.count(CostAction.HEAP_FREE) >= 1

    def test_ready_cell_holds_values_and_charges(self, ctx):
        before = ctx.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL)
        c = ready_cell(ctx, (7, 8))
        assert c.ready and c.result_tuple() == (7, 8)
        assert ctx.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL) == before + 1

    def test_ready_unit_cell_uses_shared_cell_on_36(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        before = c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL)
        cell = ready_unit_cell(c)
        assert cell is c.world.shared_ready_cell
        assert c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL) == before

    def test_ready_unit_cell_allocates_on_2021_3_0(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_0)
        before = c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL)
        cell = ready_unit_cell(c)
        assert cell is not c.world.shared_ready_cell
        assert cell.ready
        assert c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL) == before + 1


# ---------------------------------------------------------------------------
# ``PromiseCell`` against the reference implementation below: a verbatim
# copy of the class from before ``fulfill`` fired callbacks inline and the
# write-only ``finalized`` slot went.
# ---------------------------------------------------------------------------


class ReferencePromiseCell:
    """State machine shared by futures (consumers) and promises (producers).

    A cell is *ready* once its dependency counter reaches zero; promises
    start the counter at 1 (the master dependency cleared by
    ``finalize()``), plain operation cells at 1 (cleared when the operation
    completes), and conjoined cells at the number of non-ready inputs.
    """

    __slots__ = ("nvalues", "values", "deps", "finalized", "callbacks", "shared")

    def __init__(self, nvalues: int = 0, deps: int = 1, shared: bool = False):
        if deps < 0:
            raise PromiseError("dependency count cannot be negative")
        self.nvalues = nvalues
        self.values: Optional[tuple] = () if nvalues == 0 else None
        self.deps = deps
        self.finalized = deps == 0
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
        if n > self.deps:
            raise PromiseError(
                f"over-fulfillment: {n} > outstanding {self.deps}"
            )
        if n == 0:
            return False
        self.deps -= n
        if self.deps == 0:
            if self.nvalues and self.values is None:
                raise PromiseError(
                    "all dependencies cleared but values never supplied"
                )
            self._fire()
            return True
        return False

    def _fire(self) -> None:
        # only ``fulfill`` calls this, once it has checked readiness
        cbs, self.callbacks = self.callbacks, None
        if cbs:
            vals = self.values if self.values is not None else ()
            for cb in cbs:
                cb(vals)

    # -- consumer side -----------------------------------------------------------

    def add_callback(self, cb: Callable[[tuple], None]) -> None:
        """Attach ``cb`` to run (synchronously) when the cell becomes ready.
        If already ready the callback runs immediately."""
        if self.ready:
            cb(self.result_tuple())
            return
        if self.callbacks is None:
            self.callbacks = []
        self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ready" if self.ready else f"deps={self.deps}"
        return f"<PromiseCell nvalues={self.nvalues} {state}>"


#: ``fulfill`` counts: negative, zero, one, two, and one more than the
#: cell's outstanding dependencies
FULFILL_COUNTS = (-1, 0, 1, 2, "over")

operation = st.one_of(
    st.tuples(st.just("fulfill"), st.sampled_from(FULFILL_COUNTS)),
    st.tuples(st.just("set_values"), st.integers(0, 2)),
    st.tuples(st.just("add_deps"), st.integers(-1, 2)),
    st.tuples(st.just("add_callback"), st.sampled_from(("plain", "nested"))),
    st.tuples(st.just("result_tuple"), st.none()),
)


def _cell_trace(cls, nvalues, deps, shared, ops) -> list:
    """Apply ``ops`` to a ``cls`` cell and record every return value,
    exception, callback call (arguments and order) and the state after
    each step."""
    log: list = []
    try:
        cell = cls(nvalues=nvalues, deps=deps, shared=shared)
    except PromiseError as exc:
        return [("init", type(exc), str(exc))]

    def state():
        cbs = cell.callbacks
        return (cell.nvalues, cell.values, cell.deps, cell.ready,
                None if cbs is None else len(cbs))

    for step, (name, arg) in enumerate(ops):
        if name == "fulfill":
            args = (cell.deps + 1 if arg == "over" else arg,)
        elif name == "set_values":
            args = (tuple(range(step, step + arg)),)
        elif name == "add_deps":
            args = (arg,)
        elif name == "add_callback":
            tag = f"cb{step}"
            if arg == "plain":
                args = (lambda vals, tag=tag: log.append((tag, vals)),)
            else:
                # re-enters the cell it fires from: a ready cell runs the
                # inner callback at once
                def nested(vals, tag=tag):
                    log.append((tag, vals))
                    cell.add_callback(
                        lambda v, tag=tag: log.append((tag + "-inner", v)))

                args = (nested,)
        else:
            args = ()
        try:
            out = getattr(cell, name)(*args)
        except (PromiseError, FutureError) as exc:
            out = (type(exc), str(exc))
        log.append((step, name, out, state()))
    return log


class TestAgainstReference:
    """Random operation sequences give the same results, errors and
    callback calls on ``PromiseCell`` and the reference class."""

    @settings(max_examples=400, deadline=None)
    @given(
        nvalues=st.integers(0, 2),
        deps=st.integers(-1, 3),
        shared=st.booleans(),
        ops=st.lists(operation, max_size=12),
    )
    def test_matches_reference(self, nvalues, deps, shared, ops):
        live = _cell_trace(PromiseCell, nvalues, deps, shared, ops)
        ref = _cell_trace(ReferencePromiseCell, nvalues, deps, shared, ops)
        assert live == ref

    def test_shared_ready_cell_matches_reference(self, ctx):
        """The world's shared ready cell refuses every mutation, as the
        reference class's shared cell does."""
        ops = [("fulfill", 1), ("fulfill", 0), ("set_values", 0),
               ("add_deps", 1), ("add_callback", "plain"),
               ("result_tuple", None)]
        shared = ctx.world.shared_ready_cell
        live = _cell_trace(
            lambda **kw: shared, shared.nvalues, shared.deps, True, ops)
        ref = _cell_trace(ReferencePromiseCell, 0, 0, True, ops)
        assert live == ref

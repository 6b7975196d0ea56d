"""Unit tests for ``when_all`` conjoining and the §III-C short-cuts."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cell import PromiseCell, alloc_cell
from repro.core.future import Future, make_future, to_future
from repro.core.when_all import when_all
from repro.runtime.config import RuntimeConfig, Version
from repro.runtime.context import current_ctx, set_current_ctx
from repro.runtime.runtime import build_world
from repro.sim.costmodel import CostAction


def pending(nvalues=0):
    return Future(PromiseCell(nvalues=nvalues, deps=1))


class TestSemantics:
    def test_empty_is_ready_valueless(self, ctx):
        f = when_all()
        assert f.is_ready() and f.result() is None

    def test_all_ready_valueless(self, ctx):
        f = when_all(make_future(), make_future())
        assert f.is_ready()

    def test_value_concatenation_order(self, ctx):
        f = when_all(make_future(1), make_future(), make_future(2, 3))
        assert f.result_tuple() == (1, 2, 3)

    def test_plain_values_wrapped(self, ctx):
        f = when_all(5, make_future(6))
        assert f.result_tuple() == (5, 6)

    def test_readiness_requires_all(self, ctx):
        p1, p2 = pending(), pending()
        f = when_all(p1, p2)
        assert not f._cell.ready
        p1._cell.fulfill()
        assert not f._cell.ready
        p2._cell.fulfill()
        assert f._cell.ready

    def test_pending_values_gathered(self, ctx):
        p1, p2 = pending(1), pending(1)
        f = when_all(p1, p2)
        p2._cell.values = (20,)
        p2._cell.fulfill()
        p1._cell.values = (10,)
        p1._cell.fulfill()
        assert f.result_tuple() == (10, 20)  # argument order, not readiness

    def test_mixed_ready_and_pending(self, ctx):
        p = pending(1)
        f = when_all(make_future(1), p, make_future(3))
        assert not f._cell.ready
        p._cell.values = (2,)
        p._cell.fulfill()
        assert f.result_tuple() == (1, 2, 3)

    def test_conjoining_loop_idiom(self, ctx):
        """The §II-A loop: f = when_all(f, op) over value-less futures."""
        f = make_future()
        pendings = [pending() for _ in range(10)]
        for p in pendings:
            f = when_all(f, p)
        assert not f._cell.ready
        for p in pendings:
            p._cell.fulfill()
        assert f._cell.ready


class TestShortcuts:
    """§III-C: the optimized when_all returns inputs directly."""

    def test_single_contributor_returned_directly(self, versioned_ctx):
        versioned_ctx(Version.V2021_3_6_EAGER)
        p = pending()
        f = when_all(make_future(), p, make_future())
        assert f is p

    def test_value_bearing_ready_contributor_returned(self, versioned_ctx):
        versioned_ctx(Version.V2021_3_6_EAGER)
        v = make_future(1, 2)
        f = when_all(v, make_future())
        assert f is v

    def test_all_ready_valueless_returns_input(self, versioned_ctx):
        versioned_ctx(Version.V2021_3_6_EAGER)
        a, b = make_future(), make_future()
        assert when_all(a, b) is a

    def test_two_contributors_build_graph(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        before = c.costs.count(CostAction.WHEN_ALL_NODE_BUILD)
        f = when_all(pending(), pending())
        assert f is not None
        assert c.costs.count(CostAction.WHEN_ALL_NODE_BUILD) == before + 1

    def test_shortcut_builds_no_graph(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        before = c.costs.count(CostAction.WHEN_ALL_NODE_BUILD)
        a0 = c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL)
        when_all(make_future(), make_future(), make_future())
        assert c.costs.count(CostAction.WHEN_ALL_NODE_BUILD) == before
        assert c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL) == a0

    def test_legacy_always_builds_graph(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_0)
        before = c.costs.count(CostAction.WHEN_ALL_NODE_BUILD)
        a, b = make_future(), make_future()
        f = when_all(a, b)
        assert f is not a and f is not b
        assert f.is_ready()
        assert c.costs.count(CostAction.WHEN_ALL_NODE_BUILD) == before + 1

    def test_shortcut_equivalence_with_legacy(self, versioned_ctx):
        """Both implementations produce semantically identical results."""
        for version in (Version.V2021_3_0, Version.V2021_3_6_EAGER):
            versioned_ctx(version)
            p = pending(1)
            f = when_all(make_future(), p)
            assert not f._cell.ready
            p._cell.values = (9,)
            p._cell.fulfill()
            assert f.result_tuple() == (9,)


class TestCostScaling:
    def test_legacy_conjoining_cost_linear_in_ops(self, versioned_ctx):
        """Figure 1's dependency graph: N conjoins → N nodes, ≥N edges."""
        c = versioned_ctx(Version.V2021_3_0)
        n0 = c.costs.count(CostAction.WHEN_ALL_NODE_BUILD)
        f = make_future()
        for _ in range(20):
            f = when_all(f, make_future())
        assert c.costs.count(CostAction.WHEN_ALL_NODE_BUILD) == n0 + 20

    def test_optimized_conjoining_of_ready_inputs_is_flat(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        n0 = c.costs.count(CostAction.WHEN_ALL_NODE_BUILD)
        f = make_future()
        for _ in range(20):
            f = when_all(f, make_future())
        assert c.costs.count(CostAction.WHEN_ALL_NODE_BUILD) == n0


# ---------------------------------------------------------------------------
# Two-future ``when_all`` against the reference implementation below: a
# verbatim copy of the general ``*inputs`` path (and its separate result
# cell) from before ``when_all(a, b)`` of two futures took a direct path
# and the vertex became its own result cell.
# ---------------------------------------------------------------------------

_FUTURE_READY_CHECK = CostAction.FUTURE_READY_CHECK
_WHEN_ALL_NODE_BUILD = CostAction.WHEN_ALL_NODE_BUILD
_DEP_GRAPH_RESOLVE_EDGE = CostAction.DEP_GRAPH_RESOLVE_EDGE


def reference_when_all(*inputs) -> Future:
    """Combine futures/values into a single future.

    Non-future inputs are treated as ready single-value futures (UPC++
    semantics).  The result carries the concatenation of all input values
    in argument order, and becomes ready when every input is ready.
    """
    ctx = current_ctx()
    futures = [to_future(x) for x in inputs]

    if ctx.flags.when_all_shortcuts:
        shortcut = _try_shortcut(ctx, futures)
        if shortcut is not None:
            return shortcut
    return _build_conjoined(ctx, futures)


def _try_shortcut(ctx, futures: list[Future]) -> Future | None:
    """Apply the §III-C rules; None means 'use the graph'."""
    contributor: Future | None = None
    for fut in futures:
        ctx.charge(_FUTURE_READY_CHECK)
        cell = fut._cell
        if cell.ready and cell.nvalues == 0:
            continue  # contributes neither values nor readiness
        if contributor is not None:
            return None  # two contributors: need the graph
        contributor = fut
    if contributor is not None:
        return contributor
    # all inputs ready and value-less (or no inputs at all)
    if futures:
        return futures[0]
    from repro.core.future import make_future

    return make_future()


def _build_conjoined(ctx, futures: list[Future]) -> Future:
    """Legacy dependency-graph construction."""
    ctx.charge(_WHEN_ALL_NODE_BUILD)
    total_values = sum(f._cell.nvalues for f in futures)
    pending = [f for f in futures if not f._cell.ready]
    result = alloc_cell(
        ctx, nvalues=total_values, deps=max(1, len(pending))
    )
    node = _Vertex(ctx, futures, result, total_values, len(pending))

    if not pending:
        # inputs all ready but shortcuts disabled (or value-bearing):
        # the graph node still gets built, then resolves immediately.
        ctx.charge(_DEP_GRAPH_RESOLVE_EDGE, len(futures))
        node.finish()
        result.fulfill(1)
        return Future(result)

    on_input_ready = node.on_input_ready
    for f in pending:
        f._cell.add_callback(on_input_ready)
    # edges to already-ready inputs are resolved at construction time
    ctx.charge(_DEP_GRAPH_RESOLVE_EDGE, len(futures) - len(pending))
    return Future(result)


class _Vertex:
    """One dependency-graph vertex: readies ``result`` once its last
    pending input readies (slotted, so a vertex is one small object where
    two closures and their cells used to be)."""

    __slots__ = ("ctx", "futures", "result", "total_values", "remaining")

    def __init__(self, ctx, futures: list[Future], result, total_values: int,
                 remaining: int):
        self.ctx = ctx
        self.futures = futures
        self.result = result
        self.total_values = total_values
        self.remaining = remaining

    def finish(self) -> None:
        if self.total_values:
            vals: list = []
            for f in self.futures:
                vals.extend(f._cell.result_tuple())
            self.result.values = tuple(vals)
        # else: values stays () from construction

    def on_input_ready(self, _vals: tuple) -> None:
        self.ctx.charge(_DEP_GRAPH_RESOLVE_EDGE)
        self.remaining -= 1
        if self.remaining == 0:
            self.finish()
        self.result.fulfill(1)


#: the argument kinds drawn for each input of ``when_all(a, b)``
INPUT_KINDS = (
    "shared",          # the world's shared ready cell
    "ready_unit",      # an allocated ready value-less cell
    "ready_values",    # a ready value-bearing cell
    "pending_unit",    # a pending value-less cell
    "pending_values",  # a pending value-bearing cell
)


def _make_input(kind: str, tag: int) -> Future:
    ctx = current_ctx()
    if kind == "shared":
        return Future(ctx.world.shared_ready_cell)
    if kind == "ready_unit":
        return Future(PromiseCell(nvalues=0, deps=0))
    if kind == "ready_values":
        cell = PromiseCell(nvalues=2, deps=0)
        cell.values = (tag, tag + 1)
        return Future(cell)
    if kind == "pending_unit":
        return Future(PromiseCell(nvalues=0, deps=1))
    return Future(PromiseCell(nvalues=2, deps=1))


def _conjoin_trace(conjoin, version, kinds, same, order) -> list:
    """Run ``conjoin(a, b)`` on a fresh world and record everything a
    caller can observe: which object came back, its readiness and values,
    the action counts charged, and every callback (user and scheduler
    wake) in firing order as the pending inputs complete in ``order``."""
    world = build_world(RuntimeConfig(version=version))
    ctx = world.contexts[0]
    set_current_ctx(ctx)
    a = _make_input(kinds[0], 10)
    b = a if same else _make_input(kinds[1], 20)
    inputs = {"a": a, "b": b}
    log: list = []

    def recorder(tag):
        return lambda vals: log.append((tag, vals))

    for name, fut in inputs.items():
        if not fut._cell.ready:
            fut._cell.add_callback(recorder(f"before-{name}"))
    snap = ctx.costs.snapshot()
    out = conjoin(a, b)
    who = "a" if out is a else "b" if out is b else "new"
    log.append(("returned", who, out._cell.ready, out._cell.nvalues))
    for name, fut in inputs.items():
        if not fut._cell.ready:
            fut._cell.add_callback(recorder(f"after-{name}"))
    out._cell.add_callback(recorder("result"))
    # what ``EventLoopScheduler._enter_blocked`` registers for a rank that
    # parks on ``("cell", cell)``
    out._cell.add_callback(lambda _vals, r=3, g=1: log.append(("wake", r, g)))
    log.append(("charged", sorted(
        (a.name, n) for a, n in (ctx.costs.snapshot() - snap).items())))
    pending = [n for n in ("a", "b") if not inputs[n]._cell.ready
               and not (same and n == "b")]
    for name in sorted(pending, key=order.index):
        cell = inputs[name]._cell
        if cell.nvalues:
            cell.values = (ord(name), ord(name) + 1)
        cell.fulfill()
        log.append(("completed", name, out._cell.ready))
    log.append(("final", out._cell.ready, out.result_tuple()))
    log.append(("charged", sorted(
        (a.name, n) for a, n in (ctx.costs.snapshot() - snap).items())))
    set_current_ctx(None)
    return log


class TestPairAgainstReference:
    """``when_all(a, b)`` of two futures matches the reference general
    path on every build, input kind, aliasing and completion order."""

    @settings(max_examples=300, deadline=None)
    @given(
        version=st.sampled_from(list(Version)),
        kinds=st.tuples(st.sampled_from(INPUT_KINDS),
                        st.sampled_from(INPUT_KINDS)),
        same=st.booleans(),
        order=st.sampled_from(list(itertools.permutations("ab"))),
    )
    def test_matches_reference(self, version, kinds, same, order):
        live = _conjoin_trace(when_all, version, kinds, same, order)
        ref = _conjoin_trace(reference_when_all, version, kinds, same, order)
        assert live == ref

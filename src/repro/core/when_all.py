"""``when_all``: conjoining futures (and values) into one future.

The legacy implementation (2021.3.0) always builds a dependency-graph
vertex: a fresh heap-allocated cell wired to every input, readied when the
last input readies (Figure 1 of the paper).  Conjoining N operations in a
loop therefore allocates N cells and resolves N graph edges — the dominant
cost of the "pure RMA / atomics with futures" GUPS variants.

The optimized implementation (§III-C, ``when_all_shortcuts`` flag) avoids
the graph when the answer is semantically an existing future:

* every input ready and value-less → return one of them (and with the
  shared ready cell, that future costs nothing);
* exactly one input contributes (all others are ready value-less) →
  return that input directly;
* otherwise fall back to the graph construction.

These short-cuts matter chiefly when inputs are ready futures produced by
eager completions — which is why the combination of the two optimizations
yields the paper's headline 13.5× GUPS speedup.
"""

from __future__ import annotations

from repro.core.cell import PromiseCell
from repro.core.future import Future, make_future, to_future
from repro.runtime.context import current_ctx
from repro.sim.costmodel import CostAction


# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` or
# ``Event.X`` read runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_FUTURE_READY_CHECK = CostAction.FUTURE_READY_CHECK
_WHEN_ALL_NODE_BUILD = CostAction.WHEN_ALL_NODE_BUILD
_DEP_GRAPH_RESOLVE_EDGE = CostAction.DEP_GRAPH_RESOLVE_EDGE
_HEAP_ALLOC_PROMISE_CELL = CostAction.HEAP_ALLOC_PROMISE_CELL
_HEAP_FREE = CostAction.HEAP_FREE


def when_all(*inputs) -> Future:
    """Combine futures/values into a single future.

    Non-future inputs are treated as ready single-value futures (UPC++
    semantics).  The result carries the concatenation of all input values
    in argument order, and becomes ready when every input is ready.
    """
    ctx = current_ctx()
    if len(inputs) == 2:
        a, b = inputs
        if type(a) is Future and type(b) is Future:
            return _when_all_pair(ctx, a, b)
    futures = [to_future(x) for x in inputs]

    if ctx.flags.when_all_shortcuts:
        shortcut = _try_shortcut(ctx, futures)
        if shortcut is not None:
            return shortcut
    return _build_conjoined(ctx, futures)


def _when_all_pair(ctx, a: Future, b: Future) -> Future:
    """``when_all(a, b)`` of two futures — the Figure 1 loop's
    ``f = when_all(f, op())`` — with the general path's charges and
    result, unrolled."""
    ca = a._cell
    cb = b._cell
    if ctx.flags.when_all_shortcuts:
        # §III-C for two inputs: a ready value-less input contributes
        # nothing, so the other one is the answer (``a`` when both idle)
        ctx.charge(_FUTURE_READY_CHECK)
        ctx.charge(_FUTURE_READY_CHECK)
        if cb.deps == 0 and cb.nvalues == 0:
            return a
        if ca.deps == 0 and ca.nvalues == 0:
            return b
    # ``not cell.ready``, spelled out for both inputs
    if not (
        (ca.deps or (ca.nvalues and ca.values is None))
        and (cb.deps or (cb.nvalues and cb.values is None))
    ):
        return _build_conjoined(ctx, [a, b])
    # both pending: the vertex waits on both, and no edge resolves now
    ctx.charge(_WHEN_ALL_NODE_BUILD)
    vertex = _Vertex(ctx, (a, b), ca.nvalues + cb.nvalues, 2)
    on_input_ready = vertex.on_input_ready
    ca.add_callback(on_input_ready)
    cb.add_callback(on_input_ready)
    return Future(vertex)


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
    return make_future()


def _build_conjoined(ctx, futures: list[Future]) -> Future:
    """Legacy dependency-graph construction."""
    ctx.charge(_WHEN_ALL_NODE_BUILD)
    nvalues = 0
    pending = []
    for f in futures:
        cell = f._cell
        nvalues += cell.nvalues
        if not cell.ready:
            pending.append(cell)
    vertex = _Vertex(ctx, futures, nvalues, len(pending))
    on_input_ready = vertex.on_input_ready
    for cell in pending:
        cell.add_callback(on_input_ready)
    # edges to already-ready inputs are resolved at construction time; a
    # zero count would move no clock and count nothing, so it is skipped
    resolved = len(futures) - len(pending)
    if resolved:
        ctx.charge(_DEP_GRAPH_RESOLVE_EDGE, resolved)
    if not pending and nvalues:
        # inputs all ready but shortcuts disabled (or value-bearing): the
        # graph node still gets built, then resolves immediately
        vertex.values = vertex.gather()
    return Future(vertex)


class _Vertex(PromiseCell):
    """One dependency-graph vertex, which is also the conjoined result's
    cell: ``deps`` counts its pending inputs, and it readies when the last
    one readies.  ``futures`` are the inputs, whose values it gathers."""

    __slots__ = ("ctx", "futures")

    def __init__(self, ctx, futures, nvalues: int, deps: int):
        # a vertex is one promise-cell heap allocation, charged as
        # ``alloc_cell`` charges it (the free amortized up front)
        ctx.charge(_HEAP_ALLOC_PROMISE_CELL)
        ctx.charge(_HEAP_FREE)
        self.nvalues = nvalues
        self.values = () if nvalues == 0 else None
        self.deps = deps
        self.callbacks = None
        self.shared = False
        self.ctx = ctx
        self.futures = futures

    def gather(self) -> tuple:
        """The inputs' values, concatenated in argument order."""
        vals: list = []
        for f in self.futures:
            vals.extend(f._cell.result_tuple())
        return tuple(vals)

    def on_input_ready(self, _vals: tuple) -> None:
        self.ctx.charge(_DEP_GRAPH_RESOLVE_EDGE)
        deps = self.deps - 1
        self.deps = deps
        if deps:
            return
        if self.nvalues:
            self.values = self.gather()
        cbs = self.callbacks
        if cbs is not None:
            self.callbacks = None
            values = self.values
            for cb in cbs:
                cb(values)

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

from repro.core.cell import alloc_cell
from repro.core.future import Future, to_future
from repro.runtime.context import current_ctx
from repro.sim.costmodel import CostAction


# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` or
# ``Event.X`` read runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_FUTURE_READY_CHECK = CostAction.FUTURE_READY_CHECK
_WHEN_ALL_NODE_BUILD = CostAction.WHEN_ALL_NODE_BUILD
_DEP_GRAPH_RESOLVE_EDGE = CostAction.DEP_GRAPH_RESOLVE_EDGE


def when_all(*inputs) -> Future:
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

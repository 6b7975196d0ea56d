"""Parameter sweeps: the locality-crossover study.

The paper's introduction motivates eager notification with "applications
where most asynchronous communication operations are resolved on-node".
This module quantifies that: a GUPS-like update kernel runs on a two-node
world where each update targets co-located memory with probability
``local_fraction``; sweeping the fraction traces how the eager build's
advantage grows from nothing (all off-node: deferral is unavoidable) to
the full on-node gain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import (
    Promise,
    barrier_gen,
    current_ctx,
    new_array,
    operation_cx,
    rank_me,
    rank_n,
    rput,
)
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.config import Version
from repro.runtime.runtime import spmd_run
from repro.runtime.switchpoints import YIELD_NOW
from repro.sim.costmodel import CostAction


@dataclass
class LocalityPoint:
    """One sweep point: eager-vs-defer speedup at a given locality."""

    local_fraction: float
    defer_ns: float
    eager_ns: float

    @property
    def speedup(self) -> float:
        return self.defer_ns / self.eager_ns - 1


def _locality_body(
    local_fraction: float, updates: int, slots: int, done: list
):
    """Each rank puts into random slots: co-located targets with
    probability ``local_fraction``, off-node targets otherwise.  All
    ranks keep serving progress until everyone finishes (off-node puts
    need the target node's attention); ``done[0]`` counts the finished
    ranks."""
    ctx = current_ctx()
    me, p = rank_me(), rank_n()
    table = new_array("u64", slots)
    bases = [GlobalPtr(r, table.offset, table.ts) for r in range(p)]
    my_node = ctx.world.node_of(me)
    on_node = [r for r in range(p) if ctx.world.node_of(r) == my_node]
    off_node = [r for r in range(p) if ctx.world.node_of(r) != my_node]
    yield from barrier_gen()
    ctx.clock.mark("solve")
    prom = Promise()
    rng = ctx.rng
    for i in range(updates):
        ctx.charge(CostAction.FUNCTION_CALL, 2)
        if rng.random() < local_fraction or not off_node:
            target_rank = on_node[rng.randrange(len(on_node))]
        else:
            target_rank = off_node[rng.randrange(len(off_node))]
        slot = rng.randrange(slots)
        rput(i, bases[target_rank] + slot, operation_cx.as_promise(prom))
        if (i + 1) % 16 == 0:
            yield from prom.finalize().wait_gen()
            prom = Promise()
    yield from prom.finalize().wait_gen()
    # serve others' off-node traffic until everyone is done
    done[0] += 1
    while done[0] < p:
        ctx.progress()
        yield YIELD_NOW
    yield from barrier_gen()
    solve_ns = ctx.clock.elapsed_since("solve")
    return solve_ns


def locality_sweep(
    fractions=(0.0, 0.25, 0.5, 0.75, 0.9, 1.0),
    *,
    ranks: int = 4,
    updates: int = 96,
    machine: str = "intel",
) -> list[LocalityPoint]:
    """Eager-vs-defer speedup at each on-node target fraction."""
    points = []
    for frac in fractions:
        times = {}
        for version in (Version.V2021_3_6_DEFER, Version.V2021_3_6_EAGER):
            res = spmd_run(
                _locality_body,
                args=(frac, updates, 64, [0]),
                ranks=ranks,
                n_nodes=2,
                conduit="mpi",
                version=version,
                machine=machine,
                seed=11,
            )
            times[version] = max(res.values)
        points.append(
            LocalityPoint(
                local_fraction=frac,
                defer_ns=times[Version.V2021_3_6_DEFER],
                eager_ns=times[Version.V2021_3_6_EAGER],
            )
        )
    return points

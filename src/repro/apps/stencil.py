"""1-D Jacobi heat-diffusion stencil with halo exchange — the negative
control for eager notification.

Each rank owns a contiguous block of a 1-D rod; every iteration it
exchanges one-element halos with its neighbours via ``rput``, then
applies the three-point Jacobi update.  Because the computation per
iteration is O(block) while the communication is O(1) operations, the
*relative* benefit of eager notification shrinks as blocks grow — the
complementary regime to GUPS, matching the paper's framing that deferral
overheads matter for workloads dominated by fine-grained on-node
operations.

Correctness oracle: the distributed iteration must reproduce a serial
numpy Jacobi sweep bit-for-bit (same operation order within each cell).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
from repro.errors import UpcxxError
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.config import Version
from repro.runtime.runtime import spmd_run
from repro.sim.costmodel import CostAction


@dataclass(frozen=True)
class StencilConfig:
    n: int = 512  # global cells (excluding fixed boundary)
    iterations: int = 20
    left_temp: float = 1.0
    right_temp: float = 0.0

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("need at least 4 cells")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass
class StencilResult:
    config: StencilConfig
    ranks: int
    version: Version
    machine: str
    solve_ns: float
    field: np.ndarray
    matches_serial: bool


def serial_jacobi(cfg: StencilConfig) -> np.ndarray:
    """The oracle: serial Jacobi with fixed Dirichlet boundaries."""
    u = np.zeros(cfg.n + 2, dtype=np.float64)
    u[0], u[-1] = cfg.left_temp, cfg.right_temp
    for _ in range(cfg.iterations):
        nxt = u.copy()
        nxt[1:-1] = 0.5 * (u[:-2] + u[2:])
        u = nxt
        u[0], u[-1] = cfg.left_temp, cfg.right_temp
    return u[1:-1]


def _stencil_body(cfg: StencilConfig):
    ctx = current_ctx()
    me, p = rank_me(), rank_n()
    if cfg.n % p:
        raise UpcxxError("cells must divide evenly across ranks")
    per = cfg.n // p
    # local array layout: [left_halo, cell_0 .. cell_{per-1}, right_halo]
    cur = new_array("f64", per + 2, fill=0.0)
    nxt = new_array("f64", per + 2, fill=0.0)
    bases_cur = [GlobalPtr(r, cur.offset, cur.ts) for r in range(p)]
    bases_nxt = [GlobalPtr(r, nxt.offset, nxt.ts) for r in range(p)]
    cur_view = ctx.segment.view_array(cur.offset, cur.ts, per + 2)
    nxt_view = ctx.segment.view_array(nxt.offset, nxt.ts, per + 2)
    if me == 0:
        cur_view[0] = cfg.left_temp
        nxt_view[0] = cfg.left_temp
    if me == p - 1:
        cur_view[per + 1] = cfg.right_temp
        nxt_view[per + 1] = cfg.right_temp
    yield from barrier_gen()
    ctx.clock.mark("solve")

    read_bases, write_bases = bases_cur, bases_nxt
    read_view, write_view = cur_view, nxt_view
    for _ in range(cfg.iterations):
        # Jacobi update into the write buffer (vectorized; charge per cell)
        ctx.charge_bytes(CostAction.MEMCPY_PER_BYTE, per * 8 * 2)
        ctx.charge(CostAction.FUNCTION_CALL)
        write_view[1 : per + 1] = 0.5 * (
            read_view[0:per] + read_view[2 : per + 2]
        )
        yield from barrier_gen()  # everyone's write buffer is complete
        # halo exchange: push my edge cells into the neighbours' write
        # buffers' halo cells (for the *next* iteration's read)
        prom = Promise()
        if me > 0:
            rput(
                float(write_view[1]),
                write_bases[me - 1] + (per + 1),
                operation_cx.as_promise(prom),
            )
        if me < p - 1:
            rput(
                float(write_view[per]),
                write_bases[me + 1] + 0,
                operation_cx.as_promise(prom),
            )
        yield from prom.finalize().wait_gen()
        yield from barrier_gen()  # halos delivered
        read_bases, write_bases = write_bases, read_bases
        read_view, write_view = write_view, read_view

    yield from barrier_gen()
    solve_ns = ctx.clock.elapsed_since("solve")
    return solve_ns, np.array(read_view[1 : per + 1])


def run_stencil(
    cfg: StencilConfig,
    *,
    ranks: int = 8,
    version: Version = Version.V2021_3_6_EAGER,
    machine: str = "intel",
    flags=None,
) -> StencilResult:
    res = spmd_run(
        _stencil_body,
        args=(cfg,),
        ranks=ranks,
        version=version,
        machine=machine,
        segment_bytes=max(1 << 16, (cfg.n // ranks + 2) * 8 * 4),
        flags=flags,
    )
    solve_ns = max(v[0] for v in res.values)
    field = np.concatenate([v[1] for v in res.values])
    oracle = serial_jacobi(cfg)
    return StencilResult(
        config=cfg,
        ranks=ranks,
        version=version,
        machine=machine,
        solve_ns=solve_ns,
        field=field,
        matches_serial=bool(np.allclose(field, oracle, atol=1e-12)),
    )

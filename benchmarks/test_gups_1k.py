"""Extension: 1024-rank GUPS on the event-loop scheduler.

A thread-per-rank scheduler caps an experiment at ~16 ranks (one OS
thread per simulated rank); the event loop
(:class:`~repro.runtime.event_loop.EventLoopScheduler`) runs all rank
bodies as generator continuations on one thread, so this figure sweeps to
1024 ranks — a rank count no earlier benchmark could produce.

Strong scaling: the total update count is fixed and spread across the
ranks, so the per-rank work shrinks as the sweep widens.  The paper's
eager-vs-defer gain is per-operation CPU overhead and must persist at
every rank count.
"""

import time

from benchmarks.conftest import bench_scale, write_figure
from repro.apps.gups import GupsConfig, run_gups
from repro.bench.report import format_table
from repro.runtime.config import Version, flags_for

VD, VE = Version.V2021_3_6_DEFER, Version.V2021_3_6_EAGER

RANK_SWEEP = (64, 256, 1024)

#: fixed total updates, divided across the ranks (strong scaling)
TOTAL_UPDATES = 4096

#: generous wall-clock budget for the whole sweep — a scheduler or
#: cost-model regression that re-introduces per-switch O(n) scans blows
#: straight through this
SWEEP_BUDGET_S = 120.0


def test_gups_1k(benchmark, figure_dir):
    s = bench_scale()
    rows = []
    gains = {}
    t_sweep = time.perf_counter()
    for ranks in RANK_SWEEP:
        upr = max(1, TOTAL_UPDATES * s // ranks)
        cfg = GupsConfig(
            variant="rma_promise", table_log2=12,
            updates_per_rank=upr, batch=min(32, upr),
        )
        cells = {}
        walls = {}
        for v in (VD, VE):
            t0 = time.perf_counter()
            cells[v] = run_gups(
                cfg, ranks=ranks, version=v, machine="intel",
                flags=flags_for(v),
            )
            walls[v] = time.perf_counter() - t0
        gain = cells[VD].solve_ns / cells[VE].solve_ns
        gains[ranks] = gain
        rows.append([
            str(ranks),
            str(upr),
            f"{cells[VD].gups:.4g}",
            f"{cells[VE].gups:.4g}",
            f"{gain:.3f}x",
            f"{walls[VE]:.2f}s",
        ])
    sweep_wall = time.perf_counter() - t_sweep

    write_figure(
        figure_dir,
        "ext_gups_1k.txt",
        format_table(
            "Extension: 1024-rank GUPS, event-loop scheduler "
            "(Intel, rma_promise, strong scaling "
            f"[{TOTAL_UPDATES * s} total updates])",
            ["ranks", "updates/rank", "defer GUPS", "eager GUPS",
             "eager gain", "wall (eager)"],
            rows,
        ),
    )

    # the paper's per-op eager gain persists at every rank count, up to
    # and including 1024 ranks
    for ranks, gain in gains.items():
        assert gain > 1.02, f"eager gain vanished at {ranks} ranks"
    # 1024 simulated ranks on one OS thread, within the wall budget
    assert sweep_wall < SWEEP_BUDGET_S, (
        f"1k-rank sweep took {sweep_wall:.1f}s (budget {SWEEP_BUDGET_S}s) "
        "— scheduler hot path regressed?"
    )

    benchmark.pedantic(
        lambda: run_gups(
            GupsConfig(
                variant="rma_promise", table_log2=12,
                updates_per_rank=4, batch=4,
            ),
            ranks=256,
            version=VE,
            machine="intel",
            flags=flags_for(VE),
        ),
        rounds=3,
        iterations=1,
    )

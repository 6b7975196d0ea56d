"""Extension: 1024-rank DHT smoke on the event-loop scheduler.

The DHT body is now a generator (``_dht_body_gen``): every rank runs as an
in-place continuation on one OS thread, so the workload scales to 1024
ranks — a blocked-heavy shape (CAS waits, value puts, barrier fences, a
final find phase) quite unlike the all-ready GUPS storm.  The wall budget
below is a generous smoke bound, not a scheduler-complexity gate: with
the predicate scan forced, the sweep still finishes well inside it.  The
wake list's O(1)-per-switch claim is pinned by the parked-predicate
evaluation count in ``tests/test_wake_list.py``.
"""

import time

from benchmarks.conftest import bench_scale, write_figure
from repro.apps.dht import DhtConfig, run_dht
from repro.bench.report import format_table
from repro.runtime.config import Version, flags_for

RANK_SWEEP = (256, 1024)

#: per-rank inserts/finds (constant: the point is rank count, not volume)
OPS_PER_RANK = 4

#: generous wall budget for the full sweep: a smoke bound that catches
#: hangs and gross slowdowns, not a per-switch O(ranks) scan
SWEEP_BUDGET_S = 120.0


def test_dht_1k(benchmark, figure_dir):
    s = bench_scale()
    ver = Version.V2021_3_6_EAGER
    rows = []
    t_sweep = time.perf_counter()
    for ranks in RANK_SWEEP:
        # keep load factor <= 0.5 at every rank count
        total_keys = ranks * OPS_PER_RANK * s
        log2_slots = max(8, (total_keys * 4 - 1).bit_length())
        cfg = DhtConfig(
            log2_slots=log2_slots,
            inserts_per_rank=OPS_PER_RANK * s,
            finds_per_rank=OPS_PER_RANK * s,
        )
        t0 = time.perf_counter()
        r = run_dht(cfg, ranks=ranks, version=ver, machine="intel",
                    flags=flags_for(ver))
        wall = time.perf_counter() - t0
        assert r.correct, f"lookup misses at {ranks} ranks"
        rows.append([
            str(ranks),
            str(r.ops),
            f"{r.solve_ns / 1e6:.3f}",
            f"{wall:.2f}s",
        ])
    sweep_wall = time.perf_counter() - t_sweep

    write_figure(
        figure_dir,
        "ext_dht_1k.txt",
        format_table(
            "Extension: 1024-rank DHT smoke, event-loop scheduler "
            "(Intel, generator continuations)",
            ["ranks", "ops", "solve [virtual ms]", "wall"],
            rows,
        ),
    )

    assert sweep_wall < SWEEP_BUDGET_S, (
        f"1k-rank DHT sweep took {sweep_wall:.1f}s "
        f"(budget {SWEEP_BUDGET_S}s) — scheduler hot path regressed?"
    )

    benchmark.pedantic(
        lambda: run_dht(
            DhtConfig(log2_slots=12, inserts_per_rank=2, finds_per_rank=2),
            ranks=256,
            version=ver,
            machine="intel",
            flags=flags_for(ver),
        ),
        rounds=3,
        iterations=1,
    )

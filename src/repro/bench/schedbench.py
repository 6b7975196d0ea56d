"""Scheduler benchmark: wake lists vs the predicate scan.

Measures the event-loop scheduler on a **blocked storm** and emits a
machine-readable artifact (``BENCH_sched.json``): every rank loops over a
barrier with staggered arrivals, so at any moment nearly every rank is
*parked*.  This is the regime the wake-list scheduler
(``FeatureFlags.sched_wake_list``) exists for: the legacy predicate-scan
pick re-evaluates every blocked rank's predicate on every switch
(O(blocked) per switch, O(ranks²) per barrier round), while the wake list
promotes exactly the ranks whose completion event fired (O(1) per
switch).  Rows compare wake-list on vs off at 16–1024 ranks.

Every row cross-checks its two configurations (equal switch counts) — the
benchmark doubles as a wake-list parity smoke test.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

from repro import barrier_gen, current_ctx, rank_me
from repro.runtime.config import Version, flags_for
from repro.runtime.runtime import spmd_run
from repro.sim.costmodel import CostAction

#: (ranks, barrier-rounds) of the blocked-heavy sweep.  Rounds shrink as
#: ranks grow, but note the scan's work per round *grows* with ranks —
#: that growth is the measurement.
BLOCKED_SWEEP = ((16, 200), (64, 80), (256, 30), (1024, 10))


def _time_spmd(fn, *, ranks, flags, repeats: int, **kw):
    """Best-of-``repeats`` wall-clock of one spmd_run; returns
    (seconds, switches)."""
    best = None
    switches = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        r = spmd_run(fn, ranks=ranks, flags=flags, **kw)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
            switches = r.world.sched_switches
    return best, switches


def _blocked_storm_body(rounds: int):
    def body():
        ctx = current_ctx()
        me = rank_me()
        for k in range(rounds):
            # staggered arrivals: uneven local work per rank per round, so
            # early arrivals genuinely park while stragglers finish
            ctx.charge(CostAction.FUNCTION_CALL, 1 + ((me + k) % 7))
            yield from barrier_gen()

    return body


def blocked_storm_row(ranks: int, rounds: int, *, repeats: int = 3) -> dict:
    """Wake-list vs predicate-scan on a blocked-heavy barrier storm.

    The only variable is ``sched_wake_list``.  Switch counts must match
    exactly — the wake list is a pure pick-mechanism swap."""
    ver = Version.V2021_3_6_EAGER
    base = flags_for(ver)
    fl_wake = dataclasses.replace(base, sched_wake_list=True)
    fl_scan = dataclasses.replace(base, sched_wake_list=False)
    body = _blocked_storm_body(rounds)
    kw = dict(version=ver, machine="generic", segment_bytes=1 << 12)
    sc_s, sc_sw = _time_spmd(
        body, ranks=ranks, flags=fl_scan, repeats=repeats, **kw
    )
    wk_s, wk_sw = _time_spmd(
        body, ranks=ranks, flags=fl_wake, repeats=repeats, **kw
    )
    if sc_sw != wk_sw:
        raise AssertionError(
            f"blocked-storm parity: switch counts differ at {ranks} ranks "
            f"(scan {sc_sw}, wake-list {wk_sw})"
        )
    return {
        "ranks": ranks,
        "barrier_rounds": rounds,
        "switches": wk_sw,
        "scan_s": round(sc_s, 6),
        "wake_s": round(wk_s, 6),
        "speedup": round(sc_s / wk_s, 2),
        "scan_switches_per_s": round(sc_sw / sc_s),
        "wake_switches_per_s": round(wk_sw / wk_s),
    }


def run_sched_bench(
    *, quick: bool = False, progress=None
) -> dict:
    """Run the full scheduler benchmark; returns the artifact document."""

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    repeats = 1 if quick else 3
    # quick mode still runs the 1024-rank blocked row: it is the CI
    # regression gate for wake-list switch throughput
    blocked_sweep = ((16, 60), (1024, 8)) if quick else BLOCKED_SWEEP
    blocked_rows = []
    for ranks, rounds in blocked_sweep:
        say(f"blocked storm: {ranks} ranks x {rounds} barriers ...")
        blocked_rows.append(
            blocked_storm_row(ranks, rounds, repeats=repeats)
        )

    blocked_speedups = [r["speedup"] for r in blocked_rows]
    blocked_top = max(blocked_rows, key=lambda r: r["ranks"])
    doc = {
        "bench": "sched",
        "invocation": "python -m repro.bench sched",
        "python": sys.version.split()[0],
        "quick": quick,
        "blocked_storm": {
            "description": (
                "blocked-heavy barrier storm on the event-loop substrate: "
                "staggered arrivals keep nearly every rank parked, so the "
                "pick mechanism dominates — wake list (sched_wake_list, "
                "O(1) per switch) vs legacy predicate scan (O(blocked) "
                "per switch).  Switch counts are asserted equal; only "
                "wall-clock may differ"
            ),
            "rows": blocked_rows,
        },
        "headline": {
            "blocked_speedup_min": min(blocked_speedups),
            "blocked_speedup_max": max(blocked_speedups),
            "blocked_1024_wake_switches_per_s": (
                blocked_top["wake_switches_per_s"]
            ),
            "blocked_1024_speedup": blocked_top["speedup"],
        },
    }
    return doc


def write_sched_bench(path: str, *, quick: bool = False, progress=None) -> dict:
    doc = run_sched_bench(quick=quick, progress=progress)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc

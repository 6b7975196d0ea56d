"""Calibration helper: prints every paper-quoted metric for the current
machine profiles so the constants in repro/sim/machines.py can be tuned.

Paper targets (eager vs 2021.3.6-defer unless noted):
  micro put speedup:        Intel +92%   IBM +95%   Marvell +95%
  micro fadd(value):        Intel +46%   IBM +15%   Marvell +52%
  micro nonvalue-vs-value:  66% (Marvell fadd) ... ~90% (IBM fadd & get)
  GUPS rma_promise:         Intel +15%   IBM +9%    Marvell +25%
  GUPS amo_promise:         +1-4%
  GUPS rma_future ratio:    2.4x (Marvell) ... 13.5x (IBM)
  GUPS amo_future ratio:    1.5x (Intel)  ... 7.1x (IBM)
  manual vs rma_promise_eager gap: Intel 32%, IBM 25%, Marvell 36%
  matching eager speedup:   channel ~0%, venturi 2%, random 5%,
                            delaunay 6%, youtube 11%
"""

import sys
import time

from repro.bench.harness import gups_grid, matching_grid, micro_grid, graph_localities
from repro.runtime.config import Version

V0, VD, VE = Version.V2021_3_0, Version.V2021_3_6_DEFER, Version.V2021_3_6_EAGER


def pct(new, old):
    return (old / new - 1) * 100


def micro(machine):
    g = micro_grid(machine, n_ops=60, n_samples=1)
    put = pct(g[("put", VE)].ns_per_op, g[("put", VD)].ns_per_op)
    fadd = pct(g[("fadd", VE)].ns_per_op, g[("fadd", VD)].ns_per_op)
    get = pct(g[("get", VE)].ns_per_op, g[("get", VD)].ns_per_op)
    gap_fadd = pct(g[("fadd_nv", VE)].ns_per_op, g[("fadd", VE)].ns_per_op)
    gap_get = pct(g[("get_nv", VE)].ns_per_op, g[("get", VE)].ns_per_op)
    print(
        f"[{machine}] micro: put +{put:.0f}%  fadd +{fadd:.0f}%  "
        f"get +{get:.0f}%  nv-gap fadd {gap_fadd:.0f}% get {gap_get:.0f}%"
    )
    return g


def gups(machine, ranks=16, upd=96):
    g = gups_grid(
        machine, ranks=ranks, table_log2=12, updates_per_rank=upd, batch=32
    )
    def t(var, ver):
        return g[(var, ver)].solve_ns
    rp = pct(t("rma_promise", VE), t("rma_promise", VD))
    ap = pct(t("amo_promise", VE), t("amo_promise", VD))
    rf = t("rma_future", VD) / t("rma_future", VE)
    af = t("amo_future", VD) / t("amo_future", VE)
    man_gap = pct(t("manual", VE), t("rma_promise", VE))
    raw_ok = t("raw", VE) <= t("manual", VE)
    amo_cross = t("amo_future", VE) / t("amo_promise", VE)
    print(
        f"[{machine}] gups: rma_promise +{rp:.0f}%  amo_promise +{ap:.1f}%  "
        f"rma_future {rf:.1f}x  amo_future {af:.1f}x  "
        f"rma_prom_eager slower than manual by {man_gap:+.0f}%  "
        f"raw<=manual {raw_ok}  amoF/amoP eager {amo_cross:.2f}"
    )
    return g


def matching(ranks=16, scale=3):
    loc = graph_localities(ranks=ranks, scale=scale)
    g = matching_grid("intel", ranks=ranks, scale=scale)
    for name in ("channel", "venturi", "random", "delaunay", "youtube"):
        sp = pct(g[(name, VE)].solve_ns, g[(name, VD)].solve_ns)
        print(
            f"[matching] {name}: +{sp:.1f}%  "
            f"(cross={loc[name]['cross_rank']*100:.0f}%)"
        )


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else "all"
    t0 = time.time()
    if what in ("all", "micro"):
        for m in ("intel", "ibm", "marvell"):
            micro(m)
    if what in ("all", "gups"):
        for m in ("intel", "ibm", "marvell"):
            gups(m)
    if what in ("all", "matching"):
        matching()
    print(f"({time.time() - t0:.1f}s)")

"""Diagnostic tool: per-operation lifecycle spans and cost breakdowns.

For each (build × operation) this prints two receipts:

* the **span view** — the operation's lifecycle timestamps (init,
  injected, transfer-complete, notification-dispatched, waited) and the
  notification gap, straight from the observability layer
  (``FeatureFlags.obs_spans``); the quickest way to *see* what eager
  notification removes is the defer row's nonzero gap collapsing to zero
  in the eager row;
* the **cost view** — every cost-model action the operation and its
  wait charged, with count and virtual ns, read as the difference of
  the rank's action counters around the op and listed in
  ``CostAction`` declaration order.  This is the "receipt" behind every
  microbenchmark number: for these single-word ops its rows sum exactly
  to the op's elapsed virtual time (no per-byte action is charged).

Usage::

    python tools/diagnose.py [machine] [--json]

``--json`` emits one machine-readable document (per-op spans, gap and
cost receipt) instead of the text report.
"""

import argparse
import json
import sys

from repro import (
    AtomicDomain,
    new_,
    operation_cx,
    rget,
    rget_into,
    rput,
)
from repro.runtime.config import RuntimeConfig, Version, flags_for
from repro.runtime.context import set_current_ctx
from repro.runtime.runtime import build_world
from repro.sim.costmodel import CostAction

OPS = {
    "put": lambda: rput(0, new_("u64"), operation_cx.as_future()).wait(),
    "get": lambda: rget(new_("u64"), operation_cx.as_future()).wait(),
    "get_nv": lambda: rget_into(
        new_("u64"), new_("u64"), 1, operation_cx.as_future()
    ).wait(),
    "fadd": lambda: AtomicDomain({"fetch_add"})
    .fetch_add(new_("u64"), 1, operation_cx.as_future())
    .wait(),
}

VERSIONS = (Version.V2021_3_6_DEFER, Version.V2021_3_6_EAGER)


def diagnose(version: Version, machine: str, op: str) -> dict:
    """Run one warmed-up operation with spans on and the action counters
    snapshotted around it; return the structured receipt."""
    world = build_world(
        RuntimeConfig(
            version=version,
            machine=machine,
            conduit="smp",
            flags=flags_for(version).replace(obs_spans=True),
        )
    )
    ctx = world.contexts[0]
    set_current_ctx(ctx)
    try:
        OPS[op]()  # warm up allocation paths outside the receipt
        n_before = len(ctx.obs.spans.spans)
        before = ctx.costs.snapshot()
        t0 = ctx.clock.now_ns
        OPS[op]()
        elapsed = ctx.clock.now_ns - t0
        charged = ctx.costs.snapshot() - before
        # the timed op's span is the first one recorded after the mark
        span = ctx.obs.spans.spans[n_before]
        costs = [
            {
                "action": a.value,
                "count": charged[a],
                "cost_ns": ctx.profile.cost_ns(a) * charged[a],
            }
            for a in CostAction
            if charged[a]
        ]
        return {
            "op": op,
            "version": version.value,
            "machine": machine,
            "elapsed_ns": elapsed,
            "span": {
                "op": span.op,
                "mode": span.mode,
                "locality": span.locality,
                "nbytes": span.nbytes,
                "t_init": span.t_init,
                "t_injected": span.t_injected,
                "t_transfer": span.t_transfer,
                "t_dispatched": span.t_dispatched,
                "t_waited": span.t_waited,
                "notification_gap_ns": span.notification_gap_ns,
            },
            "costs": costs,
        }
    finally:
        set_current_ctx(None)


def _fmt_ts(t, t0):
    return "-" if t is None else f"{t - t0:+.1f}"


def render_text(receipt: dict) -> str:
    s = receipt["span"]
    t0 = s["t_init"]
    lines = [
        f"  {receipt['version']}: {receipt['elapsed_ns']:.1f} ns   "
        f"[mode={s['mode']} locality={s['locality']} "
        f"gap={s['notification_gap_ns']:.1f} ns]",
        f"    span: init{_fmt_ts(s['t_init'], t0)}  "
        f"inject{_fmt_ts(s['t_injected'], t0)}  "
        f"transfer{_fmt_ts(s['t_transfer'], t0)}  "
        f"dispatch{_fmt_ts(s['t_dispatched'], t0)}  "
        f"wait{_fmt_ts(s['t_waited'], t0)}",
    ]
    for c in receipt["costs"]:
        label = c["action"] + (f" x{c['count']}" if c["count"] > 1 else "")
        lines.append(f"    {c['cost_ns']:7.1f} ns  {label}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/diagnose.py",
        description="Per-operation span + cost-model receipts.",
    )
    parser.add_argument("machine", nargs="?", default="intel")
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON document instead of the text report",
    )
    args = parser.parse_args(argv)

    receipts = [
        diagnose(version, args.machine, op)
        for op in OPS
        for version in VERSIONS
    ]
    if args.json:
        print(json.dumps({"machine": args.machine, "ops": receipts},
                         indent=2))
        return 0
    for op in OPS:
        print(f"=== {op} on {args.machine} " + "=" * 30)
        for r in receipts:
            if r["op"] == op:
                print(render_text(r))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

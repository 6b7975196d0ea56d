"""Command-line figure runner: ``python -m repro.bench <figure> [...]``.

Reproduces any of the paper's figures without pytest:

.. code-block:: console

    python -m repro.bench micro --machine intel
    python -m repro.bench gups --machine ibm --ranks 16
    python -m repro.bench matching --ranks 16 --scale 3
    python -m repro.bench offnode
    python -m repro.bench serve --out BENCH_serve.json
    python -m repro.bench ab --quick
    python -m repro.bench ab --spec eager_defer --gate
    python -m repro.bench validate
    python -m repro.bench all
    python -m repro.bench trace --variant rma_future --out gups.trace.json

Artifact hygiene: a ``--quick`` run of any artifact-writing subcommand
defaults its output to ``BENCH_<name>.quick.json`` so CI gate baselines
(the canonical ``BENCH_<name>.json``) are never clobbered by a smoke
sweep; an explicit ``--out`` pointing at an existing full artifact is
refused unless ``--force`` is given.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.harness import (
    graph_localities,
    gups_grid,
    matching_grid,
    micro_grid,
    offnode_grid,
    traced_gups,
)
from repro.bench.report import (
    format_gups_figure,
    format_matching_figure,
    format_micro_bars,
    format_micro_figure,
    format_notification_report,
    format_offnode_figure,
    format_span_timeline,
)

_FIG_BY_MACHINE = {"intel": 2, "ibm": 3, "marvell": 4}
_GUPS_FIG = {"intel": 5, "ibm": 6, "marvell": 7}


def cmd_micro(args) -> None:
    fig = _FIG_BY_MACHINE.get(args.machine, "x")
    grid = micro_grid(args.machine, n_ops=args.ops, n_samples=args.samples)
    print(
        format_micro_figure(
            f"Figure {fig}: {args.machine} microbenchmarks "
            "[virtual ns/op]",
            grid,
        )
    )
    if getattr(args, "bars", False):
        for op in ("put", "get", "get_nv", "fadd", "fadd_nv"):
            print()
            print(format_micro_bars(f"Figure {fig}", grid, op))


def cmd_gups(args) -> None:
    fig = _GUPS_FIG.get(args.machine, "x")
    grid = gups_grid(
        args.machine,
        ranks=args.ranks,
        table_log2=args.table_log2,
        updates_per_rank=args.updates,
        batch=args.batch,
    )
    print(
        format_gups_figure(
            f"Figure {fig}: GUPS on {args.machine}, {args.ranks} processes "
            "[giga-updates/sec of virtual time]",
            grid,
        )
    )


def cmd_matching(args) -> None:
    loc = graph_localities(ranks=args.ranks, scale=args.scale)
    grid = matching_grid(
        args.machine, ranks=args.ranks, scale=args.scale
    )
    print(
        format_matching_figure(
            f"Figure 8: graph matching, {args.machine}, {args.ranks} "
            "processes [virtual ms]",
            grid,
            loc,
        )
    )


def cmd_offnode(args) -> None:
    grid = offnode_grid(args.machine, n_ops=args.ops)
    print(
        format_offnode_figure(
            f"Off-node RMA latency ({args.machine}, two nodes)", grid
        )
    )


def cmd_trace(args) -> None:
    from repro.apps.gups import GupsConfig
    from repro.runtime.config import Version, flags_for

    version = Version(args.version)
    cfg = GupsConfig(
        variant=args.variant,
        table_log2=args.table_log2,
        updates_per_rank=args.updates,
        batch=args.batch,
    )
    regime, where = {}, ""
    if args.variant == "agg":
        # the variant's regime: off node with aggregation on, the shape
        # of perfbench's gups_offnode_agg (on one node nothing bundles)
        regime = dict(conduit="ibv", n_nodes=2,
                      flags=flags_for(version).replace(am_aggregation=True))
        where = ", 2 nodes over ibv, aggregation on"
    res = traced_gups(
        cfg,
        ranks=args.ranks,
        version=version,
        machine=args.machine,
        trace_path=args.out,
        **regime,
    )
    print(
        format_notification_report(
            f"GUPS {args.variant} on {args.machine}, {args.ranks} ranks"
            f"{where}, {version.value} [obs spans]",
            res.obs_stats,
        )
    )
    if res.am_injects:
        print(f"\nAM traffic: {res.am_injects} injected, "
              f"{res.am_bundles} bundles")
    if args.timeline:
        print()
        print(format_span_timeline(res.obs_snapshots, limit=args.timeline))
    if args.out:
        print(f"\nwrote Chrome/Perfetto trace: {args.out}")
        print("open in https://ui.perfetto.dev or chrome://tracing")


def _resolve_artifact_out(name: str, args) -> str:
    """The output path of an artifact-writing subcommand.

    Quick runs default to ``BENCH_<name>.quick.json`` — the canonical
    ``BENCH_<name>.json`` files are CI gate baselines and a smoke sweep
    silently replacing one would gut the gate.  An *explicit* ``--out``
    that points a quick run at an existing full artifact is refused
    unless ``--force`` says the clobbering is intended.
    """
    out = args.out
    if out is None:
        return f"BENCH_{name}.quick.json" if args.quick else f"BENCH_{name}.json"
    if args.quick and not getattr(args, "force", False):
        try:
            with open(out) as fh:
                existing = json.load(fh)
        except (OSError, ValueError):
            existing = None
        if isinstance(existing, dict) and existing.get("quick") is False:
            raise SystemExit(
                f"refusing to overwrite the full baseline {out} with a "
                "--quick run (quick artifacts default to "
                f"BENCH_{name}.quick.json; pass --force to mean it)"
            )
    return out


def cmd_serve(args) -> None:
    from repro.bench.report import format_serve_report
    from repro.bench.servebench import validate_serve_doc, write_serve_bench

    out = _resolve_artifact_out("serve", args)
    doc = write_serve_bench(
        out, quick=args.quick, progress=lambda m: print(m, flush=True)
    )
    errors = validate_serve_doc(doc)
    if errors:
        raise SystemExit(
            "serve artifact failed schema validation:\n  "
            + "\n  ".join(errors)
        )
    print()
    print(
        format_serve_report(
            "Open-loop DHT serving: total latency vs offered rate "
            "[virtual ns]",
            doc,
        )
    )
    print(f"\nwrote {out} (schema valid)")


def cmd_ab(args) -> None:
    from repro.bench import ab
    from repro.bench.schema import validate_artifact

    try:
        specs = ab.select_specs(args.spec)
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]))
    if (args.out or args.baseline) and len(specs) != 1:
        raise SystemExit(
            "--out/--baseline apply to a single spec; select one with "
            "--spec"
        )
    gate_failures: list[str] = []
    for spec in specs:
        out = _resolve_artifact_out(
            f"ab_{spec.name}",
            argparse.Namespace(
                out=args.out, quick=args.quick, force=args.force
            ),
        )
        doc = ab.write_ab_spec(
            out, spec, quick=args.quick,
            progress=lambda m: print(m, flush=True),
        )
        errors = validate_artifact(doc, path=out)
        if errors:
            raise SystemExit(
                "ab artifact failed schema validation:\n  "
                + "\n  ".join(errors)
            )
        for mname, h in doc["deterministic"]["headline"].items():
            print(
                f"{spec.name}.{mname}: arm-b speedup "
                f"{h['speedup_mean_min']:g}x .. {h['speedup_mean_max']:g}x "
                f"over {h['points']} point(s)"
            )
        print(f"wrote {out} (schema valid)")
        if args.gate:
            baseline_path = args.baseline or f"BENCH_ab_{spec.name}.json"
            try:
                with open(baseline_path) as fh:
                    baseline = json.load(fh)
            except (OSError, ValueError) as exc:
                gate_failures.append(
                    f"{spec.name}: baseline {baseline_path} unreadable "
                    f"({exc})"
                )
                continue
            problems = ab.gate_ab(
                doc, baseline,
                allow_quick_baseline=args.baseline is not None,
            )
            if problems:
                gate_failures.extend(
                    f"{spec.name}: {p}" for p in problems
                )
            else:
                print(f"{spec.name}: gate OK vs {baseline_path}")
    if gate_failures:
        raise SystemExit(
            "ab gate failed:\n  " + "\n  ".join(gate_failures)
        )


def cmd_validate(args) -> None:
    import glob

    from repro.bench.schema import validate_artifact_file

    paths = args.paths or sorted(glob.glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json artifacts found")
        return
    total = 0
    for path in paths:
        errors = validate_artifact_file(path)
        print(f"{path}: {'OK' if not errors else 'FAIL'}")
        for e in errors:
            print(f"  {e}")
        total += len(errors)
    if total:
        raise SystemExit(f"{total} schema problem(s)")


def cmd_all(args) -> None:
    for machine in ("intel", "ibm", "marvell"):
        args.machine = machine
        cmd_micro(args)
        print()
    for machine in ("intel", "ibm", "marvell"):
        args.machine = machine
        cmd_gups(args)
        print()
    args.machine = "intel"
    cmd_matching(args)
    print()
    cmd_offnode(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's figures from the command line.",
    )
    sub = parser.add_subparsers(dest="figure", required=True)

    def common(p, machine_default="intel"):
        p.add_argument(
            "--machine",
            choices=("intel", "ibm", "marvell", "generic"),
            default=machine_default,
            help="machine cost profile (paper platform)",
        )

    p = sub.add_parser("micro", help="Figures 2-4: microbenchmarks")
    common(p)
    p.add_argument("--ops", type=int, default=150, help="ops per timing loop")
    p.add_argument("--samples", type=int, default=3, help="paper samples")
    p.add_argument(
        "--bars", action="store_true",
        help="also render each op as a bar group (like the paper's figures)",
    )
    p.set_defaults(fn=cmd_micro)

    p = sub.add_parser("gups", help="Figures 5-7: GUPS")
    common(p)
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument("--table-log2", type=int, default=12)
    p.add_argument("--updates", type=int, default=96)
    p.add_argument("--batch", type=int, default=32)
    p.set_defaults(fn=cmd_gups)

    p = sub.add_parser("matching", help="Figure 8: graph matching")
    common(p)
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument("--scale", type=int, default=3)
    p.set_defaults(fn=cmd_matching)

    p = sub.add_parser("offnode", help="off-node RMA check (§IV-A)")
    common(p)
    p.add_argument("--ops", type=int, default=40)
    p.set_defaults(fn=cmd_offnode)

    p = sub.add_parser(
        "trace",
        help="one traced GUPS run: span report + Perfetto trace JSON",
    )
    common(p)
    p.add_argument("--ranks", type=int, default=4)
    from repro.apps.gups import GUPS_VARIANTS

    p.add_argument(
        "--variant", default="rma_future", choices=GUPS_VARIANTS,
        help="GUPS variant to trace (rma_future shows the defer queue best)",
    )
    from repro.runtime.config import Version

    p.add_argument(
        "--version", default="2021.3.6-eager",
        choices=[v.value for v in Version],
        help="build to trace (e.g. 2021.3.6-defer vs 2021.3.6-eager)",
    )
    p.add_argument("--table-log2", type=int, default=10)
    p.add_argument("--updates", type=int, default=64)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument(
        "--out", default=None,
        help="write Chrome/Perfetto trace-event JSON here",
    )
    p.add_argument(
        "--timeline", type=int, default=0, metavar="N",
        help="also print the first N spans as a text timeline",
    )
    p.set_defaults(fn=cmd_trace)

    def artifact_io(p, name, quick_help):
        p.add_argument(
            "--out", default=None,
            help=f"artifact path (default: BENCH_{name}.json, or "
            f"BENCH_{name}.quick.json under --quick)",
        )
        p.add_argument("--quick", action="store_true", help=quick_help)
        p.add_argument(
            "--force", action="store_true",
            help="allow a --quick run to overwrite a full artifact at an "
            "explicit --out path",
        )

    p = sub.add_parser(
        "serve",
        help="open-loop DHT serving saturation sweep "
        "-> BENCH_serve.json",
    )
    artifact_io(
        p, "serve",
        "small sweep for CI smoke (identical workload, fewer "
        "rates/configs)",
    )
    p.set_defaults(fn=cmd_serve)

    from repro.bench.ab import SPECS

    p = sub.add_parser(
        "ab",
        help="declarative A/B flag-toggle sweeps "
        "-> BENCH_ab_<spec>.json (one per spec)",
    )
    p.add_argument(
        "--spec", action="append", choices=sorted(SPECS), default=None,
        help="spec(s) to run (repeatable; default: all registered specs)",
    )
    p.add_argument(
        "--gate", action="store_true",
        help="after running, compare against the committed "
        "BENCH_ab_<spec>.json and fail on drift beyond the baseline's "
        "seed-variation confidence interval",
    )
    p.add_argument(
        "--baseline", default=None,
        help="gate against this artifact instead of the committed one "
        "(single --spec only; quick baselines allowed here)",
    )
    artifact_io(
        p, "ab_<spec>",
        "subset sweep for CI smoke (same workload params, fewer "
        "points/seeds — cells stay comparable to full baselines)",
    )
    p.set_defaults(fn=cmd_ab)

    p = sub.add_parser(
        "validate",
        help="schema-validate benchmark artifacts (default: every "
        "BENCH_*.json in the cwd)",
    )
    p.add_argument(
        "paths", nargs="*",
        help="artifact files to check (default: glob BENCH_*.json)",
    )
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("all", help="every figure, default parameters")
    common(p)
    p.add_argument("--ops", type=int, default=100)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--ranks", type=int, default=16)
    p.add_argument("--table-log2", type=int, default=12)
    p.add_argument("--updates", type=int, default=96)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--scale", type=int, default=3)
    p.set_defaults(fn=cmd_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

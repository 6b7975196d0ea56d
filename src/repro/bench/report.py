"""Paper-style text reports.

Each ``format_*_figure`` function renders one figure's data as a
fixed-width table: rows are the figure's x-axis categories, columns the
three library versions, plus derived speedup columns matching the
quantities the paper quotes in prose (eager vs. 2021.3.6-defer).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.runtime.config import Version

_V = (Version.V2021_3_0, Version.V2021_3_6_DEFER, Version.V2021_3_6_EAGER)


def format_table(
    title: str,
    headers: list[str],
    rows: Iterable[list[str]],
    *,
    align_left_first: bool = True,
) -> str:
    """Render a fixed-width table with a title rule."""
    rows = [list(r) for r in rows]
    widths = [len(h) for h in headers]
    for r in rows:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells):
        out = []
        for i, cell in enumerate(cells):
            if i == 0 and align_left_first:
                out.append(cell.ljust(widths[i]))
            else:
                out.append(cell.rjust(widths[i]))
        return "  ".join(out)

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [title, "=" * len(title), fmt_row(headers), rule]
    lines.extend(fmt_row(r) for r in rows)
    return "\n".join(lines)


def _pct(new: float, old: float) -> str:
    """Speedup of new over old as the paper quotes it: (old/new - 1)."""
    if new <= 0:
        return "n/a"
    return f"+{(old / new - 1) * 100:.0f}%"


def _ratio(new: float, old: float) -> str:
    if new <= 0:
        return "n/a"
    return f"{old / new:.2f}x"


def format_micro_figure(
    title: str,
    grid: dict,
    *,
    ops: tuple[str, ...] = ("put", "get", "get_nv", "fadd", "fadd_nv"),
) -> str:
    """Figures 2–4: ns/op per operation × version + eager-vs-defer
    speedup."""
    headers = [
        "op",
        "2021.3.0 ns",
        "3.6-defer ns",
        "3.6-eager ns",
        "eager speedup",
    ]
    rows = []
    for op in ops:
        cells = [op]
        vals: list[Optional[float]] = []
        for v in _V:
            r = grid.get((op, v))
            vals.append(None if r is None else r.ns_per_op)
            cells.append("--" if r is None else f"{r.ns_per_op:.1f}")
        defer_ns, eager_ns = vals[1], vals[2]
        cells.append(
            _pct(eager_ns, defer_ns)
            if defer_ns is not None and eager_ns is not None
            else "n/a"
        )
        rows.append(cells)
    return format_table(title, headers, rows)


def format_gups_figure(title: str, grid: dict) -> str:
    """Figures 5–7: GUPS per variant × version + eager-vs-defer ratio."""
    from repro.apps.gups import GUPS_VARIANTS

    headers = [
        "variant",
        "2021.3.0 GUPS",
        "3.6-defer GUPS",
        "3.6-eager GUPS",
        "eager/defer",
    ]
    rows = []
    present = {variant for (variant, _v) in grid}
    for variant in GUPS_VARIANTS:
        if variant not in present:
            continue
        cells = [variant]
        vals = []
        for v in _V:
            r = grid.get((variant, v))
            vals.append(None if r is None else r.gups)
            cells.append("--" if r is None else f"{r.gups * 1e3:.3f}m")
        if vals[1] and vals[2]:
            cells.append(f"{vals[2] / vals[1]:.2f}x")
        else:
            cells.append("n/a")
        rows.append(cells)
    return format_table(title, headers, rows)


def format_matching_figure(
    title: str, grid: dict, localities: Optional[dict] = None
) -> str:
    """Figure 8: solve time (virtual ms) per input × version + speedup."""
    from repro.apps.graphs import GRAPH_NAMES

    headers = [
        "input",
        "cross-rank",
        "2021.3.0 ms",
        "3.6-defer ms",
        "3.6-eager ms",
        "eager speedup",
    ]
    rows = []
    for name in GRAPH_NAMES:
        cells = [name]
        if localities and name in localities:
            cells.append(f"{localities[name]['cross_rank'] * 100:.0f}%")
        else:
            cells.append("--")
        vals = []
        for v in _V:
            r = grid.get((name, v))
            vals.append(None if r is None else r.solve_ns)
            cells.append("--" if r is None else f"{r.solve_ns / 1e6:.3f}")
        if vals[1] and vals[2]:
            cells.append(_pct(vals[2], vals[1]))
        else:
            cells.append("n/a")
        rows.append(cells)
    return format_table(title, headers, rows)


def format_offnode_figure(title: str, grid: dict) -> str:
    """§IV-A off-node check: defer vs eager builds must be ~identical."""
    headers = ["op", "3.6-defer ns", "3.6-eager ns", "delta"]
    rows = []
    ops = sorted({op for op, _ in grid})
    for op in ops:
        d = grid[(op, Version.V2021_3_6_DEFER)]
        e = grid[(op, Version.V2021_3_6_EAGER)]
        rows.append(
            [op, f"{d:.1f}", f"{e:.1f}", f"{(e - d) / d * 100:+.2f}%"]
        )
    return format_table(title, headers, rows)


# ---------------------------------------------------------------------------
# CSV export (plot-ready series)
# ---------------------------------------------------------------------------


def export_micro_csv(grid: dict) -> str:
    """Figures 2–4 as CSV: op,version,ns_per_op (missing cells omitted)."""
    lines = ["op,version,ns_per_op"]
    for (op, version), r in sorted(
        grid.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    ):
        if r is not None:
            lines.append(f"{op},{version.value},{r.ns_per_op:.3f}")
    return "\n".join(lines) + "\n"


def export_gups_csv(grid: dict) -> str:
    """Figures 5–7 as CSV: variant,version,gups,solve_ns."""
    lines = ["variant,version,gups,solve_ns"]
    for (variant, version), r in sorted(
        grid.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    ):
        lines.append(
            f"{variant},{version.value},{r.gups:.9f},{r.solve_ns:.1f}"
        )
    return "\n".join(lines) + "\n"


def export_matching_csv(grid: dict, localities: Optional[dict] = None) -> str:
    """Figure 8 as CSV: input,version,solve_ns,cross_rank."""
    lines = ["input,version,solve_ns,cross_rank"]
    for (name, version), r in sorted(
        grid.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
    ):
        cross = ""
        if localities and name in localities:
            cross = f"{localities[name]['cross_rank']:.4f}"
        lines.append(f"{name},{version.value},{r.solve_ns:.1f},{cross}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ASCII bar charts (the figures as the paper draws them)
# ---------------------------------------------------------------------------


def format_bars(
    title: str,
    series: "list[tuple[str, float]]",
    *,
    unit: str = "",
    width: int = 46,
) -> str:
    """Render labeled horizontal bars scaled to the largest value.

    ``series`` is ``[(label, value), ...]``; a None value renders as the
    paper's missing bar (``--``, e.g. the non-existent 2021.3.0 non-value
    atomic).
    """
    label_w = max((len(lbl) for lbl, _ in series), default=0)
    vals = [v for _, v in series if v is not None]
    peak = max(vals) if vals else 1.0
    lines = [title, "=" * len(title)]
    for label, value in series:
        if value is None:
            lines.append(f"{label.ljust(label_w)}  --")
            continue
        n = int(round(width * value / peak)) if peak else 0
        bar = "#" * max(n, 1 if value > 0 else 0)
        lines.append(
            f"{label.ljust(label_w)}  {bar} {value:.1f}{unit}"
        )
    return "\n".join(lines)


def format_micro_bars(title: str, grid: dict, op: str) -> str:
    """One microbenchmark operation as a three-bar group (Figs 2-4)."""
    series = []
    for v in _V:
        r = grid.get((op, v))
        series.append((v.value, None if r is None else r.ns_per_op))
    return format_bars(f"{title}: {op}", series, unit=" ns")


# ---------------------------------------------------------------------------
# AM-aggregation activity report
# ---------------------------------------------------------------------------


def _fmt_hist_rows(hist, *, scale: float = 1.0, width: int = 30) -> list[str]:
    """Histogram buckets as ``label  count  bar`` lines (empty buckets
    skipped; ``scale`` divides the bucket-edge labels, e.g. 1e3 for us)."""
    peak = max(hist.counts) if hist.n else 0
    lines = []
    for i, count in enumerate(hist.counts):
        if not count:
            continue
        label = hist.bucket_label(i)
        if scale != 1.0:
            # bucket_label renders raw edge values; rebuild scaled
            if i == 0:
                label = f"<= {hist.edges[0] / scale:g}"
            elif i == len(hist.edges):
                label = f"> {hist.edges[-1] / scale:g}"
            else:
                label = (
                    f"{hist.edges[i - 1] / scale:g}.."
                    f"{hist.edges[i] / scale:g}"
                )
        bar = "#" * max(1, int(round(width * count / peak))) if peak else ""
        lines.append(f"  {label:>14}  {count:7d}  {bar}")
    return lines


def format_notification_report(title: str, stats) -> str:
    """Render a world-wide :class:`~repro.obs.ObsStats` rollup: the
    notification-gap distribution per (mode, locality) class — the
    paper's eager-vs-defer story as measured from spans — plus span
    accounting and the deferred-queue depth at ``progress()`` entry."""
    lines = [title, "=" * len(title)]
    lines.append(
        f"spans: {stats.total_spans} recorded across {stats.ranks} ranks"
        + (f" ({stats.total_dropped} dropped at capacity)"
           if stats.total_dropped else "")
    )
    for op in sorted(stats.spans_by_op):
        lines.append(f"  {op:>12}  {stats.spans_by_op[op]}")
    lines.append("")
    lines.append("notification gap (transfer-complete -> dispatched), ns:")
    header = (
        f"  {'mode':>6} {'locality':>8} {'count':>7} {'zero-gap':>8} "
        f"{'mean ns':>9} {'p99 ns':>9} {'max ns':>9}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for (mode, locality), gap in stats.gaps.items():
        lines.append(
            f"  {mode:>6} {locality:>8} {gap.count:7d} {gap.zeros:8d} "
            f"{gap.mean_ns:9.1f} {gap.hist.quantile(0.99):9.1f} "
            f"{(gap.hist.max or 0.0):9.1f}"
        )
    for (mode, locality), gap in stats.gaps.items():
        lines.append("")
        lines.append(f"gap histogram [{mode}/{locality}] (ns):")
        lines.extend(_fmt_hist_rows(gap.hist))
    depth = stats.depth
    if depth.n:
        lines.append("")
        lines.append(
            f"deferred-queue depth at progress() entry "
            f"({depth.n} samples, mean {depth.mean:.2f}):"
        )
        lines.extend(_fmt_hist_rows(depth))
    return "\n".join(lines)


def format_span_timeline(snapshots, *, limit: int = 40) -> str:
    """A merged, time-ordered text rendering of per-rank span snapshots —
    the terminal-friendly sibling of the Perfetto export."""
    spans = sorted(
        (s for snap in snapshots for s in snap.spans),
        key=lambda s: (s.t_init, s.rank, s.sid),
    )
    dropped = sum(snap.spans_dropped for snap in snapshots)
    header = (
        f"{'t_init/ns':>10} {'rank':>4} {'op':>12} {'mode':>5} "
        f"{'loc':>7} {'tgt':>4} {'bytes':>6} {'gap/ns':>8} {'wait/ns':>8}"
    )
    if dropped:
        header += f"  [dropped={dropped}]"
    lines = [header]
    for s in spans[:limit]:
        gap = s.notification_gap_ns
        waited = (
            s.t_waited - s.t_init if s.t_waited is not None else None
        )
        lines.append(
            f"{s.t_init:10.1f} {s.rank:4d} {s.op:>12} {s.mode:>5} "
            f"{s.locality:>7} "
            f"{('-' if s.target is None else str(s.target)):>4} "
            f"{s.nbytes:6d} "
            f"{('-' if gap is None else f'{gap:.1f}'):>8} "
            f"{('-' if waited is None else f'{waited:.1f}'):>8}"
        )
    if len(spans) > limit:
        lines.append(f"... {len(spans) - limit} more spans")
    return "\n".join(lines)


def format_aggregation_report(title: str, stats) -> str:
    """Render a world-wide :class:`~repro.sim.stats.AggregationStats`
    snapshot: bundle counts, the entries-per-bundle histogram, flush
    triggers, and parking latency."""
    rows = [
        ["entries appended", str(stats.appended)],
        ["bundles flushed", str(stats.bundles_flushed)],
        ["entries flushed", str(stats.entries_flushed)],
        ["mean bundle size", f"{stats.mean_bundle_size:.2f}"],
        ["largest bundle", str(stats.largest_bundle)],
        ["mean parked (us)", f"{stats.mean_parked_ns / 1e3:.2f}"],
    ]
    for size in sorted(stats.bundle_size_hist):
        rows.append(
            [f"bundles of {size}", str(stats.bundle_size_hist[size])]
        )
    for reason in sorted(stats.flush_reasons):
        rows.append(
            [f"flushes: {reason}", str(stats.flush_reasons[reason])]
        )
    return format_table(title, ["metric", "value"], rows)


def format_serve_report(title: str, doc: dict) -> str:
    """Render a ``BENCH_serve.json`` document as the saturation figure:
    one row per (configuration, offered rate) with mean/p50/p99/p999
    total latency, a knee marker at each configuration's p99 knee rate,
    and the headline mean-vs-p999 inversion witnesses."""
    knees = doc["headline"]["knee_rate_rps_by_config"]
    rows = []
    for row in doc["sweep"]["rows"]:
        total = row["phases"]["total"]
        name = row["config"]
        rate = row["offered_rate_rps"]
        marker = " <- knee" if knees.get(name) == rate else ""
        rows.append([
            name,
            f"{rate / 1e6:.2f}M",
            f"{total['mean_ns']:.0f}",
            f"{total['p50_ns']:.0f}",
            f"{total['p99_ns']:.0f}",
            f"{total['p999_ns']:.0f}",
            f"{row['slo_miss_frac'] * 100:.1f}%{marker}",
        ])
    out = [format_table(
        title,
        ["config", "rate", "mean ns", "p50 ns", "p99 ns", "p999 ns", "slo miss"],
        rows,
    )]
    inversions = doc["headline"]["inversions"]
    if inversions:
        out.append("")
        out.append("mean-vs-p999 ranking inversions (the tail-SLO trap):")
        for inv in inversions:
            a, b = inv["pair"]
            out.append(
                f"  @{inv['offered_rate_rps'] / 1e6:.2f}M rps: "
                f"{inv['mean_winner']} wins mean, "
                f"{inv['p999_winner']} wins p999  [{a} vs {b}]"
            )
    ratio = doc["headline"].get("eager_over_defer_knee")
    if ratio is not None:
        out.append("")
        out.append(
            f"eager sustains {ratio:.1f}x the offered rate of defer "
            "before its p99 knee"
        )
    return "\n".join(out)

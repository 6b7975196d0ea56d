"""Empty-run regressions: zero ops, zero spans, zero samples.

Every rendering/rollup surface must degrade gracefully when a run did
nothing: no ``max()`` on an empty sequence, no division by a zero count,
no validator error for a legitimately empty export.  Exercised both at
the unit level (empty histograms and registries) and end to end (an SPMD
run whose body performs no communication, with observability enabled).
"""

from repro.bench.report import (
    _fmt_hist_rows,
    format_bars,
    format_notification_report,
    format_span_timeline,
)
from repro.obs.export import chrome_trace, validate_trace_events
from repro.obs.metrics import (
    HistogramMetric,
    MetricsRegistry,
    merge_metrics,
)
from repro.runtime.runtime import spmd_run
from repro.sim.stats import observability_snapshots, observability_stats
from tests.conftest import VD, obs_flags


def _noop_body():
    # genuinely zero ops: even barrier() would record a collective span
    return True


def _empty_obs_world():
    return spmd_run(_noop_body, ranks=2, version=VD, flags=obs_flags(VD))


class TestHistogramsEmpty:
    def test_snapshot_of_unrecorded_histogram(self):
        snap = HistogramMetric("h").snapshot()
        assert snap.n == 0
        assert snap.mean == 0.0
        assert snap.min is None and snap.max is None

    def test_fmt_hist_rows_empty(self):
        assert _fmt_hist_rows(HistogramMetric("h").snapshot()) == []

    def test_merge_of_empty_registries(self):
        merged = merge_metrics(
            [MetricsRegistry().snapshot(), MetricsRegistry().snapshot()]
        )
        assert merged.counters == {}
        assert merged.histograms == {}

    def test_merge_empty_with_nonempty(self):
        reg = MetricsRegistry()
        reg.histogram("x").record(5.0)
        merged = merge_metrics(
            [MetricsRegistry().snapshot(), reg.snapshot()]
        )
        assert merged.histograms["x"].n == 1

    def test_format_bars_empty_series(self):
        text = format_bars("t", [])
        assert text.startswith("t")  # title renders, no max() crash


class TestEmptyObsRun:
    def test_reports_render_without_spans(self):
        res = _empty_obs_world()
        stats = observability_stats(res.world)
        assert stats is not None
        assert stats.total_spans == 0
        text = format_notification_report("empty run", stats)
        assert "0 recorded" in text
        snaps = tuple(observability_snapshots(res.world))
        assert format_span_timeline(snaps)  # header only, no crash

    def test_export_validates_clean(self):
        res = _empty_obs_world()
        snaps = tuple(observability_snapshots(res.world))
        doc = chrome_trace(snaps)
        # metadata-only document (process/thread names, zero spans)
        assert all(e["ph"] == "M" for e in doc["traceEvents"])
        assert validate_trace_events(doc) == []

    def test_zero_snapshot_export_validates_clean(self):
        assert validate_trace_events(chrome_trace([])) == []

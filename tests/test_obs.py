"""The observability layer: spans, metrics, exporters, and — most
importantly — the paper's notification-gap claims pinned as *ordering*
assertions on spans rather than timing heuristics.

The load-bearing tests:

* an eager, value-less, pshm-local operation has a notification gap of
  **exactly zero** (the transfer-complete and notification-dispatched
  stamps coincide);
* a deferred operation's notification stays undelivered until a
  ``progress()`` call dispatches it, and the resulting gap is bounded
  below by the progress-poll cost;
* turning observability on changes **nothing** measurable: virtual solve
  times and checksums are bit-identical with the flag on or off.
"""

import json

import pytest

from repro import new_, operation_cx, rput
from repro.obs import (
    DEPTH_EDGES,
    LATENCY_EDGES_NS,
    CounterMetric,
    HistogramMetric,
    MetricsRegistry,
    SpanRecorder,
    chrome_trace,
    merge_metrics,
    merge_obs_snapshots,
    trace_events,
    validate_trace_events,
    write_chrome_trace,
)
from repro.rma import rget
from repro.runtime.runtime import spmd_run
from repro.sim.costmodel import CostAction
from repro.sim.stats import (
    gather_rank_snapshots,
    observability_snapshots,
    observability_stats,
)

from tests.conftest import VD, VE, obs_flags


# ---------------------------------------------------------------------------
# metrics primitives
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter(self):
        c = CounterMetric("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_histogram_bucketing(self):
        h = HistogramMetric("h", (0.0, 10.0, 100.0))
        h.record(0.0)  # exactly zero -> first bucket
        h.record(5.0)
        h.record(10.0)  # on-edge -> its own bucket, not the next
        h.record(50.0)
        h.record(1000.0)  # overflow
        assert h.counts == [1, 2, 1, 1]
        assert h.n == 5
        assert h.min == 0.0 and h.max == 1000.0
        snap = h.snapshot()
        assert snap.mean == pytest.approx(1065.0 / 5)
        assert snap.bucket_label(0) == "<= 0"
        assert snap.bucket_label(len(snap.edges)) == "> 100"

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            HistogramMetric("h", (1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            HistogramMetric("h", (2.0, 1.0))

    def test_registry_lazy_and_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("b") is reg.histogram("b")
        reg.counter("a").inc(3)
        snap = reg.snapshot()
        assert snap.counters == {"a": 3}

    def test_merge_metrics(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.counter("c").inc(2)
        r2.counter("c").inc(5)
        r1.histogram("h", DEPTH_EDGES).record(1)
        r2.histogram("h", DEPTH_EDGES).record(100)
        m = merge_metrics([r1.snapshot(), r2.snapshot()])
        assert m.counters["c"] == 7
        assert m.histograms["h"].n == 2
        assert m.histograms["h"].min == 1.0
        assert m.histograms["h"].max == 100.0

    def test_merge_rejects_mismatched_edges(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.histogram("h", (0.0, 1.0)).record(0)
        r2.histogram("h", (0.0, 2.0)).record(0)
        with pytest.raises(ValueError):
            merge_metrics([r1.snapshot(), r2.snapshot()])


class TestSpanRecorder:
    def test_capacity_drops_but_spans_still_stamp(self):
        rec = SpanRecorder(rank=0, capacity=2)
        spans = [rec.begin("op", "eager", float(i)) for i in range(5)]
        assert len(rec.spans) == 2
        assert rec.dropped == 3
        # dropped spans remain usable by the in-flight operation
        spans[4].t_transfer = 9.0
        spans[4].t_dispatched = 9.0
        assert spans[4].notification_gap_ns == 0.0

    def test_sids_unique(self):
        rec = SpanRecorder(rank=0, capacity=8)
        sids = [rec.begin("op", "none", 0.0).sid for _ in range(4)]
        assert sids == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# the notification-gap claims (single-rank, ambient world)
# ---------------------------------------------------------------------------


class TestNotificationGap:
    def test_flag_off_means_no_obs_state(self, versioned_ctx):
        ctx = versioned_ctx(VE)
        assert ctx.obs is None

    def test_eager_valueless_pshm_gap_exactly_zero(self, versioned_ctx):
        ctx = versioned_ctx(VE, flags=obs_flags(VE))
        g = new_("u64")
        fut = rput(1, g, operation_cx.as_future())
        assert fut.is_ready()
        span = ctx.obs.spans.spans[-1]
        assert span.op == "rput"
        assert (span.mode, span.locality) == ("eager", "pshm")
        assert span.notification_gap_ns == 0.0

    def test_defer_gap_closed_only_by_progress(self, versioned_ctx):
        ctx = versioned_ctx(VD, flags=obs_flags(VD))
        g = new_("u64")
        fut = rput(1, g, operation_cx.as_future())
        span = ctx.obs.spans.spans[-1]
        # the transfer finished synchronously, the notification did not:
        # this ordering — not a timing threshold — is the deferred story
        assert span.t_transfer is not None
        assert span.t_dispatched is None
        assert not fut.is_ready()
        ctx.progress()
        assert fut.is_ready()
        assert span.t_dispatched is not None
        gap = span.notification_gap_ns
        # the gap can never be cheaper than entering the progress engine
        assert gap >= ctx.profile.cost_ns(CostAction.PROGRESS_POLL)

    def test_eager_value_producing_gap_is_alloc_only(self, versioned_ctx):
        """A value-producing eager rget pays only the result-cell
        allocation between transfer and dispatch — strictly less than
        any deferred round-trip through the progress queue."""
        ctx = versioned_ctx(VE, flags=obs_flags(VE))
        g = new_("u64", 7)
        assert rget(g, operation_cx.as_future()).wait() == 7
        eager_gap = ctx.obs.spans.spans[-1].notification_gap_ns

        ctx = versioned_ctx(VD, flags=obs_flags(VD))
        g = new_("u64", 7)
        assert rget(g, operation_cx.as_future()).wait() == 7
        defer_gap = ctx.obs.spans.spans[-1].notification_gap_ns

        assert eager_gap is not None and defer_gap is not None
        assert 0.0 <= eager_gap < defer_gap

    def test_wait_stamps_t_waited(self, versioned_ctx):
        ctx = versioned_ctx(VD, flags=obs_flags(VD))
        g = new_("u64")
        rput(1, g, operation_cx.as_future()).wait()
        span = ctx.obs.spans.spans[-1]
        assert span.t_waited is not None
        assert span.t_waited >= span.t_dispatched


# ---------------------------------------------------------------------------
# world rollups + the spmd path
# ---------------------------------------------------------------------------


def _two_rank_put_body():
    from repro import barrier, rank_me
    from repro.memory.global_ptr import GlobalPtr

    tgt = new_("u64", 0)
    barrier()
    if rank_me() == 0:
        remote = GlobalPtr(1, tgt.offset, tgt.ts)
        for _ in range(8):
            rput(1, remote, operation_cx.as_future()).wait()
    barrier()
    return 0


class TestWorldRollup:
    def test_flag_off_snapshots_empty(self):
        res = spmd_run(_two_rank_put_body, ranks=2, version=VE)
        assert observability_snapshots(res.world) == []
        assert observability_stats(res.world) is None

    def test_eager_vs_defer_gap_classes(self):
        res_e = spmd_run(
            _two_rank_put_body, ranks=2, version=VE, flags=obs_flags(VE)
        )
        res_d = spmd_run(
            _two_rank_put_body, ranks=2, version=VD, flags=obs_flags(VD)
        )
        se = observability_stats(res_e.world)
        sd = observability_stats(res_d.world)
        ge = se.gap("eager", "pshm")
        gd = sd.gap("defer", "pshm")
        assert ge.count == 8 and ge.zeros == 8 and ge.mean_ns == 0.0
        assert gd.count == 8 and gd.zeros == 0 and gd.mean_ns > 0.0
        # the deferred world actually sampled its progress queue
        depth = sd.metrics.histograms["progress.deferred_depth"]
        assert depth.n > 0

    def test_waited_gap_rollup_populated(self):
        """Every defer put in the body is waited, so the waited-gap
        rollup sees the same population as the plain gap rollup."""
        res = spmd_run(
            _two_rank_put_body, ranks=2, version=VD, flags=obs_flags(VD)
        )
        stats = observability_stats(res.world)
        key = ("defer", "pshm")
        assert key in stats.waited_gaps
        assert stats.waited_gaps[key].count == 8
        assert stats.waited_gaps[key].count == stats.gaps[key].count

    def test_gather_rank_snapshots_skips_none(self):
        res = spmd_run(
            _two_rank_put_body, ranks=2, version=VE, flags=obs_flags(VE)
        )
        marks = gather_rank_snapshots(
            res.world, lambda ctx: ctx.rank if ctx.rank else None
        )
        assert marks == [1]
        snaps = observability_snapshots(res.world)
        assert [s.rank for s in snaps] == [0, 1]

    def test_merge_counts_dropped(self, versioned_ctx):
        ctx = versioned_ctx(VE, flags=obs_flags(VE))
        ctx.obs.spans.capacity = 2
        g = new_("u64")
        for _ in range(5):
            rput(1, g, operation_cx.as_future()).wait()
        stats = merge_obs_snapshots([ctx.obs.snapshot()])
        assert stats.total_dropped == 3
        assert stats.total_spans == 5


# ---------------------------------------------------------------------------
# the flag must not move a single virtual tick
# ---------------------------------------------------------------------------


class TestZeroPerturbation:
    @pytest.mark.parametrize("version", [VD, VE])
    def test_gups_bit_identical_with_obs_on(self, version):
        from repro.apps.gups import GupsConfig, run_gups

        cfg = GupsConfig(table_log2=8, updates_per_rank=24, batch=8)
        base = run_gups(cfg, ranks=4, version=version, machine="intel")
        traced = run_gups(
            cfg,
            ranks=4,
            version=version,
            machine="intel",
            flags=obs_flags(version),
        )
        assert traced.solve_ns == base.solve_ns
        assert traced.checksum == base.checksum
        assert traced.gups == base.gups
        assert traced.obs_stats is not None and base.obs_stats is None


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


class TestExport:
    def _snapshots(self):
        res = spmd_run(
            _two_rank_put_body, ranks=2, version=VD, flags=obs_flags(VD)
        )
        return observability_snapshots(res.world)

    def test_trace_events_validate_clean(self):
        events = trace_events(self._snapshots())
        assert validate_trace_events(events) == []
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        # metadata first, then time-ordered
        body = [e for e in events if e["ph"] != "M"]
        assert all(
            body[i]["ts"] <= body[i + 1]["ts"] for i in range(len(body) - 1)
        )

    def test_span_args_carry_gap(self):
        events = trace_events(self._snapshots())
        puts = [
            e for e in events if e["ph"] == "X" and e["name"] == "rput"
        ]
        assert puts
        for e in puts:
            assert e["args"]["mode"] == "defer"
            assert e["args"]["notification_gap_ns"] > 0

    def test_chrome_trace_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, self._snapshots())
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ns"
        assert validate_trace_events(doc) == []

    def test_validator_flags_garbage(self):
        errs = validate_trace_events(
            [{"name": "x"}, {"ph": "Z", "name": 3, "pid": "a", "tid": 0}]
        )
        assert errs
        assert validate_trace_events({"no": "events"})

    def test_validator_accepts_empty_run_document(self):
        """Zero ops -> zero events; the document still loads in both
        viewers, so it must validate clean (regression: empty used to be
        reported as an error)."""
        assert validate_trace_events({"traceEvents": []}) == []
        assert validate_trace_events([]) == []


# ---------------------------------------------------------------------------
# harness integration
# ---------------------------------------------------------------------------


class TestTracedHarness:
    def test_traced_gups_writes_valid_trace(self, tmp_path):
        from repro.apps.gups import GupsConfig
        from repro.bench.harness import traced_gups

        path = tmp_path / "gups.trace.json"
        res = traced_gups(
            GupsConfig(table_log2=8, updates_per_rank=16, batch=8),
            ranks=4,
            version=VE,
            trace_path=path,
        )
        assert res.obs_stats is not None
        assert res.obs_stats.ranks == 4
        doc = json.loads(path.read_text())
        assert validate_trace_events(doc) == []

    def test_traced_micro_reports_gap(self):
        from repro.bench.harness import traced_micro

        ns_e, _, stats_e = traced_micro("put", VE, "intel", n_ops=16)
        ns_d, _, stats_d = traced_micro("put", VD, "intel", n_ops=16)
        assert ns_e < ns_d
        assert stats_e.gap("eager", "pshm").mean_ns == 0.0
        assert stats_d.gap("defer", "pshm").mean_ns > 0.0

    def test_notification_report_renders(self):
        from repro.bench.report import (
            format_notification_report,
            format_span_timeline,
        )

        res = spmd_run(
            _two_rank_put_body, ranks=2, version=VD, flags=obs_flags(VD)
        )
        stats = observability_stats(res.world)
        text = format_notification_report("t", stats)
        assert "defer" in text and "zero-gap" in text
        snaps = observability_snapshots(res.world)
        timeline = format_span_timeline(snaps, limit=5)
        assert "rput" in timeline


# ---------------------------------------------------------------------------
# fixed-bucket quantile helper
# ---------------------------------------------------------------------------


class TestHistogramQuantile:
    def test_quantile_interpolates_within_bucket(self):
        h = HistogramMetric("t", edges=(10.0, 100.0, 1000.0))
        for v in (5.0, 50.0, 60.0, 70.0, 500.0):
            h.record(v)
        snap = h.snapshot()
        # rank 2 of 5 lands on the middle (10, 100] bucket
        assert 10.0 <= snap.quantile(0.5) <= 100.0
        # extremes clamp to the observed min/max, so the unbounded
        # first/overflow buckets stay answerable
        assert snap.quantile(0.0) == pytest.approx(5.0, abs=25.0)
        assert snap.quantile(1.0) <= 500.0

    def test_quantile_monotone_in_q(self):
        h = HistogramMetric("t", edges=LATENCY_EDGES_NS)
        for v in (3.0, 17.0, 230.0, 999.0, 40_000.0, 2e6):
            h.record(v)
        snap = h.snapshot()
        qs = (0.0, 0.25, 0.5, 0.9, 0.99, 1.0)
        vals = [snap.quantile(q) for q in qs]
        assert vals == sorted(vals)

    def test_quantile_empty_and_bounds(self):
        snap = HistogramMetric("t", edges=(1.0, 2.0)).snapshot()
        assert snap.quantile(0.99) == 0.0
        with pytest.raises(ValueError):
            snap.quantile(2.0)


class TestHistogramQuantileEdgeCases:
    """Pinned edge cases: the extremes are *recorded* (min/max), so the
    quantile must return them exactly — never an edge-extrapolated guess
    from an unbounded bucket."""

    def test_q1_in_overflow_bucket_is_exact_max(self):
        h = HistogramMetric("t", edges=(10.0, 100.0))
        for v in (5.0, 50.0, 77777.0):  # max lands past the last edge
            h.record(v)
        snap = h.snapshot()
        assert snap.quantile(1.0) == 77777.0

    def test_q0_is_exact_min(self):
        h = HistogramMetric("t", edges=(10.0, 100.0))
        for v in (3.0, 50.0, 500.0):
            h.record(v)
        assert h.snapshot().quantile(0.0) == 3.0

    def test_single_sample_every_q(self):
        h = HistogramMetric("t", edges=(10.0, 100.0))
        h.record(42.0)
        snap = h.snapshot()
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert snap.quantile(q) == 42.0

    def test_all_samples_one_bucket_clamped_to_observed_range(self):
        h = HistogramMetric("t", edges=(10.0, 100.0, 1000.0))
        for v in (40.0, 50.0, 60.0):  # all in (10, 100]
            h.record(v)
        snap = h.snapshot()
        for q in (0.0, 0.3, 0.5, 0.9, 1.0):
            assert 40.0 <= snap.quantile(q) <= 60.0

    def test_monotone_with_overflow_and_underflow(self):
        h = HistogramMetric("t", edges=(10.0, 100.0))
        for v in (1.0, 2.0, 55.0, 200.0, 90000.0):
            h.record(v)
        snap = h.snapshot()
        qs = (0.0, 0.2, 0.5, 0.8, 0.999, 1.0)
        vals = [snap.quantile(q) for q in qs]
        assert vals == sorted(vals)
        assert vals[0] == 1.0 and vals[-1] == 90000.0


# ---------------------------------------------------------------------------
# serving request spans in the trace export
# ---------------------------------------------------------------------------


class TestServeExport:
    def _serve_snapshots(self):
        from repro.serve import ServeConfig
        from repro.serve.driver import _serve_body_gen

        cfg = ServeConfig(
            log2_slots=9,
            key_space=64,
            requests_per_rank=16,
            offered_rate_rps=2e6,
            seed=5,
        )
        res = spmd_run(
            _serve_body_gen,
            args=(cfg,),
            ranks=2,
            version=VE,
            flags=obs_flags(VE),
            seed=cfg.seed,
            segment_bytes=1 << 17,
        )
        return observability_snapshots(res.world)

    def test_request_bars_and_instants_validate(self):
        snaps = self._serve_snapshots()
        events = trace_events(snaps)
        assert validate_trace_events(events) == []
        bars = [
            e for e in events
            if e["ph"] == "X" and e["name"].startswith("req:")
        ]
        assert len(bars) == 2 * 16
        for e in bars:
            cat = e["cat"].split(",")
            assert cat[0] == "request"
            assert cat[1] in ("hot", "warm", "cold")
            assert e["args"]["latency_ns"] >= 0.0
            assert e["args"]["queue_ns"] >= 0.0
            assert isinstance(e["args"]["slo_missed"], bool)
            assert isinstance(e["args"]["op_sids"], list)
        arrivals = [e for e in events if e["name"] == "request:arrival"]
        deadlines = [
            e for e in events if e["name"] == "request:slo_deadline"
        ]
        assert len(arrivals) == len(bars)
        assert len(deadlines) == len(bars)
        for e in arrivals + deadlines:
            assert e["ph"] == "i"
            assert e.get("s", "t") in ("t", "p", "g")

    def test_request_events_can_be_suppressed(self):
        snaps = self._serve_snapshots()
        events = trace_events(snaps, request_events=False)
        assert validate_trace_events(events) == []
        assert not [
            e for e in events
            if e["name"].startswith(("req:", "request:"))
        ]
        # op spans are untouched by the toggle
        assert [e for e in events if e["ph"] == "X"]

    def test_request_spans_roll_up_in_merge(self):
        snaps = self._serve_snapshots()
        merged = merge_obs_snapshots(snaps)
        assert merged.total_requests == 2 * 16
        assert merged.total_requests_dropped == 0
        assert sum(merged.requests_by_op.values()) == 2 * 16

    def test_validator_rejects_bad_instant_scope(self):
        errs = validate_trace_events(
            [{
                "name": "x", "ph": "i", "pid": 0, "tid": 0,
                "ts": 0.0, "s": "q",
            }]
        )
        assert any("scope" in e for e in errs)

"""AM aggregation flush timing, statistics and wait flushing.

The aggregator batches with two static thresholds, ``MAX_ENTRIES`` and
``MAX_BYTES``; there is no threshold controller, no age bound and no
bundle compression.  The suite keeps the name it had when it also
covered those removed mechanisms and now pins what stays of them:

* time alone never flushes a parked entry;
* the per-rank snapshot, the world rollup, the report and the GUPS
  result fields;
* a put request parked below the thresholds is still published by the
  initiator's ``wait()``, on the deferred build too.
"""

import pytest

from repro import barrier, new_, rank_me, rput
from repro.apps.gups import GupsConfig, run_gups
from repro.bench.report import format_aggregation_report
from repro.gasnet.aggregator import MAX_BYTES, MAX_ENTRIES
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.config import RuntimeConfig, flags_for
from repro.runtime.runtime import build_world, spmd_run
from repro.sim.stats import aggregation_snapshots, aggregation_stats

from tests.conftest import VD, VE


def agg_flags(version=VE):
    return flags_for(version).replace(am_aggregation=True)


def agg_world(
    ranks=4, n_nodes=2, conduit="ibv",
    max_entries=MAX_ENTRIES, max_bytes=MAX_BYTES,
):
    """Ranks 0/1 on node 0, ranks 2/3 on node 1, aggregation on, the
    aggregators flushing at the given thresholds."""
    w = build_world(
        RuntimeConfig(conduit=conduit, flags=agg_flags()),
        ranks=ranks,
        n_nodes=n_nodes,
    )
    for c in w.contexts:
        c.am_agg.max_entries = max_entries
        c.am_agg.max_bytes = max_bytes
    return w


def send(w, src, dst):
    """One aggregatable AM from ``src`` to ``dst``."""
    w.conduit.send_am(w.contexts[src], dst, lambda t: None, aggregatable=True)


# ---------------------------------------------------------------------------
# flushing is never time-driven
# ---------------------------------------------------------------------------


class TestAgeBound:
    def test_no_age_flush_when_adaptive_off(self):
        """A parked entry waits for a threshold, an explicit flush or a
        progress call, however much time passes and whatever else the
        sender injects."""
        w = agg_world()
        ctx0 = w.contexts[0]
        send(w, 0, 2)
        ctx0.clock.advance(1e9)
        w.conduit.send_am(ctx0, 1, lambda t: None)
        assert ctx0.am_agg.pending_entries(2) == 1
        assert ctx0.am_agg.flush_aged() == 0


# ---------------------------------------------------------------------------
# stats surfacing
# ---------------------------------------------------------------------------


class TestStats:
    def test_snapshot_and_world_rollup(self):
        w = agg_world(max_entries=5)
        ctx0 = w.contexts[0]
        for _ in range(12):
            ctx0.clock.advance(600.0)
            send(w, 0, 2)
        ctx0.am_agg.flush_all()
        snap = ctx0.am_agg.stats()
        assert snap.rank == 0
        assert snap.appended == 12
        assert snap.entries_flushed == 12
        assert snap.pending_entries == 0
        assert sum(snap.bundle_size_hist.values()) == snap.bundles_flushed
        assert snap.mean_parked_ns > 0.0

        world_stats = aggregation_stats(w)
        assert world_stats.appended == 12
        assert world_stats.bundle_size_hist == snap.bundle_size_hist
        assert world_stats.mean_parked_ns == pytest.approx(
            snap.mean_parked_ns
        )
        snaps = aggregation_snapshots(w)
        assert len(snaps) == 4
        assert snaps[0] == snap

    def test_progress_flush_reason_tagged(self):
        w = agg_world()
        send(w, 0, 2)
        w.contexts[0].progress()
        reasons = w.contexts[0].am_agg.stats().flush_reasons
        assert reasons.get("progress_entry") == 1

    def test_report_formatting(self):
        w = agg_world(max_entries=4)
        ctx0 = w.contexts[0]
        for _ in range(6):
            ctx0.clock.advance(600.0)
            send(w, 0, 2)
        ctx0.am_agg.flush_all()
        text = format_aggregation_report(
            "AM aggregation activity", aggregation_stats(w)
        )
        assert "bundles flushed" in text
        assert "mean parked (us)" in text
        assert "bundles of 4" in text
        assert "flushes: entries" in text

    def test_gups_result_carries_agg_fields(self):
        cfg = GupsConfig(
            variant="agg", table_log2=10, updates_per_rank=32, batch=8
        )
        r = run_gups(
            cfg, ranks=4, n_nodes=2, version=VE, machine="generic",
            conduit="ibv", flags=agg_flags(),
        )
        assert r.matches_oracle
        assert r.agg_mean_parked_ns >= 0.0
        assert r.agg_stats.entries_flushed == r.am_agg_entries


# ---------------------------------------------------------------------------
# the wait flush point
# ---------------------------------------------------------------------------


class TestEquivalence:
    def test_wait_and_barrier_still_covered(self):
        """On the deferred build a put request parked below an entry
        threshold the body never reaches is published by the initiator's
        wait(), and the barriers on either side still terminate."""

        def body():
            g = new_("u64", 0)
            barrier()
            if rank_me() == 0:
                remote = GlobalPtr(2, g.offset, g.ts)
                rput(123, remote).wait()
            barrier()
            return int(g.local().read())

        res = spmd_run(
            body, ranks=4, n_nodes=2, conduit="ibv", version=VD,
            flags=agg_flags(VD),
        )
        assert res.values == [0, 0, 123, 0]

"""AM aggregation: flush policies, the completion-semantics gate, and
deferred-vs-eager equivalence with destination batching enabled.

The aggregation layer (``repro.gasnet.aggregator``) parks small off-node
AMs in per-destination buffers and ships them as bundles.  These tests pin
down:

* the four flush policies (entry threshold, byte threshold, explicit,
  progress/barrier/wait entry);
* eligibility (off-node only, ``aggregatable`` only, flag-gated);
* ordering within a destination;
* the correctness gate — completion-carrying replies are never bundled,
  so no completion can be observed before its operation's bundle was
  delivered, and deferred/eager builds reach identical final states.
"""

import numpy as np
import pytest

from repro import barrier, new_, new_array, operation_cx, rank_me, rput
from repro.apps.gups import GupsConfig, run_gups
from repro.atomics.domain import AtomicDomain
from repro.core.promise import Promise
from repro.errors import UpcxxError
from repro.gasnet.aggregator import MAX_BYTES, MAX_ENTRIES
from repro.memory.global_ptr import GlobalPtr
from repro.rpc import rpc_ff
from repro.runtime.config import RuntimeConfig, Version, flags_for
from repro.runtime.context import current_ctx
from repro.runtime.runtime import build_world, spmd_run
from repro.sim.costmodel import CostAction
from repro.sim.stats import aggregation_stats

VD, VE = Version.V2021_3_6_DEFER, Version.V2021_3_6_EAGER


def agg_flags(version=VE):
    return flags_for(version).replace(am_aggregation=True)


def agg_world(
    ranks=4, n_nodes=2, conduit="ibv",
    max_entries=MAX_ENTRIES, max_bytes=MAX_BYTES,
):
    """A multi-node world with aggregation on (ranks 0/1 node 0, 2/3 node
    1) whose aggregators flush at the given thresholds."""
    w = build_world(
        RuntimeConfig(conduit=conduit, flags=agg_flags()),
        ranks=ranks,
        n_nodes=n_nodes,
    )
    for c in w.contexts:
        c.am_agg.max_entries = max_entries
        c.am_agg.max_bytes = max_bytes
    return w


class TestEligibility:
    def test_flag_off_means_no_aggregator(self):
        w = build_world(RuntimeConfig(conduit="ibv"), ranks=4, n_nodes=2)
        assert all(c.am_agg is None for c in w.contexts)
        w.conduit.send_am(
            w.contexts[0], 2, lambda t: None, aggregatable=True
        )
        assert w.conduit.pending_for(2) == 1  # injected directly

    def test_flag_on_wires_aggregator(self):
        w = agg_world()
        assert all(c.am_agg is not None for c in w.contexts)

    def test_onnode_ams_never_buffered(self):
        w = agg_world()
        w.conduit.send_am(
            w.contexts[0], 1, lambda t: None, aggregatable=True
        )
        assert w.contexts[0].am_agg.pending_entries() == 0
        assert w.conduit.pending_for(1) == 1

    def test_non_aggregatable_offnode_ams_bypass(self):
        w = agg_world()
        w.conduit.send_am(w.contexts[0], 2, lambda t: None)
        assert w.contexts[0].am_agg.pending_entries() == 0
        assert w.conduit.pending_for(2) == 1

    def test_aggregatable_offnode_ams_buffered(self):
        w = agg_world()
        w.conduit.send_am(
            w.contexts[0], 2, lambda t: None, aggregatable=True
        )
        assert w.contexts[0].am_agg.pending_entries(2) == 1
        assert w.conduit.pending_for(2) == 0

    def test_invalid_rank_still_rejected(self):
        w = agg_world()
        with pytest.raises(UpcxxError):
            w.conduit.send_am(
                w.contexts[0], 99, lambda t: None, aggregatable=True
            )


class TestFlushPolicies:
    def test_entry_threshold(self):
        w = agg_world(max_entries=4)
        ctx0 = w.contexts[0]
        got = []
        for i in range(3):
            w.conduit.send_am(
                ctx0, 2, lambda t, i=i: got.append(i), aggregatable=True
            )
        assert w.conduit.pending_for(2) == 0  # below threshold: parked
        w.conduit.send_am(
            ctx0, 2, lambda t: got.append(3), aggregatable=True
        )
        assert w.conduit.pending_for(2) == 1  # one bundle, four entries
        w.contexts[2].progress()
        assert got == [0, 1, 2, 3]  # append order preserved

    def test_byte_threshold(self):
        w = agg_world(max_entries=1000, max_bytes=64)
        ctx0 = w.contexts[0]
        w.conduit.send_am(
            ctx0, 2, lambda t: None, nbytes=32, aggregatable=True
        )
        assert w.conduit.pending_for(2) == 0
        w.conduit.send_am(
            ctx0, 2, lambda t: None, nbytes=32, aggregatable=True
        )
        assert w.conduit.pending_for(2) == 1  # 64 bytes tripped the flush

    def test_explicit_flush_and_flush_all(self):
        w = agg_world()
        ctx0 = w.contexts[0]
        for dst in (2, 3):
            w.conduit.send_am(
                ctx0, dst, lambda t: None, aggregatable=True
            )
        assert ctx0.am_agg.pending_entries() == 2
        assert ctx0.am_agg.flush(2) == 1
        assert w.conduit.pending_for(2) == 1
        assert ctx0.am_agg.pending_entries() == 1
        assert ctx0.am_agg.flush_all() == 1
        assert w.conduit.pending_for(3) == 1
        assert ctx0.am_agg.flush_all() == 0  # idempotent when empty

    def test_flush_on_progress_entry(self):
        w = agg_world()
        ctx0 = w.contexts[0]
        w.conduit.send_am(ctx0, 2, lambda t: None, aggregatable=True)
        ctx0.progress()
        assert ctx0.am_agg.pending_entries() == 0
        assert w.conduit.pending_for(2) == 1

    def test_flush_covers_wait_and_barrier(self):
        """An initiator spinning in wait() must publish its own buffered
        request — and a responder parked in barrier() must not strand the
        (unaggregated) ack: the put completes and both ranks terminate."""

        def body():
            g = new_("u64", 0)
            barrier()
            if rank_me() == 0:
                remote = GlobalPtr(2, g.offset, g.ts)
                rput(123, remote).wait()  # req bundled; wait() flushes it
            barrier()
            return g.local().read()

        res = spmd_run(
            body, ranks=4, n_nodes=2, conduit="ibv", flags=agg_flags()
        )
        assert res.values == [0, 0, 123, 0]


class TestCostModel:
    def test_injections_amortized(self):
        w = agg_world(max_entries=8)
        ctx0 = w.contexts[0]
        for _ in range(8):
            w.conduit.send_am(
                ctx0, 2, lambda t: None, nbytes=8, aggregatable=True
            )
        assert ctx0.costs.count(CostAction.AM_INJECT) == 1
        assert ctx0.costs.count(CostAction.AM_AGG_APPEND) == 8
        assert ctx0.costs.count(CostAction.AM_BUNDLE_HEADER) == 1
        ctx2 = w.contexts[2]
        ctx2.progress()
        assert ctx2.costs.count(CostAction.AM_EXECUTE) == 1
        assert ctx2.costs.count(CostAction.AM_BUNDLE_ENTRY_DISPATCH) == 8

    def test_aggregation_stats_helper(self):
        w = agg_world(max_entries=4)
        ctx0 = w.contexts[0]
        for _ in range(6):
            w.conduit.send_am(
                ctx0, 2, lambda t: None, aggregatable=True
            )
        ctx0.am_agg.flush_all()
        s = aggregation_stats(w)
        assert s.appended == 6
        assert s.bundles_flushed == 2
        assert s.entries_flushed == 6
        assert s.largest_bundle == 4
        assert s.mean_bundle_size == 3.0


class TestCompletionGate:
    """No completion is observable before its bundle was delivered, and
    completion-carrying replies are never themselves bundled."""

    @pytest.mark.parametrize("version", (VD, VE))
    def test_put_future_not_ready_until_bundle_delivered(self, version):
        def body():
            ctx = current_ctx()
            g = new_("u64", 7)
            barrier()
            out = {}
            if rank_me() == 0:
                remote = GlobalPtr(2, g.offset, g.ts)
                fut = rput(99, remote)
                # request parked in our buffer: no completion may fire and
                # the target's memory must be untouched
                assert ctx.am_agg.pending_entries(2) == 1
                assert not fut.is_ready()
                assert (
                    ctx.world.segments[2].read_scalar(g.offset, g.ts) == 7
                )
                fut.wait()  # flush + round trip
                out["ready"] = fut.is_ready()
            barrier()
            out["value"] = int(g.local().read())
            return out

        res = spmd_run(
            body,
            ranks=4,
            n_nodes=2,
            conduit="ibv",
            version=version,
            flags=agg_flags(version),
        )
        assert res.values[0]["ready"]
        assert [v["value"] for v in res.values] == [7, 7, 99, 7]

    @pytest.mark.parametrize("version", (VD, VE))
    def test_replies_never_bundled(self, version):
        """The amo ack must come back direct even though the request rode
        in a bundle: exactly one bundle total (the request's)."""

        def body():
            g = new_("u64", 5)
            barrier()
            old = None
            if rank_me() == 0:
                remote = GlobalPtr(2, g.offset, g.ts)
                ad = AtomicDomain({"fetch_add"})
                old = ad.fetch_add(remote, 3).wait()
            barrier()
            return old, int(g.local().read())

        res = spmd_run(
            body,
            ranks=4,
            n_nodes=2,
            conduit="ibv",
            version=version,
            flags=agg_flags(version),
        )
        assert res.values[0] == (5, 5)
        assert res.values[2] == (None, 8)
        world_bundles = sum(
            c.costs.count(CostAction.AM_BUNDLE_HEADER)
            for c in res.world.contexts
        )
        assert world_bundles == 1  # the amo_req bundle; the ack was direct

    def test_promise_tracked_offnode_batch(self):
        """A promise over many aggregated off-node amos fulfills exactly
        once per op (acks direct, requests bundled)."""

        def body():
            g = new_array("u64", 4)
            view = current_ctx().segment.view_array(g.offset, g.ts, 4)
            view[:] = 0
            barrier()
            if rank_me() == 0:
                ad = AtomicDomain({"add"})
                p = Promise()
                for i in range(4):
                    remote = GlobalPtr(2, g.offset, g.ts) + i
                    ad.add(remote, i + 1, operation_cx.as_promise(p))
                p.finalize().wait()
            barrier()
            return [int(x) for x in view]

        res = spmd_run(
            body, ranks=4, n_nodes=2, conduit="ibv", flags=agg_flags()
        )
        assert res.values[2] == [1, 2, 3, 4]


class TestSemanticsEquivalence:
    """Acceptance gate: deferred and eager builds observe identical final
    table states with aggregation on (and match the race-free oracle)."""

    def test_gups_agg_defer_eager_identical_tables(self):
        cfg = GupsConfig(
            variant="agg", table_log2=10, updates_per_rank=64, batch=16
        )
        tables = {}
        for version in (VD, VE):
            r = run_gups(
                cfg,
                ranks=4,
                n_nodes=2,
                version=version,
                machine="generic",
                conduit="ibv",
                flags=agg_flags(version),
            )
            assert r.matches_oracle
            assert r.passes_hpcc_verification
            assert r.error_fraction == 0.0  # exact, not merely within 1%
            assert r.am_bundles > 0  # aggregation actually engaged
            tables[version] = r.table
        assert np.array_equal(tables[VD], tables[VE])

    def test_gups_agg_flag_off_matches_flag_on(self):
        """The batching is a pure schedule change: final state identical
        with aggregation on and off (updates commute)."""
        cfg = GupsConfig(
            variant="agg", table_log2=10, updates_per_rank=64, batch=16
        )
        runs = {}
        for on in (False, True):
            fl = flags_for(VE).replace(am_aggregation=on)
            runs[on] = run_gups(
                cfg,
                ranks=4,
                n_nodes=2,
                version=VE,
                machine="generic",
                conduit="ibv",
                flags=fl,
            )
            assert runs[on].matches_oracle
        assert np.array_equal(runs[False].table, runs[True].table)
        assert runs[True].am_injects < runs[False].am_injects

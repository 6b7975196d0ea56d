"""Edge-case tests for runtime internals: ambient worlds, contexts,
segment wiring, mailbox/app failure paths."""

import pytest

from repro import barrier, new_, new_array, delete_, rank_me
from repro.errors import BadSharedAlloc, SegmentError, UpcxxError
from repro.runtime.config import RuntimeConfig, Version
from repro.runtime.context import (
    current_ctx,
    current_ctx_or_none,
    reset_ambient_ctx,
    set_current_ctx,
)
from repro.runtime.runtime import build_world, spmd_run


class TestAmbientWorld:
    def test_lazily_created(self):
        reset_ambient_ctx()
        set_current_ctx(None)
        assert current_ctx_or_none() is None
        ctx = current_ctx()
        assert ctx.rank == 0 and ctx.world_size == 1
        assert current_ctx_or_none() is ctx

    def test_reset_gives_fresh_segment(self):
        g1 = new_("u64", 1)
        reset_ambient_ctx()
        g2 = new_("u64", 2)
        # same offset (fresh allocator), different world
        assert g1.offset == g2.offset
        assert g2.local().read() == 2

    def test_ambient_is_single_rank_generic(self, ctx):
        assert ctx.config.machine == "generic"
        assert ctx.world.conduit_name == "smp"

    def test_spmd_does_not_leak_context(self):
        spmd_run(lambda: None, ranks=2)
        # the driver thread never had a bound rank context
        ctx = current_ctx()
        assert ctx.world_size == 1


class TestAllocationApi:
    def test_new_array_fill(self, ctx):
        g = new_array("u64", 5, fill=3)
        assert list(g.local().view(5)) == [3] * 5

    def test_new_array_bad_count(self, ctx):
        with pytest.raises(ValueError):
            new_array("u64", 0)

    def test_delete_reclaims(self, ctx):
        before = ctx.allocator.bytes_free()
        g = new_array("u64", 100)
        delete_(g)
        assert ctx.allocator.bytes_free() == before

    def test_delete_null_is_noop(self, ctx):
        from repro.memory.global_ptr import GlobalPtr

        delete_(GlobalPtr.NULL)

    def test_double_delete_detected(self, ctx):
        g = new_("u64")
        delete_(g)
        with pytest.raises(SegmentError):
            delete_(g)

    def test_segment_exhaustion_is_clean(self):
        world = build_world(RuntimeConfig(), segment_bytes=1024)
        set_current_ctx(world.contexts[0])
        try:
            with pytest.raises(BadSharedAlloc):
                new_array("u64", 1000)
        finally:
            set_current_ctx(None)
            reset_ambient_ctx()

    def test_delete_peer_allocation_on_node(self):
        """delete_ works on any locally addressable pointer (PSHM)."""

        def body():
            from repro.memory.global_ptr import GlobalPtr

            g = new_("u64")
            barrier()
            if rank_me() == 0:
                peer = GlobalPtr(1, g.offset, g.ts)
                delete_(peer)  # legal: same node
            barrier()

        spmd_run(body, ranks=2)


class TestSeedIsolation:
    def test_rank_rngs_differ(self):
        def body():
            return current_ctx().rng.random()

        res = spmd_run(body, ranks=4, seed=9)
        assert len(set(res.values)) == 4

    def test_config_seed_propagates(self):
        def body():
            return current_ctx().config.seed

        assert spmd_run(body, ranks=2, seed=123).values == [123, 123]


class TestMatchingFailurePaths:
    def test_mailbox_overflow_raises_cleanly(self):
        from repro.apps.graphs import make_graph
        from repro.apps.matching import MatchingConfig, run_matching

        g = make_graph("youtube", scale=1)
        # shrink the mailbox to 16 slots: guaranteed overflow on youtube
        per = -(-g.n // 4)
        incident_max = max(
            sum(len(g.adj[v]) for v in range(lo, min(lo + per, g.n)))
            for lo in range(0, g.n, per)
        )
        cfg = MatchingConfig(
            graph="youtube", scale=1,
            mailbox_slack=16 - 4 * incident_max,
        )
        with pytest.raises(UpcxxError, match="mailbox"):
            run_matching(cfg, ranks=4, graph=g, machine="generic")


class TestWorldAccounting:
    def test_segment_of_matches_context(self):
        world = build_world(RuntimeConfig(), ranks=3)
        for r in range(3):
            assert world.segments[r] is world.contexts[r].segment

    def test_shared_ready_cell_is_world_global(self):
        world = build_world(RuntimeConfig(), ranks=2)
        assert world.shared_ready_cell.ready
        assert world.shared_ready_cell.shared

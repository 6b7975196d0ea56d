"""Integration tests for worlds, barriers, and configuration."""

import pytest

from repro import barrier, rank_me
from repro.errors import UpcxxError
from repro.runtime.config import (
    FeatureFlags,
    RuntimeConfig,
    Version,
    flags_for,
)
from repro.runtime.context import current_ctx
from repro.runtime.runtime import World, build_world, spmd_run


class TestConfig:
    def test_version_flag_table(self):
        f30 = flags_for(Version.V2021_3_0)
        fd = flags_for(Version.V2021_3_6_DEFER)
        fe = flags_for(Version.V2021_3_6_EAGER)
        assert not f30.eager_notification
        assert not fd.eager_notification
        assert fe.eager_notification
        # the snapshot optimizations are shared by defer and eager builds
        for flag in (
            "elide_local_rma_alloc",
            "constexpr_is_local_smp",
            "ready_future_shared_cell",
            "when_all_shortcuts",
            "nonvalue_fetching_atomics",
            "eager_factories_available",
        ):
            assert not getattr(f30, flag)
            assert getattr(fd, flag)
            assert getattr(fe, flag)

    def test_flags_replace(self):
        f = flags_for(Version.V2021_3_6_EAGER).replace(
            when_all_shortcuts=False
        )
        assert not f.when_all_shortcuts
        assert f.eager_notification

    def test_config_resolves_flags(self):
        cfg = RuntimeConfig(version=Version.V2021_3_0)
        assert cfg.resolved_flags() == flags_for(Version.V2021_3_0)

    def test_config_explicit_flags_win(self):
        custom = flags_for(Version.V2021_3_0).replace(
            eager_notification=True
        )
        cfg = RuntimeConfig(version=Version.V2021_3_0, flags=custom)
        assert cfg.resolved_flags().eager_notification

    def test_describe(self):
        assert "2021.3.0" in RuntimeConfig(
            version=Version.V2021_3_0
        ).describe()


class TestWorldTopology:
    def test_single_node_default(self):
        w = build_world(RuntimeConfig(), ranks=4)
        assert w.n_nodes == 1
        assert all(w.same_node(0, r) for r in range(4))

    def test_two_nodes(self):
        w = build_world(
            RuntimeConfig(conduit="udp"), ranks=4, n_nodes=2
        )
        assert w.node_of(0) == w.node_of(1) == 0
        assert w.node_of(2) == w.node_of(3) == 1
        assert not w.same_node(1, 2)

    def test_uneven_nodes_rejected(self):
        with pytest.raises(UpcxxError):
            build_world(RuntimeConfig(conduit="udp"), ranks=3, n_nodes=2)

    def test_smp_multi_node_rejected(self):
        with pytest.raises(UpcxxError):
            build_world(RuntimeConfig(conduit="smp"), ranks=4, n_nodes=2)

    def test_rank_bounds(self):
        w = build_world(RuntimeConfig(), ranks=2)
        with pytest.raises(UpcxxError):
            w.node_of(2)

    def test_zero_ranks_rejected(self):
        with pytest.raises(UpcxxError):
            build_world(RuntimeConfig(), ranks=0)


class TestBarrier:
    def test_barrier_synchronizes_clocks(self):
        def body():
            ctx = current_ctx()
            if rank_me() == 0:
                ctx.clock.advance(100_000)
            barrier()
            return ctx.clock.now_ns

        res = spmd_run(body, ranks=4)
        assert all(v >= 100_000 for v in res.values)

    def test_barrier_orders_writes(self):
        """Data written before a barrier is visible to all after it."""

        def body():
            from repro import new_, rget, rput
            from repro.memory.global_ptr import GlobalPtr

            g = new_("u64", 0)
            barrier()
            if rank_me() == 0:
                rput(99, GlobalPtr(1, g.offset, g.ts)).wait()
            barrier()
            if rank_me() == 1:
                return rget(g).wait()
            return None

        res = spmd_run(body, ranks=2)
        assert res.values[1] == 99

    def test_many_barriers(self):
        def body():
            for _ in range(10):
                barrier()
            return rank_me()

        assert spmd_run(body, ranks=3).values == [0, 1, 2]

    def test_single_rank_barrier_trivial(self):
        def body():
            barrier()
            return "ok"

        assert spmd_run(body, ranks=1).values == ["ok"]


class TestMeasurement:
    def test_max_clock(self):
        def body():
            ctx = current_ctx()
            ctx.clock.advance(10.0 * (rank_me() + 1))
            return None

        res = spmd_run(body, ranks=3)
        assert res.max_clock_ns() >= 30.0
        assert res.clock_ns(0) < res.clock_ns(2)

    def test_total_count_aggregates(self):
        from repro.sim.costmodel import CostAction

        def body():
            current_ctx().charge(CostAction.CPU_LOAD)
            return None

        res = spmd_run(body, ranks=4)
        assert res.world.total_count(CostAction.CPU_LOAD) == 4

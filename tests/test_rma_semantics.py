"""The paper's core semantic and cost-structure claims, pinned as tests.

These tests are the heart of the reproduction: they assert *observable*
differences between deferred and eager notification (Listing 1 /
footnote 3), and the structural cost claims of §III/§IV-A (which actions
fire on which path), independent of the calibrated nanosecond constants.
"""

import pytest

from repro import (
    Promise,
    new_,
    operation_cx,
    rank_me,
    rget,
    rget_into,
    rput,
)
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.config import Version
from repro.runtime.runtime import spmd_run
from repro.sim.costmodel import CostAction

V0 = Version.V2021_3_0
VD = Version.V2021_3_6_DEFER
VE = Version.V2021_3_6_EAGER


class TestNotificationTiming:
    """Listing 1: when does the future become ready?"""

    def test_defer_local_put_not_ready_at_initiation(self, versioned_ctx):
        for v in (V0, VD):
            versioned_ctx(v)
            g = new_("u64")
            fut = rput(1, g)
            assert not fut.is_ready()

    def test_eager_local_put_ready_at_initiation(self, versioned_ctx):
        versioned_ctx(VE)
        g = new_("u64")
        assert rput(1, g).is_ready()

    def test_defer_data_still_moves_synchronously(self, versioned_ctx):
        """Deferral delays the *notification*, not the transfer."""
        versioned_ctx(VD)
        g = new_("u64", 0)
        fut = rput(42, g)
        assert g.local().read() == 42  # data visible
        assert not fut.is_ready()  # notification is not

    def test_defer_callback_runs_in_wait_not_then(self, versioned_ctx):
        """The Listing 1 guarantee: under deferred notification the .then
        callback cannot run during then(); it runs inside wait()."""
        ctx = versioned_ctx(VD)
        g = new_("u64")
        ran = []
        f2 = rput(1, g).then(lambda: ran.append("cb"))
        assert ran == []  # not during then()
        f2.wait()
        assert ran == ["cb"]  # ran inside the progress of wait()

    def test_eager_callback_runs_during_then(self, versioned_ctx):
        """Footnote 3's semantic difference, the eager side."""
        versioned_ctx(VE)
        g = new_("u64")
        ran = []
        rput(1, g).then(lambda: ran.append("cb"))
        assert ran == ["cb"]

    def test_explicit_defer_factory_restores_legacy_timing(
        self, versioned_ctx
    ):
        versioned_ctx(VE)
        g = new_("u64")
        fut = rput(1, g, operation_cx.as_defer_future())
        assert not fut.is_ready()
        fut.wait()
        assert fut.is_ready()

    def test_explicit_eager_factory_on_defer_build(self, versioned_ctx):
        versioned_ctx(VD)
        g = new_("u64")
        assert rput(1, g, operation_cx.as_eager_future()).is_ready()

    def test_eager_promise_ready_after_finalize(self, versioned_ctx):
        versioned_ctx(VE)
        g = new_("u64")
        p = Promise()
        rput(1, g, operation_cx.as_promise(p))
        assert p.finalize().is_ready()  # no progress call needed

    def test_defer_promise_needs_progress(self, versioned_ctx):
        ctx = versioned_ctx(VD)
        g = new_("u64")
        p = Promise()
        rput(1, g, operation_cx.as_promise(p))
        f = p.finalize()
        assert not f.is_ready()
        ctx.progress()
        assert f.is_ready()


def _counts_for(version, op, machine="generic"):
    """Action-count delta for one local op under `version`."""
    out = {}

    def body():
        from repro.runtime.context import current_ctx

        ctx = current_ctx()
        g = new_("u64")
        scratch = new_("u64")
        before = ctx.costs.snapshot()
        if op == "put":
            rput(1, g).wait()
        elif op == "get":
            rget(g).wait()
        elif op == "get_nv":
            rget_into(g, scratch, 1).wait()
        after = ctx.costs.snapshot()
        out.update(
            {a: after[a] - before[a] for a in after if after[a] != before[a]}
        )
        return None

    spmd_run(body, ranks=1, version=version, machine=machine)
    return out


class TestCostStructure:
    """§III: which actions fire on which path (count-level claims)."""

    def test_eager_local_put_allocates_nothing(self):
        c = _counts_for(VE, "put")
        assert c.get(CostAction.HEAP_ALLOC_PROMISE_CELL, 0) == 0
        assert c.get(CostAction.HEAP_ALLOC_OP_DESCRIPTOR, 0) == 0
        assert c.get(CostAction.PROGRESS_QUEUE_ENQUEUE, 0) == 0
        assert c.get(CostAction.PROGRESS_DISPATCH, 0) == 0

    def test_defer_local_put_allocates_and_queues(self):
        c = _counts_for(VD, "put")
        assert c[CostAction.HEAP_ALLOC_PROMISE_CELL] == 1
        assert c[CostAction.PROGRESS_QUEUE_ENQUEUE] == 1
        assert c[CostAction.PROGRESS_DISPATCH] == 1

    def test_2021_3_0_has_the_extra_allocation(self):
        """The orthogonal optimization of §IV-A: one descriptor allocation
        eliminated between 2021.3.0 and the 2021.3.6 snapshot."""
        c0 = _counts_for(V0, "put")
        cd = _counts_for(VD, "put")
        assert c0[CostAction.HEAP_ALLOC_OP_DESCRIPTOR] == 1
        assert cd.get(CostAction.HEAP_ALLOC_OP_DESCRIPTOR, 0) == 0

    def test_eager_value_get_still_allocates_once(self):
        """§III-B: the fetched value must live somewhere."""
        c = _counts_for(VE, "get")
        assert c[CostAction.HEAP_ALLOC_PROMISE_CELL] == 1
        assert c.get(CostAction.PROGRESS_QUEUE_ENQUEUE, 0) == 0

    def test_eager_nonvalue_get_allocates_nothing(self):
        c = _counts_for(VE, "get_nv")
        assert c.get(CostAction.HEAP_ALLOC_PROMISE_CELL, 0) == 0

    def test_defer_dispatch_happens_after_enqueue(self, versioned_ctx):
        """The deferred path's temporal shape: the enqueue is charged at
        initiation, the dispatch only later, inside wait's progress."""
        c = versioned_ctx(VD)
        g = new_("u64")
        before = c.costs.snapshot()
        f = rput(1, g)
        issued = c.costs.snapshot() - before
        assert issued[CostAction.PROGRESS_QUEUE_ENQUEUE] == 1
        assert issued[CostAction.PROGRESS_DISPATCH] == 0
        f.wait()
        waited = c.costs.snapshot() - before - issued
        assert waited[CostAction.PROGRESS_DISPATCH] == 1

    def test_eager_has_no_dispatch_at_all(self, versioned_ctx):
        c = versioned_ctx(VE)
        g = new_("u64")
        before = c.costs.snapshot()
        rput(1, g).wait()
        charged = c.costs.snapshot() - before
        assert charged[CostAction.PROGRESS_DISPATCH] == 0
        assert charged[CostAction.MEMCPY_8B] >= 1

    def test_version_latency_ordering(self):
        """2021.3.0 ≥ 2021.3.6-defer ≥ 2021.3.6-eager for local ops, on
        every machine profile."""
        for machine in ("intel", "ibm", "marvell", "generic"):
            for op in ("put", "get", "get_nv"):
                times = {}
                for v in (V0, VD, VE):
                    def body(op=op):
                        from repro.runtime.context import current_ctx

                        ctx = current_ctx()
                        g = new_("u64")
                        scratch = new_("u64")
                        t0 = ctx.clock.now_ns
                        for _ in range(10):
                            if op == "put":
                                rput(1, g).wait()
                            elif op == "get":
                                rget(g).wait()
                            else:
                                rget_into(g, scratch, 1).wait()
                        return ctx.clock.now_ns - t0

                    times[v] = spmd_run(
                        body, ranks=1, version=v, machine=machine
                    ).values[0]
                assert times[V0] >= times[VD] >= times[VE], (machine, op)


class TestOffNodePath:
    """§IV-A: off-node behaviour across builds."""

    def _offnode_counts(self, version):
        out = {}

        def body():
            from repro import barrier, progress
            from repro.runtime.context import current_ctx

            ctx = current_ctx()
            g = new_("u64")
            barrier()
            if rank_me() == 0:
                remote = GlobalPtr(1, g.offset, g.ts)
                before = ctx.costs.snapshot()
                fut = rput(1, remote)
                assert not fut.is_ready()  # never synchronous off-node
                fut.wait()
                after = ctx.costs.snapshot()
                out.update(
                    {
                        a: after[a] - before[a]
                        for a in after
                        if after[a] != before[a]
                    }
                )
                ctx.world._done = True
            else:
                while not getattr(ctx.world, "_done", False):
                    progress()
                    ctx.yield_to_others()
            barrier()
            return None

        spmd_run(
            body, ranks=2, n_nodes=2, version=version, conduit="udp"
        )
        return out

    def test_offnode_never_eager(self):
        ce = self._offnode_counts(VE)
        assert ce[CostAction.HEAP_ALLOC_PROMISE_CELL] >= 1
        assert ce[CostAction.AM_INJECT] >= 1

    def test_eager_build_adds_exactly_one_branch_offnode(self):
        cd = self._offnode_counts(VD)
        ce = self._offnode_counts(VE)
        assert (
            ce[CostAction.LOCALITY_BRANCH]
            == cd[CostAction.LOCALITY_BRANCH] + 1
        )
        # and nothing else on the initiator's critical path changed
        for action in (
            CostAction.HEAP_ALLOC_PROMISE_CELL,
            CostAction.HEAP_ALLOC_OP_DESCRIPTOR,
            CostAction.AM_INJECT,
        ):
            assert cd.get(action, 0) == ce.get(action, 0)

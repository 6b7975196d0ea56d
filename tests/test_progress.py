"""Unit tests for the progress engine."""

from repro.sim.costmodel import CostAction


class TestQueues:
    def test_deferred_runs_at_progress(self, ctx):
        ran = []
        ctx.progress_engine.enqueue_deferred(lambda: ran.append(1))
        assert ran == []
        assert ctx.progress() is True
        assert ran == [1]

    def test_lpc_runs_at_progress(self, ctx):
        ran = []
        ctx.progress_engine.enqueue_lpc(lambda: ran.append("lpc"))
        ctx.progress()
        assert ran == ["lpc"]

    def test_fifo_order(self, ctx):
        order = []
        for i in range(5):
            ctx.progress_engine.enqueue_deferred(lambda i=i: order.append(i))
        ctx.progress()
        assert order == [0, 1, 2, 3, 4]

    def test_empty_progress_reports_no_work(self, ctx):
        assert ctx.progress() is False

    def test_drains_until_quiescent(self, ctx):
        """Notifications enqueued by callbacks run in the same call."""
        ran = []

        def outer():
            ran.append("outer")
            ctx.progress_engine.enqueue_deferred(lambda: ran.append("inner"))

        ctx.progress_engine.enqueue_deferred(outer)
        ctx.progress()
        assert ran == ["outer", "inner"]

    def test_has_pending(self, ctx):
        assert not ctx.progress_engine.has_pending()
        ctx.progress_engine.enqueue_deferred(lambda: None)
        assert ctx.progress_engine.has_pending()
        ctx.progress()
        assert not ctx.progress_engine.has_pending()

    def test_pending_deferred_count(self, ctx):
        ctx.progress_engine.enqueue_deferred(lambda: None)
        ctx.progress_engine.enqueue_deferred(lambda: None)
        assert ctx.progress_engine.pending_deferred() == 2


class TestReentrancy:
    def test_progress_inside_callback_is_noop(self, ctx):
        observed = []

        def cb():
            observed.append(ctx.progress_engine.in_progress)
            # a re-entrant call must not recurse or dispatch
            assert ctx.progress() is False

        ctx.progress_engine.enqueue_deferred(cb)
        ctx.progress()
        assert observed == [True]
        assert not ctx.progress_engine.in_progress


class TestCosts:
    def test_enqueue_charge(self, ctx):
        before = ctx.costs.count(CostAction.PROGRESS_QUEUE_ENQUEUE)
        ctx.progress_engine.enqueue_deferred(lambda: None)
        assert (
            ctx.costs.count(CostAction.PROGRESS_QUEUE_ENQUEUE) == before + 1
        )

    def test_poll_and_dispatch_charges(self, ctx):
        ctx.progress_engine.enqueue_deferred(lambda: None)
        p0 = ctx.costs.count(CostAction.PROGRESS_POLL)
        d0 = ctx.costs.count(CostAction.PROGRESS_DISPATCH)
        ctx.progress()
        assert ctx.costs.count(CostAction.PROGRESS_POLL) == p0 + 1
        assert ctx.costs.count(CostAction.PROGRESS_DISPATCH) == d0 + 1

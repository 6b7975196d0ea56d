"""Future ``then``/``wait`` charging and the waited-gap rollup.

The wait-hint mechanism (wait targets, targeted drains and flushes) is
gone; every wait drains the whole progress queue.  The suite keeps its
name for the checks that cover behaviour every build still has:

* a ready future's ``then()`` on the eager build runs the callback inline
  without a callback-schedule charge, while the deferred build and a
  pending source still pay it;
* a second ``wait()`` on a ready future re-charges only the ready check;
* the ``waited_gaps`` rollup sees futures waited in reverse issue order
  and a promise-tracked batch.
"""

import numpy as np
import pytest

from repro import (
    AtomicDomain,
    barrier,
    current_ctx,
    make_future,
    new_array,
    operation_cx,
    rank_me,
    rank_n,
)
from repro.core.cell import alloc_cell
from repro.core.future import Future
from repro.core.promise import Promise
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.config import flags_for
from repro.runtime.runtime import spmd_run
from repro.sim.costmodel import CostAction
from repro.sim.stats import observability_stats
from tests.conftest import VD, VE


# ---------------------------------------------------------------------------
# waits in a real world
# ---------------------------------------------------------------------------


def _waits_body(probes=12):
    """Future-tracked atomics waited in reverse issue order, then one
    promise-tracked batch."""
    ctx = current_ctx()
    me, p = rank_me(), rank_n()
    per = 64
    mine = new_array("u64", per)
    view = ctx.segment.view_array(mine.offset, mine.ts, per)
    view[:] = 0
    bases = [GlobalPtr(r, mine.offset, mine.ts) for r in range(p)]
    ad = AtomicDomain({"bit_xor"}, "u64")
    barrier()
    futs = [
        ad.bit_xor(bases[(me + i) % p] + (i % per), i + 1)
        for i in range(probes)
    ]
    for f in reversed(futs):
        f.wait()
    prom = Promise()
    for i in range(probes):
        ad.bit_xor(
            bases[(me + i) % p] + (i % per), i + 1,
            operation_cx.as_promise(prom),
        )
    prom.finalize().wait()
    barrier()
    return int(np.bitwise_xor.reduce(view))


class TestHintedWaits:
    def test_waited_gap_rollup_populated(self):
        res = spmd_run(
            _waits_body, ranks=4, version=VD, machine="generic",
            flags=flags_for(VD).replace(obs_spans=True),
        )
        obs = observability_stats(res.world)
        key = ("defer", "pshm")
        assert key in obs.waited_gaps
        assert obs.waited_gaps[key].count > 0
        assert obs.waited_gaps[key].count <= obs.gaps[key].count


# ---------------------------------------------------------------------------
# then() and double wait() charging
# ---------------------------------------------------------------------------


class TestThenFastPath:
    def test_ready_eager_then_charges_no_schedule(self, versioned_ctx):
        """On the eager build a ready future's callback runs inline
        inside ``then`` and its result future is ready at once."""
        ctx = versioned_ctx(VE)
        fut = make_future(5)
        ran = []
        before = ctx.costs.count(CostAction.FUTURE_CALLBACK_SCHEDULE)
        out = fut.then(lambda v: ran.append(v))
        assert ran == [5]
        assert out.is_ready()
        assert ctx.costs.count(CostAction.FUTURE_CALLBACK_SCHEDULE) == before

    def test_ready_defer_then_keeps_legacy_charge(self, versioned_ctx):
        """Deferred builds model the release's unconditional scheduling
        bookkeeping even for ready sources."""
        ctx = versioned_ctx(VD)
        fut = make_future(5)
        before = ctx.costs.count(CostAction.FUTURE_CALLBACK_SCHEDULE)
        fut.then(lambda v: v)
        assert (
            ctx.costs.count(CostAction.FUTURE_CALLBACK_SCHEDULE) == before + 1
        )

    def test_pending_eager_then_still_charges(self, versioned_ctx):
        ctx = versioned_ctx(VE)
        cell = alloc_cell(ctx, nvalues=1, deps=1)
        fut = Future(cell)
        before = ctx.costs.count(CostAction.FUTURE_CALLBACK_SCHEDULE)
        fut.then(lambda v: v)
        assert (
            ctx.costs.count(CostAction.FUTURE_CALLBACK_SCHEDULE) == before + 1
        )


class TestDoubleWait:
    @pytest.mark.parametrize("eager", (False, True))
    def test_second_wait_charges_only_the_ready_check(
        self, versioned_ctx, eager
    ):
        ctx = versioned_ctx(VE if eager else VD)
        fut = make_future(7)
        assert fut.wait() == 7
        snap = ctx.costs.snapshot()
        assert fut.wait() == 7
        delta = ctx.costs.snapshot() - snap
        assert delta == {CostAction.FUTURE_READY_CHECK: 1}

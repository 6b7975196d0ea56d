"""Unit tests for notifiable completions: continuations and counters.

The ``cx_continuations`` feature (DESIGN.md §11) adds two completion
kinds beyond futures/promises: continuation completions (a callback
dispatched inline at whichever agent observes completion, with zero
future/cell allocation on the sync path) and counter completions (N
operation events aggregated into one notification on a shared cell).
These tests pin the flag gate, the inline-dispatch fast path, the pend
path, the allocation claim, span stamping, aggregation interplay, and
both rank-body styles (in-place continuation and the thread shim).
"""

import pytest

from repro import CxCounter, new_, rput
from repro.atomics import AtomicDomain
from repro.core.completions import CxDispatcher, operation_cx, remote_cx, source_cx
from repro.core.events import Event
from repro.errors import CompletionError
from repro.runtime.config import Version, flags_for
from repro.runtime.runtime import spmd_run
from repro.sim.costmodel import CostAction
from repro.sim.stats import observability_snapshots
from tests.conftest import rank_body

VD = Version.V2021_3_6_DEFER
VE = Version.V2021_3_6_EAGER

ALL = frozenset({Event.SOURCE, Event.REMOTE, Event.OPERATION})


def _cx_flags(version, **kw):
    return flags_for(version).replace(cx_continuations=True, **kw)


# ---------------------------------------------------------------------------
# factory validation and the feature gate
# ---------------------------------------------------------------------------


class TestGate:
    def test_continuation_not_on_remote(self):
        with pytest.raises(CompletionError):
            remote_cx.as_continuation(lambda: None)

    def test_counter_not_on_remote(self, versioned_ctx):
        versioned_ctx(VE, flags=_cx_flags(VE))
        ctr = CxCounter(1)
        with pytest.raises(CompletionError):
            remote_cx.as_counter(ctr)

    def test_dispatcher_rejects_continuation_without_flag(self, versioned_ctx):
        c = versioned_ctx(VE)  # default flags: cx_continuations off
        with pytest.raises(CompletionError, match="cx_continuations"):
            CxDispatcher(
                c, operation_cx.as_continuation(lambda: None), supported=ALL
            )

    def test_counter_construction_requires_flag(self, versioned_ctx):
        versioned_ctx(VE)
        with pytest.raises(CompletionError, match="cx_continuations"):
            CxCounter(2)

    def test_counter_needs_positive_n(self, versioned_ctx):
        versioned_ctx(VE, flags=_cx_flags(VE))
        with pytest.raises(CompletionError):
            CxCounter(0)

    def test_factories_tag_kind_and_event(self):
        req = operation_cx.as_continuation(lambda: None).requests[0]
        assert req.kind == "continuation"
        assert req.event is Event.OPERATION
        req = source_cx.as_continuation(lambda: None).requests[0]
        assert req.event is Event.SOURCE


# ---------------------------------------------------------------------------
# continuation dispatch: sync fast path and pend path
# ---------------------------------------------------------------------------


class TestContinuationDispatch:
    @pytest.mark.parametrize("version", (VE, VD))
    def test_sync_dispatch_is_inline(self, versioned_ctx, version):
        """Continuations fire during ``notify_sync`` on *both* builds —
        eager-by-construction, never parked on the deferred queue."""
        c = versioned_ctx(version, flags=_cx_flags(version))
        fired = []
        d = CxDispatcher(
            c, operation_cx.as_continuation(fired.append, 7), supported=ALL
        )
        d.notify_sync(Event.OPERATION)
        assert fired == [7]

    def test_sync_dispatch_allocates_nothing(self, versioned_ctx):
        """The zero-allocation claim: a continuation-only completion on
        the sync path allocates no future/promise cell at all."""
        c = versioned_ctx(VD, flags=_cx_flags(VD))
        a0 = c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL)
        fired = []
        d = CxDispatcher(
            c, operation_cx.as_continuation(fired.append, 1), supported=ALL
        )
        d.notify_sync(Event.OPERATION)
        assert fired == [1]
        assert c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL) == a0
        assert d.result() is None

    def test_sync_dispatch_charges_once(self, versioned_ctx):
        c = versioned_ctx(VE, flags=_cx_flags(VE))
        k0 = c.costs.count(CostAction.CX_CONTINUATION_DISPATCH)
        d = CxDispatcher(
            c, operation_cx.as_continuation(lambda: None), supported=ALL
        )
        d.notify_sync(Event.OPERATION)
        assert c.costs.count(CostAction.CX_CONTINUATION_DISPATCH) == k0 + 1

    def test_values_delivered_to_continuation(self, versioned_ctx):
        c = versioned_ctx(VE, flags=_cx_flags(VE))
        got = []
        d = CxDispatcher(
            c,
            operation_cx.as_continuation(lambda tag, v: got.append((tag, v)), "op"),
            supported=ALL,
            value_event=Event.OPERATION,
            nvalues=1,
        )
        d.notify_sync(Event.OPERATION, (42,))
        assert got == [("op", 42)]

    def test_pend_dispatch_fires_on_complete(self, versioned_ctx):
        """Off-node shape: the continuation fires from the progress
        engine's ack dispatch, not at pend time."""
        c = versioned_ctx(VE, flags=_cx_flags(VE))
        fired = []
        d = CxDispatcher(
            c, operation_cx.as_continuation(fired.append, 9), supported=ALL
        )
        pend = d.pend(Event.OPERATION)
        assert fired == []
        k0 = c.costs.count(CostAction.CX_CONTINUATION_DISPATCH)
        pend.complete()
        assert fired == [9]
        assert c.costs.count(CostAction.CX_CONTINUATION_DISPATCH) == k0 + 1

    def test_composes_with_future(self, versioned_ctx):
        c = versioned_ctx(VE, flags=_cx_flags(VE))
        fired = []
        d = CxDispatcher(
            c,
            operation_cx.as_continuation(fired.append, 1)
            | operation_cx.as_future(),
            supported=ALL,
        )
        d.notify_sync(Event.OPERATION)
        assert fired == [1]
        assert d.result().is_ready()

    def test_continuation_rput_local(self, versioned_ctx):
        """End-to-end through the put path on the ambient world."""
        c = versioned_ctx(VD, flags=_cx_flags(VD))
        g = new_("u64")
        fired = []
        rput(5, g, operation_cx.as_continuation(fired.append, 0))
        assert fired == [0]
        assert c.segment.read_scalar(g.offset, g.ts) == 5


# ---------------------------------------------------------------------------
# counter completions
# ---------------------------------------------------------------------------


class TestCounter:
    def test_counts_to_n_then_trips(self, versioned_ctx):
        c = versioned_ctx(VE, flags=_cx_flags(VE))
        ctr = CxCounter(3)
        hits = []
        ctr.add_callback(lambda: hits.append("trip"))
        g = new_("u64")
        for v in range(3):
            assert not ctr.done
            rput(v, g, operation_cx.as_counter(ctr))
        assert ctr.done
        assert ctr.signalled == ctr.expected == 3
        assert hits == ["trip"]
        ctr.wait()  # already done: returns immediately

    def test_one_allocation_for_n_events(self, versioned_ctx):
        c = versioned_ctx(VE, flags=_cx_flags(VE))
        g = new_("u64")
        a0 = c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL)
        ctr = CxCounter(4)
        assert c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL) == a0 + 1
        for v in range(4):
            rput(v, g, operation_cx.as_counter(ctr))
        assert c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL) == a0 + 1

    def test_signal_and_trip_charges(self, versioned_ctx):
        c = versioned_ctx(VE, flags=_cx_flags(VE))
        ctr = CxCounter(2)
        s0 = c.costs.count(CostAction.CX_COUNTER_SIGNAL)
        t0 = c.costs.count(CostAction.CX_COUNTER_TRIP)
        ctr.signal(c)
        assert c.costs.count(CostAction.CX_COUNTER_SIGNAL) == s0 + 1
        assert c.costs.count(CostAction.CX_COUNTER_TRIP) == t0
        ctr.signal(c)
        assert c.costs.count(CostAction.CX_COUNTER_SIGNAL) == s0 + 2
        assert c.costs.count(CostAction.CX_COUNTER_TRIP) == t0 + 1

    def test_over_signal_raises(self, versioned_ctx):
        c = versioned_ctx(VE, flags=_cx_flags(VE))
        ctr = CxCounter(1)
        ctr.signal(c)
        with pytest.raises(CompletionError, match="over-signalled"):
            ctr.signal(c)

    def test_callback_after_done_runs_immediately(self, versioned_ctx):
        c = versioned_ctx(VE, flags=_cx_flags(VE))
        ctr = CxCounter(1)
        ctr.signal(c)
        hits = []
        ctr.add_callback(lambda: hits.append(1))
        assert hits == [1]


# ---------------------------------------------------------------------------
# off-node integration, both rank-body styles
# ---------------------------------------------------------------------------


def _offnode_cont_body():
    from repro import barrier_gen, current_ctx, rank_me, rank_n
    from repro.memory.global_ptr import GlobalPtr
    from repro.runtime.switchpoints import BlockUntil

    ctx = current_ctx()
    me, p = rank_me(), rank_n()
    g = new_("u64")
    yield from barrier_gen()
    fired = []
    peer = (me + 1) % p
    dest = GlobalPtr(peer, g.offset, g.ts)
    # continuation-only tracking: no future, the span stays eager-class
    rput(me + 1, dest, operation_cx.as_continuation(fired.append, "ack"))
    while not fired:
        ctx.progress()
        if fired:
            break
        yield BlockUntil(lambda: bool(fired) or ctx.has_incoming())
    assert fired == ["ack"]
    yield from barrier_gen()
    return int(ctx.segment.read_scalar(g.offset, g.ts))


@pytest.mark.parametrize("continuation", (False, True))
def test_offnode_continuation_fires_from_progress(continuation):
    fl = _cx_flags(VD, obs_spans=True)
    res = spmd_run(
        rank_body(_offnode_cont_body, continuation), ranks=2, version=VD,
        conduit="ibv", n_nodes=2, flags=fl,
    )
    assert res.values == [2, 1]
    # every continuation span closed (t_dispatched stamped) with an
    # eager-class gap, even though this is the defer build
    snaps = list(observability_snapshots(res.world))
    put_spans = [
        s for sn in snaps for s in sn.spans if s.op == "rput"
    ]
    assert put_spans
    for s in put_spans:
        assert s.t_dispatched is not None
        assert s.mode == "eager"


def _offnode_counter_body(n_ops):
    from repro import barrier_gen, current_ctx, rank_me, rank_n

    ctx = current_ctx()
    me, p = rank_me(), rank_n()
    ad = AtomicDomain({"add"}, "u64")
    g = new_("u64")
    yield from barrier_gen()
    peer = (me + 1) % p
    from repro.memory.global_ptr import GlobalPtr

    dest = GlobalPtr(peer, g.offset, g.ts)
    ctr = CxCounter(n_ops)
    for _ in range(n_ops):
        ad.add(dest, 1, operation_cx.as_counter(ctr))
    yield from ctr.wait_gen()
    assert ctr.done
    yield from barrier_gen()
    return int(ctx.segment.read_scalar(g.offset, g.ts))


@pytest.mark.parametrize("continuation", (False, True))
@pytest.mark.parametrize("eager", (False, True))
def test_offnode_counter_with_aggregation(continuation, eager):
    """A counter aggregating off-node atomics completes under AM
    aggregation in both body styles on both builds (the wait's
    progress-entry flush ships the member requests)."""
    version = VE if eager else VD
    # 6 atomics stay below the entry threshold: only the wait's flush
    # drains them
    fl = _cx_flags(version, am_aggregation=True)
    res = spmd_run(
        rank_body(_offnode_counter_body, continuation), args=(6,),
        ranks=2, version=version, conduit="ibv", n_nodes=2, flags=fl,
    )
    assert res.values == [6, 6]


def test_flag_off_runs_are_bit_identical():
    """Turning the flag on without using the new kinds changes nothing:
    same values, same virtual clocks (the no-requests identity)."""

    def body():
        from repro import current_ctx

        ctx = current_ctx()
        g = new_("u64")
        fired = []
        rput(3, g, operation_cx.as_lpc(fired.append, 1))
        ctx.progress()
        return (int(ctx.segment.read_scalar(g.offset, g.ts)),
                tuple(fired), ctx.clock.now_ns)

    off = spmd_run(body, ranks=2, version=VD, flags=flags_for(VD))
    on = spmd_run(body, ranks=2, version=VD, flags=_cx_flags(VD))
    assert off.values == on.values

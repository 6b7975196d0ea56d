"""Property-based tests (hypothesis) for continuation/counter completions.

Three invariants of the ``cx_continuations`` kinds (DESIGN.md §11):

* **counter conservation** — a :class:`CxCounter` fires its notification
  exactly once, exactly after the Nth member event: never early, never
  twice, and over-signalling is an error whatever the interleaving of
  callback attachment and signals;
* **replay determinism** — a run using continuations and counters is
  bit-identical when re-executed (fire orders, memory, virtual clocks),
  i.e. the new kinds introduce no hidden nondeterminism;
* **FIFO preservation** — continuations dispatch in ack order on the
  pend path, and interleaving them with deferred completions does not
  reorder the deferred queue's FIFO drain (they jump the queue, they do
  not perturb it).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.completions import (
    CxCounter,
    CxDispatcher,
    operation_cx,
)
from repro.core.events import Event
from repro.runtime.config import RuntimeConfig, Version, flags_for
from repro.runtime.context import set_current_ctx
from repro.runtime.runtime import build_world, spmd_run

VD = Version.V2021_3_6_DEFER
VE = Version.V2021_3_6_EAGER

ALL = frozenset({Event.SOURCE, Event.REMOTE, Event.OPERATION})


def bind(version=VE):
    flags = flags_for(version).replace(cx_continuations=True)
    world = build_world(RuntimeConfig(version=version, flags=flags))
    ctx = world.contexts[0]
    set_current_ctx(ctx)
    return ctx


class TestCounterConservation:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        cb_at=st.integers(min_value=0, max_value=8),
    )
    def test_exactly_one_trip_after_n_arms(self, n, cb_at):
        """One notification, fired at the Nth signal and never again,
        wherever the callback attaches relative to the signals."""
        ctx = bind()
        ctr = CxCounter(n)
        hits = []
        cb_at = min(cb_at, n)
        for i in range(n):
            if i == cb_at:
                ctr.add_callback(lambda: hits.append(ctr.signalled))
            assert not ctr.done
            assert hits == []
            ctr.signal(ctx)
        if cb_at >= n:  # attaching after the trip fires immediately
            ctr.add_callback(lambda: hits.append(ctr.signalled))
        assert ctr.done
        assert hits == [n], "the notification must fire exactly once"
        assert ctr.signalled == ctr.expected == n

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=6))
    def test_over_signal_always_raises(self, n):
        import pytest

        ctx = bind()
        ctr = CxCounter(n)
        for _ in range(n):
            ctr.signal(ctx)
        with pytest.raises(Exception, match="over-signalled"):
            ctr.signal(ctx)
        assert ctr.signalled == n  # the failed signal did not count

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        extra_cbs=st.integers(min_value=0, max_value=3),
    )
    def test_every_callback_runs_once(self, n, extra_cbs):
        ctx = bind()
        ctr = CxCounter(n)
        hits = [0] * (extra_cbs + 1)

        def make(i):
            return lambda: hits.__setitem__(i, hits[i] + 1)

        for i in range(extra_cbs + 1):
            ctr.add_callback(make(i))
        for _ in range(n):
            ctr.signal(ctx)
        assert hits == [1] * (extra_cbs + 1)


def _replay_body(n_cont, n_ctr, values):
    """A rank body mixing continuation- and counter-tracked local puts;
    returns everything observable (fire log, memory, clock)."""
    from repro import current_ctx, new_array, rput

    ctx = current_ctx()
    g = new_array("u64", max(1, n_cont + n_ctr))
    log = []
    for i in range(n_cont):
        rput(
            values[i % len(values)], g + i,
            operation_cx.as_continuation(log.append, ("cont", i)),
        )
    if n_ctr:
        ctr = CxCounter(n_ctr)
        ctr.add_callback(lambda: log.append(("trip", ctr.signalled)))
        for j in range(n_ctr):
            rput(
                values[j % len(values)], g + n_cont + j,
                operation_cx.as_counter(ctr),
            )
        assert ctr.done
    mem = tuple(
        int(ctx.segment.view_array(g.offset, g.ts, n_cont + n_ctr or 1)[k])
        for k in range(n_cont + n_ctr or 1)
    )
    return tuple(log), mem, ctx.clock.now_ns


class TestReplayDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(
        n_cont=st.integers(min_value=0, max_value=5),
        n_ctr=st.integers(min_value=0, max_value=5),
        values=st.lists(
            st.integers(min_value=0, max_value=2**32),
            min_size=1, max_size=4,
        ),
        version=st.sampled_from((VE, VD)),
    )
    def test_run_twice_bit_identical(self, n_cont, n_ctr, values, version):
        """Continuations run exactly once and identically under replay:
        same fire log, same memory, same virtual clocks."""
        set_current_ctx(None)
        flags = flags_for(version).replace(cx_continuations=True)
        kw = dict(
            args=(n_cont, n_ctr, values), ranks=2,
            version=version, flags=flags,
        )
        a = spmd_run(_replay_body, **kw)
        b = spmd_run(_replay_body, **kw)
        assert a.values == b.values
        # each continuation fired exactly once, in issue order
        for log, _mem, _clk in a.values:
            conts = [e for e in log if e[0] == "cont"]
            assert conts == [("cont", i) for i in range(n_cont)]
            trips = [e for e in log if e[0] == "trip"]
            assert trips == ([("trip", n_ctr)] if n_ctr else [])


class TestFifoPreservation:
    @settings(max_examples=40, deadline=None)
    @given(
        kinds=st.lists(st.booleans(), min_size=1, max_size=8),
        order_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_pend_path_fires_in_ack_order(self, kinds, order_seed):
        """On the pend path, continuations dispatch in the order their
        acks complete — whatever order the operations were issued in."""
        import random

        ctx = bind()
        log = []
        pends = []
        for i, is_cont in enumerate(kinds):
            comps = (
                operation_cx.as_continuation(log.append, i)
                if is_cont
                else operation_cx.as_future()
            )
            d = CxDispatcher(ctx, comps, supported=ALL)
            pends.append((i, d.pend(Event.OPERATION)))
        random.Random(order_seed).shuffle(pends)
        assert log == []
        for i, pend in pends:
            pend.complete()
        ack_order = [i for i, _ in pends if kinds[i]]
        assert log == ack_order

    @settings(max_examples=40, deadline=None)
    @given(kinds=st.lists(st.booleans(), min_size=1, max_size=8))
    def test_deferred_fifo_unperturbed_by_continuations(self, kinds):
        """Deferred completions drain in issue order (FIFO) whether or
        not continuation ops are interleaved; the continuations all fire
        inline, before any deferred dispatch."""
        ctx = bind(VD)
        log = []
        for i, is_cont in enumerate(kinds):
            comps = (
                operation_cx.as_continuation(log.append, ("cont", i))
                if is_cont
                else operation_cx.as_lpc(log.append, ("lpc", i))
            )
            d = CxDispatcher(ctx, comps, supported=ALL)
            d.notify_sync(Event.OPERATION)
        # continuations fired inline, in issue order, before any drain
        assert log == [
            ("cont", i) for i, is_cont in enumerate(kinds) if is_cont
        ]
        while ctx.progress():
            pass
        # the deferred drain appended the lpc ops in FIFO issue order
        assert log[sum(kinds):] == [
            ("lpc", i) for i, is_cont in enumerate(kinds) if not is_cont
        ]

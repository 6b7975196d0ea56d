"""Unit tests for the completions DSL and the eager/deferred dispatcher."""

import pytest

from repro import new_array, rget_into, rput
from repro.core.completions import (
    Completions,
    CxDispatcher,
    operation_cx,
    remote_cx,
    source_cx,
)
from repro.core.events import Event
from repro.core.promise import Promise
from repro.errors import CompletionError
from repro.runtime.config import Version
from repro.runtime.runtime import spmd_run
from repro.sim.costmodel import CostAction

ALL = frozenset({Event.SOURCE, Event.REMOTE, Event.OPERATION})
FACTORIES = {"source": source_cx, "remote": remote_cx,
             "operation": operation_cx}
PAYLOADLESS = ("as_future", "as_eager_future", "as_defer_future")


class TestDsl:
    def test_factories_tag_events(self):
        assert operation_cx.as_future().requests[0].event is Event.OPERATION
        assert source_cx.as_future().requests[0].event is Event.SOURCE

    def test_composition_preserves_order(self):
        comps = source_cx.as_future() | operation_cx.as_future()
        assert [r.event for r in comps.requests] == [
            Event.SOURCE,
            Event.OPERATION,
        ]
        assert len(comps) == 2

    def test_eagerness_tags(self):
        assert operation_cx.as_future().requests[0].eagerness == "default"
        assert (
            operation_cx.as_eager_future().requests[0].eagerness == "eager"
        )
        assert (
            operation_cx.as_defer_future().requests[0].eagerness == "defer"
        )

    def test_promise_factories(self, ctx):
        p = Promise()
        req = operation_cx.as_promise(p).requests[0]
        assert req.kind == "promise" and req.promise is p

    def test_rpc_only_on_remote(self):
        with pytest.raises(CompletionError):
            operation_cx.as_rpc(lambda: None)
        assert remote_cx.as_rpc(lambda: None).requests[0].kind == "rpc"

    def test_lpc_not_on_remote(self):
        with pytest.raises(CompletionError):
            remote_cx.as_lpc(lambda: None)

    def test_by_event(self):
        comps = (
            source_cx.as_future()
            | operation_cx.as_future()
            | operation_cx.as_defer_future()
        )
        assert len(comps.by_event(Event.OPERATION)) == 2

    def test_describe(self):
        assert (
            operation_cx.as_eager_future().requests[0].describe()
            == "operation_cx::as_eager_future"
        )


class TestValidation:
    def test_unsupported_event_rejected(self, ctx):
        with pytest.raises(CompletionError):
            CxDispatcher(
                ctx,
                remote_cx.as_rpc(lambda: None),
                supported=frozenset({Event.OPERATION}),
                op_name="rget",
            )

    def test_explicit_factories_need_36(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_0)
        with pytest.raises(CompletionError):
            CxDispatcher(
                c, operation_cx.as_eager_future(), supported=ALL
            )
        with pytest.raises(CompletionError):
            CxDispatcher(
                c, operation_cx.as_defer_future(), supported=ALL
            )

    def test_default_factories_work_everywhere(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_0)
        CxDispatcher(c, operation_cx.as_future(), supported=ALL)


class TestSyncDispatch:
    def test_eager_future_is_ready(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        d = CxDispatcher(c, operation_cx.as_future(), supported=ALL)
        d.notify_sync(Event.OPERATION)
        fut = d.result()
        assert fut.is_ready()

    def test_defer_future_waits_for_progress(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_DEFER)
        d = CxDispatcher(c, operation_cx.as_future(), supported=ALL)
        d.notify_sync(Event.OPERATION)
        fut = d.result()
        assert not fut.is_ready()
        c.progress()
        assert fut.is_ready()

    def test_explicit_defer_wins_on_eager_build(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        d = CxDispatcher(c, operation_cx.as_defer_future(), supported=ALL)
        d.notify_sync(Event.OPERATION)
        assert not d.result().is_ready()
        c.progress()
        assert d.result().is_ready()

    def test_explicit_eager_wins_on_defer_build(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_DEFER)
        d = CxDispatcher(c, operation_cx.as_eager_future(), supported=ALL)
        d.notify_sync(Event.OPERATION)
        assert d.result().is_ready()

    def test_eager_promise_untouched(self, versioned_ctx):
        """§III-A: eager notification elides all promise modification."""
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        p = Promise()
        r0 = c.costs.count(CostAction.PROMISE_REGISTER)
        d = CxDispatcher(c, operation_cx.as_promise(p), supported=ALL)
        d.notify_sync(Event.OPERATION)
        assert c.costs.count(CostAction.PROMISE_REGISTER) == r0
        assert p.finalize().is_ready()

    def test_defer_promise_registered_and_fulfilled(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_DEFER)
        p = Promise()
        d = CxDispatcher(c, operation_cx.as_promise(p), supported=ALL)
        d.notify_sync(Event.OPERATION)
        f = p.finalize()
        assert not f.is_ready()
        c.progress()
        assert f.is_ready()

    def test_values_delivered_on_value_event(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        d = CxDispatcher(
            c,
            operation_cx.as_future(),
            supported=ALL,
            value_event=Event.OPERATION,
            nvalues=1,
        )
        d.notify_sync(Event.OPERATION, (5,))
        assert d.result().result() == 5

    def test_values_not_delivered_to_other_events(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        d = CxDispatcher(
            c,
            source_cx.as_future() | operation_cx.as_future(),
            supported=ALL,
            value_event=Event.OPERATION,
            nvalues=1,
        )
        d.notify_sync(Event.SOURCE, (5,))
        d.notify_sync(Event.OPERATION, (5,))
        src, op = d.result()
        assert src.nvalues == 0
        assert op.result() == 5

    def test_lpc_runs_in_progress(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        ran = []
        d = CxDispatcher(
            c,
            operation_cx.as_lpc(ran.append, 1),
            supported=ALL,
        )
        d.notify_sync(Event.OPERATION)
        assert ran == []
        c.progress()
        assert ran == [1]

    def test_result_shapes(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        # no futures requested → None
        p = Promise()
        d = CxDispatcher(c, operation_cx.as_promise(p), supported=ALL)
        d.notify_sync(Event.OPERATION)
        assert d.result() is None
        # two futures → tuple in composition order (source, operation)
        d = CxDispatcher(
            c,
            source_cx.as_future() | operation_cx.as_future(),
            supported=ALL,
        )
        d.notify_sync(Event.SOURCE)
        d.notify_sync(Event.OPERATION)
        out = d.result()
        assert isinstance(out, tuple) and len(out) == 2


class TestPendDispatch:
    def test_pend_completes_later(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        d = CxDispatcher(
            c,
            operation_cx.as_future(),
            supported=ALL,
            value_event=Event.OPERATION,
            nvalues=1,
        )
        pend = d.pend(Event.OPERATION)
        fut = d.result()
        assert not fut.is_ready()
        pend.complete((11,))
        assert fut.result() == 11

    def test_pend_promise(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        p = Promise()
        d = CxDispatcher(c, operation_cx.as_promise(p), supported=ALL)
        pend = d.pend(Event.OPERATION)
        f = p.finalize()
        assert not f.is_ready()
        pend.complete()
        assert f.is_ready()

    def test_any_deferred(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER)
        d = CxDispatcher(c, operation_cx.as_future(), supported=ALL)
        assert not d.any_deferred()
        d2 = CxDispatcher(
            c, operation_cx.as_defer_future(), supported=ALL
        )
        assert d2.any_deferred()
        c2 = versioned_ctx(Version.V2021_3_6_DEFER)
        d3 = CxDispatcher(c2, operation_cx.as_future(), supported=ALL)
        assert d3.any_deferred()


def _fn(*args):
    return None


#: stand-ins for a promise and a counter: the factories only store them
_PROMISE = object()
_COUNTER = object()

_FN_FIELDS = (None, _fn, (1, 2), None)
_NO_PAYLOAD = (None, None, (), None)

#: factory -> (arguments, the request's fields after ``event``, events
#: the factory rejects)
FACTORY_TABLE = {
    "as_future": ((), ("future", "default", *_NO_PAYLOAD), ()),
    "as_eager_future": ((), ("future", "eager", *_NO_PAYLOAD), ()),
    "as_defer_future": ((), ("future", "defer", *_NO_PAYLOAD), ()),
    "as_promise": ((_PROMISE,),
                   ("promise", "default", _PROMISE, None, (), None), ()),
    "as_eager_promise": ((_PROMISE,),
                         ("promise", "eager", _PROMISE, None, (), None), ()),
    "as_defer_promise": ((_PROMISE,),
                         ("promise", "defer", _PROMISE, None, (), None), ()),
    "as_lpc": ((_fn, 1, 2), ("lpc", "default", *_FN_FIELDS), ("remote",)),
    "as_rpc": ((_fn, 1, 2), ("rpc", "default", *_FN_FIELDS),
               ("source", "operation")),
    "as_continuation": ((_fn, 1, 2),
                        ("continuation", "default", *_FN_FIELDS),
                        ("remote",)),
    "as_counter": ((_COUNTER,),
                   ("counter", "default", None, None, (), _COUNTER),
                   ("remote",)),
}


def _fields(req):
    return (req.event, req.kind, req.eagerness, req.promise, req.fn,
            req.args, req.counter)


class TestValueObjects:
    """The request objects are plain slotted values; the payload-less ones
    are shared constants."""

    @pytest.mark.parametrize("event", sorted(FACTORIES))
    @pytest.mark.parametrize("name", sorted(FACTORY_TABLE))
    def test_factory_fields_and_describe(self, name, event):
        args, fields, rejects = FACTORY_TABLE[name]
        make = getattr(FACTORIES[event], name)
        if event in rejects:
            with pytest.raises(CompletionError):
                make(*args)
            return
        comps = make(*args)
        assert isinstance(comps, Completions) and len(comps) == 1
        (req,) = comps.requests
        assert _fields(req) == (Event(event), *fields)
        assert req.describe() == f"{event}_cx::{name}"
        assert comps.by_event(Event(event)) == [req]
        assert repr(comps).startswith(
            f"Completions(requests=(CompletionRequest(event={Event(event)!r}"
        )

    @pytest.mark.parametrize("event", sorted(FACTORIES))
    @pytest.mark.parametrize("name", PAYLOADLESS)
    def test_payloadless_factory_returns_one_constant(self, name, event):
        make = getattr(FACTORIES[event], name)
        assert make() is make()
        others = [getattr(FACTORIES[e], n)() for e in FACTORIES
                  for n in PAYLOADLESS if (e, n) != (event, name)]
        assert all(make() is not o for o in others)

    def test_payload_factories_build_fresh_requests(self, ctx):
        p = Promise()
        assert operation_cx.as_promise(p) is not operation_cx.as_promise(p)

    def test_composition_keeps_request_order(self):
        a = source_cx.as_defer_future()
        b = operation_cx.as_future()
        c = operation_cx.as_eager_promise(_PROMISE)
        before = (a.requests, b.requests)
        both = a | b | c
        assert [id(r) for r in both.requests] == [
            id(a.requests[0]), id(b.requests[0]), id(c.requests[0])
        ]
        assert (b | a).requests == (b.requests[0], a.requests[0])
        # composing never touches the shared operands
        assert (a.requests, b.requests) == before
        assert len(a) == len(b) == 1

    def test_or_rejects_non_completions(self):
        with pytest.raises(TypeError):
            _ = operation_cx.as_future() | 3

    def test_shared_constants_survive_ops_on_two_worlds(self):
        shared = [operation_cx.as_future(), operation_cx.as_defer_future(),
                  source_cx.as_future()]
        before = [(c.requests, [_fields(r) for r in c.requests])
                  for c in shared]

        def body():
            buf = new_array("u64", 4)
            futs = [rput(1, buf, shared[0]), rput(2, buf + 1, shared[0]),
                    rget_into(buf, buf + 2, 1, shared[1]),
                    rput(3, buf + 3, shared[2] | shared[0])]
            # every operation gets its own future objects
            flat = [f for x in futs for f in (x if isinstance(x, tuple)
                                              else (x,))]
            assert len({id(f) for f in flat}) == len(flat) == 5
            for f in flat:
                yield from f.wait_gen()
            return [int(v) for v in buf.local().view(4)]

        for version in (Version.V2021_3_6_EAGER, Version.V2021_3_6_DEFER):
            res = spmd_run(body, ranks=2, version=version)
            assert res.values == [[1, 2, 1, 3]] * 2
        after = [(c.requests, [_fields(r) for r in c.requests])
                 for c in shared]
        assert after == before
        for c, (reqs, _) in zip(shared, before):
            assert c.requests is reqs

    def test_unsupported_event_still_raises_with_shared_constant(self, ctx):
        src = new_array("u64", 2)
        with pytest.raises(CompletionError, match="remote completion"):
            rget_into(src, src + 1, 1, remote_cx.as_future())
        # the rejected constant is intact
        (req,) = remote_cx.as_future().requests
        assert _fields(req) == (Event.REMOTE, "future", "default",
                                *_NO_PAYLOAD)

"""Functional tests for RMA operations (local/on-node paths).

Every test runs across all three library versions where meaningful: the
functional outcome must be identical; only the notification timing and
cost structure differ (those are pinned in test_rma_semantics.py).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Promise,
    barrier_gen,
    delete_,
    new_,
    new_array,
    operation_cx,
    rank_me,
    remote_cx,
    rget,
    rget_bulk,
    rget_into,
    rput,
    rput_bulk,
    source_cx,
)
from repro.errors import CompletionError, InvalidGlobalPointer
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.config import Version
from repro.runtime.runtime import spmd_run
from tests.conftest import ALL_VERSIONS, VD, VE


@pytest.mark.parametrize("version", ALL_VERSIONS)
class TestScalarOps:
    def test_put_then_get(self, versioned_ctx, version):
        versioned_ctx(version)
        g = new_("i64", 0)
        rput(-7, g).wait()
        assert rget(g).wait() == -7

    def test_put_float(self, versioned_ctx, version):
        versioned_ctx(version)
        g = new_("f64")
        rput(2.5, g).wait()
        assert rget(g).wait() == 2.5

    def test_get_into(self, versioned_ctx, version):
        versioned_ctx(version)
        src = new_("u64", 77)
        dst = new_("u64", 0)
        fut = rget_into(src, dst, 1)
        fut.wait()
        assert dst.local().read() == 77

    def test_get_into_localref(self, versioned_ctx, version):
        versioned_ctx(version)
        src = new_("u64", 5)
        dst = new_("u64", 0)
        rget_into(src, dst.local(), 1).wait()
        assert dst.local().read() == 5


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(["i64", "u64", "f64", "i32", "u32", "u8"]),
       raw=st.binary(min_size=8, max_size=8))
def test_get_into_one_element_copies_bytes_exactly(name, raw):
    """A one-element ``rget_into`` copies the element's bytes exactly, for
    every type and content (NaN payloads and the sign of zero included)."""
    src, dst = new_array(name, 1), new_array(name, 1)
    try:
        size = src.ts.size
        src.local().segment.write_bytes(src.offset, raw[:size])
        rget_into(src, dst, 1).wait()
        seg = dst.local().segment
        assert seg.read_bytes(dst.offset, size) == raw[:size]
    finally:
        delete_(src)
        delete_(dst)


@pytest.mark.parametrize("version", ALL_VERSIONS)
class TestBulkOps:
    def test_put_bulk(self, versioned_ctx, version):
        versioned_ctx(version)
        g = new_array("u64", 8)
        rput_bulk(list(range(8)), g).wait()
        assert list(g.local().view(8)) == list(range(8))

    def test_get_bulk(self, versioned_ctx, version):
        versioned_ctx(version)
        g = new_array("u64", 4)
        rput_bulk([9, 8, 7, 6], g).wait()
        out = rget_bulk(g, 4).wait()
        assert list(out) == [9, 8, 7, 6]

    def test_get_into_multi(self, versioned_ctx, version):
        versioned_ctx(version)
        src = new_array("u64", 6, fill=3)
        dst = new_array("u64", 6)
        rget_into(src, dst, 6).wait()
        assert list(dst.local().view(6)) == [3] * 6


class TestValidation:
    def test_null_put(self, ctx):
        with pytest.raises(InvalidGlobalPointer):
            rput(1, GlobalPtr.NULL)

    def test_null_get(self, ctx):
        with pytest.raises(InvalidGlobalPointer):
            rget(GlobalPtr.NULL)

    @pytest.mark.parametrize("count", [1, 3])
    def test_null_get_into_destination(self, ctx, count):
        src = new_array("u64", 3)
        with pytest.raises(InvalidGlobalPointer, match="null"):
            rget_into(src, GlobalPtr.NULL, count)

    def test_bad_count(self, ctx):
        g = new_("u64")
        with pytest.raises(ValueError):
            rget_into(g, new_("u64"), 0)
        with pytest.raises(ValueError):
            rget_bulk(g, 0)

    def test_put_2d_rejected(self, ctx):
        g = new_array("u64", 4)
        with pytest.raises(ValueError):
            rput_bulk(np.zeros((2, 2)), g)

    def test_get_remote_event_unsupported(self, ctx):
        g = new_("u64")
        with pytest.raises(CompletionError):
            rget(g, remote_cx.as_rpc(lambda: None))


class TestCompletionsIntegration:
    def test_source_and_operation_futures(self, ctx):
        g = new_("u64")
        src_fut, op_fut = rput(
            3, g, source_cx.as_future() | operation_cx.as_future()
        )
        src_fut.wait()
        op_fut.wait()
        assert rget(g).wait() == 3

    def test_promise_tracking(self, ctx):
        g = new_array("u64", 10)
        p = Promise()
        for i in range(10):
            rput(i, g + i, operation_cx.as_promise(p))
        p.finalize().wait()
        assert list(g.local().view(10)) == list(range(10))

    def test_remote_cx_rpc_runs_on_target(self):
        def body():
            hits = []
            g = new_("u64")
            if rank_me() == 0:
                target = GlobalPtr(1, g.offset, g.ts)
                rput(
                    5,
                    target,
                    operation_cx.as_future()
                    | remote_cx.as_rpc(lambda: hits.append(rank_me())),
                ).wait()
            from repro import barrier, progress

            barrier()
            progress()
            barrier()
            return hits

        res = spmd_run(body, ranks=2)
        # the callback ran on rank 1 (recorded rank_me()==1 in its closure)
        assert res.values[0] == [] or res.values[0] == [1]
        assert 1 in (res.values[0] + res.values[1])

    def test_mixed_promise_and_future(self, ctx):
        g = new_("u64")
        p = Promise()
        fut = rput(
            1, g, operation_cx.as_future() | operation_cx.as_promise(p)
        )
        fut.wait()
        p.finalize().wait()
        assert rget(g).wait() == 1


class TestGetSourceCompletion:
    """Every get notifies a source-completion request, on the on-node
    (shared-memory bypass) branch as on the off-node request/reply: the
    combined request returns a ``(source, operation)`` pair and a source
    request alone returns its future, wherever the source lives."""

    @pytest.mark.parametrize("version", (VD, VE))
    @pytest.mark.parametrize("target", ("own", "offnode"))
    @pytest.mark.parametrize("op", ("rget", "rget_into", "rget_bulk"))
    def test_source_future_on_every_path(self, op, target, version):
        def issue(src, dest, comps):
            if op == "rget":
                return rget(src, comps)
            if op == "rget_into":
                return rget_into(src, dest, 2, comps)
            return rget_bulk(src, 2, comps)

        def body():
            me = rank_me()
            g = new_array("u64", 2, fill=7 + me)
            dest = new_array("u64", 2)
            yield from barrier_gen()
            out = None
            if me == 0:
                src = GlobalPtr(0 if target == "own" else 1, g.offset, g.ts)
                both = issue(
                    src, dest, source_cx.as_future() | operation_cx.as_future()
                )
                assert isinstance(both, tuple) and len(both) == 2
                src_fut, op_fut = both
                assert (yield from src_fut.wait_gen()) is None
                value = yield from op_fut.wait_gen()
                if op == "rget_into":
                    value = list(dest.local().view(2))
                elif op == "rget_bulk":
                    value = list(value)
                alone = issue(src, dest, source_cx.as_future())
                assert alone is not None
                assert (yield from alone.wait_gen()) is None
                out = value
            yield from barrier_gen()
            return out

        res = spmd_run(
            body, ranks=2, n_nodes=2, conduit="ibv", version=version
        )
        v = 7 if target == "own" else 8
        assert res.values[0] == (v if op == "rget" else [v, v])


class TestCrossRankOnNode:
    """All of the paper's timed communication: co-located ranks via PSHM."""

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_put_to_peer(self, version):
        def body():
            from repro import barrier

            g = new_("u64", 0)
            barrier()
            if rank_me() == 0:
                rput(1234, GlobalPtr(1, g.offset, g.ts)).wait()
            barrier()
            return g.local().read()

        res = spmd_run(body, ranks=2, version=version)
        assert res.values[1] == 1234

    def test_get_from_peer(self):
        def body():
            from repro import barrier

            g = new_("u64", 10 + rank_me())
            barrier()
            other = GlobalPtr((rank_me() + 1) % 2, g.offset, g.ts)
            val = rget(other).wait()
            barrier()
            return val

        res = spmd_run(body, ranks=2)
        assert res.values == [11, 10]

    def test_all_pairs_puts(self):
        def body():
            from repro import barrier

            n = 4
            g = new_array("u64", n)
            barrier()
            for r in range(n):
                rput(rank_me(), GlobalPtr(r, g.offset, g.ts) + rank_me()).wait()
            barrier()
            return list(g.local().view(n))

        res = spmd_run(body, ranks=4)
        assert all(v == [0, 1, 2, 3] for v in res.values)

"""Tests for RPC, rpc_ff, and payload-size accounting."""

import enum
import gc
import pickle
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import barrier, new_, progress, rank_me, rget, rpc, rpc_ff, rput
from repro.errors import RpcError, SerializationError, UpcxxError
from repro.gasnet.aggregator import MAX_ENTRIES
from repro.memory.global_ptr import GlobalPtr
from repro.rpc.serialization import payload_nbytes
from repro.runtime.config import RuntimeConfig, Version, flags_for
from repro.runtime.context import current_ctx, set_current_ctx
from repro.runtime.runtime import build_world, spmd_run


def _reference_nbytes(obj) -> int:
    """The recursive ``payload_nbytes`` that the exact-type fast path for
    tuple and list elements replaced, kept verbatim as the oracle."""
    if obj is None:
        return 0
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (int, float, bool)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (tuple, list)):
        return sum(_reference_nbytes(x) for x in obj) + 8
    if isinstance(obj, dict):
        return (
            sum(
                _reference_nbytes(k) + _reference_nbytes(v)
                for k, v in obj.items()
            )
            + 8
        )
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:  # noqa: BLE001 - converted to domain error
        raise SerializationError(
            f"cannot serialize RPC payload of type {type(obj).__name__}: {exc}"
        ) from exc


class _Color(enum.IntEnum):
    RED = 1
    BLUE = 2


_LEAVES = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.sampled_from(list(_Color)),
    st.floats(allow_nan=False).map(np.float64),  # a float subclass
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),  # pickled
    st.lists(st.integers(min_value=-(2**31), max_value=2**31), max_size=4)
    .map(lambda xs: np.array(xs, dtype=np.int64)),
)
_KEYS = st.one_of(st.integers(), st.text(max_size=4), st.booleans(),
                  st.sampled_from(list(_Color)))
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=20,
)


class TestSerialization:
    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_scalars(self):
        assert payload_nbytes(7) == 8
        assert payload_nbytes(1.5) == 8
        assert payload_nbytes(True) == 8

    def test_bytes(self):
        assert payload_nbytes(b"abc") == 3

    def test_string_utf8(self):
        assert payload_nbytes("héllo") == len("héllo".encode())

    def test_numpy(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_containers_recursive(self):
        assert payload_nbytes([1, 2]) == 24
        assert payload_nbytes({"a": 1}) == 8 + 1 + 8

    def test_pickle_fallback(self):
        import fractions

        assert payload_nbytes(fractions.Fraction(1, 3)) > 0

    def test_unserializable_rejected(self):
        with pytest.raises(SerializationError):
            payload_nbytes(lambda x: x)  # lambdas don't pickle

    def test_memoryview_sized_in_bytes(self):
        """A memoryview ships its bytes, not its element count."""
        assert payload_nbytes(memoryview(array("d", [1.0, 2.0]))) == 16
        assert payload_nbytes(memoryview(b"abc")) == 3

    @settings(max_examples=300, deadline=None)
    @given(payload=_PAYLOADS)
    def test_matches_reference_recursion(self, payload):
        assert payload_nbytes(payload) == _reference_nbytes(payload)
        assert payload_nbytes((payload,)) == _reference_nbytes((payload,))

    def test_lambda_in_tuple_rejected_like_reference(self):
        payload = (1, 2.0, lambda x: x)
        for size in (payload_nbytes, _reference_nbytes):
            with pytest.raises(SerializationError, match="function"):
                size(payload)


class TestRpc:
    def test_roundtrip_value(self):
        def body():
            if rank_me() == 0:
                return rpc(1, lambda a, b: a + b, 2, 3).wait()
            barrier()
            return None

        # note: target must progress — barrier provides it
        def body2():
            if rank_me() == 0:
                out = rpc(1, lambda a, b: a + b, 2, 3).wait()
                barrier()
                return out
            barrier()
            return None

        res = spmd_run(body2, ranks=2)
        assert res.values[0] == 5

    def test_rpc_runs_on_target(self):
        def body():
            if rank_me() == 0:
                peer = rpc(1, rank_me).wait()
                barrier()
                return peer
            barrier()
            return None

        assert spmd_run(body, ranks=2).values[0] == 1

    def test_rpc_to_self(self):
        def body():
            return rpc(0, lambda: "loopback").wait()

        assert spmd_run(body, ranks=1).values[0] == "loopback"

    def test_rpc_returning_future_defers_reply(self):
        """A callback returning a future delays the reply until it
        readies (UPC++ semantics)."""

        def body():
            g = new_("u64", 9)
            barrier()
            if rank_me() == 0:
                gp = GlobalPtr(1, g.offset, g.ts)
                val = rpc(1, lambda: rget(gp)).wait()
                barrier()
                return val
            barrier()
            return None

        assert spmd_run(body, ranks=2).values[0] == 9

    def test_rpc_exception_propagates_as_rpc_error(self):
        def boom():
            raise ValueError("remote failure")

        def body():
            if rank_me() == 0:
                fut = rpc(1, boom)
                fut.wait()
            barrier()

        with pytest.raises(RpcError, match="remote failure"):
            spmd_run(body, ranks=2)

    def test_invalid_target(self):
        def body():
            rpc(5, lambda: None)

        with pytest.raises(UpcxxError):
            spmd_run(body, ranks=2)

    def test_rpc_ff_side_effect(self):
        def body():
            g = new_("u64", 0)
            barrier()
            if rank_me() == 0:
                gp = GlobalPtr(1, g.offset, g.ts)
                rpc_ff(1, lambda: rput(77, gp).wait())
            barrier()
            progress()
            barrier()
            return g.local().read()

        res = spmd_run(body, ranks=2)
        assert res.values[1] == 77

    def test_rpc_ff_exception_direct_path_names_target(self):
        """A raising rpc_ff callback on the direct on-node AM path surfaces
        as RpcError naming the target rank and the original exception."""

        def boom(x):
            raise ValueError(f"ff failure {x}")

        def body():
            if rank_me() == 0:
                rpc_ff(1, boom, 7)
                assert current_ctx().conduit.pending_for(1) == 1
            barrier()
            progress()
            barrier()

        with pytest.raises(RpcError) as info:
            spmd_run(body, ranks=2)
        assert "rpc_ff callback raised on rank 1" in str(info.value)
        assert "ValueError('ff failure 7')" in str(info.value)
        assert isinstance(info.value.__cause__, ValueError)

    def test_rpc_ff_exception_bundled_path_names_target(self):
        """The same failure, parked in an aggregation buffer off-node and
        replayed from a bundle on the target."""

        def boom(x):
            raise ValueError(f"ff failure {x}")

        def body():
            if rank_me() == 0:
                rpc_ff(2, boom, 9)
                assert current_ctx().am_agg.pending_entries(2) == 1
            barrier()
            progress()
            barrier()

        flags = flags_for(Version.V2021_3_6_EAGER).replace(
            am_aggregation=True
        )
        with pytest.raises(RpcError) as info:
            spmd_run(body, ranks=4, n_nodes=2, conduit="ibv", flags=flags)
        assert "rpc_ff callback raised on rank 2" in str(info.value)
        assert "ValueError('ff failure 9')" in str(info.value)
        assert isinstance(info.value.__cause__, ValueError)
        frames = {entry.name for entry in info.traceback}
        assert "_deliver_bundle" in frames

    def test_rpc_ff_invalid_target(self):
        def body():
            rpc_ff(9, lambda: None)

        with pytest.raises(UpcxxError):
            spmd_run(body, ranks=2)

    def test_many_rpcs_ordered(self):
        def body():
            log = []
            barrier()
            if rank_me() == 0:
                for i in range(5):
                    rpc_ff(1, lambda i=i: log.append(i))
            barrier()
            progress()
            barrier()
            return log

        res = spmd_run(body, ranks=2)
        # AMs execute in injection order on the target
        combined = res.values[0] + res.values[1]
        assert combined == [0, 1, 2, 3, 4]


class TestRpcCompletions:
    def test_promise_completion(self):
        from repro import Promise, operation_cx

        def body():
            if rank_me() == 0:
                p = Promise()
                out = rpc(
                    1, lambda: 5, comps=operation_cx.as_promise(p)
                )
                assert out is None  # no future requested
                f = p.finalize()
                assert not f.is_ready()  # round trip pending
                f.wait()
                barrier()
                return "done"
            barrier()
            return None

        assert spmd_run(body, ranks=2).values[0] == "done"

    def test_lpc_completion(self):
        from repro import operation_cx

        def body():
            ran = []
            if rank_me() == 0:
                fut = rpc(
                    1,
                    lambda: 9,
                    comps=operation_cx.as_future()
                    | operation_cx.as_lpc(lambda: ran.append("lpc")),
                )
                got = fut.wait()
                progress()  # LPC runs on the initiator's progress
                barrier()
                return (got, ran)
            barrier()
            return None

        got, ran = spmd_run(body, ranks=2).values[0]
        assert got == 9
        assert ran == ["lpc"]

    def test_rpc_future_never_ready_at_initiation(self):
        """Even on the eager build: an RPC cannot complete synchronously."""
        from repro import Version

        def body():
            if rank_me() == 0:
                fut = rpc(1, lambda: 1)
                early = fut.is_ready()
                fut.wait()
                barrier()
                return early
            barrier()
            return None

        res = spmd_run(body, ranks=2, version=Version.V2021_3_6_EAGER)
        assert res.values[0] is False

    def test_remote_event_rejected(self):
        from repro import remote_cx
        from repro.errors import CompletionError

        def body():
            with pytest.raises(CompletionError):
                rpc(0, lambda: 1, comps=remote_cx.as_rpc(lambda: None))

        spmd_run(body, ranks=1)


def _ff_noop(offset, ran):
    pass


class TestParkedMessages:
    """Each rpc_ff send leaves exactly three GC-tracked objects alive until
    delivery: the argument tuple, the ``(fn, args)`` pair and the slotted
    AM record.  Thousands of messages wait in buffers and inboxes until the
    next barrier, so every tracked object they hold lengthens each GC
    pass."""

    def _growth_per_send(self, dst, *, aggregation, n_nodes):
        flags = flags_for(Version.V2021_3_6_EAGER).replace(
            am_aggregation=aggregation
        )
        world = build_world(
            RuntimeConfig(conduit="ibv", flags=flags), ranks=4,
            n_nodes=n_nodes,
        )
        ctx = world.contexts[0]
        set_current_ctx(ctx)
        try:
            rpc_ff(dst, _ff_noop, 0, 0.5)  # warm up lazily built state
            counts = []
            sent = 1
            gc.disable()
            try:
                for target in (8, 16, 24):
                    while sent <= target:
                        rpc_ff(dst, _ff_noop, sent, 0.5)
                        sent += 1
                    counts.append(len(gc.get_objects()))
            finally:
                gc.enable()
        finally:
            set_current_ctx(None)
        assert sent <= MAX_ENTRIES  # no threshold flush in the window
        return world, [(b - a) / 8 for a, b in zip(counts, counts[1:])]

    def test_aggregated_offnode(self):
        world, slopes = self._growth_per_send(2, aggregation=True, n_nodes=2)
        assert world.contexts[0].am_agg.pending_entries(2) == 25
        assert slopes == [3.0, 3.0]

    def test_direct_onnode(self):
        world, slopes = self._growth_per_send(1, aggregation=True, n_nodes=2)
        assert world.conduit.pending_for(1) == 25
        assert slopes == [3.0, 3.0]

    def test_unaggregated_offnode(self):
        world, slopes = self._growth_per_send(
            2, aggregation=False, n_nodes=2
        )
        assert world.conduit.pending_for(2) == 25
        assert slopes == [3.0, 3.0]

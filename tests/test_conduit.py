"""Unit tests for conduits and active messages."""

import pytest

from repro.errors import UpcxxError
from repro.gasnet.conduit import (
    _OFFNODE_FACTOR,
    _PSHM_AM_LATENCY_NS,
    CONDUIT_NAMES,
    make_conduit,
)
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.config import RuntimeConfig
from repro.runtime.runtime import build_world


def two_rank_world(conduit="smp", n_nodes=1):
    return build_world(
        RuntimeConfig(conduit=conduit), ranks=2, n_nodes=n_nodes
    )


class TestConduitConstruction:
    def test_known_names(self):
        w = two_rank_world()
        for name in CONDUIT_NAMES:
            if name == "smp":
                make_conduit(name, w)

    def test_unknown_name_rejected(self):
        w = two_rank_world()
        with pytest.raises(UpcxxError):
            make_conduit("carrier-pigeon", w)

    def test_pshm_reachability_single_node(self):
        w = two_rank_world(conduit="udp")
        assert w.conduit.pshm_reachable(0, 1)

    def test_pshm_reachability_two_nodes(self):
        w = build_world(RuntimeConfig(conduit="udp"), ranks=4, n_nodes=2)
        assert w.conduit.pshm_reachable(0, 1)
        assert not w.conduit.pshm_reachable(0, 2)

    def test_offnode_latency_ordering(self):
        """UDP sockets are far slower than MPI, which is slower than ibv."""
        lat = {}
        for name in ("udp", "mpi", "ibv"):
            w = build_world(
                RuntimeConfig(conduit=name), ranks=4, n_nodes=2
            )
            lat[name] = w.conduit.am_latency_ns(0, 2)
        assert lat["udp"] > lat["mpi"] > lat["ibv"]

    def test_onnode_latency_small(self):
        w = build_world(RuntimeConfig(conduit="udp"), ranks=4, n_nodes=2)
        assert w.conduit.am_latency_ns(0, 1) < w.conduit.am_latency_ns(0, 2)


class TestLatencyModel:
    """Off-node factors, PSHM conduit-independence, and the validated
    error paths of the latency model."""

    @pytest.mark.parametrize(
        "name,factor", (("udp", 20.0), ("mpi", 2.0), ("ibv", 1.0))
    )
    def test_offnode_factor_applied(self, name, factor):
        w = build_world(RuntimeConfig(conduit=name), ranks=4, n_nodes=2)
        base = w.profile.network_latency_ns
        assert w.conduit.am_latency_ns(0, 2) == pytest.approx(base * factor)

    def test_offnode_bandwidth_term(self):
        w = build_world(RuntimeConfig(conduit="ibv"), ranks=4, n_nodes=2)
        zero = w.conduit.am_latency_ns(0, 2, 0)
        big = w.conduit.am_latency_ns(0, 2, 4096)
        expected = 4096 / w.profile.network_bandwidth_bpns
        assert big - zero == pytest.approx(expected)

    @pytest.mark.parametrize("name", ("udp", "mpi", "ibv"))
    def test_pshm_latency_independent_of_conduit(self, name):
        """On-node AMs ride shared-memory queues: same latency whatever
        the network conduit is, and no payload bandwidth term."""
        w = build_world(RuntimeConfig(conduit=name), ranks=4, n_nodes=2)
        assert w.conduit.am_latency_ns(0, 1) == _PSHM_AM_LATENCY_NS
        assert w.conduit.am_latency_ns(0, 1, 8192) == _PSHM_AM_LATENCY_NS

    def test_smp_offnode_latency_rejected(self):
        """smp has no off-node path (factor None): the error is a typed
        UpcxxError, not an arithmetic failure.  smp worlds are validated
        single-node at construction, so force an off-node pair via the
        topology memo."""
        w = two_rank_world(conduit="smp")
        c = w.conduit
        assert _OFFNODE_FACTOR["smp"] is None
        c._node_of = (0, 1)  # pretend the ranks landed on distinct nodes
        with pytest.raises(UpcxxError, match="off-node"):
            c.am_latency_ns(0, 1)

    def test_unknown_factor_name_raises_typed_error(self):
        """A conduit name missing from the latency table surfaces as
        UpcxxError listing the modeled names — never a bare KeyError."""
        w = build_world(RuntimeConfig(conduit="ibv"), ranks=4, n_nodes=2)
        c = w.conduit
        c.name = "rocket"  # simulate a future conduit without a model
        with pytest.raises(UpcxxError, match="rocket"):
            c.am_latency_ns(0, 2)

    def test_every_conduit_name_has_a_factor(self):
        """Construction-time validation can only hold if the latency
        table covers every constructible name."""
        assert set(CONDUIT_NAMES) <= set(_OFFNODE_FACTOR)

    def test_out_of_range_reachability_rejected(self):
        w = two_rank_world(conduit="udp")
        with pytest.raises(UpcxxError):
            w.conduit.pshm_reachable(0, 9)


class TestRankLocality:
    """``RankContext.is_local_rank`` reads the conduit's node table; it
    must agree with the world's own topology arithmetic."""

    def test_three_node_udp_oracle(self):
        w = build_world(RuntimeConfig(conduit="udp"), ranks=6, n_nodes=3)
        for ctx in w.contexts:
            for r in range(w.size):
                assert ctx.is_local_rank(r) == w.same_node(ctx.rank, r)
                assert GlobalPtr(r, 0, "u64").is_local(ctx) == (
                    w.same_node(ctx.rank, r)
                )

    def test_out_of_range_rank_rejected(self):
        w = build_world(RuntimeConfig(conduit="udp"), ranks=6, n_nodes=3)
        ctx = w.contexts[0]
        for rank in (6, 9, -2):
            with pytest.raises(UpcxxError):
                ctx.is_local_rank(rank)
        with pytest.raises(UpcxxError):
            GlobalPtr(9, 0, "u64").is_local(ctx)


class TestAmDelivery:
    def test_am_roundtrip(self):
        w = two_rank_world()
        ctx0, ctx1 = w.contexts
        got = []
        w.conduit.send_am(ctx0, 1, lambda tctx, x: got.append(x), (42,))
        assert w.conduit.has_incoming(1)
        assert not w.conduit.has_incoming(0)
        ctx1.progress()
        assert got == [42]
        assert not w.conduit.has_incoming(1)

    def test_am_to_self(self):
        w = two_rank_world()
        ctx0 = w.contexts[0]
        got = []
        w.conduit.send_am(ctx0, 0, lambda tctx: got.append("self"))
        ctx0.progress()
        assert got == ["self"]

    def test_am_ordering_preserved(self):
        w = two_rank_world()
        ctx0, ctx1 = w.contexts
        got = []
        for i in range(5):
            w.conduit.send_am(ctx0, 1, lambda t, i=i: got.append(i))
        ctx1.progress()
        assert got == [0, 1, 2, 3, 4]

    def test_arrival_advances_receiver_clock(self):
        w = two_rank_world()
        ctx0, ctx1 = w.contexts
        ctx0.clock.advance(10_000)
        w.conduit.send_am(ctx0, 1, lambda t: None)
        assert ctx1.clock.now_ns < 10_000
        ctx1.progress()
        assert ctx1.clock.now_ns >= 10_000  # causality

    def test_invalid_rank_rejected(self):
        w = two_rank_world()
        with pytest.raises(UpcxxError):
            w.conduit.send_am(w.contexts[0], 7, lambda t: None)

    def test_handler_runs_on_target_context(self):
        w = two_rank_world()
        seen = []
        w.conduit.send_am(
            w.contexts[0], 1, lambda tctx: seen.append(tctx.rank)
        )
        w.contexts[1].progress()
        assert seen == [1]


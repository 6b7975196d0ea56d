"""Tests for the distributed half-approximate matching application."""

import dataclasses

import pytest

from repro.apps.graphs import GRAPH_NAMES, Graph, make_graph
from repro.apps.matching import (
    MatchingConfig,
    _matching_body,
    _matching_body_gen,
    matching_weight,
    pack_msg,
    run_matching,
    serial_matching,
    unpack_msg,
)
from repro.runtime.config import Version, flags_for
from repro.runtime.runtime import spmd_run
from tests.conftest import ALL_VERSIONS
from tests.test_sched_golden import assert_golden


class TestMessagePacking:
    def test_roundtrip(self):
        for kind, a, b in [(1, 0, 0), (2, 123456, 999999), (1, 2**30 - 1, 7)]:
            assert unpack_msg(pack_msg(kind, a, b)) == (kind, a, b)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_msg(1, 2**30, 0)


class TestSerialReference:
    def test_triangle(self):
        # weights are deterministic; greedy takes the single heaviest edge
        g = Graph("tri", 3, [[], [], []])
        from repro.apps.graphs import edge_weight

        for u, v in [(0, 1), (1, 2), (0, 2)]:
            w = edge_weight(u, v)
            g.adj[u].append((v, w))
            g.adj[v].append((u, w))
        mate = serial_matching(g)
        matched = [(u, m) for u, m in enumerate(mate) if m > u]
        assert len(matched) == 1

    def test_matching_is_valid(self):
        g = make_graph("random", scale=1)
        mate = serial_matching(g)
        for v, m in enumerate(mate):
            if m >= 0:
                assert mate[m] == v
                assert any(x == m for x, _ in g.adj[v])

    def test_half_approximation_bound(self):
        """Greedy/locally-dominant weight ≥ ½ of the true optimum."""
        import networkx as nx

        g = make_graph("random", scale=1, seed=5)
        # build a small subgraph to keep the exact solver fast
        sub_n = 120
        sub = Graph("sub", sub_n, [
            [(v, w) for v, w in g.adj[u] if v < sub_n]
            for u in range(sub_n)
        ])
        mate = serial_matching(sub)
        ours = matching_weight(sub, mate)
        nxg = nx.Graph()
        for u, v, w in sub.edges():
            nxg.add_edge(u, v, weight=w)
        opt_edges = nx.max_weight_matching(nxg)
        opt = sum(nxg[u][v]["weight"] for u, v in opt_edges)
        assert ours >= 0.5 * opt
        assert ours <= opt + 1e-9


@pytest.mark.parametrize("name", GRAPH_NAMES)
class TestDistributedMatchesSerial:
    def test_two_ranks(self, name):
        cfg = MatchingConfig(graph=name, scale=1)
        g = cfg.build_graph()
        r = run_matching(cfg, ranks=2, graph=g, machine="generic")
        assert r.mate == serial_matching(g)

    def test_four_ranks(self, name):
        cfg = MatchingConfig(graph=name, scale=1)
        g = cfg.build_graph()
        r = run_matching(cfg, ranks=4, graph=g, machine="generic")
        assert r.mate == serial_matching(g)


@pytest.mark.parametrize("version", ALL_VERSIONS)
class TestVersionIndependence:
    def test_same_matching_every_version(self, version):
        cfg = MatchingConfig(graph="random", scale=1)
        g = cfg.build_graph()
        r = run_matching(
            cfg, ranks=4, version=version, graph=g, machine="intel"
        )
        assert r.mate == serial_matching(g)
        assert r.weight == pytest.approx(
            matching_weight(g, serial_matching(g))
        )


class TestResultMetadata:
    def test_counters(self):
        cfg = MatchingConfig(graph="venturi", scale=1)
        g = cfg.build_graph()
        r = run_matching(cfg, ranks=4, graph=g, machine="generic")
        assert r.rounds >= 1
        assert r.cross_messages > 0
        assert r.solve_ns > 0
        assert r.n == g.n and r.n_edges == g.n_edges

    def test_matched_pairs_consistent(self):
        cfg = MatchingConfig(graph="channel", scale=1)
        g = cfg.build_graph()
        r = run_matching(cfg, ranks=2, graph=g, machine="generic")
        for u, v in r.matched_pairs():
            assert r.mate[u] == v and r.mate[v] == u

    def test_single_rank_run(self):
        cfg = MatchingConfig(graph="random", scale=1)
        g = cfg.build_graph()
        r = run_matching(cfg, ranks=1, graph=g, machine="generic")
        assert r.mate == serial_matching(g)
        assert r.cross_messages == 0


class TestPaperShape:
    def test_eager_speedup_grows_with_nonlocality(self):
        """The Figure 8 gradient at reduced scale: youtube gains more
        than channel."""
        speedups = {}
        for name in ("channel", "youtube"):
            cfg = MatchingConfig(graph=name, scale=1)
            g = cfg.build_graph()
            td = run_matching(
                cfg, ranks=4, version=Version.V2021_3_6_DEFER,
                graph=g, machine="intel",
            ).solve_ns
            te = run_matching(
                cfg, ranks=4, version=Version.V2021_3_6_EAGER,
                graph=g, machine="intel",
            ).solve_ns
            speedups[name] = td / te - 1
        assert speedups["youtube"] > speedups["channel"]
        assert speedups["channel"] >= -0.01  # eager never hurts


class TestContinuationParity:
    """Generator-ported solver vs thread-shim wrapper: identical mates,
    per-rank virtual clocks, scheduler switch counts, and switch traces
    under both scheduler pick mechanisms."""

    def _run(self, body, *, graph="random", version=Version.V2021_3_6_EAGER,
             wake_list=True):
        cfg = MatchingConfig(graph=graph, scale=1)
        g = cfg.build_graph()
        flags = dataclasses.replace(
            flags_for(version), sched_wake_list=wake_list
        )
        trace = []
        res = spmd_run(
            body, args=(g, cfg), ranks=4, version=version,
            machine="generic", conduit="mpi", seed=cfg.seed,
            segment_bytes=1 << 20, flags=flags, switch_trace=trace,
        )
        clocks = tuple(c.clock.now_ns for c in res.world.contexts)
        return res.values, clocks, res.world.sched_switches, trace

    @pytest.mark.parametrize("wake_list", [False, True])
    def test_generator_body_matches_blocking_body(self, wake_list):
        gen = self._run(_matching_body_gen, wake_list=wake_list)
        blk = self._run(
            lambda gg, cc: _matching_body(gg, cc), wake_list=wake_list
        )
        assert gen == blk
        assert gen[2] > 0

    def test_substrates_agree_on_generator_body(self):
        """The event loop runs the generator solver exactly as the
        thread-per-rank scheduler did (its record is in the golden
        file)."""
        assert_golden("matching_gen_4")

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_run_matching_results_identical(self, version):
        gen = self._run(_matching_body_gen, graph="channel", version=version)
        blk = self._run(
            lambda gg, cc: _matching_body(gg, cc), graph="channel",
            version=version,
        )
        assert gen == blk
        # and run_matching (the generator body) finds the serial matching
        cfg = MatchingConfig(graph="channel", scale=1)
        g = cfg.build_graph()
        res = run_matching(
            cfg, ranks=4, version=version, graph=g, machine="generic"
        )
        assert res.mate == serial_matching(g)

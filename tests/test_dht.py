"""Tests for the distributed hash table application."""

import dataclasses

import pytest

from repro import barrier, rank_me
from repro.apps.dht import (
    DhtConfig,
    DistributedHashMap,
    _dht_body_gen,
    _mix,
    run_dht,
)
from repro.errors import UpcxxError
from repro.runtime.config import Version, flags_for
from repro.runtime.runtime import spmd_run
from tests.conftest import ALL_VERSIONS, rank_body
from tests.test_sched_golden import DHT_CFG, assert_golden


class TestHash:
    def test_mix_is_64bit(self):
        for k in (1, 2**63, 2**64 - 1):
            assert 0 <= _mix(k) < (1 << 64)

    def test_mix_spreads(self):
        slots = { _mix(k) & 1023 for k in range(1, 200) }
        assert len(slots) > 150  # near-uniform spread


class TestBasicOps:
    def test_insert_find_single_rank(self):
        def body():
            t = DistributedHashMap(6)
            barrier()
            t.attach()
            t.insert(17, 1000)
            t.insert(42, 2000)
            return (t.find(17), t.find(42), t.find(99))

        assert spmd_run(body, ranks=1).values == [(1000, 2000, None)]

    def test_update_existing_key(self):
        def body():
            t = DistributedHashMap(6)
            barrier()
            t.attach()
            t.insert(5, 1)
            t.insert(5, 2)
            return t.find(5)

        assert spmd_run(body, ranks=1).values == [2]

    def test_collisions_probe_linearly(self):
        def body():
            t = DistributedHashMap(3)  # 8 slots: collisions guaranteed
            barrier()
            t.attach()
            for k in range(1, 5):
                t.insert(k, k * 10)
            return [t.find(k) for k in range(1, 5)]

        assert spmd_run(body, ranks=1).values == [[10, 20, 30, 40]]

    def test_table_full(self):
        def body():
            t = DistributedHashMap(2)  # 4 slots
            barrier()
            t.attach()
            for k in range(1, 5):
                t.insert(k, k)
            t.insert(99, 99)  # fifth key: full

        with pytest.raises(UpcxxError, match="full"):
            spmd_run(body, ranks=1)

    def test_zero_key_reserved(self):
        def body():
            t = DistributedHashMap(4)
            barrier()
            t.attach()
            t.insert(0, 1)

        with pytest.raises(UpcxxError, match="reserved"):
            spmd_run(body, ranks=1)

    def test_cross_rank_visibility(self):
        def body():
            t = DistributedHashMap(8)
            barrier()
            t.attach()
            t.insert(1000 + rank_me(), rank_me())
            barrier()
            other = 1000 + (rank_me() + 1) % 4
            got = t.find(other)
            barrier()
            return got

        res = spmd_run(body, ranks=4)
        assert res.values == [1, 2, 3, 0]


@pytest.mark.parametrize("version", ALL_VERSIONS)
class TestWorkload:
    def test_full_workload_correct(self, version):
        cfg = DhtConfig(log2_slots=9, inserts_per_rank=24, finds_per_rank=24)
        r = run_dht(cfg, ranks=4, version=version, machine="generic")
        assert r.correct
        assert r.ops == 4 * 48


class TestShapes:
    def test_eager_beats_defer(self):
        cfg = DhtConfig(log2_slots=9, inserts_per_rank=32, finds_per_rank=32)
        td = run_dht(
            cfg, ranks=4, version=Version.V2021_3_6_DEFER, machine="intel"
        ).solve_ns
        te = run_dht(
            cfg, ranks=4, version=Version.V2021_3_6_EAGER, machine="intel"
        ).solve_ns
        assert td / te > 1.1  # fine-grained RMA workload: eager matters

    def test_load_factor_guard(self):
        with pytest.raises(UpcxxError, match="load factor"):
            run_dht(
                DhtConfig(log2_slots=6, inserts_per_rank=32),
                ranks=4,
            )


class TestContinuationParity:
    """The generator-ported body must be observably identical to the
    thread-shim (blocking-wrapper) body: same results, same per-rank
    virtual clocks, same scheduler switch count, same switch trace."""

    CFG = DHT_CFG

    def _run(self, body, *, version=Version.V2021_3_6_EAGER,
             wake_list=True):
        flags = dataclasses.replace(
            flags_for(version), sched_wake_list=wake_list
        )
        trace = []
        res = spmd_run(
            body, args=(self.CFG,), ranks=4, version=version,
            machine="generic", seed=self.CFG.seed, segment_bytes=1 << 17,
            flags=flags, switch_trace=trace,
        )
        clocks = tuple(c.clock.now_ns for c in res.world.contexts)
        return res.values, clocks, res.world.sched_switches, trace

    @pytest.mark.parametrize("wake_list", [False, True])
    def test_generator_body_matches_blocking_body(self, wake_list):
        gen = self._run(_dht_body_gen, wake_list=wake_list)
        blk = self._run(
            rank_body(_dht_body_gen, False), wake_list=wake_list
        )
        assert gen == blk
        assert gen[2] > 0

    def test_substrates_agree_on_generator_body(self):
        """The event loop runs the generator body exactly as the
        thread-per-rank scheduler did (its record is in the golden
        file)."""
        assert_golden("dht_gen_4")

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_run_dht_results_identical(self, version):
        gen = self._run(_dht_body_gen, version=version)
        blk = self._run(rank_body(_dht_body_gen, False), version=version)
        assert gen == blk
        # and run_dht (the generator body) reports a correct table
        assert run_dht(
            self.CFG, ranks=4, version=version, machine="generic"
        ).correct

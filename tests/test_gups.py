"""Tests for the GUPS application (HPCC RandomAccess)."""

import numpy as np
import pytest

from repro.apps.gups import (
    GUPS_VARIANTS,
    HPCC_TOLERANCE,
    GupsConfig,
    hpcc_next,
    hpcc_stream,
    oracle_table,
    rank_seed,
    run_gups,
)
from repro.runtime.config import Version, flags_for
from tests.conftest import ALL_VERSIONS

SMALL = dict(table_log2=9, updates_per_rank=48, batch=16)


class TestHpccSequence:
    def test_values_stay_64bit(self):
        ran = 1
        for _ in range(100):
            ran = hpcc_next(ran)
            assert 0 <= ran < (1 << 64)

    def test_sequence_deterministic(self):
        assert hpcc_stream(123, 50) == hpcc_stream(123, 50)

    def test_polynomial_feedback(self):
        # a value with the top bit set gets the POLY xor
        high = 1 << 63
        assert hpcc_next(high) == 0x7
        assert hpcc_next(1) == 2

    def test_zero_seed_coerced(self):
        assert hpcc_stream(0, 3) == hpcc_stream(1, 3)

    def test_rank_seeds_distinct(self):
        seeds = {rank_seed(1, r) for r in range(64)}
        assert len(seeds) == 64
        assert all(s != 0 for s in seeds)

    def test_period_not_tiny(self):
        seen = set()
        ran = rank_seed(1, 0)
        for _ in range(2000):
            ran = hpcc_next(ran)
            assert ran not in seen
            seen.add(ran)


class TestConfig:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            GupsConfig(variant="gpu")

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            GupsConfig(batch=0)

    def test_table_must_divide(self):
        cfg = GupsConfig(variant="raw", table_log2=9, updates_per_rank=8)
        with pytest.raises(ValueError):
            run_gups(cfg, ranks=3)  # 512 % 3 != 0


@pytest.mark.parametrize("variant", GUPS_VARIANTS)
class TestCorrectness:
    def test_single_rank_matches_oracle(self, variant):
        """With one rank there is no racing: every variant must produce
        exactly the oracle table."""
        cfg = GupsConfig(variant=variant, **SMALL)
        r = run_gups(cfg, ranks=1, machine="generic")
        assert r.matches_oracle

    def test_multi_rank_atomic_variants_exact(self, variant):
        cfg = GupsConfig(variant=variant, **SMALL)
        r = run_gups(cfg, ranks=4, machine="generic")
        if variant in ("raw", "manual", "amo_promise", "amo_future"):
            assert r.matches_oracle
        # rma variants may legitimately lose racing updates (HPCC allows
        # this); with the deterministic scheduler they usually don't, but
        # we only require the run to complete and report a checksum
        assert isinstance(r.checksum, int)


@pytest.mark.parametrize("version", ALL_VERSIONS)
class TestAcrossVersions:
    def test_results_version_independent(self, version):
        """Library version changes timing, never functional results."""
        cfg = GupsConfig(variant="amo_promise", **SMALL)
        r = run_gups(cfg, ranks=2, version=version, machine="generic")
        assert r.matches_oracle

    def test_gups_rate_positive(self, version):
        cfg = GupsConfig(variant="manual", **SMALL)
        r = run_gups(cfg, ranks=2, version=version, machine="generic")
        assert r.gups > 0
        assert r.solve_ns > 0
        assert r.total_updates == 2 * SMALL["updates_per_rank"]


class TestPaperShapes:
    """Figure 5–7 orderings at reduced size (full grids live in
    benchmarks/)."""

    def test_variant_ordering_eager_intel(self):
        times = {}
        for variant in GUPS_VARIANTS:
            cfg = GupsConfig(variant=variant, **SMALL)
            times[variant] = run_gups(
                cfg, ranks=4, version=Version.V2021_3_6_EAGER,
                machine="intel",
            ).solve_ns
        assert times["raw"] <= times["manual"]
        assert times["manual"] <= times["rma_promise"]
        # under eager notification futures ≈ promises (the paper's point)
        assert times["rma_future"] == pytest.approx(
            times["rma_promise"], rel=0.25
        )
        assert times["amo_future"] == pytest.approx(
            times["amo_promise"], rel=0.25
        )

    def test_eager_beats_defer_for_rma_futures_everywhere(self):
        for machine in ("intel", "ibm", "marvell"):
            cfg = GupsConfig(variant="rma_future", **SMALL)
            t = {
                v: run_gups(cfg, ranks=4, version=v, machine=machine).solve_ns
                for v in (Version.V2021_3_6_DEFER, Version.V2021_3_6_EAGER)
            }
            ratio = t[Version.V2021_3_6_DEFER] / t[Version.V2021_3_6_EAGER]
            assert ratio > 1.5, machine

    def test_2021_3_0_is_never_faster(self):
        for variant in ("rma_promise", "rma_future"):
            cfg = GupsConfig(variant=variant, **SMALL)
            t30 = run_gups(
                cfg, ranks=2, version=Version.V2021_3_0, machine="intel"
            ).solve_ns
            t36 = run_gups(
                cfg, ranks=2, version=Version.V2021_3_6_DEFER,
                machine="intel",
            ).solve_ns
            assert t30 >= t36

    def test_manual_insensitive_to_eagerness(self):
        cfg = GupsConfig(variant="manual", **SMALL)
        td = run_gups(
            cfg, ranks=2, version=Version.V2021_3_6_DEFER, machine="intel"
        ).solve_ns
        te = run_gups(
            cfg, ranks=2, version=Version.V2021_3_6_EAGER, machine="intel"
        ).solve_ns
        assert td == pytest.approx(te, rel=1e-9)


class TestOracle:
    def test_oracle_shape(self):
        cfg = GupsConfig(variant="raw", table_log2=9, updates_per_rank=10)
        t = oracle_table(cfg, ranks=2)
        assert len(t) == 512

    def test_oracle_depends_on_seed(self):
        a = GupsConfig(variant="raw", table_log2=9, updates_per_rank=10, seed=1)
        b = GupsConfig(variant="raw", table_log2=9, updates_per_rank=10, seed=2)
        assert list(oracle_table(a, 2)) != list(oracle_table(b, 2))

    @pytest.mark.parametrize("variant", GUPS_VARIANTS)
    def test_oracle_checksum_is_oracle_table_xor(self, variant):
        """run_gups derives the oracle checksum from the update streams;
        it must equal the xor-reduction of the race-free table."""
        cfg = GupsConfig(variant=variant, seed=5, **SMALL)
        r = run_gups(cfg, ranks=4, machine="generic")
        assert r.oracle_checksum == int(
            np.bitwise_xor.reduce(oracle_table(cfg, 4))
        )

    def test_oracle_checksum_two_node_agg(self):
        cfg = GupsConfig(variant="agg", seed=3, **SMALL)
        r = run_gups(
            cfg, ranks=4, n_nodes=2, conduit="ibv", machine="intel",
            flags=flags_for(Version.V2021_3_6_EAGER).replace(
                am_aggregation=True
            ),
        )
        assert r.am_bundles > 0
        assert r.oracle_checksum == int(
            np.bitwise_xor.reduce(oracle_table(cfg, 4))
        )
        assert r.matches_oracle


class TestHpccVerification:
    def test_exact_variant_zero_errors(self):
        cfg = GupsConfig(variant="amo_promise", **SMALL)
        r = run_gups(cfg, ranks=4, machine="generic")
        assert r.error_fraction == 0.0
        assert r.passes_hpcc_verification

    def test_rma_variant_within_hpcc_tolerance(self):
        """Unsynchronized RMA updates may race, but HPCC's 1% bound must
        hold under the deterministic scheduler."""
        cfg = GupsConfig(variant="rma_future", **SMALL)
        r = run_gups(cfg, ranks=4, machine="generic")
        assert r.passes_hpcc_verification

    def test_table_collected(self):
        cfg = GupsConfig(variant="raw", **SMALL)
        r = run_gups(cfg, ranks=2, machine="generic")
        assert r.table is not None
        assert len(r.table) == 1 << SMALL["table_log2"]


class TestMultiNodeGups:
    def test_amo_variant_across_nodes(self):
        """GUPS with off-node targets: atomics stay exact (AM path)."""
        cfg = GupsConfig(
            variant="amo_promise", table_log2=9, updates_per_rank=24,
            batch=8,
        )
        r = run_gups(
            cfg, ranks=4, machine="generic", conduit="udp",
        )
        assert r.matches_oracle
        # now split across two nodes: half the targets go off-node
        from repro.runtime.runtime import spmd_run as _run  # noqa: F401
        from repro.apps.gups import _gups_body
        import numpy as np

        res = _run(
            lambda: _gups_body(cfg),
            ranks=4,
            n_nodes=2,
            conduit="udp",
            seed=cfg.seed,
            segment_bytes=1 << 16,
        )
        table = np.concatenate([v[2] for v in res.values])
        assert list(table) == list(oracle_table(cfg, 4))

    @pytest.mark.parametrize(
        "conduit,n_nodes", [("ibv", 2), ("udp", 2), ("mpi", 4)]
    )
    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_manual_variant_across_nodes(self, conduit, n_nodes, version):
        """Manual localization falls back to a waited rget/rput for an
        off-node target, which must suspend the generator body rather
        than block inside it."""
        cfg = GupsConfig(
            variant="manual", table_log2=9, updates_per_rank=24, batch=8
        )
        r = run_gups(
            cfg, ranks=8, n_nodes=n_nodes, conduit=conduit,
            version=version, machine="generic",
        )
        assert r.error_fraction <= HPCC_TOLERANCE

    def test_raw_variant_rejects_multinode(self):
        from repro.apps.gups import _gups_body
        from repro.runtime.runtime import spmd_run as _run

        cfg = GupsConfig(
            variant="raw", table_log2=9, updates_per_rank=8, batch=8
        )
        with pytest.raises(ValueError, match="single-node"):
            _run(
                lambda: _gups_body(cfg),
                ranks=2,
                n_nodes=2,
                conduit="udp",
            )

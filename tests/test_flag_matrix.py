"""Flag-matrix equivalence: small GUPS across every feature-flag combo.

One small ``agg``-variant GUPS run (4 ranks / 2 nodes / udp) is executed
for every combination of ``{eager, defer} x 2^2`` feature flags:
``am_aggregation`` and ``obs_spans``.  Expectations:

===================  =====================================================
axis                 expectation
===================  =====================================================
(all combos)         checksum equals the HPCC oracle — no flag may change
                     program semantics
obs_spans            pure observation: toggling it leaves ``solve_ns``
                     and ``am_injects`` bit-identical
am_aggregation       strictly fewer ``AM_INJECT`` charges than the same
                     combo without it (bundling), and bundle headers
                     appear; checksum unchanged
===================  =====================================================

Timing (``solve_ns``) is *expected* to differ across the notification
and aggregation axes — that is the paper's whole subject — so no
cross-axis timing equality is asserted beyond the rows above.

Two further axis families are swept separately below: the mechanisms
(the ``sched_wake_list`` flag and per-charge versus batched cost
accounting — pure implementation strategies, bit-identical on every
observable) and ``cx_continuations``
(a *gate* on the continuation/counter completion kinds: bit-identical
for workloads that request neither, documented expectations for the
``cont`` workload that does).  A Hypothesis property at the end draws
from the whole flag space: every one of the 11 ``FeatureFlags`` fields,
any mix of the build booleans, any GUPS variant and topology.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.gups import GUPS_VARIANTS, HPCC_TOLERANCE, GupsConfig, run_gups
from repro.runtime.config import FeatureFlags, flags_for
from tests.conftest import VD, VE, unbatched

AXES = (
    "am_aggregation",
    "obs_spans",
)

CFG = GupsConfig(variant="agg", table_log2=8, updates_per_rank=16, batch=8)


def combo_key(version, on):
    return (version, frozenset(on))


@pytest.fixture(scope="module")
def matrix():
    """All 8 runs, keyed by (version, frozenset(enabled flag names))."""
    results = {}
    for version in (VE, VD):
        for bits in itertools.product((False, True), repeat=len(AXES)):
            on = {name for name, bit in zip(AXES, bits) if bit}
            flags = flags_for(version).replace(
                **{name: True for name in on}
            )
            results[combo_key(version, on)] = run_gups(
                CFG,
                ranks=4,
                n_nodes=2,
                conduit="udp",
                version=version,
                machine="generic",
                flags=flags,
            )
    return results


def combos(*, without=(), with_=()):
    """All (version, on-set) keys containing ``with_`` and none of
    ``without``."""
    out = []
    for version in (VE, VD):
        for bits in itertools.product((False, True), repeat=len(AXES)):
            on = {name for name, bit in zip(AXES, bits) if bit}
            if set(with_) <= on and not (set(without) & on):
                out.append((version, on))
    return out


class TestMatrix:
    def test_every_combo_matches_the_oracle(self, matrix):
        bad = [
            key for key, res in matrix.items() if not res.matches_oracle
        ]
        assert not bad, f"checksum mismatches: {bad}"

    def test_obs_spans_is_pure_observation(self, matrix):
        for version, on in combos(without=("obs_spans",)):
            base = matrix[combo_key(version, on)]
            obs = matrix[combo_key(version, on | {"obs_spans"})]
            assert obs.solve_ns == base.solve_ns, (version, on)
            assert obs.am_injects == base.am_injects, (version, on)
            assert obs.checksum == base.checksum, (version, on)

    def test_aggregation_bundles_reduce_injections(self, matrix):
        for version, on in combos(without=("am_aggregation",)):
            base = matrix[combo_key(version, on)]
            agg = matrix[combo_key(version, on | {"am_aggregation"})]
            assert agg.am_injects < base.am_injects, (version, on)
            assert agg.am_bundles > 0, (version, on)
            assert base.am_bundles == 0, (version, on)
            assert agg.checksum == base.checksum, (version, on)


# Mechanism axes: the ``sched_wake_list`` flag and batched cost accounting
# (on for every noise-free run; the unbatched arm patches
# ``CostModel.enable_batching`` to a no-op) are pure implementation
# strategies — toggling either must be bit-identical
# on *every* observable (timing included), unlike the semantic axes above
# where only checksums are pinned.  Swept against the flag that most
# reshapes scheduling/progress behavior.
MECH_BASE_AXES = (
    "am_aggregation",
)


class TestMechanismFlagsBitIdentical:
    @pytest.fixture(scope="class")
    def mech_matrix(self):
        """(version, on-set, variant) -> result, where variant is
        ``base`` (defaults: wake list + batching on), ``scan``
        (sched_wake_list off), or ``unbatched`` (per-charge clock
        advancing)."""
        results = {}
        variants = {
            "base": ({}, False),
            "scan": ({"sched_wake_list": False}, False),
            "unbatched": ({}, True),
        }
        for version in (VE, VD):
            for bits in itertools.product(
                (False, True), repeat=len(MECH_BASE_AXES)
            ):
                on = {
                    name for name, bit in zip(MECH_BASE_AXES, bits) if bit
                }
                for vname, (overrides, per_charge) in variants.items():
                    flags = flags_for(version).replace(
                        **{name: True for name in on}, **overrides
                    )
                    with pytest.MonkeyPatch.context() as mp:
                        if per_charge:
                            unbatched(mp)
                        results[(version, frozenset(on), vname)] = run_gups(
                            CFG,
                            ranks=4,
                            n_nodes=2,
                            conduit="udp",
                            version=version,
                            machine="generic",
                            flags=flags,
                        )
        return results

    def _assert_identical(self, mech_matrix, variant):
        for (version, on, vname), res in mech_matrix.items():
            if vname != "base":
                continue
            other = mech_matrix[(version, on, variant)]
            key = (version, sorted(on))
            assert other.solve_ns == res.solve_ns, key
            assert other.checksum == res.checksum, key
            assert other.am_injects == res.am_injects, key
            assert other.progress_polls == res.progress_polls, key

    def test_wake_list_bit_identical(self, mech_matrix):
        self._assert_identical(mech_matrix, "scan")

    def test_cost_batching_bit_identical(self, mech_matrix):
        self._assert_identical(mech_matrix, "unbatched")


# The ``cx_continuations`` axis: the flag *gates* two new completion
# kinds (continuations, counters — DESIGN.md §11) but must be perfectly
# inert for workloads that do not request them — bit-identical on every
# observable, timing included, like the mechanism flags above.  For a
# workload that *does* use them (the ``cont`` GUPS variant), the
# documented expectations hold across the mechanism combos: the oracle
# checksum is preserved, the continuation-dispatch charge appears, and
# no future/promise cells are allocated for the tracked updates.
CX_BASE_AXES = (
    "am_aggregation",
)

CX_CFG = GupsConfig(
    variant="cont", table_log2=8, updates_per_rank=16, batch=8
)


def _cx_combos():
    for version in (VE, VD):
        for bits in itertools.product(
            (False, True), repeat=len(CX_BASE_AXES)
        ):
            yield version, {
                name for name, bit in zip(CX_BASE_AXES, bits) if bit
            }


class TestCxContinuationsDimension:
    @pytest.fixture(scope="class")
    def cx_off_matrix(self):
        """(version, on-set, flag?) -> agg-workload result: the workload
        issues no continuation/counter requests, so the flag is dead."""
        results = {}
        for version, on in _cx_combos():
            for cx in (False, True):
                flags = flags_for(version).replace(
                    **{name: True for name in on}, cx_continuations=cx
                )
                results[(version, frozenset(on), cx)] = run_gups(
                    CFG,
                    ranks=4,
                    n_nodes=2,
                    conduit="udp",
                    version=version,
                    machine="generic",
                    flags=flags,
                )
        return results

    @pytest.fixture(scope="class")
    def cx_on_matrix(self):
        """(version, on-set) -> cont-workload result, flag on."""
        results = {}
        for version, on in _cx_combos():
            flags = flags_for(version).replace(
                **{name: True for name in on}, cx_continuations=True
            )
            results[(version, frozenset(on))] = run_gups(
                CX_CFG,
                ranks=4,
                n_nodes=2,
                conduit="udp",
                version=version,
                machine="generic",
                flags=flags,
            )
        return results

    def test_flag_bit_identical_without_requests(self, cx_off_matrix):
        for (version, on, cx), res in cx_off_matrix.items():
            if cx:
                continue
            other = cx_off_matrix[(version, on, True)]
            key = (version, sorted(on))
            assert other.solve_ns == res.solve_ns, key
            assert other.checksum == res.checksum, key
            assert other.am_injects == res.am_injects, key
            assert other.progress_polls == res.progress_polls, key

    def test_cont_workload_matches_oracle_everywhere(self, cx_on_matrix):
        bad = [
            (version, sorted(on))
            for (version, on), res in cx_on_matrix.items()
            if not res.matches_oracle
        ]
        assert not bad, f"checksum mismatches: {bad}"

    def test_cont_spans_are_eager_class_on_defer_build(self):
        """The documented flag-on expectation: continuation-tracked
        updates never park, so their notification gaps land in the
        ``eager`` class even on the deferred-notification build."""
        res = run_gups(
            CX_CFG, ranks=4, n_nodes=2, conduit="udp", version=VD,
            machine="generic",
            flags=flags_for(VD).replace(
                cx_continuations=True, obs_spans=True
            ),
        )
        assert res.matches_oracle
        modes = {m for (m, _loc) in res.obs_stats.gaps if m != "none"}
        assert modes == {"eager"}, modes


# The whole flag space: a Hypothesis property over all 11 fields.  Each
# draw mixes the seven build booleans freely (not just the three named
# builds) and runs any GUPS variant on a one-node smp world or a two-node
# ibv/udp world; every draw runs to completion within the HPCC tolerance.
BUILD_FIELDS = (
    "eager_notification",
    "eager_factories_available",
    "elide_local_rma_alloc",
    "constexpr_is_local_smp",
    "ready_future_shared_cell",
    "when_all_shortcuts",
    "nonvalue_fetching_atomics",
)
SWITCH_FIELDS = (
    "am_aggregation",
    "obs_spans",
    "sched_wake_list",
    "cx_continuations",
)

TOPOLOGIES = (("smp", 1), ("ibv", 2), ("udp", 2))


@st.composite
def flag_fields(draw):
    return {name: draw(st.booleans()) for name in BUILD_FIELDS + SWITCH_FIELDS}


class TestFlagSpaceProperty:
    def test_draws_cover_every_field(self):
        drawn = BUILD_FIELDS + SWITCH_FIELDS
        names = [f.name for f in dataclasses.fields(FeatureFlags)]
        assert sorted(drawn) == sorted(names)
        assert len(names) == 11

    @settings(max_examples=100, deadline=None)
    @given(
        kw=flag_fields(),
        variant=st.sampled_from(GUPS_VARIANTS),
        topology=st.sampled_from(TOPOLOGIES),
    )
    def test_every_draw_is_rejected_or_runs(self, kw, variant, topology):
        conduit, n_nodes = ("smp", 1) if variant == "raw" else topology
        res = run_gups(
            GupsConfig(variant, table_log2=10, updates_per_rank=16, batch=4),
            ranks=4,
            n_nodes=n_nodes,
            conduit=conduit,
            machine="generic",
            flags=FeatureFlags(**kw),
        )
        assert res.error_fraction <= HPCC_TOLERANCE

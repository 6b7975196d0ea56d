"""Unit tests for the cost model and machine profiles."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostAction, CostModel
from repro.sim.machines import (
    GENERIC,
    IBM,
    INTEL,
    MARVELL,
    profile_by_name,
)


@pytest.fixture
def model():
    return CostModel(GENERIC, VirtualClock())


class TestCharge:
    def test_charge_advances_clock(self, model):
        ns = model.charge(CostAction.MEMCPY_8B)
        assert ns == GENERIC.cost_ns(CostAction.MEMCPY_8B)
        assert model.clock.now_ns == ns

    def test_charge_counts(self, model):
        model.charge(CostAction.PROGRESS_POLL)
        model.charge(CostAction.PROGRESS_POLL)
        assert model.count(CostAction.PROGRESS_POLL) == 2

    def test_charge_times(self, model):
        model.charge(CostAction.CPU_LOAD, times=5)
        assert model.count(CostAction.CPU_LOAD) == 5
        assert model.clock.now_ns == 5 * GENERIC.cost_ns(CostAction.CPU_LOAD)

    def test_charge_bytes_scales(self, model):
        ns = model.charge_bytes(CostAction.MEMCPY_PER_BYTE, 100)
        assert ns == pytest.approx(
            100 * GENERIC.cost_ns(CostAction.MEMCPY_PER_BYTE)
        )

    def test_snapshot_is_a_copy(self, model):
        model.charge(CostAction.CPU_LOAD)
        snap = model.snapshot()
        model.charge(CostAction.CPU_LOAD)
        assert snap[CostAction.CPU_LOAD] == 1
        assert model.count(CostAction.CPU_LOAD) == 2

    def test_reset_counts_keeps_clock(self, model):
        model.charge(CostAction.CPU_LOAD)
        t = model.clock.now_ns
        model.reset_counts()
        assert model.count(CostAction.CPU_LOAD) == 0
        assert model.clock.now_ns == t


class TestDenseIds:
    def test_ids_are_declaration_positions(self):
        actions = tuple(CostAction)
        assert [a.idx for a in actions] == list(range(len(actions)))
        for a in actions:
            assert actions[a.idx] is a

    def test_members_keep_names_and_values(self):
        assert CostAction.LOCALITY_BRANCH.value == "locality_branch"
        assert CostAction("memcpy_8b") is CostAction.MEMCPY_8B


#: one charge: (action, "times" | "bytes", times or nbytes)
_charges = st.lists(
    st.tuples(
        st.sampled_from(tuple(CostAction)),
        st.sampled_from(("times", "bytes")),
        st.integers(0, 5000),
    ),
    max_size=60,
)


def _model(batching: bool):
    model = CostModel(INTEL, VirtualClock())
    if batching:
        model.enable_batching()
    return model


def _apply(model, action, kind, n):
    if kind == "times":
        return model.charge(action, n)
    return model.charge_bytes(action, n)


class TestChargePaths:
    """The one-branch batched path and the unbatched path are the same
    accounting: identical clock units, counts and per-call return values
    for any charge sequence."""

    @settings(max_examples=200, deadline=None)
    @given(ops=_charges)
    def test_batched_and_unbatched_paths_agree(self, ops):
        batched = _model(batching=True)
        plain = _model(batching=False)
        for action, kind, n in ops:
            assert _apply(batched, action, kind, n) == _apply(
                plain, action, kind, n
            )
        assert batched._batching and not plain._batching
        assert batched.clock.now_ns == plain.clock.now_ns
        expected = _expected_counts(ops)
        assert batched.snapshot() == expected
        assert plain.snapshot() == expected


def _expected_counts(ops):
    out = Counter()
    for action, kind, n in ops:
        out[action] += n if kind == "times" else 1
    return out


class TestProfiles:
    def test_lookup_by_name(self):
        assert profile_by_name("intel") is INTEL
        assert profile_by_name("IBM") is IBM
        assert profile_by_name("Marvell") is MARVELL

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            profile_by_name("cray")

    def test_unlisted_action_is_free(self):
        assert GENERIC.cost_ns(CostAction.NETWORK_LATENCY) == 1000.0

    def test_network_latency_special_cased(self):
        assert INTEL.cost_ns(CostAction.NETWORK_LATENCY) == (
            INTEL.network_latency_ns
        )

    @pytest.mark.parametrize("profile", [INTEL, IBM, MARVELL, GENERIC])
    def test_all_costs_nonnegative(self, profile):
        for action, ns in profile.costs_ns.items():
            assert ns >= 0, action

    def test_with_costs_override(self):
        p = GENERIC.with_costs(heap_alloc_promise_cell=0.0)
        assert p.cost_ns(CostAction.HEAP_ALLOC_PROMISE_CELL) == 0.0
        # original untouched (frozen dataclass semantics)
        assert GENERIC.cost_ns(CostAction.HEAP_ALLOC_PROMISE_CELL) > 0

    def test_with_costs_unknown_key_raises(self):
        with pytest.raises(ValueError):
            GENERIC.with_costs(not_an_action=1.0)

    def test_paper_platform_metadata(self):
        assert INTEL.default_conduit == "smp"
        assert IBM.default_conduit == "udp"
        assert MARVELL.default_conduit == "udp"
        assert (INTEL.cores_per_node, IBM.cores_per_node,
                MARVELL.cores_per_node) == (40, 44, 64)

    def test_cost_structure_supports_paper_shapes(self):
        """The qualitative relations the calibration relies on."""
        for p in (INTEL, IBM, MARVELL):
            # deferred notification must cost something beyond the branch
            q = (
                p.cost_ns(CostAction.PROGRESS_QUEUE_ENQUEUE)
                + p.cost_ns(CostAction.PROGRESS_DISPATCH)
            )
            assert q > p.cost_ns(CostAction.LOCALITY_BRANCH)
            # a promise-cell allocation is a dominant per-op cost
            assert p.cost_ns(CostAction.HEAP_ALLOC_PROMISE_CELL) > 5 * (
                p.cost_ns(CostAction.MEMCPY_8B)
            )
        # IBM's allocator/atomics are modeled as the priciest (→ its 95%
        # put speedup, 15% fadd speedup, ~90% non-value gap)
        assert IBM.cost_ns(CostAction.HEAP_ALLOC_PROMISE_CELL) > INTEL.cost_ns(
            CostAction.HEAP_ALLOC_PROMISE_CELL
        )
        assert IBM.cost_ns(CostAction.CPU_ATOMIC_RMW) > INTEL.cost_ns(
            CostAction.CPU_ATOMIC_RMW
        )

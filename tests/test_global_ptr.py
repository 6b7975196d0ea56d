"""Unit tests for global pointers, locality queries, and downcasts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import new_, new_array
from repro.errors import InvalidGlobalPointer, LocalityError
from repro.memory.global_ptr import GlobalPtr
from repro.memory.segment import type_spec
from repro.runtime.config import Version
from repro.sim.costmodel import CostAction


class TestNullAndIdentity:
    def test_null_properties(self):
        assert GlobalPtr.NULL.is_null
        assert not bool(GlobalPtr.NULL)

    def test_where_on_null_raises(self):
        with pytest.raises(InvalidGlobalPointer):
            GlobalPtr.NULL.where()

    def test_immutability(self):
        g = GlobalPtr(0, 8, "u64")
        with pytest.raises(AttributeError):
            g.rank = 1

    def test_equality_and_hash(self):
        a = GlobalPtr(0, 8, "u64")
        b = GlobalPtr(0, 8, "u64")
        c = GlobalPtr(0, 16, "u64")
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a pointer"

    def test_where(self, ctx):
        g = new_("u64")
        assert g.where() == ctx.rank


class TestArithmetic:
    def test_add_moves_by_element_size(self):
        g = GlobalPtr(0, 8, "u64")
        assert (g + 3).offset == 8 + 24

    def test_radd(self):
        g = GlobalPtr(0, 0, "u64")
        assert (2 + g).offset == 16

    def test_sub_int(self):
        g = GlobalPtr(0, 80, "u64")
        assert (g - 2).offset == 64

    def test_pointer_difference(self):
        base = GlobalPtr(0, 0, "u64")
        assert (base + 5) - base == 5

    def test_difference_requires_same_rank(self):
        a = GlobalPtr(0, 0, "u64")
        b = GlobalPtr(1, 0, "u64")
        with pytest.raises(InvalidGlobalPointer):
            _ = a - b

    def test_ordering_within_rank(self):
        a = GlobalPtr(0, 0, "u64")
        assert a < a + 1

    def test_ordering_across_ranks_rejected(self):
        with pytest.raises(InvalidGlobalPointer):
            _ = GlobalPtr(0, 0, "u64") < GlobalPtr(1, 8, "u64")

    def test_arithmetic_on_null_rejected(self):
        with pytest.raises(InvalidGlobalPointer):
            _ = GlobalPtr.NULL + 1

    @settings(max_examples=200, deadline=None)
    @given(
        rank=st.integers(0, 1 << 20),
        offset=st.integers(0, 1 << 40),
        name=st.sampled_from(("i64", "u64", "f64", "i32", "u32", "u8")),
        n=st.integers(-(1 << 20), 1 << 20),
    )
    def test_arithmetic_equals_constructed_pointer(self, rank, offset, name,
                                                   n):
        p = GlobalPtr(rank, offset, name)
        ts = type_spec(name)
        want = GlobalPtr(rank, offset + n * ts.size, name)
        for got in (p + n, n + p, p - (-n)):
            assert type(got) is GlobalPtr
            assert got == want and hash(got) == hash(want)
            assert (got.rank, got.offset) == (want.rank, want.offset)
            assert got.ts is want.ts is ts
            assert got - p == n
            with pytest.raises(AttributeError):
                got.offset = 0
            with pytest.raises(AttributeError):
                got.extra = 0
        # the operand is untouched
        assert (p.rank, p.offset, p.ts) == (rank, offset, ts)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(-(1 << 20), 1 << 20))
    def test_null_arithmetic_raises(self, n):
        for op in (lambda: GlobalPtr.NULL + n, lambda: n + GlobalPtr.NULL,
                   lambda: GlobalPtr.NULL - n):
            with pytest.raises(InvalidGlobalPointer):
                op()


class TestLocality:
    def test_own_allocation_is_local(self, ctx):
        assert new_("u64").is_local()

    def test_null_is_not_local(self, ctx):
        assert not GlobalPtr.NULL.is_local()

    def test_local_downcast_roundtrip(self, ctx):
        g = new_("i64", -5)
        ref = g.local()
        assert ref.read() == -5
        ref.write(10)
        assert ref[0] == 10

    def test_downcast_indexing(self, ctx):
        g = new_array("u64", 4, fill=9)
        ref = g.local()
        ref[2] = 1
        assert [ref[i] for i in range(4)] == [9, 9, 1, 9]

    def test_null_downcast_rejected(self, ctx):
        with pytest.raises(InvalidGlobalPointer):
            GlobalPtr.NULL.local()

    def test_constexpr_smp_locality_check_is_free(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_6_EAGER, conduit="smp")
        from repro import new_ as alloc

        g = alloc("u64")
        before = c.costs.count(CostAction.LOCALITY_BRANCH)
        g.is_local()
        assert c.costs.count(CostAction.LOCALITY_BRANCH) == before

    def test_2021_3_0_locality_check_charges_branch(self, versioned_ctx):
        c = versioned_ctx(Version.V2021_3_0, conduit="smp")
        from repro import new_ as alloc

        g = alloc("u64")
        before = c.costs.count(CostAction.LOCALITY_BRANCH)
        g.is_local()
        assert c.costs.count(CostAction.LOCALITY_BRANCH) == before + 1

    def test_downcast_charges(self, ctx):
        g = new_("u64")
        before = ctx.costs.count(CostAction.GPTR_DOWNCAST)
        g.local()
        assert ctx.costs.count(CostAction.GPTR_DOWNCAST) == before + 1


class TestLocalRefViews:
    def test_view_aliases_segment(self, ctx):
        g = new_array("u64", 8)
        view = g.local().view(8)
        view[5] = 123
        assert (g + 5).local().read() == 123

    def test_load_store_charges(self, ctx):
        g = new_("u64")
        ref = g.local()
        l0 = ctx.costs.count(CostAction.CPU_LOAD)
        s0 = ctx.costs.count(CostAction.CPU_STORE)
        ref.read()
        ref.write(1)
        assert ctx.costs.count(CostAction.CPU_LOAD) == l0 + 1
        assert ctx.costs.count(CostAction.CPU_STORE) == s0 + 1

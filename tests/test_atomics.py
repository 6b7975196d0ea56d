"""Tests for atomic domains, including the new non-value fetching variants."""

import pytest

from repro import AtomicDomain, Promise, new_, operation_cx, rank_me
from repro.errors import AtomicDomainError, InvalidGlobalPointer
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.config import Version
from repro.runtime.runtime import spmd_run
from repro.sim.costmodel import CostAction
from tests.conftest import ALL_VERSIONS

V0 = Version.V2021_3_0
VE = Version.V2021_3_6_EAGER
VD = Version.V2021_3_6_DEFER


@pytest.fixture
def ad():
    return AtomicDomain(
        {
            "load", "store", "add", "sub", "inc", "dec",
            "fetch_add", "fetch_sub", "fetch_inc", "fetch_dec",
            "bit_and", "bit_or", "bit_xor",
            "fetch_bit_and", "fetch_bit_or", "fetch_bit_xor",
            "min", "max", "fetch_min", "fetch_max", "compare_exchange",
        },
        "u64",
    )


class TestArithmetic:
    def test_load_store(self, ctx, ad):
        g = new_("u64", 3)
        ad.store(g, 10).wait()
        assert ad.load(g).wait() == 10

    def test_add_sub(self, ctx, ad):
        g = new_("u64", 100)
        ad.add(g, 5).wait()
        ad.sub(g, 3).wait()
        assert ad.load(g).wait() == 102

    def test_fetch_add_returns_old(self, ctx, ad):
        g = new_("u64", 7)
        assert ad.fetch_add(g, 3).wait() == 7
        assert ad.load(g).wait() == 10

    def test_fetch_sub(self, ctx, ad):
        g = new_("u64", 10)
        assert ad.fetch_sub(g, 4).wait() == 10
        assert ad.load(g).wait() == 6

    def test_inc_dec(self, ctx, ad):
        g = new_("u64", 5)
        ad.inc(g).wait()
        ad.inc(g).wait()
        ad.dec(g).wait()
        assert ad.load(g).wait() == 6

    def test_fetch_inc_fetch_dec(self, ctx, ad):
        g = new_("u64", 1)
        assert ad.fetch_inc(g).wait() == 1
        assert ad.fetch_dec(g).wait() == 2
        assert ad.load(g).wait() == 1

    def test_u64_wraparound(self, ctx, ad):
        g = new_("u64", (1 << 64) - 1)
        ad.add(g, 1).wait()
        assert ad.load(g).wait() == 0

    def test_signed_wraparound(self, ctx):
        ad = AtomicDomain({"add", "load"}, "i64")
        g = new_("i64", (1 << 63) - 1)
        ad.add(g, 1).wait()
        assert ad.load(g).wait() == -(1 << 63)

    def test_bitwise(self, ctx, ad):
        g = new_("u64", 0b1100)
        ad.bit_and(g, 0b1010).wait()
        assert ad.load(g).wait() == 0b1000
        ad.bit_or(g, 0b0001).wait()
        assert ad.load(g).wait() == 0b1001
        ad.bit_xor(g, 0b1111).wait()
        assert ad.load(g).wait() == 0b0110

    def test_fetch_bitwise(self, ctx, ad):
        g = new_("u64", 0b11)
        assert ad.fetch_bit_xor(g, 0b01).wait() == 0b11
        assert ad.load(g).wait() == 0b10
        assert ad.fetch_bit_or(g, 0b101).wait() == 0b10
        assert ad.load(g).wait() == 0b111
        assert ad.fetch_bit_and(g, 0b110).wait() == 0b111
        assert ad.load(g).wait() == 0b110

    def test_min_max(self, ctx, ad):
        g = new_("u64", 50)
        ad.min(g, 10).wait()
        assert ad.load(g).wait() == 10
        ad.max(g, 99).wait()
        assert ad.load(g).wait() == 99
        assert ad.fetch_min(g, 98).wait() == 99
        assert ad.fetch_max(g, 1).wait() == 98

    def test_compare_exchange_success(self, ctx, ad):
        g = new_("u64", 5)
        assert ad.compare_exchange(g, 5, 9).wait() == 5
        assert ad.load(g).wait() == 9

    def test_compare_exchange_failure(self, ctx, ad):
        g = new_("u64", 5)
        assert ad.compare_exchange(g, 4, 9).wait() == 5
        assert ad.load(g).wait() == 5

    def test_float_domain(self, ctx):
        ad = AtomicDomain({"add", "load", "fetch_add"}, "f64")
        g = new_("f64", 1.5)
        assert ad.fetch_add(g, 0.25).wait() == 1.5
        assert ad.load(g).wait() == 1.75


#: (op, operands) for each ``fetch_*`` op but ``fetch_add``, whose
#: ``_into`` form ``test_fetch_add_into`` checks
FETCH_OPS = [
    ("fetch_sub", (5,)),
    ("fetch_inc", ()),
    ("fetch_dec", ()),
    ("fetch_bit_and", (0b0110,)),
    ("fetch_bit_or", (0b0110,)),
    ("fetch_bit_xor", (0b0110,)),
    ("fetch_min", (7,)),
    ("fetch_max", (40,)),
]


class TestNonValueFetching:
    """§III-B: fetch-into variants write the value to memory."""

    @pytest.mark.parametrize(
        "op, operands", FETCH_OPS, ids=[op for op, _ in FETCH_OPS]
    )
    def test_into_form_matches_value_form(self, ctx, ad, op, operands):
        """The result slot receives exactly what the value form returns,
        the target ends in the same state, and the future is value-less."""
        by_value, by_into = new_("u64", 0b1100), new_("u64", 0b1100)
        result = new_("u64")
        fetched = getattr(ad, op)(by_value, *operands).wait()
        fut = getattr(ad, op + "_into")(by_into, *operands, result)
        assert fut.nvalues == 0
        fut.wait()
        assert result.local().read() == fetched
        assert ad.load(by_into).wait() == ad.load(by_value).wait()

    def test_fetch_add_into(self, ctx, ad):
        g = new_("u64", 40)
        result = new_("u64", 0)
        fut = ad.fetch_add_into(g, 2, result)
        fut.wait()
        assert result.local().read() == 40
        assert ad.load(g).wait() == 42

    def test_load_into(self, ctx, ad):
        g = new_("u64", 11)
        result = new_("u64")
        ad.load_into(g, result).wait()
        assert result.local().read() == 11

    def test_compare_exchange_into(self, ctx, ad):
        g = new_("u64", 5)
        result = new_("u64")
        ad.compare_exchange_into(g, 5, 8, result).wait()
        assert result.local().read() == 5
        assert ad.load(g).wait() == 8

    def test_into_future_is_valueless(self, ctx, ad):
        g = new_("u64")
        result = new_("u64")
        fut = ad.fetch_add_into(g, 1, result)
        assert fut.nvalues == 0
        fut.wait()

    def test_into_unavailable_on_2021_3_0(self, versioned_ctx):
        versioned_ctx(V0)
        ad = AtomicDomain({"fetch_add"}, "u64")
        g = new_("u64")
        result = new_("u64")
        with pytest.raises(AtomicDomainError):
            ad.fetch_add_into(g, 1, result)

    def test_eager_into_allocates_nothing(self, versioned_ctx):
        """The §III-B payoff: non-value fetch + eager = zero allocations."""
        c = versioned_ctx(VE)
        ad = AtomicDomain({"fetch_add"}, "u64")
        g = new_("u64")
        result = new_("u64")
        before = c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL)
        ad.fetch_add_into(g, 1, result).wait()
        assert c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL) == before

    def test_eager_value_fetch_allocates_once(self, versioned_ctx):
        c = versioned_ctx(VE)
        ad = AtomicDomain({"fetch_add"}, "u64")
        g = new_("u64")
        before = c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL)
        ad.fetch_add(g, 1).wait()
        assert (
            c.costs.count(CostAction.HEAP_ALLOC_PROMISE_CELL) == before + 1
        )

    def test_into_nonfetching_op_rejected(self, ctx, ad):
        g = new_("u64")
        with pytest.raises(AtomicDomainError):
            ad._issue("add", g, 1, result_into=new_("u64"))


class TestDomainRules:
    def test_op_not_in_domain(self, ctx):
        ad = AtomicDomain({"add"}, "u64")
        g = new_("u64")
        with pytest.raises(AtomicDomainError):
            ad.fetch_add(g, 1)

    def test_unknown_op_name(self, ctx):
        with pytest.raises(AtomicDomainError):
            AtomicDomain({"swizzle"}, "u64")

    def test_bitwise_on_float_rejected(self, ctx):
        with pytest.raises(AtomicDomainError):
            AtomicDomain({"bit_xor"}, "f64")

    def test_type_mismatch(self, ctx, ad):
        g = new_("i64")
        with pytest.raises(AtomicDomainError):
            ad.add(g, 1)

    def test_null_target(self, ctx, ad):
        with pytest.raises(InvalidGlobalPointer):
            ad.add(GlobalPtr.NULL, 1)

    def test_use_after_destroy(self, ctx, ad):
        g = new_("u64")
        ad.destroy()
        with pytest.raises(AtomicDomainError):
            ad.add(g, 1)


class TestNotificationSemantics:
    def test_eager_amo_ready_at_initiation(self, versioned_ctx):
        versioned_ctx(VE)
        ad = AtomicDomain({"add"}, "u64")
        g = new_("u64")
        assert ad.add(g, 1).is_ready()

    def test_defer_amo_needs_progress(self, versioned_ctx):
        ctx = versioned_ctx(VD)
        ad = AtomicDomain({"add"}, "u64")
        g = new_("u64")
        fut = ad.add(g, 1)
        assert not fut.is_ready()
        assert g.local().read() == 1  # the RMW itself was synchronous
        ctx.progress()
        assert fut.is_ready()

    def test_promise_tracking(self, ctx):
        ad = AtomicDomain({"bit_xor"}, "u64")
        g = new_("u64", 0)
        p = Promise()
        for i in range(5):
            ad.bit_xor(g, 1 << i, operation_cx.as_promise(p))
        p.finalize().wait()
        assert ad_load_value(g) == 0b11111


def ad_load_value(g):
    return AtomicDomain({"load"}, "u64").load(g).wait()


@pytest.mark.parametrize("version", ALL_VERSIONS)
class TestCrossRank:
    def test_amo_on_peer_memory(self, version):
        def body():
            from repro import barrier

            ad = AtomicDomain({"add", "load"}, "u64")
            g = new_("u64", 0)
            barrier()
            target = GlobalPtr(0, g.offset, g.ts)  # everyone hits rank 0
            ad.add(target, 1).wait()
            barrier()
            if rank_me() == 0:
                return ad.load(g).wait()
            return None

        res = spmd_run(body, ranks=4, version=version)
        assert res.values[0] == 4

    def test_fetch_add_claims_unique_slots(self, version):
        """The mailbox-cursor idiom used by the matching application."""

        def body():
            from repro import barrier

            ad = AtomicDomain({"fetch_add"}, "u64")
            g = new_("u64", 0)
            barrier()
            target = GlobalPtr(0, g.offset, g.ts)
            slots = [int(ad.fetch_add(target, 1).wait()) for _ in range(3)]
            barrier()
            return slots

        res = spmd_run(body, ranks=4, version=version)
        all_slots = [s for v in res.values for s in v]
        assert sorted(all_slots) == list(range(12))

"""Property-based round-trip tests across serialization boundaries:
mailbox message packing, and the distributed stencil vs its serial
oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.matching import pack_msg, unpack_msg
from repro.apps.stencil import StencilConfig, run_stencil


class TestMessagePackingProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.integers(1, 2),
        a=st.integers(0, (1 << 30) - 1),
        b=st.integers(0, (1 << 30) - 1),
    )
    def test_pack_unpack_identity(self, kind, a, b):
        assert unpack_msg(pack_msg(kind, a, b)) == (kind, a, b)

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.tuples(
            st.integers(1, 2),
            st.integers(0, (1 << 30) - 1),
            st.integers(0, (1 << 30) - 1),
        ),
        y=st.tuples(
            st.integers(1, 2),
            st.integers(0, (1 << 30) - 1),
            st.integers(0, (1 << 30) - 1),
        ),
    )
    def test_packing_is_injective(self, x, y):
        if x != y:
            assert pack_msg(*x) != pack_msg(*y)

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.integers(1, 2),
        a=st.integers(0, (1 << 30) - 1),
        b=st.integers(0, (1 << 30) - 1),
    )
    def test_packed_word_fits_u64(self, kind, a, b):
        assert 0 <= pack_msg(kind, a, b) < (1 << 64)


class TestStencilProperties:
    @settings(max_examples=8, deadline=None)
    @given(
        blocks=st.integers(2, 8),
        ranks=st.sampled_from([1, 2, 4]),
        iters=st.integers(1, 12),
    )
    def test_distributed_always_matches_serial(self, blocks, ranks, iters):
        n = blocks * 8 * ranks  # divisible by any chosen rank count
        cfg = StencilConfig(n=n, iterations=iters)
        r = run_stencil(cfg, ranks=ranks, machine="generic")
        assert r.matches_serial

"""Unit tests for shared segments and the type registry."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SegmentError
from repro.memory.segment import Segment, type_spec


@pytest.fixture
def seg():
    return Segment(owner_rank=0, size_bytes=1024)


class TestTypeSpec:
    @pytest.mark.parametrize(
        "name,size",
        [("i64", 8), ("u64", 8), ("f64", 8), ("i32", 4), ("u32", 4), ("u8", 1)],
    )
    def test_sizes(self, name, size):
        assert type_spec(name).size == size

    def test_passthrough(self):
        ts = type_spec("u64")
        assert type_spec(ts) is ts

    def test_unknown(self):
        with pytest.raises(KeyError):
            type_spec("u128")


class TestConstruction:
    def test_zero_initialized(self, seg):
        assert seg.read_scalar(0, type_spec("u64")) == 0

    def test_size_must_be_multiple_of_8(self):
        with pytest.raises(ValueError):
            Segment(0, 1001)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Segment(0, 0)


class TestScalar:
    def test_roundtrip_i64(self, seg):
        ts = type_spec("i64")
        seg.write_scalar(16, ts, -42)
        assert seg.read_scalar(16, ts) == -42

    def test_roundtrip_f64(self, seg):
        ts = type_spec("f64")
        seg.write_scalar(8, ts, 3.25)
        assert seg.read_scalar(8, ts) == 3.25

    def test_u64_full_range(self, seg):
        ts = type_spec("u64")
        big = (1 << 64) - 1
        seg.write_scalar(0, ts, big)
        assert seg.read_scalar(0, ts) == big

    def test_returns_python_scalar(self, seg):
        ts = type_spec("u64")
        seg.write_scalar(0, ts, 5)
        v = seg.read_scalar(0, ts)
        assert type(v) is int

    def test_out_of_bounds(self, seg):
        with pytest.raises(SegmentError):
            seg.read_scalar(1024, type_spec("u64"))

    def test_negative_offset(self, seg):
        with pytest.raises(SegmentError):
            seg.read_scalar(-8, type_spec("u64"))

    def test_misaligned(self, seg):
        with pytest.raises(SegmentError):
            seg.write_scalar(4, type_spec("u64"), 1)

    def test_i32_alignment_is_4(self, seg):
        ts = type_spec("i32")
        seg.write_scalar(4, ts, 7)
        assert seg.read_scalar(4, ts) == 7


class TestArray:
    def test_roundtrip(self, seg):
        ts = type_spec("u64")
        seg.write_array(0, ts, [1, 2, 3])
        assert list(seg.read_array(0, ts, 3)) == [1, 2, 3]

    def test_read_is_a_copy(self, seg):
        ts = type_spec("u64")
        seg.write_array(0, ts, [1, 2])
        out = seg.read_array(0, ts, 2)
        out[0] = 99
        assert seg.read_scalar(0, ts) == 1

    def test_view_aliases_memory(self, seg):
        ts = type_spec("u64")
        view = seg.view_array(0, ts, 4)
        view[2] = 17
        assert seg.read_scalar(16, ts) == 17

    def test_overflowing_write(self, seg):
        ts = type_spec("u64")
        with pytest.raises(SegmentError):
            seg.write_array(1016, ts, [1, 2])

    def test_negative_count(self, seg):
        with pytest.raises(ValueError):
            seg.read_array(0, type_spec("u64"), -1)

    def test_2d_rejected(self, seg):
        with pytest.raises(ValueError):
            seg.write_array(0, type_spec("u64"), np.zeros((2, 2)))


class TestBytes:
    def test_roundtrip(self, seg):
        seg.write_bytes(3, b"hello")
        assert seg.read_bytes(3, 5) == b"hello"

    def test_unaligned_bytes_ok(self, seg):
        seg.write_bytes(1, b"\x01")
        assert seg.read_bytes(1, 1) == b"\x01"

    def test_bounds(self, seg):
        with pytest.raises(SegmentError):
            seg.write_bytes(1020, b"xxxxx")

    def test_typed_and_byte_views_agree(self, seg):
        ts = type_spec("u64")
        seg.write_scalar(0, ts, 0x0102030405060708)
        raw = seg.read_bytes(0, 8)
        assert int.from_bytes(raw, "little") == 0x0102030405060708


# ---------------------------------------------------------------------------
# the memoryview scalar path against numpy's
# ---------------------------------------------------------------------------


class _NumpyScalarSegment(Segment):
    """A segment whose scalar accessors are the numpy ones the memoryview
    casts replaced, verbatim: the reference for the property below."""

    def read_scalar(self, offset: int, ts):
        size = ts.size
        if offset < 0 or offset + size > self.size_bytes or offset % size:
            self._check(offset, size, size)
        return self._view(ts)[offset // size].item()

    def write_scalar(self, offset: int, ts, value) -> None:
        size = ts.size
        if offset < 0 or offset + size > self.size_bytes or offset % size:
            self._check(offset, size, size)
        self._view(ts)[offset // size] = value


_SIZE = 64
_TYPES = [type_spec(n) for n in ("i64", "u64", "f64", "i32", "u32", "u8")]
#: every type's range edges, one past them, and the special floats
_EDGES = [0, 1, -1, 255, 256, (1 << 31) - 1, 1 << 31, -(1 << 31),
          -(1 << 31) - 1, (1 << 32) - 1, 1 << 32, (1 << 63) - 1, 1 << 63,
          -(1 << 63), -(1 << 63) - 1, (1 << 64) - 1, 1 << 64, 1 << 1100,
          0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1.5, -2.5,
          True, False]
_VALUES = st.one_of(
    st.sampled_from(_EDGES),
    st.integers(-(1 << 66), 1 << 66),
    st.floats(width=64),
    st.builds(np.uint64, st.integers(0, (1 << 64) - 1)),
    st.builds(np.int64, st.integers(-(1 << 63), (1 << 63) - 1)),
    st.builds(np.int32, st.integers(-(1 << 31), (1 << 31) - 1)),
    st.builds(np.uint8, st.integers(0, 255)),
    st.builds(np.float64, st.floats(width=64)),
)


def _outcome(call):
    """``(("ok", result) or ("raised", exception type), warning types)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("ok", call())
        except Exception as exc:  # noqa: BLE001 - the type is the result
            result = ("raised", type(exc))
    return result, [w.category for w in caught]


def _bits(value):
    """A value's type and exact content (NaN payloads and the sign of
    zero included)."""
    if type(value) is float:
        return float, struct.pack("<d", value)
    return type(value), value


@settings(max_examples=300, deadline=None)
@given(init=st.binary(min_size=_SIZE, max_size=_SIZE), data=st.data())
def test_scalar_accessors_match_numpy(init, data):
    """Over random contents and every type, the memoryview accessors store
    the same bytes, return the same values and types, and raise (or warn)
    the same types as numpy; writes through either path are visible to
    the other."""
    seg, ref = Segment(0, _SIZE), _NumpyScalarSegment(0, _SIZE)
    seg.write_bytes(0, init)
    ref.write_bytes(0, init)
    for _ in range(data.draw(st.integers(1, 12))):
        ts = data.draw(st.sampled_from(_TYPES))
        offset = data.draw(st.one_of(
            st.integers(-1, _SIZE // ts.size).map(lambda i: i * ts.size),
            st.integers(-9, _SIZE + 8),
        ))
        kind = data.draw(st.sampled_from(["read", "write", "view"]))
        if kind == "read":
            got, want = (_outcome(lambda s=s: s.read_scalar(offset, ts))
                         for s in (seg, ref))
            if got[0][0] == "ok" and want[0][0] == "ok":
                got = (_bits(got[0][1]), got[1])
                want = (_bits(want[0][1]), want[1])
            assert got == want
            continue
        value = data.draw(_VALUES)
        if kind == "write":
            got, want = (
                _outcome(lambda s=s: s.write_scalar(offset, ts, value))
                for s in (seg, ref))
            assert got == want
            if got[0][0] == "ok":
                # numpy sees the memoryview's write
                assert _bits(seg.view_array(offset, ts, 1)[0].item()) == \
                    _bits(seg.read_scalar(offset, ts))
        else:
            # a numpy write the memoryview must see
            def write_view(s):
                s.view_array(offset, ts, 1)[0] = value

            got, want = (_outcome(lambda s=s: write_view(s))
                         for s in (seg, ref))
            assert got == want
            if got[0][0] == "ok":
                assert _bits(seg.read_scalar(offset, ts)) == \
                    _bits(ref.read_scalar(offset, ts))
        assert seg.read_bytes(0, _SIZE) == ref.read_bytes(0, _SIZE)

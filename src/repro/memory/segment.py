"""Shared segments: the per-rank registered memory of the PGAS model.

A :class:`Segment` is a contiguous numpy byte buffer with typed accessors.
All remote-memory traffic in the runtime ultimately lands here, so the data
movement in every experiment is real: an ``rput`` writes bytes into the
target rank's segment and a subsequent ``rget`` (or local load) observes
them.

Single elements move through typed ``memoryview`` casts of the buffer (a
Python-level element access is several times cheaper there than a numpy
scalar access); bulk copies and the aliasing views move through numpy.
Both see the same bytes.

Typed access is mediated by :class:`TypeSpec`, a small registry of the
fixed-width element types the runtime supports (the paper's experiments use
64-bit payloads throughout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SegmentError


@dataclass(frozen=True)
class TypeSpec:
    """A fixed-width element type usable in shared segments."""

    name: str
    dtype: np.dtype
    size: int

    def __repr__(self) -> str:
        return f"TypeSpec({self.name!r})"


def _ts(name: str, np_name: str) -> TypeSpec:
    dt = np.dtype(np_name)
    return TypeSpec(name=name, dtype=dt, size=dt.itemsize)


_TYPES: dict[str, TypeSpec] = {
    t.name: t
    for t in (
        _ts("i64", "int64"),
        _ts("u64", "uint64"),
        _ts("f64", "float64"),
        _ts("i32", "int32"),
        _ts("u32", "uint32"),
        _ts("u8", "uint8"),
    )
}


#: ``struct`` format of each registered type's memoryview cast (native
#: order and size, which are numpy's for these dtypes)
_MV_FORMATS = {"i64": "q", "u64": "Q", "f64": "d", "i32": "i", "u32": "I",
               "u8": "B"}


def type_spec(name: str | TypeSpec) -> TypeSpec:
    """Resolve a type name (or pass through a :class:`TypeSpec`)."""
    if isinstance(name, TypeSpec):
        return name
    try:
        return _TYPES[name]
    except KeyError:
        raise KeyError(
            f"unknown element type {name!r}; known: {sorted(_TYPES)}"
        ) from None


class Segment:
    """One rank's shared segment: a byte buffer with typed views.

    Parameters
    ----------
    owner_rank:
        The rank whose address space this segment models.
    size_bytes:
        Capacity; must be a multiple of 8 (the max element alignment).
    """

    def __init__(self, owner_rank: int, size_bytes: int):
        if size_bytes <= 0 or size_bytes % 8 != 0:
            raise ValueError("segment size must be a positive multiple of 8")
        self.owner_rank = owner_rank
        self.size_bytes = size_bytes
        self._buf = np.zeros(size_bytes, dtype=np.uint8)
        # cached per-dtype full-buffer views (offset indexing divides by size)
        self._views: dict[str, np.ndarray] = {}
        # per-type memoryviews of the same bytes, for single elements
        raw = memoryview(self._buf)
        self._scalars = {name: raw.cast(f) for name, f in _MV_FORMATS.items()}

    # -- bounds / alignment ----------------------------------------------

    def _check(self, offset: int, nbytes: int, align: int) -> None:
        if offset < 0 or offset + nbytes > self.size_bytes:
            raise SegmentError(
                f"access [{offset}, {offset + nbytes}) outside segment of "
                f"rank {self.owner_rank} (size {self.size_bytes})"
            )
        if offset % align != 0:
            raise SegmentError(
                f"offset {offset} not aligned to {align} for typed access"
            )

    def _view(self, ts: TypeSpec) -> np.ndarray:
        v = self._views.get(ts.name)
        if v is None:
            v = self._buf.view(ts.dtype)
            self._views[ts.name] = v
        return v

    # -- scalar access -----------------------------------------------------

    # The scalar accessors repeat ``_check``'s test inline and call it only
    # to raise its error: they run once or twice per GUPS update.  Whatever
    # the memoryview does not take (an unregistered TypeSpec, a non-int
    # offset, a value other than an exact int or an f64 float, a value out
    # of range) goes to numpy, so results and errors are numpy's.

    def read_scalar(self, offset: int, ts: TypeSpec):
        """Read one ``ts`` element at byte ``offset`` (returns a Python
        scalar)."""
        size = ts.size
        if offset < 0 or offset + size > self.size_bytes or offset % size:
            self._check(offset, size, size)
        try:
            return self._scalars[ts.name][offset // size]
        except (KeyError, TypeError):
            return self._view(ts)[offset // size].item()

    def write_scalar(self, offset: int, ts: TypeSpec, value) -> None:
        """Write one ``ts`` element at byte ``offset``."""
        size = ts.size
        if offset < 0 or offset + size > self.size_bytes or offset % size:
            self._check(offset, size, size)
        cls = type(value)
        if cls is int or (cls is float and ts.name == "f64"):
            try:
                self._scalars[ts.name][offset // size] = value
                return
            except (KeyError, TypeError, ValueError):
                pass
        self._view(ts)[offset // size] = value

    # -- array access -------------------------------------------------------

    def read_array(self, offset: int, ts: TypeSpec, count: int) -> np.ndarray:
        """Copy out ``count`` elements starting at byte ``offset``."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._check(offset, ts.size * count, ts.size)
        start = offset // ts.size
        return self._view(ts)[start : start + count].copy()

    def write_array(self, offset: int, ts: TypeSpec, values) -> None:
        """Write a sequence of ``ts`` elements starting at byte ``offset``."""
        arr = np.asarray(values, dtype=ts.dtype)
        if arr.ndim != 1:
            raise ValueError("write_array expects a 1-D sequence")
        self._check(offset, ts.size * arr.size, ts.size)
        start = offset // ts.size
        self._view(ts)[start : start + arr.size] = arr

    def view_array(self, offset: int, ts: TypeSpec, count: int) -> np.ndarray:
        """A mutable *view* (no copy) of ``count`` elements at ``offset`` —
        the simulation analogue of a raw C++ pointer into the segment."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._check(offset, ts.size * count, ts.size)
        start = offset // ts.size
        return self._view(ts)[start : start + count]

    # -- raw bytes -----------------------------------------------------------

    def read_bytes(self, offset: int, nbytes: int) -> bytes:
        self._check(offset, nbytes, 1)
        return self._buf[offset : offset + nbytes].tobytes()

    def write_bytes(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data), 1)
        self._buf[offset : offset + len(data)] = np.frombuffer(
            data, dtype=np.uint8
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Segment rank={self.owner_rank} size={self.size_bytes}>"

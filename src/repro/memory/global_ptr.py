"""Global pointers: typed names for locations in any rank's segment.

:class:`GlobalPtr` mirrors ``upcxx::global_ptr<T>``:

* ``where()`` — the owning rank;
* ``is_local()`` — whether the *calling* rank can address the memory
  directly (always true within a simulated node, as with PSHM in the
  paper's single-node runs).  The query costs one dynamic branch — unless
  the build has the 2021.3.6 ``constexpr is_local`` optimization and the
  world runs on the SMP conduit, in which case it is compiled away (free);
* ``local()`` — downcast to a :class:`LocalRef`, the analogue of a raw
  C++ pointer, supporting direct loads/stores at CPU cost with no runtime
  machinery (the "manual localization" of Section II-C);
* element-wise pointer arithmetic, ordering and hashing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import InvalidGlobalPointer, LocalityError
from repro.memory.segment import Segment, TypeSpec, type_spec
from repro.sim.costmodel import CostAction

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import RankContext


# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` or
# ``Event.X`` read runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_LOCALITY_BRANCH = CostAction.LOCALITY_BRANCH
_GPTR_DOWNCAST = CostAction.GPTR_DOWNCAST
_CPU_LOAD = CostAction.CPU_LOAD
_CPU_STORE = CostAction.CPU_STORE


class GlobalPtr:
    """A typed global pointer ``(rank, byte offset, element type)``.

    Instances are immutable value objects; arithmetic returns new pointers.
    The null pointer is ``GlobalPtr.NULL`` (rank −1).
    """

    __slots__ = ("rank", "offset", "ts")

    NULL: "GlobalPtr"

    def __init__(self, rank: int, offset: int, ts: TypeSpec | str):
        _set_rank(self, rank)
        _set_offset(self, offset)
        _set_ts(self, type_spec(ts))

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("GlobalPtr is immutable")

    # -- identity / null -----------------------------------------------------

    @property
    def is_null(self) -> bool:
        return self.rank < 0

    def where(self) -> int:
        """The rank owning the referenced memory."""
        if self.is_null:
            raise InvalidGlobalPointer("where() on a null global pointer")
        return self.rank

    # -- locality ---------------------------------------------------------

    def is_local(self, ctx: "RankContext | None" = None) -> bool:
        """Whether the calling rank has direct access to the target memory.

        Charges one ``LOCALITY_BRANCH`` unless the build's
        ``constexpr_is_local_smp`` optimization applies (SMP conduit).
        """
        if ctx is None:
            from repro.runtime.context import current_ctx

            ctx = current_ctx()
        if self.rank < 0:  # null
            ctx.charge(_LOCALITY_BRANCH)
            return False
        if ctx.charges_locality_branch:
            ctx.charge(_LOCALITY_BRANCH)
        return ctx.is_local_rank(self.rank)

    def local(self, ctx: "RankContext | None" = None) -> "LocalRef":
        """Downcast to a raw local reference (charges the downcast cost).

        Raises :class:`~repro.errors.LocalityError` if the memory is not
        directly addressable from the calling rank.
        """
        from repro.runtime.context import current_ctx

        if ctx is None:
            ctx = current_ctx()
        if self.is_null:
            raise InvalidGlobalPointer("local() on a null global pointer")
        if not ctx.is_local_rank(self.rank):
            raise LocalityError(
                f"global pointer to rank {self.rank} is not locally "
                f"addressable from rank {ctx.rank}"
            )
        ctx.charge(_GPTR_DOWNCAST)
        return LocalRef(ctx.world.segments[self.rank], self.offset, self.ts)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, n: int) -> "GlobalPtr":
        rank = self.rank
        if rank < 0:
            raise InvalidGlobalPointer("arithmetic on a null global pointer")
        # the element type is already resolved: skip __init__'s type_spec
        ts = self.ts
        out = _new(GlobalPtr)
        _set_rank(out, rank)
        _set_offset(out, self.offset + n * ts.size)
        _set_ts(out, ts)
        return out

    def __radd__(self, n: int) -> "GlobalPtr":
        return self.__add__(n)

    def __sub__(self, other):
        if isinstance(other, GlobalPtr):
            if other.rank != self.rank or other.ts is not self.ts:
                raise InvalidGlobalPointer(
                    "pointer difference requires same rank and element type"
                )
            return (self.offset - other.offset) // self.ts.size
        return self.__add__(-other)

    # -- comparison / hashing --------------------------------------------------

    def _key(self):
        return (self.rank, self.offset, self.ts.name)

    def __eq__(self, other) -> bool:
        return isinstance(other, GlobalPtr) and self._key() == other._key()

    def __lt__(self, other: "GlobalPtr") -> bool:
        if not isinstance(other, GlobalPtr):
            return NotImplemented
        if self.rank != other.rank or self.ts is not other.ts:
            raise InvalidGlobalPointer(
                "ordering requires same rank and element type"
            )
        return self.offset < other.offset

    def __hash__(self) -> int:
        return hash(self._key())

    def __bool__(self) -> bool:
        return not self.is_null

    def __repr__(self) -> str:
        if self.is_null:
            return "GlobalPtr.NULL"
        return f"GlobalPtr(rank={self.rank}, offset={self.offset}, ts={self.ts.name})"


# The slot descriptors write past the immutability guard in __setattr__
# without the cost of object.__setattr__.
_new = object.__new__
_set_rank = GlobalPtr.rank.__set__
_set_offset = GlobalPtr.offset.__set__
_set_ts = GlobalPtr.ts.__set__

GlobalPtr.NULL = GlobalPtr(-1, 0, "u8")


class LocalRef:
    """The downcast of a local :class:`GlobalPtr` — a "raw pointer".

    Element access goes straight to the segment at plain CPU load/store
    cost, bypassing all runtime machinery (this is what makes manual
    localization and the raw-C++ GUPS variant fast).
    """

    __slots__ = ("segment", "offset", "ts")

    def __init__(self, segment: Segment, offset: int, ts: TypeSpec):
        self.segment = segment
        self.offset = offset
        self.ts = ts

    def read(self, index: int = 0):
        """Load the element at ``index`` (charges one CPU load)."""
        from repro.runtime.context import current_ctx

        current_ctx().charge(_CPU_LOAD)
        return self.segment.read_scalar(
            self.offset + index * self.ts.size, self.ts
        )

    def write(self, value, index: int = 0) -> None:
        """Store ``value`` at ``index`` (charges one CPU store)."""
        from repro.runtime.context import current_ctx

        current_ctx().charge(_CPU_STORE)
        self.segment.write_scalar(
            self.offset + index * self.ts.size, self.ts, value
        )

    def __getitem__(self, index: int):
        return self.read(index)

    def __setitem__(self, index: int, value) -> None:
        self.write(value, index)

    def view(self, count: int):
        """A numpy view of ``count`` elements (bulk, no per-element cost;
        callers charge ``MEMCPY_PER_BYTE`` themselves for modeled copies)."""
        return self.segment.view_array(self.offset, self.ts, count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LocalRef rank={self.segment.owner_rank} offset={self.offset} "
            f"ts={self.ts.name}>"
        )

r"""Per-rank virtual clocks.

Each simulated rank owns a :class:`VirtualClock` measuring nanoseconds of
simulated execution.  Runtime actions advance the clock through
:meth:`VirtualClock.advance`; synchronization points (barriers, AM arrival)
use :meth:`VirtualClock.advance_to` to move a clock forward to an absolute
time (never backward — virtual time is monotone per rank).

Internally the clock counts integer *units* of 2\ :sup:`-20` ns
(:data:`UNITS_PER_NS` per nanosecond).  Machine-profile costs are quantized
to this grid at the profile level (:meth:`MachineProfile.cost_ns`), so
every charge is an exact integer number of units and accumulation is
integer addition — associative, hence order-independent.  That is what
lets batched cost accounting (every noise-free run) park charged
units in a pending scalar and fold them in lazily while staying
**bit-identical** to per-charge advancing.  The float-facing API is exact
both ways: a unit count below 2\ :sup:`53` converts to float without
rounding (the grid is dyadic), which bounds exact operation to ~8.6
virtual seconds per rank — orders of magnitude beyond any modeled run.

When the owning :class:`~repro.sim.costmodel.CostModel` runs in batched
mode the clock carries a *flush hook* that folds the pending units in
before any read of :attr:`VirtualClock.now_ns` and before any explicit
advance, so every observable timestamp (AM stamps, barrier max-clocks,
span marks) is exactly as if each charge had advanced the clock
individually.
"""

from __future__ import annotations

#: fixed-point resolution: clock units per nanosecond (a power of two, so
#: unit counts convert to float nanoseconds exactly below 2**53 units)
UNITS_PER_NS = 1 << 20

_INV_UNITS = 1.0 / UNITS_PER_NS


class VirtualClock:
    """A monotone per-rank nanosecond counter (integer fixed-point inside).

    The clock also tracks a set of named accumulation buckets so benchmarks
    can attribute virtual time to phases (e.g. ``"solve"`` vs ``"init"``)
    via :meth:`mark`/:meth:`elapsed_since`.
    """

    __slots__ = ("_units", "_marks", "_flush_hook")

    def __init__(self, start_ns: float = 0.0):
        #: current time in integer units of 2**-20 ns
        self._units: int = round(start_ns * UNITS_PER_NS)
        self._marks: dict[str, float] = {}
        #: zero-argument callable folding a cost accumulator's pending
        #: units into ``_units`` (None → nothing batches on this clock and
        #: reads are a bare slot load)
        self._flush_hook = None

    @property
    def now_ns(self) -> float:
        """The current virtual time (flushes any batched pending charges
        first, so timestamps never go stale)."""
        hook = self._flush_hook
        if hook is not None:
            hook()
        return self._units * _INV_UNITS

    @now_ns.setter
    def now_ns(self, t_ns: float) -> None:
        self._units = round(t_ns * UNITS_PER_NS)

    def advance(self, ns: float) -> float:
        """Advance the clock by ``ns`` nanoseconds and return the new time.

        Negative advances are rejected: virtual time is monotone.  ``ns``
        values on the unit grid (every quantized profile cost and sum
        thereof) advance exactly; off-grid values round to the nearest
        unit — deterministically, so two runs still agree.
        """
        if ns < 0:
            raise ValueError(f"cannot advance clock by negative time {ns}")
        hook = self._flush_hook
        if hook is not None:
            # pending batched charges happened before this advance
            hook()
        self._units += round(ns * UNITS_PER_NS)
        return self._units * _INV_UNITS

    def advance_units(self, units: int) -> None:
        """Advance by an exact integer unit count (the cost model's
        no-conversion fast path for unbatched charges)."""
        hook = self._flush_hook
        if hook is not None:
            hook()
        self._units += units

    def advance_to(self, t_ns: float) -> float:
        """Move the clock forward to absolute time ``t_ns`` if it is ahead
        of the current time; otherwise leave the clock unchanged.

        Returns the (possibly unchanged) current time.  This models waiting
        for an event that happened at ``t_ns`` on another rank's timeline.
        Off-grid targets (e.g. arrival stamps with a bandwidth term) round
        to the nearest unit before the comparison, so the same target
        always lands every waiting rank on the same grid point.
        """
        hook = self._flush_hook
        if hook is not None:
            hook()
        units = round(t_ns * UNITS_PER_NS)
        if units > self._units:
            self._units = units
        return self._units * _INV_UNITS

    def advance_slice(self, until_ns: float, slice_ns: float) -> bool:
        """One idle-polling slice: :meth:`advance_to` ``min(until_ns, now +
        slice_ns)``.  Returns whether the clock moved; it does not once it
        has reached ``until_ns`` or the slice is under the grid."""
        hook = self._flush_hook
        if hook is not None:
            hook()
        before = self._units * _INV_UNITS
        if before >= until_ns:
            return False
        units = round(min(until_ns, before + slice_ns) * UNITS_PER_NS)
        if units > self._units:
            self._units = units
            return True
        return False

    # -- phase marks -----------------------------------------------------

    def mark(self, name: str) -> None:
        """Record the current time under ``name`` (for elapsed queries)."""
        self._marks[name] = self.now_ns

    def elapsed_since(self, name: str) -> float:
        """Nanoseconds elapsed since :meth:`mark` was called with ``name``."""
        try:
            return self.now_ns - self._marks[name]
        except KeyError:
            raise KeyError(f"no mark named {name!r} on this clock") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now_ns={self.now_ns!r})"

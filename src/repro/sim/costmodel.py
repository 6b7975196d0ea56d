"""Cost accounting for runtime-internal actions.

The reproduction's core measurement device: every action the UPC++-style
runtime performs on the critical path of a communication operation is named
by a :class:`CostAction`, and a :class:`CostModel` charges that action's
nanosecond cost (from a :class:`~repro.sim.machines.MachineProfile`) onto the
calling rank's :class:`~repro.sim.clock.VirtualClock`.

The action vocabulary mirrors Section II-B/III of the paper:

* ``HEAP_ALLOC_PROMISE_CELL`` — the internal promise cell backing a
  non-ready future (the cost eager notification removes);
* ``HEAP_ALLOC_OP_DESCRIPTOR`` — the *extra* per-RMA allocation that the
  2021.3.6 snapshot elides for directly-addressable pointers (orthogonal to
  eager/defer, Section IV-A);
* ``PROGRESS_QUEUE_ENQUEUE`` / ``PROGRESS_DISPATCH`` — insertion into the
  internal progress queue and later dispatch by the progress engine;
* ``WHEN_ALL_NODE_BUILD`` / ``DEP_GRAPH_RESOLVE_EDGE`` — construction and
  resolution of the dynamically-discovered dependency graph (Figure 1);
* ``LOCALITY_BRANCH`` — the dynamic ``is_local`` check (compiled away under
  the SMP conduit in 2021.3.6, and the *single* branch added to the
  off-node path by eager support);
* data-movement primitives (``MEMCPY_8B``, ``CPU_ATOMIC_RMW``, …) and the
  active-message path (``AM_INJECT``/``AM_POLL``/``AM_EXECUTE``).

A :class:`CostModel` also counts how many times each action fired, which the
tests use to assert *structural* claims (e.g. "the eager local put performs
zero heap allocations", "the off-node path gained exactly one branch").
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import TYPE_CHECKING

from repro.sim.clock import UNITS_PER_NS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.clock import VirtualClock
    from repro.sim.machines import MachineProfile

_INV_UNITS = 1.0 / UNITS_PER_NS


class CostAction(enum.Enum):
    """Named runtime-internal actions with per-machine nanosecond costs.

    Every member also carries ``idx``, a dense integer id: its position in
    ``tuple(CostAction)``.
    """

    # -- heap traffic ----------------------------------------------------
    HEAP_ALLOC_PROMISE_CELL = "heap_alloc_promise_cell"
    HEAP_ALLOC_OP_DESCRIPTOR = "heap_alloc_op_descriptor"
    HEAP_FREE = "heap_free"

    # -- progress engine ---------------------------------------------------
    PROGRESS_QUEUE_ENQUEUE = "progress_queue_enqueue"
    PROGRESS_DISPATCH = "progress_dispatch"
    PROGRESS_POLL = "progress_poll"

    # -- future / promise machinery --------------------------------------
    FUTURE_READY_CHECK = "future_ready_check"
    FUTURE_CALLBACK_SCHEDULE = "future_callback_schedule"
    WHEN_ALL_NODE_BUILD = "when_all_node_build"
    DEP_GRAPH_RESOLVE_EDGE = "dep_graph_resolve_edge"
    PROMISE_REGISTER = "promise_register"
    PROMISE_FULFILL = "promise_fulfill"

    # -- notifiable completions: continuations / counters ------------------
    #: running one continuation completion's callback inline at the agent
    #: that observed completion (``notify_sync`` fast path or the progress
    #: engine's ack dispatch) — the whole per-op cost of the callback path,
    #: replacing cell allocation + ready-check + wait machinery
    CX_CONTINUATION_DISPATCH = "cx_continuation_dispatch"
    #: one member operation signalling its :class:`CxCounter` (an integer
    #: decrement on the shared cell; the N-ops-to-one-notification
    #: amortization counters exist to buy)
    CX_COUNTER_SIGNAL = "cx_counter_signal"
    #: the counter tripping: the Nth signal fires the single aggregate
    #: notification (callback run + wake push), charged once per counter
    CX_COUNTER_TRIP = "cx_counter_trip"

    # -- pointer / dispatch ------------------------------------------------
    LOCALITY_BRANCH = "locality_branch"
    GPTR_DOWNCAST = "gptr_downcast"
    RMA_CALL_OVERHEAD = "rma_call_overhead"
    AMO_CALL_OVERHEAD = "amo_call_overhead"
    COMPLETION_PROCESS = "completion_process"

    # -- data movement -----------------------------------------------------
    MEMCPY_8B = "memcpy_8b"
    MEMCPY_PER_BYTE = "memcpy_per_byte"
    CPU_ATOMIC_RMW = "cpu_atomic_rmw"
    CPU_LOAD = "cpu_load"
    CPU_STORE = "cpu_store"
    #: random access into a table far larger than cache (GUPS's defining
    #: cost; cache-hot microbenchmark loops never pay it)
    DRAM_RANDOM_ACCESS = "dram_random_access"
    #: coherence/fence penalty paid per co-located peer when many processes
    #: issue atomic RMWs concurrently (why the paper's 16-process GUPS sees
    #: atomics as far costlier than the 2-process microbenchmark does)
    AMO_CONTENTION_PER_PEER = "amo_contention_per_peer"

    # -- active messages / network ----------------------------------------
    AM_INJECT = "am_inject"
    AM_POLL = "am_poll"
    AM_EXECUTE = "am_execute"
    NETWORK_LATENCY = "network_latency"
    RPC_SERIALIZE_PER_BYTE = "rpc_serialize_per_byte"
    #: appending one small AM to a per-destination aggregation buffer (the
    #: cheap operation that replaces a full ``AM_INJECT`` when destination
    #: batching is on — the amortization the aggregator exists to buy)
    AM_AGG_APPEND = "am_agg_append"
    #: building/writing the bundle header when a destination buffer is
    #: flushed as one bundled AM (paid once per bundle, on the sender)
    AM_BUNDLE_HEADER = "am_bundle_header"
    #: receiver-side dispatch of one entry out of a delivered bundle
    #: (cheaper than a full ``AM_EXECUTE``: no per-message poll/queue work)
    AM_BUNDLE_ENTRY_DISPATCH = "am_bundle_entry_dispatch"

    # -- misc ----------------------------------------------------------------
    LPC_ENQUEUE = "lpc_enqueue"
    BARRIER = "barrier"
    FUNCTION_CALL = "function_call"


_ACTIONS: tuple[CostAction, ...] = tuple(CostAction)
# the cost model's per-action tables are flat lists indexed by ``idx``, so
# the charge path never hashes an enum member
for _i, _a in enumerate(_ACTIONS):
    _a.idx = _i
del _i, _a


class CostModel:
    r"""Charges :class:`CostAction` costs onto a rank's virtual clock.

    Parameters
    ----------
    profile:
        The machine profile supplying per-action nanosecond costs.
    clock:
        The rank's virtual clock; may be swapped via :attr:`clock` when a
        context is re-bound.

    Notes
    -----
    Every charge is counted; the counts are what let tests make structural
    assertions independent of the tuned constants.

    Per-action costs are precomputed at construction into two flat lists
    indexed by :attr:`CostAction.idx` — exact integer clock units (the
    profile quantizes every cost to the 2\ :sup:`-20` ns grid, see
    :meth:`MachineProfile.cost_ns`) and their float-nanosecond images — so
    a charge pays a list index and an integer add instead of a method call
    and a float round-trip.

    With :meth:`enable_batching` (every run without timing noise) charges
    accumulate into a pending-units integer scalar and a dense per-action
    count list instead of touching the clock/Counter per call; the clock's
    flush hook folds pending units in before any timestamp read, and the
    counts merge lazily on :meth:`count`/:meth:`snapshot`.  Because the
    accumulator is an integer sum of exact integer charges, batching is
    **bit-identical** to per-charge advancing — integer addition is
    associative, so reordering the folds cannot change the result.  The
    only remaining incompatibility is timing noise, whose jitter must be
    drawn per charge.

    While batching is on, a charge tests one flag and does three list/
    integer operations (count, units, pending).
    """

    __slots__ = (
        "profile", "clock", "counts",
        "noise", "noise_rng", "noise_run_factor",
        "_cost_ns", "_cost_units", "_batching",
        "_pending_units", "_batch_counts",
    )

    def __init__(self, profile: "MachineProfile", clock: "VirtualClock"):
        self.profile = profile
        self.clock = clock
        self.counts: Counter[CostAction] = Counter()
        #: action id -> integer clock units (resolves the profile's
        #: NETWORK_LATENCY special case once, at construction; exact
        #: because the profile quantizes to the unit grid)
        self._cost_units: list[int] = [
            round(profile.cost_ns(a) * UNITS_PER_NS) for a in _ACTIONS
        ]
        #: the float-nanosecond image of ``_cost_units`` (exact — the grid
        #: is dyadic), used by the noise path
        self._cost_ns: list[float] = [u * _INV_UNITS for u in self._cost_units]
        self._batching: bool = False
        self._pending_units: int = 0
        self._batch_counts: list[int] = [0] * len(_ACTIONS)
        #: relative timing jitter (0.0 = deterministic).  Noise is
        #: one-sided — interference (OS, other processes, coherence
        #: traffic) only ever *adds* time — which is exactly why the
        #: paper's estimator keeps the *best* 10 of 20 samples.
        self.noise: float = 0.0
        self.noise_rng = None  # seeded random.Random, set with noise
        #: run-wide interference factor (≥ 1): co-runners/OS activity slow
        #: a whole sample, not individual instructions.  This correlated
        #: component is what the top-10-of-N estimator filters out.
        self.noise_run_factor: float = 1.0

    def _jitter(self, ns: float) -> float:
        if self.noise and self.noise_rng is not None and ns > 0:
            per_charge = 1.0 + self.noise * abs(self.noise_rng.gauss(0, 1))
            return ns * self.noise_run_factor * per_charge
        return ns

    def charge(self, action: CostAction, times: int = 1) -> float:
        """Charge ``times`` occurrences of ``action``; return ns charged."""
        if self._batching:
            i = action.idx
            self._batch_counts[i] += times
            units = self._cost_units[i] * times
            self._pending_units += units
            return units * _INV_UNITS
        return self._charge_slow(action, times, times)

    def charge_bytes(self, action: CostAction, nbytes: int) -> float:
        """Charge a per-byte action scaled by ``nbytes`` (counted once)."""
        if self._batching:
            i = action.idx
            self._batch_counts[i] += 1
            units = self._cost_units[i] * nbytes
            self._pending_units += units
            return units * _INV_UNITS
        return self._charge_slow(action, 1, nbytes)

    def _charge_slow(self, action: CostAction, count: int, scale: int) -> float:
        """The unbatched (noisy or exact) charge path: count ``count``
        occurrences and charge ``scale`` × the action's cost."""
        self.counts[action] += count
        if self.noise:
            ns = self._jitter(self._cost_ns[action.idx] * scale)
            if ns:
                self.clock.advance(ns)
            return ns
        units = self._cost_units[action.idx] * scale
        if units:
            self.clock.advance_units(units)
        return units * _INV_UNITS

    # -- batched mode --------------------------------------------------------

    def enable_batching(self) -> None:
        """Switch to accumulator mode (every rank of a noise-free run).

        Charges park integer clock units in :attr:`_pending_units` and
        counts in the dense :attr:`_batch_counts` list; the clock's flush
        hook folds the pending units in before any timestamp is observed.
        Bit-identical to per-charge advancing (integer sums are
        order-independent).  Incompatible with timing noise: jitter must
        be drawn per charge, which is the per-charge work batching
        removes.
        """
        if self.noise:
            raise ValueError(
                "cost batching is incompatible with timing noise "
                "(jitter is drawn per charge)"
            )
        self._batching = True
        self.clock._flush_hook = self._flush_pending

    def _flush_pending(self) -> None:
        """Fold accumulated pending units into the clock (installed as
        the clock's flush hook; runs before any ``now_ns`` read)."""
        units = self._pending_units
        if units:
            self._pending_units = 0
            self.clock._units += units

    def _merge_batched_counts(self) -> None:
        """Fold the dense batched count list into the ``counts`` Counter."""
        batch = self._batch_counts
        counts = self.counts
        for i, c in enumerate(batch):
            if c:
                counts[_ACTIONS[i]] += c
                batch[i] = 0

    # -- queries -------------------------------------------------------------

    def count(self, action: CostAction) -> int:
        """How many times ``action`` has been charged."""
        if self._batching:
            self._merge_batched_counts()
        return self.counts[action]

    def snapshot(self) -> Counter:
        """A copy of the current action counters (for differential checks)."""
        if self._batching:
            self._merge_batched_counts()
        return Counter(self.counts)

    def reset_counts(self) -> None:
        """Zero the action counters (clock is left untouched)."""
        if self._batching:
            self._batch_counts = [0] * len(_ACTIONS)
        self.counts.clear()

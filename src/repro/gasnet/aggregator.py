"""Destination-batched active-message aggregation.

Eager notification removes per-operation *notification* overhead, but the
paper's own off-node check (§IV-A, ``benchmarks/results/offnode_rma.txt``)
shows that once a message actually crosses the network, per-message
injection cost and latency dominate and the eager gain disappears into the
noise.  The complementary optimization — the one LCI and UNR apply to
fine-grained RMA/notification traffic — is to *coalesce* many small
operations headed to the same destination into one bundled message,
amortizing injection and latency over the whole batch.

This module implements that layer for the simulated conduit:

* an :class:`AmAggregator` owned by each rank holds one
  :class:`DestinationBuffer` per remote destination it has traffic for;
* :meth:`Conduit.send_am <repro.gasnet.conduit.Conduit.send_am>` diverts
  *eligible* AMs here instead of injecting them (eligible = marked
  ``aggregatable`` by the issuing operation layer, off-node destination,
  aggregation enabled via ``RankContext.flags.am_aggregation``);
* a buffer is flushed as **one** bundled AM — one ``AM_INJECT``, one
  bundle header, one latency hop; the receiver pays one ``AM_EXECUTE`` for
  the bundle plus a cheap ``AM_BUNDLE_ENTRY_DISPATCH`` per entry, and runs
  the entry handlers in append order.

Flush policies (any of which closes a bundle):

1. **entry-count threshold** — :data:`MAX_ENTRIES` entries buffered;
2. **byte threshold** — :data:`MAX_BYTES` payload bytes buffered;
3. **explicit** — :meth:`AmAggregator.flush` / :meth:`flush_all`;
4. **progress entry/exit** — the progress engine flushes all buffers when
   it is entered (so ``progress()``, ``barrier()`` and ``future.wait()``
   all publish buffered work before blocking) and again after its drain
   loop (so AMs buffered *by handlers during the drain* cannot be stranded
   while the rank blocks).

Bundle framing
--------------
A bundle's modeled wire footprint is its summed payloads plus framing: a
32-byte bundle header and an 8-byte per-entry header (conduit handler id +
length), computed by :func:`bundle_framing`.

Correctness gate
----------------
AMs that deliver source/operation completions back to an initiator
(``put_ack``, ``get_reply``, ``amo_reply``, ``rpc_reply``) are **never**
aggregated: the initiator may spin on the completion before its next
progress call, and parking the notification in the responder's buffer
would stall (or deadlock) that spin.  Operation layers express this by
simply not marking those AMs ``aggregatable``.  Consequently aggregation
changes *when* a request is injected but never *whether* a completion can
be observed: deferred and eager builds reach identical final states with
aggregation on or off (tested in ``tests/test_am_aggregation.py``).

Ordering: entries bundled to one destination are delivered in append
order (the transport is FIFO, and a bundle replays its entries in order).
Interleaving between bundled and non-bundled messages to the same
destination may differ from the unaggregated schedule, exactly as in real
aggregation layers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.obs.metrics import DEPTH_EDGES as _BUNDLE_DEPTH_EDGES
from repro.sim.costmodel import CostAction

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import RankContext

#: Modeled on-the-wire overhead of one bundle (message header + entry
#: table), charged as payload bytes so the bandwidth term stays honest.
BUNDLE_HEADER_BYTES = 32
#: Modeled per-entry framing inside a bundle (handler id + length field).
ENTRY_HEADER_BYTES = 8
#: Auto-flush thresholds: a destination buffer flushes when it holds this
#: many entries or this many payload bytes.
MAX_ENTRIES = 32
MAX_BYTES = 4096


@dataclass
class AggEntry:
    """One small AM parked in a destination buffer awaiting flush."""

    handler: Callable
    args: tuple
    nbytes: int
    #: simulated-clock append time (parking-latency accounting)
    ts_ns: float = 0.0


@dataclass
class DestinationBuffer:
    """The pending bundle for one (source rank, destination rank) pair."""

    dst_rank: int
    entries: list[AggEntry] = field(default_factory=list)
    payload_bytes: int = 0

    def append(self, entry: AggEntry) -> None:
        self.entries.append(entry)
        self.payload_bytes += entry.nbytes

    def take(self) -> tuple[list[AggEntry], int]:
        entries, nbytes = self.entries, self.payload_bytes
        self.entries, self.payload_bytes = [], 0
        return entries, nbytes

    def __len__(self) -> int:
        return len(self.entries)


def bundle_framing(n_entries: int) -> int:
    """Modeled framing bytes of a bundle of ``n_entries`` entries: one
    :data:`BUNDLE_HEADER_BYTES` header plus :data:`ENTRY_HEADER_BYTES` per
    entry."""
    return BUNDLE_HEADER_BYTES + ENTRY_HEADER_BYTES * n_entries


@dataclass(frozen=True)
class AggregatorSnapshot:
    """Point-in-time view of one rank's aggregator (see
    :meth:`AmAggregator.stats`)."""

    rank: int
    appended: int
    bundles_flushed: int
    entries_flushed: int
    largest_bundle: int
    pending_entries: int
    #: bundle-size -> count histogram over all flushed bundles
    bundle_size_hist: dict[int, int]
    #: flush-trigger -> count (``entries``/``bytes``/``explicit``/
    #: ``progress_entry``/``progress_exit``)
    flush_reasons: dict[str, int]
    #: summed simulated parking time (append -> flush) over flushed entries
    parked_ns_total: float

    @property
    def mean_bundle_size(self) -> float:
        if not self.bundles_flushed:
            return 0.0
        return self.entries_flushed / self.bundles_flushed

    @property
    def mean_parked_ns(self) -> float:
        """Mean simulated parking latency of a flushed entry."""
        if not self.entries_flushed:
            return 0.0
        return self.parked_ns_total / self.entries_flushed


class AmAggregator:
    """Per-rank coalescing buffers for small off-node active messages.

    Owned by a :class:`~repro.runtime.context.RankContext` (created by the
    world wiring only when ``flags.am_aggregation`` is set, so the default
    configuration has literally zero aggregation code on any path).
    Thresholds start at :data:`MAX_ENTRIES` and :data:`MAX_BYTES`.
    """

    __slots__ = (
        "_ctx", "max_entries", "max_bytes", "_buffers",
        "appended", "bundles_flushed", "entries_flushed", "largest_bundle",
        "bundle_size_hist", "flush_reasons", "parked_ns_total",
    )

    def __init__(self, ctx: "RankContext"):
        self._ctx = ctx
        self.max_entries = MAX_ENTRIES
        self.max_bytes = MAX_BYTES
        self._buffers: dict[int, DestinationBuffer] = {}
        # -- stats ----------------------------------------------------------
        self.appended = 0
        self.bundles_flushed = 0
        self.entries_flushed = 0
        self.largest_bundle = 0
        self.bundle_size_hist: Counter[int] = Counter()
        self.flush_reasons: Counter[str] = Counter()
        self.parked_ns_total = 0.0

    # -- queries -----------------------------------------------------------

    def has_pending(self) -> bool:
        return any(self._buffers.values())

    def pending_entries(self, dst_rank: int | None = None) -> int:
        if dst_rank is not None:
            buf = self._buffers.get(dst_rank)
            return len(buf) if buf is not None else 0
        return sum(len(b) for b in self._buffers.values())

    # -- the append path ---------------------------------------------------

    def append(
        self,
        dst_rank: int,
        handler: Callable,
        args: tuple,
        nbytes: int,
    ) -> None:
        """Park one AM for ``dst_rank``; auto-flush on either threshold.

        The payload copy into the buffer is charged here (``nbytes`` of
        ``MEMCPY_PER_BYTE``), mirroring what direct injection charges, so
        aggregation saves injection overhead — never byte costs.
        """
        ctx = self._ctx
        ctx.charge(CostAction.AM_AGG_APPEND)
        if nbytes:
            ctx.charge_bytes(CostAction.MEMCPY_PER_BYTE, nbytes)
        buf = self._buffers.get(dst_rank)
        if buf is None:
            buf = self._buffers[dst_rank] = DestinationBuffer(dst_rank)
        buf.append(AggEntry(handler, args, nbytes, ts_ns=ctx.clock.now_ns))
        self.appended += 1
        if len(buf) >= self.max_entries:
            self.flush(dst_rank, reason="entries")
        elif buf.payload_bytes >= self.max_bytes:
            self.flush(dst_rank, reason="bytes")

    # -- flush policies ----------------------------------------------------

    def flush(self, dst_rank: int, reason: str = "explicit") -> int:
        """Flush the buffer for one destination; returns entries shipped."""
        buf = self._buffers.get(dst_rank)
        if not buf:
            return 0
        entries, payload = buf.take()
        ctx = self._ctx
        now = ctx.clock.now_ns
        obs = ctx.obs
        for e in entries:
            self.parked_ns_total += now - e.ts_ns
            if obs is not None:
                obs.metrics.histogram("agg.parked_ns").record(now - e.ts_ns)
        if obs is not None:
            obs.metrics.histogram(
                "agg.bundle_entries", _BUNDLE_DEPTH_EDGES
            ).record(len(entries))
        ctx.conduit.send_bundle(ctx, dst_rank, entries, payload)
        self.bundles_flushed += 1
        self.entries_flushed += len(entries)
        self.bundle_size_hist[len(entries)] += 1
        self.flush_reasons[reason] += 1
        if len(entries) > self.largest_bundle:
            self.largest_bundle = len(entries)
        return len(entries)

    def flush_all(self, reason: str = "explicit") -> int:
        """Flush every destination buffer (rank order, deterministic)."""
        shipped = 0
        for dst in sorted(self._buffers):
            shipped += self.flush(dst, reason=reason)
        return shipped

    def flush_aged(self) -> int:
        """Always 0: kept only because perfbench's ENTRY_POINTS names it."""
        return 0

    # -- observability -----------------------------------------------------

    def stats(self) -> AggregatorSnapshot:
        """An immutable snapshot of this rank's aggregation activity."""
        return AggregatorSnapshot(
            rank=self._ctx.rank,
            appended=self.appended,
            bundles_flushed=self.bundles_flushed,
            entries_flushed=self.entries_flushed,
            largest_bundle=self.largest_bundle,
            pending_entries=self.pending_entries(),
            bundle_size_hist=dict(self.bundle_size_hist),
            flush_reasons=dict(self.flush_reasons),
            parked_ns_total=self.parked_ns_total,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AmAggregator rank={self._ctx.rank} "
            f"pending={self.pending_entries()} "
            f"flushed={self.bundles_flushed}>"
        )

"""Operation-lifecycle spans.

Every asynchronous operation — RMA put/get, atomics, rpc, and
barrier — opens an :class:`OpSpan` at initiation and stamps virtual
timestamps as it moves through its lifecycle:

``t_init``
    the operation was initiated (its :class:`~repro.core.completions.\
CxDispatcher` was constructed);
``t_injected``
    the payload left the initiator (memcpy for pshm-local, AM injection
    for off-node);
``t_transfer``
    the data transfer itself completed (the paper's "operation finished
    at the hardware level" instant);
``t_dispatched``
    the completion *notification* reached user-visible state — a future
    became ready, a promise was fulfilled, an LPC ran.  The interval
    ``t_dispatched - t_transfer`` is the **notification gap**, the
    quantity eager notification collapses to zero for dynamically-local
    transfers;
``t_waited``
    a ``Future.wait()`` observed the operation complete (absent when the
    result is consumed through callbacks only).

Spans carry op kind, peer rank, payload size, locality (``pshm`` vs
``offnode``) and completion mode (``eager`` vs ``defer``), so the world
rollup (:func:`merge_obs_snapshots`) can bucket notification gaps by
(mode, locality) — the paper's figure axes.

All timestamps come from the per-rank :class:`~repro.sim.clock.\
VirtualClock` and recording charges **no** cost-model actions: runs with
observability on are tick-for-tick identical to runs with it off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.obs.metrics import (
    DEPTH_EDGES,
    LATENCY_EDGES_NS,
    HistogramMetric,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    merge_metrics,
)
from repro.obs.request import RequestRecorder, RequestSpan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.context import RankContext

#: Spans (and request spans) retained per rank; later ones are counted as
#: dropped but still stamped.
SPAN_CAPACITY = 65536


@dataclass
class OpSpan:
    """One asynchronous operation's lifecycle (all times virtual ns)."""

    sid: int
    rank: int
    op: str
    mode: str  # "eager" | "defer" | "none" (no completion to notify)
    t_init: float
    target: Optional[int] = None
    nbytes: int = 0
    locality: str = "unknown"  # "pshm" | "offnode" | "coll" | "unknown"
    t_injected: Optional[float] = None
    t_transfer: Optional[float] = None
    t_dispatched: Optional[float] = None
    t_waited: Optional[float] = None

    @property
    def notification_gap_ns(self) -> Optional[float]:
        """transfer-complete -> notification-dispatched, or None if open."""
        if self.t_transfer is None or self.t_dispatched is None:
            return None
        return self.t_dispatched - self.t_transfer

    @property
    def end_ns(self) -> float:
        """Latest stamped phase (spans render as [t_init, end_ns])."""
        end = self.t_init
        for t in (self.t_injected, self.t_transfer, self.t_dispatched,
                  self.t_waited):
            if t is not None and t > end:
                end = t
        return end

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.t_init


class SpanRecorder:
    """Bounded per-rank span store.

    Spans past ``capacity`` are still created (so phase marking keeps
    working and costs nothing extra) but are not retained; the drop is
    counted so rollups and exports can say the record is partial.
    """

    __slots__ = ("rank", "capacity", "spans", "dropped", "_next_sid")

    def __init__(self, rank: int, capacity: int):
        self.rank = rank
        self.capacity = capacity
        self.spans: list[OpSpan] = []
        self.dropped = 0
        self._next_sid = 0

    def begin(
        self,
        op: str,
        mode: str,
        now_ns: float,
        *,
        target: Optional[int] = None,
        nbytes: int = 0,
        locality: str = "unknown",
    ) -> OpSpan:
        sid = self._next_sid
        self._next_sid += 1
        span = OpSpan(
            sid=sid,
            rank=self.rank,
            op=op,
            mode=mode,
            t_init=now_ns,
            target=target,
            nbytes=nbytes,
            locality=locality,
        )
        if len(self.spans) < self.capacity:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    @property
    def next_sid(self) -> int:
        """The sid the *next* :meth:`begin` will assign — bracketing two
        reads of this around a code region yields the contiguous sid
        range of every span that region began (how request spans link to
        the operation spans they spawned)."""
        return self._next_sid


@dataclass(frozen=True)
class ObsSnapshot:
    """Immutable per-rank observability state, safe to roll up."""

    rank: int
    node: int
    spans: tuple[OpSpan, ...]
    spans_dropped: int
    #: (t_ns, deferred-queue depth) sampled at each ``progress()`` entry.
    depth_samples: tuple[tuple[float, int], ...]
    metrics: MetricsSnapshot
    #: request-lifecycle spans from the serve driver (empty outside a
    #: served run — see :mod:`repro.obs.request`)
    request_spans: tuple[RequestSpan, ...] = ()
    request_spans_dropped: int = 0


@dataclass(frozen=True)
class GapStats:
    """Notification-gap distribution for one (mode, locality) class."""

    mode: str
    locality: str
    hist: HistogramSnapshot

    @property
    def count(self) -> int:
        return self.hist.n

    @property
    def zeros(self) -> int:
        """Gaps that are exactly zero (first bucket, edge 0.0)."""
        return self.hist.counts[0]

    @property
    def mean_ns(self) -> float:
        return self.hist.mean


@dataclass(frozen=True)
class ObsStats:
    """World-wide rollup of per-rank :class:`ObsSnapshot`."""

    ranks: int
    total_spans: int
    total_dropped: int
    spans_by_op: dict[str, int]
    #: keyed by (mode, locality)
    gaps: dict[tuple[str, str], GapStats]
    #: gap distributions restricted to spans some caller blocked on
    #: (``t_waited`` stamped)
    waited_gaps: dict[tuple[str, str], GapStats]
    metrics: MetricsSnapshot
    #: request-lifecycle accounting (zeros outside a served run)
    total_requests: int = 0
    total_requests_dropped: int = 0
    requests_by_op: dict = field(default_factory=dict)
    slo_misses: int = 0

    def gap(self, mode: str, locality: str) -> Optional[GapStats]:
        return self.gaps.get((mode, locality))

    def waited_gap(self, mode: str, locality: str) -> Optional[GapStats]:
        return self.waited_gaps.get((mode, locality))


def merge_obs_snapshots(snapshots: Iterable[ObsSnapshot]) -> ObsStats:
    """Combine per-rank snapshots into the world-wide view."""
    snaps = list(snapshots)
    total_spans = 0
    total_dropped = 0
    by_op: dict[str, int] = {}
    gap_hists: dict[tuple[str, str], HistogramMetric] = {}
    waited_hists: dict[tuple[str, str], HistogramMetric] = {}
    total_requests = 0
    total_requests_dropped = 0
    requests_by_op: dict[str, int] = {}
    slo_misses = 0
    for snap in snaps:
        total_spans += len(snap.spans) + snap.spans_dropped
        total_dropped += snap.spans_dropped
        total_requests += len(snap.request_spans) + snap.request_spans_dropped
        total_requests_dropped += snap.request_spans_dropped
        for req in snap.request_spans:
            requests_by_op[req.op] = requests_by_op.get(req.op, 0) + 1
            if req.slo_missed:
                slo_misses += 1
        for span in snap.spans:
            by_op[span.op] = by_op.get(span.op, 0) + 1
            gap = span.notification_gap_ns
            if gap is None:
                continue
            key = (span.mode, span.locality)
            h = gap_hists.get(key)
            if h is None:
                h = gap_hists[key] = HistogramMetric(
                    f"notify_gap_ns.{span.mode}.{span.locality}",
                    LATENCY_EDGES_NS,
                )
            h.record(gap)
            if span.t_waited is not None:
                w = waited_hists.get(key)
                if w is None:
                    w = waited_hists[key] = HistogramMetric(
                        f"waited_gap_ns.{span.mode}.{span.locality}",
                        LATENCY_EDGES_NS,
                    )
                w.record(gap)
    return ObsStats(
        ranks=len(snaps),
        total_spans=total_spans,
        total_dropped=total_dropped,
        spans_by_op=by_op,
        gaps={
            key: GapStats(mode=key[0], locality=key[1], hist=h.snapshot())
            for key, h in sorted(gap_hists.items())
        },
        waited_gaps={
            key: GapStats(mode=key[0], locality=key[1], hist=h.snapshot())
            for key, h in sorted(waited_hists.items())
        },
        metrics=merge_metrics(s.metrics for s in snaps),
        total_requests=total_requests,
        total_requests_dropped=total_requests_dropped,
        requests_by_op=requests_by_op,
        slo_misses=slo_misses,
    )


class ObsState:
    """Per-rank observability root, hung off ``RankContext.obs``.

    ``ctx.obs`` is ``None`` unless ``FeatureFlags.obs_spans`` is set;
    every instrumentation site guards on that single attribute, the same
    pattern as ``RankContext.am_agg``.
    """

    MAX_DEPTH_SAMPLES = 100_000

    __slots__ = ("ctx", "spans", "requests", "metrics", "depth_samples",
                 "depth_samples_dropped")

    def __init__(self, ctx: "RankContext"):
        self.ctx = ctx
        self.spans = SpanRecorder(ctx.rank, SPAN_CAPACITY)
        self.requests = RequestRecorder(ctx.rank, SPAN_CAPACITY)
        self.metrics = MetricsRegistry()
        self.depth_samples: list[tuple[float, int]] = []
        self.depth_samples_dropped = 0

    # -- span lifecycle ------------------------------------------------

    def begin_span(
        self,
        op: str,
        mode: str,
        *,
        target: Optional[int] = None,
        nbytes: int = 0,
        locality: str = "unknown",
    ) -> OpSpan:
        return self.spans.begin(
            op,
            mode,
            self.ctx.clock.now_ns,
            target=target,
            nbytes=nbytes,
            locality=locality,
        )

    def begin_request(
        self,
        op: str,
        key: int,
        kclass: str,
        t_arrival: float,
        *,
        slo_deadline_ns=None,
    ) -> RequestSpan:
        """Open a request-lifecycle span (serve driver only; see
        :mod:`repro.obs.request`)."""
        return self.requests.begin(
            op, key, kclass, t_arrival, slo_deadline_ns=slo_deadline_ns
        )

    def close_notification(self, span: OpSpan, now_ns: float) -> None:
        """Stamp notification dispatch and feed the gap histogram."""
        if span.t_transfer is None:
            span.t_transfer = now_ns
        if span.t_dispatched is not None:
            return  # already closed (e.g. multi-cell fulfilment)
        span.t_dispatched = now_ns
        self.metrics.histogram(
            f"notify_gap_ns.{span.mode}.{span.locality}", LATENCY_EDGES_NS
        ).record(now_ns - span.t_transfer)

    # -- progress-engine signals ---------------------------------------

    def on_progress_enter(self, depth: int, now_ns: float) -> None:
        self.metrics.histogram(
            "progress.deferred_depth", DEPTH_EDGES
        ).record(depth)
        if len(self.depth_samples) < self.MAX_DEPTH_SAMPLES:
            self.depth_samples.append((now_ns, depth))
        else:
            self.depth_samples_dropped += 1

    def on_progress_drained(self, batch: int) -> None:
        self.metrics.histogram(
            "progress.drain_batch", DEPTH_EDGES
        ).record(batch)

    # -- snapshotting --------------------------------------------------

    def snapshot(self) -> ObsSnapshot:
        return ObsSnapshot(
            rank=self.ctx.rank,
            node=self.ctx.world.node_of(self.ctx.rank),
            spans=tuple(self.spans.spans),
            spans_dropped=self.spans.dropped,
            depth_samples=tuple(self.depth_samples),
            metrics=self.metrics.snapshot(),
            request_spans=tuple(self.requests.spans),
            request_spans_dropped=self.requests.dropped,
        )

"""Fixed-bucket histograms: the notification-gap and queue-depth records.

The observability layer needs distributions, not just totals — the paper's
argument (and the MPI Continuations / HPX+LCI follow-ups) is that
notification-latency *distributions* and progress-engine behaviour over
time are what distinguish completion designs.  Counts of actions are not
kept here: the cost model already counts every action per rank.

Design constraints:

* **Zero simulated cost** — recording a value never charges the cost
  model or touches the virtual clock, so enabling observability cannot
  perturb any measured figure.
* **Fixed buckets** — edges are chosen at creation and never rebalance,
  so per-rank histograms merge by plain element-wise addition.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional

#: Default bucket edges for nanosecond latencies.  The first edge is 0.0
#: so an *exactly zero* notification gap (the eager pshm-local signature)
#: lands in its own bucket, distinguishable from merely-small gaps.
LATENCY_EDGES_NS = (
    0.0, 1.0, 10.0, 50.0, 100.0, 250.0, 500.0,
    1e3, 2.5e3, 5e3, 1e4, 5e4, 1e5, 1e6,
)

#: Default bucket edges for queue depths.
DEPTH_EDGES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable view of one histogram (mergeable across ranks)."""

    name: str
    edges: tuple[float, ...]
    #: ``len(edges) + 1`` buckets; bucket ``i < len(edges)`` counts values
    #: ``edges[i-1] < v <= edges[i]`` (first bucket: ``v <= edges[0]``),
    #: the final bucket counts overflow values ``v > edges[-1]``.
    counts: tuple[int, ...]
    n: int
    total: float
    min: Optional[float]
    max: Optional[float]

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """Approximate value at quantile ``q`` (0 <= q <= 1).

        Fixed buckets only bound the answer to the containing bucket, so
        this interpolates linearly by rank inside it, clamping the bucket
        bounds to the observed ``min``/``max`` (which makes the first and
        overflow buckets answerable at all).  The extreme quantiles are
        known exactly — ``q=0.0`` returns the observed minimum and
        ``q=1.0`` the observed maximum — and no answer ever extrapolates
        past the observed range (a single-sample histogram returns its
        sample at every ``q``).  For guaranteed-relative-error quantiles
        use :class:`~repro.obs.percentiles.PercentileSketch`; this helper
        exists so the *existing* gap/depth histograms can report a p99
        without changing their storage.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.n:
            return 0.0
        # the extremes are recorded, not estimated: interpolation would
        # otherwise place q=1.0 strictly inside the containing bucket —
        # wrong in the overflow bucket, where max is the only upper bound
        if q <= 0.0:
            return float(self.min)
        if q >= 1.0:
            return float(self.max)
        rank = q * (self.n - 1)
        seen = 0
        for i, count in enumerate(self.counts):
            if not count:
                continue
            if rank < seen + count:
                lo = self.edges[i - 1] if i > 0 else self.min
                hi = self.edges[i] if i < len(self.edges) else self.max
                if self.min is not None:
                    lo = max(lo, self.min)
                if self.max is not None:
                    hi = min(hi, self.max)
                if hi <= lo:
                    return float(lo)
                # linear-by-rank interpolation inside the bucket: the
                # k-th of `count` values sits at (k + 0.5) / count
                frac = (rank - seen + 0.5) / count
                return float(lo + (hi - lo) * min(1.0, max(0.0, frac)))
            seen += count
        return float(self.max if self.max is not None else 0.0)

    def bucket_label(self, i: int) -> str:
        if i == 0:
            return f"<= {self.edges[0]:g}"
        if i == len(self.edges):
            return f"> {self.edges[-1]:g}"
        return f"{self.edges[i - 1]:g}..{self.edges[i]:g}"


class HistogramMetric:
    """A fixed-bucket histogram (see :class:`HistogramSnapshot`)."""

    __slots__ = ("name", "edges", "counts", "n", "total", "min", "max")

    def __init__(self, name: str, edges: Iterable[float] = LATENCY_EDGES_NS):
        self.name = name
        self.edges = tuple(float(e) for e in edges)
        if not self.edges or list(self.edges) != sorted(set(self.edges)):
            raise ValueError(
                f"histogram {name!r} needs strictly increasing edges"
            )
        self.counts = [0] * (len(self.edges) + 1)
        self.n = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        v = float(value)
        self.counts[bisect_left(self.edges, v)] += 1
        self.n += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            name=self.name,
            edges=self.edges,
            counts=tuple(self.counts),
            n=self.n,
            total=self.total,
            min=self.min,
            max=self.max,
        )


def _merge_hist(
    a: HistogramSnapshot, b: HistogramSnapshot
) -> HistogramSnapshot:
    """Element-wise sum of two snapshots of one histogram (how per-rank
    records merge into the world-wide view)."""
    if a.edges != b.edges:
        raise ValueError(
            f"cannot merge histograms {a.name!r}: differing bucket edges"
        )
    mins = [m for m in (a.min, b.min) if m is not None]
    maxs = [m for m in (a.max, b.max) if m is not None]
    return HistogramSnapshot(
        name=a.name,
        edges=a.edges,
        counts=tuple(x + y for x, y in zip(a.counts, b.counts)),
        n=a.n + b.n,
        total=a.total + b.total,
        min=min(mins) if mins else None,
        max=max(maxs) if maxs else None,
    )

"""Streaming log-bucketed percentile sketches (bounded relative error).

Tail latency is the serving benchmark's headline quantity, and a fixed-
bucket histogram cannot answer "what is p999?" with a guaranteed error:
the answer depends on where the edges happened to fall.  This module
provides the standard fix — a DDSketch-style *log-bucketed* histogram
whose bucket boundaries grow geometrically, so every recorded value lands
in a bucket whose midpoint estimate is within a configurable **relative**
error of the true value, at every quantile, for any value range.

Design constraints (shared with :mod:`repro.obs.metrics`):

* **Zero simulated cost** — recording never charges the cost model or
  reads the virtual clock, so sketches cannot perturb a measured run.
* **Deterministic** — bucketing uses only ``math.log`` on the value and
  integer arithmetic; two runs that record the same stream produce
  bit-identical snapshots.
* **Mergeable** — buckets are keyed by integer index, so per-rank
  sketches with the same ``rel_err`` merge by summing counts (associative
  and commutative; rolled up world-wide through
  :func:`repro.sim.stats.gather_rank_snapshots`).

Error bound
-----------

With relative accuracy ``a`` the bucket growth factor is
``gamma = (1 + a) / (1 - a)``; value ``v > 0`` lands in bucket
``i = ceil(log_gamma(v))`` covering ``(gamma**(i-1), gamma**i]``, and the
bucket's midpoint estimate ``2 * gamma**i / (gamma + 1)`` is within
``a * v`` of every value in the bucket.  Quantiles are answered by
rank-walking the (sorted-by-index) buckets, so the reported
``quantile(q)`` is within relative error ``a`` of the element a sorted
reference oracle would return at rank ``floor(q * (n - 1))`` — the bound
:class:`tests.test_percentiles` pins against an exact oracle.  Values
``<= 0`` (an exactly-zero latency is meaningful here: the eager zero-gap
signature) are counted in a dedicated zero bucket and reported as 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

#: default relative accuracy: 1% — p999 of a millisecond-scale tail is
#: resolved to ~10 us, far tighter than any effect the benchmarks quote
DEFAULT_REL_ERR = 0.01


@dataclass(frozen=True)
class PercentileSnapshot:
    """Immutable view of one sketch (mergeable across ranks)."""

    name: str
    rel_err: float
    #: ``(bucket_index, count)`` pairs sorted by index; bucket ``i``
    #: covers values in ``(gamma**(i-1), gamma**i]``
    buckets: tuple[tuple[int, int], ...]
    #: values ``<= 0`` (kept exact, reported as 0.0)
    zero_count: int
    n: int
    total: float
    min: Optional[float]
    max: Optional[float]

    @property
    def gamma(self) -> float:
        return (1.0 + self.rel_err) / (1.0 - self.rel_err)

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` (0 <= q <= 1), within ``rel_err``
        relative error of the exact order statistic at rank
        ``floor(q * (n - 1))``; 0.0 for an empty sketch."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.n:
            return 0.0
        rank = int(q * (self.n - 1))
        if rank < self.zero_count:
            return 0.0
        seen = self.zero_count
        gamma = self.gamma
        for index, count in self.buckets:
            seen += count
            if rank < seen:
                return 2.0 * gamma**index / (gamma + 1.0)
        # unreachable when bucket counts sum to n; guard for safety
        return self.max if self.max is not None else 0.0

    def percentiles(self, qs: Iterable[float] = (0.5, 0.99, 0.999)) -> dict:
        """Convenience: ``{"p50": ..., "p99": ..., "p999": ...}``."""
        out = {}
        for q in qs:
            label = f"p{q * 100:g}".replace(".", "")
            out[label] = self.quantile(q)
        return out


class PercentileSketch:
    """A streaming log-bucketed quantile sketch (see module docstring)."""

    __slots__ = (
        "name", "rel_err", "_gamma", "_log_gamma", "_buckets",
        "zero_count", "n", "total", "min", "max",
    )

    def __init__(self, name: str, rel_err: float = DEFAULT_REL_ERR):
        if not (0.0 < rel_err < 1.0):
            raise ValueError(
                f"rel_err must be in (0, 1), got {rel_err}"
            )
        self.name = name
        self.rel_err = rel_err
        self._gamma = (1.0 + rel_err) / (1.0 - rel_err)
        self._log_gamma = math.log(self._gamma)
        self._buckets: dict[int, int] = {}
        self.zero_count = 0
        self.n = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        v = float(value)
        self.n += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        if v <= 0.0:
            self.zero_count += 1
            return
        index = math.ceil(math.log(v) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def quantile(self, q: float) -> float:
        return self.snapshot().quantile(q)

    def snapshot(self) -> PercentileSnapshot:
        return PercentileSnapshot(
            name=self.name,
            rel_err=self.rel_err,
            buckets=tuple(sorted(self._buckets.items())),
            zero_count=self.zero_count,
            n=self.n,
            total=self.total,
            min=self.min,
            max=self.max,
        )


def record_pair(
    first: PercentileSketch, second: PercentileSketch, value: float
) -> None:
    """``first.record(value); second.record(value)`` with one ``log``
    (the sketches must share ``rel_err``, so the bucket is the same)."""
    v = float(value)
    index = None if v <= 0.0 else math.ceil(math.log(v) / first._log_gamma)
    for sk in (first, second):
        sk.n += 1
        sk.total += v
        if sk.min is None or v < sk.min:
            sk.min = v
        if sk.max is None or v > sk.max:
            sk.max = v
        if index is None:
            sk.zero_count += 1
        else:
            buckets = sk._buckets
            buckets[index] = buckets.get(index, 0) + 1


def merge_percentiles(
    snapshots: Iterable[PercentileSnapshot],
) -> PercentileSnapshot:
    """Merge same-accuracy snapshots by summing bucket counts.

    Bucket addition is associative and commutative, so any merge tree over
    the same set of per-rank snapshots yields the identical result — the
    property the rank-rollup tests pin.  Raises on an empty iterable or on
    mismatched ``rel_err`` (buckets would not be commensurable).
    """
    snaps = list(snapshots)
    if not snaps:
        raise ValueError("merge_percentiles requires at least one snapshot")
    first = snaps[0]
    buckets: dict[int, int] = {}
    zero = 0
    n = 0
    total = 0.0
    mins = []
    maxs = []
    for s in snaps:
        if s.rel_err != first.rel_err:
            raise ValueError(
                f"cannot merge sketches {first.name!r}: differing rel_err "
                f"({first.rel_err} vs {s.rel_err})"
            )
        for index, count in s.buckets:
            buckets[index] = buckets.get(index, 0) + count
        zero += s.zero_count
        n += s.n
        total += s.total
        if s.min is not None:
            mins.append(s.min)
        if s.max is not None:
            maxs.append(s.max)
    return PercentileSnapshot(
        name=first.name,
        rel_err=first.rel_err,
        buckets=tuple(sorted(buckets.items())),
        zero_count=zero,
        n=n,
        total=total,
        min=min(mins) if mins else None,
        max=max(maxs) if maxs else None,
    )

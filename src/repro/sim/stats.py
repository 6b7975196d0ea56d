"""The paper's sampling protocol.

Section IV: "Each experimental result was obtained by running twenty
samples, taking the average of the top ten.  The exception is GUPS on IBM
with 16 processes; due to higher noise in this experiment, we ran 60 samples
and took the average of the top ten."

Our virtual-time measurements are deterministic given a seed, so "noise" is
injected by varying the sample seed; the protocol is still applied so the
harness matches the paper's methodology (and so the stats helpers are
exercised end-to-end).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import World


@dataclass(frozen=True)
class SampleStats:
    """Summary of a sampled measurement.

    ``value`` follows the paper's estimator.  For latency-like metrics
    (lower is better) the "top ten" are the ten *smallest* samples; for
    throughput-like metrics (higher is better) they are the ten largest.
    """

    samples: tuple[float, ...]
    value: float
    best: float
    worst: float
    mean: float

    @property
    def n(self) -> int:
        return len(self.samples)


def paper_average(
    samples: Sequence[float], *, top: int = 10, lower_is_better: bool = True
) -> SampleStats:
    """Apply the paper's estimator: average of the best ``top`` samples.

    Parameters
    ----------
    samples:
        Raw measurements (at least one).
    top:
        How many of the best samples to average (paper: 10).  If fewer
        samples are available, all are used.
    lower_is_better:
        Direction of "best": ``True`` for latencies, ``False`` for rates.
    """
    if not samples:
        raise ValueError("paper_average requires at least one sample")
    ordered = sorted(samples, reverse=not lower_is_better)
    chosen = ordered[: max(1, min(top, len(ordered)))]
    mean_all = sum(samples) / len(samples)
    return SampleStats(
        samples=tuple(samples),
        value=sum(chosen) / len(chosen),
        best=ordered[0],
        worst=ordered[-1],
        mean=mean_all,
    )


def run_samples(
    fn: Callable[[int], float],
    *,
    n_samples: int = 20,
    top: int = 10,
    lower_is_better: bool = True,
) -> SampleStats:
    """Run ``fn(sample_index)`` ``n_samples`` times and apply the paper's
    estimator to the results.

    ``fn`` receives the sample index (useful as a seed perturbation) and
    must return a single measurement.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    samples = [float(fn(i)) for i in range(n_samples)]
    return paper_average(samples, top=top, lower_is_better=lower_is_better)


# ---------------------------------------------------------------------------
# seed-repetition confidence intervals (the A/B engine's error bars)
# ---------------------------------------------------------------------------

#: two-sided Student-t critical values at 95% confidence by degrees of
#: freedom; beyond the table the normal approximation (1.96) is close
#: enough for an error bar.  Hardcoded so the helper stays stdlib-only
#: and bit-reproducible across environments (no scipy dependency).
_T95_BY_DF = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


@dataclass(frozen=True)
class ConfidenceInterval:
    """A 95% Student-t confidence interval of a mean over per-seed
    samples.  Virtual-time metrics are deterministic given a seed, so all
    interval width comes from seed-to-seed workload variation; a single
    seed (or identical samples) yields a zero-width interval — a gate
    built on it then demands exact reproduction."""

    mean: float
    lo: float
    hi: float
    n: int
    stdev: float

    @property
    def halfwidth(self) -> float:
        return self.hi - self.mean

    def as_dict(self) -> dict:
        """JSON-artifact form (rounded for stable diffs)."""
        return {
            "mean": round(self.mean, 9),
            "lo": round(self.lo, 9),
            "hi": round(self.hi, 9),
            "n": self.n,
            "stdev": round(self.stdev, 9),
        }


def seed_confidence_interval(
    samples: Sequence[float],
) -> ConfidenceInterval:
    """95% confidence interval of the mean of ``samples`` (one
    measurement per seed), using Student-t critical values for small n.
    """
    if not samples:
        raise ValueError(
            "seed_confidence_interval requires at least one sample"
        )
    vals = [float(v) for v in samples]
    n = len(vals)
    mean = sum(vals) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, lo=mean, hi=mean, n=1, stdev=0.0)
    var = sum((v - mean) ** 2 for v in vals) / (n - 1)
    stdev = var ** 0.5
    t = _T95_BY_DF.get(n - 1, 1.96)
    half = t * stdev / n ** 0.5
    return ConfidenceInterval(
        mean=mean, lo=mean - half, hi=mean + half, n=n, stdev=stdev
    )


# ---------------------------------------------------------------------------
# runtime-internal counters surfaced for benchmarks/tests
# ---------------------------------------------------------------------------


def gather_rank_snapshots(world: "World", getter: Callable):
    """Collect per-rank observability snapshots across ``world.contexts``.

    ``getter(ctx)`` returns the rank's snapshot or ``None`` when the
    corresponding subsystem is disabled on that rank; disabled ranks are
    skipped.  This is the one shared rollup walk behind
    :func:`aggregation_snapshots` and :func:`observability_snapshots` —
    every per-rank stats subsystem gathers through it so world iteration
    and the None-means-off convention live in a single place.
    """
    snaps = []
    for ctx in world.contexts:
        snap = getter(ctx)
        if snap is not None:
            snaps.append(snap)
    return snaps


def observability_snapshots(world: "World"):
    """Per-rank :class:`~repro.obs.ObsSnapshot` list (empty when
    ``FeatureFlags.obs_spans`` is off)."""
    return gather_rank_snapshots(
        world,
        lambda ctx: ctx.obs.snapshot() if ctx.obs is not None else None,
    )


def observability_stats(world: "World"):
    """World-wide :class:`~repro.obs.ObsStats` rollup (``None`` when
    ``FeatureFlags.obs_spans`` is off)."""
    snaps = observability_snapshots(world)
    if not snaps:
        return None
    from repro.obs import merge_obs_snapshots  # local: repro.obs is leaf-light

    return merge_obs_snapshots(snaps)


def serve_snapshots(world: "World"):
    """Per-rank :class:`~repro.serve.driver.ServeRankSnapshot` list
    (empty when the world never ran the serving driver).

    The serving driver parks its measurement state on the rank context
    as ``ctx.serve_obs`` — same convention as the aggregation and
    observability subsystems, gathered through the one shared rollup
    walk."""
    return gather_rank_snapshots(
        world,
        lambda ctx: (
            ctx.serve_obs.snapshot()
            if getattr(ctx, "serve_obs", None) is not None
            else None
        ),
    )


@dataclass(frozen=True)
class AggregationStats:
    """World-wide AM-aggregation counters (summed over ranks).

    All zeros (and ``bundle_size_hist`` / ``flush_reasons`` empty) when
    aggregation is off.
    """

    appended: int
    bundles_flushed: int
    entries_flushed: int
    largest_bundle: int
    #: summed simulated parking time (append -> flush) over all entries
    parked_ns_total: float = 0.0
    #: merged bundle-size -> count histogram
    bundle_size_hist: dict = field(default_factory=dict)
    #: merged flush-trigger -> count tally
    flush_reasons: dict = field(default_factory=dict)

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


def aggregation_stats(world: "World") -> AggregationStats:
    """Aggregate the per-rank :class:`~repro.gasnet.aggregator.AmAggregator`
    counters of a world (all zeros when aggregation is off)."""
    appended = flushed = entries = largest = 0
    parked = 0.0
    hist: dict[int, int] = {}
    reasons: dict[str, int] = {}
    for s in aggregation_snapshots(world):
        appended += s.appended
        flushed += s.bundles_flushed
        entries += s.entries_flushed
        largest = max(largest, s.largest_bundle)
        parked += s.parked_ns_total
        for size, count in s.bundle_size_hist.items():
            hist[size] = hist.get(size, 0) + count
        for reason, count in s.flush_reasons.items():
            reasons[reason] = reasons.get(reason, 0) + count
    return AggregationStats(
        appended=appended,
        bundles_flushed=flushed,
        entries_flushed=entries,
        largest_bundle=largest,
        parked_ns_total=parked,
        bundle_size_hist=hist,
        flush_reasons=reasons,
    )


def aggregation_snapshots(world: "World"):
    """Per-rank :class:`~repro.gasnet.aggregator.AggregatorSnapshot` list
    (empty when aggregation is off) — the full per-rank view behind
    :func:`aggregation_stats`."""
    return gather_rank_snapshots(
        world,
        lambda ctx: ctx.am_agg.stats() if ctx.am_agg is not None else None,
    )

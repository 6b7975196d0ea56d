"""Operation-lifecycle observability for the simulated runtime.

Gated behind ``FeatureFlags.obs_spans`` (default off).  When the flag is
off, ``RankContext.obs`` stays ``None`` and every instrumentation site
reduces to one attribute check (the pattern ``RankContext.am_agg`` also
uses), so all existing figures are bit-identical.  When on, each rank
records :class:`~repro.obs.span.OpSpan` lifecycles and its deferred-queue
depth at every ``progress()`` entry, exportable as a Chrome/Perfetto
trace (:func:`~repro.obs.export.chrome_trace`) or rolled up world-wide
(:func:`~repro.obs.span.merge_obs_snapshots`).  Action counts are the
cost model's (``RankContext.costs``); nothing here counts them again.
"""

from repro.obs.metrics import (
    DEPTH_EDGES,
    LATENCY_EDGES_NS,
    HistogramMetric,
    HistogramSnapshot,
)
from repro.obs.percentiles import (
    DEFAULT_REL_ERR,
    PercentileSketch,
    PercentileSnapshot,
    merge_percentiles,
)
from repro.obs.request import RequestRecorder, RequestSpan
from repro.obs.span import (
    GapStats,
    ObsSnapshot,
    ObsState,
    ObsStats,
    OpSpan,
    SpanRecorder,
    merge_obs_snapshots,
)
from repro.obs.export import (
    chrome_trace,
    trace_events,
    validate_trace_events,
    write_chrome_trace,
)

__all__ = [
    "DEPTH_EDGES",
    "LATENCY_EDGES_NS",
    "GapStats",
    "HistogramMetric",
    "HistogramSnapshot",
    "DEFAULT_REL_ERR",
    "ObsSnapshot",
    "ObsState",
    "ObsStats",
    "OpSpan",
    "PercentileSketch",
    "PercentileSnapshot",
    "RequestRecorder",
    "RequestSpan",
    "SpanRecorder",
    "chrome_trace",
    "merge_obs_snapshots",
    "merge_percentiles",
    "trace_events",
    "validate_trace_events",
    "write_chrome_trace",
]

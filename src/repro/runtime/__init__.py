"""Runtime substrate: SPMD driver, rank contexts, scheduler, progress engine.

This package provides the machinery that stands in for the UPC++ runtime
proper: per-rank state (:mod:`repro.runtime.context`), the cooperative
scheduling policy that simulates one OS process per rank
(:mod:`repro.runtime.scheduler`), the event loop that drives every rank
on one thread (:mod:`repro.runtime.event_loop`), the progress engine
implementing the deferred-notification queue
(:mod:`repro.runtime.progress`), and the version/feature configuration
distinguishing the paper's three library builds
(:mod:`repro.runtime.config`).
"""

from repro.runtime.config import FeatureFlags, RuntimeConfig, Version
from repro.runtime.context import RankContext, current_ctx, current_ctx_or_none
from repro.runtime.runtime import SpmdResult, spmd_run

__all__ = [
    "Version",
    "FeatureFlags",
    "RuntimeConfig",
    "RankContext",
    "current_ctx",
    "current_ctx_or_none",
    "spmd_run",
    "SpmdResult",
]

"""Library versions and feature flags.

The paper compares three builds of UPC++ (Section IV):

* ``2021.3.0`` — the official release: deferred notification everywhere,
  an extra heap allocation on the local-RMA path, legacy ``when_all``,
  ready ``future<>`` construction allocates a promise cell, no non-value
  fetching atomics, dynamic ``is_local`` even under the SMP conduit.
* ``2021.3.6 defer`` — a development snapshot with several orthogonal
  optimizations (allocation elision for directly-addressable RMA,
  ``constexpr is_local`` under SMP, shared ready-``future<>`` cell,
  ``when_all`` short-cuts, non-value fetching atomics available) but still
  using deferred notification — the legacy semantics.
* ``2021.3.6 eager`` — the same snapshot with eager notification enabled
  (the paper's contribution; ``as_future``/``as_promise`` default to eager).

Rather than forking the code, each build is a :class:`FeatureFlags` value;
the runtime consults the flags at each decision point, exactly mirroring
where the real implementation's ``#ifdef``/template specializations sit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields, replace


class Version(enum.Enum):
    """The three UPC++ builds compared in the paper."""

    V2021_3_0 = "2021.3.0"
    V2021_3_6_DEFER = "2021.3.6-defer"
    V2021_3_6_EAGER = "2021.3.6-eager"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FeatureFlags:
    """Individual implementation toggles making up a build.

    Attributes
    ----------
    eager_notification:
        ``as_future``/``as_promise`` request eager completion by default
        (Section III-A).  Explicit ``as_defer_*``/``as_eager_*`` factories
        override the default either way (on builds where they exist).
    eager_factories_available:
        Whether the ``as_defer_*``/``as_eager_*`` factories and non-value
        fetching atomics exist at all (2021.3.6 only).
    elide_local_rma_alloc:
        Skip the extra op-descriptor heap allocation for RMA on directly
        addressable pointers (orthogonal 2021.3.6 optimization, §IV-A).
    constexpr_is_local_smp:
        Under the SMP conduit every pointer is directly addressable, so the
        locality branch is compiled away (orthogonal 2021.3.6 optimization,
        §IV-B).
    ready_future_shared_cell:
        Ready value-less ``future<>`` construction reuses a pre-allocated
        shared promise cell instead of heap-allocating (§III-B).
    when_all_shortcuts:
        ``when_all`` returns an input future directly when the others are
        ready and value-less (§III-C).
    nonvalue_fetching_atomics:
        The new ``fetch_*_into`` atomic overloads that write the fetched
        value to memory instead of the notification (§III-B).
    am_aggregation:
        Destination-batched coalescing of small off-node AMs into bundled
        messages (see :mod:`repro.gasnet.aggregator`).  Off by default on
        every build: it is an extension beyond the paper, orthogonal to
        eager/deferred notification, and with it off the runtime behaves
        bit-identically to the seed.
    obs_spans:
        Operation-lifecycle observability (see :mod:`repro.obs`): every
        asynchronous operation records a span with phase timestamps
        (injected / transfer-complete / notification-dispatched /
        waited), and the progress engine samples its deferred-queue depth
        at every entry.  Off by default on every build;
        recording charges no cost-model actions, so virtual timings are
        identical either way, and with the flag off ``RankContext.obs``
        stays ``None`` (one attribute check per site — zero cost).
    sched_wake_list:
        Event-driven wake lists in the event-loop scheduler:
        a blocking construct that names its wake event (cell readiness,
        barrier epoch advance — see
        :class:`~repro.runtime.switchpoints.BlockUntil`) parks on a wake
        bit that the completion site sets, instead of having its predicate
        re-evaluated by every switch's round-robin scan.  Promotion sets,
        picks, virtual clocks, and switch traces are bit-identical to the
        scan (the order-preservation argument is in DESIGN.md §9); any
        keyless block falls back to the scan until it wakes.  On by
        default on every build; turning it off restores the pure
        predicate-scan scheduler — the differential oracle the wake-list
        suites diff against.
    cx_continuations:
        Notifiable completion objects beyond futures/promises (see
        :mod:`repro.core.completions` and DESIGN.md §11): continuation
        completions (``operation_cx.as_continuation(fn)`` — the callback
        runs inline at whichever agent observes completion, with zero
        future/cell allocation) and counter completions
        (:class:`~repro.core.completions.CxCounter` — N operation events
        aggregate into one notification).  Off by default on every
        build: with the flag off the factories raise ``CompletionError``
        and no code path changes, so the runtime is bit-identical to the
        future/promise-only behaviour.
    """

    eager_notification: bool
    eager_factories_available: bool
    elide_local_rma_alloc: bool
    constexpr_is_local_smp: bool
    ready_future_shared_cell: bool
    when_all_shortcuts: bool
    nonvalue_fetching_atomics: bool
    am_aggregation: bool = False
    obs_spans: bool = False
    sched_wake_list: bool = True
    cx_continuations: bool = False

    def replace(self, **kw) -> "FeatureFlags":
        """A copy with the given flags overridden (ablation support)."""
        return replace(self, **kw)


_FLAGS_BY_VERSION: dict[Version, FeatureFlags] = {
    Version.V2021_3_0: FeatureFlags(
        eager_notification=False,
        eager_factories_available=False,
        elide_local_rma_alloc=False,
        constexpr_is_local_smp=False,
        ready_future_shared_cell=False,
        when_all_shortcuts=False,
        nonvalue_fetching_atomics=False,
    ),
    Version.V2021_3_6_DEFER: FeatureFlags(
        eager_notification=False,
        eager_factories_available=True,
        elide_local_rma_alloc=True,
        constexpr_is_local_smp=True,
        ready_future_shared_cell=True,
        when_all_shortcuts=True,
        nonvalue_fetching_atomics=True,
    ),
    Version.V2021_3_6_EAGER: FeatureFlags(
        eager_notification=True,
        eager_factories_available=True,
        elide_local_rma_alloc=True,
        constexpr_is_local_smp=True,
        ready_future_shared_cell=True,
        when_all_shortcuts=True,
        nonvalue_fetching_atomics=True,
    ),
}


def flags_for(version: Version) -> FeatureFlags:
    """The feature set of a given build."""
    return _FLAGS_BY_VERSION[version]


def flag_names() -> tuple[str, ...]:
    """Every :class:`FeatureFlags` field name (spec validation helper)."""
    return tuple(f.name for f in fields(FeatureFlags))


def flag_delta(a: FeatureFlags, b: FeatureFlags) -> dict:
    """Field name -> ``(a_value, b_value)`` for every flag on which the
    two feature sets disagree.

    This is the A/B discipline's measurement device (see
    :mod:`repro.bench.ab`): an experiment's two arms must differ in
    *exactly* the declared toggle — the engine asserts
    ``flag_delta(arm_a, arm_b)`` covers the toggle keys and nothing else,
    so a spec can never silently compare configurations that drifted
    apart in some unrelated knob.
    """
    out = {}
    for f in fields(FeatureFlags):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va != vb:
            out[f.name] = (va, vb)
    return out


@dataclass(frozen=True)
class RuntimeConfig:
    """Complete configuration of one simulated run.

    Combines the library build (version or explicit flag overrides), the
    machine profile name, and the conduit.  ``flags`` defaults to the
    version's standard feature set; benchmarks doing ablations pass custom
    flags.
    """

    version: Version = Version.V2021_3_6_EAGER
    machine: str = "generic"
    conduit: str = "smp"
    flags: FeatureFlags | None = None
    seed: int = 0
    #: relative timing jitter (0 = deterministic virtual time; >0 makes
    #: the paper's 20-sample/top-10 estimator meaningful — see
    #: repro.sim.stats)
    noise: float = 0.0

    def resolved_flags(self) -> FeatureFlags:
        if self.flags is not None:
            return self.flags
        return flags_for(self.version)

    def describe(self) -> str:
        return (
            f"version={self.version.value} machine={self.machine} "
            f"conduit={self.conduit} seed={self.seed}"
        )

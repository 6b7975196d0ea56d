"""Declarative A/B benchmark engine: one flag toggled, everything measured.

Every claim this repo makes is *differential* — eager vs. deferred
notification, aggregation on vs. off, wake list vs. predicate scan — at
fixed everything-else.  Before this module each benchmark hand-rolled its
own comparison loop and its own JSON shape; this module is the one shared
harness:

* An :class:`ABSpec` names a workload factory (:data:`WORKLOADS`), a base
  build (:class:`~repro.runtime.config.Version` plus flag overrides),
  **exactly one toggled flag** (or a flag pair), a sweep axis, the seeds
  to repeat over, and the headline metrics to extract.  The engine builds
  both arms from the same base via :meth:`FeatureFlags.replace` and
  asserts with :func:`~repro.runtime.config.flag_delta` that they differ
  in the declared toggle and nothing else — two configurations can never
  silently drift apart in an unrelated knob.
* :func:`run_ab_spec` runs both arms at every (point, seed), computes
  per-point speedups with 95% confidence intervals over the seed
  repetitions (virtual-time metrics are deterministic per seed, so all
  interval width is seed-to-seed workload variation — see
  :func:`repro.sim.stats.seed_confidence_interval`), and emits a
  ``BENCH_ab_<name>.json`` document whose **deterministic** fields are
  strictly separated from **environment** metadata (wall-clock seconds,
  interpreter version).  Two runs of the same code produce bit-identical
  deterministic blocks, so the artifacts diff cleanly across PRs and
  regressions in the headline metrics (notification gap, injections,
  polls) are caught by :func:`gate_ab` instead of by someone re-reading
  prose.
* :func:`gate_ab` compares a fresh run against a committed artifact:
  shared (point, seed) cells must reproduce the baseline within the
  baseline's confidence interval — which is *zero-width* for
  single-seed or seed-invariant specs, making the gate an exact-equality
  check exactly where the simulation is exactly reproducible.

The discipline follows the reference A/B methodology named in ROADMAP
(same binary, one flag toggled, per-size speedup table): the
``wake_scan`` spec is the honesty check — its deterministic metrics
(switch counts, virtual clocks) must measure **exactly 1.00×**, because
the wake list is a pure pick-mechanism swap; only the environment-side
wall-clock numbers may show the win.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import barrier_gen, current_ctx, rank_me
from repro.runtime.config import (
    FeatureFlags,
    Version,
    flag_delta,
    flag_names,
    flags_for,
)
from repro.sim.costmodel import CostAction
from repro.sim.stats import seed_confidence_interval

#: bumped when the artifact layout changes incompatibly
AB_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MetricSpec:
    """One extracted metric: its key in the workload's metric dict and
    which direction is better (orients the speedup so >1 means the
    toggled arm improved).  ``headline`` metrics are gated by
    :func:`gate_ab`; non-headline metrics are recorded but not gated."""

    name: str
    better: str = "lower"
    headline: bool = True

    def __post_init__(self):
        if self.better not in ("lower", "higher"):
            raise ValueError(
                f"metric {self.name!r}: better must be 'lower' or "
                f"'higher', got {self.better!r}"
            )


@dataclass(frozen=True)
class ABSpec:
    """A declarative A/B experiment (see module docstring)."""

    name: str
    description: str
    #: key into :data:`WORKLOADS`
    workload: str
    #: the swept parameter's name (a workload-understood axis:
    #: ``batch``, ``ranks``, ``updates_per_rank``, ...)
    axis: str
    points: tuple
    seeds: tuple
    #: flag overrides defining arm B relative to the base (exactly one
    #: entry, or two for a declared flag-pair)
    toggle: dict
    metrics: tuple
    version: Version = Version.V2021_3_6_DEFER
    #: flag overrides applied to *both* arms on top of ``flags_for(version)``
    base_overrides: dict = field(default_factory=dict)
    #: quick-mode subsets (CI smoke); must be subsets of the full sweep so
    #: a quick run's cells are directly comparable to a full baseline's
    quick_points: Optional[tuple] = None
    quick_seeds: Optional[tuple] = None
    arm_a: str = "off"
    arm_b: str = "on"
    #: fixed workload parameters (identical in quick and full mode — only
    #: points/seeds shrink, so every quick cell exists in the full sweep)
    workload_params: dict = field(default_factory=dict)

    def __post_init__(self):
        known = set(flag_names())
        if not (1 <= len(self.toggle) <= 2):
            raise ValueError(
                f"spec {self.name!r}: toggle must name exactly one flag "
                f"(or a flag pair), got {sorted(self.toggle)}"
            )
        for k in (*self.toggle, *self.base_overrides):
            if k not in known:
                raise ValueError(
                    f"spec {self.name!r}: unknown FeatureFlags field {k!r}"
                )
        if not self.points:
            raise ValueError(f"spec {self.name!r}: empty points")
        if not self.seeds:
            raise ValueError(f"spec {self.name!r}: empty seeds")
        for sub, full, what in (
            (self.quick_points, self.points, "quick_points"),
            (self.quick_seeds, self.seeds, "quick_seeds"),
        ):
            if sub is not None and not set(sub) <= set(full):
                raise ValueError(
                    f"spec {self.name!r}: {what} must be a subset of the "
                    f"full sweep (quick cells must exist in full artifacts)"
                )
        names = [m.name for m in self.metrics]
        if len(names) != len(set(names)):
            raise ValueError(f"spec {self.name!r}: duplicate metric names")
        if self.arm_a == self.arm_b:
            raise ValueError(f"spec {self.name!r}: arm labels must differ")
        for label, payload in (
            ("toggle", self.toggle),
            ("base_overrides", self.base_overrides),
            ("workload_params", self.workload_params),
        ):
            if json.loads(json.dumps(payload)) != payload:
                raise ValueError(
                    f"spec {self.name!r}: {label} must survive a JSON "
                    "round-trip (string keys, scalar/tuple-free values)"
                )

    def sweep(self, quick: bool) -> tuple[tuple, tuple]:
        """(points, seeds) of the requested mode."""
        points = (
            self.quick_points
            if quick and self.quick_points is not None
            else self.points
        )
        seeds = (
            self.quick_seeds
            if quick and self.quick_seeds is not None
            else self.seeds
        )
        return points, seeds

    def arm_flags(self) -> dict:
        """``{arm label: FeatureFlags}`` with the one-toggle discipline
        asserted: the arms differ in exactly the declared toggle."""
        base = flags_for(self.version).replace(**self.base_overrides)
        armed = base.replace(**self.toggle)
        delta = flag_delta(base, armed)
        if set(delta) != set(self.toggle):
            raise ValueError(
                f"spec {self.name!r}: toggle {sorted(self.toggle)} is not "
                f"the exact arm delta {sorted(delta)} — a toggle entry "
                "repeats its base value (vacuous) or replace() normalized "
                "something unexpected"
            )
        return {self.arm_a: base, self.arm_b: armed}


# ---------------------------------------------------------------------------
# workload registry
# ---------------------------------------------------------------------------

#: name -> factory(point=, axis=, flags=, version=, seed=, params=) -> dict
#: with ``"metrics"`` (scalar, deterministic — the gated values),
#: optional ``"details"`` (deterministic extras, recorded not gated) and
#: optional ``"env"`` (wall-clock extras, environment side only)
WORKLOADS: dict[str, Callable] = {}


def workload(name: str):
    def deco(fn):
        WORKLOADS[name] = fn
        return fn

    return deco


def mean_update_gap(stats) -> tuple[float, int]:
    """Weighted mean notification gap over the operation spans (the
    ``mode='none'`` classes are collectives with no notification)."""
    total = 0.0
    n = 0
    for (mode, _loc), gap in stats.gaps.items():
        if mode == "none":
            continue
        total += gap.mean_ns * gap.count
        n += gap.count
    return (total / n if n else 0.0), n


def _gups_kwargs(point, axis, seed, params):
    """Split workload params into run_gups kwargs and GupsConfig kwargs,
    applying the swept axis to whichever side owns it."""
    p = dict(params)
    run_kw = {
        "ranks": p.pop("ranks", 4),
        "n_nodes": p.pop("n_nodes", 1),
        "conduit": p.pop("conduit", None),
        "machine": p.pop("machine", "intel"),
    }
    variant = p.pop("variant", None)
    by_flag = p.pop("variant_by_flag", None)
    cfg_kw = {
        "table_log2": p.pop("table_log2", 10),
        "updates_per_rank": p.pop("updates_per_rank", 64),
        "batch": p.pop("batch", 16),
        "seed": seed,
    }
    if p:
        raise ValueError(f"unknown gups workload params: {sorted(p)}")
    if axis in run_kw:
        run_kw[axis] = point
    elif axis in cfg_kw and axis != "seed":
        cfg_kw[axis] = point
    else:
        raise ValueError(f"gups workload cannot sweep axis {axis!r}")
    return run_kw, cfg_kw, variant, by_flag


def _pick_variant(variant, by_flag, flags):
    """The workload's tracking idiom may key off the toggled flag (the
    real-code shape: request continuation completions when the build has
    them, fall back to futures otherwise)."""
    if variant is not None:
        return variant
    if by_flag is not None:
        return by_flag["on" if getattr(flags, by_flag["flag"]) else "off"]
    raise ValueError("gups workload needs 'variant' or 'variant_by_flag'")


#: variants whose unsynchronized RMA read-modify-write may lose updates;
#: HPCC verification accepts them at <= 1% table error, everything else
#: must match the race-free oracle exactly
_RACY_VARIANTS = ("rma_promise", "rma_future")


def _verify_gups(res, cfg, axis, point, seed) -> None:
    ok = (
        res.passes_hpcc_verification
        if cfg.variant in _RACY_VARIANTS
        else res.matches_oracle
    )
    if not ok:
        raise AssertionError(
            f"gups workload failed verification ({cfg.variant}, "
            f"{axis}={point}, seed={seed})"
        )


def _gups_cell(res) -> dict:
    metrics = {
        "solve_ns": res.solve_ns,
        "am_injects": res.am_injects,
        "progress_polls": res.progress_polls,
    }
    details = {"gups": round(res.gups, 9), "checksum": int(res.checksum)}
    if res.obs_stats is not None:
        gap, n_gap = mean_update_gap(res.obs_stats)
        metrics["mean_gap_ns"] = round(gap, 6)
        details["gap_count"] = n_gap
        details["gap_modes"] = sorted(
            {mode for (mode, _loc) in res.obs_stats.gaps if mode != "none"}
        )
    return {"metrics": metrics, "details": details}


@workload("gups")
def _wl_gups(*, point, axis, flags, version, seed, params):
    """One GUPS run; metrics are the headline counters the ROADMAP names
    (notification gap, injections, polls) plus the virtual solve time."""
    from repro.apps.gups import GupsConfig, run_gups

    run_kw, cfg_kw, variant, by_flag = _gups_kwargs(point, axis, seed, params)
    cfg = GupsConfig(variant=_pick_variant(variant, by_flag, flags), **cfg_kw)
    res = run_gups(cfg, version=version, flags=flags, **run_kw)
    _verify_gups(res, cfg, axis, point, seed)
    return _gups_cell(res)


def _blocked_storm_body(rounds: int):
    def body():
        ctx = current_ctx()
        me = rank_me()
        for k in range(rounds):
            # staggered arrivals: uneven local work per rank per round, so
            # early arrivals genuinely park while stragglers finish
            ctx.charge(CostAction.FUNCTION_CALL, 1 + ((me + k) % 7))
            yield from barrier_gen()

    return body


@workload("blocked_storm")
def _wl_blocked_storm(*, point, axis, flags, version, seed, params):
    """The blocked-heavy barrier storm: every rank loops over a barrier
    with staggered arrivals, so nearly every rank is parked at any
    moment and the pick mechanism dominates.  Deterministic metrics are
    switch count and final virtual clock — a pure pick-mechanism swap
    like the wake list must measure exactly 1.00× on both; the
    wall-clock win lives in the environment section only."""
    from repro.runtime.runtime import spmd_run

    if axis != "ranks":
        raise ValueError("blocked_storm sweeps the 'ranks' axis only")
    ranks = point
    rounds = params["rounds_by_ranks"][str(ranks)]
    res = spmd_run(
        _blocked_storm_body(rounds),
        ranks=ranks,
        version=version,
        machine="generic",
        segment_bytes=1 << 12,
        flags=flags,
    )
    return {
        "metrics": {
            "switches": res.world.sched_switches,
            "max_clock_ns": res.max_clock_ns(),
        },
        "details": {"barrier_rounds": rounds},
    }


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def run_cell(
    spec: ABSpec,
    *,
    point,
    flags: FeatureFlags,
    seed: int,
) -> tuple[dict, dict]:
    """Run one (point, arm, seed) cell of ``spec``; returns
    ``(cell, env)`` where ``cell`` holds the deterministic ``metrics`` /
    ``details`` and ``env`` the wall seconds plus any workload env
    extras."""
    fn = WORKLOADS[spec.workload]
    params = dict(spec.workload_params)
    t0 = time.perf_counter()
    out = fn(
        point=point,
        axis=spec.axis,
        flags=flags,
        version=spec.version,
        seed=seed,
        params=params,
    )
    wall_s = time.perf_counter() - t0
    metrics = out["metrics"]
    missing = [m.name for m in spec.metrics if m.name not in metrics]
    if missing:
        raise KeyError(
            f"workload {spec.workload!r} did not produce metrics "
            f"{missing} required by spec {spec.name!r}"
        )
    cell = {"metrics": metrics, "details": out.get("details", {})}
    env = {"wall_s": round(wall_s, 6), **out.get("env", {})}
    return cell, env


def _ratio(num: float, den: float) -> Optional[float]:
    """Oriented speedup sample; None when undefined (nonzero / zero)."""
    if den == 0:
        return 1.0 if num == 0 else None
    return num / den


def _speedup_samples(metric: MetricSpec, va: list, vb: list) -> list:
    """Per-seed speedups oriented so >1 means arm B improved."""
    if metric.better == "lower":
        return [_ratio(a, b) for a, b in zip(va, vb)]
    return [_ratio(b, a) for a, b in zip(va, vb)]


def run_ab_spec(spec: ABSpec, *, quick: bool = False, progress=None) -> dict:
    """Run the full A/B sweep of ``spec``; returns the artifact doc."""

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    points, seeds = spec.sweep(quick)
    arms = spec.arm_flags()
    arm_labels = (spec.arm_a, spec.arm_b)
    t_start = time.perf_counter()
    point_rows = []
    env_cells = {}
    for point in points:
        cells = {label: {} for label in arm_labels}
        for seed in seeds:
            for label in arm_labels:
                say(
                    f"ab {spec.name}: {spec.axis}={point} seed={seed} "
                    f"arm={label} ..."
                )
                cell, env = run_cell(
                    spec, point=point, flags=arms[label], seed=seed
                )
                cells[label][str(seed)] = cell
                env_cells[f"{point}|{label}|{seed}"] = env
        metrics_out = {}
        for m in spec.metrics:
            va = [
                float(cells[spec.arm_a][str(s)]["metrics"][m.name])
                for s in seeds
            ]
            vb = [
                float(cells[spec.arm_b][str(s)]["metrics"][m.name])
                for s in seeds
            ]
            sp = _speedup_samples(m, va, vb)
            defined = [s for s in sp if s is not None]
            metrics_out[m.name] = {
                "better": m.better,
                "headline": m.headline,
                "per_seed_a": [round(v, 9) for v in va],
                "per_seed_b": [round(v, 9) for v in vb],
                "a": seed_confidence_interval(va).as_dict(),
                "b": seed_confidence_interval(vb).as_dict(),
                "speedup": (
                    seed_confidence_interval(defined).as_dict()
                    if defined
                    else None
                ),
            }
        point_rows.append(
            {"point": point, "cells": cells, "metrics": metrics_out}
        )

    headline = {}
    for m in spec.metrics:
        if not m.headline:
            continue
        means = [
            row["metrics"][m.name]["speedup"]["mean"]
            for row in point_rows
            if row["metrics"][m.name]["speedup"] is not None
        ]
        headline[m.name] = {
            "better": m.better,
            "points": len(means),
            "speedup_mean_min": round(min(means), 9) if means else None,
            "speedup_mean_max": round(max(means), 9) if means else None,
        }

    wall_total = time.perf_counter() - t_start
    doc = {
        "bench": "ab",
        "schema_version": AB_SCHEMA_VERSION,
        "name": spec.name,
        "quick": quick,
        "deterministic": {
            "description": spec.description,
            "workload": spec.workload,
            "workload_params": spec.workload_params,
            "version": spec.version.value,
            "base_overrides": spec.base_overrides,
            "toggle": spec.toggle,
            "arms": {"a": spec.arm_a, "b": spec.arm_b},
            "axis": spec.axis,
            "seeds": list(seeds),
            "points": point_rows,
            "headline": headline,
        },
        "environment": {
            "python": sys.version.split()[0],
            "invocation": f"python -m repro.bench ab --spec {spec.name}",
            "wall_s_total": round(wall_total, 6),
            "cells": env_cells,
        },
    }
    return doc


def write_ab_spec(
    path: str, spec: ABSpec, *, quick: bool = False, progress=None
) -> dict:
    doc = run_ab_spec(spec, quick=quick, progress=progress)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


# ---------------------------------------------------------------------------
# the regression gate
# ---------------------------------------------------------------------------


def _shared_mean(per_seed: list, seeds: list, shared: list) -> float:
    idx = {s: i for i, s in enumerate(seeds)}
    vals = [per_seed[idx[s]] for s in shared]
    return sum(vals) / len(vals)


def _tolerance(ci: dict) -> float:
    """Baseline CI halfwidth plus float-roundoff slack: zero seed
    variation means exact reproduction is demanded (up to rounding)."""
    half = abs(ci["hi"] - ci["mean"])
    return half + 1e-9 * abs(ci["mean"]) + 1e-9


def gate_ab(
    fresh: dict, baseline: dict, *, allow_quick_baseline: bool = False
) -> list[str]:
    """Compare a fresh run against a committed baseline artifact; returns
    a list of human-readable problems (empty = gate passes).

    Shared (point, seed) cells are deterministic in virtual time, so each
    headline metric's per-arm means and speedup over the shared seeds
    must reproduce the baseline within the baseline's seed-variation
    confidence interval — exactly, when that interval is zero-width.
    """
    problems: list[str] = []
    if baseline.get("bench") != "ab":
        return [f"baseline is not an ab artifact (bench={baseline.get('bench')!r})"]
    if fresh.get("name") != baseline.get("name"):
        return [
            f"artifact mismatch: fresh {fresh.get('name')!r} vs baseline "
            f"{baseline.get('name')!r}"
        ]
    if baseline.get("schema_version") != fresh.get("schema_version"):
        return [
            f"schema_version mismatch: fresh "
            f"{fresh.get('schema_version')} vs baseline "
            f"{baseline.get('schema_version')} — regenerate the baseline"
        ]
    if baseline.get("quick") and not allow_quick_baseline:
        return [
            "baseline is a quick-mode artifact; CI gates only accept full "
            "runs (regenerate without --quick, or pass an explicit "
            "--baseline to compare quick against quick)"
        ]
    det_f, det_b = fresh["deterministic"], baseline["deterministic"]
    for key in (
        "workload",
        "workload_params",
        "version",
        "base_overrides",
        "toggle",
        "arms",
        "axis",
    ):
        if det_f.get(key) != det_b.get(key):
            problems.append(
                f"spec drifted in {key!r}: fresh {det_f.get(key)!r} vs "
                f"baseline {det_b.get(key)!r} — regenerate the baseline"
            )
    if problems:
        return problems

    seeds_f, seeds_b = det_f["seeds"], det_b["seeds"]
    shared_seeds = [s for s in seeds_f if s in seeds_b]
    if not shared_seeds:
        return ["no seeds shared between fresh run and baseline"]
    rows_b = {json.dumps(r["point"]): r for r in det_b["points"]}
    headline_names = [n for n in det_f["headline"]]
    shared_points = 0
    for row_f in det_f["points"]:
        row_b = rows_b.get(json.dumps(row_f["point"]))
        if row_b is None:
            continue
        shared_points += 1
        point = row_f["point"]
        for name in headline_names:
            mf, mb = row_f["metrics"][name], row_b["metrics"][name]
            for arm_key in ("a", "b"):
                got = _shared_mean(
                    mf[f"per_seed_{arm_key}"], seeds_f, shared_seeds
                )
                ref = _shared_mean(
                    mb[f"per_seed_{arm_key}"], seeds_b, shared_seeds
                )
                tol = _tolerance(mb[arm_key])
                if abs(got - ref) > tol:
                    problems.append(
                        f"{name} arm {arm_key} drifted at point {point}: "
                        f"{got:g} vs baseline {ref:g} "
                        f"(tolerance {tol:g}) — the simulation changed; "
                        "regenerate the artifact if intended"
                    )
            if mf["speedup"] is not None and mb["speedup"] is not None:
                tol = _tolerance(mb["speedup"])
                got, ref = mf["speedup"]["mean"], mb["speedup"]["mean"]
                if abs(got - ref) > tol:
                    problems.append(
                        f"{name} speedup drifted at point {point}: "
                        f"{got:g} vs baseline {ref:g} (tolerance {tol:g})"
                    )
    if shared_points == 0:
        problems.append("no points shared between fresh run and baseline")
    return problems


# ---------------------------------------------------------------------------
# the specs
# ---------------------------------------------------------------------------

SPECS: dict[str, ABSpec] = {}


def _register(spec: ABSpec) -> ABSpec:
    SPECS[spec.name] = spec
    return spec


EAGER_DEFER = _register(ABSpec(
    name="eager_defer",
    description=(
        "the paper's headline differential: future-conjoined GUPS "
        "(rma_future) on the 2021.3.6 snapshot, deferred vs eager "
        "notification, off-node over udp — eager collapses the "
        "notification gap (completion observed -> notification "
        "dispatched) and shortens the virtual solve time at identical "
        "injection and poll counts"
    ),
    workload="gups",
    axis="batch",
    points=(8, 16, 32, 64),
    quick_points=(16, 32),
    seeds=(1, 2, 3),
    quick_seeds=(1, 2),
    version=Version.V2021_3_6_DEFER,
    base_overrides={"obs_spans": True},
    toggle={"eager_notification": True},
    arm_a="defer",
    arm_b="eager",
    workload_params={
        "variant": "rma_future",
        "ranks": 4,
        "n_nodes": 2,
        "conduit": "udp",
        "machine": "ibm",
        # large enough that the racy RMA variant's lost updates stay
        # under the HPCC 1% verification bound at every batch size
        "table_log2": 12,
        "updates_per_rank": 48,
    },
    metrics=(
        MetricSpec("mean_gap_ns", better="lower"),
        MetricSpec("progress_polls", better="lower"),
        MetricSpec("solve_ns", better="lower"),
        MetricSpec("am_injects", better="lower", headline=False),
    ),
))

AGG_ON_OFF = _register(ABSpec(
    name="agg_on_off",
    description=(
        "destination-batched AM aggregation on the fire-and-forget GUPS "
        "variant, two nodes over ibv: aggregation coalesces per-update "
        "messages into bundles — fewer injections for the same result"
    ),
    workload="gups",
    axis="updates_per_rank",
    points=(32, 64, 96),
    quick_points=(32, 64),
    seeds=(1, 2, 3),
    quick_seeds=(1, 2),
    version=Version.V2021_3_6_EAGER,
    base_overrides={},
    toggle={"am_aggregation": True},
    arm_a="direct",
    arm_b="agg",
    workload_params={
        "variant": "agg",
        "ranks": 8,
        "n_nodes": 2,
        "conduit": "ibv",
        "machine": "intel",
        "table_log2": 10,
        "batch": 16,
    },
    metrics=(
        MetricSpec("am_injects", better="lower"),
        MetricSpec("solve_ns", better="lower"),
        MetricSpec("progress_polls", better="lower", headline=False),
    ),
))

WAKE_SCAN = _register(ABSpec(
    name="wake_scan",
    description=(
        "wake-list vs predicate-scan pick on the blocked-heavy barrier "
        "storm (event-loop substrate).  The honesty check: a pure "
        "pick-mechanism swap must measure exactly 1.00x on every "
        "deterministic metric (switch counts, virtual clocks); the "
        "wall-clock win lives in the environment section only, where "
        "the scan's O(blocked) work per switch grows with ranks"
    ),
    workload="blocked_storm",
    axis="ranks",
    points=(16, 64, 256, 1024),
    quick_points=(16, 64),
    seeds=(1,),
    quick_seeds=(1,),
    version=Version.V2021_3_6_EAGER,
    base_overrides={"sched_wake_list": False},
    toggle={"sched_wake_list": True},
    arm_a="scan",
    arm_b="wake",
    workload_params={
        "rounds_by_ranks": {"16": 120, "64": 50, "256": 16, "1024": 10},
    },
    metrics=(
        MetricSpec("switches", better="lower"),
        MetricSpec("max_clock_ns", better="lower"),
    ),
))

CONT_FUTURE = _register(ABSpec(
    name="cont_future",
    description=(
        "continuation completions vs the future path on the deferred "
        "build: with cx_continuations on, each GUPS atomic update is "
        "tracked by operation_cx.as_continuation (eager-by-construction, "
        "never parked on the deferred queue); with it off the workload "
        "falls back to future-conjoined batches that park until a drain"
    ),
    workload="gups",
    axis="batch",
    points=(8, 16, 32, 64),
    quick_points=(16, 32),
    seeds=(1, 2),
    quick_seeds=(1,),
    version=Version.V2021_3_6_DEFER,
    base_overrides={"obs_spans": True},
    toggle={"cx_continuations": True},
    arm_a="future",
    arm_b="cont",
    workload_params={
        "variant_by_flag": {
            "flag": "cx_continuations",
            "on": "cont",
            "off": "amo_future",
        },
        "ranks": 8,
        "n_nodes": 1,
        "machine": "intel",
        "table_log2": 12,
        "updates_per_rank": 96,
    },
    metrics=(
        MetricSpec("mean_gap_ns", better="lower"),
        MetricSpec("solve_ns", better="lower"),
        MetricSpec("progress_polls", better="lower", headline=False),
    ),
))


def select_specs(names=None) -> list[ABSpec]:
    """The specs to run: all registered (stable order) or a named subset."""
    if not names:
        return [SPECS[k] for k in sorted(SPECS)]
    out = []
    for name in names:
        if name not in SPECS:
            raise KeyError(
                f"unknown ab spec {name!r}; known: {sorted(SPECS)}"
            )
        out.append(SPECS[name])
    return out


def artifact_name(spec: ABSpec, *, quick: bool = False) -> str:
    return f"BENCH_ab_{spec.name}.quick.json" if quick else (
        f"BENCH_ab_{spec.name}.json"
    )

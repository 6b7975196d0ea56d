"""The open-loop serving driver (:mod:`repro.serve`).

The serving benchmark's claims rest on invariants pinned here:

* **determinism** — a run is a pure function of its config: same seed
  twice is bit-identical, and the blocking-wrapper body on the thread
  shim reproduces the generator body tick for tick;
* **zero perturbation** — turning request-span observability on changes
  *nothing* about virtual time or the latency sketches, and turning it
  off allocates no spans at all (the request path performs one
  ``ctx.obs is None`` check);
* **measurement correctness** — every request hits a prepopulated key,
  the queue/service/total phase algebra holds, per-class sketches
  partition the ``all`` rollup, SLO accounting matches the total sketch,
  and the world rollup is independent of merge order;
* **open-loop semantics** — pushing offered rate past the service rate
  grows queueing delay and the latency tail (the saturation knee the
  sweep in :mod:`repro.bench.servebench` locates).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.runtime.config import Version
from repro.serve import PHASES, run_serve
from repro.runtime.runtime import spmd_run
from repro.serve.driver import (
    _serve_body,
    _serve_body_gen,
    merge_serve_snapshots,
    sketch_key,
)
from repro.serve.workload import KCLASSES
from repro.sim.stats import serve_snapshots
from tests.conftest import VE, obs_flags
from tests.test_sched_golden import SERVE_CFG, assert_golden

#: Small but non-trivial: 4 ranks x 64 requests, 128 keys, moderate load
#: (shared with the golden scheduling record).
CFG = SERVE_CFG
RANKS = 4

_cache: dict = {}


def serve(key, **kw):
    """Run (and memoise) one serving experiment for this module."""
    if key not in _cache:
        kw.setdefault("ranks", RANKS)
        _cache[key] = run_serve(kw.pop("cfg", CFG), **kw)
    return _cache[key]


def baseline():
    return serve("baseline")


def fingerprint(res):
    """Everything that must be bit-identical between equivalent runs."""
    return (
        res.solve_ns,
        res.slo_misses,
        res.by_op,
        res.sketches,
        tuple(s.sketches for s in res.per_rank),
    )


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        a = baseline()
        b = serve("baseline-again")
        assert fingerprint(a) == fingerprint(b)

    def test_event_loop_substrate_matches_threads(self):
        """The event loop runs the serving body exactly as the
        thread-per-rank scheduler did (its record is in the golden
        file)."""
        assert_golden("serve_gen_4")

    def test_blocking_body_matches_continuation(self):
        def run(body):
            trace = []
            res = spmd_run(
                body, args=(CFG,), ranks=RANKS, machine="intel",
                seed=CFG.seed, segment_bytes=1 << 17, switch_trace=trace,
            )
            clocks = [c.clock.now_ns for c in res.world.contexts]
            return (res.values, clocks, res.world.sched_switches, trace,
                    serve_snapshots(res.world))

        gen = run(_serve_body_gen)
        blk = run(lambda c: _serve_body(c))
        assert gen == blk
        # the snapshots are what run_serve rolls up into its result
        assert merge_serve_snapshots(gen[4]).sketches == baseline().sketches


class TestZeroPerturbation:
    def test_obs_on_is_tick_identical_to_obs_off(self):
        plain = baseline()
        traced = serve("traced", flags=obs_flags(VE))
        assert fingerprint(plain) == fingerprint(traced)

    def test_traced_run_carries_request_spans(self):
        traced = serve("traced", flags=obs_flags(VE))
        assert traced.obs is not None
        assert traced.obs.total_requests == traced.requests
        assert traced.obs.total_requests_dropped == 0
        assert traced.obs.requests_by_op == traced.by_op

    def test_obs_off_allocates_no_spans(self, monkeypatch):
        import repro.obs.span as span_mod

        def boom(self, *a, **kw):  # pragma: no cover - must never run
            raise AssertionError("RequestSpan allocated with obs off")

        monkeypatch.setattr(span_mod.ObsState, "begin_request", boom)
        res = serve("no-obs-fresh")
        assert res.obs is None
        assert res.requests == RANKS * CFG.requests_per_rank


class TestCorrectness:
    def test_every_request_hits_a_prepopulated_key(self):
        res = baseline()
        assert res.correct
        assert res.missing == 0
        assert res.requests == RANKS * CFG.requests_per_rank
        assert sum(res.by_op.values()) == res.requests
        assert set(res.by_op) <= {"get", "put", "cas"}

    def test_classes_partition_the_all_rollup(self):
        res = baseline()
        for phase in PHASES:
            whole = res.sketches[sketch_key(phase, "all")]
            parts = [
                res.sketches[sketch_key(phase, kc)]
                for kc in KCLASSES
                if sketch_key(phase, kc) in res.sketches
            ]
            assert sum(p.n for p in parts) == whole.n == res.requests
        # the zipf skew must actually exercise the hot class
        assert res.sketches[sketch_key("total", "hot")].n > 0

    def test_phase_algebra(self):
        res = baseline()
        total = res.sketches[sketch_key("total", "all")]
        queue = res.sketches[sketch_key("queue", "all")]
        service = res.sketches[sketch_key("service", "all")]
        assert queue.min >= 0.0
        assert service.min > 0.0  # every request does real work
        assert total.total == pytest.approx(queue.total + service.total)

    def test_slo_accounting_matches_the_total_sketch(self):
        generous = serve(
            "slo-generous", cfg=dataclasses.replace(CFG, slo_ns=1e12)
        )
        assert generous.slo_misses == 0
        strict = serve(
            "slo-strict", cfg=dataclasses.replace(CFG, slo_ns=1.0)
        )
        assert strict.slo_misses == strict.requests
        # the SLO knob only relabels: virtual time is untouched
        assert fingerprint(generous)[0] == fingerprint(strict)[0]

    def test_achieved_rate_is_positive_and_bounded(self):
        res = baseline()
        assert 0.0 < res.achieved_rate_rps
        assert res.solve_ns > 0
        pct = res.percentiles("total", "all")
        assert 0.0 < pct["p50"] <= pct["p99"] <= pct["p999"]
        assert res.mean_ns("total") > 0.0


class TestMerge:
    def test_world_rollup_equals_result(self):
        res = baseline()
        merged = merge_serve_snapshots(res.per_rank)
        assert merged.rank == -1
        assert merged.n == res.requests
        assert merged.missing == res.missing
        assert merged.slo_misses == res.slo_misses
        assert merged.by_op == res.by_op
        assert merged.sketches == res.sketches

    def test_merge_is_order_independent(self):
        res = baseline()
        fwd = merge_serve_snapshots(res.per_rank)
        rev = merge_serve_snapshots(tuple(reversed(res.per_rank)))
        assert fwd.sketches == rev.sketches
        assert fwd.by_op == rev.by_op

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_serve_snapshots([])


class TestOpenLoop:
    def test_overload_grows_queueing_and_the_tail(self):
        calm = serve(
            "calm", cfg=dataclasses.replace(CFG, offered_rate_rps=2e5)
        )
        slammed = serve(
            "slammed", cfg=dataclasses.replace(CFG, offered_rate_rps=4e7)
        )
        # 200k rps is far below the service rate: requests rarely queue.
        # 40M rps is far above it: the backlog (and sojourn) must grow.
        assert (
            slammed.mean_ns("queue") > 10 * max(calm.mean_ns("queue"), 1.0)
        )
        assert (
            slammed.percentiles()["p99"] > calm.percentiles()["p99"]
        )

    def test_table_too_small_is_rejected(self):
        from repro.errors import UpcxxError

        with pytest.raises(UpcxxError):
            run_serve(
                dataclasses.replace(CFG, log2_slots=6), ranks=2
            )

    def test_version_separation_exists(self):
        # the headline claim in miniature: defer and eager are not the
        # same simulation (exact ordering is the bench's concern)
        eager = baseline()
        defer = serve("defer", version=Version.V2021_3_6_DEFER)
        assert fingerprint(eager) != fingerprint(defer)

"""The open-loop serving driver (:mod:`repro.serve`).

The serving benchmark's claims rest on invariants pinned here:

* **determinism** — a run is a pure function of its config: same seed
  twice is bit-identical, and the blocking-wrapper body on the thread
  shim reproduces the generator body tick for tick;
* **idle turns** — the idle-polling turns the event loop runs for a
  waiting server (``IdleUntil``) schedule exactly as the body's own
  turns, off node too, and a failing rank still unwinds idle ones;
* **zero perturbation** — turning request-span observability on changes
  *nothing* about virtual time or the latency sketches, and turning it
  off allocates no spans at all (the request path performs one
  ``ctx.obs is None`` check);
* **measurement correctness** — every request hits a prepopulated key,
  the queue/service/total phase algebra holds, per-class sketches
  partition the ``all`` rollup, SLO accounting matches the total sketch,
  the world rollup is independent of merge order, and the paired sketch
  update records exactly what two ``PercentileSketch.record`` calls do;
* **open-loop semantics** — pushing offered rate past the service rate
  grows queueing delay and the latency tail (the saturation knee the
  sweep in :mod:`repro.bench.servebench` locates);
* **request-path cost** — the Python calls a request makes, counted, stay
  under a ceiling.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import current_ctx, rank_me
from repro.obs.percentiles import DEFAULT_REL_ERR, PercentileSketch
from repro.runtime.config import Version, flags_for
from repro.runtime.event_loop import _GenTask
from repro.runtime.switchpoints import YIELD_NOW, IdleUntil
from repro.serve import PHASES, driver, run_serve
from repro.runtime.runtime import spmd_run
from repro.serve.driver import (
    ServeRankObs,
    _serve_body_gen,
    merge_serve_snapshots,
    sketch_key,
)
from repro.serve.workload import KCLASSES, ServeConfig
from repro.sim.stats import serve_snapshots
from tests.conftest import VE, obs_flags, rank_body
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
        blk = run(rank_body(_serve_body_gen, False))
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


# -- the serving path's idle turns, sketches and call count --------------


def _offnode_cfg(seed: int) -> ServeConfig:
    """The hot-path golden's serve shape (8 ranks x 64 requests on two ibv
    nodes): there, unlike on one smp node, idle servers receive AMs."""
    return ServeConfig(log2_slots=12, key_space=128, requests_per_rank=64,
                       offered_rate_rps=5e5, zipf_s=1.1, get_frac=0.6,
                       put_frac=0.25, slo_ns=150_000.0, seed=seed)


def _offnode_serve(seed: int):
    return run_serve(_offnode_cfg(seed), ranks=8, version=VE,
                     machine="intel", conduit="ibv", n_nodes=2,
                     flags=flags_for(VE))


class TestIdleTurns:
    """The event loop runs the idle loop's turns that find nothing to do
    (``IdleUntil``); the body runs the ones that poll or admit.  The run
    must be exactly the one the body makes running every turn itself."""

    @staticmethod
    def _run(seed: int, style: str, monkeypatch):
        """``(trace, clocks, switches, values, per-rank snapshots)`` and
        the count of generator resumes of one off-node serve.  ``style``:
        ``idle`` ships the body as is, ``yield`` makes it yield
        ``YIELD_NOW`` where it yields ``IdleUntil`` (every turn resumes the
        body), ``shim`` runs it on the thread shim."""
        trace: list = []
        runs: list = []
        resumes = [0]
        real_run = driver.spmd_run
        real_resume = _GenTask.resume

        def spy(fn, **kw):
            runs.append(real_run(fn, switch_trace=trace, **kw))
            return runs[-1]

        def counted(task, throw=None):
            resumes[0] += 1
            return real_resume(task, throw)

        with monkeypatch.context() as m:
            m.setattr(driver, "spmd_run", spy)
            m.setattr(_GenTask, "resume", counted)
            if style == "yield":
                m.setattr(driver, "IdleUntil", lambda until, step: YIELD_NOW)
            elif style == "shim":
                m.setattr(driver, "_serve_body_gen",
                          rank_body(_serve_body_gen, False))
            res = _offnode_serve(seed)
        world = runs[0].world
        clocks = [c.clock.now_ns for c in world.contexts]
        return (trace, clocks, world.sched_switches, runs[0].values,
                res.per_rank), resumes[0]

    @pytest.mark.parametrize("seed", (1, 2))
    def test_scheduler_turns_equal_body_turns(self, seed, monkeypatch):
        shipped, resumes = self._run(seed, "idle", monkeypatch)
        every_turn, body_resumes = self._run(seed, "yield", monkeypatch)
        shim, _ = self._run(seed, "shim", monkeypatch)
        trace = shipped[0]
        idle_yields = sum(1 for ev in trace if ev[0] == "yield")
        assert idle_yields > 2000
        # most idle turns ran in the scheduler, not in the body
        assert body_resumes - resumes > idle_yields // 2
        for other in (every_turn, shim):
            assert other[0] == trace
            assert other[1:4] == shipped[1:4]
            assert other[4] == shipped[4]
            assert [list(s.sketches) for s in other[4]] == [
                list(s.sketches) for s in shipped[4]
            ]

    @staticmethod
    def _failing_run(idle_cmd):
        """Rank 0 raises while ranks 1-3 idle-poll towards a far-off time
        (yielding ``idle_cmd(until, step)``): ``(exception type seen by
        each rank, trace, clocks)``."""
        seen: dict = {}
        worlds: list = []
        trace: list = []

        def body():
            ctx = current_ctx()
            me = rank_me()
            worlds.append(ctx.world)
            try:
                if me == 0:
                    for _ in range(3):
                        yield YIELD_NOW
                    raise ValueError("rank 0 fails")
                while True:
                    if ctx.has_incoming():
                        ctx.progress()
                    if not ctx.clock.advance_slice(1e9, 1000.0):
                        break
                    yield idle_cmd(1e9, 1000.0)
            except BaseException as exc:
                seen[me] = type(exc).__name__
                raise

        with pytest.raises(ValueError, match="rank 0 fails"):
            spmd_run(body, ranks=4, switch_trace=trace)
        return seen, trace, [c.clock.now_ns for c in worlds[0].contexts]

    def test_failure_unwinds_idle_ranks(self):
        """Every rank unwinds at its switch point and the first error is
        the one reported, exactly as when the idlers yield ``YIELD_NOW``."""
        seen, trace, clocks = self._failing_run(IdleUntil)
        assert seen == {0: "ValueError", 1: "DeadlockError",
                        2: "DeadlockError", 3: "DeadlockError"}
        assert trace[-1] == ("fail", 0)
        # each idler had one turn after each of rank 0's three yields
        assert clocks[1:] == [3000.0] * 3
        assert self._failing_run(lambda until, step: YIELD_NOW) == (
            seen, trace, clocks
        )

    def test_teardown_leaves_no_idle_state(self):
        from repro.runtime.config import RuntimeConfig
        from repro.runtime.event_loop import EventLoopScheduler
        from repro.runtime.runtime import World

        def body():
            if rank_me() == 0:
                yield YIELD_NOW
                raise ValueError("stop")
            while True:
                yield IdleUntil(1e9, 1.0)

        loop = EventLoopScheduler(3)
        loop.run(World(RuntimeConfig(), ranks=3), body)
        assert isinstance(loop.first_error(), ValueError)
        assert loop._idle == [None, None, None]


class _ParentRankObs:
    """``ServeRankObs`` as it recorded before the paired sketch update:
    two ``PercentileSketch.record`` calls per phase (copied verbatim)."""

    def __init__(self, rank: int, rel_err: float = DEFAULT_REL_ERR):
        self.rank = rank
        self.rel_err = rel_err
        self.n = 0
        self.missing = 0
        self.slo_misses = 0
        self.by_op: dict[str, int] = {}
        self._sketches: dict[str, PercentileSketch] = {}

    def _sketch(self, phase: str, kclass: str) -> PercentileSketch:
        key = sketch_key(phase, kclass)
        sk = self._sketches.get(key)
        if sk is None:
            sk = self._sketches[key] = PercentileSketch(
                key, rel_err=self.rel_err
            )
        return sk

    def record(
        self,
        op: str,
        kclass: str,
        queue_ns: float,
        service_ns: float,
        total_ns: float,
        *,
        slo_missed: bool,
        hit: bool,
    ) -> None:
        self.n += 1
        self.by_op[op] = self.by_op.get(op, 0) + 1
        if not hit:
            self.missing += 1
        if slo_missed:
            self.slo_misses += 1
        for phase, v in (
            ("total", total_ns),
            ("queue", queue_ns),
            ("service", service_ns),
        ):
            self._sketch(phase, "all").record(v)
            self._sketch(phase, kclass).record(v)

    snapshot = ServeRankObs.snapshot


#: latencies: zeros, subnormals and huge values next to ordinary ones
_LATENCY = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0,
                     1e300, 1.7976931348623157e308)),
    st.floats(allow_nan=False, allow_infinity=False),
)
_REQUESTS = st.lists(
    st.tuples(st.sampled_from(("get", "put", "cas")),
              st.sampled_from(KCLASSES), _LATENCY, _LATENCY, _LATENCY,
              st.booleans(), st.booleans()),
    max_size=30,
)


class TestSketchRecording:
    @given(_REQUESTS)
    @settings(max_examples=300, deadline=None)
    def test_record_matches_two_records_per_phase(self, requests):
        """Field by field (floats by ``repr``, so bit for bit) and in
        sketch-key order."""
        new, old = ServeRankObs(5), _ParentRankObs(5)
        for op, kclass, queue, service, total, missed, hit in requests:
            for obs in (new, old):
                obs.record(op, kclass, queue, service, total,
                           slo_missed=missed, hit=hit)
        a, b = new.snapshot(), old.snapshot()
        assert list(a.sketches) == list(b.sketches)
        assert list(a.by_op) == list(b.by_op)
        for key in a.sketches:
            for field in dataclasses.fields(a.sketches[key]):
                assert repr(getattr(a.sketches[key], field.name)) == repr(
                    getattr(b.sketches[key], field.name)
                ), (key, field.name)
        assert repr(a) == repr(b)


class TestRequestPathCallCount:
    """The serving request path's Python work as a deterministic count:
    calls to named ``repro`` functions per request of the off-node serve
    (8 ranks x 64 requests, 2-node ibv, seed 1), world set-up included.
    Comprehension, generator-expression and lambda code objects are not
    counted, so Python 3.10-3.12 agree.

    Before the event loop ran the idle loop's empty turns, the sketches
    were updated in pairs and the off-node round trips lost their
    closures, this read 325.0 calls per request.  A wall-clock floor would
    depend on the runner; this count does not."""

    #: calls per request this path makes now (a ceiling, not a target)
    MAX_CALLS_PER_REQUEST = 276.7

    def test_calls_per_request(self):
        root = os.path.dirname(repro.__file__) + os.sep
        calls = [0]

        def profile(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                if (code.co_filename.startswith(root)
                        and not code.co_name.startswith("<")):
                    calls[0] += 1

        sys.setprofile(profile)
        try:
            res = _offnode_serve(1)
        finally:
            sys.setprofile(None)
        assert res.requests == 8 * 64
        per_request = calls[0] / res.requests
        assert per_request <= self.MAX_CALLS_PER_REQUEST, per_request

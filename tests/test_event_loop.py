"""Event-loop tests: in-place continuations vs the thread shim.

The event loop runs a generator rank body in two styles: resumed in place
as a continuation, or — wrapped as a plain function — on the per-rank
thread shim, which drives the same generator through the blocking
primitives.  Both must be *unobservable* choices: same per-rank results,
same virtual clocks, same switch traces (every scheduling decision, in
order), same deadlock declarations and failure teardown.  These tests
compare the two styles event by event on direct SPMD programs, on the
GUPS variants across the flag matrix axes, and on seeded fuzz programs.
``tests/test_sched_golden.py`` pins the continuation style against
traces recorded from the thread-per-rank scheduler the loop replaced.
"""

import dataclasses

import pytest

from repro import barrier, barrier_gen, current_ctx, rank_me
from repro.errors import DeadlockError, SchedulerError
from repro.fuzz import generate_program
from repro.fuzz.runner import _fuzz_body, mode_flags, run_program
from repro.runtime.config import Version, flags_for
from repro.runtime.event_loop import _ThreadShimTask
from repro.runtime.runtime import spmd_run
from repro.runtime.switchpoints import YIELD_NOW, BlockUntil
from tests.conftest import rank_body, unbatched


def _flags(version=Version.V2021_3_6_EAGER, **kw):
    return dataclasses.replace(flags_for(version), **kw)


def run_both(fn, *, ranks, args=(), expect=None, **kw):
    """Run generator body ``fn`` as a continuation and on the thread shim;
    assert identical values, clocks, and switch traces (or identical
    errors and traces under ``expect``); return the continuation run's
    ``(values, clocks, trace)`` — ``(error text, trace)`` under
    ``expect``."""
    out = []
    for continuation in (True, False):
        trace = []
        body = rank_body(fn, continuation)
        if expect is None:
            res = spmd_run(
                body, ranks=ranks, args=args, switch_trace=trace, **kw
            )
            clocks = [c.clock.now_ns for c in res.world.contexts]
            out.append((res.values, clocks, trace))
        else:
            with pytest.raises(expect) as ei:
                spmd_run(
                    body, ranks=ranks, args=args, switch_trace=trace, **kw
                )
            out.append((str(ei.value), trace))
    assert out[0] == out[1]
    return out[0]


class TestBasicParity:
    def test_values_and_clocks(self):
        def body():
            yield from barrier_gen()
            return rank_me() * 3

        values, _, _ = run_both(body, ranks=8)
        assert values == [r * 3 for r in range(8)]

    def test_round_robin_promotion_order(self):
        """The fused single-pass _pick_next keeps the exact round-robin
        order of the old two-pass scan, in both body styles."""
        log = []

        def body():
            me = rank_me()
            for _ in range(3):
                log.append(me)
                yield YIELD_NOW

        spmd_run(body, ranks=4)
        assert log[:4] == [0, 1, 2, 3]
        log_cont = list(log)
        log.clear()
        spmd_run(rank_body(body, False), ranks=4)
        assert log == log_cont

    def test_block_until_producer_consumer(self):
        def body():
            ctx = current_ctx()
            if not hasattr(ctx.world, "shared"):
                ctx.world.shared = []  # type: ignore[attr-defined]
            box = ctx.world.shared  # type: ignore[attr-defined]
            me = rank_me()
            if me == 0:
                yield YIELD_NOW
                box.append("ping")
                yield BlockUntil(lambda: len(box) == 2)
                return box[-1]
            yield BlockUntil(lambda: len(box) == 1)
            box.append("pong")
            return box[0]

        values, _, _ = run_both(body, ranks=2)
        assert values == ["pong", "ping"]

    def test_plain_function_rides_the_shim(self):
        """A hand-written plain body (blocking calls, no generator at all)
        schedules exactly like its generator twin."""
        def plain():
            barrier()
            ctx = current_ctx()
            ctx.yield_to_others()
            barrier()
            return rank_me()

        def gen():
            yield from barrier_gen()
            yield YIELD_NOW
            yield from barrier_gen()
            return rank_me()

        runs = []
        for body in (plain, gen):
            trace = []
            res = spmd_run(body, ranks=6, switch_trace=trace)
            clocks = [c.clock.now_ns for c in res.world.contexts]
            runs.append((res.values, clocks, trace))
        assert runs[0] == runs[1]
        assert runs[0][0] == list(range(6))


class TestDeadlockParity:
    def test_all_blocked_is_deadlock_with_state_dump(self):
        def body():
            yield BlockUntil(lambda: False)

        msg, trace = run_both(body, ranks=3, expect=DeadlockError)
        assert "states:" in msg
        for r in range(3):
            assert f"{r}:" in msg
        assert trace[-1][0] == "deadlock"

    def test_partial_deadlock_after_finishes(self):
        """The finish-path declaration: the last runnable rank completes
        while others still block — deadlock without a blocking declarer."""
        def body():
            if rank_me() == 0:
                return "done"
            yield BlockUntil(lambda: False)

        run_both(body, ranks=3, expect=DeadlockError)

    def test_deadlock_unwinds_finally_blocks(self):
        cleaned = []

        def body():
            try:
                yield BlockUntil(lambda: False)
            finally:
                cleaned.append(rank_me())

        for continuation in (True, False):
            with pytest.raises(DeadlockError):
                spmd_run(rank_body(body, continuation), ranks=3)
            assert sorted(cleaned) == [0, 1, 2]
            cleaned.clear()


class TestFailureParity:
    def test_failure_tears_down_blocked_ranks(self):
        cleaned = []

        def body():
            try:
                if rank_me() == 1:
                    raise ValueError("kaboom")
                yield from barrier_gen()
            finally:
                cleaned.append(rank_me())

        # rank 0 blocks at the barrier, rank 1 fails before ranks 2/3 ever
        # start: started ranks unwind (finally runs), never-started ranks
        # run no user code at all — identically in both body styles
        for continuation in (True, False):
            with pytest.raises(ValueError, match="kaboom"):
                spmd_run(rank_body(body, continuation), ranks=4)
            assert sorted(cleaned) == [0, 1]
            cleaned.clear()

    def test_failure_unwinds_all_started_ranks(self):
        cleaned = []

        def body():
            try:
                yield from barrier_gen()  # everyone starts and syncs
                if rank_me() == 1:
                    raise ValueError("kaboom")
                yield from barrier_gen()
            finally:
                cleaned.append(rank_me())

        for continuation in (True, False):
            with pytest.raises(ValueError, match="kaboom"):
                spmd_run(rank_body(body, continuation), ranks=4)
            assert sorted(cleaned) == [0, 1, 2, 3]
            cleaned.clear()

    def test_first_error_wins(self):
        def body():
            raise KeyError(f"r{rank_me()}")
            yield  # pragma: no cover - makes this a generator function

        # rank 0 errors before any other rank has started, so its error
        # is the one that propagates
        msg, trace = run_both(body, ranks=3, expect=KeyError)
        assert msg == "'r0'"
        assert trace == [("fail", 0)]

    def test_teardown_error_type_for_survivors(self):
        seen = []

        def body():
            if rank_me() == 2:
                raise RuntimeError("boom")
            try:
                yield from barrier_gen()
            except DeadlockError as exc:
                seen.append(str(exc))
                raise

        for continuation in (True, False):
            with pytest.raises(RuntimeError, match="boom"):
                spmd_run(rank_body(body, continuation), ranks=3)
            assert len(seen) == 2
            assert all("tearing down" in s for s in seen)
            seen.clear()


class TestInlineGuards:
    def test_inline_block_with_pending_predicate_raises(self):
        def body():
            ctx = current_ctx()
            if rank_me() == 0:
                with pytest.raises(SchedulerError, match="switch commands"):
                    ctx.block_until(lambda: False)
            yield from barrier_gen()

        spmd_run(body, ranks=2)

    def test_inline_yield_with_runnable_peer_raises(self):
        def body():
            ctx = current_ctx()
            if rank_me() == 0:
                # rank 1 has not started yet and is runnable
                with pytest.raises(SchedulerError, match="YIELD_NOW"):
                    ctx.yield_to_others()
            yield from barrier_gen()

        spmd_run(body, ranks=2)

    def test_inline_calls_fine_when_alone(self):
        """A 1-rank world never switches, so inline blocking primitives
        (ambient-style code) keep working inside continuation bodies."""
        def body():
            ctx = current_ctx()
            ctx.yield_to_others()
            ctx.block_until(lambda: True)
            return "ok"
            yield  # pragma: no cover - makes this a generator function

        r = spmd_run(body, ranks=1)
        assert r.values == ["ok"]


def _gups_both(monkeypatch, cfg, flags, **kw):
    """run_gups with the generator body, then with its blocking wrapper
    on the thread shim."""
    from repro.apps import gups

    r_cont = gups.run_gups(cfg, flags=flags, **kw)
    monkeypatch.setattr(
        gups, "_gups_body", rank_body(gups._gups_body, False)
    )
    r_shim = gups.run_gups(cfg, flags=flags, **kw)
    return r_cont, r_shim


class TestGupsFlagMatrixParity:
    """Spot checks over the existing flag-matrix axes: the two body styles
    must agree on functional results and virtual clocks for every
    build."""

    @pytest.mark.parametrize("variant", ["rma_promise", "rma_future", "agg"])
    @pytest.mark.parametrize("version", [Version.V2021_3_6_EAGER,
                                         Version.V2021_3_6_DEFER])
    def test_gups_variant_parity(self, monkeypatch, variant, version):
        from repro.apps.gups import GupsConfig

        cfg = GupsConfig(variant=variant, table_log2=8,
                         updates_per_rank=16, batch=8)
        base = flags_for(version)
        if variant == "agg":
            base = dataclasses.replace(base, am_aggregation=True)
        r_cont, r_shim = _gups_both(
            monkeypatch, cfg, base, ranks=4, version=version,
            machine="generic", conduit="udp", n_nodes=2,
        )
        assert r_shim.checksum == r_cont.checksum
        assert r_shim.solve_ns == r_cont.solve_ns
        assert r_shim.gups == r_cont.gups
        assert (r_shim.table == r_cont.table).all()


class TestFuzzParity:
    """Property tests on seeded fuzz programs: for any generated program
    and any mode, the two body styles produce the same FuzzOutcome —
    tables, per-op values, completion counts, *and clocks*."""

    @pytest.mark.parametrize("seed", range(10))
    def test_outcomes_identical(self, monkeypatch, seed):
        from repro.fuzz import MODES, runner

        program = generate_program(seed)
        mode = MODES[seed % len(MODES)]
        cont = run_program(program, mode)
        monkeypatch.setattr(
            runner, "_fuzz_body", rank_body(_fuzz_body, False)
        )
        assert run_program(program, mode) == cont

    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_switch_traces_identical(self, seed):
        program = generate_program(seed)
        version, flags = mode_flags("defer")
        values, _, trace = run_both(
            _fuzz_body, ranks=program.ranks, version=version,
            machine="generic", conduit=program.conduit,
            n_nodes=program.n_nodes, seed=program.seed, args=(program,),
            flags=flags,
        )
        assert len(values) == program.ranks
        assert any(ev[0] == "block" for ev in trace)


class TestCostBatching:
    """Batched cost accounting (every noise-free run) accumulates exact
    integer clock units, so it is *bit-identical* to per-charge advancing
    (the unbatched arm patches ``CostModel.enable_batching`` to a no-op):
    same counts, same clocks, no tolerance — the integer accumulator is
    order-independent."""

    def test_counts_identical_and_clocks_bit_identical(self, monkeypatch):
        from repro.apps.gups import GupsConfig, run_gups

        cfg = GupsConfig(variant="rma_promise", table_log2=8,
                         updates_per_rank=32, batch=8)
        r_batch = run_gups(cfg, ranks=4, machine="generic")
        unbatched(monkeypatch)
        r_plain = run_gups(cfg, ranks=4, machine="generic")
        assert r_batch.checksum == r_plain.checksum
        assert r_batch.solve_ns == r_plain.solve_ns

    def test_counts_merge_lazily(self, monkeypatch):
        program = generate_program(7)
        kw = dict(ranks=program.ranks, machine="generic",
                  conduit=program.conduit, n_nodes=program.n_nodes,
                  seed=program.seed, args=(program,))
        r_batch = spmd_run(_fuzz_body, **kw)
        unbatched(monkeypatch)
        r_plain = spmd_run(_fuzz_body, **kw)
        for cp, cb in zip(r_plain.world.contexts, r_batch.world.contexts):
            assert cb.costs._batching and not cp.costs._batching
            assert cb.costs.snapshot() == cp.costs.snapshot()
            assert cb.clock.now_ns == cp.clock.now_ns

    def test_noise_auto_disables_default_batching(self):
        """A noisy run charges per call (jitter needs per-charge draws);
        a noise-free one batches."""
        def body():
            return 0

        r = spmd_run(body, ranks=2, noise=0.1, seed=3)
        assert r.values == [0, 0]
        assert not any(c.costs._batching for c in r.world.contexts)
        r = spmd_run(body, ranks=2)
        assert all(c.costs._batching for c in r.world.contexts)

    def test_noise_is_rejected(self):
        """The cost model itself refuses batching once noise is set."""
        def body():
            return 0

        r = spmd_run(body, ranks=2, noise=0.1, seed=3)
        with pytest.raises(ValueError, match="timing noise"):
            r.world.contexts[0].costs.enable_batching()


def _smallest_runner_calls():
    """Name -> thunk running the smallest config of every bundled runner."""
    from repro.apps.dht import DhtConfig, run_dht
    from repro.apps.gups import GupsConfig, run_gups
    from repro.apps.matching import MatchingConfig, run_matching
    from repro.apps.stencil import StencilConfig, run_stencil
    from repro.bench import ab
    from repro.bench.harness import (
        MICRO_OPS, offnode_grid, run_micro, traced_micro,
    )
    from repro.bench.sweeps import locality_sweep
    from repro.fuzz import MODES
    from repro.serve import ServeConfig, run_serve

    ve = Version.V2021_3_6_EAGER
    calls = {
        f"run_micro_{op}": (
            lambda op=op: run_micro(op, ve, "intel", n_ops=2, n_samples=1)
        )
        for op in MICRO_OPS
    }
    calls.update({
        "traced_micro": lambda: traced_micro("get", ve, "intel", n_ops=2),
        "offnode_grid": lambda: offnode_grid("intel", n_ops=2),
        "run_stencil": lambda: run_stencil(
            StencilConfig(n=8, iterations=2), ranks=2
        ),
        "locality_sweep": lambda: locality_sweep(
            (0.5,), ranks=2, updates=16
        ),
        "run_gups": lambda: run_gups(
            GupsConfig(variant="amo_future", table_log2=8,
                       updates_per_rank=8, batch=4),
            ranks=2,
        ),
        "run_dht": lambda: run_dht(
            DhtConfig(log2_slots=8, inserts_per_rank=4, finds_per_rank=4),
            ranks=2,
        ),
        "run_matching": lambda: run_matching(
            MatchingConfig(graph="channel", scale=1), ranks=2
        ),
        "run_serve": lambda: run_serve(
            ServeConfig(log2_slots=8, key_space=16, requests_per_rank=8),
            ranks=2,
        ),
        "run_program": lambda: run_program(generate_program(1), MODES[0]),
        "blocked_storm": lambda: ab.WORKLOADS["blocked_storm"](
            point=2, axis="ranks", flags=flags_for(ve), version=ve, seed=1,
            params={"rounds_by_ranks": {"2": 2}},
        ),
    })
    return calls


class TestRunnersStayOffTheShim:
    """Every bundled runner ships a generator body, so none of them starts
    the per-rank thread shim (which serves user code only)."""

    @pytest.mark.parametrize("runner", sorted(_smallest_runner_calls()))
    def test_runner_starts_no_shim(self, runner, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{runner} started the thread shim")

        monkeypatch.setattr(_ThreadShimTask, "__init__", refuse)
        _smallest_runner_calls()[runner]()

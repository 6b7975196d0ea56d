"""Wake-list vs predicate-scan differential tests (DESIGN.md §9).

``FeatureFlags.sched_wake_list`` replaces the scheduler's per-switch
blocked-predicate scan with event-driven wake lists.  The design claim is
*bit-identity*: picks, promotions, virtual clocks, and switch traces are
unchanged — the wake-bit promotion set provably equals the set of blocked
ranks with true predicates, and the masked ring pick equals the scan's
first-visited-ready rank.  These tests diff the two implementations on
blocked-heavy programs (the regime the scan is slow in and the wake list
exists for), in both rank-body styles (in-place continuation and the
thread shim's blocking wrapper), with tracing on.
"""

import dataclasses

import pytest

from repro import barrier_gen, current_ctx, rank_me
from repro.errors import DeadlockError
from repro.fuzz import MODES, generate_program
from repro.fuzz.runner import run_program
from repro.runtime.config import RuntimeConfig, Version, flags_for
from repro.runtime.event_loop import _DONE, EventLoopScheduler
from repro.runtime.runtime import build_world, spmd_run
from repro.runtime.switchpoints import YIELD_NOW, BlockUntil
from repro.sim.costmodel import CostAction
from tests.conftest import count_parked_predicates, rank_body


def _flags(**kw):
    return dataclasses.replace(flags_for(Version.V2021_3_6_EAGER), **kw)


def _barrier_storm_body(rounds: int):
    """Barrier-dense program with staggered arrivals: every rank parks at
    every barrier (except the last arrival), so each round exercises the
    blocked-rank machinery of whichever pick implementation is active."""
    ctx = current_ctx()
    me = rank_me()
    for k in range(rounds):
        # uneven local work → genuinely staggered arrival order that also
        # rotates across rounds
        ctx.charge(CostAction.FUNCTION_CALL, 1 + ((me + k) % 5) * 7)
        yield from barrier_gen()
    return ctx.clock.now_ns


def _run_traced(body, *, ranks, flags, args=(), **kw):
    trace = []
    res = spmd_run(
        body, ranks=ranks, flags=flags, args=args, switch_trace=trace, **kw
    )
    clocks = [c.clock.now_ns for c in res.world.contexts]
    return res.values, clocks, res.world.sched_switches, trace, res


class TestTraceBitIdentity:
    """The headline regression: switch traces (every pick, block, yield)
    diff clean between wake-list and scan on barrier-dense programs."""

    @pytest.mark.parametrize("continuation", [False, True])
    @pytest.mark.parametrize("ranks", [2, 5, 16])
    def test_barrier_storm_traces_identical(self, ranks, continuation):
        body = rank_body(_barrier_storm_body, continuation)
        out_scan = _run_traced(
            body, ranks=ranks, args=(6,),
            flags=_flags(sched_wake_list=False),
        )
        out_wake = _run_traced(
            body, ranks=ranks, args=(6,),
            flags=_flags(sched_wake_list=True),
        )
        # values, clocks, switch count, and the full decision trace
        assert out_wake[:4] == out_scan[:4]
        # the trace is non-trivial: blocked picks actually happened
        assert any(ev[0] == "block" for ev in out_wake[3])

    @pytest.mark.parametrize("seed", [3, 11, 27, 40])
    def test_fuzz_program_traces_identical(self, seed):
        """Seeded fuzz programs (now blocked-heavy: spins + mid-phase
        barriers) diff clean with tracing on."""
        from repro.fuzz.runner import _fuzz_body

        program = generate_program(seed)
        kw = dict(
            ranks=program.ranks, machine="generic",
            conduit=program.conduit, n_nodes=program.n_nodes,
            seed=program.seed, args=(program,),
        )
        out_scan = _run_traced(
            _fuzz_body, flags=_flags(sched_wake_list=False), **kw
        )
        out_wake = _run_traced(
            _fuzz_body, flags=_flags(sched_wake_list=True), **kw
        )
        assert out_wake[:4] == out_scan[:4]

    @pytest.mark.parametrize("seed", [2, 9])
    def test_fuzz_outcomes_identical_across_modes(self, seed):
        """FuzzOutcome equality (tables, values, completions, clocks) for
        wake-list vs scan under every fuzz mode in both body styles."""
        from repro.fuzz.runner import _fuzz_body, mode_flags

        program = generate_program(seed)
        for mode in MODES:
            base = run_program(program, mode)
            # run_program resolves flags internally; rebuild with the scan
            # forced
            version, flags = mode_flags(mode)
            for continuation in (False, True):
                res = spmd_run(
                    rank_body(_fuzz_body, continuation), args=(program,),
                    ranks=program.ranks,
                    version=version, machine="generic",
                    conduit=program.conduit, n_nodes=program.n_nodes,
                    seed=program.seed,
                    flags=flags.replace(sched_wake_list=False),
                )
                scan = (
                    tuple(v[0] for v in res.values),
                    tuple(v[1] for v in res.values),
                    tuple(v[2] for v in res.values),
                    tuple(v[3] for v in res.values),
                )
                assert scan == (
                    base.tables, base.values, base.completions,
                    base.clock_ns,
                )


class TestParkedPredicatesNotRescanned:
    """The wake list's cost claim as a deterministic count: once a rank
    parks on a keyed block, the wake list never evaluates its predicate
    again, while the scan re-evaluates every parked rank's predicate on
    every switch (O(blocked) per switch).  An O(ranks)-per-switch
    regression shows up here as evaluations on any runner, where a
    wall-clock throughput floor would depend on the runner's speed."""

    @pytest.mark.parametrize("wake_list", [True, False])
    def test_parked_predicate_evaluations(self, wake_list, monkeypatch):
        counted = count_parked_predicates(monkeypatch)
        res = spmd_run(
            _barrier_storm_body, ranks=256, args=(8,),
            flags=_flags(sched_wake_list=wake_list),
        )
        switches = res.world.sched_switches
        evaluations = counted[0]
        assert switches > 0
        if wake_list:
            assert evaluations == 0
        else:
            assert evaluations > 50 * switches, (evaluations, switches)


class TestUnkeyedFallback:
    """Blocks without a recognized wake key must drop the scheduler back
    to the exact legacy predicate scan (and recover once they wake)."""

    @pytest.mark.parametrize("continuation", [False, True])
    def test_unkeyed_block_runs_and_matches_scan(self, continuation):
        def body():
            ctx = current_ctx()
            box = ctx.world.shared  # type: ignore[attr-defined]
            me = rank_me()
            if me == 0:
                # keyed block (barrier) while rank 1 is unkeyed-parked
                yield from barrier_gen()
                box.append("a")
                yield BlockUntil(lambda: len(box) == 2)
                return box[-1]
            yield from barrier_gen()
            yield BlockUntil(lambda: len(box) == 1)
            box.append("b")
            return box[0]

        def run(flags):
            trace = []

            def wrapped():
                ctx = current_ctx()
                if not hasattr(ctx.world, "shared"):
                    ctx.world.shared = []  # type: ignore[attr-defined]
                return (yield from body())

            r = spmd_run(
                rank_body(wrapped, continuation), ranks=2, flags=flags,
                switch_trace=trace,
            )
            return r.values, trace

        v_scan, t_scan = run(_flags(sched_wake_list=False))
        v_wake, t_wake = run(_flags(sched_wake_list=True))
        assert v_wake == v_scan == ["b", "a"]
        assert t_wake == t_scan

    def test_unkeyed_count_restores_masked_path(self):
        """After an unkeyed waiter wakes, `_unkeyed` returns to zero and
        the masked pick takes over again — observable as a clean final
        scheduler state."""
        def body():
            ctx = current_ctx()
            box = ctx.world.shared  # type: ignore[attr-defined]
            if rank_me() == 0:
                box.append(1)
            else:
                yield BlockUntil(lambda: len(box) == 1)
            yield from barrier_gen()
            return len(box)

        def wrapped():
            ctx = current_ctx()
            if not hasattr(ctx.world, "shared"):
                ctx.world.shared = []  # type: ignore[attr-defined]
            return (yield from body())

        r = spmd_run(wrapped, ranks=3)
        sched = r.world.scheduler
        assert sched._unkeyed == 0
        assert sched._blocked == 0


class TestSchedulerStateInvariants:
    """After any run, the wake-list bookkeeping must be fully drained:
    no leaked wake registrations, no stale bits."""

    @pytest.mark.parametrize("continuation", [False, True])
    def test_masks_clean_after_success(self, continuation):
        r = spmd_run(
            rank_body(_barrier_storm_body, continuation), ranks=8,
            args=(4,),
        )
        sched = r.world.scheduler
        assert sched._ready_mask == 0  # every rank finished (_DONE)
        assert sched._wake_mask == 0
        assert sched._keyed_mask == 0
        assert sched._incoming_waiters == 0
        assert sched._epoch_waiters == 0
        assert sched._unkeyed == 0
        assert sched._blocked == 0

    @pytest.mark.parametrize("continuation", [False, True])
    def test_deadlock_identical_and_masks_drained(self, continuation):
        def body():
            if rank_me() == 0:
                return "done"
            yield from barrier_gen()  # never completes: rank 0 left

        msgs = []
        for wake_list in (False, True):
            with pytest.raises(DeadlockError) as ei:
                spmd_run(
                    rank_body(body, continuation), ranks=3,
                    flags=_flags(sched_wake_list=wake_list),
                )
            msgs.append(str(ei.value))
        assert msgs[0] == msgs[1]

    def test_cell_wake_generation_guard(self):
        """A rank that blocks on one future, is woken by an incoming AM,
        and then blocks on a *different* future must not be woken by the
        first cell's late fire (the stale-generation guard)."""
        from repro import rget, rpc
        from repro.memory.global_ptr import GlobalPtr
        from repro import new_array

        def body():
            ctx = current_ctx()
            me = rank_me()
            arr = new_array("u64", 4)
            bases = [GlobalPtr(r, arr.offset, arr.ts) for r in range(2)]
            yield from barrier_gen()
            if me == 0:
                # two successive blocking waits on different cells, with
                # AM traffic arriving between them
                v1 = yield from rget(bases[1] + 0).wait_gen()
                v2 = yield from rget(bases[1] + 1).wait_gen()
                yield from barrier_gen()
                return (int(v1), int(v2))
            got = yield from rpc(0, lambda x: x + 1, 41).wait_gen()
            yield from barrier_gen()
            return got

        tr_scan, tr_wake = [], []
        r_scan = spmd_run(
            body, ranks=2, conduit="udp", n_nodes=2,
            flags=_flags(sched_wake_list=False),
            switch_trace=tr_scan,
        )
        r_wake = spmd_run(
            body, ranks=2, conduit="udp", n_nodes=2,
            flags=_flags(sched_wake_list=True),
            switch_trace=tr_wake,
        )
        assert r_wake.values == r_scan.values
        assert tr_wake == tr_scan


def _drain_body(exit_path: str, box: list, seen: dict):
    """Ranks 1 and 2 park (1 on a keyed barrier wait, 2 on an unkeyed
    predicate) before rank 0 picks the job's exit: a normal finish, a
    rank failure, or a deadlock declared at a block or at a finish."""
    me = rank_me()
    try:
        if me == 0:
            yield YIELD_NOW  # let ranks 1 and 2 park
            if exit_path == "fail":
                raise ValueError("boom")
            if exit_path == "deadlock_at_block":
                yield BlockUntil(lambda: False)
            if exit_path == "deadlock_at_finish":
                return me
            box[0] = True
        elif me == 2:
            yield BlockUntil(lambda: box[0])
        yield from barrier_gen()
    except BaseException as exc:
        seen[me] = type(exc).__name__
        raise
    return me


class TestBookkeepingDrainsOnEveryExit:
    """Whichever way a job ends, every rank ends ``_DONE`` and every wake
    count and mask is back to zero — also for the keyed and the unkeyed
    block still parked when the job tears down."""

    @pytest.mark.parametrize("continuation", [False, True])
    @pytest.mark.parametrize("wake_list", [False, True])
    @pytest.mark.parametrize(
        "exit_path",
        ["finish", "fail", "deadlock_at_block", "deadlock_at_finish"],
    )
    def test_drained(self, exit_path, wake_list, continuation, monkeypatch):
        pending = {}
        teardown = EventLoopScheduler._teardown

        def spy(sched, skip):
            pending.update(keyed=sched._keyed_mask, unkeyed=sched._unkeyed)
            teardown(sched, skip)

        monkeypatch.setattr(EventLoopScheduler, "_teardown", spy)
        flags = _flags(sched_wake_list=wake_list)
        world = build_world(RuntimeConfig(flags=flags), ranks=3)
        loop = EventLoopScheduler(3, wake_list=wake_list)
        seen: dict = {}
        values = loop.run(
            world, rank_body(_drain_body, continuation),
            (exit_path, [False], seen),
        )
        err = loop.first_error()
        if exit_path == "finish":
            assert err is None and values == [0, 1, 2]
            assert not pending
        else:
            assert isinstance(
                err, ValueError if exit_path == "fail" else DeadlockError
            )
            # rank 1's keyed and rank 2's unkeyed block were both parked
            # when the teardown began, and both unwound
            if wake_list:
                assert pending == {"keyed": 0b010, "unkeyed": 1}
            else:
                assert pending == {"keyed": 0, "unkeyed": 2}
            assert seen[1] == seen[2] == "DeadlockError"
        assert all(state is _DONE for state in loop._states)
        assert loop._blocked == 0
        assert loop._unkeyed == 0
        assert loop._keyed_mask == 0
        assert loop._wake_mask == 0
        assert loop._incoming_waiters == 0
        assert loop._epoch_waiters == 0
        assert loop._ready_mask == 0

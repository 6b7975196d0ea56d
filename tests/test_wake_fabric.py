"""Wake-fabric wiring tests: nested/directly-driven worlds keep wake lists.

Historically only :func:`repro.runtime.runtime.spmd_run` set
``world.scheduler``, so a world built with :func:`build_world` and driven
directly through :class:`EventLoopScheduler.run` had no wake routing: the
conduit's and barrier's notify sites found no scheduler, and a keyed
block would have parked on a wake bit nobody ever set.  The fabric is now
wired through :meth:`World.attach_scheduler`, which ``run`` calls itself
before any rank body starts, so every keyed block has its wake source.
The observable proof is the parked-predicate evaluation count: zero on
the wake-list path (no parked rank is ever re-scanned), where the
predicate scan evaluates parked predicates on every switch.
"""

import dataclasses

import pytest

from repro import barrier_gen, current_ctx, rank_me
from repro.errors import UpcxxError
from repro.runtime.config import RuntimeConfig, Version, flags_for
from repro.runtime.event_loop import EventLoopScheduler
from repro.runtime.runtime import build_world, spmd_run
from repro.sim.costmodel import CostAction
from tests.conftest import count_parked_predicates, rank_body


def _flags(**kw):
    return dataclasses.replace(flags_for(Version.V2021_3_6_EAGER), **kw)


def _storm_body(rounds: int):
    ctx = current_ctx()
    me = rank_me()
    for k in range(rounds):
        ctx.charge(CostAction.FUNCTION_CALL, 1 + ((me + k) % 5) * 7)
        yield from barrier_gen()
    return ctx.clock.now_ns


def _drive_direct(ranks: int, rounds: int, *, wake_list: bool):
    """A directly-driven world (build_world + loop.run, no spmd_run) —
    the nested/ambient shape that used to lose wake-list scheduling."""
    config = RuntimeConfig(
        version=Version.V2021_3_6_EAGER,
        flags=_flags(sched_wake_list=wake_list),
    )
    world = build_world(config, ranks=ranks)
    trace: list = []
    loop = EventLoopScheduler(ranks, switch_trace=trace, wake_list=wake_list)
    values = loop.run(world, _storm_body, (rounds,))
    assert loop.first_error() is None
    clocks = [c.clock.now_ns for c in world.contexts]
    return values, clocks, loop.switches, trace, loop, world


class TestDirectlyDrivenWorld:
    """build_world + EventLoopScheduler.run: wake lists actually engage."""

    @pytest.mark.parametrize("ranks", [2, 8])
    def test_wake_vs_scan_bit_identical(self, ranks):
        out_scan = _drive_direct(ranks, 6, wake_list=False)
        out_wake = _drive_direct(ranks, 6, wake_list=True)
        # values, per-rank clocks, switch count, full decision trace
        assert out_wake[:4] == out_scan[:4]
        # the program genuinely blocked (the regime under test)
        assert any(ev[0] == "block" for ev in out_wake[3])

    def test_wake_path_taken_not_fallback(self, monkeypatch):
        evaluations = count_parked_predicates(monkeypatch)
        *_, trace, loop, world = _drive_direct(8, 6, wake_list=True)
        assert world.scheduler is loop
        assert any(ev[0] == "block" for ev in trace)
        # every keyed block parked on its wake bit: no parked predicate
        # was ever re-evaluated ...
        assert evaluations[0] == 0
        # ... where the predicate scan re-evaluates them on every switch
        _drive_direct(8, 6, wake_list=False)
        assert evaluations[0] > 0

    def test_run_attach_is_idempotent_with_prewired_world(self):
        config = RuntimeConfig(version=Version.V2021_3_6_EAGER)
        world = build_world(config, ranks=4)
        loop = EventLoopScheduler(4)
        world.attach_scheduler(loop)  # spmd_run's wiring, done up front
        values = loop.run(world, _storm_body, (3,))  # attaches again
        assert loop.first_error() is None
        assert len(values) == 4
        assert world.scheduler is loop

    def test_second_scheduler_rejected(self):
        config = RuntimeConfig(version=Version.V2021_3_6_EAGER)
        world = build_world(config, ranks=2)
        world.attach_scheduler(EventLoopScheduler(2))
        with pytest.raises(UpcxxError):
            world.attach_scheduler(EventLoopScheduler(2))


class TestSpmdRunStillWired:
    """The classic entry point routes everything through the fabric."""

    @pytest.mark.parametrize("continuation", [False, True])
    def test_offnode_run_loses_no_notifications(
        self, monkeypatch, continuation
    ):
        from repro.apps import gups
        from repro.apps.gups import GupsConfig, run_gups

        monkeypatch.setattr(
            gups, "_gups_body", rank_body(gups._gups_body, continuation)
        )
        res = run_gups(
            GupsConfig(variant="amo_future", table_log2=8,
                       updates_per_rank=16, batch=8),
            ranks=4,
            n_nodes=2,
            conduit="udp",
            machine="ibm",
            version=Version.V2021_3_6_EAGER,
        )
        assert res.matches_oracle

    def test_world_scheduler_attached(self, monkeypatch):
        evaluations = count_parked_predicates(monkeypatch)
        trace: list = []
        res = spmd_run(
            _storm_body, ranks=3, args=(2,), switch_trace=trace,
        )
        sched = res.world.scheduler
        assert sched is not None
        assert all(c.scheduler is sched for c in res.world.contexts)
        assert any(ev[0] == "block" for ev in trace)
        assert evaluations[0] == 0

"""World construction and the SPMD driver.

:func:`spmd_run` is the reproduction's analogue of launching a UPC++ job:
it builds a :class:`World` (segments, conduit, per-rank contexts, the
shared ready cell), runs the supplied function on every rank — all ranks
on the calling thread's event loop — and returns the per-rank results
together with the world (whose virtual clocks and cost counters the
benchmarks read).

Example
-------
::

    from repro import rank_me, rank_n, barrier
    from repro.runtime import spmd_run

    def hello():
        barrier()
        return rank_me() * 10

    result = spmd_run(hello, ranks=4)
    assert result.values == [0, 10, 20, 30]
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.core.cell import PromiseCell
from repro.errors import UpcxxError
from repro.gasnet.aggregator import AmAggregator
from repro.gasnet.conduit import Conduit, make_conduit
from repro.memory.allocator import SharedAllocator
from repro.memory.segment import Segment
from repro.obs import ObsState
from repro.runtime.config import RuntimeConfig, Version
from repro.runtime.context import RankContext
from repro.runtime.event_loop import EventLoopScheduler
from repro.runtime.switchpoints import BlockUntil, run_blocking
from repro.sim.costmodel import CostAction
from repro.sim.machines import MachineProfile, profile_by_name

_DEFAULT_SEGMENT_BYTES = 1 << 20


class World:
    """All shared state of one simulated job."""

    def __init__(
        self,
        config: RuntimeConfig,
        ranks: int = 1,
        n_nodes: int = 1,
        segment_bytes: int = _DEFAULT_SEGMENT_BYTES,
    ):
        if ranks < 1:
            raise UpcxxError("world needs at least one rank")
        if n_nodes < 1 or ranks % n_nodes != 0:
            raise UpcxxError(
                "ranks must divide evenly across nodes "
                f"(ranks={ranks}, nodes={n_nodes})"
            )
        self.config = config
        self.size = ranks
        self.n_nodes = n_nodes
        self.ranks_per_node = ranks // n_nodes
        self.profile: MachineProfile = profile_by_name(config.machine)
        self.conduit_name = config.conduit
        #: the pre-allocated shared ready cell for value-less future<>
        self.shared_ready_cell = PromiseCell(nvalues=0, deps=0, shared=True)

        self.segments = [Segment(r, segment_bytes) for r in range(ranks)]
        self.allocators = [SharedAllocator(s) for s in self.segments]
        self.contexts = [
            RankContext(r, self, config, self.profile) for r in range(ranks)
        ]
        self.conduit: Conduit = make_conduit(config.conduit, self)
        for ctx in self.contexts:
            ctx.segment = self.segments[ctx.rank]
            ctx.allocator = self.allocators[ctx.rank]
            ctx.conduit = self.conduit
            if ctx.flags.am_aggregation:
                ctx.am_agg = AmAggregator(ctx)
            if ctx.flags.obs_spans:
                ctx.obs = ObsState(ctx)

        #: total rank-to-rank switches the driving scheduler performed
        #: (filled in by spmd_run after the job completes)
        self.sched_switches = 0

        #: the driving event-loop scheduler, wired through
        #: :meth:`attach_scheduler` by :meth:`EventLoopScheduler.run
        #: <repro.runtime.event_loop.EventLoopScheduler.run>` (under
        #: ``spmd_run`` and for nested/ambient worlds driven directly
        #: alike) so completion sites (conduit inbox pushes, the barrier
        #: epoch advance) can notify parked wake-list waiters; None for a
        #: world nobody drives (a world without a scheduler never parks
        #: anyone)
        self.scheduler = None
        #: wake notifications that found no attached scheduler — the
        #: observable form of the old silent fallback: the event is
        #: dropped and any would-be waiter relies on the predicate scan
        #: (see :meth:`notify_incoming` / :meth:`notify_barrier_epoch`)
        self.wake_notify_misses = 0
        self._wake_miss_noted = False

        # barrier state
        self._barrier_epoch = 0
        self._barrier_arrived = 0
        self._barrier_maxclock = 0.0
        self._barrier_release_ns = 0.0

    # -- wake fabric ---------------------------------------------------------

    def attach_scheduler(self, sched) -> None:
        """Wire ``sched`` as this world's wake fabric.

        Completion sites (conduit inbox pushes, barrier epoch advances)
        notify the attached scheduler, every rank context routes its
        blocking primitives through it, and the scheduler learns it has a
        wake source (keyed blocks may park on wake bits).
        :meth:`EventLoopScheduler.run
        <repro.runtime.event_loop.EventLoopScheduler.run>` calls this, so
        a nested or ambient world driven directly gets wake-list
        scheduling, not just the world ``spmd_run`` launched.  Idempotent
        for the same scheduler; a world is driven by at most one
        scheduler at a time.
        """
        if self.scheduler is sched:
            return
        if self.scheduler is not None:
            raise UpcxxError(
                "world already has a driving scheduler attached"
            )
        self.scheduler = sched
        for ctx in self.contexts:
            ctx.scheduler = sched
        sched.bind_wake_source(self)

    def notify_incoming(self, rank: int) -> None:
        """An AM landed in ``rank``'s inbox: wake it if it is parked on a
        wake list.  With no scheduler attached the event is counted as a
        miss (plus a one-time debug note) instead of vanishing silently —
        any waiter then relies on the predicate scan."""
        sched = self.scheduler
        if sched is not None:
            sched.notify_incoming(rank)
        else:
            self._note_wake_miss()

    def notify_barrier_epoch(self) -> None:
        """The barrier epoch advanced: wake every parked barrier waiter
        (same no-scheduler miss accounting as :meth:`notify_incoming`)."""
        sched = self.scheduler
        if sched is not None:
            sched.notify_barrier_epoch()
        else:
            self._note_wake_miss()

    def _note_wake_miss(self) -> None:
        # a single-rank world cannot have a parked waiter when an event
        # fires (the only rank is the one running), so only multi-rank
        # worlds count misses — the case where a waiter could exist
        if self.size <= 1:
            return
        self.wake_notify_misses += 1
        if not self._wake_miss_noted:
            self._wake_miss_noted = True
            logging.getLogger(__name__).debug(
                "wake notification on a world with no attached scheduler; "
                "waiters (if any) fall back to the predicate scan "
                "(counted in World.wake_notify_misses)"
            )

    # -- topology ----------------------------------------------------------

    def node_of(self, rank: int) -> int:
        if not (0 <= rank < self.size):
            raise UpcxxError(f"rank {rank} out of range (size {self.size})")
        return rank // self.ranks_per_node

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def segment_of(self, rank: int) -> Segment:
        return self.segments[rank]

    # -- barrier -------------------------------------------------------------

    def barrier(self, ctx: RankContext) -> None:
        """Rendezvous of all ranks; clocks synchronize to the latest
        arrival plus the barrier cost.  Provides user-level progress while
        waiting (as ``upcxx::barrier`` does)."""
        run_blocking(ctx, self.barrier_gen(ctx))

    def barrier_gen(self, ctx: RankContext):
        """Generator form of :meth:`barrier` for continuation rank bodies
        (``yield from world.barrier_gen(ctx)``): yields switch commands
        instead of calling the blocking primitives, so the event-loop
        scheduler interprets the waits in place.  :meth:`barrier` drives
        this same generator through ``run_blocking`` — one implementation,
        identical charge sequence on both paths."""
        obs = ctx.obs
        span = (
            obs.begin_span("barrier", "none", locality="coll")
            if obs is not None
            else None
        )
        ctx.charge(CostAction.BARRIER)
        epoch = self._barrier_epoch
        self._barrier_arrived += 1
        self._barrier_maxclock = max(
            self._barrier_maxclock, ctx.clock.now_ns
        )
        if self._barrier_arrived == self.size:
            self._barrier_release_ns = self._barrier_maxclock
            self._barrier_arrived = 0
            self._barrier_maxclock = 0.0
            self._barrier_epoch += 1
            self.notify_barrier_epoch()
            ctx.clock.advance_to(self._barrier_release_ns)
            ctx.progress()
            if span is not None:
                obs.close_notification(span, ctx.clock.now_ns)
                span.t_waited = ctx.clock.now_ns
            return
        while self._barrier_epoch == epoch:
            ctx.progress()
            if self._barrier_epoch != epoch:
                break
            yield BlockUntil(
                lambda: self._barrier_epoch != epoch or ctx.has_incoming(),
                wake=("epoch",),
            )
        ctx.clock.advance_to(self._barrier_release_ns)
        if span is not None:
            obs.close_notification(span, ctx.clock.now_ns)
            span.t_waited = ctx.clock.now_ns

    # -- measurement helpers ------------------------------------------------------

    def max_clock_ns(self) -> float:
        return max(c.clock.now_ns for c in self.contexts)

    def total_count(self, action: CostAction) -> int:
        return sum(c.costs.count(action) for c in self.contexts)


def build_world(
    config: RuntimeConfig,
    ranks: int = 1,
    n_nodes: int = 1,
    segment_bytes: int = _DEFAULT_SEGMENT_BYTES,
) -> World:
    """Construct a world without running it (rank 0's context can be
    used directly on the calling thread — this is how the ambient
    single-rank world works)."""
    return World(config, ranks=ranks, n_nodes=n_nodes, segment_bytes=segment_bytes)


@dataclass
class SpmdResult:
    """Outcome of one :func:`spmd_run`: per-rank return values plus the
    world for post-mortem inspection of clocks and cost counters."""

    values: list
    world: World

    def clock_ns(self, rank: int = 0) -> float:
        return self.world.contexts[rank].clock.now_ns

    def max_clock_ns(self) -> float:
        return self.world.max_clock_ns()


def spmd_run(
    fn: Callable[..., Any],
    *,
    ranks: int = 4,
    version: Version = Version.V2021_3_6_EAGER,
    machine: str = "generic",
    conduit: Optional[str] = None,
    n_nodes: int = 1,
    segment_bytes: int = _DEFAULT_SEGMENT_BYTES,
    seed: int = 0,
    flags=None,
    noise: float = 0.0,
    args: Sequence[Any] = (),
    switch_trace: Optional[list] = None,
) -> SpmdResult:
    """Run ``fn(*args)`` as an SPMD program on ``ranks`` simulated ranks.

    ``conduit`` defaults to the machine profile's conduit (the paper's
    pairing: smp on Intel, udp on IBM/Marvell).  ``flags`` may override the
    version's feature set for ablations.

    All ranks run on the calling thread's event loop
    (:mod:`repro.runtime.event_loop`): a ``fn`` that is a generator
    function runs as an in-place continuation; any other callable rides
    the per-rank thread shim.

    ``switch_trace``, when given a list, receives every scheduling decision
    as a small tuple (see :class:`~repro.runtime.scheduler.SchedulerCore`)
    — the golden oracle's probe.

    Raises the first rank's exception if any rank fails (other ranks are
    torn down), and :class:`~repro.errors.DeadlockError` if the program
    hangs.
    """
    profile = profile_by_name(machine)
    config = RuntimeConfig(
        version=version,
        machine=machine,
        conduit=conduit or profile.default_conduit,
        flags=flags,
        seed=seed,
        noise=noise,
    )
    world = World(
        config, ranks=ranks, n_nodes=n_nodes, segment_bytes=segment_bytes
    )
    loop = EventLoopScheduler(
        ranks,
        switch_trace=switch_trace,
        wake_list=config.resolved_flags().sched_wake_list,
    )
    values = loop.run(world, fn, args)
    world.sched_switches = loop.switches
    err = loop.first_error()
    if err is not None:
        raise err
    return SpmdResult(values=values, world=world)

"""Per-rank runtime state and the current-context mechanism.

Every simulated rank owns a :class:`RankContext`: its virtual clock, cost
model, progress engine, RNG, shared-segment allocator and conduit endpoint.
API functions (``rput``, ``rget``, atomic ops, …) resolve the calling
rank's context through a thread-local, exactly as the real UPC++ runtime
resolves "the current persona's state" through thread-local storage.

Code running outside :func:`repro.runtime.runtime.spmd_run` (unit tests,
REPL exploration) still gets a fully functional single-rank world: the
first call to :func:`current_ctx` on such a thread lazily creates an
*ambient* standalone world of one rank with the generic machine profile.
"""

from __future__ import annotations

import random
import threading
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import NotInitializedError, UpcxxError
from repro.runtime.config import FeatureFlags, RuntimeConfig
from repro.runtime.progress import ProgressEngine
from repro.sim.clock import VirtualClock
from repro.sim.costmodel import CostAction, CostModel
from repro.sim.machines import MachineProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.gasnet.aggregator import AmAggregator
    from repro.gasnet.conduit import Conduit
    from repro.memory.allocator import SharedAllocator
    from repro.memory.segment import Segment
    from repro.obs import ObsState
    from repro.runtime.runtime import World
    from repro.runtime.scheduler import SchedulerCore


class RankContext:
    """All runtime state owned by one simulated rank."""

    def __init__(
        self,
        rank: int,
        world: "World",
        config: RuntimeConfig,
        profile: MachineProfile,
    ):
        self.rank = rank
        self.world = world
        self.config = config
        self.flags: FeatureFlags = config.resolved_flags()
        self.profile = profile
        #: whether ``GlobalPtr.is_local`` pays a ``LOCALITY_BRANCH``: only
        #: the 2021.3.6 ``constexpr is_local`` build on the smp conduit
        #: compiles the check away (both fixed for the world's lifetime)
        self.charges_locality_branch: bool = not (
            self.flags.constexpr_is_local_smp and config.conduit == "smp"
        )
        self.clock = VirtualClock()
        self.costs = CostModel(profile, self.clock)
        if config.noise:
            self.costs.noise = config.noise
            # independent of self.rng so timing jitter never perturbs
            # application-level randomness
            self.costs.noise_rng = random.Random(
                (config.seed * 7_368_787) ^ (rank * 104_729) ^ 0x5EED
            )
            # job-wide interference: one draw per (seed, world) shared by
            # all ranks — the correlated component a whole sample absorbs
            run_rng = random.Random(config.seed * 48_611 + 0xCAFE)
            self.costs.noise_run_factor = 1.0 + 2.0 * config.noise * abs(
                run_rng.gauss(0, 1)
            )
        if self.flags.cost_batching:
            if config.noise:
                raise UpcxxError(
                    "cost_batching is incompatible with timing noise: "
                    "jitter must be drawn per charge, which is exactly the "
                    "per-charge work batching removes"
                )
            self.costs.enable_batching()
        self.progress_engine = ProgressEngine(self)
        self.rng = random.Random((config.seed * 1_000_003) ^ (rank + 1))
        # wired by the runtime after construction:
        self.segment: "Segment" = None  # type: ignore[assignment]
        self.allocator: "SharedAllocator" = None  # type: ignore[assignment]
        self.conduit: "Conduit" = None  # type: ignore[assignment]
        #: per-rank AM aggregator; wired by the runtime only when
        #: ``flags.am_aggregation`` is set (None → zero overhead)
        self.am_agg: Optional["AmAggregator"] = None
        #: per-rank observability state; wired by the runtime only when
        #: ``flags.obs_spans`` is set (None → zero overhead)
        self.obs: Optional["ObsState"] = None
        #: the driving EventLoopScheduler (yield_now/block_until), wired
        #: by World.attach_scheduler
        self.scheduler: Optional["SchedulerCore"] = None
        self._barrier_epoch = 0

    # -- identity -----------------------------------------------------------

    @property
    def world_size(self) -> int:
        return self.world.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RankContext rank={self.rank}/{self.world_size}>"

    # -- cost & progress shorthands ----------------------------------------

    def charge(self, action: CostAction, times: int = 1) -> None:
        self.costs.charge(action, times)

    def charge_bytes(self, action: CostAction, nbytes: int) -> None:
        self.costs.charge_bytes(action, nbytes)

    def progress(self) -> bool:
        """Run one pass of this rank's progress engine."""
        return self.progress_engine.progress()

    def has_incoming(self) -> bool:
        """True if a progress call now could do work (deferred
        notifications, LPCs, or arrived AMs)."""
        if self.progress_engine.has_pending():
            return True
        conduit = self.conduit
        return conduit is not None and conduit.has_incoming(self.rank)

    # -- scheduling ---------------------------------------------------------

    def yield_to_others(self) -> None:
        """Let other ranks run (no-op in a standalone 1-rank world)."""
        if self.scheduler is not None:
            self.scheduler.yield_now(self.rank)

    def block_until(
        self,
        wake_when: Callable[[], bool],
        wake: Optional[tuple] = None,
    ) -> None:
        """Block this rank until the predicate holds.

        ``wake`` optionally names the event that turns the predicate true
        (see :class:`~repro.runtime.switchpoints.BlockUntil`), letting the
        scheduler park the rank on a wake list instead of re-evaluating
        the predicate on every switch.

        In a standalone world there is nobody else to produce events, so a
        false predicate with no pending local work is an immediate deadlock.
        """
        if self.scheduler is not None:
            self.scheduler.block_until(self.rank, wake_when, wake)
        elif not wake_when():
            from repro.errors import DeadlockError

            raise DeadlockError(
                "single-rank world blocked on a condition that no pending "
                "event can satisfy"
            )

    def barrier(self) -> None:
        """Block until all ranks reach the barrier; synchronize clocks."""
        self.world.barrier(self)

    def barrier_gen(self):
        """Generator form of :meth:`barrier` for continuation rank bodies
        (``yield from ctx.barrier_gen()``)."""
        return self.world.barrier_gen(self)

    # -- locality ----------------------------------------------------------------

    def is_local_rank(self, rank: int) -> bool:
        """Whether ``rank``'s segment is directly addressable from here.

        All of the paper's experiments run on one node with PSHM, so in a
        simulated world this is true for every rank sharing our "node"
        (the whole world unless the world was built multi-node).  Answered
        from the conduit's static node table; an out-of-range rank raises
        :class:`~repro.errors.UpcxxError`.
        """
        conduit = self.conduit
        if conduit is None:
            return self.world.same_node(self.rank, rank)
        nodes = conduit._node_of
        if 0 <= rank < len(nodes):
            return nodes[self.rank] == nodes[rank]
        raise UpcxxError(
            f"rank {rank} out of range (size {len(nodes)})"
        )

    # -- AM aggregation -----------------------------------------------------

    def flush_aggregation(self, reason: str = "explicit") -> int:
        """Flush all buffered (destination-batched) AMs; returns entries
        shipped (0 when aggregation is off or nothing is buffered).
        ``reason`` tags the flush in the aggregator's stats (the progress
        engine passes ``progress_entry``/``progress_exit``)."""
        agg = self.am_agg
        if agg is not None and agg.has_pending():
            return agg.flush_all(reason=reason)
        return 0


# ---------------------------------------------------------------------------
# current-context resolution
# ---------------------------------------------------------------------------

_tls = threading.local()


def set_current_ctx(ctx: Optional[RankContext]) -> None:
    """Bind ``ctx`` as the calling thread's rank context (None to clear)."""
    _tls.ctx = ctx


def current_ctx_or_none() -> Optional[RankContext]:
    """The calling thread's context, or None (never creates one)."""
    return getattr(_tls, "ctx", None)


def current_ctx() -> RankContext:
    """The calling thread's context, creating the ambient standalone
    single-rank world on first use outside ``spmd_run``."""
    ctx = getattr(_tls, "ctx", None)
    if ctx is None:
        ctx = _make_ambient()
        _tls.ctx = ctx
    return ctx


def reset_ambient_ctx() -> None:
    """Discard the calling thread's ambient world (tests use this to get a
    fresh segment/clock)."""
    ctx = getattr(_tls, "ctx", None)
    if ctx is not None and getattr(ctx, "_is_ambient", False):
        _tls.ctx = None


def require_spmd_ctx() -> RankContext:
    """Like :func:`current_ctx` but refuses to auto-create a world."""
    ctx = current_ctx_or_none()
    if ctx is None:
        raise NotInitializedError()
    return ctx


def _make_ambient() -> RankContext:
    from repro.runtime.runtime import build_world  # local: avoids cycle

    world = build_world(RuntimeConfig())
    ctx = world.contexts[0]
    ctx._is_ambient = True  # type: ignore[attr-defined]
    return ctx

"""Property-based invariants of the progress drain loop.

Randomized engine-level action streams (stdlib ``random`` with fixed
seeds — reruns are bit-identical) check, for the drain-until-quiescent
engine:

* **termination** — drain-until-quiescent always terminates, including
  thunk chains where callbacks enqueue further thunks;
* **conservation** — every enqueued thunk is dispatched exactly once:
  at quiescence ``PROGRESS_DISPATCH == PROGRESS_QUEUE_ENQUEUE +
  LPC_ENQUEUE`` (engine level and world level).
"""

import random

import pytest

from repro import barrier, current_ctx, rput
from repro.runtime.config import flags_for
from repro.runtime.runtime import spmd_run
from repro.sim.costmodel import CostAction
from tests.conftest import VD

SEEDS = (11, 23, 37)

#: engine configurations under test (one: the static drain loop)
MODE_FLAGS = {
    "static": lambda: flags_for(VD),
}


def drain(ctx, limit=10_000):
    """Drain to quiescence, failing loudly instead of hanging."""
    calls = 0
    while ctx.progress_engine.has_pending():
        ctx.progress()
        calls += 1
        assert calls < limit, "drain loop failed to reach quiescence"
    while ctx.progress():
        calls += 1
        assert calls < limit, "drain loop failed to reach quiescence"
    return calls


def dispatch_balance(ctx):
    """Dispatched minus enqueued; zero exactly at quiescence."""
    c = ctx.costs
    return c.count(CostAction.PROGRESS_DISPATCH) - (
        c.count(CostAction.PROGRESS_QUEUE_ENQUEUE)
        + c.count(CostAction.LPC_ENQUEUE)
    )


class EngineModel:
    """Random action stream against one rank's engine, with the
    invariant checks folded into every step."""

    def __init__(self, ctx, rng):
        self.ctx = ctx
        self.eng = ctx.progress_engine
        self.rng = rng
        self.ran = []
        self.chain_budget = 0

    def _thunk(self, tag):
        def run():
            self.ran.append(tag)
            # chained enqueues: callbacks may schedule more work, which
            # the drain loop must also retire (bounded so the stream
            # itself terminates)
            if self.chain_budget > 0 and self.rng.random() < 0.4:
                self.chain_budget -= 1
                self._enqueue(f"{tag}+chain")

        return run

    def _enqueue(self, tag):
        if self.rng.random() < 0.3:
            self.eng.enqueue_lpc(self._thunk(tag))
        else:
            self.eng.enqueue_deferred(self._thunk(tag))

    def step(self, i):
        roll = self.rng.random()
        if roll < 0.5:
            self.chain_budget += 2
            self._enqueue(f"op{i}")
        elif roll < 0.7:
            self.ctx.clock.advance(self.rng.uniform(0.0, 900.0))
        else:
            self.ctx.progress()


@pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
@pytest.mark.parametrize("seed", SEEDS)
class TestEngineProperties:
    def test_random_stream_invariants(self, versioned_ctx, mode, seed):
        ctx = versioned_ctx(VD, flags=MODE_FLAGS[mode]())
        model = EngineModel(ctx, random.Random(seed))
        for i in range(300):
            model.step(i)
        drain(ctx)
        assert not ctx.progress_engine.has_pending()
        assert dispatch_balance(ctx) == 0
        assert len(model.ran) == ctx.costs.count(
            CostAction.PROGRESS_DISPATCH
        )

    def test_thunk_chains_terminate(self, versioned_ctx, mode, seed):
        """Deep enqueue-from-callback chains still drain to quiescence."""
        ctx = versioned_ctx(VD, flags=MODE_FLAGS[mode]())
        eng = ctx.progress_engine
        rng = random.Random(seed)
        ran = []

        def chain(depth):
            def run():
                ran.append(depth)
                if depth > 0:
                    # alternate queue kinds down the chain
                    if rng.random() < 0.5:
                        eng.enqueue_deferred(chain(depth - 1))
                    else:
                        eng.enqueue_lpc(chain(depth - 1))

            return run

        for _ in range(10):
            eng.enqueue_deferred(chain(rng.randrange(1, 30)))
        drain(ctx)
        assert not eng.has_pending()
        assert dispatch_balance(ctx) == 0

    def test_replay_bit_identical(self, versioned_ctx, mode, seed):
        """Same seed, same flags -> same dispatch order and same clock."""

        def one_run():
            ctx = versioned_ctx(VD, flags=MODE_FLAGS[mode]())
            model = EngineModel(ctx, random.Random(seed))
            for i in range(120):
                model.step(i)
            drain(ctx)
            return list(model.ran), ctx.clock.now_ns

        assert one_run() == one_run()


def _rput_storm(seed):
    """SPMD body: a random burst of rputs to the right neighbour with
    interleaved progress, then a full drain."""
    ctx = current_ctx()
    rng = random.Random(seed + ctx.rank)
    from repro import new_array
    from repro.memory.global_ptr import GlobalPtr

    arr = new_array("u64", 32)
    barrier()
    right = (ctx.rank + 1) % ctx.world_size
    base = GlobalPtr(right, arr.offset, arr.ts)
    futs = []
    for i in range(40):
        futs.append(rput(rng.randrange(1 << 32), base + (i % 32)))
        if rng.random() < 0.3:
            ctx.progress()
    for f in futs:
        f.wait()
    barrier()
    while ctx.progress():
        pass
    barrier()
    return True


@pytest.mark.parametrize("mode", sorted(MODE_FLAGS))
@pytest.mark.parametrize("seed", SEEDS)
class TestWorldProperties:
    def test_world_level_conservation(self, mode, seed):
        """After a drained SPMD run the dispatch/enqueue identity holds
        world-wide."""
        res = spmd_run(
            lambda: _rput_storm(seed),
            ranks=4,
            n_nodes=2,
            conduit="udp",
            version=VD,
            flags=MODE_FLAGS[mode](),
        )
        assert all(res.values)
        w = res.world
        dispatched = w.total_count(CostAction.PROGRESS_DISPATCH)
        enqueued = w.total_count(
            CostAction.PROGRESS_QUEUE_ENQUEUE
        ) + w.total_count(CostAction.LPC_ENQUEUE)
        assert dispatched == enqueued
        for ctx in w.contexts:
            assert not ctx.progress_engine.has_pending()

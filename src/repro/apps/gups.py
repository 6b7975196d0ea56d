"""GUPS — the HPC Challenge RandomAccess benchmark (paper §IV-B).

A table of 2^m 64-bit words is block-distributed over the ranks; each rank
performs a stream of updates ``table[ran & (N-1)] ^= ran`` where ``ran``
follows the HPCC pseudo-random sequence.  Unsynchronized updates are
permitted to race (HPCC tolerates up to 1% lost updates); the atomic
variants are exact.

Six variants, exactly the paper's:

``raw``
    "bypasses UPC++ entirely, using pure C++": locality checks, downcasts
    and all UPC++ calls are factored *out of the loop*; each update is a
    plain load/xor/store.  Single-node only; the upper bound.
``manual``
    manual localization: per update, ``is_local()`` + downcast + direct
    store; an off-node target falls back to a blocking ``rget`` then
    ``rput`` (on one node every check succeeds).
``rma_promise``
    pure RMA ignoring locality: batches of value-less ``rget_into`` tracked
    by one promise, local xor, then batched ``rput`` tracked by a promise.
``rma_future``
    same data path, but conjoining per-op futures with ``when_all`` in a
    loop (Figure 1's dependency graph in the deferred builds).
``amo_promise``
    remote atomic ``bit_xor`` per update, promise-tracked per batch.
``amo_future``
    remote atomic ``bit_xor`` per update, future-conjoined per batch.

Two further variants go beyond the paper:

``agg``
    one-sided fire-and-forget updates (``rpc_ff`` applying the xor at the
    owner) with **no per-update reply**; termination is a barrier /
    drain-inbox / barrier protocol, so the result is exact.  On a
    multi-node world with ``flags.am_aggregation`` enabled, the AM
    aggregation layer coalesces the per-destination update messages into
    bundles — the destination-batching optimization that attacks the
    injection/latency costs eager notification cannot (§IV-A).
``cont``
    a defer-heavy atomic pattern retargeted at continuation completions
    (requires ``FeatureFlags.cx_continuations``): each atomic update is
    tracked by ``operation_cx.as_continuation`` ticking a done counter
    instead of allocating a future/promise cell, and each batch is
    followed by an idle polling segment (one ``ctx.progress()`` per unit
    of overlapped local work).  Continuations are eager-by-construction
    — they dispatch the moment whichever agent observes the ack (inline
    in ``notify_sync`` or from the progress engine's pend path), never
    parking on the deferred queue — so under a deferred-notification
    build their notification gaps collapse to the eager baseline while
    the future-path variants still pay the defer penalty.  The batch
    drain blocks on the counter reaching the issue count.


Every variant charges the same per-update "application work": the HPCC
random-number step, index arithmetic, and one random DRAM access (the
table is far larger than cache).  The runtime overhead differences between
builds ride on top of that shared base, which is what makes the promise
variants' speedups modest (15%/9%/25% for RMA, 1–4% for the pricier
atomics) while the future-conjoining variants blow up under deferred
notification.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import GeneratorType

import numpy as np

from repro import (
    AtomicDomain,
    barrier_gen,
    current_ctx,
    make_future,
    new_array,
    operation_cx,
    rank_me,
    rank_n,
    rget,
    rget_into,
    rput,
    when_all,
)
from repro.core.promise import Promise
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.config import Version, flags_for
from repro.runtime.runtime import SpmdResult, spmd_run
from repro.sim.costmodel import CostAction
from repro.sim.stats import (
    AggregationStats,
    aggregation_stats,
    observability_snapshots,
    observability_stats,
)

# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` or
# ``Event.X`` read runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_FUNCTION_CALL = CostAction.FUNCTION_CALL
_DRAM_RANDOM_ACCESS = CostAction.DRAM_RANDOM_ACCESS
_CPU_LOAD = CostAction.CPU_LOAD
_CPU_STORE = CostAction.CPU_STORE


#: the paper's six variants (Figures 5-7 grid)
PAPER_GUPS_VARIANTS = (
    "raw",
    "manual",
    "rma_promise",
    "rma_future",
    "amo_promise",
    "amo_future",
)

#: all variants, including the beyond-the-paper ones
GUPS_VARIANTS = PAPER_GUPS_VARIANTS + (
    "agg",
    "cont",
)

_MASK64 = (1 << 64) - 1
_POLY = 0x0000000000000007

#: HPCC accepts a run whose table differs from the race-free oracle in at
#: most this fraction of its entries (unsynchronized RMA updates race)
HPCC_TOLERANCE = 0.01


def hpcc_next(ran: int) -> int:
    """One step of the HPCC RandomAccess sequence (x^64 LFSR with POLY)."""
    return ((ran << 1) & _MASK64) ^ (_POLY if ran >> 63 else 0)


def hpcc_stream(seed: int, n: int) -> list[int]:
    """``n`` values of the update stream starting from ``seed`` (nonzero)."""
    ran = seed & _MASK64 or 1
    out = []
    for _ in range(n):
        ran = hpcc_next(ran)
        out.append(ran)
    return out


def rank_seed(global_seed: int, rank: int) -> int:
    """A well-separated per-rank starting point (splitmix64 of the pair)."""
    z = (global_seed * 0x9E3779B97F4A7C15 + rank + 1) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) or 1


@dataclass(frozen=True)
class GupsConfig:
    """Parameters of one GUPS run (sizes scaled down for the simulator)."""

    variant: str = "rma_promise"
    table_log2: int = 12  # total table size N = 2**table_log2 words
    updates_per_rank: int = 256
    batch: int = 32
    seed: int = 1

    def __post_init__(self):
        if self.variant not in GUPS_VARIANTS:
            raise ValueError(
                f"unknown GUPS variant {self.variant!r}; "
                f"known: {GUPS_VARIANTS}"
            )
        if self.batch < 1:
            raise ValueError("batch must be >= 1")


@dataclass
class GupsResult:
    """Outcome of one GUPS run."""

    config: GupsConfig
    ranks: int
    version: Version
    machine: str
    total_updates: int
    solve_ns: float
    #: giga-updates per second of *virtual* time
    gups: float
    #: xor-reduction of the final table (lost updates make this differ
    #: from the oracle for the racy variants; atomic/raw/manual are exact
    #: when updates don't race within an update step)
    checksum: int
    oracle_checksum: int

    #: final table contents (concatenated across ranks), for HPCC-style
    #: verification
    table: "np.ndarray | None" = None

    #: world-wide AM traffic counters (what destination batching reduces)
    am_injects: int = 0
    am_bundles: int = 0
    am_agg_entries: int = 0
    #: mean simulated parking latency of an aggregated entry (append to
    #: flush)
    agg_mean_parked_ns: float = 0.0
    #: the full world-wide aggregation rollup (histogram, flush-trigger
    #: tally) for report rendering
    agg_stats: "AggregationStats | None" = None

    #: per-rank observability snapshots (``FeatureFlags.obs_spans`` runs
    #: only; empty tuple otherwise) — feed these to
    #: :func:`repro.obs.write_chrome_trace` for a Perfetto timeline
    obs_snapshots: tuple = ()
    #: world-wide span/metrics rollup (:class:`repro.obs.ObsStats`),
    #: ``None`` unless the run had ``obs_spans`` on
    obs_stats: "object | None" = None

    #: world-wide progress-poll count (``PROGRESS_POLL`` charges)
    progress_polls: int = 0

    @property
    def matches_oracle(self) -> bool:
        return self.checksum == self.oracle_checksum

    @property
    def error_fraction(self) -> float:
        """HPCC verification: the fraction of table entries differing
        from a race-free execution.  HPCC accepts a run when this is at
        most 1% (lost updates from unsynchronized racing are allowed for
        the RMA variants; atomic/raw/manual variants must be exact)."""
        if self.table is None:
            raise ValueError("run_gups was invoked with collect_table=False")
        oracle = oracle_table(self.config, self.ranks)
        return float(np.count_nonzero(self.table != oracle)) / len(oracle)

    @property
    def passes_hpcc_verification(self) -> bool:
        return self.error_fraction <= HPCC_TOLERANCE


def oracle_table(cfg: GupsConfig, ranks: int) -> np.ndarray:
    """The table a race-free execution produces (xor is commutative, so
    any serialization of the updates gives this result)."""
    n = 1 << cfg.table_log2
    table = np.arange(n, dtype=np.uint64)
    for r in range(ranks):
        for ran in hpcc_stream(rank_seed(cfg.seed, r), cfg.updates_per_rank):
            table[ran & (n - 1)] ^= np.uint64(ran)
    return table


def _charge_update_work(ctx) -> None:
    """The per-update application work common to every variant: the HPCC
    RNG step, masking/index arithmetic, and the random DRAM touch."""
    ctx.charge(_FUNCTION_CALL, 3)
    ctx.charge(_DRAM_RANDOM_ACCESS)


def _gups_body(cfg: GupsConfig):
    """The SPMD body; returns ``(solve_ns, xor of the owned table part,
    the owned table part, xor of this rank's update stream)``.

    Written as a generator continuation (``yield from`` at every blocking
    construct) so the event-loop scheduler resumes it in place.
    """
    ctx = current_ctx()
    me, p = rank_me(), rank_n()
    n = 1 << cfg.table_log2
    if n % p:
        raise ValueError("table size must divide evenly across ranks")
    per_rank = n // p
    mine = new_array("u64", per_rank)
    view = ctx.segment.view_array(mine.offset, mine.ts, per_rank)
    view[:] = np.arange(me * per_rank, (me + 1) * per_rank, dtype=np.uint64)

    # exchange base pointers (every rank allocates in lock-step, so the
    # offsets agree; a dist_object fetch would carry the same information)
    bases = [GlobalPtr(r, mine.offset, mine.ts) for r in range(p)]
    stream = hpcc_stream(rank_seed(cfg.seed, me), cfg.updates_per_rank)
    yield from barrier_gen()
    ctx.clock.mark("solve")

    runner = _VARIANT_BODIES[cfg.variant]
    body = runner(ctx, cfg, bases, per_rank, stream)
    if isinstance(body, GeneratorType):
        # waiting variants (manual included: its off-node fallback waits)
        # are continuation generators; raw never reaches a switch point
        # and stays a plain call (body is None)
        yield from body

    yield from barrier_gen()
    solve_ns = ctx.clock.elapsed_since("solve")
    local_xor = int(np.bitwise_xor.reduce(view)) if per_rank else 0
    stream_xor = 0
    for ran in stream:
        stream_xor ^= ran
    return solve_ns, local_xor, view.copy(), stream_xor


# ---------------------------------------------------------------------------
# variant bodies
# ---------------------------------------------------------------------------


def _target(bases, per_rank, ran):
    idx = ran & (len(bases) * per_rank - 1)
    return bases[idx // per_rank] + (idx % per_rank)


def _run_raw(ctx, cfg, bases, per_rank, stream):
    """Raw single-node version: downcasts hoisted out of the loop."""
    if ctx.world.n_nodes != 1:
        raise ValueError("the raw variant supports single-node runs only")
    views = [
        ctx.world.segment_of(b.rank).view_array(b.offset, b.ts, per_rank)
        for b in bases
    ]
    for ran in stream:
        _charge_update_work(ctx)
        idx = ran & (len(bases) * per_rank - 1)
        v = views[idx // per_rank]
        off = idx % per_rank
        ctx.charge(_CPU_LOAD)
        ctx.charge(_CPU_STORE)
        v[off] = v[off] ^ np.uint64(ran)


def _run_manual(ctx, cfg, bases, per_rank, stream):
    """Manual localization: per-update locality check + downcast."""
    for ran in stream:
        _charge_update_work(ctx)
        dest = _target(bases, per_rank, ran)
        if dest.is_local(ctx):
            ref = dest.local(ctx)
            ctx.charge(_CPU_LOAD)
            old = ref.segment.read_scalar(ref.offset, ref.ts)
            ctx.charge(_CPU_STORE)
            ref.segment.write_scalar(ref.offset, ref.ts, (old ^ ran) & _MASK64)
        else:
            val = yield from rget(dest).wait_gen()
            yield from rput((val ^ ran) & _MASK64, dest).wait_gen()


def _run_rma_promise(ctx, cfg, bases, per_rank, stream):
    """Pure RMA, promise-tracked: batched get / xor / batched put."""
    scratch = new_array("u64", cfg.batch)
    sview = ctx.segment.view_array(scratch.offset, scratch.ts, cfg.batch)
    for start in range(0, len(stream), cfg.batch):
        chunk = stream[start : start + cfg.batch]
        targets = []
        p = Promise()
        for i, ran in enumerate(chunk):
            _charge_update_work(ctx)
            dest = _target(bases, per_rank, ran)
            targets.append(dest)
            rget_into(dest, scratch + i, 1, operation_cx.as_promise(p))
        yield from p.finalize().wait_gen()
        p2 = Promise()
        for i, ran in enumerate(chunk):
            ctx.charge(_CPU_LOAD)
            val = (int(sview[i]) ^ ran) & _MASK64
            rput(val, targets[i], operation_cx.as_promise(p2))
        yield from p2.finalize().wait_gen()


def _run_rma_future(ctx, cfg, bases, per_rank, stream):
    """Pure RMA, future-conjoined (the Figure 1 idiom)."""
    scratch = new_array("u64", cfg.batch)
    sview = ctx.segment.view_array(scratch.offset, scratch.ts, cfg.batch)
    for start in range(0, len(stream), cfg.batch):
        chunk = stream[start : start + cfg.batch]
        targets = []
        fut = make_future()
        for i, ran in enumerate(chunk):
            _charge_update_work(ctx)
            dest = _target(bases, per_rank, ran)
            targets.append(dest)
            fut = when_all(fut, rget_into(dest, scratch + i, 1))
        yield from fut.wait_gen()
        fut = make_future()
        for i, ran in enumerate(chunk):
            ctx.charge(_CPU_LOAD)
            val = (int(sview[i]) ^ ran) & _MASK64
            fut = when_all(fut, rput(val, targets[i]))
        yield from fut.wait_gen()


def _run_amo_promise(ctx, cfg, bases, per_rank, stream):
    """Remote atomics (bit_xor), promise-tracked per batch."""
    ad = AtomicDomain({"bit_xor"}, "u64")
    for start in range(0, len(stream), cfg.batch):
        chunk = stream[start : start + cfg.batch]
        p = Promise()
        for ran in chunk:
            _charge_update_work(ctx)
            dest = _target(bases, per_rank, ran)
            ad.bit_xor(dest, ran, operation_cx.as_promise(p))
        yield from p.finalize().wait_gen()


def _run_amo_future(ctx, cfg, bases, per_rank, stream):
    """Remote atomics (bit_xor), future-conjoined per batch."""
    ad = AtomicDomain({"bit_xor"}, "u64")
    for start in range(0, len(stream), cfg.batch):
        chunk = stream[start : start + cfg.batch]
        fut = make_future()
        for ran in chunk:
            _charge_update_work(ctx)
            dest = _target(bases, per_rank, ran)
            fut = when_all(fut, ad.bit_xor(dest, ran))
        yield from fut.wait_gen()


def _run_agg(ctx, cfg, bases, per_rank, stream):
    """One-sided fire-and-forget updates, destination-batched by the AM
    aggregation layer when ``flags.am_aggregation`` is on.

    Each update ships as a reply-less ``rpc_ff`` applying the xor at the
    owner (on-node owners still take the direct PSHM AM path).  With no
    acks there is no completion to wait on, so exactness comes from a
    termination protocol: after the first barrier every rank's buffered
    bundles have been flushed and every update is sitting in some inbox;
    draining the local inbox to quiescence and re-synchronizing therefore
    observes every update (handlers send no further AMs).
    """
    from repro.rpc import rpc_ff

    ts = bases[0].ts

    def apply_update(offset, ran):
        tctx = current_ctx()
        tctx.charge(_CPU_LOAD)
        tctx.charge(_CPU_STORE)
        seg = tctx.segment
        old = seg.read_scalar(offset, ts)
        seg.write_scalar(offset, ts, (int(old) ^ ran) & _MASK64)

    for ran in stream:
        _charge_update_work(ctx)
        dest = _target(bases, per_rank, ran)
        rpc_ff(dest.rank, apply_update, dest.offset, ran)
    # all updates injected (buffers flush on barrier progress)
    yield from barrier_gen()
    while ctx.progress():  # drain: handlers generate no new AMs
        pass
    # nobody reads its table part before everyone drained
    yield from barrier_gen()


def _run_cont(ctx, cfg, bases, per_rank, stream):
    """Continuation-tracked atomic updates (see the module docstring;
    requires ``FeatureFlags.cx_continuations``).

    Each batch issues atomic xors tracked by a continuation that ticks a
    shared done counter — no future or promise cell is allocated, and the
    completion never parks on the deferred queue: it dispatches at
    whichever agent first observes the ack.  The batch drain spins on the
    counter (yielding to the scheduler between polls so the other ranks
    stay live), then runs an idle polling segment: one progress call per
    unit of overlapped local work.  The result is exact: atomics never
    race within an update, and every batch ends fully drained.
    """
    from repro.runtime.switchpoints import BlockUntil

    ad = AtomicDomain({"bit_xor"}, "u64")
    done = [0]

    def on_done():
        done[0] += 1

    issued = 0
    for start in range(0, len(stream), cfg.batch):
        chunk = stream[start : start + cfg.batch]
        for ran in chunk:
            _charge_update_work(ctx)
            dest = _target(bases, per_rank, ran)
            ad.bit_xor(dest, ran, operation_cx.as_continuation(on_done))
            issued += 1
        while done[0] < issued:
            ctx.progress()
            if done[0] >= issued:
                break
            yield BlockUntil(
                lambda: done[0] >= issued or ctx.has_incoming()
            )
        # idle polling segment: the application overlaps local work
        # with polls that (post-drain) find nothing
        for _ in chunk:
            ctx.charge(_FUNCTION_CALL)
            ctx.progress()


_VARIANT_BODIES = {
    "raw": _run_raw,
    "manual": _run_manual,
    "rma_promise": _run_rma_promise,
    "rma_future": _run_rma_future,
    "amo_promise": _run_amo_promise,
    "amo_future": _run_amo_future,
    "agg": _run_agg,
    "cont": _run_cont,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_gups(
    cfg: GupsConfig,
    *,
    ranks: int = 16,
    version: Version = Version.V2021_3_6_EAGER,
    machine: str = "intel",
    conduit: str | None = None,
    n_nodes: int = 1,
    flags=None,
    noise: float = 0.0,
    noise_seed: int = 0,
) -> GupsResult:
    """Run one GUPS configuration and compute the virtual-time GUPS rate.

    The solve time is the maximum across ranks of the barrier-to-barrier
    update loop (all clocks synchronize at the closing barrier).
    ``n_nodes > 1`` spreads the ranks over several simulated nodes (the
    off-node regime the ``agg`` variant targets; pick a non-smp conduit).
    """
    n = 1 << cfg.table_log2
    seg_bytes = max(1 << 16, (n // ranks + cfg.batch + 64) * 8 * 2)
    if cfg.variant == "cont" and not (flags and flags.cx_continuations):
        # the cont variant is unusable without continuation completions;
        # enable the flag on top of whatever else the caller configured
        flags = (flags or flags_for(version)).replace(cx_continuations=True)
    res: SpmdResult = spmd_run(
        _gups_body,
        args=(cfg,),
        ranks=ranks,
        version=version,
        machine=machine,
        conduit=conduit,
        n_nodes=n_nodes,
        # the world seed only feeds timing jitter; the update streams are
        # derived from cfg.seed, so noisy samples share one workload
        seed=cfg.seed + 7919 * noise_seed,
        segment_bytes=seg_bytes,
        flags=flags,
        noise=noise,
    )
    agg = aggregation_stats(res.world)
    obs_snaps = tuple(observability_snapshots(res.world))
    obs = observability_stats(res.world) if obs_snaps else None
    solve_ns = max(v[0] for v in res.values)
    # xor commutes, so the race-free table's xor-reduction is the initial
    # table's xored with every update: no need to rebuild the table
    checksum = 0
    oracle = int(np.bitwise_xor.reduce(np.arange(n, dtype=np.uint64)))
    for _, x, _tbl, stream_xor in res.values:
        checksum ^= x
        oracle ^= stream_xor
    total = cfg.updates_per_rank * ranks
    return GupsResult(
        config=cfg,
        ranks=ranks,
        version=version,
        machine=machine,
        total_updates=total,
        solve_ns=solve_ns,
        gups=total / solve_ns if solve_ns else float("inf"),
        checksum=checksum,
        oracle_checksum=oracle,
        table=np.concatenate([v[2] for v in res.values]),
        am_injects=res.world.total_count(CostAction.AM_INJECT),
        am_bundles=res.world.total_count(CostAction.AM_BUNDLE_HEADER),
        am_agg_entries=res.world.total_count(CostAction.AM_AGG_APPEND),
        agg_mean_parked_ns=agg.mean_parked_ns,
        agg_stats=agg,
        obs_snapshots=obs_snaps,
        obs_stats=obs,
        progress_polls=res.world.total_count(CostAction.PROGRESS_POLL),
    )

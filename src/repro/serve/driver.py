"""The open-loop serving driver: ranks as DHT servers draining arrivals.

Every rank is a server for its slice of the table *and* the entry point
for its own arrival schedule (the classic symmetric-PGAS service shape:
clients are colocated with shards).  The loop is open: request ``i``
is admitted at ``max(now, t_arrival_i)`` — if the server is still busy
with earlier work the arrival queues, and the queueing delay counts
against the request's sojourn.  Under overload the backlog grows without
bound and tail latency diverges; the saturation sweep in
:mod:`repro.bench.servebench` walks offered rate to find that knee.

Latency phases per request (all in virtual ns):

* ``queue``   = ``t_admit - t_arrival`` — time spent waiting behind the
  server's backlog before it even looked at the request;
* ``service`` = ``t_complete - t_admit`` — the DHT operation itself
  (probe chain, remote round trips, notification waits);
* ``total``   = ``t_complete - t_arrival`` — the client-visible sojourn,
  judged against ``ServeConfig.slo_ns``.

Each phase feeds a :class:`~repro.obs.percentiles.PercentileSketch` per
key-popularity class (plus an ``all`` rollup) on the serving rank.  The
sketches are the *measurement* and are always on — they are plain Python
bookkeeping that never touches the cost model, so (like the rest of
:mod:`repro.obs`) they cannot perturb virtual time.  Full per-request
:class:`~repro.obs.request.RequestSpan` records, by contrast, are only
allocated when ``FeatureFlags.obs_spans`` is set: with observability off
the request path performs one ``ctx.obs is None`` check and allocates
nothing.

Rank snapshots merge world-wide through
:func:`repro.sim.stats.serve_snapshots` /
:func:`repro.sim.stats.serve_stats` (the shared
``gather_rank_snapshots`` walk).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import barrier_gen, current_ctx, rank_me, rank_n
from repro.apps.dht import DistributedHashMap
from repro.errors import UpcxxError
from repro.obs.percentiles import (
    DEFAULT_REL_ERR,
    PercentileSketch,
    PercentileSnapshot,
    merge_percentiles,
)
from repro.runtime.config import Version
from repro.runtime.runtime import spmd_run
from repro.runtime.switchpoints import YIELD_NOW, run_blocking
from repro.serve.workload import (
    ServeConfig,
    build_schedule,
    initial_value,
    key_for,
)
from repro.sim.clock import UNITS_PER_NS
from repro.sim.costmodel import CostAction

#: Latency phases recorded per request.
PHASES = ("total", "queue", "service")


def sketch_key(phase: str, kclass: str) -> str:
    """Canonical sketch-map key, e.g. ``"total/hot"``."""
    return f"{phase}/{kclass}"


@dataclass(frozen=True)
class ServeRankSnapshot:
    """One rank's immutable serving measurement (mergeable)."""

    rank: int
    #: Requests served (the rank's full schedule length).
    n: int
    #: Requests whose key was absent from the table (must be 0 — the
    #: workload only draws prepopulated keys; nonzero means a bug).
    missing: int
    #: Requests whose total sojourn exceeded ``ServeConfig.slo_ns``.
    slo_misses: int
    #: Requests by op name ("get" / "put" / "cas").
    by_op: dict
    #: ``phase/kclass`` -> sketch, for every phase and every class that
    #: received at least one request (plus the ``all`` rollups).
    sketches: dict


class ServeRankObs:
    """Mutable per-rank serving measurement state.

    Hangs off the rank context as ``ctx.serve_obs`` so the world-level
    gather (:func:`repro.sim.stats.serve_snapshots`) finds it after the
    run, exactly like the aggregation / progress / obs subsystems.
    """

    __slots__ = ("rank", "rel_err", "n", "missing", "slo_misses",
                 "by_op", "_sketches")

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

    def snapshot(self) -> ServeRankSnapshot:
        return ServeRankSnapshot(
            rank=self.rank,
            n=self.n,
            missing=self.missing,
            slo_misses=self.slo_misses,
            by_op=dict(self.by_op),
            sketches={k: s.snapshot() for k, s in self._sketches.items()},
        )


def merge_serve_snapshots(snaps) -> ServeRankSnapshot:
    """World-wide rollup of per-rank snapshots: counters sum, sketches
    merge per ``phase/kclass`` key (rank -1 marks the merge)."""
    snaps = list(snaps)
    if not snaps:
        raise ValueError("merge_serve_snapshots needs at least one snapshot")
    by_op: dict[str, int] = {}
    sketches: dict[str, list[PercentileSnapshot]] = {}
    for s in snaps:
        for op, c in s.by_op.items():
            by_op[op] = by_op.get(op, 0) + c
        for key, sk in s.sketches.items():
            sketches.setdefault(key, []).append(sk)
    return ServeRankSnapshot(
        rank=-1,
        n=sum(s.n for s in snaps),
        missing=sum(s.missing for s in snaps),
        slo_misses=sum(s.slo_misses for s in snaps),
        by_op=by_op,
        sketches={k: merge_percentiles(v) for k, v in sketches.items()},
    )


@dataclass
class ServeResult:
    """Outcome of one serving run (world-wide view)."""

    config: ServeConfig
    ranks: int
    version: Version
    machine: str
    #: Serving-phase makespan: max over ranks of (last completion -
    #: serving epoch), virtual ns.
    solve_ns: float
    offered_rate_rps: float
    requests: int
    missing: int
    slo_misses: int
    by_op: dict
    #: Merged ``phase/kclass`` -> :class:`PercentileSnapshot`.
    sketches: dict
    #: Per-rank snapshots (for merge tests and per-shard analysis).
    per_rank: tuple
    #: World obs rollup when ``obs_spans`` was on, else ``None``.
    obs: Optional[object] = None

    @property
    def correct(self) -> bool:
        return self.missing == 0

    @property
    def achieved_rate_rps(self) -> float:
        """Completed requests per virtual second of serving makespan."""
        if self.solve_ns <= 0:
            return 0.0
        return self.requests * 1e9 / self.solve_ns

    def percentiles(
        self, phase: str = "total", kclass: str = "all"
    ) -> dict[str, float]:
        """``{"p50": .., "p99": .., "p999": ..}`` for one phase/class."""
        sk = self.sketches.get(sketch_key(phase, kclass))
        if sk is None:
            return {"p50": 0.0, "p99": 0.0, "p999": 0.0}
        return sk.percentiles()

    def mean_ns(self, phase: str = "total", kclass: str = "all") -> float:
        sk = self.sketches.get(sketch_key(phase, kclass))
        return sk.mean if sk is not None else 0.0


def _serve_body_gen(cfg: ServeConfig):
    """The SPMD serving body as a generator continuation, like
    :func:`repro.apps.dht._dht_body_gen`."""
    ctx = current_ctx()
    me = rank_me()
    p = rank_n()
    table = DistributedHashMap(cfg.log2_slots)
    yield from barrier_gen()
    table.attach()
    # Prepopulate the key universe round-robin so every request hits.
    for i in range(me, cfg.key_space, p):
        yield from table.insert_gen(key_for(cfg, i), initial_value(i))
    yield from barrier_gen()

    schedule = build_schedule(cfg, me, p)
    sobs = ServeRankObs(me)
    ctx.serve_obs = sobs
    obs = ctx.obs
    clock = ctx.clock
    clock.mark("serve")
    epoch = clock.now_ns

    for req in schedule:
        # Quantize the arrival to the clock grid so "reached the arrival"
        # is an exact comparison (advance_to rounds to the grid and can
        # otherwise land a float-epsilon short of the target forever).
        t_arrival = (
            round((epoch + req.offset_ns) * UNITS_PER_NS) / UNITS_PER_NS
        )
        # Open-loop admission: idle until the arrival, or pick it up
        # immediately (late) if the backlog pushed `now` past it.  An
        # idle server is a *polling* server: advance in idle_poll_ns
        # slices, servicing incoming AMs between slices, so remote
        # requests for this rank's shard are not stranded until its own
        # next arrival.
        while True:
            if ctx.has_incoming():
                ctx.progress()
            before = clock.now_ns
            if before >= t_arrival:
                break
            now = clock.advance_to(min(t_arrival, before + cfg.idle_poll_ns))
            if now == before:
                break  # quantum under grid resolution; arrival handles it
            yield YIELD_NOW
        t_admit = clock.advance_to(t_arrival)
        span = None
        sid0 = 0
        if obs is not None:
            span = obs.begin_request(
                req.op,
                req.key,
                req.kclass,
                t_arrival,
                slo_deadline_ns=t_arrival + cfg.slo_ns,
            )
            span.t_admit = t_admit
            sid0 = obs.spans.next_sid
        ctx.charge(CostAction.FUNCTION_CALL, 2)  # parse + dispatch
        if span is not None:
            span.t_issue = clock.now_ns
        if req.op == "get":
            got = yield from table.find_gen(req.key)
            hit = got is not None
        elif req.op == "put":
            yield from table.insert_gen(req.key, req.value)
            hit = True
        else:  # cas: read-modify-write on the current value word
            observed = yield from table.cas_gen(
                req.key, req.value, req.value + 1
            )
            hit = observed is not None
        t_complete = clock.now_ns
        total_ns = t_complete - t_arrival
        slo_missed = total_ns > cfg.slo_ns
        if span is not None:
            span.t_complete = t_complete
            span.op_sids = tuple(range(sid0, obs.spans.next_sid))
        sobs.record(
            req.op,
            req.kclass,
            max(0.0, t_admit - t_arrival),
            t_complete - t_admit,
            total_ns,
            slo_missed=slo_missed,
            hit=hit,
        )
    # Drain: keep servicing remote traffic until every rank is done.
    yield from barrier_gen()
    solve_ns = clock.elapsed_since("serve")
    return solve_ns, sobs.n, sobs.missing


def _serve_body(cfg: ServeConfig):
    """Blocking form (rides the thread shim) — the reference the
    continuation is compared against."""
    return run_blocking(current_ctx(), _serve_body_gen(cfg))


def run_serve(
    cfg: ServeConfig,
    *,
    ranks: int = 8,
    version: Version = Version.V2021_3_6_EAGER,
    machine: str = "intel",
    conduit: Optional[str] = None,
    n_nodes: int = 1,
    flags=None,
) -> ServeResult:
    """Run one open-loop serving experiment and roll it up world-wide."""
    if cfg.key_space * 2 > (1 << cfg.log2_slots):
        raise UpcxxError(
            "table too small: keep load factor <= 0.5 "
            f"({cfg.key_space} keys, {1 << cfg.log2_slots} slots)"
        )
    seg = max(1 << 17, (1 << cfg.log2_slots) // ranks * 16 * 4)
    res = spmd_run(
        _serve_body_gen,
        args=(cfg,),
        ranks=ranks,
        version=version,
        machine=machine,
        conduit=conduit,
        n_nodes=n_nodes,
        seed=cfg.seed,
        segment_bytes=seg,
        flags=flags,
    )
    from repro.sim.stats import observability_stats, serve_snapshots

    snaps = serve_snapshots(res.world)
    merged = merge_serve_snapshots(snaps)
    solve_ns = max(v[0] for v in res.values)
    return ServeResult(
        config=cfg,
        ranks=ranks,
        version=version,
        machine=machine,
        solve_ns=solve_ns,
        offered_rate_rps=cfg.offered_rate_rps,
        requests=merged.n,
        missing=merged.missing,
        slo_misses=merged.slo_misses,
        by_op=merged.by_op,
        sketches=merged.sketches,
        per_rank=tuple(snaps),
        obs=observability_stats(res.world),
    )

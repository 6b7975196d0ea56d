"""Workload table for the repo benchmark.

Each workload is one fixed simulator job on the Intel profile, run on the
event-loop scheduler with generator rank bodies.  The benchmark's seed
picks the inputs (the GUPS update streams, the serve arrival schedule and
key draws); the shape (ranks, sizes, build, conduit) is fixed here.

A run returns an :class:`Outcome`: the virtual-time results (exact:
deterministic for a seed), a fingerprint that must repeat bit for bit
between repetitions and between traced and untraced runs, and whether the
outputs passed verification.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from dataclasses import dataclass, field
from typing import Callable

#: virtual-time metrics reported for every workload: (name, unit, better).
#: They are exact for a seed; ``compare.py`` gates them at 1e-9 relative.
VIRTUAL_METRICS = (
    ("virt_ops_per_s", "1/s", "higher"),
    ("virt_p50_ns", "ns", "lower"),
    ("virt_p99_ns", "ns", "lower"),
    ("virt_max_rate_rps", "1/s", "higher"),
    ("failed_frac", "frac", "lower"),
    ("slo_miss_frac", "frac", "lower"),
)

#: HPCC RandomAccess accepts a run whose table differs from the race-free
#: oracle in at most 1% of its entries (unsynchronized RMA updates race).
HPCC_TOLERANCE = 0.01

#: offered rates (requests per virtual second) searched for the highest
#: one whose p99 meets the serve workload's SLO
SERVE_RATE_LADDER = (5e5, 7.5e5, 1e6, 1.25e6, 1.5e6, 2e6)

_GUPS_RANKS = 16
_SERVE_RANKS = 8
_SERVE_REQUESTS_PER_RANK = 1280


@dataclass
class Outcome:
    """What one run of a workload produced."""

    #: outputs passed verification
    ok: bool
    #: why verification failed (empty when ``ok``)
    problem: str
    #: exact virtual-time results, keyed by ``VIRTUAL_METRICS`` names
    #: (a name a workload does not define is absent)
    virtual: dict
    #: values that must repeat bit for bit across reps and tracing
    fingerprint: tuple
    #: extra exact per-layer values (virtual), e.g. the serve queue p99
    layer_virtual: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: layer billed for rank-body resumes in the traced run
    body_layer: str
    ranks: int
    #: operations per rank in the measured run
    ops_per_rank: int
    #: ``execute(seed, ops_per_rank)`` runs the program and returns its
    #: result; this is the timed part
    execute: Callable
    #: ``verify(result, seed, ops_per_rank) -> Outcome`` checks it
    verify: Callable

    def run(self, seed: int, ops_per_rank: int) -> Outcome:
        return self.verify(self.execute(seed, ops_per_rank), seed,
                           ops_per_rank)


def _flags(version, **overrides):
    """The version's flags on the event-loop scheduler (while the flag that
    selects it still exists) plus ``overrides``."""
    from repro.runtime.config import flags_for

    flags = flags_for(version)
    if "sched_event_loop" in {f.name for f in dataclasses.fields(flags)}:
        overrides = {"sched_event_loop": True, **overrides}
    return flags.replace(**overrides)


def _gups_config(variant: str, seed: int, ops_per_rank: int):
    from repro.apps.gups import GupsConfig

    return GupsConfig(variant, table_log2=14, updates_per_rank=ops_per_rank,
                      batch=32, seed=seed)


def _gups(variant, version_name, *, n_nodes=1, conduit=None,
          aggregation=False):
    def execute(seed: int, ops_per_rank: int):
        from repro.apps.gups import run_gups
        from repro.runtime.config import Version

        version = Version(version_name)
        return run_gups(_gups_config(variant, seed, ops_per_rank),
                        ranks=_GUPS_RANKS, version=version, machine="intel",
                        conduit=conduit, n_nodes=n_nodes,
                        flags=_flags(version, am_aggregation=aggregation))

    return execute


@functools.lru_cache(maxsize=4)
def _oracle(variant: str, seed: int, ops_per_rank: int):
    from repro.apps.gups import oracle_table

    return oracle_table(_gups_config(variant, seed, ops_per_rank),
                        _GUPS_RANKS)


def _verify_gups(exact: bool):
    """HPCC verification against the race-free table: at most
    :data:`HPCC_TOLERANCE` of entries may differ, none when ``exact``."""
    def verify(res, seed: int, ops_per_rank: int) -> Outcome:
        import numpy as np

        oracle = _oracle(res.config.variant, seed, ops_per_rank)
        error = float(np.count_nonzero(res.table != oracle)) / len(oracle)
        limit = 0.0 if exact else HPCC_TOLERANCE
        problem = "" if error <= limit else (
            f"HPCC error fraction {error} exceeds {limit}")
        digest = hashlib.sha1(res.table.tobytes()).hexdigest()
        return Outcome(
            ok=not problem,
            problem=problem,
            virtual={
                "virt_ops_per_s": res.total_updates * 1e9 / res.solve_ns,
                "failed_frac": error,
            },
            fingerprint=(res.solve_ns, res.checksum, digest),
        )

    return verify


def _serve_config(seed: int, requests_per_rank: int, rate: float = 5e5):
    from repro.serve.workload import ServeConfig

    return ServeConfig(log2_slots=12, key_space=128,
                       requests_per_rank=requests_per_rank,
                       offered_rate_rps=rate, zipf_s=1.1, get_frac=0.6,
                       put_frac=0.25, slo_ns=150_000.0, seed=seed)


def _execute_serve(seed: int, requests_per_rank: int, rate: float = 5e5):
    from repro.runtime.config import Version
    from repro.serve.driver import run_serve

    version = Version.V2021_3_6_EAGER
    return run_serve(_serve_config(seed, requests_per_rank, rate),
                     ranks=_SERVE_RANKS, version=version, machine="intel",
                     conduit="ibv", n_nodes=2, flags=_flags(version))


def _verify_serve(res, seed: int, requests_per_rank: int) -> Outcome:
    expected = _SERVE_RANKS * requests_per_rank
    total = res.percentiles("total")
    queue = res.percentiles("queue")
    problem = ""
    if res.requests != expected:
        problem = f"served {res.requests} of {expected} requests"
    elif res.missing:
        problem = f"{res.missing} requests found no value for their key"
    return Outcome(
        ok=not problem,
        problem=problem,
        virtual={
            "virt_ops_per_s": res.achieved_rate_rps,
            "virt_p50_ns": total["p50"],
            "virt_p99_ns": total["p99"],
            "failed_frac": (expected - res.requests + res.missing) / expected,
            "slo_miss_frac": res.slo_misses / expected,
        },
        fingerprint=(res.solve_ns, res.requests, res.missing, res.slo_misses,
                     tuple(sorted(res.by_op.items())),
                     total["p50"], total["p99"], queue["p99"]),
        layer_virtual={"serve.queue_p99_ns": queue["p99"]},
    )


def serve_max_rate(seed: int,
                   requests_per_rank: int = _SERVE_REQUESTS_PER_RANK) -> float:
    """The highest rate on :data:`SERVE_RATE_LADDER` whose total-latency
    p99 meets the SLO, at the serve workload's shape (0.0 if none does)."""
    best = 0.0
    for rate in SERVE_RATE_LADDER:
        res = _execute_serve(seed, requests_per_rank, rate)
        if res.percentiles("total")["p99"] <= res.config.slo_ns:
            best = rate
    return best


WORKLOADS = {w.name: w for w in (
    Workload(
        name="gups_defer_future",
        why="paper's worst case: per-op cells, deferred queue and when_all "
            "graph make core and progress do the work; smp bypasses gasnet",
        body_layer="apps",
        ranks=_GUPS_RANKS,
        ops_per_rank=1024,
        execute=_gups("rma_future", "2021.3.6-defer"),
        verify=_verify_gups(exact=False),
    ),
    Workload(
        name="gups_eager_promise",
        why="same RMA data path with eager notification: idle progress "
            "queue, no when_all graph; the sim charge path plus rma/memory "
            "dominate",
        body_layer="apps",
        ranks=_GUPS_RANKS,
        ops_per_rank=2048,
        execute=_gups("rma_promise", "2021.3.6-eager"),
        verify=_verify_gups(exact=False),
    ),
    Workload(
        name="gups_offnode_agg",
        why="fire-and-forget rpc_ff over ibv with AM aggregation on 2 "
            "nodes: gasnet and rpc work while core and progress idle",
        body_layer="apps",
        ranks=_GUPS_RANKS,
        ops_per_rank=4096,
        execute=_gups("agg", "2021.3.6-eager", n_nodes=2, conduit="ibv",
                      aggregation=True),
        verify=_verify_gups(exact=True),
    ),
    Workload(
        name="serve_zipf_mixed",
        why="open-loop Zipf get/put/CAS serving on 2 nodes: the only "
            "workload with real scheduler, serve and atomics work and tail "
            "latency",
        body_layer="serve",
        ranks=_SERVE_RANKS,
        ops_per_rank=_SERVE_REQUESTS_PER_RANK,
        execute=_execute_serve,
        verify=_verify_serve,
    ),
)}

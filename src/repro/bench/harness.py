"""Experiment runners for every figure in the paper.

The microbenchmark protocol follows §IV-A: a tight loop of ``initiate;
wait`` on a single 64-bit operation, total virtual time divided by the
iteration count, sampled per the paper's 20-samples/top-10 rule (our
virtual clock is deterministic, so samples differ only through the seed —
the protocol is kept for methodological fidelity).

Five operations cover Figures 2–4's bars:

* ``put`` — scalar ``rput`` (value-less);
* ``get`` — scalar ``rget`` (value-producing);
* ``get_nv`` — ``rget_into`` a local buffer (non-value);
* ``fadd`` — ``atomic fetch_add`` (value-producing);
* ``fadd_nv`` — ``fetch_add_into`` (non-value; **2021.3.6 only** — the
  paper notes there is no 2021.3.0 measurement because the operation did
  not exist).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.graphs import Graph, locality_fractions, make_graph
from repro.apps.gups import GupsConfig, GupsResult, run_gups
from repro.apps.matching import MatchingConfig, MatchingResult, run_matching
from repro.atomics import AtomicDomain
from repro.core.completions import operation_cx
from repro.memory.global_ptr import GlobalPtr
from repro.rma import rget, rget_into, rput
from repro.runtime.config import Version, flags_for
from repro.runtime.context import current_ctx
from repro.runtime.runtime import spmd_run
from repro.runtime.switchpoints import YIELD_NOW
from repro.sim.stats import run_samples

MICRO_OPS = ("put", "get", "get_nv", "fadd", "fadd_nv")

ALL_VERSIONS = (
    Version.V2021_3_0,
    Version.V2021_3_6_DEFER,
    Version.V2021_3_6_EAGER,
)


@dataclass
class MicroResult:
    """Average virtual nanoseconds per operation for one grid cell."""

    op: str
    version: Version
    machine: str
    ns_per_op: float
    n_ops: int


def _micro_body(op: str, n_ops: int):
    """SPMD body: rank 0 times ``n_ops`` against rank 1's memory (on-node
    shared-memory bypass, as in the paper's single-node runs)."""
    from repro import barrier_gen, new_, rank_me

    target = new_("u64", 0)
    scratch = new_("u64", 0)
    ctx = current_ctx()
    yield from barrier_gen()
    if rank_me() != 0:
        yield from barrier_gen()
        return 0.0
    remote = GlobalPtr(1, target.offset, target.ts)
    ad = AtomicDomain({"fetch_add"}, "u64") if op.startswith("fadd") else None
    ctx.clock.mark("loop")
    if op == "put":
        for _ in range(n_ops):
            yield from rput(0, remote, operation_cx.as_future()).wait_gen()
    elif op == "get":
        for _ in range(n_ops):
            yield from rget(remote, operation_cx.as_future()).wait_gen()
    elif op == "get_nv":
        for _ in range(n_ops):
            yield from rget_into(
                remote, scratch, 1, operation_cx.as_future()
            ).wait_gen()
    elif op == "fadd":
        for _ in range(n_ops):
            yield from ad.fetch_add(
                remote, 1, operation_cx.as_future()
            ).wait_gen()
    elif op == "fadd_nv":
        for _ in range(n_ops):
            yield from ad.fetch_add_into(
                remote, 1, scratch, operation_cx.as_future()
            ).wait_gen()
    else:
        raise ValueError(f"unknown micro op {op!r}")
    elapsed = ctx.clock.elapsed_since("loop")
    yield from barrier_gen()
    return elapsed


def run_micro(
    op: str,
    version: Version,
    machine: str,
    *,
    n_ops: int = 200,
    n_samples: int = 3,
    flags=None,
    noise: float = 0.0,
) -> Optional[MicroResult]:
    """One microbenchmark cell; None when the op doesn't exist on the
    build (``fadd_nv`` on 2021.3.0, as in the paper's figures).

    With ``noise`` > 0 each sample's virtual timings jitter (seeded by
    the sample index) and the paper's top-10-of-N estimator earns its
    keep; the default is deterministic."""
    if op == "fadd_nv" and version is Version.V2021_3_0:
        return None

    def sample(i: int) -> float:
        res = spmd_run(
            _micro_body,
            args=(op, n_ops),
            ranks=2,
            version=version,
            machine=machine,
            seed=i,
            flags=flags,
            noise=noise,
        )
        return res.values[0] / n_ops

    stats = run_samples(sample, n_samples=n_samples, top=10)
    return MicroResult(
        op=op,
        version=version,
        machine=machine,
        ns_per_op=stats.value,
        n_ops=n_ops,
    )


def micro_grid(
    machine: str,
    *,
    ops=MICRO_OPS,
    versions=ALL_VERSIONS,
    n_ops: int = 200,
    n_samples: int = 3,
) -> dict[tuple[str, Version], Optional[MicroResult]]:
    """The full figure grid for one machine (Figs 2/3/4)."""
    return {
        (op, v): run_micro(
            op, v, machine, n_ops=n_ops, n_samples=n_samples
        )
        for op in ops
        for v in versions
    }


# ---------------------------------------------------------------------------
# GUPS grids (Figures 5–7)
# ---------------------------------------------------------------------------


def gups_grid(
    machine: str,
    *,
    ranks: int = 16,
    variants=None,
    versions=ALL_VERSIONS,
    table_log2: int = 12,
    updates_per_rank: int = 192,
    batch: int = 32,
    seed: int = 1,
) -> dict[tuple[str, Version], GupsResult]:
    """The paper's GUPS variants × versions on one machine (pass
    ``variants`` explicitly to include the beyond-paper ``agg`` one)."""
    from repro.apps.gups import PAPER_GUPS_VARIANTS

    if variants is None:
        variants = PAPER_GUPS_VARIANTS
    out = {}
    for variant in variants:
        cfg = GupsConfig(
            variant=variant,
            table_log2=table_log2,
            updates_per_rank=updates_per_rank,
            batch=batch,
            seed=seed,
        )
        for v in versions:
            out[(variant, v)] = run_gups(
                cfg, ranks=ranks, version=v, machine=machine
            )
    return out


# ---------------------------------------------------------------------------
# traced runs (observability spans on)
# ---------------------------------------------------------------------------


def traced_flags(version: Version, **overrides):
    """The build's feature set with operation-lifecycle spans enabled
    (``FeatureFlags.obs_spans``); extra overrides pass through."""
    return flags_for(version).replace(obs_spans=True, **overrides)


def traced_gups(
    cfg: Optional[GupsConfig] = None,
    *,
    ranks: int = 4,
    version: Version = Version.V2021_3_6_EAGER,
    machine: str = "intel",
    conduit: Optional[str] = None,
    n_nodes: int = 1,
    flags=None,
    trace_path=None,
) -> GupsResult:
    """One GUPS run with observability spans on.

    The returned :class:`~repro.apps.gups.GupsResult` carries per-rank
    span snapshots (``obs_snapshots``) and the world-wide rollup
    (``obs_stats``).  When ``trace_path`` is given, a Chrome/Perfetto
    trace-event JSON is written there — load it in ``ui.perfetto.dev``
    or ``chrome://tracing``.
    """
    if cfg is None:
        cfg = GupsConfig()
    base = flags if flags is not None else flags_for(version)
    res = run_gups(
        cfg,
        ranks=ranks,
        version=version,
        machine=machine,
        conduit=conduit,
        n_nodes=n_nodes,
        flags=base.replace(obs_spans=True),
    )
    if trace_path is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(trace_path, res.obs_snapshots)
    return res


def traced_micro(
    op: str,
    version: Version,
    machine: str,
    *,
    n_ops: int = 200,
    flags=None,
):
    """One traced microbenchmark sample.

    Returns ``(ns_per_op, obs_snapshots, obs_stats)`` — the same timing
    the figure grids measure, plus the span record behind it (which ops
    had a notification gap, and how wide).
    """
    from repro.sim.stats import observability_snapshots, observability_stats

    base = flags if flags is not None else flags_for(version)
    res = spmd_run(
        _micro_body,
        args=(op, n_ops),
        ranks=2,
        version=version,
        machine=machine,
        flags=base.replace(obs_spans=True),
    )
    snaps = observability_snapshots(res.world)
    return res.values[0] / n_ops, snaps, observability_stats(res.world)


# ---------------------------------------------------------------------------
# Graph matching grid (Figure 8)
# ---------------------------------------------------------------------------


def matching_grid(
    machine: str = "intel",
    *,
    ranks: int = 16,
    graphs=None,
    versions=ALL_VERSIONS,
    scale: int = 4,
    seed: int = 0,
) -> dict[tuple[str, Version], MatchingResult]:
    """All matching inputs × versions (paper: Intel, 16 processes, MPI
    conduit)."""
    from repro.apps.graphs import GRAPH_NAMES

    if graphs is None:
        graphs = GRAPH_NAMES
    out = {}
    for name in graphs:
        cfg = MatchingConfig(graph=name, scale=scale, seed=seed)
        g = cfg.build_graph()
        for v in versions:
            out[(name, v)] = run_matching(
                cfg, ranks=ranks, version=v, machine=machine, graph=g
            )
    return out


def graph_localities(
    ranks: int = 16, scale: int = 4, seed: int = 0
) -> dict[str, dict]:
    """Edge-locality fractions for every input (explains Figure 8's
    ordering)."""
    from repro.apps.graphs import GRAPH_NAMES

    out = {}
    for name in GRAPH_NAMES:
        g = make_graph(name, scale=scale, seed=seed)
        out[name] = locality_fractions(g, ranks)
    return out


# ---------------------------------------------------------------------------
# off-node check (§IV-A, the "omitted due to space" two-node study)
# ---------------------------------------------------------------------------


def _offnode_body(op: str, n_ops: int, done: list):
    """SPMD body: rank 0 times ``n_ops`` ops against rank 1 on the other
    node; rank 1 serves them until rank 0 sets ``done[0]``."""
    from repro import barrier_gen, new_, progress, rank_me

    target = new_("u64", 0)
    ctx = current_ctx()
    yield from barrier_gen()
    if rank_me() != 0:
        # the target node must keep making progress to service AMs
        while not done[0]:
            progress()
            yield YIELD_NOW
        yield from barrier_gen()
        return 0.0
    remote = GlobalPtr(1, target.offset, target.ts)
    ctx.clock.mark("loop")
    if op == "put":
        for _ in range(n_ops):
            yield from rput(0, remote).wait_gen()
    else:
        for _ in range(n_ops):
            yield from rget(remote).wait_gen()
    elapsed = ctx.clock.elapsed_since("loop")
    done[0] = True
    yield from barrier_gen()
    return elapsed


def offnode_grid(
    machine: str = "intel",
    *,
    ops=("put", "get"),
    versions=(Version.V2021_3_6_DEFER, Version.V2021_3_6_EAGER),
    n_ops: int = 50,
) -> dict[tuple[str, Version], float]:
    """Two-node off-node RMA latency, eager-capable vs deferred build.

    Validates the paper's claim that deploying eager completion costs the
    off-node path exactly one extra branch (statistically invisible).
    Returns ns/op per cell.
    """
    out = {}
    for op in ops:
        for v in versions:
            res = spmd_run(
                _offnode_body,
                args=(op, n_ops, [False]),
                ranks=2,
                n_nodes=2,
                version=v,
                machine=machine,
                conduit="ibv" if machine == "intel" else "udp",
            )
            out[(op, v)] = res.values[0] / n_ops
    return out

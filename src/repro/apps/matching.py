"""Half-approximate maximum-weight graph matching over RMA (paper §IV-C).

Implements the locally-dominant matching algorithm (Manne/Bisseling, the
algorithm underlying the ExaGraph application of Ghosh et al.): every
vertex points at its heaviest still-eligible neighbour; an edge whose
endpoints point at each other is *locally dominant* and joins the
matching; vertices that lose their candidate recompute and re-point.
With distinct edge weights the result is unique and identical to the
greedy (sort-by-weight) matching, and its weight is ≥ ½ of the optimum.

**Distribution.**  Vertices are block-partitioned; each rank owns the
state of its vertices.  Exactly like the UPC++ application the paper
measured, the implementation

* handles same-process updates directly (the app "manually optimizes for
  target memory locations on the same process"), but
* uses UPC++ RMA for *co-located* and remote processes alike: a cross-rank
  message claims a slot in the target's mailbox with an atomic
  ``fetch_add`` (future-synchronized) and writes the packed message with an
  ``rput`` registered on a per-round promise.

On a single node every cross-rank message is an on-node RMA+AMO pair, so
eager notification shaves per-message overhead; the overall solve speedup
is bounded by the fraction of cross-rank traffic — the graph-dependent
effect of Figure 8.

**Synchronization.**  The solve proceeds in barrier-separated rounds; a
round's sent-message count is accumulated on rank 0 with a value-less
atomic ``add`` and read back with ``rget``; the algorithm terminates when
a round sends no cross-rank messages (local work is driven to fixpoint
within the round).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import (
    AtomicDomain,
    Promise,
    barrier_gen,
    current_ctx,
    new_,
    new_array,
    operation_cx,
    rank_me,
    rank_n,
    rget,
    rput,
)
from repro.apps.graphs import Graph, make_graph, owner_of
from repro.errors import UpcxxError
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.config import Version
from repro.runtime.runtime import spmd_run
from repro.runtime.switchpoints import run_blocking
from repro.sim.costmodel import CostAction

_PROPOSE = 1
_MATCHED = 2
_MAX_ROUNDS = 10_000
_VBITS = 30
_VMASK = (1 << _VBITS) - 1


def pack_msg(kind: int, a: int, b: int) -> int:
    """Pack a message into one 64-bit mailbox word."""
    if a > _VMASK or b > _VMASK:
        raise ValueError("vertex id exceeds 30-bit message field")
    return (kind << (2 * _VBITS)) | (a << _VBITS) | b


def unpack_msg(word: int) -> tuple[int, int, int]:
    return word >> (2 * _VBITS), (word >> _VBITS) & _VMASK, word & _VMASK


@dataclass(frozen=True)
class MatchingConfig:
    """Parameters of one matching run."""

    graph: str = "random"
    scale: int = 4
    seed: int = 0
    mailbox_slack: int = 4096

    def build_graph(self) -> Graph:
        return make_graph(self.graph, scale=self.scale, seed=self.seed)


@dataclass
class MatchingResult:
    """Outcome of one distributed matching run."""

    config: MatchingConfig
    ranks: int
    version: Version
    machine: str
    n: int
    n_edges: int
    mate: list[int]  # -1 = unmatched
    weight: float
    solve_ns: float
    rounds: int
    cross_messages: int

    def matched_pairs(self) -> list[tuple[int, int]]:
        return [(v, m) for v, m in enumerate(self.mate) if 0 <= v < m]


def serial_matching(g: Graph) -> list[int]:
    """The sequential locally-dominant matching (== greedy by weight when
    weights are distinct); the distributed solve must reproduce it."""
    order = sorted(
        ((w, u, v) for u, v, w in g.edges()), reverse=True
    )
    mate = [-1] * g.n
    for _, u, v in order:
        if mate[u] < 0 and mate[v] < 0:
            mate[u] = v
            mate[v] = u
    return mate


def matching_weight(g: Graph, mate: list[int]) -> float:
    total = 0.0
    for u, m in enumerate(mate):
        if m > u:
            w = next(w for x, w in g.adj[u] if x == m)
            total += w
    return total


class _RankSolver:
    """Per-rank solver state and round logic (runs inside spmd_run)."""

    def __init__(self, g: Graph, cfg: MatchingConfig):
        self.g = g
        self.cfg = cfg
        self.ctx = current_ctx()
        self.me = rank_me()
        self.p = rank_n()
        per = -(-g.n // self.p)
        self.vlo = min(self.me * per, g.n)
        self.vhi = min(self.vlo + per, g.n)
        self.mate = {v: -1 for v in range(self.vlo, self.vhi)}
        self.cand: dict[int, int] = {}
        self.proposals: dict[int, set[int]] = {}
        self.known_dead: set[int] = set()
        self.local_queue: list[int] = []  # packed same-process messages
        self.cross_sent = 0
        self.ad = AtomicDomain({"add", "fetch_add"}, "u64")
        # mailbox capacity: worst case ~ a few messages per incident edge.
        # Uniform across ranks (global max) so that every rank's shared-heap
        # layout is identical and pointers can be exchanged by offset.
        incident_max = 0
        for r in range(self.p):
            lo, hi = min(r * per, g.n), min(r * per + per, g.n)
            incident_max = max(
                incident_max, sum(len(g.adj[v]) for v in range(lo, hi))
            )
        cap = 4 * incident_max + cfg.mailbox_slack
        self.inbox = new_array("u64", cap)
        self.cap = cap
        self.cursor = new_("u64", 0)
        self.counters = new_array("u64", 512)
        # lock-step allocation ⇒ identical offsets on every rank
        self.inbox_of = [
            GlobalPtr(r, self.inbox.offset, self.inbox.ts)
            for r in range(self.p)
        ]
        self.cursor_of = [
            GlobalPtr(r, self.cursor.offset, self.cursor.ts)
            for r in range(self.p)
        ]
        self.counter0 = GlobalPtr(0, self.counters.offset, self.counters.ts)
        self.round_promise = Promise()

    # -- helpers ------------------------------------------------------------

    def owner(self, v: int) -> int:
        return owner_of(v, self.g.n, self.p)

    def is_dead(self, v: int) -> bool:
        if self.vlo <= v < self.vhi:
            return self.mate[v] >= 0
        return v in self.known_dead

    def send_gen(self, dst_rank: int, word: int):
        """Deliver a message: direct for same-process (the app's manual
        optimization), RMA mailbox for co-located/remote processes.

        A generator (the slot claim blocks on a future) — every caller in
        the solve chain is itself a generator, so the event loop resumes
        the whole stack in place via ``yield from``.
        """
        if dst_rank == self.me:
            self.ctx.charge(CostAction.CPU_STORE)
            self.local_queue.append(word)
            return
        slot = yield from self.ad.fetch_add(
            self.cursor_of[dst_rank], 1
        ).wait_gen()
        if slot >= self.cap:
            raise UpcxxError("matching mailbox overflow; raise mailbox_slack")
        rput(
            word,
            self.inbox_of[dst_rank] + int(slot),
            operation_cx.as_promise(self.round_promise),
        )
        self.cross_sent += 1

    # -- algorithm steps -------------------------------------------------------

    def recompute_candidate_gen(self, v: int):
        """Point ``v`` at its heaviest eligible neighbour and propose."""
        best, best_w = -1, -1.0
        for u, w in self.g.adj[v]:
            # neighbour-state lookup: a random access into big state arrays
            self.ctx.charge(CostAction.FUNCTION_CALL)
            self.ctx.charge(CostAction.DRAM_RANDOM_ACCESS)
            if self.is_dead(u):
                continue
            if w > best_w or (w == best_w and u > best):
                best, best_w = u, w
        self.cand[v] = best
        if best < 0:
            return  # retired unmatched: every neighbour is taken
        # The proposal is sent unconditionally — even when the mutual match
        # is already visible here — because the partner's owner must also
        # observe both sides to record its half of the match.
        yield from self.send_gen(self.owner(best), pack_msg(_PROPOSE, v, best))
        if best in self.proposals.get(v, ()):  # mutual: locally dominant
            yield from self.declare_match_gen(v, best)

    def declare_match_gen(self, v: int, u: int):
        """Record ``v``–``u`` as matched (v owned here) and notify v's
        neighbourhood so pointers at v are recomputed.  If u is also owned
        here the partner side is recorded directly; otherwise u's owner
        detects the same mutual proposal independently (both PROPOSE
        messages were sent unconditionally) and records its side."""
        if self.mate[v] >= 0:
            return
        self.mate[v] = u
        yield from self._broadcast_matched_gen(v, u)
        if self.vlo <= u < self.vhi:
            if self.mate[u] < 0:
                self.mate[u] = v
                yield from self._broadcast_matched_gen(u, v)
        else:
            self.known_dead.add(u)

    def _broadcast_matched_gen(self, v: int, partner: int):
        for x, _ in self.g.adj[v]:
            self.ctx.charge(CostAction.CPU_LOAD)
            if x == partner:
                continue
            yield from self.send_gen(self.owner(x), pack_msg(_MATCHED, v, x))

    def handle_gen(self, word: int):
        kind, a, b = unpack_msg(word)
        self.ctx.charge(CostAction.FUNCTION_CALL)
        if kind == _PROPOSE:
            # a (remote or local) proposes to owned vertex b
            v = b
            if not (self.vlo <= v < self.vhi):
                raise UpcxxError("misrouted PROPOSE message")
            if self.mate[v] >= 0:
                return  # stale: v already matched, a will learn via MATCHED
            self.proposals.setdefault(v, set()).add(a)
            if self.cand.get(v, -2) == a:
                yield from self.declare_match_gen(v, a)
        elif kind == _MATCHED:
            # vertex a has been matched; owned neighbour b may need to
            # re-point
            self.known_dead.add(a)
            v = b
            if not (self.vlo <= v < self.vhi):
                raise UpcxxError("misrouted MATCHED message")
            if self.mate[v] < 0 and self.cand.get(v, -2) == a:
                yield from self.recompute_candidate_gen(v)
        else:
            raise UpcxxError(f"corrupt mailbox word {word:#x}")

    def drain_local_gen(self):
        """Process same-process messages to fixpoint within the round."""
        while self.local_queue:
            yield from self.handle_gen(self.local_queue.pop())

    def drain_inbox(self) -> list[int]:
        """Read and reset this rank's mailbox (own memory: direct access)."""
        ctx = self.ctx
        ctx.charge(CostAction.CPU_LOAD)
        k = int(ctx.segment.read_scalar(self.cursor.offset, self.cursor.ts))
        if k == 0:
            return []
        view = ctx.segment.view_array(self.inbox.offset, self.inbox.ts, k)
        ctx.charge(CostAction.CPU_LOAD, k)
        words = [int(x) for x in view]
        ctx.charge(CostAction.CPU_STORE)
        ctx.segment.write_scalar(self.cursor.offset, self.cursor.ts, 0)
        return words

    # -- the solve loop -----------------------------------------------------------

    def solve_gen(self):
        """The solve loop as a generator continuation (``yield from`` at
        every blocking construct); :meth:`solve` drives this same
        generator through the blocking primitives."""
        ctx = self.ctx
        yield from barrier_gen()
        ctx.clock.mark("solve")
        total_cross = 0
        for v in range(self.vlo, self.vhi):
            yield from self.recompute_candidate_gen(v)
        yield from self.drain_local_gen()
        rounds = 0
        while True:
            if rounds >= min(_MAX_ROUNDS, 512):
                raise UpcxxError("matching failed to converge (rounds cap)")
            # publish this round's traffic, then settle all puts
            if self.cross_sent:
                yield from self.ad.add(
                    self.counter0 + rounds, self.cross_sent
                ).wait_gen()
            yield from self.round_promise.finalize().wait_gen()
            total_cross += self.cross_sent
            yield from barrier_gen()  # round's messages all in mailboxes
            sent_global = int(
                (yield from rget(self.counter0 + rounds).wait_gen())
            )
            rounds += 1
            if sent_global == 0:
                break
            self.cross_sent = 0
            self.round_promise = Promise()
            words = self.drain_inbox()
            # drains done before anyone writes next-round slots
            yield from barrier_gen()
            for w in words:
                yield from self.handle_gen(w)
            yield from self.drain_local_gen()
        yield from barrier_gen()
        solve_ns = ctx.clock.elapsed_since("solve")
        return solve_ns, rounds, total_cross, dict(self.mate)

    def solve(self) -> tuple[float, int, int, dict[int, int]]:
        """Blocking wrapper over :meth:`solve_gen` (thread-shim path)."""
        return run_blocking(self.ctx, self.solve_gen())


def _matching_body_gen(g: Graph, cfg: MatchingConfig):
    """Generator SPMD body — the event-loop continuation fast path."""
    return (yield from _RankSolver(g, cfg).solve_gen())


def _matching_body(g: Graph, cfg: MatchingConfig):
    """Blocking SPMD body — the reference the continuation port is
    compared against."""
    return _RankSolver(g, cfg).solve()


def run_matching(
    cfg: MatchingConfig,
    *,
    ranks: int = 16,
    version: Version = Version.V2021_3_6_EAGER,
    machine: str = "intel",
    conduit: str = "mpi",
    graph: Optional[Graph] = None,
    flags=None,
) -> MatchingResult:
    """Run the distributed matching solve and collect the global result.

    ``conduit`` defaults to mpi, matching the paper's setup for this
    application.  Each rank runs the generator body as an in-place
    continuation on the event loop.
    """
    g = graph if graph is not None else cfg.build_graph()
    incident_max = max(
        (len(a) for a in g.adj), default=0
    )
    per = -(-g.n // ranks)
    seg_bytes = 8 * (
        4 * per * max(1, incident_max) + cfg.mailbox_slack + 4096
    )
    res = spmd_run(
        _matching_body_gen,
        args=(g, cfg),
        ranks=ranks,
        version=version,
        machine=machine,
        conduit=conduit,
        seed=cfg.seed,
        segment_bytes=max(1 << 17, seg_bytes),
        flags=flags,
    )
    mate = [-1] * g.n
    rounds = 0
    cross = 0
    solve_ns = 0.0
    for r_solve, r_rounds, r_cross, r_mate in res.values:
        solve_ns = max(solve_ns, r_solve)
        rounds = max(rounds, r_rounds)
        cross += r_cross
        for v, m in r_mate.items():
            mate[v] = m
    return MatchingResult(
        config=cfg,
        ranks=ranks,
        version=version,
        machine=machine,
        n=g.n,
        n_edges=g.n_edges,
        mate=mate,
        weight=matching_weight(g, mate),
        solve_ns=solve_ns,
        rounds=rounds,
        cross_messages=cross,
    )

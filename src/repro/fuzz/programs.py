"""Seeded random op programs with mode-independent outcomes.

A :class:`FuzzProgram` is a phase-structured SPMD workload.  Phases are
separated by a barrier / drain / barrier fence, and within each phase every
cell of the shared table plays exactly one *role*, chosen so the final
state is independent of completion-notification timing — the property the
differential harness (:mod:`repro.fuzz.runner`) checks across eager
and deferred runs:

``frozen``
    read-only this phase: ``get`` values are fixed by earlier phases, so
    every mode reads the same value no matter when the read executes.
``put:K``
    written only by rank ``K`` (any rank may not read it this phase).
    AM delivery is FIFO per (source, destination) pair — including through
    the aggregation layer, whose per-destination buffers flush in append
    order — so the cell deterministically ends at K's last program-order
    put.
``amo_xor`` / ``amo_add``
    mutated only through the one commutative atomic op (xor updates may
    also arrive as reply-less ``rpc_ff`` applications); any interleaving
    yields the same final value.  The two op kinds are never mixed on one
    cell: xor and add do not commute with each other.

RPCs call a pure function of their argument, so per-op return values are
deterministic regardless of when the target executes them.

Random *wait points* (``wait_all``) and bare ``progress`` calls are
sprinkled through each rank's op list; value-producing ops (``get``,
``rpc``) record their results in wait order, value-less ops are tracked by
a future or by the phase's shared promise.  The phase fence then makes the
next phase's roles sound: all futures waited, the promise finalized, a
barrier, a drain to quiescence (delivering stray ``rpc_ff`` updates — the
handlers send no further AMs), and a closing barrier.

Programs are additionally *blocked-heavy*: ``spin`` ops charge pure local
work (staggering the ranks' virtual clocks), and each phase interleaves
0–2 extra mid-phase barriers at a random per-rank position (every rank
gets the same count — barriers are collective).  Together they produce
staggered barrier arrivals and long-parked waits, exercising the
scheduler's blocked-rank machinery (wake lists vs. the predicate scan)
rather than only the all-ready fast path.

Programs are plain data — JSON round-trippable via
:func:`program_to_json` / :func:`program_from_json` — so a failing program
can be shipped as a CI artifact and replayed exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: (ranks, n_nodes, conduit) topologies sampled by the generator; the
#: multi-node rows route a healthy fraction of ops off-node
_TOPOLOGIES = (
    (2, 1, "smp"),
    (4, 1, "smp"),
    (4, 1, "udp"),
    (4, 2, "udp"),
    (4, 2, "ibv"),
    (6, 2, "mpi"),
)

_ROLE_FROZEN = "frozen"
_ROLE_AMO_XOR = "amo_xor"
_ROLE_AMO_ADD = "amo_add"


@dataclass(frozen=True)
class FuzzPhase:
    """One barrier-fenced phase: cell roles plus per-rank op lists.

    ``roles[owner][idx]`` is ``"frozen"``, ``"amo_xor"``, ``"amo_add"``,
    or ``"put:K"``; ``ops[rank]`` is this rank's op dicts in issue order.
    """

    roles: tuple[tuple[str, ...], ...]
    ops: tuple[tuple[dict, ...], ...]


@dataclass(frozen=True)
class FuzzProgram:
    """A complete differential-fuzz workload (see module docstring)."""

    seed: int
    ranks: int
    n_nodes: int
    conduit: str
    #: table words per rank
    words: int
    phases: tuple[FuzzPhase, ...]

    @property
    def op_count(self) -> int:
        return sum(
            len(rank_ops) for ph in self.phases for rank_ops in ph.ops
        )


def _gen_roles(rng: random.Random, ranks: int, words: int):
    roles = []
    for _owner in range(ranks):
        row = []
        for _idx in range(words):
            r = rng.random()
            if r < 0.35:
                row.append(_ROLE_FROZEN)
            elif r < 0.60:
                row.append(_ROLE_AMO_XOR)
            elif r < 0.75:
                row.append(_ROLE_AMO_ADD)
            else:
                row.append(f"put:{rng.randrange(ranks)}")
        roles.append(tuple(row))
    return tuple(roles)


def _cells_with(roles, want: str):
    return [
        (owner, idx)
        for owner, row in enumerate(roles)
        for idx, role in enumerate(row)
        if role == want
    ]


def _gen_rank_ops(
    rng: random.Random, me: int, ranks: int, roles, n_ops: int
) -> tuple[dict, ...]:
    my_puts = [
        (owner, idx)
        for owner, row in enumerate(roles)
        for idx, role in enumerate(row)
        if role == f"put:{me}"
    ]
    xors = _cells_with(roles, _ROLE_AMO_XOR)
    adds = _cells_with(roles, _ROLE_AMO_ADD)
    frozen = _cells_with(roles, _ROLE_FROZEN)

    kinds = ["rpc", "wait_all", "progress", "spin"]
    if my_puts:
        kinds += ["put"] * 3
    if xors:
        kinds += ["amo_xor"] * 3 + ["rpc_ff"] * 2
    if adds:
        kinds += ["amo_add"] * 2
    if frozen:
        kinds += ["get"] * 3

    ops: list[dict] = []
    for _ in range(n_ops):
        kind = rng.choice(kinds)
        if kind == "put":
            owner, idx = rng.choice(my_puts)
            ops.append(
                {
                    "kind": "put",
                    "owner": owner,
                    "idx": idx,
                    "value": rng.getrandbits(32),
                    "track": rng.choice(("future", "promise")),
                }
            )
        elif kind in ("amo_xor", "amo_add"):
            owner, idx = rng.choice(xors if kind == "amo_xor" else adds)
            ops.append(
                {
                    "kind": kind,
                    "owner": owner,
                    "idx": idx,
                    "value": rng.getrandbits(32),
                    "track": rng.choice(("future", "promise")),
                }
            )
        elif kind == "rpc_ff":
            owner, idx = rng.choice(xors)
            ops.append(
                {
                    "kind": "rpc_ff",
                    "owner": owner,
                    "idx": idx,
                    "value": rng.getrandbits(32),
                }
            )
        elif kind == "get":
            owner, idx = rng.choice(frozen)
            ops.append({"kind": "get", "owner": owner, "idx": idx})
        elif kind == "rpc":
            ops.append(
                {
                    "kind": "rpc",
                    "dst": rng.randrange(ranks),
                    "value": rng.getrandbits(32),
                }
            )
        elif kind == "wait_all":
            ops.append({"kind": "wait_all"})
        elif kind == "spin":
            # pure local work: staggers this rank's virtual clock so the
            # collective points below see genuinely uneven arrivals
            ops.append({"kind": "spin", "n": rng.randint(5, 60)})
        else:
            ops.append({"kind": "progress", "n": rng.randint(1, 3)})
    return tuple(ops)


def _insert_barriers(rng: random.Random, ops, n_barriers: int):
    """Interleave ``n_barriers`` mid-phase barriers into every rank's op
    list at independent random positions (same count per rank — barriers
    are collective).  Uneven positions + ``spin`` clock skew make early
    arrivals park long while stragglers work: the blocked-heavy shape."""
    if not n_barriers:
        return ops
    out = []
    for rank_ops in ops:
        row = list(rank_ops)
        for _ in range(n_barriers):
            row.insert(rng.randint(0, len(row)), {"kind": "barrier"})
        out.append(tuple(row))
    return tuple(out)


def generate_program(seed: int) -> FuzzProgram:
    """The deterministic program for ``seed`` (same seed, same program)."""
    rng = random.Random(seed)
    ranks, n_nodes, conduit = rng.choice(_TOPOLOGIES)
    words = rng.choice((4, 8, 12))
    n_phases = rng.randint(1, 2)
    phases = []
    for _ in range(n_phases):
        roles = _gen_roles(rng, ranks, words)
        ops = tuple(
            _gen_rank_ops(rng, me, ranks, roles, rng.randint(4, 12))
            for me in range(ranks)
        )
        ops = _insert_barriers(rng, ops, rng.randint(0, 2))
        phases.append(FuzzPhase(roles=roles, ops=ops))
    return FuzzProgram(
        seed=seed,
        ranks=ranks,
        n_nodes=n_nodes,
        conduit=conduit,
        words=words,
        phases=tuple(phases),
    )


# ---------------------------------------------------------------------------
# JSON round-trip (CI artifact format)
# ---------------------------------------------------------------------------


def program_to_json(program: FuzzProgram, indent: int | None = 2) -> str:
    """Serialize a program to the artifact JSON format."""
    doc = {
        "seed": program.seed,
        "ranks": program.ranks,
        "n_nodes": program.n_nodes,
        "conduit": program.conduit,
        "words": program.words,
        "phases": [
            {
                "roles": [list(row) for row in ph.roles],
                "ops": [list(rank_ops) for rank_ops in ph.ops],
            }
            for ph in program.phases
        ],
    }
    return json.dumps(doc, indent=indent)


def program_from_json(text: str) -> FuzzProgram:
    """Rebuild a program from :func:`program_to_json` output."""
    doc = json.loads(text)
    phases = tuple(
        FuzzPhase(
            roles=tuple(tuple(row) for row in ph["roles"]),
            ops=tuple(
                tuple(dict(op) for op in rank_ops)
                for rank_ops in ph["ops"]
            ),
        )
        for ph in doc["phases"]
    )
    return FuzzProgram(
        seed=doc["seed"],
        ranks=doc["ranks"],
        n_nodes=doc["n_nodes"],
        conduit=doc["conduit"],
        words=doc["words"],
        phases=phases,
    )

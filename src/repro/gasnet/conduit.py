"""Conduits: the transport layer beneath the runtime.

Three conduits mirror the paper's setups (§IV):

* **smp** — single-node only, used on Intel.  Every pointer is directly
  addressable, which is what lets 2021.3.6 turn ``is_local`` into a
  ``constexpr`` there.
* **udp** — used on IBM and Marvell "for its better integration with the
  native job launcher; process-shared memory ensures all communication
  takes place via shared memory".  On-node traffic uses PSHM bypass; only
  off-node traffic would touch the (slow) UDP path.
* **mpi** — used for the graph-matching application "to trivially satisfy
  the application's hybrid reliance on MPI collectives".  Same PSHM
  structure, different off-node latency.

A conduit owns the per-rank active-message inboxes and the node topology.
The data plane of on-node operations never passes through here — the RMA /
atomics layers use shared-memory bypass after a reachability check — but
every asynchronous operation (off-node RMA/AMO, every RPC) is an AM pair
routed through this layer.

Reachability checks are served from a per-rank node-id table built once at
construction (the topology is static), so the check on every on-node
fast-path operation is a pair of tuple indexes rather than repeated
``World`` arithmetic (:meth:`RankContext.is_local_rank
<repro.runtime.context.RankContext.is_local_rank>` reads the same table).

Small off-node AMs marked ``aggregatable`` by the operation layers are
diverted to the rank's :class:`~repro.gasnet.aggregator.AmAggregator`
(when ``flags.am_aggregation`` is on) and later delivered as one bundled
AM via :meth:`Conduit.send_bundle`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.errors import UpcxxError
from repro.gasnet.am import ActiveMessage
from repro.gasnet.aggregator import bundle_framing
from repro.sim.costmodel import CostAction

if TYPE_CHECKING:  # pragma: no cover
    from repro.gasnet.aggregator import AggEntry
    from repro.runtime.context import RankContext
    from repro.runtime.runtime import World

#: On-node AM one-way latency (shared-memory queues), ns.  Small and
#: conduit-independent: PSHM AMs never touch the network.
_PSHM_AM_LATENCY_NS = 250.0

#: Off-node latency multipliers relative to the machine's base network
#: latency (UDP sockets are far slower than native RDMA; MPI in between).
_OFFNODE_FACTOR = {"smp": None, "udp": 20.0, "mpi": 2.0, "ibv": 1.0}

CONDUIT_NAMES = ("smp", "udp", "mpi", "ibv")

# Enum members bound once: on Python 3.10/3.11 every ``CostAction.X`` read
# runs ``EnumType.__getattr__`` (3.12 dropped the hook).
_AM_INJECT = CostAction.AM_INJECT
_AM_POLL = CostAction.AM_POLL
_AM_EXECUTE = CostAction.AM_EXECUTE
_AM_BUNDLE_HEADER = CostAction.AM_BUNDLE_HEADER
_AM_BUNDLE_ENTRY_DISPATCH = CostAction.AM_BUNDLE_ENTRY_DISPATCH
_MEMCPY_PER_BYTE = CostAction.MEMCPY_PER_BYTE


class Conduit:
    """Transport instance shared by all ranks of a world."""

    def __init__(self, name: str, world: "World"):
        if name not in CONDUIT_NAMES:
            raise UpcxxError(
                f"unknown conduit {name!r}; known: {CONDUIT_NAMES}"
            )
        if name not in _OFFNODE_FACTOR:
            # validate the latency model up front so a future conduit name
            # fails at construction with the known-names list, not with a
            # bare KeyError deep inside am_latency_ns
            raise UpcxxError(
                f"conduit {name!r} has no off-node latency model; "
                f"modeled: {sorted(_OFFNODE_FACTOR)}"
            )
        self.name = name
        self.world = world
        #: per-rank FIFO inboxes (arrival order is injection order)
        self._inboxes: list[deque[ActiveMessage]] = [
            deque() for _ in range(world.size)
        ]
        if name == "smp" and world.n_nodes != 1:
            raise UpcxxError(
                "the smp conduit supports single-node worlds only"
            )
        #: static node table: node id per rank (the topology never changes
        #: after construction, so reachability is two tuple indexes)
        self._node_of: tuple[int, ...] = tuple(
            world.node_of(r) for r in range(world.size)
        )

    # -- reachability -----------------------------------------------------

    def _same_node(self, a: int, b: int) -> bool:
        """``world.same_node`` from the static node table."""
        nodes = self._node_of
        if 0 <= a < len(nodes) and 0 <= b < len(nodes):
            return nodes[a] == nodes[b]
        raise UpcxxError(
            f"rank pair ({a}, {b}) out of range (size {len(nodes)})"
        )

    def pshm_reachable(self, from_rank: int, to_rank: int) -> bool:
        """Whether ``to_rank``'s segment is mapped into ``from_rank``'s
        address space (same node: PSHM, or same rank)."""
        return self._same_node(from_rank, to_rank)

    def am_latency_ns(
        self, src_rank: int, dst_rank: int, nbytes: int = 0
    ) -> float:
        """One-way delivery time: base latency plus a bandwidth term for
        the payload (on-node queues are effectively memcpy-bound; the
        per-byte cost is already charged CPU-side there)."""
        if self._same_node(src_rank, dst_rank):
            return _PSHM_AM_LATENCY_NS
        try:
            factor = _OFFNODE_FACTOR[self.name]
        except KeyError:
            raise UpcxxError(
                f"conduit {self.name!r} has no off-node latency model; "
                f"modeled: {sorted(_OFFNODE_FACTOR)}"
            ) from None
        if factor is None:
            raise UpcxxError("smp conduit cannot reach off-node ranks")
        base = self.world.profile.network_latency_ns * factor
        if nbytes:
            base += nbytes / self.world.profile.network_bandwidth_bpns
        return base

    # -- active messages ------------------------------------------------------

    def send_am(
        self,
        src_ctx: "RankContext",
        dst_rank: int,
        handler: Callable,
        args: tuple = (),
        nbytes: int = 0,
        label: str = "am",
        aggregatable: bool = False,
    ) -> None:
        """Inject an AM: charges injection (+ payload copy) on the sender
        and enqueues for delivery at ``now + latency`` on the target.

        ``aggregatable`` marks AMs eligible for destination batching (the
        request side of an operation).  AMs delivering source/operation
        completions must stay ``aggregatable=False`` — an initiator may
        spin on the completion before its next progress call, and a parked
        notification would stall that spin (the aggregation correctness
        gate).  Eligible off-node AMs are parked in the sender's
        aggregator instead of being injected, when aggregation is on.
        """
        nodes = self._node_of
        if not (0 <= dst_rank < len(nodes)):
            raise UpcxxError(f"AM to invalid rank {dst_rank}")
        src_rank = src_ctx.rank
        # one node-table read serves both aggregation eligibility and the
        # latency model
        same_node = nodes[src_rank] == nodes[dst_rank]
        if aggregatable and not same_node:
            agg = src_ctx.am_agg
            if agg is not None:
                agg.append(dst_rank, handler, args, nbytes)
                return
        src_ctx.charge(_AM_INJECT)
        if nbytes:
            src_ctx.charge_bytes(_MEMCPY_PER_BYTE, nbytes)
        if same_node:
            latency = _PSHM_AM_LATENCY_NS
        else:
            latency = self.am_latency_ns(src_rank, dst_rank, nbytes)
        arrival = src_ctx.clock.now_ns + latency
        self._inboxes[dst_rank].append(
            ActiveMessage(src_rank, dst_rank, handler, args, nbytes, arrival,
                          label)
        )
        self.world.notify_incoming(dst_rank)

    def send_bundle(
        self,
        src_ctx: "RankContext",
        dst_rank: int,
        entries: list["AggEntry"],
        payload_bytes: int,
    ) -> None:
        """Ship a flushed destination buffer as one bundled AM.

        Cost model: the sender pays one ``AM_INJECT`` plus one
        ``AM_BUNDLE_HEADER`` and the header/framing bytes (the per-entry
        payload bytes were charged at append time); the bundle crosses the
        network in one latency hop sized by the full wire footprint.  The
        receiver pays one ``AM_EXECUTE`` for the bundle (charged by
        :meth:`poll`) plus ``AM_BUNDLE_ENTRY_DISPATCH`` per entry.
        """
        if not entries:
            return
        src_ctx.charge(_AM_BUNDLE_HEADER)
        src_ctx.charge(_AM_INJECT)
        framing = bundle_framing(len(entries))
        src_ctx.charge_bytes(_MEMCPY_PER_BYTE, framing)
        wire_bytes = payload_bytes + framing
        arrival = src_ctx.clock.now_ns + self.am_latency_ns(
            src_ctx.rank, dst_rank, wire_bytes
        )
        self._inboxes[dst_rank].append(
            ActiveMessage(src_ctx.rank, dst_rank, _deliver_bundle, (entries,),
                          wire_bytes, arrival, f"am_bundle[{len(entries)}]")
        )
        self.world.notify_incoming(dst_rank)

    def has_incoming(self, rank: int) -> bool:
        return bool(self._inboxes[rank])

    def pending_for(self, rank: int) -> int:
        return len(self._inboxes[rank])

    def poll(self, ctx: "RankContext") -> bool:
        """Deliver every queued AM for ``ctx`` (called from its progress
        engine).  The receiver's clock advances to at least each message's
        arrival time before the handler runs.
        """
        inbox = self._inboxes[ctx.rank]
        if not inbox:
            return False
        ctx.charge(_AM_POLL)
        while inbox:
            msg = inbox.popleft()
            ctx.clock.advance_to(msg.arrival_ns)
            ctx.charge(_AM_EXECUTE)
            msg.handler(ctx, *msg.args)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Conduit {self.name} world={self.world.size}>"


def _deliver_bundle(tctx: "RankContext", entries: list["AggEntry"]) -> None:
    """Replay a bundle's entries in append order on the target rank."""
    for entry in entries:
        tctx.charge(_AM_BUNDLE_ENTRY_DISPATCH)
        entry.handler(tctx, *entry.args)


def make_conduit(name: str, world: "World") -> Conduit:
    """Construct the conduit for a world (validates name/topology)."""
    return Conduit(name, world)

"""A distributed hash table over PGAS RMA and atomics.

A canonical fine-grained APGAS workload (in the spirit of the UPC++
programmer's-guide DHT, rebuilt over RMA instead of RPC so that the
paper's optimization applies): a global open-addressing table is block-
distributed across ranks' shared segments; slots are claimed with
``compare_exchange`` and read/written with fine-grained ``rget``/``rput``.
Every operation is a handful of 8-byte on-node transfers — exactly the
regime where eager notification removes a constant overhead per access.

Layout: the global table has ``2**log2_slots`` slots, each two u64 words
(key, value), striped block-wise; key 0 is reserved as EMPTY.  Linear
probing resolves collisions across rank boundaries transparently via
global pointer arithmetic over rank-substituted base pointers.

This is an *extension study* (not a figure from the paper): the benchmark
in ``benchmarks/test_dht_extension.py`` measures the same eager-vs-defer
effect on a different fine-grained application.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import (
    AtomicDomain,
    Promise,
    barrier_gen,
    current_ctx,
    new_array,
    operation_cx,
    rank_me,
    rank_n,
    rget,
    rput,
)
from repro.errors import UpcxxError
from repro.memory.global_ptr import GlobalPtr
from repro.runtime.config import Version
from repro.runtime.runtime import spmd_run
from repro.runtime.switchpoints import run_blocking
from repro.sim.costmodel import CostAction

_EMPTY = 0


def _mix(key: int) -> int:
    """splitmix64 finalizer — the slot hash."""
    z = (key + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & ((1 << 64) - 1)
    return z ^ (z >> 31)


class DistributedHashMap:
    """One rank's handle on the global table (construct on every rank,
    then :meth:`attach` after a barrier)."""

    def __init__(self, log2_slots: int):
        if log2_slots < 2:
            raise ValueError("table needs at least 4 slots")
        self.ctx = current_ctx()
        self.p = rank_n()
        self.n_slots = 1 << log2_slots
        if self.n_slots % self.p:
            raise UpcxxError("slot count must divide evenly across ranks")
        self.per_rank = self.n_slots // self.p
        # [key0, val0, key1, val1, ...] in my segment
        self.local_part = new_array("u64", 2 * self.per_rank, fill=_EMPTY)
        self.ad = AtomicDomain({"compare_exchange"}, "u64")
        self.bases: list[GlobalPtr] = []
        #: slot -> its (key, value) pointers, kept once probed
        self._ptrs: dict[int, tuple[GlobalPtr, GlobalPtr]] = {}

    def attach(self) -> None:
        """Resolve every rank's base pointer (lock-step allocation)."""
        self.bases = [
            GlobalPtr(r, self.local_part.offset, self.local_part.ts)
            for r in range(self.p)
        ]

    # -- slot addressing ---------------------------------------------------

    def _slot_ptrs(self, slot: int) -> tuple[GlobalPtr, GlobalPtr]:
        ptrs = self._ptrs.get(slot)
        if ptrs is None:
            rank, off = divmod(slot, self.per_rank)
            kptr = self.bases[rank] + 2 * off
            ptrs = self._ptrs[slot] = (kptr, kptr + 1)
        return ptrs

    def _home_slot(self, key: int) -> int:
        return _mix(key) & (self.n_slots - 1)

    # -- operations -----------------------------------------------------------

    def insert_gen(self, key: int, value: int, comps=None):
        """Generator form of :meth:`insert` for continuation rank bodies
        (``yield from table.insert_gen(...)``).

        Linear probing with atomic claim of empty slots; raises once the
        whole table has been probed (full).
        """
        if key == _EMPTY:
            raise UpcxxError("key 0 is reserved (EMPTY)")
        slot = self._home_slot(key)
        for _ in range(self.n_slots):
            kptr, vptr = self._slot_ptrs(slot)
            old = yield from self.ad.compare_exchange(
                kptr, _EMPTY, key
            ).wait_gen()
            if old in (_EMPTY, key):
                if comps is None:
                    yield from rput(value, vptr).wait_gen()
                else:
                    rput(value, vptr, comps)
                return
            slot = (slot + 1) & (self.n_slots - 1)
        raise UpcxxError("distributed hash table is full")

    def insert(self, key: int, value: int, comps=None) -> None:
        """Insert or update ``key`` (nonzero); waits for completion.

        Blocking wrapper over :meth:`insert_gen` — one implementation,
        identical charge sequence whichever way the body is written.
        """
        return run_blocking(self.ctx, self.insert_gen(key, value, comps))

    def find_gen(self, key: int):
        """Generator form of :meth:`find` for continuation rank bodies."""
        if key == _EMPTY:
            raise UpcxxError("key 0 is reserved (EMPTY)")
        slot = self._home_slot(key)
        for _ in range(self.n_slots):
            kptr, vptr = self._slot_ptrs(slot)
            k = yield from rget(kptr).wait_gen()
            if k == _EMPTY:
                return None
            if k == key:
                return (yield from rget(vptr).wait_gen())
            slot = (slot + 1) & (self.n_slots - 1)
        return None

    def find(self, key: int):
        """The value for ``key``, or None when absent (blocking wrapper
        over :meth:`find_gen`)."""
        return run_blocking(self.ctx, self.find_gen(key))

    def cas_gen(self, key: int, expected: int, desired: int):
        """Generator form of :meth:`cas`: atomically replace ``key``'s
        value with ``desired`` iff it currently equals ``expected``.

        Returns the value observed by the compare-exchange (``expected``
        on success, the competing value on failure), or ``None`` when the
        key is absent.  This is the serving workload's read-modify-write
        request: one probe chain of ``rget`` s to locate the slot, then a
        single ``compare_exchange`` on the value word.
        """
        if key == _EMPTY:
            raise UpcxxError("key 0 is reserved (EMPTY)")
        slot = self._home_slot(key)
        for _ in range(self.n_slots):
            kptr, vptr = self._slot_ptrs(slot)
            k = yield from rget(kptr).wait_gen()
            if k == _EMPTY:
                return None
            if k == key:
                return (
                    yield from self.ad.compare_exchange(
                        vptr, expected, desired
                    ).wait_gen()
                )
            slot = (slot + 1) & (self.n_slots - 1)
        return None

    def cas(self, key: int, expected: int, desired: int):
        """Blocking wrapper over :meth:`cas_gen`."""
        return run_blocking(self.ctx, self.cas_gen(key, expected, desired))

    def local_items(self) -> dict[int, int]:
        """Key→value pairs stored in this rank's slice."""
        view = self.ctx.segment.view_array(
            self.local_part.offset, self.local_part.ts, 2 * self.per_rank
        )
        return {
            int(view[2 * i]): int(view[2 * i + 1])
            for i in range(self.per_rank)
            if int(view[2 * i]) != _EMPTY
        }


# ---------------------------------------------------------------------------
# benchmark driver (the extension study)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DhtConfig:
    log2_slots: int = 10
    inserts_per_rank: int = 128
    finds_per_rank: int = 128
    seed: int = 7
    use_promise: bool = True  # promise-tracked value puts


@dataclass
class DhtResult:
    config: DhtConfig
    ranks: int
    version: Version
    machine: str
    solve_ns: float
    ops: int
    correct: bool


def _dht_keys(cfg: DhtConfig, rank: int) -> list[int]:
    """Deterministic distinct nonzero keys for one rank."""
    base = (cfg.seed * 1_000_003 + rank) << 20
    return [base + i + 1 for i in range(cfg.inserts_per_rank)]


def _dht_body_gen(cfg: DhtConfig):
    """The SPMD body as a generator continuation (``yield from`` at every
    blocking construct), so the event-loop scheduler resumes it in place."""
    ctx = current_ctx()
    me = rank_me()
    table = DistributedHashMap(cfg.log2_slots)
    yield from barrier_gen()
    table.attach()
    keys = _dht_keys(cfg, me)
    yield from barrier_gen()
    ctx.clock.mark("solve")

    if cfg.use_promise:
        # inserts with promise-tracked value puts, batched claim waits
        p = Promise()
        for i, key in enumerate(keys):
            ctx.charge(CostAction.FUNCTION_CALL, 2)  # hash + key gen
            yield from table.insert_gen(key, i, operation_cx.as_promise(p))
        yield from p.finalize().wait_gen()
    else:
        for i, key in enumerate(keys):
            ctx.charge(CostAction.FUNCTION_CALL, 2)
            yield from table.insert_gen(key, i)
    yield from barrier_gen()
    # look up my left neighbor's keys
    peer_keys = _dht_keys(cfg, (me - 1) % rank_n())
    hits = 0
    for i, key in enumerate(peer_keys[: cfg.finds_per_rank]):
        ctx.charge(CostAction.FUNCTION_CALL, 2)
        found = yield from table.find_gen(key)
        if found == i:
            hits += 1
    yield from barrier_gen()
    solve_ns = ctx.clock.elapsed_since("solve")
    return solve_ns, hits, table.local_items()


def run_dht(
    cfg: DhtConfig,
    *,
    ranks: int = 8,
    version: Version = Version.V2021_3_6_EAGER,
    machine: str = "intel",
    flags=None,
) -> DhtResult:
    """Run the DHT workload; correctness = every lookup hit.

    Each rank runs the generator body as an in-place continuation on the
    event loop.
    """
    total_keys = cfg.inserts_per_rank * ranks
    if total_keys * 2 > (1 << cfg.log2_slots):
        raise UpcxxError(
            "table too small: keep load factor <= 0.5 "
            f"({total_keys} keys, {1 << cfg.log2_slots} slots)"
        )
    seg = max(1 << 17, (1 << cfg.log2_slots) // ranks * 16 * 4)
    res = spmd_run(
        _dht_body_gen,
        args=(cfg,),
        ranks=ranks,
        version=version,
        machine=machine,
        seed=cfg.seed,
        segment_bytes=seg,
        flags=flags,
    )
    solve_ns = max(v[0] for v in res.values)
    hits = sum(v[1] for v in res.values)
    stored = {}
    for _, _, items in res.values:
        stored.update(items)
    expected = {
        key: i
        for r in range(ranks)
        for i, key in enumerate(_dht_keys(cfg, r))
    }
    correct = hits == ranks * cfg.finds_per_rank and stored == expected
    return DhtResult(
        config=cfg,
        ranks=ranks,
        version=version,
        machine=machine,
        solve_ns=solve_ns,
        ops=ranks * (cfg.inserts_per_rank + cfg.finds_per_rank),
        correct=correct,
    )

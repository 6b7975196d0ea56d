"""Machine profiles standing in for the paper's three evaluation platforms.

The paper evaluates on:

* **Intel** — dual-socket 20-core Xeon Gold 6148 (Skylake), NERSC Cori GPU
  partition, Intel compiler, **SMP conduit**;
* **IBM** — dual-socket 22-core POWER9, OLCF Summit, GCC, **UDP conduit**
  with process-shared memory (PSHM);
* **Marvell** — dual-socket 32-core ThunderX2 (ARMv8.1), OLCF Wombat,
  Clang, **UDP conduit** with PSHM.

A :class:`MachineProfile` assigns a nanosecond cost to each
:class:`~repro.sim.costmodel.CostAction`.  The constants below were
calibrated (see ``benchmarks/``/EXPERIMENTS.md) so that the *relative* cost
structure of each platform — allocator overhead vs. progress-queue overhead
vs. atomic-RMW cost vs. plain copies — reproduces the paper's reported
speedup bands.  They are a model, not microarchitectural ground truth; the
reproduction's claims are about shape, not absolute nanoseconds.

Salient modeled differences:

* POWER9 (``IBM``) has expensive atomic RMW and allocator operations
  relative to its progress-queue costs — hence the paper's small (15%)
  eager speedup for value-producing atomics but huge (95%) put speedup and
  ~90% non-value-vs-value gap.
* ThunderX2 (``MARVELL``) has slow cores across the board with relatively
  costly queue operations — large eager speedups for both puts (95%) and
  value atomics (52%).
* Skylake (``INTEL``) sits between, with cheap branches and fast copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.sim.costmodel import CostAction


@dataclass(frozen=True)
class MachineProfile:
    """Per-architecture cost table plus system-level parameters.

    Attributes
    ----------
    name:
        Short identifier (``"intel"``, ``"ibm"``, ``"marvell"``).
    description:
        Human-readable description of the platform being modeled.
    cores_per_node:
        Total cores of the modeled node (paper: 40 / 44 / 64).
    default_conduit:
        Conduit the paper used on this platform.
    network_latency_ns:
        One-way off-node small-message latency (used by the off-node path).
    costs_ns:
        Mapping from :class:`CostAction` to nanoseconds.
    """

    name: str
    description: str
    cores_per_node: int
    default_conduit: str
    network_latency_ns: float
    #: off-node network bandwidth in bytes per nanosecond (~GB/s);
    #: 12.5 B/ns ~ 100 Gb/s EDR InfiniBand-class fabric
    network_bandwidth_bpns: float = 12.5
    costs_ns: dict[CostAction, float] = field(default_factory=dict)

    def cost_ns(self, action: CostAction) -> float:
        """Cost of one occurrence of ``action`` (0.0 if unlisted).

        The returned value is quantized to the virtual clock's fixed-point
        grid (:data:`repro.sim.clock.UNITS_PER_NS` units per nanosecond,
        a power of two), so every charge is an exact integer number of
        clock units.  That exactness is what makes batched cost
        accumulation (``FeatureFlags.cost_batching``) bit-identical to
        per-charge advancing: integer addition is associative.  The grid
        is ~1e-6 ns, far below any modeled cost, so the calibrated shape
        claims are untouched; dyadic table entries (the common case) pass
        through unchanged.
        """
        if action is CostAction.NETWORK_LATENCY:
            v = self.network_latency_ns
        else:
            v = self.costs_ns.get(action, 0.0)
        return round(v * 1048576) / 1048576.0

    def with_costs(self, **overrides: float) -> "MachineProfile":
        """A copy of this profile with named cost overrides.

        Keys are :class:`CostAction` value-strings, e.g.
        ``profile.with_costs(heap_alloc_promise_cell=0.0)``.  Used by the
        ablation benchmarks to isolate individual design choices.
        """
        new_costs = dict(self.costs_ns)
        for key, val in overrides.items():
            new_costs[CostAction(key)] = float(val)
        return replace(self, costs_ns=new_costs)


def _costs(**kv: float) -> dict[CostAction, float]:
    return {CostAction(k): float(v) for k, v in kv.items()}


#: Intel Xeon Gold 6148 (Skylake) model — NERSC Cori GPU partition.
INTEL = MachineProfile(
    name="intel",
    description=(
        "dual-socket 20-core 2.40 GHz Intel Xeon Gold 6148 (Skylake), "
        "384 GiB DDR4-2666 (NERSC Cori GPU partition), SMP conduit"
    ),
    cores_per_node=40,
    default_conduit="smp",
    network_latency_ns=1400.0,
    costs_ns=_costs(
        rma_call_overhead=72.0,
        amo_call_overhead=14.0,
        locality_branch=1.0,
        gptr_downcast=1.5,
        memcpy_8b=1.0,
        memcpy_per_byte=0.04,
        cpu_load=1.0,
        cpu_store=1.0,
        cpu_atomic_rmw=18.0,
        dram_random_access=240.0,
        heap_alloc_promise_cell=33.0,
        heap_alloc_op_descriptor=8.0,
        heap_free=12.0,
        progress_queue_enqueue=7.0,
        progress_poll=6.0,
        progress_dispatch=14.0,
        future_ready_check=1.0,
        future_callback_schedule=4.0,
        when_all_node_build=150.0,
        dep_graph_resolve_edge=25.0,
        promise_register=6.0,
        promise_fulfill=8.0,
        completion_process=3.0,
        cx_continuation_dispatch=3.0,
        cx_counter_signal=2.0,
        cx_counter_trip=6.0,
        am_inject=90.0,
        am_poll=30.0,
        am_execute=70.0,
        am_agg_append=9.0,
        am_bundle_header=40.0,
        am_bundle_entry_dispatch=8.0,
        rpc_serialize_per_byte=0.3,
        lpc_enqueue=5.0,
        barrier=600.0,
        amo_contention_per_peer=20.0,
        function_call=1.0,
    ),
)

#: IBM POWER9 model — OLCF Summit.
IBM = MachineProfile(
    name="ibm",
    description=(
        "dual-socket 22-core 3.07 GHz IBM POWER9, 512 GiB DDR4-2666 "
        "(OLCF Summit), UDP conduit with PSHM"
    ),
    cores_per_node=44,
    default_conduit="udp",
    network_latency_ns=1800.0,
    costs_ns=_costs(
        rma_call_overhead=124.0,
        amo_call_overhead=16.0,
        locality_branch=1.6,
        gptr_downcast=2.2,
        memcpy_8b=1.4,
        memcpy_per_byte=0.05,
        cpu_load=1.4,
        cpu_store=1.4,
        cpu_atomic_rmw=70.0,
        dram_random_access=300.0,
        heap_alloc_promise_cell=95.0,
        heap_alloc_op_descriptor=8.0,
        heap_free=25.0,
        progress_queue_enqueue=1.5,
        progress_poll=1.5,
        progress_dispatch=2.0,
        future_ready_check=1.4,
        future_callback_schedule=5.0,
        when_all_node_build=3800.0,
        dep_graph_resolve_edge=110.0,
        promise_register=9.0,
        promise_fulfill=13.0,
        completion_process=4.0,
        cx_continuation_dispatch=4.0,
        cx_counter_signal=2.5,
        cx_counter_trip=8.0,
        am_inject=130.0,
        am_poll=45.0,
        am_execute=100.0,
        am_agg_append=13.0,
        am_bundle_header=55.0,
        am_bundle_entry_dispatch=11.0,
        rpc_serialize_per_byte=0.45,
        lpc_enqueue=7.0,
        barrier=900.0,
        amo_contention_per_peer=38.0,
        function_call=1.4,
    ),
)

#: Marvell/Cavium ThunderX2 CN9980 model — OLCF Wombat.
MARVELL = MachineProfile(
    name="marvell",
    description=(
        "dual-socket 32-core 2.20 GHz Marvell/Cavium ThunderX2 CN9980 "
        "(ARMv8.1), 256 GiB DDR4-2666 (OLCF Wombat), UDP conduit with PSHM"
    ),
    cores_per_node=64,
    default_conduit="udp",
    network_latency_ns=2000.0,
    costs_ns=_costs(
        rma_call_overhead=143.0,
        amo_call_overhead=20.0,
        locality_branch=1.8,
        gptr_downcast=2.6,
        memcpy_8b=1.8,
        memcpy_per_byte=0.07,
        cpu_load=1.8,
        cpu_store=1.8,
        cpu_atomic_rmw=53.0,
        dram_random_access=200.0,
        heap_alloc_promise_cell=57.0,
        heap_alloc_op_descriptor=10.0,
        heap_free=20.0,
        progress_queue_enqueue=18.0,
        progress_poll=20.0,
        progress_dispatch=30.0,
        future_ready_check=1.8,
        future_callback_schedule=7.0,
        when_all_node_build=200.0,
        dep_graph_resolve_edge=16.0,
        promise_register=6.0,
        promise_fulfill=10.0,
        completion_process=5.0,
        cx_continuation_dispatch=5.0,
        cx_counter_signal=3.5,
        cx_counter_trip=10.0,
        am_inject=160.0,
        am_poll=55.0,
        am_execute=120.0,
        am_agg_append=16.0,
        am_bundle_header=70.0,
        am_bundle_entry_dispatch=14.0,
        rpc_serialize_per_byte=0.55,
        lpc_enqueue=9.0,
        barrier=1100.0,
        amo_contention_per_peer=30.0,
        function_call=1.8,
    ),
)

#: A neutral profile for functional tests (all ratios round, cheap).
GENERIC = MachineProfile(
    name="generic",
    description="neutral cost profile for functional testing",
    cores_per_node=16,
    default_conduit="smp",
    network_latency_ns=1000.0,
    costs_ns=_costs(
        rma_call_overhead=10.0,
        amo_call_overhead=10.0,
        locality_branch=1.0,
        gptr_downcast=1.0,
        memcpy_8b=1.0,
        memcpy_per_byte=0.05,
        cpu_load=1.0,
        cpu_store=1.0,
        cpu_atomic_rmw=10.0,
        dram_random_access=100.0,
        heap_alloc_promise_cell=20.0,
        heap_alloc_op_descriptor=10.0,
        heap_free=10.0,
        progress_queue_enqueue=5.0,
        progress_poll=5.0,
        progress_dispatch=10.0,
        future_ready_check=1.0,
        future_callback_schedule=5.0,
        when_all_node_build=25.0,
        dep_graph_resolve_edge=10.0,
        promise_register=2.0,
        promise_fulfill=2.0,
        completion_process=2.0,
        cx_continuation_dispatch=3.0,
        cx_counter_signal=2.0,
        cx_counter_trip=5.0,
        am_inject=100.0,
        am_poll=30.0,
        am_execute=80.0,
        am_agg_append=10.0,
        am_bundle_header=45.0,
        am_bundle_entry_dispatch=9.0,
        rpc_serialize_per_byte=0.5,
        lpc_enqueue=5.0,
        barrier=500.0,
        amo_contention_per_peer=5.0,
        function_call=1.0,
    ),
)

_BY_NAME = {p.name: p for p in (INTEL, IBM, MARVELL, GENERIC)}


def profile_by_name(name: str) -> MachineProfile:
    """Look up a built-in profile by its short name (case-insensitive)."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown machine profile {name!r}; "
            f"known: {sorted(_BY_NAME)}"
        ) from None

"""Layer table and span tracer for the traced benchmark run.

The layers are the ``repro`` module names.  Each is measured from outside:
:meth:`Tracer.install` wraps the layer's public entry points, so nothing
under ``src/`` knows it is traced.

* A module function is re-bound in every ``repro.*`` module that imported
  it (``repro.rma.put.rput`` is also ``repro.rput`` and
  ``repro.apps.gups.rput``).  A method is patched on its class.
* Every rank-body resume (``_GenTask.resume``) gets a span billed to the
  workload's body layer, so body code is not billed to the scheduler.
* Generator functions are never wrapped: a span around one would close
  when the generator object is created, not when its work is done.
* An entry point that no longer exists is reported as unwrapped.

A span records layer, start, end and parent.  A layer's self time is the
duration of its spans minus the time of their child spans, minus the cost
of the wrappers themselves.  That cost is billed to the pseudo layer
``trace``, so the self times of all layers, ``trace`` included, add up to
the traced wall time.  Timing wrapped no-ops gives the cost of each kind
of wrapper relative to the others; its scale is fitted to the measured
difference between traced and untraced wall time of the same work.

The wrapper around ``CostModel.charge``/``charge_bytes`` also sums the
virtual ns each :class:`~repro.sim.costmodel.CostAction` charged (the
return value of the call, so per-byte charges are exact) into the layer
that owns the action (:data:`ACTION_LAYERS`; actions not listed land in
``other``).  Tracing never moves a virtual tick: the wrappers only read
the wall clock and call through.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import time
from collections import Counter

LAYERS = (
    "apps", "serve", "core", "rma", "atomics", "rpc", "memory", "gasnet",
    "runtime.progress", "runtime.sched", "sim",
)
#: virtual time of actions missing from :data:`ACTION_LAYERS`
OTHER = "other"
#: calibrated wrapper cost
TRACE = "trace"
ALL_LAYERS = LAYERS + (OTHER, TRACE)

_AMO_OPS = ("bit_xor", "compare_exchange", "fetch_add", "add", "load",
            "store")

#: layer -> public entry points, as ``"module:qualname"``
ENTRY_POINTS = {
    "apps": (
        "repro.apps.gups:run_gups",
        "repro.apps.gups:oracle_table",
        "repro.apps.gups:hpcc_stream",
        "repro.apps.dht:DistributedHashMap.__init__",
        "repro.apps.dht:DistributedHashMap.attach",
    ),
    "serve": (
        "repro.serve.driver:run_serve",
        "repro.serve.driver:merge_serve_snapshots",
        "repro.serve.driver:ServeRankObs.record",
        "repro.serve.workload:build_schedule",
    ),
    "core": (
        "repro.core.when_all:when_all",
        "repro.core.future:make_future",
        "repro.core.future:Future.then",
        "repro.core.future:Future.result",
        "repro.core.promise:Promise.__init__",
        "repro.core.promise:Promise.finalize",
        "repro.core.cell:alloc_cell",
        "repro.core.cell:ready_cell",
        "repro.core.cell:ready_unit_cell",
        "repro.core.cell:PromiseCell.fulfill",
        "repro.core.completions:CxDispatcher.__init__",
        "repro.core.completions:CxDispatcher.notify_sync",
        "repro.core.completions:CxDispatcher.pend",
        "repro.core.completions:CxDispatcher.result",
        "repro.core.completions:PendingEvent.complete",
    ),
    "rma": (
        "repro.rma.put:rput",
        "repro.rma.put:rput_bulk",
        "repro.rma.get:rget",
        "repro.rma.get:rget_into",
        "repro.rma.get:rget_bulk",
    ),
    "atomics": ("repro.atomics.domain:AtomicDomain.__init__",) + tuple(
        f"repro.atomics.domain:AtomicDomain.{op}" for op in _AMO_OPS
    ),
    "rpc": (
        "repro.rpc.rpc:rpc",
        "repro.rpc.rpc:rpc_ff",
        "repro.rpc.serialization:payload_nbytes",
    ),
    "memory": (
        "repro:new_array",
        "repro.memory.global_ptr:GlobalPtr.is_local",
        "repro.memory.global_ptr:GlobalPtr.local",
        "repro.memory.global_ptr:GlobalPtr.__add__",
        "repro.memory.segment:Segment.read_scalar",
        "repro.memory.segment:Segment.write_scalar",
        "repro.memory.segment:Segment.view_array",
        "repro.memory.allocator:SharedAllocator.allocate",
    ),
    "gasnet": (
        "repro.gasnet.conduit:Conduit.send_am",
        "repro.gasnet.conduit:Conduit.send_bundle",
        "repro.gasnet.conduit:Conduit.poll",
        "repro.gasnet.conduit:Conduit.has_incoming",
        "repro.gasnet.conduit:Conduit.pshm_reachable",
        "repro.gasnet.aggregator:AmAggregator.append",
        "repro.gasnet.aggregator:AmAggregator.flush",
        "repro.gasnet.aggregator:AmAggregator.flush_all",
        "repro.gasnet.aggregator:AmAggregator.flush_aged",
    ),
    "runtime.progress": (
        "repro.runtime.progress:ProgressEngine.progress",
        "repro.runtime.progress:ProgressEngine.enqueue_deferred",
        "repro.runtime.progress:ProgressEngine.enqueue_lpc",
        "repro.runtime.progress:ProgressEngine.has_pending",
    ),
    "runtime.sched": (
        "repro.runtime.event_loop:EventLoopScheduler.run",
    ),
    "sim": (
        "repro.sim.costmodel:CostModel.charge",
        "repro.sim.costmodel:CostModel.charge_bytes",
        "repro.runtime.context:RankContext.charge",
        "repro.runtime.context:RankContext.charge_bytes",
        "repro.sim.clock:VirtualClock.advance",
        "repro.sim.clock:VirtualClock.advance_to",
    ),
}

#: the rank-body resume; its spans go to the workload's body layer
RESUME = "repro.runtime.event_loop:_GenTask.resume"
#: entry points whose calls also account the charged CostAction
CHARGES = ("repro.sim.costmodel:CostModel.charge",
           "repro.sim.costmodel:CostModel.charge_bytes")

#: CostAction name -> owning layer, following the section comments of
#: ``repro.sim.costmodel.CostAction``
ACTION_LAYERS = {
    # heap traffic
    "HEAP_ALLOC_PROMISE_CELL": "memory",
    "HEAP_ALLOC_OP_DESCRIPTOR": "memory",
    "HEAP_FREE": "memory",
    # progress engine
    "PROGRESS_QUEUE_ENQUEUE": "runtime.progress",
    "PROGRESS_DISPATCH": "runtime.progress",
    "PROGRESS_POLL": "runtime.progress",
    "PROGRESS_ADAPT": "runtime.progress",
    "PROGRESS_POLL_SKIP": "runtime.progress",
    "PROGRESS_HINT_SCAN": "runtime.progress",
    # future / promise machinery and notifiable completions
    "FUTURE_READY_CHECK": "core",
    "FUTURE_CALLBACK_SCHEDULE": "core",
    "WHEN_ALL_NODE_BUILD": "core",
    "DEP_GRAPH_RESOLVE_EDGE": "core",
    "PROMISE_REGISTER": "core",
    "PROMISE_FULFILL": "core",
    "CX_CONTINUATION_DISPATCH": "core",
    "CX_COUNTER_SIGNAL": "core",
    "CX_COUNTER_TRIP": "core",
    # pointer / dispatch
    "LOCALITY_BRANCH": "memory",
    "GPTR_DOWNCAST": "memory",
    "RMA_CALL_OVERHEAD": "rma",
    "AMO_CALL_OVERHEAD": "atomics",
    "COMPLETION_PROCESS": "core",
    # data movement
    "MEMCPY_8B": "memory",
    "MEMCPY_PER_BYTE": "memory",
    "CPU_ATOMIC_RMW": "atomics",
    "CPU_LOAD": "memory",
    "CPU_STORE": "memory",
    "DRAM_RANDOM_ACCESS": "memory",
    "AMO_CONTENTION_PER_PEER": "atomics",
    # active messages / network
    "AM_INJECT": "gasnet",
    "AM_POLL": "gasnet",
    "AM_EXECUTE": "gasnet",
    "NETWORK_LATENCY": "gasnet",
    "RPC_SERIALIZE_PER_BYTE": "rpc",
    "AM_AGG_APPEND": "gasnet",
    "AM_BUNDLE_HEADER": "gasnet",
    "AM_BUNDLE_ENTRY_DISPATCH": "gasnet",
    "AM_AGG_ADAPT": "gasnet",
    "AM_BUNDLE_COMPRESS": "gasnet",
    # misc
    "LPC_ENQUEUE": "runtime.progress",
    "BARRIER": "runtime.sched",
    "FUNCTION_CALL": "apps",
}


#: spans kept for the trace artifact (totals cover every span)
MAX_SPANS = 20_000

_OUTSIDE = -1  # parent id of a span opened outside any other span
_PLAIN, _CHARGE = 0, 1  # wrapper kinds, calibrated separately


def _resolve(entry: str):
    """``(owner, attr, function)`` for ``"module:qualname"``; raises
    ``LookupError`` when the entry point does not exist (any more)."""
    modname, _, qualname = entry.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError as exc:
        raise LookupError(f"no module {modname}") from exc
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"no {part} in {modname}")
    fn = inspect.getattr_static(owner, attr, None)
    if fn is None:
        raise LookupError(f"no {qualname} in {modname}")
    if not inspect.isfunction(fn):
        raise LookupError(f"{qualname} is not a plain function")
    return owner, attr, fn


_WRAPPER = """
def wrapper({params}):
    sid = _next(_next_sid)
    _child_ns.append(0)
    _span_ids.append(sid)
    _span_layers.append(_li)
    t0 = _clock()
    try:
        out = _fn({call})
{extra}        return out
    finally:
        t1 = _clock()
        d = t1 - t0
        _self_ns[_li] += d - _child_ns.pop()
        _child_ns[-1] += d
        _span_ids.pop()
        _span_layers.pop()
        _children[_span_layers[-1]] += 1
        _entry_calls[_ei] += 1
        if sid < _cap:
            _spans.append((sid, _li, _name, t0, t1, _span_ids[-1]))
"""

# the charged action is keyed by name, or by itself once it has none
_CHARGE_ACCOUNTING = """\
        key = getattr({action}, "_name_", {action})
        _action_vns[key] = _action_vns.get(key, 0.0) + out
        _action_count[key] = _action_count.get(key, 0) + {count}
"""

_RESUME_ACCOUNTING = """\
        if {task} is not _last_task[0]:
            _last_task[0] = {task}
            _task_changes[0] += 1
"""


def _signature(fn):
    """``(parameter list, call arguments, parameter names, defaults)``
    reproducing ``fn``'s signature in generated code."""
    kinds = inspect.Parameter
    plist = list(inspect.signature(fn).parameters.values())
    params, call, defaults = [], [], {}
    star = False
    for i, p in enumerate(plist):
        if p.kind is kinds.VAR_POSITIONAL:
            params.append("*" + p.name)
            call.append("*" + p.name)
            star = True
            continue
        if p.kind is kinds.VAR_KEYWORD:
            params.append("**" + p.name)
            call.append("**" + p.name)
            continue
        if p.kind is kinds.KEYWORD_ONLY and not star:
            params.append("*")
            star = True
        text = p.name
        if p.default is not p.empty:
            defaults[f"_d{i}"] = p.default
            text += f"=_d{i}"
        params.append(text)
        call.append(f"{p.name}={p.name}" if p.kind is kinds.KEYWORD_ONLY
                    else p.name)
        if p.kind is kinds.POSITIONAL_ONLY and (
                i + 1 == len(plist)
                or plist[i + 1].kind is not kinds.POSITIONAL_ONLY):
            params.append("/")
    return ", ".join(params), ", ".join(call), [p.name for p in plist], \
        defaults


class Tracer:
    """Per-layer wall self time, call counts and charged virtual time.

    ``install()`` patches the entry points and ``uninstall()`` puts every
    original function object back (``with Tracer(...):`` does both).
    Totals accumulate over everything run while installed.
    ``span_cost`` is the per-span wrapper cost as :func:`calibrate` gives
    it.
    """

    def __init__(self, body_layer: str, *, span_cost,
                 max_spans: int = MAX_SPANS):
        self.body_layer = body_layer
        self.max_spans = max_spans
        self._layer_index = {name: i for i, name in enumerate(ALL_LAYERS)}
        n = len(ALL_LAYERS)
        self._self_ns = [0] * n
        #: spans opened whose parent is in this layer
        self._children = [0] * n
        #: per wrapped entry point: (layer index, name, kind)
        self._entries: list[tuple[int, str, int]] = []
        self._entry_calls: list[int] = []
        #: open spans: child ns, span id, layer index (ints only, so a span
        #: allocates nothing the garbage collector tracks); the bottom
        #: entries stand for "outside every span"
        self._stacks = ([0], [_OUTSIDE], [self._layer_index[TRACE]])
        self._next_sid = itertools.count()
        #: kept spans: (span id, layer index, entry name, t0 ns, t1 ns,
        #: parent span id)
        self.spans: list[tuple] = []
        #: CostAction name -> occurrences charged / virtual ns charged
        self.action_count: dict = {}
        self.action_vns: dict = {}
        self._task_changes = [0]
        self._patches: list[tuple] = []
        self.unwrapped: list[str] = []
        self.span_in_ns, self.span_out_ns = span_cost

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, kind: int = _PLAIN,
              resume: bool = False):
        """A wrapper with ``fn``'s own signature: calls through a
        ``*args, **kwargs`` wrapper would allocate a tuple per span, which
        the garbage collector tracks, and slow the traced run unevenly."""
        li = self._layer_index[layer]
        ei = len(self._entries)
        self._entries.append((li, name, kind))
        self._entry_calls.append(0)
        params, call, names, defaults = _signature(fn)
        extra = ""
        if kind == _CHARGE:
            action = names[1]
            count = ("1" if fn.__name__ == "charge_bytes" or len(names) < 3
                     else names[2])
            extra = _CHARGE_ACCOUNTING.format(action=action, count=count)
        elif resume:
            extra = _RESUME_ACCOUNTING.format(task=names[0])
        child_ns, span_ids, span_layers = self._stacks
        namespace = dict(
            defaults, _fn=fn, _li=li, _ei=ei, _name=name,
            _next=next, _next_sid=self._next_sid, _clock=time.perf_counter_ns,
            _child_ns=child_ns, _span_ids=span_ids, _span_layers=span_layers,
            _self_ns=self._self_ns, _children=self._children,
            _entry_calls=self._entry_calls, _spans=self.spans,
            _cap=self.max_spans, _action_vns=self.action_vns,
            _action_count=self.action_count, _last_task=[None],
            _task_changes=self._task_changes,
        )
        exec(_WRAPPER.format(params=params, call=call, extra=extra),
             namespace)
        wrapper = namespace["wrapper"]
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> "Tracer":
        targets = [(entry, layer) for layer, entries in ENTRY_POINTS.items()
                   for entry in entries]
        targets.append((RESUME, self.body_layer))
        for entry, layer in targets:
            try:
                owner, attr, fn = _resolve(entry)
            except LookupError as exc:
                self.unwrapped.append(f"{entry}: {exc}")
                continue
            if inspect.isgeneratorfunction(fn):
                self.unwrapped.append(f"{entry}: generator function")
                continue
            wrapper = self._wrap(fn, layer, entry.partition(":")[2],
                                 _CHARGE if entry in CHARGES else _PLAIN,
                                 resume=entry == RESUME)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                for mod in repro_modules():
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, name, wrapper)
        return self

    def _patch(self, owner, attr, wrapper) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def entry_calls(self) -> dict:
        """Calls per wrapped entry point (by qualified name)."""
        out: Counter = Counter()
        for (_, name, _), n in zip(self._entries, self._entry_calls):
            out[name] += n
        return dict(out)

    def layer_calls(self) -> dict:
        """Calls to each layer's wrapped entry points."""
        out = dict.fromkeys(ALL_LAYERS, 0)
        for (li, _, _), n in zip(self._entries, self._entry_calls):
            out[ALL_LAYERS[li]] += n
        return out

    def self_seconds(self, overhead_s: float | None = None) -> dict:
        """Per-layer wall self time in seconds.

        The wrapper cost is moved out of the layers into ``trace``: each
        span's own duration holds ``span_in_ns`` of its wrapper, and its
        parent's self time holds ``span_out_ns``.  No-op calibration fixes
        these costs relative to each other; given ``overhead_s``, the
        measured traced-minus-untraced wall time of the same work, they
        are scaled to add up to it (in a real run a span costs more than
        on a no-op in a tight loop).
        """
        cost = [0.0] * len(ALL_LAYERS)
        for (li, _, kind), n in zip(self._entries, self._entry_calls):
            cost[li] += n * self.span_in_ns[kind]
        ti = self._layer_index[TRACE]
        for li, n in enumerate(self._children):
            if li != ti:
                cost[li] += n * self.span_out_ns
        total = sum(cost)
        scale = 1.0
        if overhead_s is not None and total > 0:
            scale = overhead_s * 1e9 / total
        out = {layer: (self._self_ns[li] - scale * cost[li]) / 1e9
               for li, layer in enumerate(ALL_LAYERS)}
        out[TRACE] = scale * total / 1e9
        return out

    def spans_wall_s(self) -> float:
        """Wall time inside outermost spans (the sum of raw self times)."""
        return sum(self._self_ns) / 1e9

    def layer_vns(self) -> dict:
        """Virtual ns charged per owning layer, summed over ranks."""
        out = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        for action, vns in self.action_vns.items():
            out[ACTION_LAYERS.get(action, OTHER)] += vns
        return out

    def switches(self) -> int:
        """Scheduler switches: changes of the resumed rank body, minus the
        first resume of each scheduler run."""
        runs = self.entry_calls().get("EventLoopScheduler.run", 0)
        return self._task_changes[0] - runs

    def chrome_trace(self, title: str, totals: dict) -> dict:
        """The kept spans as Chrome/Perfetto trace events (wall clock, one
        thread), with the per-layer totals in ``otherData``."""
        base = min((s[3] for s in self.spans), default=0)
        events = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": title}},
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "simulator thread (wall clock)"}},
        ]
        for sid, li, name, t0, t1, parent in sorted(self.spans):
            events.append({
                "name": name, "cat": ALL_LAYERS[li], "ph": "X",
                "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
                "pid": 0, "tid": 0,
                "args": {"sid": sid, "parent": parent},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {
                "source": "perfbench",
                "clock": "wall",
                "spans_total": sum(self._entry_calls),
                "spans_kept": len(self.spans),
                "layers": totals,
                "unwrapped": self.unwrapped,
            },
        }


def is_timed(metric: str) -> bool:
    """Whether a per-layer metric is a wall-time measurement; the others
    are counts and virtual values, which repeat exactly."""
    return metric.endswith(".self_s") or metric in (
        "sim.ns_per_charge", "trace_overhead_frac")


def metric_unit(metric: str) -> str:
    """Unit of a per-layer metric (virtual ns are reported as ``vns``)."""
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith(".vns"):
        return "vns"
    return {"sim.ns_per_charge": "ns", "serve.queue_p99_ns": "vns",
            "trace_overhead_frac": "frac",
            "runtime.progress.dispatch_per_poll": "ratio",
            "gasnet.entries_per_bundle": "ratio"}.get(metric, "count")


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float,
                  layer_virtual: dict) -> dict:
    """The per-layer metrics of one traced run.  ``traced_s`` and
    ``untraced_s`` are wall times of the same work with and without the
    tracer; ``layer_virtual`` holds virtual values the workload reports
    for a layer (the serve queue p99)."""
    self_s = tracer.self_seconds(overhead_s=traced_s - untraced_s)
    calls = tracer.layer_calls()
    vns = tracer.layer_vns()
    entry = tracer.entry_calls()
    actions = tracer.action_count
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.vns"] = vns[layer]
    out[f"{OTHER}.vns"] = vns[OTHER]
    out[f"{TRACE}.self_s"] = self_s[TRACE]
    polls = entry.get("ProgressEngine.progress", 0)
    dispatches = actions.get("PROGRESS_DISPATCH", 0)
    bundles = actions.get("AM_BUNDLE_HEADER", 0)
    charges = (entry.get("CostModel.charge", 0)
               + entry.get("CostModel.charge_bytes", 0))
    out.update({
        "runtime.progress.polls": polls,
        "runtime.progress.dispatches": dispatches,
        "runtime.progress.dispatch_per_poll":
            dispatches / polls if polls else 0.0,
        "core.cells": actions.get("HEAP_ALLOC_PROMISE_CELL", 0),
        "core.when_all_nodes": actions.get("WHEN_ALL_NODE_BUILD", 0),
        "gasnet.am_injects": actions.get("AM_INJECT", 0),
        "gasnet.bundles": bundles,
        "gasnet.entries_per_bundle":
            actions.get("AM_AGG_APPEND", 0) / bundles if bundles else 0.0,
        "runtime.sched.switches": tracer.switches(),
        "sim.charges": charges,
        "sim.ns_per_charge":
            self_s["sim"] * 1e9 / charges if charges else 0.0,
        "serve.queue_p99_ns": layer_virtual.get("serve.queue_p99_ns", 0.0),
        "trace_overhead_frac": traced_s / untraced_s - 1.0,
    })
    return out


def import_entry_modules() -> None:
    """Import every module that holds an entry point (those that exist)."""
    for entry in [e for es in ENTRY_POINTS.values() for e in es] + [RESUME]:
        try:
            importlib.import_module(entry.partition(":")[0])
        except ImportError:
            pass


def repro_modules() -> list:
    """The imported ``repro`` package and its submodules."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


class _Action:
    _name_ = "CALIBRATE"


def calibrate(trials: int = 7, n: int = 20_000):
    """``(in_ns by kind, out_ns)``: the wrapper's cost per span inside the
    span's own duration, for plain and charge wrappers, and outside it
    (billed to the parent).  Timed on wrapped no-ops against bare ones;
    the minimum over ``trials`` rejects interference."""
    def noop(self=None, action=None, times=1):
        return 0.0

    clock = time.perf_counter_ns
    action = _Action()
    best_in = [float("inf"), float("inf")]
    best_out = float("inf")
    for _ in range(trials):
        t0 = clock()
        for _ in range(n):
            pass
        empty = clock() - t0
        t0 = clock()
        for _ in range(n):
            noop(None, action, 1)
        bare = clock() - t0
        for kind in (_PLAIN, _CHARGE):
            probe = Tracer(TRACE, max_spans=0, span_cost=((0, 0), 0))
            wrapped = probe._wrap(noop, TRACE, "noop", kind)
            t0 = clock()
            for _ in range(n):
                wrapped(None, action, 1)
            total = clock() - t0
            inside = probe._self_ns[ALL_LAYERS.index(TRACE)] / n
            # the span's own duration also holds the call of the no-op,
            # which the bare loop pays too
            extra_in = max(0.0, inside - (bare - empty) / n)
            best_in[kind] = min(best_in[kind], extra_in)
            if kind == _PLAIN:
                best_out = min(best_out,
                               max(0.0, (total - bare) / n - extra_in))
    return tuple(best_in), best_out

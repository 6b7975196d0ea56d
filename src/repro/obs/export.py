"""Chrome/Perfetto trace-event exporter for operation spans.

Emits the JSON object format of the Trace Event specification (the
format both ``chrome://tracing`` and https://ui.perfetto.dev load):

* one ``ph: "X"`` (complete) event per span, ``ts``/``dur`` in
  microseconds, ``pid`` = simulated node, ``tid`` = rank;
* ``ph: "i"`` (instant) events for the transfer-complete and
  notification-dispatched phase marks, so the notification gap is
  visible as the distance between the two ticks inside a span bar;
* ``ph: "C"`` (counter) events for the deferred-queue depth samples
  taken at each ``progress()`` entry;
* one ``ph: "X"`` bar per serving :class:`~repro.obs.request.RequestSpan`
  (admit → complete, category ``request``) plus ``ph: "i"`` instants for
  the request *arrival* (which may precede the bar under backlog — the
  visible gap is the queueing delay) and for the request's *SLO
  deadline*, so a bar crossing its deadline tick reads directly as an
  SLO miss;
* ``ph: "M"`` metadata naming processes ("node N") and threads
  ("rank R").

:func:`validate_trace_events` structurally checks a document against the
subset of the schema the viewers require (well-formed ``ph``/``ts``/
``pid``/``tid``), which CI runs on every exported artifact.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Union

from repro.obs.span import ObsSnapshot

_NS_PER_US = 1000.0

#: Event phase types this exporter emits plus the common ones viewers
#: accept; used by the validator.
_KNOWN_PHASES = frozenset("XiICMBEbesnOND")


def trace_events(
    snapshots: Iterable[ObsSnapshot],
    *,
    phase_instants: bool = True,
    depth_counters: bool = True,
    request_events: bool = True,
) -> list[dict]:
    """Build the ``traceEvents`` list for a set of per-rank snapshots."""
    events: list[dict] = []
    seen_nodes: set[int] = set()
    snaps = list(snapshots)

    for snap in snaps:
        if snap.node not in seen_nodes:
            seen_nodes.add(snap.node)
            events.append({
                "name": "process_name",
                "ph": "M",
                "pid": snap.node,
                "tid": 0,
                "args": {"name": f"node {snap.node}"},
            })
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": snap.node,
            "tid": snap.rank,
            "args": {"name": f"rank {snap.rank}"},
        })

    for snap in snaps:
        pid, tid = snap.node, snap.rank
        for span in snap.spans:
            gap = span.notification_gap_ns
            events.append({
                "name": span.op,
                "cat": f"{span.mode},{span.locality}",
                "ph": "X",
                "ts": span.t_init / _NS_PER_US,
                "dur": span.duration_ns / _NS_PER_US,
                "pid": pid,
                "tid": tid,
                "args": {
                    "sid": span.sid,
                    "target": span.target,
                    "nbytes": span.nbytes,
                    "mode": span.mode,
                    "locality": span.locality,
                    "notification_gap_ns": gap,
                    "t_injected_ns": span.t_injected,
                    "t_transfer_ns": span.t_transfer,
                    "t_dispatched_ns": span.t_dispatched,
                    "t_waited_ns": span.t_waited,
                },
            })
            if phase_instants:
                if span.t_transfer is not None:
                    events.append({
                        "name": f"{span.op}:transfer_complete",
                        "cat": "phase",
                        "ph": "i",
                        "s": "t",
                        "ts": span.t_transfer / _NS_PER_US,
                        "pid": pid,
                        "tid": tid,
                        "args": {"sid": span.sid},
                    })
                if span.t_dispatched is not None:
                    events.append({
                        "name": f"{span.op}:notification_dispatched",
                        "cat": "phase",
                        "ph": "i",
                        "s": "t",
                        "ts": span.t_dispatched / _NS_PER_US,
                        "pid": pid,
                        "tid": tid,
                        "args": {"sid": span.sid, "gap_ns": gap},
                    })
        if request_events:
            for req in snap.request_spans:
                start = (
                    req.t_admit if req.t_admit is not None else req.t_arrival
                )
                end = req.end_ns
                events.append({
                    "name": f"req:{req.op}",
                    "cat": f"request,{req.kclass}",
                    "ph": "X",
                    "ts": start / _NS_PER_US,
                    "dur": max(0.0, end - start) / _NS_PER_US,
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "rid": req.rid,
                        "key": req.key,
                        "kclass": req.kclass,
                        "t_arrival_ns": req.t_arrival,
                        "queue_ns": req.queue_ns,
                        "latency_ns": req.latency_ns,
                        "slo_deadline_ns": req.slo_deadline_ns,
                        "slo_missed": req.slo_missed,
                        "op_sids": list(req.op_sids),
                    },
                })
                # Arrival tick: under backlog it lands *before* the bar —
                # the visible gap is the request's queueing delay.
                events.append({
                    "name": "request:arrival",
                    "cat": "request",
                    "ph": "i",
                    "s": "t",
                    "ts": req.t_arrival / _NS_PER_US,
                    "pid": pid,
                    "tid": tid,
                    "args": {"rid": req.rid, "kclass": req.kclass},
                })
                if req.slo_deadline_ns is not None:
                    events.append({
                        "name": "request:slo_deadline",
                        "cat": "request",
                        "ph": "i",
                        "s": "t",
                        "ts": req.slo_deadline_ns / _NS_PER_US,
                        "pid": pid,
                        "tid": tid,
                        "args": {
                            "rid": req.rid,
                            "missed": req.slo_missed,
                        },
                    })
        if depth_counters:
            for t_ns, depth in snap.depth_samples:
                events.append({
                    "name": f"deferred_queue_depth.rank{snap.rank}",
                    "ph": "C",
                    "ts": t_ns / _NS_PER_US,
                    "pid": pid,
                    "tid": tid,
                    "args": {"depth": depth},
                })

    # Metadata first, then everything else in timestamp order — both
    # viewers sort anyway, but deterministic output diffs cleanly.
    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0)))
    return events


def chrome_trace(
    snapshots: Iterable[ObsSnapshot],
    *,
    phase_instants: bool = True,
    depth_counters: bool = True,
    request_events: bool = True,
) -> dict:
    """The full JSON-object-format trace document."""
    return {
        "traceEvents": trace_events(
            snapshots,
            phase_instants=phase_instants,
            depth_counters=depth_counters,
            request_events=request_events,
        ),
        "displayTimeUnit": "ns",
        "otherData": {"source": "repro.obs", "clock": "virtual"},
    }


def write_chrome_trace(
    path: str,
    snapshots: Iterable[ObsSnapshot],
    *,
    indent: Optional[int] = None,
) -> dict:
    """Serialize :func:`chrome_trace` to ``path``; returns the document."""
    doc = chrome_trace(snapshots)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=indent)
        f.write("\n")
    return doc


def validate_trace_events(doc: Union[dict, list]) -> list[str]:
    """Structurally validate a trace document.

    Returns a list of problems (empty means the document is well-formed
    enough for chrome://tracing and ui.perfetto.dev to load).
    """
    errors: list[str] = []
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            return ["document has no 'traceEvents' list"]
    elif isinstance(doc, list):
        events = doc
    else:
        return [f"expected dict or list at top level, got {type(doc).__name__}"]

    # An empty traceEvents list is structurally valid: both viewers load
    # it (showing nothing), and an empty *run* — zero ops, zero spans —
    # legitimately exports one.  Truncation is reported by the exporter's
    # own accounting (ObsSnapshot.spans_dropped), not guessed at here.
    for i, ev in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or ph not in _KNOWN_PHASES:
            errors.append(f"{where}: bad ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            errors.append(f"{where}: missing/non-string name")
        if not isinstance(ev.get("pid"), int):
            errors.append(f"{where}: missing/non-int pid")
        if not isinstance(ev.get("tid"), int):
            errors.append(f"{where}: missing/non-int tid")
        if ph == "M":
            continue  # metadata carries no timestamp
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: missing/negative ts {ts!r}")
        if ph == "i":
            scope = ev.get("s", "t")
            if scope not in ("t", "p", "g"):
                errors.append(f"{where}: ph=i bad scope {scope!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: ph=X missing/negative dur {dur!r}")
    return errors

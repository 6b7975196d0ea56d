"""Run the repo benchmark: simulator wall time, set-up time and memory on
fixed workloads, the exact virtual-time results they produce, and a traced
run that attributes wall time to layers.

Usage (from the repository root)::

    python3 perfbench/run.py [--seed N] [--seconds S] [--out PATH]
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out PATH]

Without ``--workload`` every workload runs untraced, then once traced, and
every metric is printed by name with its unit.  With ``--workload`` one
workload runs, untraced (``--trace 0``, giving the end-to-end metrics of
``BENCHMARK.json``) or traced (``--trace 1``, giving its per-layer
metrics), and the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero when an output fails verification.

All load runs in fresh child interpreters of this script, one at a time,
each on one OS thread.  The program is imported from ``src/`` beside this
directory, so nothing needs installing.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SPEC = ROOT / "BENCHMARK.json"

#: fresh interpreters timed for ``setup_s`` (the median is reported)
SETUPS = 7
#: nominal time of :func:`reference_job`, near the fastest it ran on a
#: 2-vCPU VM.  Timed metrics are scaled to the machine speed at which the
#: job takes this long.
REF_S = 0.070
#: fewest timed repetitions in a run, however short ``--seconds`` is
MIN_REPS = 3
#: untraced repetitions that give a traced run its baseline
BASELINE_REPS = 3
#: outermost spans must cover a traced repetition's wall time this well
ACCOUNTING_TOLERANCE = 0.05
#: a child may take this long beyond the seconds it measures
CHILD_SLACK_S = 90

_CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def rep_estimate(rep_s: list[float]) -> float:
    """Wall seconds per repetition: the mean of the fastest third.

    Interference from other tenants of the machine only ever adds time,
    so the slow repetitions carry the noise and the fast ones the
    program's cost (the paper keeps the best 10 of 20 samples for the
    same reason).
    """
    best = sorted(rep_s)[: max(1, len(rep_s) // 3)]
    return statistics.fmean(best)


class _Node:
    __slots__ = ("key", "next", "data")


def reference_job(n: int = 100_000) -> int:
    """A fixed pure-Python job timed before every repetition: allocation,
    attribute and dict access, and pointer chasing over a working set of
    about 25 MB.  It is not the program, so its time follows only the
    machine's speed."""
    nodes = []
    for i in range(n):
        node = _Node()
        node.key, node.data = i, {"k": i}
        nodes.append(node)
    for i, node in enumerate(nodes):
        node.next = nodes[(i * 7919 + 13) % n]
    seen: dict[int, int] = {}
    node, acc = nodes[0], 0
    for _ in range(n):
        acc ^= node.data["k"]
        seen[node.key & 16383] = acc
        node = node.next
    return acc


def speed_factor(ref_s: list[float]) -> float:
    """How much faster than nominal the machine ran: :data:`REF_S` over
    the reference job's time (same estimator as the repetitions)."""
    return REF_S / rep_estimate(ref_s) if ref_s else 1.0


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


# ---------------------------------------------------------------------------
# child side: runs inside a fresh interpreter
# ---------------------------------------------------------------------------


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"not from {SRC}")


def _timed_run(workload, seed: int, problems: list, reference=None):
    """One timed run: ``(seconds, outcome)``, outcome None if it raised.
    Failed checks are appended to ``problems``; with a ``reference``
    outcome the run must repeat its virtual results bit for bit."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        result = workload.execute(seed, workload.ops_per_rank)
    except Exception as exc:  # a failing workload is a result, not a crash
        problems.append(f"run raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, None
    elapsed = time.perf_counter() - t0
    outcome = workload.verify(result, seed, workload.ops_per_rank)
    if threading.active_count() != 1:
        problems.append(f"{threading.active_count()} threads alive after a "
                        "run: a rank body ran on the thread shim")
    if not outcome.ok:
        problems.append(outcome.problem)
    elif (reference is not None
          and outcome.fingerprint != reference.fingerprint):
        problems.append("virtual results differ from the first run: "
                        f"{outcome.fingerprint} != {reference.fingerprint}")
    return elapsed, outcome


def child_setup(workload, seed: int) -> dict:
    """Import plus one minimal run (one operation per rank)."""
    outcome = workload.run(seed, 1)
    return {"problems": [] if outcome.ok else [outcome.problem]}


def child_measure(workload, seed: int, seconds: float,
                  setups: int = 0) -> dict:
    """A warm-up run, then timed repetitions until they add up to
    ``seconds``, each after one timed :func:`reference_job`.  ``setups``
    fresh interpreters are timed between repetitions, spread over the
    run, so that no one burst of interference slows them all."""
    problems: list[str] = []
    warmup_s, first = _timed_run(workload, seed, problems)
    # the program's peak, before the reference job adds its own memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rep_s: list[float] = []
    ref_s: list[float] = []
    setup_s: list[float] = []
    failed_reps = 0 if first is not None else 1
    every = max(1, int(seconds / max(warmup_s, 1e-3)) // max(1, setups))
    while first is not None and (len(rep_s) < MIN_REPS
                                 or sum(rep_s) < seconds):
        gc.collect()
        t0 = time.perf_counter()
        reference_job()
        ref_s.append(time.perf_counter() - t0)
        before = len(problems)
        elapsed, outcome = _timed_run(workload, seed, problems, first)
        rep_s.append(elapsed)
        failed_reps += len(problems) > before
        if outcome is None:
            break
        if len(setup_s) < setups and len(rep_s) % every == 0:
            setup_s.append(_time_setup(workload.name, seed, problems))
    while len(setup_s) < setups:
        setup_s.append(_time_setup(workload.name, seed, problems))
    return {
        "problems": problems,
        "ops": workload.ranks * workload.ops_per_rank,
        "reps": max(1, len(rep_s)),
        "failed_reps": failed_reps,
        "rep_s": rep_s,
        "ref_s": ref_s,
        "setup_s": setup_s,
        "virtual": first.virtual if first else {"failed_frac": 1.0},
        "layer_virtual": first.layer_virtual if first else {},
        "peak_rss_mb": peak_rss_mb,
    }


def _time_setup(name: str, seed: int, problems: list) -> float:
    """Wall seconds of one set-up interpreter (its own run, not ours)."""
    wall, out = _child("setup", seed, name)
    problems += out["problems"]
    return wall


def child_trace(workload, seed: int, seconds: float,
                results: Path = RESULTS) -> dict:
    """Untraced baseline repetitions, then traced ones for ``seconds``.
    Per-layer times are medians over the traced repetitions; counts must
    repeat exactly, and so must every virtual result.  The first traced
    repetition is written to ``results`` as a Chrome/Perfetto trace."""
    from layers import Tracer, calibrate, is_timed, layer_metrics

    from repro.obs import validate_trace_events

    problems: list[str] = []
    out = {"problems": problems,
           "ops": workload.ranks * workload.ops_per_rank,
           "reps": 1, "failed_reps": 1, "metrics": {}}
    _, first = _timed_run(workload, seed, problems)
    if first is None:
        return out
    untraced_s = statistics.median(
        _timed_run(workload, seed, problems, first)[0]
        for _ in range(BASELINE_REPS))

    span_cost = calibrate()
    functions = _function_objects()
    per_rep: list[dict] = []
    failed_reps = 0
    start = time.perf_counter()
    while len(per_rep) < MIN_REPS or time.perf_counter() - start < seconds:
        before = len(problems)
        tracer = Tracer(workload.body_layer, span_cost=span_cost)
        with tracer:
            elapsed, outcome = _timed_run(workload, seed, problems, first)
        if _function_objects() != functions:
            problems.append("tracing left a wrapped function in place")
        inside = tracer.spans_wall_s()
        if abs(inside - elapsed) > ACCOUNTING_TOLERANCE * elapsed:
            problems.append(f"spans cover {inside:.4f} s of a "
                            f"{elapsed:.4f} s traced run")
        failed_reps += len(problems) > before
        if outcome is None:
            break
        per_rep.append(layer_metrics(tracer, elapsed, untraced_s,
                                     outcome.layer_virtual))
        if len(per_rep) == 1:
            artifact = tracer.chrome_trace(
                f"perfbench {workload.name} seed {seed}", per_rep[0])
            out["unwrapped"] = tracer.unwrapped
    out.update(reps=max(1, len(per_rep)), failed_reps=failed_reps)
    if not per_rep:
        return out

    for key in per_rep[0]:
        values = [m[key] for m in per_rep]
        if not is_timed(key) and any(v != values[0] for v in values):
            problems.append(f"{key} differs between traced runs: {values}")
        out["metrics"][key] = statistics.median(values)
    problems += [f"trace artifact: {e}"
                 for e in validate_trace_events(artifact)[:3]]
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}.trace.json"
    path.write_text(json.dumps(artifact) + "\n")
    out["trace"] = str(path)
    return out


def _function_objects() -> dict:
    """Every function of a ``repro`` module or class, by where it lives
    (tracing must leave each of them in place)."""
    from layers import import_entry_modules, repro_modules

    import_entry_modules()
    out = {}
    for mod in repro_modules():
        for name, value in vars(mod).items():
            if inspect.isfunction(value):
                out[mod.__name__, name] = value
            elif isinstance(value, type):
                for attr, fn in vars(value).items():
                    if inspect.isfunction(fn):
                        out[mod.__name__, name, attr] = fn
    return out


def child_ladder(seed: int) -> dict:
    from workloads import serve_max_rate

    return {"problems": [], "virt_max_rate_rps": serve_max_rate(seed)}


def child_main(args) -> int:
    _import_program()
    from workloads import WORKLOADS

    if args.child == "ladder":
        out = child_ladder(args.seed)
    else:
        workload = WORKLOADS[args.workload]
        if args.child == "setup":
            out = child_setup(workload, args.seed)
        elif args.child == "measure":
            out = child_measure(workload, args.seed, args.seconds, SETUPS)
        else:
            out = child_trace(workload, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _child(kind: str, seed: int, workload: str = "", seconds: float = 0.0):
    """Run one child interpreter; ``(wall seconds, its result)``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", kind,
           "--seed", str(seed), "--seconds", str(seconds)]
    if workload:
        cmd += ["--workload", workload]
    env = dict(os.environ, **_CHILD_ENV)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              text=True, timeout=seconds + CHILD_SLACK_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return time.perf_counter() - t0, {
            "problems": [f"{kind} child ran out of time"]}
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return wall, {"problems": [
            f"{kind} child exited with code {proc.returncode}"]}
    return wall, json.loads(lines[-1])


def untraced_result(measured: dict) -> dict:
    """The end-to-end result of one workload from its measuring child.
    Timed metrics are scaled to the nominal machine speed; the wall
    values as measured are kept beside them."""
    problems = measured["problems"]
    rep_s = measured.get("rep_s", [])
    setup_s = measured.get("setup_s") or [0.0]
    ops = measured.get("ops", 1)
    speed = speed_factor(measured.get("ref_s", []))
    wall_ops_per_s = ops / rep_estimate(rep_s) if rep_s else 0.0
    wall_setup_s = statistics.median(setup_s)
    metrics = {
        "sim_ops_per_s": wall_ops_per_s / speed,
        "setup_s": wall_setup_s * speed,
        "peak_rss_mb": measured.get("peak_rss_mb", 0.0),
        "wall_ops_per_s": wall_ops_per_s,
        "wall_setup_s": wall_setup_s,
        "machine_speed": speed,
    }
    metrics.update(measured.get("virtual", {"failed_frac": 1.0}))
    metrics.update(measured.get("layer_virtual", {}))
    return {
        "correct": not problems,
        "attempted": ops * measured.get("reps", 1),
        "failed": ops * measured.get("failed_reps", 1),
        "metrics": metrics,
        "samples": {"rep_s": rep_s, "ref_s": measured.get("ref_s", []),
                    "setup_s": setup_s},
        "problems": problems,
    }


def traced_result(traced: dict) -> dict:
    """The per-layer result of one workload from its tracing child."""
    ops = traced.get("ops", 1)
    return {
        "correct": not traced["problems"],
        "attempted": ops * traced.get("reps", 1),
        "failed": ops * traced.get("failed_reps", 1),
        "metrics": traced.get("metrics", {}),
        "problems": traced["problems"],
        "unwrapped": traced.get("unwrapped", []),
        "trace": traced.get("trace"),
    }


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    return untraced_result(_child("measure", seed, name, seconds)[1])


def run_traced(name: str, seed: int, seconds: float) -> dict:
    return traced_result(_child("trace", seed, name, seconds)[1])


def result_line(result: dict, declared: list[dict]) -> dict:
    """The one-line JSON result: exactly the declared metrics.  A declared
    metric the run did not produce makes the result incorrect."""
    metrics = {m["name"]: {"value": result["metrics"][m["name"]],
                           "unit": m["unit"]}
               for m in declared if m["name"] in result["metrics"]}
    complete = len(metrics) == len(declared)
    return {"correct": result["correct"] and complete,
            "attempted": max(1, result["attempted"]),
            "failed": result["failed"] if complete
            else max(1, result["attempted"]),
            "metrics": metrics}


def unit_lookup(spec: dict):
    """A function giving ``(unit, better)`` for any metric the runner
    reports."""
    from layers import metric_unit
    from workloads import VIRTUAL_METRICS

    units = {m["name"]: (m["unit"], m["better"])
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({n: (u, b) for n, u, b in VIRTUAL_METRICS})
    units.update(wall_ops_per_s=("1/s", "higher"), wall_setup_s=("s", "lower"),
                 machine_speed=("ratio", "higher"))
    return lambda name: units.get(name, (metric_unit(name), "lower"))


def print_result(name: str, result: dict, unit_of) -> None:
    print(f"{name}: {'correct' if result['correct'] else 'FAILED'}")
    for key in sorted(result["metrics"]):
        value = result["metrics"][key]
        text = (str(value) if isinstance(value, int)
                else f"{value:.6g}")
        print(f"  {key:36s} {text:>14s} {unit_of(key)[0]}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    for entry in result.get("unwrapped", []):
        print(f"  unwrapped: {entry}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 gives the traced run's "
                        "per-layer metrics")
    parser.add_argument("--out", help="write every result as JSON here")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)

    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: needs the program under {SRC} and {SPEC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    unit_of = unit_lookup(spec)

    results = {}
    if args.workload is not None:
        run = run_traced if args.trace else run_untraced
        results[args.workload] = run(args.workload, args.seed, seconds)
    else:
        for name in WORKLOADS:
            results[name] = run_untraced(name, args.seed, seconds)
        _, ladder = _child("ladder", args.seed)
        serve = results["serve_zipf_mixed"]
        serve["metrics"]["virt_max_rate_rps"] = ladder.get(
            "virt_max_rate_rps", 0.0)
        serve["problems"] += ladder["problems"]
        for name in WORKLOADS:
            traced = run_traced(name, args.seed, seconds)
            result = results[name]
            result["metrics"].update(traced["metrics"])
            result["problems"] += traced["problems"]
            result["correct"] = not result["problems"]
            result.update(unwrapped=traced["unwrapped"],
                          trace=traced["trace"])
    for name, result in results.items():
        print_result(name, result, unit_of)
    if args.out:
        doc = {"seed": args.seed, "seconds": seconds,
               "units": {k: unit_of(k) for r in results.values()
                         for k in r["metrics"]},
               "workloads": results}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if args.workload is None:
        return 0 if all(r["correct"] for r in results.values()) else 1
    line = result_line(results[args.workload],
                       spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

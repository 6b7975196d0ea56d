"""Compare benchmark results: is B worse than A?

Usage (from the repository root)::

    python3 perfbench/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Each file is the ``--out`` document of one ``perfbench/run.py`` run.  For
every (workload, metric) the verdict is ``better``, ``worse``,
``unchanged`` or ``unresolved``:

* An end-to-end metric compares the medians of the two sides against its
  ``BENCHMARK.json`` bound.  It is unresolved when either side's spread
  (quartile distance over median across its files; give each side
  several runs) exceeds the bound, unless every B value is better than
  every A value.
* A virtual-time metric is exact: runs with the same seed must agree to
  1e-9 relative, and any difference is a verdict.
* A per-layer metric is shown for information (``info``); it has no bound.

The exit code is 1 when any verdict is ``worse``, when ``failed_frac``
rises, or when a B run failed verification; otherwise 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import SPEC, spread  # noqa: E402
from workloads import VIRTUAL_METRICS  # noqa: E402

#: relative tolerance for exact (virtual-time) metrics
EXACT_REL = 1e-9


def _load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def _gain(a: float, b: float, better: str) -> float:
    """Signed relative change from a to b, positive when b is better."""
    if a == 0:
        return 0.0 if b == 0 else (1.0 if (b > 0) == (better == "higher")
                                   else -1.0)
    change = (b - a) / abs(a)
    return change if better == "higher" else -change


def bounded_verdict(a: list[float], b: list[float], better: str,
                    bound: float, spread_a: float, spread_b: float) -> str:
    """Verdict for an end-to-end metric with a regression bound."""
    gain = _gain(statistics.median(a), statistics.median(b), better)
    if spread_a > bound or spread_b > bound:
        if all(_gain(x, y, better) > 0 for x in a for y in b):
            return "better"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    return "unchanged"


def exact_verdict(a: dict, b: dict, better: str) -> str:
    """Verdict for an exact metric; ``a``/``b`` map seed -> value."""
    seeds = sorted(set(a) & set(b))
    if not seeds:
        return "unresolved"
    gains = [_gain(a[s], b[s], better) for s in seeds]
    if all(abs(g) <= EXACT_REL for g in gains):
        return "unchanged"
    if any(g < -EXACT_REL for g in gains):
        return "worse"
    return "better"


def _values(docs: list[dict], workload: str, metric: str) -> dict:
    """seed -> value of one metric, over the files of one side."""
    return {d["seed"]: d["workloads"][workload]["metrics"][metric]
            for d in docs
            if metric in d["workloads"].get(workload, {}).get("metrics", {})}


def compare(a_docs: list[dict], b_docs: list[dict], spec: dict) -> list:
    """Rows of (workload, metric, unit, median A, median B, gain, spread A,
    spread B, bound, verdict)."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    exact = {n: (u, b) for n, u, b in VIRTUAL_METRICS}
    layer = {m["name"]: m for m in spec["per_layer"]}
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for metric in list(bounds) + list(exact) + list(layer):
            va = _values(a_docs, w, metric)
            vb = _values(b_docs, w, metric)
            if not va or not vb:
                continue
            xa, xb = list(va.values()), list(vb.values())
            sa, sb = spread(xa), spread(xb)
            bound = None
            if metric in bounds:
                unit, better = bounds[metric]["unit"], bounds[metric]["better"]
                bound = bounds[metric]["bound"]
                verdict = bounded_verdict(xa, xb, better, bound, sa, sb)
            elif metric in exact:
                unit, better = exact[metric]
                verdict = exact_verdict(va, vb, better)
            else:
                unit, better = layer[metric]["unit"], layer[metric]["better"]
                verdict = "info"
            ma, mb = statistics.median(xa), statistics.median(xb)
            rows.append((w, metric, unit, ma, mb, _gain(ma, mb, better),
                         sa, sb, bound, verdict))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv or argv.index("--") == 0 or argv[-1] == "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cut = argv.index("--")
    a_docs, b_docs = _load(argv[:cut]), _load(argv[cut + 1:])
    spec = json.loads(SPEC.read_text())
    rows = compare(a_docs, b_docs, spec)
    print(f"{'workload':20s} {'metric':34s} {'A':>12s} {'B':>12s} "
          f"{'gain':>8s} {'sprA':>6s} {'sprB':>6s} {'bound':>6s} verdict")
    for w, metric, unit, ma, mb, gain, sa, sb, bound, verdict in rows:
        limit = (f"{bound:.0%}" if bound is not None
                 else "" if verdict == "info" else "exact")
        print(f"{w:20s} {metric:34s} {ma:12.5g} {mb:12.5g} {gain:+8.2%} "
              f"{sa:6.1%} {sb:6.1%} {limit:>6s} {verdict} {unit}")
    bad = [r for r in rows if r[9] == "worse"]
    broken = [f"{w}: {p}" for d in b_docs
              for w, r in d["workloads"].items() if not r["correct"]
              for p in r["problems"] or ["failed verification"]]
    for line in broken:
        print(f"B FAILED {line}")
    counts = {v: sum(r[9] == v for r in rows)
              for v in ("better", "worse", "unchanged", "unresolved")}
    print(" ".join(f"{k}={n}" for k, n in counts.items()))
    return 1 if bad or broken else 0


if __name__ == "__main__":
    sys.exit(main())

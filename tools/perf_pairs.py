"""Paired benchmark runs: a base revision against the working tree.

Runs ``perfbench/run.py --workload W --seed S --trace 0`` in alternating
pairs: one side in a temporary ``git worktree`` of ``--base``, the other
in the working tree (uncommitted edits included).  Every run is a fresh
process; the side that runs first alternates from pair to pair, so slow
drift of the machine falls on both sides equally.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the per-pair ratios (working tree over base) and
the wins, then whether the gain rule holds: the working tree wins at
least nine tenths of the pairs (ties count for neither), and the medians
differ, in the better direction, by more than the base's quartile
spread.

Usage (from anywhere inside the repository)::

    python tools/perf_pairs.py --base REV --workload W --pairs N --seed S

Set ``TMPDIR`` to choose where the temporary worktree goes.  Nothing in
either tree is modified.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: share of pairs the working tree must win for a gain to count
WIN_SHARE = 0.9


def _git(*args: str, cwd: Path) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``tree``: its one-line JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, text=True, stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        line = {"correct": False, "metrics": {}}
    line["returncode"] = proc.returncode
    return line


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def judge(base: list[float], change: list[float], better: str) -> dict:
    """Per-pair ratios, wins and the gain rule for one metric."""
    sign = 1 if better == "higher" else -1
    ratios = [c / b if b else float("inf") for b, c in zip(base, change)]
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q1, base_med, q3 = quartiles(base)
    change_med = quartiles(change)[1]
    gap = sign * (change_med - base_med)
    return {
        "base": (q1, base_med, q3),
        "change": quartiles(change),
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "wins": wins,
        "gain": wins >= WIN_SHARE * len(base) and gap > q3 - q1,
    }


def report(results: dict, spec: dict) -> None:
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        base = [r["metrics"][name]["value"] for r in results["base"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        j = judge(base, change, better)
        print(f"{name} ({metric['unit']}, {better} is better)")
        for side in ("base", "change"):
            q1, med, q3 = j[side]
            print(f"  {side:6s} median {med:.6g}  quartiles {q1:.6g} .. "
                  f"{q3:.6g}")
        print("  ratios " + " ".join(f"{r:.3f}" for r in j["ratios"]))
        print(f"  median ratio {j['median_ratio']:.3f}, working tree wins "
              f"{j['wins']}/{len(base)}; gain rule "
              f"{'holds' if j['gain'] else 'does not hold'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = Path(_git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    rev = _git("rev-parse", "--verify", args.base + "^{commit}", cwd=root)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    results: dict = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perf_pairs_") as tmp:
        base_tree = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(base_tree), rev, cwd=root)
        try:
            trees = {"base": base_tree, "change": root}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else \
                    ("change", "base")
                for side in order:
                    line = run_once(trees[side], args.workload, args.seed)
                    results[side].append(line)
                    values = {k: round(v["value"], 6)
                              for k, v in line["metrics"].items()}
                    print(f"pair {i + 1} {side:6s} correct="
                          f"{line['correct']} {json.dumps(values)}",
                          flush=True)
                    if not line["correct"] or line["returncode"]:
                        print(f"perf_pairs: {side} run failed",
                              file=sys.stderr)
                        return 1
        finally:
            _git("worktree", "remove", "--force", str(base_tree), cwd=root)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"base {args.base} ({rev[:12]}) vs working tree")
    report(results, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

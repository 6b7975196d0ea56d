"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root with::

    PYTHONPATH=src python -m pytest perfbench -q

Workloads run at a tiny size here; only
``test_one_workload_from_the_command_line`` runs one at its measured size.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import SERVE_RATE_LADDER, WORKLOADS, serve_max_rate  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
TINY = {"gups_defer_future": 32, "gups_eager_promise": 32,
        "gups_offnode_agg": 32, "serve_zipf_mixed": 16}


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], ops_per_rank=TINY[name])


@pytest.fixture(scope="module")
def span_cost():
    return layers.calibrate(trials=2, n=2000)


@pytest.fixture(scope="module")
def traced_defer(tmp_path_factory):
    """One traced child run of the defer workload at a tiny size."""
    return run.child_trace(tiny("gups_defer_future"), 1, seconds=0,
                           results=tmp_path_factory.mktemp("results"))


# -- workloads --------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_verifies_at_tiny_size(name):
    w = tiny(name)
    outcome = w.run(1, w.ops_per_rank)
    assert outcome.ok, outcome.problem
    assert outcome.virtual["virt_ops_per_s"] > 0


def test_serve_rate_ladder_returns_a_rung():
    assert serve_max_rate(1, requests_per_rank=16) in (0.0,) + tuple(
        SERVE_RATE_LADDER)


# -- names and the one-line result -------------------------------------------


def test_workload_names_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]


def test_untraced_metric_names_match_benchmark_json():
    measured = run.child_measure(tiny("gups_eager_promise"), 1, seconds=0,
                                 setups=1)
    assert len(measured["setup_s"]) == 1
    line = run.result_line(run.untraced_result(measured), SPEC["end_to_end"])
    assert line["correct"], measured["problems"]
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert line["failed"] == 0 and line["attempted"] >= 32 * 16


def test_traced_metric_names_match_benchmark_json(traced_defer):
    line = run.result_line(run.traced_result(traced_defer), SPEC["per_layer"])
    assert line["correct"], traced_defer["problems"]
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_timed_metrics_are_scaled_to_nominal_speed():
    measured = {"problems": [], "ops": 1000, "reps": 3, "failed_reps": 0,
                "rep_s": [1.0, 1.0, 1.0], "ref_s": [2 * run.REF_S] * 3,
                "setup_s": [0.4], "virtual": {}, "peak_rss_mb": 30.0}
    m = run.untraced_result(measured)["metrics"]
    assert m["machine_speed"] == 0.5
    assert (m["wall_ops_per_s"], m["sim_ops_per_s"]) == (1000.0, 2000.0)
    assert (m["wall_setup_s"], m["setup_s"]) == (0.4, 0.2)


def test_missing_metric_makes_the_line_incorrect():
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"sim_ops_per_s": 1.0}}
    line = run.result_line(result, SPEC["end_to_end"])
    assert not line["correct"] and line["failed"] == 10


# -- tracing ---------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_moves_no_virtual_tick(name, span_cost):
    w = tiny(name)
    plain = w.run(1, w.ops_per_rank)
    with Tracer(w.body_layer, span_cost=span_cost) as tracer:
        traced = w.run(1, w.ops_per_rank)
    assert traced.fingerprint == plain.fingerprint
    assert traced.virtual == plain.virtual
    assert tracer.unwrapped == []
    assert tracer.layer_calls()[w.body_layer] > 0


def test_tracing_restores_original_functions(span_cost):
    import repro
    import repro.apps.gups as gups
    import repro.rma.put as put
    from repro.runtime.event_loop import _GenTask
    from repro.sim.costmodel import CostModel

    def current():
        return (put.rput, repro.rput, gups.rput, vars(CostModel)["charge"],
                vars(_GenTask)["resume"])

    before = current()
    functions = run._function_objects()
    with Tracer("apps", span_cost=span_cost):
        during = current()
        assert all(d is not b for d, b in zip(during, before))
        assert repro.rput is put.rput and gups.rput is put.rput
    assert all(a is b for a, b in zip(current(), before))
    assert run._function_objects() == functions


@pytest.mark.parametrize("name", ["gups_defer_future", "serve_zipf_mixed"])
def test_layer_self_times_account_for_traced_wall_time(name, span_cost):
    w = tiny(name)
    w.execute(1, w.ops_per_rank)
    t0 = time.perf_counter()
    w.execute(1, w.ops_per_rank)
    untraced = time.perf_counter() - t0
    with Tracer(w.body_layer, span_cost=span_cost) as tracer:
        t0 = time.perf_counter()
        w.execute(1, w.ops_per_rank)
        traced = time.perf_counter() - t0
    self_s = tracer.self_seconds(overhead_s=traced - untraced)
    assert sum(self_s.values()) == pytest.approx(traced, rel=0.05)
    assert self_s[layers.TRACE] == pytest.approx(traced - untraced)


def test_layer_metrics_repeat_across_traced_runs(traced_defer):
    m = traced_defer["metrics"]
    assert not traced_defer["problems"]
    assert traced_defer["reps"] >= run.MIN_REPS
    assert m["core.when_all_nodes"] > 0 and m["core.cells"] > 0
    assert m["runtime.progress.dispatches"] > 0
    assert m["gasnet.am_injects"] == 0  # smp: gasnet is bypassed
    assert m["sim.charges"] > 0 and m["runtime.sched.switches"] > 0


def test_trace_artifact_is_valid_chrome_json(traced_defer):
    from repro.obs import validate_trace_events

    doc = json.loads(Path(traced_defer["trace"]).read_text())
    assert validate_trace_events(doc) == []
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert 0 < len(spans) <= layers.MAX_SPANS
    assert {e["cat"] for e in spans} <= set(layers.ALL_LAYERS)
    assert doc["otherData"]["layers"]["sim.charges"] > 0


def test_unknown_cost_action_lands_in_other(monkeypatch, span_cost):
    monkeypatch.delitem(layers.ACTION_LAYERS, "DRAM_RANDOM_ACCESS")
    w = tiny("gups_eager_promise")
    with Tracer(w.body_layer, span_cost=span_cost) as tracer:
        w.run(1, w.ops_per_rank)
    vns = tracer.layer_vns()
    assert vns[layers.OTHER] == tracer.action_vns["DRAM_RANDOM_ACCESS"] > 0


def test_missing_entry_point_is_reported_as_unwrapped(monkeypatch, span_cost):
    gone = ("repro.rma.put:no_such_function", "repro.no_such_module:f",
            "repro.sim.costmodel:CostAction")
    monkeypatch.setitem(layers.ENTRY_POINTS, "rma",
                        layers.ENTRY_POINTS["rma"] + gone)
    w = tiny("gups_eager_promise")
    with Tracer(w.body_layer, span_cost=span_cost) as tracer:
        assert w.run(1, w.ops_per_rank).ok
    assert [u.split(": ", 1)[0] for u in tracer.unwrapped] == list(gone)


# -- failures ---------------------------------------------------------------


def _raise(seed, ops_per_rank):
    raise RuntimeError("boom")


def test_failing_workload_counts_as_failed():
    w = dataclasses.replace(tiny("gups_eager_promise"), execute=_raise)
    result = run.untraced_result(run.child_measure(w, 1, seconds=0))
    assert not result["correct"]
    assert result["metrics"]["failed_frac"] == 1.0
    assert result["failed"] == result["attempted"] > 0
    assert "boom" in result["problems"][0]


def test_thread_left_alive_is_a_problem():
    stop = threading.Event()
    base = WORKLOADS["gups_eager_promise"].execute
    threads = []

    def execute(seed, ops_per_rank):
        res = base(seed, ops_per_rank)
        threads.append(threading.Thread(target=stop.wait))
        threads[-1].start()
        return res

    w = dataclasses.replace(tiny("gups_eager_promise"), execute=execute)
    problems: list[str] = []
    try:
        run._timed_run(w, 1, problems)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert any("threads alive" in p for p in problems)


# -- compare.py ---------------------------------------------------------------


def _doc(seed, correct=True, **metrics):
    return {"seed": seed, "workloads": {"gups_eager_promise": {
        "correct": correct, "problems": [] if correct else ["bad"],
        "metrics": metrics}}}


def _verdicts(a_docs, b_docs):
    return {r[1]: r[9] for r in compare.compare(a_docs, b_docs, SPEC)}


def test_compare_bounded_verdicts():
    base = [_doc(s, sim_ops_per_s=100.0 + s) for s in (1, 2, 3)]
    for values, verdict in [((101, 102, 103), "unchanged"),
                            ((70, 71, 72), "worse"),
                            ((150, 151, 152), "better"),
                            ((40, 100, 180), "unresolved")]:
        b_docs = [_doc(s, sim_ops_per_s=float(v))
                  for s, v in zip((1, 2, 3), values)]
        assert _verdicts(base, b_docs)["sim_ops_per_s"] == verdict, values


def test_compare_noisy_but_always_better_is_better():
    a_docs = [_doc(s, sim_ops_per_s=v) for s, v in ((1, 50.0), (2, 100.0),
                                                    (3, 60.0))]
    b_docs = [_doc(s, sim_ops_per_s=v) for s, v in ((1, 300.0), (2, 200.0),
                                                    (3, 400.0))]
    assert _verdicts(a_docs, b_docs)["sim_ops_per_s"] == "better"


def test_compare_exact_verdicts():
    a = [_doc(1, virt_ops_per_s=4e7, failed_frac=0.001)]
    assert _verdicts(a, [_doc(1, virt_ops_per_s=4e7 * (1 + 1e-12),
                              failed_frac=0.001)]) == {
        "virt_ops_per_s": "unchanged", "failed_frac": "unchanged"}
    assert _verdicts(a, [_doc(1, virt_ops_per_s=3.9e7,
                              failed_frac=0.002)]) == {
        "virt_ops_per_s": "worse", "failed_frac": "worse"}
    assert _verdicts(a, [_doc(2, virt_ops_per_s=4e7, failed_frac=0.001)]) \
        == {"virt_ops_per_s": "unresolved", "failed_frac": "unresolved"}


def test_compare_exit_codes(tmp_path, capsys):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    a = write("a.json", _doc(1, sim_ops_per_s=100.0, failed_frac=0.0))
    same = write("same.json", _doc(1, sim_ops_per_s=98.0, failed_frac=0.0))
    more_failed = write("f.json", _doc(1, sim_ops_per_s=100.0,
                                       failed_frac=0.01))
    broken = write("b.json", _doc(1, correct=False, sim_ops_per_s=100.0,
                                  failed_frac=0.0))
    assert compare.main([a, "--", same]) == 0
    assert compare.main([a, "--", more_failed]) == 1
    assert compare.main([a, "--", broken]) == 1
    assert compare.main([a, same]) == 2
    capsys.readouterr()


# -- the command line -------------------------------------------------------


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.SPEC, tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "gups_eager_promise", "--seed", "1", "--seconds", "1", "--trace",
         "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_one_workload_from_the_command_line():
    """One workload at its measured size: the last line printed is the
    result object with the end-to-end metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "gups_eager_promise", "--seed", "2", "--seconds", "0", "--trace",
         "0"], cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}

"""Smoke tests running every example script end-to-end (small sizes)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "2021.3.6-defer" in out
        assert "2021.3.6-eager" in out
        assert "promise_cells_allocated" in out

    def test_completions_tour(self):
        out = run_example("completions_tour.py")
        assert "callback deferred to wait()" in out  # defer build
        assert "callback ran during .then()" in out  # eager build
        assert "as_eager_future was ready at initiation" in out

    def test_gups_demo_small(self):
        out = run_example("gups_demo.py", "4", "32")
        assert "rma_promise" in out
        assert "match the serial oracle: True" in out

    @pytest.mark.slow
    def test_graph_matching_demo_small(self):
        out = run_example("graph_matching_demo.py", "4", "1")
        assert "youtube" in out
        assert "eager speedup" in out

    def test_dht_demo_small(self):
        out = run_example("dht_demo.py", "4", "24")
        assert "lookups correct: True" in out

    def test_stencil_demo_small(self):
        out = run_example("stencil_demo.py", "4")
        assert "eager gain" in out
        assert "Jacobi stencil" in out


class TestTools:
    def test_diagnose_tool(self):
        import subprocess
        import sys
        from pathlib import Path

        tools = Path(__file__).parent.parent / "tools"
        proc = subprocess.run(
            [sys.executable, str(tools / "diagnose.py"), "intel"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-1000:]
        assert "heap_alloc_promise_cell" in proc.stdout
        assert "2021.3.6-eager" in proc.stdout

    def test_diagnose_json(self):
        """``--json``: one document, a receipt per (op, build), no
        ``counters`` key (the ``costs`` rows are the action counts), and
        each receipt's costs summing to its elapsed virtual ns."""
        import json

        tools = Path(__file__).parent.parent / "tools"
        proc = subprocess.run(
            [sys.executable, str(tools / "diagnose.py"), "--json", "intel"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-1000:]
        doc = json.loads(proc.stdout)
        assert doc["machine"] == "intel"
        receipts = doc["ops"]
        assert len(receipts) == 8  # 4 ops x 2 builds
        for r in receipts:
            assert "counters" not in r
            assert sum(c["cost_ns"] for c in r["costs"]) == r["elapsed_ns"]

    def test_diagnose_receipts_account_for_every_ns(self):
        """Each receipt's rows sum exactly to the op's elapsed virtual ns
        (costs sit on the 2^-20 ns grid, so the float sum is exact), and
        §III's claims hold as rows: the eager put charges no promise cell
        and no queue traffic, the deferred put exactly one of each."""
        import importlib.util

        path = Path(__file__).parent.parent / "tools" / "diagnose.py"
        spec = importlib.util.spec_from_file_location("diagnose", path)
        diagnose = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(diagnose)
        counts = {}
        for op in diagnose.OPS:
            for version in diagnose.VERSIONS:
                r = diagnose.diagnose(version, "intel", op)
                assert sum(c["cost_ns"] for c in r["costs"]) == (
                    r["elapsed_ns"]
                ), (op, version)
                counts[op, version] = {
                    c["action"]: c["count"] for c in r["costs"]
                }
        assert len(counts) == 8
        eager = counts["put", diagnose.Version.V2021_3_6_EAGER]
        defer = counts["put", diagnose.Version.V2021_3_6_DEFER]
        for action in (
            "heap_alloc_promise_cell",
            "progress_queue_enqueue",
            "progress_dispatch",
        ):
            assert action not in eager, action
            assert defer[action] == 1, action

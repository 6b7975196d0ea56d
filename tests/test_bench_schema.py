"""Artifact-schema tests: every committed ``BENCH_*.json`` validates,
and the validator actually rejects the failure shapes the gates rely on
it to catch (quick baselines, env/deterministic mixing, truncation).
"""

import copy
import glob
import json
import os

import pytest

from repro.bench.schema import (
    is_environment_key,
    strip_environment,
    validate_artifact,
    validate_artifact_file,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: the tracked artifacts; ``ab --quick`` and the CI jobs leave gitignored
#: ``BENCH_*.quick.json`` / ``BENCH_*_ci.json`` files next to them
COMMITTED = sorted(
    p for p in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
    if not p.endswith((".quick.json", "_ci.json"))
)


@pytest.mark.parametrize(
    "path", COMMITTED, ids=[os.path.basename(p) for p in COMMITTED]
)
def test_committed_artifact_validates(path):
    assert validate_artifact_file(path) == []


@pytest.mark.parametrize(
    "path", COMMITTED, ids=[os.path.basename(p) for p in COMMITTED]
)
def test_committed_baseline_is_full_run(path):
    with open(path) as fh:
        assert json.load(fh)["quick"] is False


def test_committed_artifacts_exist():
    # the repo's perf trajectory is these files; losing them all would
    # silently disable every CI gate
    names = {os.path.basename(p) for p in COMMITTED}
    assert {
        "BENCH_ab_agg_on_off.json", "BENCH_ab_cont_future.json",
        "BENCH_ab_eager_defer.json", "BENCH_ab_wake_scan.json",
        "BENCH_serve.json",
    } <= names


class TestEnvironmentClassifier:
    def test_wall_and_interpreter_keys(self):
        for key in ("python", "invocation", "thread_s", "event_s",
                    "wall_s", "wall_s_total", "wake_switches_per_s"):
            assert is_environment_key(key), key

    def test_deterministic_keys(self):
        for key in ("solve_ns", "mean_gap_ns", "switches", "gap_modes",
                    "offered_rate_rps", "slo_ns", "ranks", "zipf_s",
                    "gap_ratio", "checksum", "speedup"):
            assert not is_environment_key(key), key


class TestStripEnvironment:
    def test_legacy_strip_removes_wall_keys(self):
        doc = {
            "bench": "serve", "quick": False, "python": "3.11",
            "sweep": {"rows": [{"requests": 10, "wall_s": 0.5}]},
        }
        det = strip_environment(doc)
        assert det == {"bench": "serve", "quick": False,
                       "sweep": {"rows": [{"requests": 10}]}}

    def test_ab_strip_is_structural(self):
        doc = {"bench": "ab", "quick": False,
               "deterministic": {"speedup": 2.0},
               "environment": {"python": "3.11"}}
        det = strip_environment(doc)
        assert "environment" not in det
        # ab speedups are virtual-time ratios: they stay
        assert det["deterministic"]["speedup"] == 2.0

    def test_idempotent(self):
        for path in COMMITTED:
            with open(path) as fh:
                doc = json.load(fh)
            det = strip_environment(doc)
            assert strip_environment(det) == det


class TestRejections:
    @pytest.fixture()
    def serve_doc(self):
        with open(os.path.join(REPO_ROOT, "BENCH_serve.json")) as fh:
            return json.load(fh)

    def test_unknown_bench_rejected(self):
        errs = validate_artifact({"bench": "mystery", "quick": False})
        assert any("unknown bench" in e for e in errs)

    def test_missing_quick_flag_rejected(self, serve_doc):
        doc = copy.deepcopy(serve_doc)
        del doc["quick"]
        assert any("quick" in e for e in validate_artifact(doc))

    def test_nonfinite_number_rejected(self, serve_doc):
        doc = copy.deepcopy(serve_doc)
        doc["headline"]["bad"] = float("inf")
        assert any("non-finite" in e for e in validate_artifact(doc))

    def test_truncated_sections_rejected(self):
        errs = validate_artifact({"bench": "serve", "quick": False,
                                  "headline": {}})
        assert any("sweep" in e for e in errs), errs

    def test_quick_at_canonical_name_rejected(self, tmp_path, serve_doc):
        doc = copy.deepcopy(serve_doc)
        doc["quick"] = True
        full = tmp_path / "BENCH_serve.json"
        full.write_text(json.dumps(doc))
        errs = validate_artifact_file(str(full))
        assert any("canonical baseline name" in e for e in errs)
        # the same doc at the quick name is fine
        quick = tmp_path / "BENCH_serve.quick.json"
        quick.write_text(json.dumps(doc))
        assert validate_artifact_file(str(quick)) == []

    def test_unreadable_file_reported(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text("{not json")
        errs = validate_artifact_file(str(bad))
        assert any("unreadable" in e for e in errs)

    def test_ab_wall_key_in_deterministic_rejected(self):
        from repro.bench import ab

        doc = ab.run_ab_spec(ab.WAKE_SCAN, quick=True)
        doc = copy.deepcopy(doc)
        doc["deterministic"]["points"][0]["wall_s"] = 1.0
        errs = validate_artifact(doc)
        assert any("wall/interpreter-flavored" in e for e in errs)

"""The gain rule, the no-regression verdict and the JSON summary line of
``tools/perf_pairs.py`` on synthetic pair results."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).parent.parent
_PATH = _ROOT / "tools" / "perf_pairs.py"


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def judge(perf_pairs):
    return perf_pairs.judge


@pytest.fixture(scope="module")
def verdict(perf_pairs):
    return perf_pairs.verdict


BASE = [100.0, 104.0, 96.0, 101.0, 99.0, 103.0, 97.0, 100.0, 102.0, 98.0]


def test_clear_gain_holds(judge):
    j = judge(BASE, [x * 1.5 for x in BASE], "higher")
    assert j["wins"] == 10 and j["gain"]
    assert j["median_ratio"] == pytest.approx(1.5)
    assert j["ratios"] == pytest.approx([1.5] * 10)


def test_lower_is_better_direction(judge):
    j = judge(BASE, [x * 0.5 for x in BASE], "lower")
    assert j["wins"] == 10 and j["gain"]
    assert not judge(BASE, [x * 1.5 for x in BASE], "lower")["gain"]


def test_needs_nine_of_ten_wins(judge):
    change = [x * 1.5 for x in BASE]
    change[0] = change[1] = 1.0  # two losses
    j = judge(BASE, change, "higher")
    assert j["wins"] == 8 and not j["gain"]


def test_ties_count_for_neither(judge):
    change = [x * 1.5 for x in BASE]
    change[3] = BASE[3]
    j = judge(BASE, change, "higher")
    assert j["wins"] == 9 and j["gain"]


def test_gap_must_exceed_base_quartile_spread(judge):
    # every pair won, but by less than the base's own quartile spread
    j = judge(BASE, [x + 1.0 for x in BASE], "higher")
    q1, _, q3 = j["base"]
    assert j["wins"] == 10 and q3 - q1 > 1.0
    assert not j["gain"]


#: the end-to-end bound of ``sim_ops_per_s`` in BENCHMARK.json
BOUND = 0.2


def test_verdict_within_bound_is_no_regression(verdict):
    change = [x * 0.9 for x in BASE]  # 10% slower, bound 20%
    assert verdict(BASE, change, "higher", BOUND) == "no regression"
    assert verdict(BASE, BASE, "higher", BOUND) == "no regression"


def test_verdict_gain_is_no_regression(verdict):
    change = [x * 1.5 for x in BASE]
    assert verdict(BASE, change, "higher", BOUND) == "no regression"


def test_verdict_past_bound_is_regression(verdict):
    change = [x * 0.7 for x in BASE]  # 30% slower
    assert verdict(BASE, change, "higher", BOUND) == "regression"


def test_verdict_lower_is_better_direction(verdict):
    assert verdict(BASE, [x * 1.3 for x in BASE], "lower",
                   BOUND) == "regression"
    assert verdict(BASE, [x * 0.7 for x in BASE], "lower",
                   BOUND) == "no regression"


def test_verdict_wide_spread_is_unresolved(verdict):
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 100.0, 70.0,
             130.0]
    assert verdict(BASE, noisy, "higher", BOUND) == "unresolved"
    assert verdict(noisy, BASE, "higher", BOUND) == "unresolved"


def test_verdict_wide_spread_resolved_when_every_run_wins(verdict,
                                                           perf_pairs):
    noisy = [x * 3.0 + 200.0 * (i % 2) for i, x in enumerate(BASE)]
    assert perf_pairs.spread(noisy) > BOUND
    assert verdict(BASE, noisy, "higher", BOUND) == "no regression"


def _git_repo_with_spec(path: Path) -> Path:
    """A one-commit repository holding the repo's ``BENCHMARK.json``."""
    path.mkdir()
    (path / "BENCHMARK.json").write_text(
        (_ROOT / "BENCHMARK.json").read_text())
    for args in (("init", "-q"), ("add", "BENCHMARK.json"),
                 ("commit", "-q", "-m", "spec")):
        subprocess.run(["git", "-c", "user.name=t", "-c",
                        "user.email=t@example.com", *args],
                       cwd=path, check=True, capture_output=True)
    return path


def test_last_line_is_the_json_summary(perf_pairs, tmp_path, monkeypatch,
                                       capsys):
    """The output ends with one JSON line holding every run and, per
    metric, the values, quartiles, ratios, wins, gain rule and verdict;
    the base side runs in an export of the base revision."""
    repo = _git_repo_with_spec(tmp_path / "repo")
    calls = []

    def fake_run(tree, workload, seed):
        side = "change" if Path(tree).resolve() == repo.resolve() else "base"
        calls.append((side, (Path(tree) / "BENCHMARK.json").is_file()))
        n = sum(1 for s, _ in calls if s == side)
        ops = (150.0 if side == "change" else 100.0) + n
        return {"correct": True, "returncode": 0, "metrics": {
            "sim_ops_per_s": {"value": ops}, "setup_s": {"value": 0.2},
            "peak_rss_mb": {"value": 40.0}}}

    monkeypatch.setattr(perf_pairs, "run_once", fake_run)
    monkeypatch.chdir(repo)
    assert perf_pairs.main(["--base", "HEAD", "--workload", "w",
                            "--pairs", "4", "--seed", "3"]) == 0
    assert all(exported for _, exported in calls)
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (doc["workload"], doc["seed"], doc["pairs"]) == ("w", 3, 4)
    assert [(r["pair"], r["side"]) for r in doc["runs"]] == [
        (1, "base"), (1, "change"), (2, "change"), (2, "base"),
        (3, "base"), (3, "change"), (4, "change"), (4, "base")]
    assert doc["runs"][0]["metrics"]["sim_ops_per_s"] == 101.0
    ops = doc["metrics"]["sim_ops_per_s"]
    assert ops["base_values"] == [101.0, 102.0, 103.0, 104.0]
    assert ops["change_values"] == [151.0, 152.0, 153.0, 154.0]
    assert ops["wins"] == 4 and ops["gain"]
    assert ops["verdict"] == "no regression"
    assert ops["ratios"] == pytest.approx([151 / 101, 152 / 102, 153 / 103,
                                           154 / 104])
    assert ops["base_median"] == ops["base_quartiles"][1] == 102.5
    setup = doc["metrics"]["setup_s"]
    assert setup["wins"] == 0 and not setup["gain"]
    assert setup["verdict"] == "no regression"
    assert set(doc["metrics"]) == {
        m["name"] for m in json.loads(
            (_ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

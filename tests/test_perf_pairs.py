"""The gain rule and the no-regression verdict of ``tools/perf_pairs.py``
on synthetic pair results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parent.parent / "tools" / "perf_pairs.py"


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

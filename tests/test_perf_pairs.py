"""The gain rule of ``tools/perf_pairs.py`` on synthetic pair results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).parent.parent / "tools" / "perf_pairs.py"


@pytest.fixture(scope="module")
def judge():
    spec = importlib.util.spec_from_file_location("perf_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.judge


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

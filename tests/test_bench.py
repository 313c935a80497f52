"""The paired-run gate of scripts/bench.py: pairs won, gain, and the standing to the bound."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)
verdict = bench.verdict

# ten parent runs with quartiles 102.25 and 106.75: a spread of 4.5, under a 25% bound
PARENT = [100.0 + i for i in range(10)]


def shifted(xs, by):
    return [x + by for x in xs]


@pytest.mark.parametrize("better, sign", [("higher", 1), ("lower", -1)])
def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_median_past_the_spread(better, sign):
    assert verdict(PARENT, shifted(PARENT, sign * 20), better, 0.25) == (10, True, "ok")
    # nine wins and one loss is a gain; eight wins are not
    nine = shifted(PARENT, sign * 20)
    nine[0] = PARENT[0] - sign
    assert verdict(PARENT, nine, better, 0.25) == (9, True, "ok")
    eight = nine[:]
    eight[1] = PARENT[1] - sign
    assert verdict(PARENT, eight, better, 0.25) == (8, False, "ok")
    # every pair won, but the medians differ by less than the parent's spread
    assert verdict(PARENT, shifted(PARENT, sign * 3), better, 0.25) == (10, False, "ok")


def test_ties_count_for_neither_side():
    change = shifted(PARENT, 20)
    change[0], change[1] = PARENT[0], PARENT[1]
    assert verdict(PARENT, change, "higher", 0.25) == (8, False, "ok")
    assert verdict(PARENT, PARENT, "higher", 0.25) == (0, False, "ok")


@pytest.mark.parametrize("better, sign", [("higher", 1), ("lower", -1)])
def test_worse_past_the_bound(better, sign):
    # the parent's median is 104.5; a quarter of it is 26.125
    assert verdict(PARENT, shifted(PARENT, -sign * 27), better, 0.25) == (0, False, "worse")
    assert verdict(PARENT, shifted(PARENT, -sign * 26), better, 0.25) == (0, False, "ok")


@pytest.mark.parametrize("better, sign", [("higher", 1), ("lower", -1)])
def test_unresolved_when_the_parent_spreads_wider_than_the_bound(better, sign):
    wide = [50.0, 150.0] * 5  # quartiles 50 and 150 around a median of 100
    assert verdict(wide, wide, better, 0.25) == (0, False, "unresolved")
    assert verdict(wide, shifted(wide, sign * 10), better, 0.25) == (10, False, "unresolved")
    # unless every run of the change beats every run of the parent
    beyond = [100.0 + sign * (51 + i) for i in range(10)]
    assert verdict(wide, beyond, better, 0.25) == (10, False, "ok")

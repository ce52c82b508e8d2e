"""The pair summary of scripts/pairs.py: quartiles, wins and the gain rule."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def test_quartiles_match_numpy_linear_quantiles():
    gen = np.random.default_rng(7)
    for size in (1, 2, 3, 10, 11):
        values = gen.normal(size=size).tolist()
        expected = np.quantile(values, [0.25, 0.5, 0.75])
        assert pairs.quartiles(values) == pytest.approx(expected, abs=1e-15)


def test_gain_claimed_when_nine_of_ten_win_beyond_the_parent_spread():
    # parent quartiles 10.25-12.75 (spread 2.5); the change is 3 lower in
    # nine pairs and 1 higher in the tenth
    parent = [10.0, 11.0, 12.0, 13.0, 10.0, 11.0, 12.0, 13.0, 10.0, 13.0]
    change = [p - 3 for p in parent[:9]] + [parent[9] + 1]
    s = pairs.summarize(list(zip(parent, change)), "lower")
    assert s["parent"] == (10.25, 11.5, 12.75)
    assert (s["wins"], s["pairs"]) == (9, 10)
    assert s["parent_spread"] == 2.5
    assert s["gain"] == pytest.approx(11.5 - 8.5)
    assert s["claim_holds"]


def test_no_claim_below_nine_wins_or_inside_the_spread():
    parent = [10.0, 11.0, 12.0, 13.0, 10.0, 11.0, 12.0, 13.0, 10.0, 13.0]
    # eight wins by a wide margin: too few pairs won
    change = [p + 5 for p in parent[:8]] + [p - 1 for p in parent[8:]]
    s = pairs.summarize(list(zip(parent, change)), "higher")
    assert s["wins"] == 8 and not s["claim_holds"]
    # ten wins, but by less than the parent's quartile spread
    s = pairs.summarize([(p, p + 1) for p in parent], "higher")
    assert s["wins"] == 10 and s["gain"] == 1.0 and not s["claim_holds"]


def test_ties_count_for_neither_side_and_directionless_metrics_claim_nothing():
    s = pairs.summarize([(1.0, 1.0)] * 10, "lower")
    assert s["wins"] == 0 and not s["claim_holds"]
    s = pairs.summarize([(1.0, 0.0)] * 10, None)
    assert "wins" not in s and "claim_holds" not in s
    assert s["change"] == (0.0, 0.0, 0.0)


def test_seed_ranges_and_lists():
    assert pairs.parse_seeds("3101-3104") == [3101, 3102, 3103, 3104]
    assert pairs.parse_seeds("101,103") == [101, 103]

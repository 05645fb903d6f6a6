"""tools/pairs.py gives each end-to-end metric the verdict its docstring states."""

import importlib.util
from pathlib import Path

import pytest

_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"


def _load_pairs():
    spec = importlib.util.spec_from_file_location("tools_pairs", _PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


summarize = _load_pairs().summarize

# a quiet base: quartiles 102.25 and 106.75, a spread of 4.3% of the median
_BASE = [100.0, 104.0, 101.0, 108.0, 103.0, 106.0, 102.0, 109.0, 105.0, 107.0]
# a noisy base: quartiles 72.5 and 127.5, a spread of 58% of the median
_NOISY = [50.0, 200.0, 60.0, 150.0, 100.0, 130.0, 70.0, 120.0, 80.0, 90.0]


def test_a_gain_on_nearly_every_pair_is_shown():
    s = summarize(_BASE, [1.3 * b for b in _BASE], "higher", 0.25)
    assert (s["verdict"], s["change_wins"], s["pairs"]) == ("gain shown", 10, 10)
    assert s["median_ratio"] == pytest.approx(1.3)
    # one lost pair still shows it; two do not
    one_lost = [1.3 * b for b in _BASE[:9]] + [_BASE[9] - 1.0]
    assert summarize(_BASE, one_lost, "higher", 0.25)["verdict"] == "gain shown"
    two_lost = [1.3 * b for b in _BASE[:8]] + [b - 1.0 for b in _BASE[8:]]
    assert summarize(_BASE, two_lost, "higher", 0.25)["verdict"] == "no gain shown"
    # for a lower-is-better metric a gain is a drop
    assert summarize(_BASE, [0.7 * b for b in _BASE], "lower", 0.25)["verdict"] == "gain shown"


def test_ties_and_small_wins_show_no_gain():
    s = summarize(_BASE, list(_BASE), "higher", 0.25)
    assert (s["verdict"], s["change_wins"]) == ("no gain shown", 0)
    # every pair won, but by less than the base's spread
    s = summarize(_BASE, [b + 1.0 for b in _BASE], "higher", 0.25)
    assert (s["verdict"], s["change_wins"]) == ("no gain shown", 10)


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    assert summarize(_BASE, [0.7 * b for b in _BASE], "higher", 0.25)["verdict"] == "regression"
    assert summarize(_BASE, [1.3 * b for b in _BASE], "lower", 0.25)["verdict"] == "regression"
    # within the bound it is not
    assert summarize(_BASE, [0.8 * b for b in _BASE], "higher", 0.25)["verdict"] == "no gain shown"
    # a regression is named even on a noisy base
    assert summarize(_NOISY, [0.5 * b for b in _NOISY], "higher", 0.25)["verdict"] == "regression"


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    s = summarize(_NOISY, [1.2 * b for b in _NOISY], "higher", 0.25)
    assert (s["verdict"], s["change_wins"]) == ("unresolved", 10)
    assert summarize(_NOISY, list(_NOISY), "lower", 0.25)["verdict"] == "unresolved"
    # unless every change run beats every base run
    assert summarize(_NOISY, [400.0 + b for b in _NOISY], "higher", 0.25)["verdict"] == "gain shown"
    assert summarize(_NOISY, [b / 10 for b in _NOISY], "lower", 0.25)["verdict"] == "gain shown"

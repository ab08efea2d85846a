import random
from bisect import bisect_left
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csq.predecessor import (
    ColoredSet,
    StaticKeySet,
    pred,
    pred_color,
    smallset_build,
    smallset_pred,
    yfast_build,
    yfast_pred,
)
from csq.grammar_lcp_rmq import build_lcp_rmq_index
from csq.rlbwt_ilf import build_ilf_index
from csq.text_core import Text

key_sets = st.sets(st.integers(0, 200), min_size=1, max_size=40).map(sorted)


@pytest.fixture(scope="module")
def example_set():
    return StaticKeySet.build([2, 5, 7, 8, 10, 12])


# ---------------------------------------------------------------------------
# Reference flavor


def test_pred_worked_example(example_set):
    assert pred(example_set, 9) == 4
    assert example_set.key_at(pred(example_set, 9)) == 8
    assert example_set.key_at(pred(example_set, 5)) == 2
    assert pred(example_set, 2) == 0
    assert pred(example_set, 100) == example_set.m


def test_pred_color_worked_example(example_set):
    colored = ColoredSet(example_set)
    assert pred_color(colored, 9) == 0
    assert pred_color(colored, 8) == 1
    assert pred_color(colored, 2) == 0
    assert pred_color(colored, -5) == 0


def test_build_validation():
    with pytest.raises(ValueError):
        StaticKeySet.build([])
    with pytest.raises(ValueError):
        StaticKeySet.build([3, 3])
    with pytest.raises(ValueError):
        StaticKeySet.build([5, 2])
    with pytest.raises(ValueError):
        StaticKeySet.build([-1, 2])
    with pytest.raises(ValueError):
        yfast_build([2, 30], u=20)
    with pytest.raises(IndexError):
        StaticKeySet.build([1]).key_at(2)


# ---------------------------------------------------------------------------
# Flavor agreement


def _assert_pred_invariant(keys, x, i):
    m = len(keys)
    if i == 0:
        assert x <= keys[0]
    else:
        assert keys[i - 1] < x
        assert i == m or keys[i] >= x


@given(key_sets, st.integers(-3, 205))
@settings(max_examples=150, deadline=None)
def test_flavors_agree_with_oracle(keys, x):
    expected = bisect_left(keys, x)
    keyset = StaticKeySet.build(keys, u=210)
    trie = yfast_build(keys, u=210)
    flat = smallset_build(keys)
    assert pred(keyset, x) == expected
    assert yfast_pred(trie, x) == expected
    assert smallset_pred(flat, x) == expected
    _assert_pred_invariant(keys, x, expected)


def _reference_levels(reps, width):
    """The y-fast prefix levels built one representative at a time."""
    levels = [dict() for _ in range(width + 1)]
    for t, v in enumerate(reps):
        for d in range(width + 1):
            prefix = v >> (width - d)
            lo, hi = levels[d].get(prefix, (t, t))
            levels[d][prefix] = (min(lo, t), max(hi, t))
    return tuple(levels)


@given(st.sets(st.integers(0, 5000), min_size=1, max_size=400).map(sorted), st.integers(0, 3000))
@settings(max_examples=100, deadline=None)
def test_yfast_levels_match_reference_loop(keys, slack):
    u = keys[-1] + slack
    trie = yfast_build(keys, u)
    assert trie.levels == _reference_levels(trie.reps, trie.width)
    assert trie.reps == tuple(keys[:: trie.bucket_size])


def test_exhaustive_small_universe():
    """Every nonempty A over [0..8], every query in [-1..10], both flavors."""
    universe = list(range(9))
    for size in range(1, 10):
        for keys in combinations(universe, size):
            trie = yfast_build(keys, u=8)
            flat = smallset_build(keys)
            for x in range(-1, 11):
                expected = bisect_left(keys, x)
                assert yfast_pred(trie, x) == expected
                assert smallset_pred(flat, x) == expected


def test_large_random_universe():
    rng = random.Random(2024)
    u = 2**20
    keys = sorted(rng.sample(range(u + 1), 2000))
    trie = yfast_build(keys, u)
    flat = smallset_build(keys)
    colored = ColoredSet(StaticKeySet.build(keys, u))
    for _ in range(5000):
        x = rng.randint(-2, u + 2)
        expected = bisect_left(keys, x)
        assert yfast_pred(trie, x) == expected
        assert smallset_pred(flat, x) == expected
        assert pred_color(colored, x) == expected % 2


def test_single_key_edge_cases():
    for key in (0, 1, 7):
        trie = yfast_build([key], u=7)
        flat = smallset_build([key])
        for x in range(-1, 10):
            expected = int(x > key)
            assert yfast_pred(trie, x) == expected
            assert smallset_pred(flat, x) == expected


# ---------------------------------------------------------------------------
# Views derived for perfbench


@given(st.integers(1, 4).flatmap(
    lambda sigma: st.lists(st.integers(0, sigma - 1), min_size=1, max_size=120)))
@settings(max_examples=60, deadline=None)
def test_derived_views_answer_as_bisect(symbols):
    """perfbench's predecessor head-to-head reads IlfIndex.trie and
    pred_keys and RuleStats.pred, which are derived on first read; each
    answers every probe as a bisect of the keys the queries search."""
    text = Text.from_symbols(symbols)
    idx = build_ilf_index(text)
    for x in range(-1, text.n + 3):
        assert yfast_pred(idx.trie, x) == pred(idx.pred_keys, x) == bisect_left(idx.boundary_keys, x)
    stats = build_lcp_rmq_index(text).stats
    for r, plen in enumerate(stats.plen):
        for p in range(stats.exp_len[r] + 2):
            assert smallset_pred(stats.pred[r], p) == bisect_left(plen[1:], p)

import random
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csq import rlbwt_ilf
from csq.measures import bwt_run_count
from csq.rlbwt_ilf import build_ilf_index, ilf_query
from csq.text_core import Text, build_bundle

from conftest import _SYMBOL_WIDTH_LIMIT, append_terminator

small_texts = st.lists(st.integers(0, 3), min_size=1, max_size=64)


# ---------------------------------------------------------------------------
# append_terminator


def test_append_terminator_example():
    tt = append_terminator(Text.from_symbols([0, 1], 2))
    assert list(tt.shifted.symbols) == [1, 2, 0]
    assert tt.shifted.sigma == 3


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_terminated_text_invariants(symbols):
    t = Text.from_symbols(symbols, 4)
    tt = append_terminator(t)
    n = t.n
    assert tt.shifted.n == n + 1
    assert tt.shifted.symbols[n] == 0
    assert tt.shifted.symbols.count(0) == 1
    for j in range(1, n + 1):
        assert tt.shifted.symbols[j - 1] == t.symbols[j - 1] + 1
    b = build_bundle(t)
    assert tt.i_first == b.isa[1]
    assert tt.i_last == b.isa[n]


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_terminated_suffix_array_structure(symbols):
    """SA of the terminated text is [n+1] followed by the original SA."""
    t = Text.from_symbols(symbols, 4)
    tt = append_terminator(t)
    sa_orig = list(build_bundle(t).sa[1:])
    sa_term = list(build_bundle(tt.shifted).sa[1:])
    assert sa_term == [t.n + 1] + sa_orig


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_terminator_adds_at_most_three_runs(symbols):
    t = Text.from_symbols(symbols, 4)
    tt = append_terminator(t)
    assert bwt_run_count(tt.shifted) <= bwt_run_count(t) + 3


def test_append_terminator_figure_runs(fig_text):
    tt = append_terminator(fig_text)
    assert bwt_run_count(fig_text) == 6
    assert bwt_run_count(tt.shifted) <= 9


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_lf_is_arithmetic_within_bwt_runs(symbols):
    """On terminated texts, BWT[i-1] = BWT[i] implies LF[i] = LF[i-1] + 1."""
    tt = append_terminator(Text.from_symbols(symbols, 4))
    b = build_bundle(tt.shifted)
    for i in range(2, tt.shifted.n + 1):
        if b.bwt[i] == b.bwt[i - 1]:
            assert b.lf[i] == b.lf[i - 1] + 1


def test_append_terminator_rejects_width_overflow():
    with pytest.raises(ValueError):
        append_terminator(Text.from_symbols([0], 2**31 - 1))


# ---------------------------------------------------------------------------
# build_ilf_index


def test_build_refuses_empty_text():
    with pytest.raises(ValueError, match="^cannot index an empty text$"):
        build_ilf_index(Text.from_symbols([]))


def test_boundary_count_equals_terminated_runs():
    t = Text.from_ascii("a" * 8)
    idx = build_ilf_index(t)
    assert idx.boundary_count == bwt_run_count(append_terminator(t).shifted)


@st.composite
def bwt_rule_texts(draw) -> Text:
    """Random, unary and period-k texts over four symbols, spread out from
    a base that may lie past 2**31."""
    n = draw(st.integers(1, 120))
    kind = draw(st.sampled_from(("random", "unary", "period")))
    if kind == "unary":
        codes = [0] * n
    elif kind == "period":
        unit = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
        codes = [unit[i % len(unit)] for i in range(n)]
    else:
        codes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    base = draw(st.sampled_from((0, 2**31 - 5, 2**31, 2**40 + 3)))
    stride = draw(st.sampled_from((1, 2**32 + 1)))
    return Text.from_symbols([base + stride * c for c in codes])


@given(bwt_rule_texts())
@settings(max_examples=120, deadline=None)
def test_bwt_rule_callers_agree(t):
    """The bundle's BWT row, bwt_run_count and build_ilf_index read the BWT
    off SA by one rule; each agrees with BWT[r] = T[SA[r]-1] (T[n] at
    SA[r] = 1) and with the terminated text's run count.  The boundary keys,
    put in order by a stable sort of the run heads by symbol, strictly
    increase and equal a sort of (LF, rank) pairs over the terminated
    text's own rows, symbols past 2**31 included."""
    n = t.n
    bundle = build_bundle(t)
    bwt = [t.symbols[(bundle.sa[r] - 1 if bundle.sa[r] > 1 else n) - 1] for r in range(1, n + 1)]
    assert list(bundle.bwt[1:]) == bwt
    r = bwt_run_count(t)
    assert r == 1 + sum(a != b for a, b in zip(bwt, bwt[1:]))
    idx = build_ilf_index(t)
    assert idx.r_original == r
    # append_terminator refuses symbols past its width limit; the shift
    # is spelled out here so that wide texts are terminated too.
    shifted = Text.from_symbols([c + 1 for c in t.symbols] + [0])
    if t.sigma < _SYMBOL_WIDTH_LIMIT:
        assert shifted.symbols == append_terminator(t).shifted.symbols
    assert idx.boundary_count == bwt_run_count(shifted)
    tb = build_bundle(shifted)
    heads = [h for h in range(1, n + 2) if h == 1 or tb.bwt[h] != tb.bwt[h - 1]]
    pairs = sorted((tb.lf[h], h) for h in heads)
    keys = list(idx.boundary_keys)
    assert all(map(lt, keys, keys[1:]))
    assert keys == [p for p, _ in pairs]
    assert list(idx.ilf_at_boundary) == [h for _, h in pairs]


def test_boundary_count_figure(fig_text):
    idx = build_ilf_index(fig_text)
    assert idx.boundary_count <= 6 + 3
    assert idx.r_original == 6


def test_boundary_count_all_distinct():
    t = Text.from_symbols([3, 1, 4, 2, 0], 5)
    assert build_ilf_index(t).boundary_count == t.n + 1


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_boundary_invariants(symbols):
    t = Text.from_symbols(symbols, 4)
    idx = build_ilf_index(t)
    assert idx.boundary_keys[0] == 1
    assert idx.boundary_count == idx.r_shifted
    assert idx.r_shifted <= idx.r_original + 3
    assert list(idx.boundary_keys) == sorted(idx.boundary_keys)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=200))
@settings(max_examples=80, deadline=None)
def test_boundaries_match_terminated_bundle(symbols):
    """The run counts and the boundary samples equal a per-rank loop over
    the terminated text's own BWT and LF rows."""
    t = Text.from_symbols(symbols, 4)
    idx = build_ilf_index(t)
    shifted = append_terminator(t).shifted
    tb = build_bundle(shifted)
    heads = [h for h in range(1, shifted.n + 1) if h == 1 or tb.bwt[h] != tb.bwt[h - 1]]
    pairs = sorted((tb.lf[h], h) for h in heads)
    assert idx.r_original == bwt_run_count(t)
    assert idx.r_shifted == len(heads)
    assert tuple(idx.boundary_keys) == tuple(p for p, _ in pairs)
    assert tuple(idx.ilf_at_boundary) == tuple(h for _, h in pairs)


def test_remap_leaves_answers_unchanged():
    t = Text.from_symbols([5, 1000, 5, 7, 1000], 1001)
    b = build_bundle(t)
    idx = build_ilf_index(t)
    for i in range(1, t.n + 1):
        assert ilf_query(idx, i) == b.ilf[i]


# ---------------------------------------------------------------------------
# ilf_query


def test_ilf_query_figure_values(fig_text, fig_bundle):
    idx = build_ilf_index(fig_text)
    assert ilf_query(idx, 2) == 7
    assert ilf_query(idx, 1) == 19
    assert ilf_query(idx, 19) == 16
    for i in range(1, 20):
        assert ilf_query(idx, i) == fig_bundle.ilf[i]


def test_ilf_query_single_symbol():
    idx = build_ilf_index(Text.from_ascii("a"))
    assert ilf_query(idx, 1) == 1


def test_ilf_query_out_of_range(fig_text):
    idx = build_ilf_index(fig_text)
    with pytest.raises(IndexError):
        ilf_query(idx, 0)
    with pytest.raises(IndexError):
        ilf_query(idx, 20)


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_ilf_query_full_sweep_both_flavors(symbols):
    t = Text.from_symbols(symbols, 4)
    b = build_bundle(t)
    idx = build_ilf_index(t)
    for i in range(1, t.n + 1):
        assert ilf_query(idx, i) == b.ilf[i]


def test_ilf_query_larger_random_sweep():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(500, 2000)
        sigma = rng.choice([2, 4, 26])
        t = Text.from_symbols([rng.randrange(sigma) for _ in range(n)], sigma)
        b = build_bundle(t)
        idx = build_ilf_index(t)
        assert all(ilf_query(idx, i) == b.ilf[i] for i in range(1, n + 1))


def test_one_predecessor_query_per_lookup(fig_text, monkeypatch):
    calls = []
    search = rlbwt_ilf.bisect_right

    def counted(keys, x):
        calls.append(x)
        return search(keys, x)

    monkeypatch.setattr(rlbwt_ilf, "bisect_right", counted)
    idx = build_ilf_index(fig_text)
    calls.clear()
    for i in range(1, 20):
        ilf_query(idx, i)
    # Every position except the wrap-around i_last costs one search.
    assert len(calls) == 19 - 1


def test_stored_integers_figure(fig_text):
    # 8 boundary keys and their 8 samples.
    assert build_ilf_index(fig_text).stored_integers == 16


@pytest.mark.parametrize("sigma", [2, 5, 40])
def test_wide_alphabet_matches_bundle(sigma):
    """Symbols past the terminator's width limit index without any remap."""
    rng = random.Random(sigma)
    base = 2**31
    for _ in range(20):
        n = rng.randint(1, 200)
        symbols = [base + 7919 * rng.randrange(sigma) for _ in range(n)]
        t = Text.from_symbols(symbols)
        with pytest.raises(ValueError):
            append_terminator(t)
        b = build_bundle(t)
        idx = build_ilf_index(t)
        assert idx.r_original == bwt_run_count(t)
        assert [ilf_query(idx, i) for i in range(1, n + 1)] == list(b.ilf[1:])

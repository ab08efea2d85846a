import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csq.measures import (
    DeltaValue,
    bwt_run_count,
    bwt_run_count_from_isa,
    delta_append_check,
    distinct_substring_counts,
    lpf_array,
    lpf_with_sources,
    lz77_factorize,
    lz77_from_bundle,
    morphism_expand,
    run_length_encode,
    run_length_factorization,
    substring_complexity,
    text_measures,
    validate_lz_like,
)
from csq.text_core import Text, build_bundle, lce_naive

small_texts = st.lists(st.integers(0, 3), min_size=1, max_size=64)
binary_texts = st.lists(st.integers(0, 1), min_size=1, max_size=64)


# ---------------------------------------------------------------------------
# Oracles


def _distinct_counts_naive(symbols):
    b = bytes(symbols)
    n = len(b)
    return [len({b[i : i + l] for i in range(n - l + 1)}) for l in range(1, n + 1)]


def _delta_naive(symbols) -> tuple[int, int, int]:
    from fractions import Fraction

    counts = _distinct_counts_naive(symbols)
    best, arg = Fraction(counts[0], 1), 1
    for l in range(2, len(symbols) + 1):
        v = Fraction(counts[l - 1], l)
        if v > best:
            best, arg = v, l
    return best.numerator, best.denominator, arg


def _lpf_naive(t: Text) -> list[int]:
    return [
        max((lce_naive(t, j, jp) for jp in range(1, j)), default=0)
        for j in range(1, t.n + 1)
    ]


def _greedy_shape_naive(t: Text) -> list[tuple[int, int]]:
    """Phrase shape (literal symbol, 0) / (None, length) by quadratic rescan."""
    out = []
    j = 1
    while j <= t.n:
        best = max((lce_naive(t, j, jp) for jp in range(1, j)), default=0)
        if best == 0:
            out.append((t.at(j), 0))
            j += 1
        else:
            out.append((None, best))
            j += best
    return out


# ---------------------------------------------------------------------------
# Run-length encoding


def test_rle_examples():
    rle = run_length_encode(Text.from_symbols([0, 0, 1, 1, 1, 0, 1], 2))
    assert rle.runs == ((0, 2), (1, 3), (0, 1), (1, 1))
    assert run_length_encode(Text.from_ascii("a")).runs == ((ord("a"), 1),)


def test_rle_empty_text_errors():
    with pytest.raises(ValueError):
        run_length_encode(Text.from_symbols([]))


@given(small_texts)
@settings(max_examples=80, deadline=None)
def test_rle_roundtrip_and_invariants(symbols):
    t = Text.from_symbols(symbols, 4)
    rle = run_length_encode(t)
    assert rle.decode() == symbols
    assert sum(length for _, length in rle.runs) == t.n
    assert all(length >= 1 for _, length in rle.runs)
    for (a, _), (b, _) in zip(rle.runs, rle.runs[1:]):
        assert a != b


# ---------------------------------------------------------------------------
# LPF


def test_lpf_examples():
    assert lpf_array(Text.from_ascii("aaaa")) == [0, 3, 2, 1]
    assert lpf_array(Text.from_ascii("ab")) == [0, 0]


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_lpf_matches_naive(symbols):
    t = Text.from_symbols(symbols, 4)
    assert lpf_array(t) == _lpf_naive(t)


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_lpf_sources_are_witnesses(symbols):
    t = Text.from_symbols(symbols, 4)
    lpf, src = lpf_with_sources(t)
    for j in range(1, t.n + 1):
        if lpf[j - 1] == 0:
            assert src[j - 1] == 0
        else:
            assert 1 <= src[j - 1] < j
            assert lce_naive(t, j, src[j - 1]) >= lpf[j - 1]


# ---------------------------------------------------------------------------
# LZ77


def test_lz77_figure_representation(fig_text):
    f = lz77_factorize(fig_text)
    assert f.phrases == (
        (ord("b"), 0),
        (1, 1),
        (ord("a"), 0),
        (2, 2),
        (3, 3),
        (7, 6),
        (10, 5),
    )
    assert f.phrase_count == 7
    assert f.decode() == list(fig_text.symbols)


def test_lz77_unary_run():
    f = lz77_factorize(Text.from_ascii("a" * 8))
    assert f.phrases == ((ord("a"), 0), (1, 7))


def test_lz77_greedy_shape_matches_naive_scan():
    rng = random.Random(0x5EED)
    for _ in range(30):
        n = rng.randint(1, 200)
        sigma = rng.choice([2, 4])
        t = Text.from_symbols([rng.randrange(sigma) for _ in range(n)], sigma)
        got = [(a, l) if l == 0 else (None, l) for a, l in lz77_factorize(t).phrases]
        assert got == _greedy_shape_naive(t)


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_lz77_decodes_and_validates(symbols):
    t = Text.from_symbols(symbols, 4)
    f = lz77_factorize(t)
    assert f.decode() == symbols
    assert validate_lz_like(t, f) == f.phrase_count


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_lz77_from_bundle_equals_lz77_factorize(symbols):
    t = Text.from_symbols(symbols, 4)
    assert lz77_from_bundle(build_bundle(t)) == lz77_factorize(t)


# ---------------------------------------------------------------------------
# validate_lz_like


def test_validate_all_literals(fig_text):
    k = validate_lz_like(fig_text, [(c, 0) for c in fig_text.symbols])
    assert k == fig_text.n


def test_validate_rejects_bad_phrases(fig_text):
    t = Text.from_ascii("abab")
    with pytest.raises(ValueError, match="phrase 1"):
        validate_lz_like(t, [(3, 2), (ord("a"), 0), (ord("b"), 0)])  # no earlier source
    with pytest.raises(ValueError, match="phrase 3"):
        validate_lz_like(t, [(ord("a"), 0), (ord("b"), 0), (2, 2)])  # mismatching copy
    with pytest.raises(ValueError, match="phrase 2"):
        validate_lz_like(t, [(ord("a"), 0), (1, 9)])  # runs past the end
    with pytest.raises(ValueError, match="covers"):
        validate_lz_like(t, [(ord("a"), 0), (ord("b"), 0)])


def test_validate_reports_matched_prefix_of_overlapping_copy():
    """A self-overlapping copy that fails names how many symbols matched."""
    t = Text.from_ascii("aaaab")
    with pytest.raises(ValueError, match=r"^phrase 2: source 1 matches only 3 < 4 symbols$"):
        validate_lz_like(t, [(ord("a"), 0), (1, 4)])


def _random_valid_factorization(rng, t: Text) -> list[tuple[int, int]]:
    phrases = []
    j = 1
    while j <= t.n:
        options = [
            (jp, lce_naive(t, j, jp))
            for jp in range(1, j)
            if lce_naive(t, j, jp) >= 1
        ]
        if options and rng.random() < 0.7:
            jp, lmax = rng.choice(options)
            length = rng.randint(1, lmax)
            phrases.append((jp, length))
            j += length
        else:
            phrases.append((t.at(j), 0))
            j += 1
    return phrases


def test_greedy_is_minimal_over_random_factorizations():
    rng = random.Random(0xFACADE)
    for _ in range(40):
        n = rng.randint(1, 60)
        sigma = rng.choice([2, 3])
        t = Text.from_symbols([rng.randrange(sigma) for _ in range(n)], sigma)
        z = lz77_factorize(t).phrase_count
        fact = _random_valid_factorization(rng, t)
        assert validate_lz_like(t, fact) == len(fact)
        assert z <= len(fact)


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_run_length_factorization_validates(symbols):
    t = Text.from_symbols(symbols, 4)
    fact = run_length_factorization(t)
    k = run_length_encode(t).run_count
    assert validate_lz_like(t, fact) == fact.phrase_count
    assert fact.phrase_count <= 2 * k
    assert lz77_factorize(t).phrase_count <= 2 * k


# ---------------------------------------------------------------------------
# BWT run count


def test_bwt_run_count_examples(fig_text):
    assert bwt_run_count(fig_text) == 6
    assert bwt_run_count(Text.from_ascii("a" * 17)) == 1


@given(binary_texts)
@settings(max_examples=60, deadline=None)
def test_bwt_run_count_matches_bundle(symbols):
    t = Text.from_symbols(symbols, 2)
    bwt = build_bundle(t).bwt[1:]
    runs = 1 + sum(1 for a, b in zip(bwt, bwt[1:]) if a != b)
    assert bwt_run_count(t) == runs
    assert bwt_run_count_from_isa(t, build_bundle(t).isa) == runs


# ---------------------------------------------------------------------------
# Substring complexity


def test_delta_examples(fig_text):
    assert substring_complexity(Text.from_ascii("a" * 9)) == DeltaValue(1, 1, 1)
    assert substring_complexity(Text.from_ascii("ab")) == DeltaValue(2, 1, 1)
    num, den, arg = _delta_naive(fig_text.symbols)
    assert substring_complexity(fig_text) == DeltaValue(num, den, arg)


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_substring_counts_match_hash_sets(symbols):
    t = Text.from_symbols(symbols, 4)
    assert distinct_substring_counts(t) == _distinct_counts_naive(symbols)


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_delta_matches_naive_and_reversal_invariant(symbols):
    t = Text.from_symbols(symbols, 4)
    d = substring_complexity(t)
    assert (d.numerator, d.denominator, d.arg_len) == _delta_naive(symbols)
    rev = substring_complexity(t.reverse())
    assert d.value == rev.value


def test_delta_append_examples():
    before, after = delta_append_check(Text.from_ascii("a" * 5), ord("a"))
    assert (before.value, after.value) == (1, 1)
    before, after = delta_append_check(Text.from_ascii("ab"), ord("c"))
    assert (before.value, after.value) == (2, 3)


@given(binary_texts, st.integers(0, 1))
@settings(max_examples=80, deadline=None)
def test_delta_append_bound(symbols, c):
    t = Text.from_symbols(symbols, 2)
    before, after = delta_append_check(t, c)
    assert after.value <= before.value + 1


# ---------------------------------------------------------------------------
# All three measures from one sort


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_text_measures_equal_separate_measures(symbols):
    t = Text.from_symbols(symbols, 4)
    assert text_measures(t) == (lz77_factorize(t), bwt_run_count(t), substring_complexity(t))


def test_text_measures_empty_text_errors():
    with pytest.raises(ValueError):
        text_measures(Text.from_symbols([]))


# ---------------------------------------------------------------------------
# Uniform morphisms


def test_morphism_identity():
    t = Text.from_symbols([0, 1, 0, 2], 3)
    image = morphism_expand(t, {c: (c,) for c in range(3)})
    assert image.symbols == t.symbols


def test_morphism_five_symbol_blocks():
    sigma = 2
    blocks = {a: (0, 0, 1, sigma - 1 - a, 1) for a in range(sigma)}
    image = morphism_expand(Text.from_symbols([1, 0], sigma), blocks)
    assert list(image.symbols) == [0, 0, 1, 0, 1, 0, 0, 1, 1, 1]


def test_morphism_errors():
    t = Text.from_symbols([0, 1], 2)
    with pytest.raises(ValueError, match="ragged"):
        morphism_expand(t, {0: (0, 1), 1: (1,)})
    with pytest.raises(ValueError, match="lacks a block"):
        morphism_expand(t, {0: (0, 1)})


@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=48),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_morphism_multiplies_z_by_at_most_k(symbols, k, rng):
    t = Text.from_symbols(symbols, 3)
    blocks = {c: tuple(rng.randrange(3) for _ in range(k)) for c in range(3)}
    image = morphism_expand(t, blocks)
    assert image.n == k * t.n
    assert lz77_factorize(image).phrase_count <= k * lz77_factorize(t).phrase_count

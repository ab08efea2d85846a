import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csq import measures
from csq.gadgets import build_gadget, random_input
from csq.measures import (
    DeltaValue,
    bwt_run_count,
    delta_append_check,
    distinct_substring_counts,
    lz77_factorize,
    lz77_from_bundle,
    repeat_factorization,
    run_length_encode,
    substring_complexity,
    validate_lz_like,
)
from csq.rlbwt_ilf import build_ilf_index
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


def _lpf_with_sources(t: Text) -> tuple[list[int], list[int]]:
    """The LPF stack pass's (lpf, src) over the text's bundle rows."""
    bundle = build_bundle(t)
    return measures._lpf_from_core(bundle.sa, bundle.lcp)


def _greedy_shape_naive(t: Text) -> list[tuple[int, int]]:
    """Phrase shape (literal symbol, 0) / (None, length) by quadratic rescan."""
    out = []
    j = 1
    while j <= t.n:
        best = max((lce_naive(t, j, jp) for jp in range(1, j)), default=0)
        if best == 0:
            out.append((t.symbols[j - 1], 0))
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


@pytest.mark.parametrize("measure", [lz77_factorize, bwt_run_count,
                                     distinct_substring_counts, substring_complexity])
def test_measures_of_an_empty_text_error(measure):
    with pytest.raises(ValueError, match="empty text"):
        measure(Text.from_symbols([]))


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
    assert _lpf_with_sources(Text.from_ascii("aaaa"))[0] == [0, 3, 2, 1]
    assert _lpf_with_sources(Text.from_ascii("ab"))[0] == [0, 0]


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_lpf_matches_naive(symbols):
    t = Text.from_symbols(symbols, 4)
    assert _lpf_with_sources(t)[0] == _lpf_naive(t)


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_lpf_sources_are_witnesses(symbols):
    t = Text.from_symbols(symbols, 4)
    lpf, src = _lpf_with_sources(t)
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


def _stack_parse(t: Text) -> tuple[tuple[int, int], ...]:
    """The greedy parse walked off the LPF stack pass's lengths and sources."""
    lpf, src = _lpf_with_sources(t)
    phrases = []
    j = 0
    while j < t.n:
        if lpf[j] == 0:
            phrases.append((t.symbols[j], 0))
            j += 1
        else:
            phrases.append((src[j], lpf[j]))
            j += lpf[j]
    return tuple(phrases)


@given(
    st.sampled_from([1, 2, 4, 64]).flatmap(
        lambda sigma: st.lists(st.integers(0, sigma - 1), min_size=1, max_size=300)
    )
)
@settings(max_examples=100, deadline=None)
def test_lz77_phrases_and_sources_equal_stack_parse(symbols):
    """The per-phrase parse keeps the stack pass's tie rule and sources."""
    t = Text.from_symbols(symbols, 64)
    want = _stack_parse(t)
    assert lz77_factorize(t).phrases == want
    assert lz77_from_bundle(build_bundle(t)).phrases == want


def _count_stack_passes(monkeypatch) -> list[int]:
    calls = []
    stack_pass = measures._lpf_from_core

    def counted(sa, lcp):
        calls.append(len(sa) - 1)
        return stack_pass(sa, lcp)

    monkeypatch.setattr(measures, "_lpf_from_core", counted)
    return calls


def test_lz77_quadratic_scan_family_falls_back_to_stack_pass(monkeypatch):
    """On 0 m 0 m-1 ... 0 1 the nearest parsed ranks lie ever farther off,
    so the per-phrase parse runs out of its linear scan budget and returns
    the stack pass's parse of the whole text."""
    m = 2 * 10**4
    t = Text.from_symbols([s for v in range(m, 0, -1) for s in (0, v)], m + 1)
    want = _stack_parse(t)
    bundle = build_bundle(t)
    calls = _count_stack_passes(monkeypatch)
    assert lz77_factorize(t).phrases == want
    assert lz77_from_bundle(bundle).phrases == want
    assert calls == [2 * m] * 2


def test_lz77_no_fallback_on_gadget_random_and_periodic_texts(monkeypatch):
    rng = random.Random(0x12A7)
    texts = [
        Text.from_symbols([rng.randrange(4) for _ in range(3000)], 4),
        Text.from_symbols([int(i % 8 == 7) for i in range(3000)], 2),
    ]
    for kind, size in [
        ("lcp-select", 32),
        ("isa-count", 32),
        ("bwt-color", 32),
        ("plcp-pred", 16),
        ("phi-pred", 16),
        ("ilf-pred", 8),
        ("phi-inverse", 32),
    ]:
        texts.append(build_gadget(kind, random_input(kind, size, rng)).text)
    wants = [_stack_parse(t) for t in texts]
    calls = _count_stack_passes(monkeypatch)
    for t, want in zip(texts, wants):
        assert lz77_factorize(t).phrases == want
        assert lz77_from_bundle(build_bundle(t)).phrases == want
    assert calls == []


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


@pytest.mark.parametrize(
    "phrases, message",
    [
        ([(97, 0), (97, 0)], "phrase 2: literal 97 != text symbol 98 at position 2"),
        ([(97, 0), (98, 0), (1, 2), (97, 0)], "phrase 4: literal lies past the end of the text"),
        ([(97, 0), (1, -1)], "phrase 2: negative length"),
    ],
    ids=["wrong-literal", "literal-past-end", "negative-copy-length"],
)
def test_validate_names_the_refused_phrase(phrases, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate_lz_like(Text.from_ascii("abab"), phrases)


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
            phrases.append((t.symbols[j - 1], 0))
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
    runs = run_length_encode(t).runs
    fact = repeat_factorization((((symbol,), length) for symbol, length in runs), t.n)
    k = len(runs)
    assert validate_lz_like(t, fact) == fact.phrase_count
    assert fact.phrase_count <= 2 * k
    assert lz77_factorize(t).phrase_count <= 2 * k


def test_repeat_factorization_skips_blocks_that_spell_nothing():
    """An empty unit spells nothing however many copies it has, so it adds
    no phrase; the rest still factorizes the text it spells."""
    fact = repeat_factorization([((), 3), ((1,), 2), ((0, 1), 0), ([], 1), ((2, 1), 2)], 6)
    assert fact.phrases == ((1, 0), (1, 1), (2, 0), (1, 0), (3, 2))
    assert validate_lz_like(Text.from_symbols([1, 1, 2, 1, 2, 1], 3), fact) == 5


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


def test_delta_append_check_raises(monkeypatch):
    """The one-symbol bound is an explicit raise, so it holds under -O."""
    values = iter([DeltaValue(1, 1, 1), DeltaValue(5, 2, 2)])
    monkeypatch.setattr(measures, "substring_complexity", lambda text: next(values))
    with pytest.raises(AssertionError, match="delta grew from 1 to 5/2"):
        delta_append_check(Text.from_ascii("ab"), ord("a"))


# ---------------------------------------------------------------------------
# Uniform morphisms


@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=48),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_morphism_multiplies_z_by_at_most_k(symbols, k, rng):
    """A uniform morphism maps each symbol to a length-k block.  Each phrase
    of the greedy factorization of T maps to its literals' blocks or to one
    copy k times as long, so the image has a valid factorization of at most
    k * z(T) phrases, and z of the image is at most k * z(T)."""
    t = Text.from_symbols(symbols, 3)
    blocks = [tuple(rng.randrange(3) for _ in range(k)) for _ in range(3)]
    image = Text.from_symbols([s for c in symbols for s in blocks[c]], 3)
    fact = lz77_factorize(t)
    induced = [
        phrase
        for a, length in fact.phrases
        for phrase in ([(s, 0) for s in blocks[a]] if length == 0 else [(k * (a - 1) + 1, k * length)])
    ]
    assert validate_lz_like(image, induced) <= k * fact.phrase_count
    assert lz77_factorize(image).phrase_count <= k * fact.phrase_count


# ---------------------------------------------------------------------------
# Closed forms on Sturmian and Thue-Morse words


def _fibonacci_word(n: int) -> list[int]:
    """The length-n prefix of the Fibonacci word: f1 = 0, f2 = 01 and
    fk = f(k-1) f(k-2)."""
    shorter, word = [0], [0, 1]
    while len(word) < n:
        shorter, word = word, word + shorter
    return word[:n]


def _thue_morse_word(n: int) -> list[int]:
    """The length-n prefix of the Thue-Morse word: t_i = popcount(i) mod 2."""
    return [bin(i).count("1") & 1 for i in range(n)]


def _thue_morse_factors(l: int) -> int:
    """p(l), the number of length-l factors of the infinite Thue-Morse word
    (Brlek 1989; de Luca & Varricchio 1989): p(1) = 2, p(2) = 4, and for
    l = 2^a + q + 1 with 0 <= q < 2^a, 6*2^(a-1) + 4q when q <= 2^(a-1),
    else 8*2^(a-1) + 2q."""
    if l <= 2:
        return 2 * l
    a = (l - 1).bit_length() - 1
    q, half = l - 1 - (1 << a), 1 << (a - 1)
    return 6 * half + 4 * q if q <= half else 8 * half + 2 * q


def test_fibonacci_prefix_has_delta_two_at_length_one():
    """A Sturmian word has exactly l + 1 factors of each length l (Morse &
    Hedlund 1940), so a prefix holding both letters has d_1 = 2 and
    d_l <= l + 1 after it: delta is 2/1, first reached at length 1."""
    text = Text.from_symbols(_fibonacci_word(75_025), 2)
    assert substring_complexity(text) == DeltaValue(2, 1, 1)


def test_thue_morse_prefix_delta_is_the_closed_form_maximum():
    """The prefix of length 2^16 has p(l) factors for every l <= 2^14 + 1,
    and its delta is the largest p(l)/l over those l: 40960/12289, at
    l = 3 * 2^12 + 1."""
    best, arg = Fraction(0), 0
    for l in range(1, (1 << 14) + 2):
        if Fraction(_thue_morse_factors(l), l) > best:
            best, arg = Fraction(_thue_morse_factors(l), l), l
    got = substring_complexity(Text.from_symbols(_thue_morse_word(1 << 16), 2))
    assert got == DeltaValue(40960, 12289, 12289)
    assert got == DeltaValue(best.numerator, best.denominator, arg)


def test_thue_morse_prefix_counts_follow_the_closed_form():
    """The prefix of length 2^13 has p(l) factors for every l <= 2^11 + 1;
    being finite, it first falls short at l = 2^11 + 2."""
    counts = distinct_substring_counts(Text.from_symbols(_thue_morse_word(1 << 13), 2))
    assert counts[: (1 << 11) + 1] == [_thue_morse_factors(l) for l in range(1, (1 << 11) + 2)]
    assert counts[(1 << 11) + 1] != _thue_morse_factors((1 << 11) + 2)


# ---------------------------------------------------------------------------
# Cross-measure laws


def _law_texts() -> dict[str, list[int]]:
    """Seeded random, period-k with point edits, and Fibonacci and
    Thue-Morse prefixes, at lengths up to 10^4, and the two closed-form
    texts of about 10^5 symbols above."""
    rng = random.Random(0xDE17A)
    texts = {}
    for n in (10, 300, 10**4):
        for sigma in (2, 4):
            texts[f"random-s{sigma}-n{n}"] = [rng.randrange(sigma) for _ in range(n)]
    for k in (2, 7, 50):
        for n in (1000, 10**4):
            block = [rng.randrange(4) for _ in range(k)]
            symbols = [block[i % k] for i in range(n)]
            for _ in range(n // 256):
                symbols[rng.randrange(n)] = rng.randrange(4)
            texts[f"period{k}-edits-n{n}"] = symbols
    for n in (2, 33, 1000, 10**4):
        texts[f"fibonacci-n{n}"] = _fibonacci_word(n)
        texts[f"thue-morse-n{n}"] = _thue_morse_word(n)
    texts["fibonacci-n75025"] = _fibonacci_word(75_025)
    texts["thue-morse-n65536"] = _thue_morse_word(1 << 16)
    return texts


_LAW_TEXTS = _law_texts()


@pytest.mark.parametrize("name", sorted(_LAW_TEXTS))
def test_delta_is_at_most_z_and_terminated_r(name):
    """delta <= gamma <= z, since the last symbols of the greedy LZ77 phrases
    (overlaps allowed) form a string attractor (Kociumaka, Navarro & Prezza,
    IEEE TIT 2023), and gamma <= r for the BWT of the terminated text
    (Kempa & Prezza, STOC 2018), which is the index's r_shifted.  csq's
    unterminated r may be up to 3 below it, so the law is not stated on r."""
    text = Text.from_symbols(_LAW_TEXTS[name], 4)
    bundle = build_bundle(text)  # held, so the three measures share one sort
    delta = substring_complexity(text).value
    z = lz77_factorize(text).phrase_count
    r_terminated = build_ilf_index(text).r_shifted
    del bundle
    assert delta <= z, (name, delta, z)
    assert delta <= r_terminated, (name, delta, r_terminated)

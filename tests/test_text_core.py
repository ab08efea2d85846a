import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csq import cli
from csq.gadgets import KINDS, build_gadget, random_input, verify_reduction
from csq.grammar_lcp_rmq import build_lcp_rmq_index
from csq.measures import lz77_factorize, validate_lz_like
from csq.rlbwt_ilf import build_ilf_index
from csq.text_core import (
    PatternRange,
    Text,
    build_bundle,
    lce_naive,
    occurrences,
    pattern_range,
    suffix_array_naive,
    suffix_array_prefix_doubling,
)

from conftest import (
    FIG_ASCII,
    FIG_BWT,
    FIG_ILF,
    FIG_INV_PHI,
    FIG_ISA,
    FIG_LCP,
    FIG_LF,
    FIG_PHI,
    FIG_PLCP,
    FIG_SA,
)

# Strategies shared by the property tests below.
binary_texts = st.lists(st.integers(0, 1), min_size=1, max_size=64)
small_texts = st.lists(st.integers(0, 3), min_size=1, max_size=64)


# ---------------------------------------------------------------------------
# Text


def test_text_from_ascii_roundtrip():
    t = Text.from_ascii("abc")
    assert t.symbols == (97, 98, 99)
    assert t.to_ascii() == "abc"
    assert t.sigma == 256


def test_text_rejects_bad_symbols():
    with pytest.raises(ValueError):
        Text.from_symbols([-1])
    with pytest.raises(ValueError):
        Text.from_symbols([3], sigma=3)


def test_text_at_is_one_based(fig_text):
    assert fig_text.at(1) == ord("b")
    assert fig_text.at(19) == ord("a")
    with pytest.raises(IndexError):
        fig_text.at(0)
    with pytest.raises(IndexError):
        fig_text.at(20)


# ---------------------------------------------------------------------------
# build_bundle: frozen worked example


def test_bundle_matches_known_arrays(fig_bundle):
    b = fig_bundle
    assert list(b.sa[1:]) == FIG_SA
    assert list(b.isa[1:]) == FIG_ISA
    assert list(b.lcp[1:]) == FIG_LCP
    assert list(b.plcp[1:]) == FIG_PLCP
    assert "".join(chr(c) for c in b.bwt[1:]) == FIG_BWT
    assert list(b.lf[1:]) == FIG_LF
    assert list(b.ilf[1:]) == FIG_ILF
    assert list(b.phi[1:]) == FIG_PHI
    assert list(b.inv_phi[1:]) == FIG_INV_PHI


def test_bundle_single_symbol():
    b = build_bundle(Text.from_ascii("a"))
    for arr in (b.sa, b.lf, b.ilf, b.phi, b.inv_phi):
        assert list(arr[1:]) == [1]
    assert list(b.lcp[1:]) == [0]
    assert list(b.plcp[1:]) == [0]
    assert b.bwt[1] == ord("a")


def test_bundle_rejects_empty_text():
    with pytest.raises(ValueError):
        build_bundle(Text.from_symbols([]))


def test_bundle_simple_strings():
    assert list(build_bundle(Text.from_ascii("abc")).sa[1:]) == [1, 2, 3]
    assert list(build_bundle(Text.from_ascii("aaa")).sa[1:]) == [3, 2, 1]


# ---------------------------------------------------------------------------
# build_bundle: definitional properties


def _check_bundle_invariants(t: Text):
    b = build_bundle(t)
    n = t.n
    assert sorted(b.sa[1:]) == list(range(1, n + 1))
    for i in range(1, n + 1):
        assert b.isa[b.sa[i]] == i
        assert b.plcp[b.sa[i]] == b.lcp[i]
        assert b.ilf[b.lf[i]] == i
        assert b.inv_phi[b.phi[i]] == i
    assert b.lcp[1] == 0
    for i in range(2, n + 1):
        assert b.lcp[i] == lce_naive(t, b.sa[i], b.sa[i - 1])
    for i in range(1, n + 1):
        j = b.sa[i]
        assert b.bwt[i] == (t.at(j - 1) if j > 1 else t.at(n))
        assert b.lf[i] == (b.isa[j - 1] if j > 1 else b.isa[n])
    assert b.phi[b.sa[1]] == b.sa[n]
    for i in range(2, n + 1):
        assert b.phi[b.sa[i]] == b.sa[i - 1]
    # ILF advances text position: ILF[ISA[j]] = ISA[j+1].
    for j in range(1, n):
        assert b.ilf[b.isa[j]] == b.isa[j + 1]
    assert b.ilf[b.isa[n]] == b.isa[1]


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_bundle_invariants_random(symbols):
    """All nine arrays satisfy their defining identities."""
    _check_bundle_invariants(Text.from_symbols(symbols, 4))


def test_bundle_matches_naive_sort_random():
    """Prefix doubling agrees with direct suffix comparison."""
    rng = random.Random(0xC0FFEE)
    for _ in range(120):
        n = rng.randint(1, 512)
        sigma = rng.choice([2, 4, 26])
        syms = [rng.randrange(sigma) for _ in range(n)]
        assert suffix_array_prefix_doubling(syms) == suffix_array_naive(syms)


def test_one_suffix_sort_per_entry_point(monkeypatch, tmp_path, fig_text):
    """Every structure of a text derives from a single suffix sort."""
    sorts = []

    def counted(symbols):
        sorts.append(len(symbols))
        return suffix_array_prefix_doubling(symbols)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "csq" and hasattr(module, "suffix_array_prefix_doubling"):
            monkeypatch.setattr(module, "suffix_array_prefix_doubling", counted)

    def sort_count(call):
        sorts.clear()
        call()
        return len(sorts)

    path = tmp_path / "fig.txt"
    path.write_text(FIG_ASCII)
    assert sort_count(lambda: cli.main(["measures", "--input", str(path)])) == 1
    assert sort_count(lambda: cli.main(["lcp-rmq", "--input", str(path)])) == 1
    assert sort_count(lambda: cli.main(["lce", "--input", str(path)])) == 1
    assert sort_count(lambda: build_bundle(fig_text)) == 1
    assert sort_count(lambda: build_ilf_index(fig_text)) == 1
    assert sort_count(lambda: build_lcp_rmq_index(fig_text)) == 1
    factorization = lz77_factorize(fig_text)
    assert sort_count(lambda: validate_lz_like(fig_text, factorization)) == 0
    rng = random.Random(0x50)
    for kind in KINDS:
        if kind == "phi-inverse":
            continue  # its oracles also sort the original, a second text
        gadget = build_gadget(kind, random_input(kind, 3, rng))
        assert sort_count(lambda: verify_reduction(kind, gadget)) == 0, kind


def test_isa_counts_smaller_suffixes(fig_text, fig_bundle):
    """ISA[j] - 1 suffixes sort strictly before T[j..n]."""
    t, b = fig_text, fig_bundle
    for j in range(1, t.n + 1):
        rng = pattern_range(t, b.sa, t.slice(j, t.n))
        assert b.isa[j] == 1 + rng.range_beg


@given(binary_texts)
@settings(max_examples=60, deadline=None)
def test_bwt_zero_iff_lf_small(symbols):
    """Binary texts: BWT[i] = 0 exactly when LF[i] lands among the 0-suffixes."""
    t = Text.from_symbols(symbols, 2)
    b = build_bundle(t)
    n0 = symbols.count(0)
    for i in range(1, t.n + 1):
        assert (b.bwt[i] == 0) == (b.lf[i] <= n0)


@given(binary_texts)
@settings(max_examples=60, deadline=None)
def test_symbol_zero_iff_isa_small(symbols):
    """Binary texts: T[j] = 0 exactly when ISA[j] lands among the 0-suffixes."""
    t = Text.from_symbols(symbols, 2)
    b = build_bundle(t)
    n0 = symbols.count(0)
    for j in range(1, t.n + 1):
        assert (t.at(j) == 0) == (b.isa[j] <= n0)


@given(binary_texts)
@settings(max_examples=60, deadline=None)
def test_lce_after_prepending_zero(symbols):
    """For T' = 0·T: LCE_{T'}(1, j+1) >= 1 exactly when T[j] = 0."""
    t = Text.from_symbols(symbols, 2)
    tp = Text.from_symbols([0] + symbols, 2)
    for j in range(1, t.n + 1):
        assert (lce_naive(tp, 1, j + 1) >= 1) == (t.at(j) == 0)


@given(small_texts)
@settings(max_examples=60, deadline=None)
def test_plcp_is_lce_with_phi(symbols):
    """PLCP[j] = LCE(j, PHI[j]) away from the lexicographically first suffix."""
    t = Text.from_symbols(symbols, 4)
    b = build_bundle(t)
    for j in range(1, t.n + 1):
        if j == b.sa[1]:
            assert b.plcp[j] == 0
        else:
            assert b.plcp[j] == lce_naive(t, j, b.phi[j])


# ---------------------------------------------------------------------------
# pattern_range


def test_pattern_range_known(fig_text, fig_bundle):
    assert pattern_range(fig_text, fig_bundle.sa, "ababa") == PatternRange(6, 10)
    assert occurrences(fig_text, fig_bundle.sa, "ababa") == [6, 8, 10, 15]


def test_pattern_range_empty_pattern(fig_text, fig_bundle):
    assert pattern_range(fig_text, fig_bundle.sa, "") == PatternRange(0, 19)


def test_pattern_range_no_match(fig_text, fig_bundle):
    assert pattern_range(fig_text, fig_bundle.sa, "aaa") == PatternRange(1, 1)
    assert pattern_range(fig_text, fig_bundle.sa, "bbb").is_empty


def _pattern_range_naive(t: Text, pat: tuple[int, ...]) -> PatternRange:
    suffixes = sorted(t.symbols[j:] for j in range(t.n))
    beg = sum(1 for s in suffixes if s < pat and s[: len(pat)] != pat)
    occ = sum(1 for s in suffixes if s[: len(pat)] == pat)
    return PatternRange(beg, beg + occ)


@given(small_texts, st.lists(st.integers(0, 3), max_size=5))
@settings(max_examples=80, deadline=None)
def test_pattern_range_matches_naive(symbols, pat):
    """Binary-searched ranges equal the count-based definition."""
    t = Text.from_symbols(symbols, 4)
    b = build_bundle(t)
    assert pattern_range(t, b.sa, pat) == _pattern_range_naive(t, tuple(pat))


# ---------------------------------------------------------------------------
# lce_naive


def test_lce_known_values(fig_text):
    assert lce_naive(fig_text, 3, 12) == 8
    assert lce_naive(Text.from_ascii("ab"), 1, 2) == 0
    for i in (1, 7, 19):
        assert lce_naive(fig_text, i, i) == fig_text.n - i + 1


def test_lce_symmetry(fig_text):
    for i in range(1, 20):
        for j in range(1, 20):
            assert lce_naive(fig_text, i, j) == lce_naive(fig_text, j, i)


def test_lce_out_of_range(fig_text):
    with pytest.raises(IndexError):
        lce_naive(fig_text, 0, 3)
    with pytest.raises(IndexError):
        lce_naive(fig_text, 1, 20)


def test_figure_text_is_the_expected_string(fig_text):
    assert fig_text.to_ascii() == FIG_ASCII
    assert fig_text.n == 19

import gc
import pickle
import random
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csq import cli, text_core
from csq.gadgets import KINDS, build_gadget, random_input, verify_reduction
from csq.grammar_lcp_rmq import build_lcp_rmq_index
from csq.measures import (
    bwt_run_count,
    distinct_substring_counts,
    lz77_factorize,
    substring_complexity,
    validate_lz_like,
)
from csq.rlbwt_ilf import build_ilf_index
from csq.text_core import (
    PatternRange,
    Text,
    build_bundle,
    bundle_of,
    lce_naive,
    live_bundle,
    occurrences,
    pattern_range,
    suffix_array,
    suffix_array_naive,
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
    assert t.sigma == 256


def test_text_rejects_bad_symbols():
    with pytest.raises(ValueError):
        Text.from_symbols([-1])
    with pytest.raises(ValueError):
        Text.from_symbols([3], sigma=3)


def test_text_from_symbols_messages_and_default_sigma():
    """A negative symbol is reported before a bad sigma, and sigma before a
    symbol out of its range; sigma defaults to the largest symbol plus one,
    and to 1 for an empty text."""
    for symbols, sigma, message in [
        ([4, -1], 2, "symbols must be non-negative integers"),
        ([4], 0, "sigma must be at least 1"),
        ([], 0, "sigma must be at least 1"),
        ([1, 7, 2], 7, "symbol 7 out of range for sigma=7"),
    ]:
        with pytest.raises(ValueError, match=message):
            Text.from_symbols(symbols, sigma)
    assert Text.from_symbols([]) == Text((), 1)
    assert Text.from_symbols([2, 0, 5]) == Text((2, 0, 5), 6)
    assert Text.from_symbols([True, 3.0], 4) == Text((1, 3), 4)


def test_text_from_ascii_takes_8_bit_characters_only():
    assert Text.from_ascii("a\xff") == Text((97, 255), 256)
    with pytest.raises(ValueError, match="^from_ascii accepts 8-bit characters only$"):
        Text.from_ascii("a\u0100")


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


def test_bundle_rows_are_typed_arrays():
    """The eight rows of positions, ranks and LCP values are 4-byte
    ``array('i')`` rows; BWT is a tuple of the text's own symbol objects."""
    text = Text.from_symbols([int(i % 7 == 6) * 2**40 for i in range(2000)])
    b = build_bundle(text)
    for row in (b.sa, b.isa, b.lcp, b.plcp, b.lf, b.ilf, b.phi, b.inv_phi):
        assert isinstance(row, array) and row.typecode == "i"
    assert max(b.lcp) > 256
    assert type(b.bwt) is tuple
    own = {id(c) for c in text.symbols}
    assert all(id(c) in own for c in b.bwt[1:])


def test_bundle_bytes_per_symbol():
    """A bundle of 10**4 symbols with all nine rows read holds under 48
    bytes per symbol: 4 per entry of each array row, 8 per BWT slot."""
    rng = random.Random(7)
    text = Text.from_symbols([rng.randrange(4) for _ in range(10**4)], 4)
    gc.collect()
    tracemalloc.start()
    try:
        bundle = build_bundle(text)
        for row in ("lcp", "plcp", "bwt", "lf", "ilf", "phi", "inv_phi"):
            getattr(bundle, row)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 48 * text.n


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
        assert b.bwt[i] == (t.symbols[j - 2] if j > 1 else t.symbols[n - 1])
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
    """SA-IS agrees with direct suffix comparison."""
    rng = random.Random(0xC0FFEE)
    for _ in range(120):
        n = rng.randint(1, 512)
        sigma = rng.choice([2, 4, 26])
        syms = [rng.randrange(sigma) for _ in range(n)]
        assert suffix_array(syms) == suffix_array_naive(syms)


def _fibonacci_word(n: int) -> list[int]:
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _de_bruijn_binary(k: int) -> list[int]:
    """Binary de Bruijn sequence of order k (every k-bit word once,
    cyclically), by concatenating Lyndon words in lexicographic order."""
    seq, word = [], [0] * (k + 1)

    def extend(t: int, p: int) -> None:
        if t > k:
            if k % p == 0:
                seq.extend(word[1 : p + 1])
            return
        word[t] = word[t - p]
        extend(t + 1, p)
        for c in range(word[t - p] + 1, 2):
            word[t] = c
            extend(t + 1, t)

    extend(1, 1)
    return seq


def _shuffled_alphabet(d: int) -> list[int]:
    """A seeded shuffle of 0..d-1, 3d random symbols below d, and the shuffle
    again: exactly d distinct symbols, LMS spans that repeat, so the sort
    recurses, and many LMS suffixes that share a first symbol."""
    rng = random.Random(d)
    block = list(range(d))
    rng.shuffle(block)
    return block + [rng.randrange(d) for _ in range(3 * d)] + block


def _period_with_edits(period: int, n: int, edits: list[tuple[int, int]]) -> list[int]:
    syms = [(i % period) % 4 for i in range(n)]
    for pos, c in edits:
        syms[pos % n] = c
    return syms


ADVERSARIAL_TEXTS = {
    "n=1": [5],
    "n=2 equal": [3, 3],
    "n=2 falling": [1, 0],
    "unary": [0] * 300,
    "(ab)^k": [0, 1] * 150,
    "(ab)^k a": [0, 1] * 150 + [0],
    "(ba)^k": [1, 0] * 150,
    "period 5, edited": _period_with_edits(5, 400, [(17, 3), (101, 1), (250, 0), (333, 2)]),
    "fibonacci": _fibonacci_word(400),
    "thue-morse": [bin(i).count("1") & 1 for i in range(512)],
    "de bruijn": _de_bruijn_binary(8),
    "ascending": list(range(300)),
    "descending": list(range(300, 0, -1)),
    "wide alphabet": [2**31 + 7, 2**40, 2**31, 2**40, 2**31 + 7, 0] * 40,
    # With the sentinel, 127 symbols make 2k = 256, the last alphabet whose
    # spans take one byte per symbol; from 128 on they take four.
    **{f"{d} symbols": _shuffled_alphabet(d) for d in (127, 128, 129, 300)},
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_TEXTS))
def test_suffix_array_adversarial_corpus(name):
    """SA-IS on its classic hard cases: deep LMS recursion, all-equal and
    all-distinct LMS names, and symbols far beyond any bucket range."""
    syms = ADVERSARIAL_TEXTS[name]
    assert suffix_array(syms) == suffix_array_naive(syms)


@given(st.integers(1, 4).flatmap(lambda sigma: st.lists(st.integers(0, sigma - 1), max_size=80)))
@settings(max_examples=200, deadline=None)
def test_suffix_array_matches_naive(symbols):
    assert suffix_array(symbols) == suffix_array_naive(symbols)


def test_suffix_array_recursion_with_wide_names(monkeypatch):
    """Recursion levels with more than 128 names, whose spans take four bytes
    per name.  The text is 120 x1 120 x2 ..., so every x is an LMS position,
    and the x's are 25 phrases drawn from four random ones: the spans inside
    a phrase repeat, and those that run into the next phrase differ, so
    spans that agree for long stretches are sorted at every level."""
    levels = []
    real = text_core._sais

    def counted(s, k):
        levels.append(k)
        return real(s, k)

    monkeypatch.setattr(text_core, "_sais", counted)
    rng = random.Random(0)
    phrases = [[rng.randrange(1, 101) for _ in range(60)] for _ in range(4)]
    syms = [c for _ in range(25) for x in rng.choice(phrases) for c in (120, x)]
    assert suffix_array(syms) == suffix_array_naive(syms)
    assert sum(k > 128 for k in levels[1:]) >= 2


@given(
    st.integers(1, 9),
    st.integers(1, 3000),
    st.lists(st.tuples(st.integers(0, 2999), st.integers(0, 3)), max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_suffix_array_periodic_with_edits(period, n, edits):
    """Period-k texts with a few point edits: deep recursion, and many equal
    LMS spans that share one name."""
    syms = _period_with_edits(period, n, edits)
    assert suffix_array(syms) == suffix_array_naive(syms)


def _naive_core(symbols: list[int]) -> tuple[tuple[int, ...], ...]:
    """1-indexed SA, ISA and LCP from a suffix_array_naive sort and direct
    symbol comparison."""
    n = len(symbols)
    sa = [0] + [j + 1 for j in suffix_array_naive(symbols)]
    isa = [0] * (n + 1)
    for r in range(1, n + 1):
        isa[sa[r]] = r
    text = Text.from_symbols(symbols)
    lcp = [0, 0] + [lce_naive(text, sa[r - 1], sa[r]) for r in range(2, n + 1)]
    return tuple(sa), tuple(isa), tuple(lcp)


core_texts = st.one_of(
    st.sampled_from([1, 2, 4]).flatmap(
        lambda sigma: st.lists(st.integers(0, sigma - 1), min_size=1, max_size=80)
    ),
    st.integers(1, 80).map(lambda n: [0] * n),
    st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=8), st.integers(1, 80)).map(
        lambda unit_n: (unit_n[0] * unit_n[1])[: unit_n[1]]
    ),
)


@given(core_texts)
@settings(max_examples=200, deadline=None)
def test_bundle_of_rows_cold_and_held(symbols):
    """Cold, bundle_of sorts into a new bundle with the textbook SA, ISA
    and LCP rows; while a bundle is held, bundle_of hands over that one."""
    text = Text.from_symbols(symbols)
    cold = bundle_of(text)
    assert tuple(map(tuple, (cold.sa, cold.isa, cold.lcp))) == _naive_core(symbols)
    bundle = build_bundle(text)
    assert bundle == cold
    assert bundle_of(text) is bundle


@pytest.fixture
def counts(monkeypatch):
    """counts(call) -> (suffix sorts, Kasai passes) of one call."""
    sorts, kasai_passes = [], []

    def counted(symbols):
        sorts.append(len(symbols))
        return suffix_array(symbols)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "csq" and hasattr(module, "suffix_array"):
            monkeypatch.setattr(module, "suffix_array", counted)
    real_kasai = text_core._lcp_kasai

    def counted_kasai(symbols, sa, isa):
        kasai_passes.append(len(symbols))
        return real_kasai(symbols, sa, isa)

    monkeypatch.setattr(text_core, "_lcp_kasai", counted_kasai)

    def count(call):
        sorts.clear()
        kasai_passes.clear()
        call()
        return len(sorts), len(kasai_passes)

    return count


def test_one_suffix_sort_per_entry_point(counts, tmp_path, fig_text):
    """Every structure of a text derives from a single suffix sort, a
    serve set-up that holds the bundle sorts once for all three builds, and
    a measure of a text whose bundle is held sorts nothing.  Kasai's LCP
    pass runs at most once per text, and only for a reader of LCP, and no
    cold build leaves its bundle behind."""

    def sort_count(call):
        return counts(call)[0]

    path = tmp_path / "fig.txt"
    path.write_text(FIG_ASCII)
    assert counts(lambda: cli.main(["arrays", "--input", str(path)])) == (1, 1)
    assert counts(lambda: cli.main(["measures", "--input", str(path)])) == (1, 1)
    # the oracle bundle, held while the index reads its rows; none reads LCP
    assert counts(lambda: cli.main(["ilf", "--input", str(path)])) == (1, 0)
    assert counts(lambda: cli.main(["lcp-rmq", "--input", str(path)])) == (1, 1)
    assert counts(lambda: cli.main(["lce", "--input", str(path)])) == (1, 1)
    # a bad --epsilon is refused before the text is sorted
    assert counts(lambda: cli.main(["lcp-rmq", "--input", str(path), "--epsilon", "1.0"])) == (0, 0)
    # A fresh text: the session's fig_bundle keeps fig_text's bundle alive.
    text = Text.from_ascii(FIG_ASCII)
    assert counts(lambda: build_bundle(text)) == (1, 0)
    assert live_bundle(text) is None
    assert counts(lambda: build_ilf_index(text)) == (1, 0)
    assert live_bundle(text) is None
    assert counts(lambda: build_lcp_rmq_index(text)) == (1, 1)
    assert live_bundle(text) is None

    def serve_setup():
        bundle = build_bundle(text)
        build_ilf_index(text)
        build_lcp_rmq_index(text)
        lz77_factorize(text), bwt_run_count(text), substring_complexity(text)
        del bundle

    assert counts(serve_setup) == (1, 1)
    for builder in (build_ilf_index, build_lcp_rmq_index):
        bundle = build_bundle(text)
        del bundle
        gc.collect()
        assert sort_count(lambda: builder(text)) == 1, builder.__name__
        assert live_bundle(text) is None, builder.__name__
    measures = (lz77_factorize, bwt_run_count, distinct_substring_counts, substring_complexity)
    bundle = build_bundle(text)
    for measure in measures:
        assert sort_count(lambda: measure(text)) == 0, measure.__name__
    del bundle
    gc.collect()
    for measure in measures:
        assert sort_count(lambda: measure(text)) == 1, measure.__name__
        assert live_bundle(text) is None, measure.__name__
    factorization = lz77_factorize(fig_text)
    assert sort_count(lambda: validate_lz_like(fig_text, factorization)) == 0
    rng = random.Random(0x50)
    for kind in KINDS:
        gadget = build_gadget(kind, random_input(kind, 3, rng))
        # phi-inverse's oracle rows come from an independent sort of the original
        want = 1 if kind == "phi-inverse" else 0
        assert sort_count(lambda: verify_reduction(kind, gadget)) == want, kind
        assert sort_count(lambda: build_gadget(kind, gadget.input)) == 1, kind


@pytest.mark.parametrize("name", ["unary", "period8"])
def test_one_sort_per_serve_setup_at_n_200000(counts, name):
    """While the bundle is held, the inverse-LF and LCP-RMQ builders and the
    measures z, r and delta read its rows and sort nothing, and give the
    same results as cold calls, which sort once each.  Kasai's LCP pass
    runs once per set-up (for the LCP-RMQ build), not again for the
    measures, never for a cold inverse-LF build, and no cold build leaves
    its bundle behind."""
    n = 200_000
    text = Text.from_symbols([0] * n if name == "unary" else [int(i % 8 == 7) for i in range(n)])
    held, cold = [], []

    def measures():
        return lz77_factorize(text), bwt_run_count(text), substring_complexity(text)

    setup = counts(lambda: held.extend((build_bundle(text), build_ilf_index(text), build_lcp_rmq_index(text))))
    measured = counts(lambda: held.append(measures()))
    warm, warm_measures = held[1:3], held[3]
    del held[:]
    gc.collect()
    ilf = counts(lambda: cold.append(build_ilf_index(text)))
    rmq = counts(lambda: cold.append(build_lcp_rmq_index(text)))
    left_behind = live_bundle(text) is not None
    same_measures = warm_measures == measures()
    assert (setup[0], measured[0], ilf[0] + rmq[0], warm == cold, same_measures) == (1, 0, 2, True, True)
    assert (setup[1], measured[1], ilf[1], rmq[1], left_behind) == (1, 0, 0, 1, False)


def test_bad_query_files_are_refused_before_any_sort(counts, monkeypatch, tmp_path, capsys):
    """A --queries file over the query budget, malformed, of odd length or
    out of range exits 2 with its message before any sort or Kasai pass."""
    monkeypatch.setattr(cli, "_QUERY_BUDGET", 2)
    path = tmp_path / "fig.txt"
    path.write_text(FIG_ASCII)
    queries = tmp_path / "q.txt"
    cases = [
        ("lce", "3 12\n7 7\n19 1\n", "holds more than 2 queries, over the query budget of 2"),
        ("lce", "3 1x2\n", "malformed integer '1x2' in"),
        ("lcp-rmq", "3 12 7\n", "lcp-rmq queries come in pairs;"),
        ("lce", "1 2\n0 5\n", "positions (0,5) outside [1..19]"),
        ("ilf", "1 2 3\n", "holds more than 2 queries"),
        ("ilf", "20\n", "query position 20 outside [1..19]"),
    ]
    for command, content, message in cases:
        queries.write_text(content)
        argv = [command, "--input", str(path), "--queries", str(queries)]
        assert counts(lambda: cli.main(argv)) == (0, 0), command
        assert message in capsys.readouterr().err


def test_isa_counts_smaller_suffixes(fig_text, fig_bundle):
    """ISA[j] - 1 suffixes sort strictly before T[j..n]."""
    t, b = fig_text, fig_bundle
    for j in range(1, t.n + 1):
        rng = pattern_range(t, b.sa, t.symbols[j - 1 :])
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
        assert (t.symbols[j - 1] == 0) == (b.isa[j] <= n0)


@given(binary_texts)
@settings(max_examples=60, deadline=None)
def test_lce_after_prepending_zero(symbols):
    """For T' = 0·T: LCE_{T'}(1, j+1) >= 1 exactly when T[j] = 0."""
    t = Text.from_symbols(symbols, 2)
    tp = Text.from_symbols([0] + symbols, 2)
    for j in range(1, t.n + 1):
        assert (lce_naive(tp, 1, j + 1) >= 1) == (t.symbols[j - 1] == 0)


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
    absent = pattern_range(fig_text, fig_bundle.sa, "bbb")
    assert absent.range_end == absent.range_beg


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


def test_pattern_range_shapes_match_naive():
    """Patterns longer than the text, the whole text, extensions of the last
    suffix, gadget-style runs hundreds of symbols long and symbols beyond
    32 bits all get the count-based range."""
    rng = random.Random(0x5A)
    gadget = [0] * 300 + [1] + [0] * 120 + [1] + [0] * 299 + [1]
    wide = [2**31 + rng.randrange(3) for _ in range(200)] + [2**40]
    for symbols in (gadget, wide, [rng.randrange(2) for _ in range(400)], [7] * 150):
        t = Text.from_symbols(symbols)
        b = build_bundle(t)
        n = t.n
        last = b.sa[n]  # the largest suffix
        patterns = [
            t.symbols + (t.symbols[0],),
            t.symbols + t.symbols,
            t.symbols,
            t.symbols[last - 1 :] + (max(t.symbols),),
            t.symbols[last - 1 :] + (min(t.symbols),),
            t.symbols[n - 1 :] + t.symbols[:5],
        ]
        patterns += [(0,) * v + (1,) for v in (119, 120, 121, 299, 300, 301)]
        for _ in range(20):
            j = rng.randrange(n)
            patterns.append(t.symbols[j : j + rng.randint(1, 300)])
        for pat in patterns:
            assert pattern_range(t, b.sa, pat) == _pattern_range_naive(t, tuple(pat))


@given(
    st.lists(st.integers(0, 2), min_size=1, max_size=64),
    st.integers(0, 63),
    st.integers(0, 12),
    st.lists(st.integers(0, 2), max_size=2),
)
@settings(max_examples=120, deadline=None)
def test_pattern_range_long_patterns_match_naive(symbols, start, length, tail):
    """Patterns of up to 12 symbols, taken from the text so that they mostly
    occur, then optionally extended past the text or by a mismatch."""
    t = Text.from_symbols(symbols, 3)
    b = build_bundle(t)
    pat = (t.symbols[start % t.n :] + tuple(tail))[:length]
    assert pattern_range(t, b.sa, pat) == _pattern_range_naive(t, pat)


class _CountingSa(tuple):
    """A suffix array that counts its reads, C bisects included."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("family", ["random", "unary", "period-8"])
def test_pattern_range_sa_reads(family):
    """One bisection narrows both ends until a probe matches, so an absent
    pattern costs at most ceil(log2(n+1)) SA reads and any pattern at most
    twice that."""
    rng = random.Random(0x5AD)
    if family == "random":
        symbols = [rng.randrange(4) for _ in range(4096)]
    elif family == "unary":
        symbols = [0] * 3000
    else:
        symbols = [int(i % 8 == 7) for i in range(3000)]
    t = Text.from_symbols(symbols, 4)
    b = build_bundle(t)
    sa = _CountingSa(b.sa)
    bound = t.n.bit_length()  # ceil(log2(n + 1))
    patterns = [t.symbols[j : j + rng.randint(1, 40)] for j in rng.sample(range(t.n), 300)]
    patterns += [tuple(rng.randrange(4) for _ in range(rng.randint(1, 12))) for _ in range(300)]
    patterns += [(0,) * (t.n + 1), ()]
    absent = 0
    for pat in patterns:
        sa.reads = 0
        got = pattern_range(t, sa, pat)
        assert got == pattern_range(t, b.sa, pat)
        assert sa.reads <= 2 * bound
        if got.range_end == got.range_beg:
            absent += 1
            assert sa.reads <= bound
    assert absent >= 100


def test_pattern_range_pickles_and_has_no_dict():
    rng = PatternRange(6, 10)
    assert pickle.loads(pickle.dumps(rng)) == rng
    assert not hasattr(rng, "__dict__")


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
    assert "".join(map(chr, fig_text.symbols)) == FIG_ASCII
    assert fig_text.n == 19

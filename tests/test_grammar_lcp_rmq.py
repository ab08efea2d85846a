import importlib
import random
from bisect import bisect_left
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csq import grammar_lcp_rmq as grammar
from csq.grammar_lcp_rmq import (
    Nt,
    build_lcp_rmq_index,
    build_rule_stats,
    expand,
    interval_argmin_prefix_sum,
    lce_query,
    lcp_rmq,
    make_slg,
    prefix_stats_query,
    suffix_stats_query,
    widen_slg,
)
from csq.text_core import Text, build_bundle, lce_naive

FIG_DIFF = [0, 1, 5, -5, 2, 5, -5, 2, 0, 2, -7, 2, 5, -5, 2, 5, -5, 2, -5]

small_texts = st.lists(st.integers(0, 3), min_size=1, max_size=48)


# ---------------------------------------------------------------------------
# Oracles


def _prefix_oracle(B, p):
    total = 0
    best = None
    pos = 0
    for t in range(1, p + 1):
        total += B[t - 1]
        if best is None or total < best:
            best, pos = total, t
    return sum(B[:p]), best, pos


def _suffix_oracle(B, p):
    return _prefix_oracle(B[len(B) - p :], p)


def _random_slg(rng):
    rules = []
    for _ in range(rng.randint(1, 3)):
        rules.append(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3))))
    for _ in range(rng.randint(1, 8)):
        rhs = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.6:
                rhs.append(Nt(rng.randrange(len(rules))))
            else:
                rhs.append(rng.randint(-5, 5))
        rules.append(tuple(rhs))
    return make_slg(rules, len(rules) - 1)


# ---------------------------------------------------------------------------
# Grammar basics


def test_direct_rule():
    g = make_slg([[ord("a"), ord("b")]], 0)
    assert expand(g, 0) == [ord("a"), ord("b")]
    assert (grammar._size(g), g.heights[g.start]) == (2, 1)


def test_two_level_rule():
    g = make_slg([[ord("a"), ord("b")], [Nt(0), Nt(0)]], 1)
    assert bytes(expand(g, 1)).decode() == "abab"
    assert (grammar._size(g), g.heights[g.start]) == (4, 2)
    assert g.exp_lens[1] == 4
    assert g.heights[1] == 2


def test_validate_rejects_bad_grammars():
    """make_slg accepts only rules numbered children first: a reference to
    the rule itself, to a later rule (every cycle has one) or to a missing
    rule is refused, naming the rule and the id."""
    with pytest.raises(ValueError, match="rule 0 references itself, nonterminal 0"):
        make_slg([[Nt(0)]], 0)
    with pytest.raises(ValueError, match="rule 1 references itself, nonterminal 1"):
        make_slg([[1], [2, Nt(1)]], 1)
    with pytest.raises(ValueError, match="rule 0 references a later rule, nonterminal 1"):
        make_slg([[Nt(1), 2], [3]], 0)
    with pytest.raises(ValueError, match="rule 0 references a later rule, nonterminal 1"):
        make_slg([[Nt(1)], [Nt(0)]], 0)
    with pytest.raises(ValueError, match="rule 0 references a missing rule, nonterminal 5"):
        make_slg([[Nt(5)]], 0)
    with pytest.raises(ValueError, match="rule 1 references a missing rule, nonterminal 2"):
        make_slg([[1], [Nt(2)]], 1)
    with pytest.raises(ValueError, match="rule 1 references a missing rule, nonterminal -1"):
        make_slg([[1], [Nt(-1)]], 1)
    with pytest.raises(ValueError, match="start symbol 2 has no rule"):
        make_slg([[1], [Nt(0)]], 2)
    with pytest.raises(ValueError, match="empty right-hand side"):
        build_rule_stats(make_slg([[]], 0))


def test_expand_unknown_nonterminal():
    g = make_slg([[1, 2]], 0)
    with pytest.raises(ValueError):
        expand(g, 3)


# ---------------------------------------------------------------------------
# Rule statistics queries


def test_prefix_suffix_trivial_cases():
    g = make_slg([[3, -2], [Nt(0), Nt(0)]], 1)  # expansion [3,-2,3,-2]
    stats = build_rule_stats(g)
    assert prefix_stats_query(stats, 1, 1) == (3, 3, 1)
    assert suffix_stats_query(stats, 1, 1) == (-2, -2, 1)
    assert prefix_stats_query(stats, 1, 4) == (2, 1, 2)
    assert suffix_stats_query(stats, 1, 4) == (2, 1, 2)


def test_suffix_tie_breaks_to_first_position():
    g = make_slg([[0], [Nt(0), Nt(0)]], 1)  # expansion [0, 0]
    stats = build_rule_stats(g)
    assert suffix_stats_query(stats, 1, 2) == (0, 0, 1)


def test_stats_queries_match_oracle_on_random_grammars():
    rng = random.Random(0xABCD)
    for _ in range(150):
        g = _random_slg(rng)
        stats = build_rule_stats(g)
        for x in range(len(g.rules)):
            if stats.exp_len[x] > 40:
                continue
            B = expand(g, x)
            assert stats.exp_len[x] == len(B)
            assert stats.exp_sum[x] == sum(B)
            for p in range(1, len(B) + 1):
                assert prefix_stats_query(stats, x, p) == _prefix_oracle(B, p)
                assert suffix_stats_query(stats, x, p) == _suffix_oracle(B, p)


def test_complementary_splits_sum_to_total():
    rng = random.Random(0xBEEF)
    for _ in range(60):
        g = _random_slg(rng)
        stats = build_rule_stats(g)
        x = g.start
        m = stats.exp_len[x]
        if m > 30:
            continue
        for p in range(1, m):
            s_pre, _, _ = prefix_stats_query(stats, x, p)
            s_suf, _, _ = suffix_stats_query(stats, x, m - p)
            assert s_pre + s_suf == stats.exp_sum[x]


def test_stats_query_range_errors():
    g = make_slg([[1, 2]], 0)
    stats = build_rule_stats(g)
    for p in (0, 3):
        with pytest.raises(ValueError):
            prefix_stats_query(stats, 0, p)
        with pytest.raises(ValueError):
            suffix_stats_query(stats, 0, p)


def test_stats_queries_reject_unknown_nonterminals():
    # A negative id must not wrap around to the last rules.
    stats = build_rule_stats(make_slg([[1, 2], [Nt(0), 3]], 1))
    for x in (-1, -2, 2):
        with pytest.raises(ValueError, match=f"no rule for nonterminal {x}"):
            prefix_stats_query(stats, x, 1)
        with pytest.raises(ValueError, match=f"no rule for nonterminal {x}"):
            suffix_stats_query(stats, x, 1)


# ---------------------------------------------------------------------------
# Interval argmin over prefix sums


def test_interval_argmin_on_random_grammars():
    rng = random.Random(0xD1CE)
    for _ in range(120):
        g = _random_slg(rng)
        stats = build_rule_stats(g)
        A = expand(g, g.start)
        n = len(A)
        if n > 40:
            continue
        sums = []
        total = 0
        for v in A:
            total += v
            sums.append(total)
        for b in range(n):
            for e in range(b + 1, n + 1):
                expected = min((sums[i - 1], i) for i in range(b + 1, e + 1))[1]
                assert interval_argmin_prefix_sum(stats, b, e) == expected


@st.composite
def _zero_sum_grammars(draw):
    """Grammars whose every rule expands to a zero-sum block over terminals
    in {-1, 0, 1}, stacked 2-4 levels deep, with a start rule of at most 64
    symbols.  Each block starts at prefix sum 0 wherever it sits, so equal
    children reach equal minima, and the left suffix, the middle children and
    the right prefix of a split tie.  The start rule repeats its lowest
    child, so its minimum lies in two of its children at least."""
    rules: list[tuple] = []
    for _ in range(draw(st.integers(1, 3))):
        block = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=2))
        s = sum(block)
        rules.append(tuple(block + [-1 if s > 0 else 1] * abs(s)))
    level = list(range(len(rules)))
    for _ in range(draw(st.integers(1, 3)) - 1):
        below, level, top = level, [], len(rules)
        for _ in range(draw(st.integers(1, 2))):
            first = draw(st.sampled_from(below))
            second = draw(st.integers(0, top - 1))
            rules.append((Nt(first), Nt(second)))
            level.append(len(rules) - 1)
    children = [Nt(draw(st.sampled_from(level))), Nt(draw(st.integers(0, len(rules) - 1)))]
    slg = make_slg(rules, 0)
    lows = [min(accumulate(expand(slg, a.id))) for a in children]
    children.insert(draw(st.integers(0, 2)), children[lows.index(min(lows))])
    rules.append(tuple(children))
    return make_slg(rules, len(rules) - 1)


@given(_zero_sum_grammars())
@settings(max_examples=60, deadline=None)
def test_split_parts_that_tie_keep_the_leftmost_minimum(slg):
    """On every (b..e] of a zero-sum grammar's expansion, the argmin is the
    leftmost linear-scan one, and every rule's prefix and suffix statistics
    match their oracles; some ranges have their minimum in two or more
    children of the start rule."""
    stats = build_rule_stats(slg)
    for x in range(len(slg.rules)):
        B = expand(slg, x)
        for p in range(1, len(B) + 1):
            assert prefix_stats_query(stats, x, p) == _prefix_oracle(B, p)
            assert suffix_stats_query(stats, x, p) == _suffix_oracle(B, p)
    A = expand(slg, slg.start)
    n = len(A)
    assert n <= 64 and sum(A) == 0
    sums = [0, *accumulate(A)]
    ends = list(accumulate(stats.exp_len[a.id] for a in slg.rules[slg.start]))
    tied = 0
    for b in range(n):
        best = b + 1
        for e in range(b + 1, n + 1):
            if sums[e] < sums[best]:
                best = e
            assert interval_argmin_prefix_sum(stats, b, e) == best
            lows = {bisect_left(ends, i) for i in range(b + 1, e + 1) if sums[i] == sums[best]}
            tied += len(lows) >= 2
    assert tied


def test_interval_argmin_errors():
    g = make_slg([[1, 2]], 0)
    stats = build_rule_stats(g)
    with pytest.raises(ValueError):
        interval_argmin_prefix_sum(stats, 1, 1)
    with pytest.raises(ValueError):
        interval_argmin_prefix_sum(stats, 0, 3)


# ---------------------------------------------------------------------------
# Differential LCP grammar


def test_diff_lcp_small_examples(fig_text):
    stats = build_lcp_rmq_index(Text.from_ascii("aaaa")).stats
    assert expand(stats.slg, stats.slg.start) == [0, 1, 1, 1]
    slg = build_lcp_rmq_index(fig_text).slg
    assert expand(slg, slg.start) == FIG_DIFF
    slg1 = build_lcp_rmq_index(Text.from_ascii("q")).slg
    assert expand(slg1, slg1.start) == [0]


@given(small_texts)
@settings(max_examples=40, deadline=None)
def test_diff_lcp_grammar_properties(symbols):
    t = Text.from_symbols(symbols, 4)
    index = build_lcp_rmq_index(t)
    slg, stats = index.slg, index.stats
    lcp = build_bundle(t).lcp
    values = expand(slg, slg.start)
    assert values == [lcp[i] - lcp[i - 1] for i in range(1, t.n + 1)]
    assert list(accumulate(values)) == list(lcp[1:])
    assert make_slg(slg.rules, slg.start) == slg
    assert stats.exp_len is slg.exp_lens
    assert stats.exp_len[slg.start] == t.n


def _atom_keyed_pairing(values):
    """Reference pairing: one memo keyed by (Atom, Atom) across all rounds."""
    if len(values) == 1:
        return [(values[0],)], 0
    rules = []
    memo = {}
    seq = list(values)
    root = 0
    while len(seq) > 1:
        nxt = []
        for t in range(0, len(seq) - 1, 2):
            pair = (seq[t], seq[t + 1])
            root = memo.setdefault(pair, len(rules))
            if root == len(rules):
                rules.append(pair)
            nxt.append(Nt(root))
        if len(seq) % 2:
            nxt.append(seq[-1])
        seq = nxt
    return rules, root


# Small values repeat pairs across rounds and coincide with rule ids; a
# length of 2^m + 1 carries the last terminal to the last round.
_pairing_inputs = st.one_of(
    st.lists(st.integers(-1, 3), min_size=1, max_size=130),
    st.integers(0, 7).flatmap(
        lambda m: st.lists(st.integers(-1, 3), min_size=2**m + 1, max_size=2**m + 1)
    ),
)


@given(_pairing_inputs)
@settings(max_examples=300, deadline=None)
def test_pairing_matches_atom_keyed_reference(values):
    assert grammar._pairing_slp(values) == _atom_keyed_pairing(values)


def test_widening_preserves_expansion_and_caps_rhs():
    rng = random.Random(0xFADE)
    t = Text.from_symbols([rng.randrange(3) for _ in range(257)], 3)
    idx = build_lcp_rmq_index(t, epsilon=0.5)
    assert max(len(r) for r in idx.slg.rules) <= idx.ell
    assert idx.height <= -(-idx.slp_height // idx.k_widen) + 1
    lcp = build_bundle(t).lcp
    assert expand(idx.slg, idx.slg.start) == [lcp[i] - lcp[i - 1] for i in range(1, t.n + 1)]


def test_widen_slg_direct():
    g = make_slg([[1, 2], [Nt(0), 5], [Nt(1), Nt(0)]], 2)
    w = widen_slg(g, 2)
    assert expand(w, w.start) == expand(g, 2)
    assert max(len(r) for r in w.rules) <= 2 * 4


def test_one_derivation_per_grammar(monkeypatch):
    """A build derives each grammar once: one forward pass each for the
    pairing grammar and the widened grammar, none for the statistics, and
    one cut per rule the widened grammar keeps."""
    counts = {"derivations": 0, "cuts": 0}
    real_derive, real_cut = grammar._derive, grammar._depth_cut

    def derive(rules, start):
        counts["derivations"] += 1
        return real_derive(rules, start)

    def cut(rules, rhs, d):
        counts["cuts"] += 1
        return real_cut(rules, rhs, d)

    monkeypatch.setattr(grammar, "_derive", derive)
    monkeypatch.setattr(grammar, "_depth_cut", cut)
    rng = random.Random(0xC07)
    for symbols in ([rng.randrange(4) for _ in range(3000)], [0, 1, 2, 1] * 700 + [3]):
        counts.update(derivations=0, cuts=0)
        index = build_lcp_rmq_index(Text.from_symbols(symbols, 4))
        assert counts == {"derivations": 2, "cuts": len(index.slg.rules)}


def _shape_text(family: str) -> Text:
    rng = random.Random(0x5A9E)
    if family == "random":
        return Text.from_symbols([rng.randrange(4) for _ in range(3000)], 4)
    block = [rng.randrange(4) for _ in range(50)]
    symbols = [block[i % 50] for i in range(3000)]
    for _ in range(30):
        symbols[rng.randrange(3000)] = rng.randrange(4)
    return Text.from_symbols(symbols, 4)


@pytest.mark.parametrize(
    "family, shape",
    [
        ("random", (2626, 12, 3412, 4, 2, 35758)),
        ("period-50-edits", (1586, 12, 2070, 4, 2, 22667)),
    ],
)
def test_grammar_shape_is_pinned(family, shape):
    """Pairing, widening and the statistics build the same grammars as ever:
    (slp_size, slp_height, size, height, k_widen, stored_integers) on a
    random and a period-50 text of n = 3000, σ = 4."""
    idx = build_lcp_rmq_index(_shape_text(family))
    got = (idx.slp_size, idx.slp_height, idx.size, idx.height, idx.k_widen, idx.stored_integers)
    assert got == shape


def test_build_contracts_raise(monkeypatch):
    """The builder's contracts are explicit raises, so they hold under -O."""
    t = Text.from_symbols([random.Random(0xB0).randrange(4) for _ in range(3000)], 4)
    for widen, message in [
        (lambda slp, k: slp, "widened height"),
        (lambda slp, k: make_slg([expand(slp, slp.start)], 0), "over the bound"),
        (lambda slp, k: make_slg([expand(slp, slp.start)[:3]], 0), "to 3 symbols, not 3000"),
    ]:
        monkeypatch.setattr(grammar, "widen_slg", widen)
        with pytest.raises(AssertionError, match=message):
            build_lcp_rmq_index(t, epsilon=0.9)


def test_epsilon_validation(fig_text):
    """build_lcp_rmq_index refuses an epsilon outside (0, 1) through
    check_epsilon, the check the command line calls, with one message."""
    message = "^epsilon must lie strictly between 0 and 1$"
    for epsilon in (0.0, 1.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match=message):
            build_lcp_rmq_index(fig_text, epsilon=epsilon)
        with pytest.raises(ValueError, match=message):
            grammar.check_epsilon(epsilon)
    grammar.check_epsilon(0.5)


# ---------------------------------------------------------------------------
# LCP RMQ and LCE


def test_lcp_rmq_figure(fig_text):
    idx = build_lcp_rmq_index(fig_text)
    assert lcp_rmq(idx, 1, 19) == 11
    assert lcp_rmq(idx, 5, 6) == 6  # singleton range
    for b in range(0, 19):
        assert lcp_rmq(idx, b, b + 1) == b + 1


@given(small_texts)
@settings(max_examples=30, deadline=None)
def test_lcp_rmq_matches_lcp_scan(symbols):
    t = Text.from_symbols(symbols, 4)
    idx = build_lcp_rmq_index(t)
    lcp = build_bundle(t).lcp
    n = t.n
    for b in range(n):
        for e in range(b + 1, n + 1):
            expected = min((lcp[i], i) for i in range(b + 1, e + 1))[1]
            assert lcp_rmq(idx, b, e) == expected


def test_lce_figure_values(fig_text):
    idx = build_lcp_rmq_index(fig_text)
    assert lce_query(idx, 3, 12) == 8
    for i in (1, 10, 19):
        assert lce_query(idx, i, i) == 19 - i + 1


def test_lce_out_of_range(fig_text):
    idx = build_lcp_rmq_index(fig_text)
    with pytest.raises(IndexError):
        lce_query(idx, 0, 3)
    with pytest.raises(IndexError):
        lce_query(idx, 1, 20)


@given(small_texts)
@settings(max_examples=30, deadline=None)
def test_lce_matches_naive_all_pairs(symbols):
    t = Text.from_symbols(symbols, 4)
    idx = build_lcp_rmq_index(t)
    for i in range(1, t.n + 1):
        for j in range(1, t.n + 1):
            assert lce_query(idx, i, j) == lce_naive(t, i, j)


tall_grammars = pytest.mark.parametrize(
    "family, epsilon",
    [
        pytest.param(family, epsilon, id=family if epsilon == 0.5 else f"{family}-{epsilon}")
        for epsilon in (0.5, 0.9)
        for family in ("random", "period-8")
    ],
)


def _tall_text(family: str, rng: random.Random) -> Text:
    if family == "random":
        symbols = [rng.randrange(4) for _ in range(3000)]
    else:
        symbols = [int(i % 8 == 7) for i in range(3000)]
    return Text.from_symbols(symbols, 4)


@tall_grammars
def test_queries_on_tall_grammars(family, epsilon):
    """On n = 3000 texts the widened grammar is at least three levels high,
    so the query descent passes through inner rules before it splits.  At
    epsilon = 0.9, k = 4 and rules reach ell = 32 children, so the scan of
    the middle children's minima covers up to 32 entries."""
    rng = random.Random(0x7A11)
    t = _tall_text(family, rng)
    idx = build_lcp_rmq_index(t, epsilon)
    assert idx.height >= 3
    lcp = build_bundle(t).lcp
    for _ in range(400):
        i, j = rng.randint(1, t.n), rng.randint(1, t.n)
        assert lce_query(idx, i, j) == lce_naive(t, i, j)
        b = rng.randrange(t.n)
        e = rng.randint(b + 1, min(t.n, b + rng.choice((2, 40, 3000))))
        expected = min((lcp[r], r) for r in range(b + 1, e + 1))[1]
        assert lcp_rmq(idx, b, e) == expected


@tall_grammars
def test_queries_read_no_small_sets(family, epsilon):
    """Every descent bisects the rules' plen rows: queries answer as the
    oracles do, and the small-set view is never derived."""
    rng = random.Random(0x9DED)
    t = _tall_text(family, rng)
    idx = build_lcp_rmq_index(t, epsilon)
    lcp = build_bundle(t).lcp
    for _ in range(300):
        i, j = rng.randint(1, t.n), rng.randint(1, t.n)
        assert lce_query(idx, i, j) == lce_naive(t, i, j)
        b = rng.randrange(t.n)
        e = rng.randint(b + 1, t.n)
        assert lcp_rmq(idx, b, e) == min(range(b + 1, e + 1), key=lcp.__getitem__)
    for x in range(len(idx.slg.rules)):
        p = rng.randint(1, idx.stats.exp_len[x])
        B = expand(idx.slg, x)
        assert prefix_stats_query(idx.stats, x, p) == _prefix_oracle(B, p)
        assert suffix_stats_query(idx.stats, x, p) == _suffix_oracle(B, p)
    assert "pred" not in vars(idx.stats)


def _spanning_ranges(idx, rng: random.Random, count: int):
    """Ranges (b..e] of whole children c..u, u > c, of a rule reached by a
    random descent from the start symbol, plus part of the child on either
    side; b falls inside child c - 1, so the query splits at that rule and
    children c..u are among its middle children."""
    rules, plen = idx.slg.rules, idx.stats.plen
    ranges = []
    while len(ranges) < count:
        x, off = idx.slg.start, 0
        while True:
            down = [t for t, a in enumerate(rules[x], 1) if isinstance(a, Nt)]
            if not down or (len(rules[x]) >= 3 and rng.random() < 0.4):
                break
            t = rng.choice(down)
            x, off = rules[x][t - 1].id, off + plen[x][t]
        L = len(rules[x])
        if L < 3:
            continue
        c = rng.randint(2, L - 1)
        u = rng.randint(c + 1, L)
        b = off + rng.randint(plen[x][c - 1] + 1, plen[x][c])
        e = off + (plen[x][L + 1] if u == L else rng.randint(plen[x][u + 1], plen[x][u + 2] - 1))
        ranges.append((b, e))
    return ranges


@pytest.mark.parametrize("epsilon", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("family", ["random-2", "random-4", "period-7", "period-50-edits"])
def test_middle_children_argmin_is_derived(family, epsilon):
    """RuleStats keeps no slen, ssum, ppos, spos or mpos rows: the
    middle-children scan derives the winning child's position from plen and
    nt_pos (1 for a terminal child).  lcp_rmq matches the leftmost linear-scan argmin on
    ranges that span at least two whole children of the rule where the
    query splits; periodic texts give ties inside and across children."""
    rng = random.Random(f"{family}-{epsilon}")
    n = 2000
    if family.startswith("random"):
        sigma = int(family[-1])
        symbols = [rng.randrange(sigma) for _ in range(n)]
    elif family == "period-7":
        symbols = [(0, 1, 0, 0, 1, 1, 0)[i % 7] for i in range(n)]
    else:
        block = [rng.randrange(4) for _ in range(50)]
        symbols = [block[i % 50] for i in range(n)]
        for _ in range(20):
            symbols[rng.randrange(n)] = rng.randrange(4)
    t = Text.from_symbols(symbols, 4)
    idx = build_lcp_rmq_index(t, epsilon)
    assert idx.stats.slen == idx.stats.ssum == idx.stats.mpos == ()
    assert idx.stats.ppos == idx.stats.spos == ()
    lcp = build_bundle(t).lcp
    for b, e in _spanning_ranges(idx, rng, 300):
        window = lcp[b + 1 : e + 1]
        assert lcp_rmq(idx, b, e) == b + 1 + window.index(min(window))


def test_lce_reads_no_prefix_sum_back(monkeypatch):
    """An LCE is one descent: its value comes out of the argmin search, with
    no second descent from the start symbol to read the prefix sum back, and
    no argmin position is derived."""
    t = Text.from_symbols([random.Random(0x1CE).randrange(4) for _ in range(3000)], 4)
    idx = build_lcp_rmq_index(t)
    from_start = []
    real = grammar._prefix_min

    def counting(stats, x, p):
        from_start.append(x == idx.slg.start)
        return real(stats, x, p)

    monkeypatch.setattr(grammar, "_prefix_min", counting)
    monkeypatch.setattr(grammar, "_at", None)
    rng = random.Random(5)
    for _ in range(200):
        i, j = rng.randint(1, t.n), rng.randint(1, t.n)
        assert lce_query(idx, i, j) == lce_naive(t, i, j)
    assert from_start and not any(from_start)


@pytest.mark.parametrize("family", ["figure", "random", "period-8"])
def test_stored_integers_match_perfbench_count(monkeypatch, fig_text, family):
    """The index's own count agrees with perfbench's independent one."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    oracles = importlib.import_module("oracles")
    rng = random.Random(0x5107)
    if family == "figure":
        t = fig_text
    elif family == "random":
        t = Text.from_symbols([rng.randrange(4) for _ in range(2000)], 4)
    else:
        t = Text.from_symbols([int(i % 8 == 7) for i in range(2000)], 4)
    idx = build_lcp_rmq_index(t)
    assert idx.stored_integers == oracles.grammar_integers(idx)
    assert idx.stored_integers > len(idx.isa) == t.n + 1

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csq import grammar_lcp_rmq as grammar
from csq.grammar_lcp_rmq import (
    Nt,
    Slg,
    build_lcp_rmq_index,
    build_rule_stats,
    diff_lcp_from_bundle,
    expand,
    interval_argmin_prefix_sum,
    lce_query,
    lcp_rmq,
    make_slg,
    prefix_stats_query,
    slg_from_rule_list,
    sparse_rmq,
    sparse_rmq_build,
    suffix_stats_query,
    validate_slg,
    widen_slg,
)
from csq.text_core import Text, build_bundle, lce_naive

FIG_DIFF = [0, 1, 5, -5, 2, 5, -5, 2, 0, 2, -7, 2, 5, -5, 2, 5, -5, 2, -5]

int_arrays = st.lists(st.integers(-8, 8), min_size=1, max_size=96)
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
    assert validate_slg(g) == (2, 1)


def test_two_level_rule():
    g = make_slg([[Nt(1), Nt(1)], [ord("a"), ord("b")]], 0)
    assert bytes(expand(g, 0)).decode() == "abab"
    assert validate_slg(g) == (4, 2)
    assert g.exp_lens[0] == 4
    assert g.heights[0] == 2


def test_validate_rejects_bad_grammars():
    with pytest.raises(ValueError, match="cyclic.*0"):
        validate_slg(Slg(((Nt(0),),), 0))
    with pytest.raises(ValueError, match="cyclic"):
        validate_slg(Slg(((Nt(1),), (Nt(0),)), 0))
    with pytest.raises(ValueError, match="missing nonterminal 5"):
        validate_slg(Slg(((Nt(5),),), 0))
    with pytest.raises(ValueError, match="multiply defined nonterminal 0"):
        slg_from_rule_list([(0, [1]), (0, [2])], 0)
    with pytest.raises(ValueError, match="missing rule for nonterminal 1"):
        slg_from_rule_list([(0, [1]), (2, [3])], 0)
    with pytest.raises(ValueError, match="empty right-hand side"):
        build_rule_stats(Slg(((),), 0))


def test_expand_unknown_nonterminal():
    g = make_slg([[1, 2]], 0)
    with pytest.raises(ValueError):
        expand(g, 3)


# ---------------------------------------------------------------------------
# Sparse RMQ


def test_sparse_rmq_example():
    r = sparse_rmq_build([5, 1, 2, 8, 4, 7, 6, 2, 9])
    assert sparse_rmq(r, 2, 9) == 3
    assert sparse_rmq(r, 0, 9) == 2
    assert sparse_rmq(r, 3, 4) == 4


def test_sparse_rmq_errors():
    r = sparse_rmq_build([3, 1])
    with pytest.raises(ValueError):
        sparse_rmq(r, 1, 1)
    with pytest.raises(ValueError):
        sparse_rmq(r, 0, 3)


@given(int_arrays)
@settings(max_examples=60, deadline=None)
def test_sparse_rmq_matches_scan(values):
    r = sparse_rmq_build(values)
    m = len(values)
    for b in range(m):
        for e in range(b + 1, m + 1):
            expected = min((values[t - 1], t) for t in range(b + 1, e + 1))[1]
            assert sparse_rmq(r, b, e) == expected


# ---------------------------------------------------------------------------
# Rule statistics queries


def test_prefix_suffix_trivial_cases():
    g = make_slg([[Nt(1), Nt(1)], [3, -2]], 0)  # expansion [3,-2,3,-2]
    stats = build_rule_stats(g)
    assert prefix_stats_query(stats, 0, 1) == (3, 3, 1)
    assert suffix_stats_query(stats, 0, 1) == (-2, -2, 1)
    assert prefix_stats_query(stats, 0, 4) == (2, 1, 2)
    assert suffix_stats_query(stats, 0, 4) == (2, 1, 2)


def test_suffix_tie_breaks_to_first_position():
    g = make_slg([[Nt(1), Nt(1)], [0]], 0)  # expansion [0, 0]
    stats = build_rule_stats(g)
    assert suffix_stats_query(stats, 0, 2) == (0, 0, 1)


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
    b = build_bundle(t)
    diff = diff_lcp_from_bundle(b)
    assert expand(slg, slg.start) == list(diff.values)
    assert diff.prefix_sums() == list(b.lcp[1:])
    validate_slg(slg)
    assert stats.exp_len[slg.start] == t.n


def test_widening_preserves_expansion_and_caps_rhs():
    rng = random.Random(0xFADE)
    t = Text.from_symbols([rng.randrange(3) for _ in range(257)], 3)
    idx = build_lcp_rmq_index(t, epsilon=0.5)
    assert max(len(r) for r in idx.slg.rules) <= idx.ell
    assert idx.height <= -(-idx.slp_height // idx.k_widen) + 1
    assert expand(idx.slg, idx.slg.start) == list(
        diff_lcp_from_bundle(build_bundle(t)).values
    )


def test_widen_slg_direct():
    g = make_slg([[Nt(1), Nt(2)], [Nt(2), 5], [1, 2]], 0)
    w = widen_slg(g, 2)
    assert expand(w, w.start) == expand(g, 0)
    assert max(len(r) for r in w.rules) <= 2 * 4


def test_one_derivation_per_grammar(monkeypatch):
    """A build derives each grammar once: one topological pass each for the
    pairing grammar, the widened grammar and the statistics, no separate
    validation, and one cut per rule the widened grammar keeps."""
    counts = {"passes": 0, "validations": 0, "cuts": 0}
    depth = [0]
    real_order, real_cut, real_validate = (
        grammar._topological_order,
        grammar._depth_cut,
        grammar.validate_slg,
    )

    def order(rules):
        counts["passes"] += 1
        return real_order(rules)

    def cut(rules, rhs, d):
        counts["cuts"] += depth[0] == 0  # recursive calls are not counted
        depth[0] += 1
        try:
            return real_cut(rules, rhs, d)
        finally:
            depth[0] -= 1

    def validate(slg):
        counts["validations"] += 1
        return real_validate(slg)

    monkeypatch.setattr(grammar, "_topological_order", order)
    monkeypatch.setattr(grammar, "_depth_cut", cut)
    monkeypatch.setattr(grammar, "validate_slg", validate)
    rng = random.Random(0xC07)
    for symbols in ([rng.randrange(4) for _ in range(3000)], [0, 1, 2, 1] * 700 + [3]):
        counts.update(passes=0, validations=0, cuts=0)
        index = build_lcp_rmq_index(Text.from_symbols(symbols, 4))
        assert counts == {"passes": 3, "validations": 0, "cuts": len(index.slg.rules)}


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
    with pytest.raises(ValueError):
        build_lcp_rmq_index(fig_text, epsilon=0.0)
    with pytest.raises(ValueError):
        build_lcp_rmq_index(fig_text, epsilon=1.0)


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


@pytest.mark.parametrize("family", ["random", "period-8"])
def test_queries_on_tall_grammars(family):
    """On n = 3000 texts the widened grammar is at least three levels high,
    so the query descent passes through inner rules before it splits."""
    rng = random.Random(0x7A11)
    if family == "random":
        symbols = [rng.randrange(4) for _ in range(3000)]
    else:
        symbols = [int(i % 8 == 7) for i in range(3000)]
    t = Text.from_symbols(symbols, 4)
    idx = build_lcp_rmq_index(t)
    assert idx.height >= 3
    lcp = build_bundle(t).lcp
    for _ in range(400):
        i, j = rng.randint(1, t.n), rng.randint(1, t.n)
        assert lce_query(idx, i, j) == lce_naive(t, i, j)
        b = rng.randrange(t.n)
        e = rng.randint(b + 1, min(t.n, b + rng.choice((2, 40, 3000))))
        expected = min((lcp[r], r) for r in range(b + 1, e + 1))[1]
        assert lcp_rmq(idx, b, e) == expected


def test_lce_reads_no_prefix_sum_back(monkeypatch):
    """An LCE is one descent: its value comes out of the argmin search, with
    no second descent from the start symbol to read the prefix sum back."""
    t = Text.from_symbols([random.Random(0x1CE).randrange(4) for _ in range(3000)], 4)
    idx = build_lcp_rmq_index(t)
    from_start = []
    real = grammar.prefix_stats_query

    def counting(stats, x, p):
        from_start.append(x == idx.slg.start)
        return real(stats, x, p)

    monkeypatch.setattr(grammar, "prefix_stats_query", counting)
    rng = random.Random(5)
    for _ in range(200):
        i, j = rng.randint(1, t.n), rng.randint(1, t.n)
        assert lce_query(idx, i, j) == lce_naive(t, i, j)
    assert from_start and not any(from_start)

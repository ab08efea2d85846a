"""The inverse-LF and LCP-RMQ builders read a live bundle's rows instead of
sorting again.  Warm builds (the text's bundle held) must equal cold builds
(no bundle) field by field, answer as the independent oracles do, and the
registry must never keep a bundle alive or match an equal but distinct text.
"""

import dataclasses
import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csq.gadgets import build_gadget, random_input
from csq.grammar_lcp_rmq import (
    _suffix_min,
    build_lcp_rmq_index,
    lce_query,
    lcp_rmq,
    prefix_stats_query,
)
from csq.measures import bwt_run_count, lz77_factorize, substring_complexity
from csq.rlbwt_ilf import build_ilf_index, ilf_query
from csq.text_core import Text, build_bundle, lce_naive, live_bundle, suffix_array_naive


def _builds(text: Text) -> tuple:
    return build_ilf_index(text), build_lcp_rmq_index(text)


ROWS = ("sa", "isa", "lcp", "plcp", "bwt", "lf", "ilf", "phi", "inv_phi")
DERIVED = ROWS[3:]


def _naive_rows(text: Text, names: tuple[str, ...] = ("ilf", "lcp")) -> tuple[list[int], ...]:
    """The named 1-indexed rows (ILF and LCP by default) by their textbook
    definitions, from a suffix_array_naive sort and direct symbol
    comparison, independent of every row a bundle holds."""
    n = text.n
    sa = [0] + [j + 1 for j in suffix_array_naive(text.symbols)]
    isa = [0] * (n + 1)
    for r in range(1, n + 1):
        isa[sa[r]] = r
    lcp = [0, 0] + [lce_naive(text, sa[r - 1], sa[r]) for r in range(2, n + 1)]
    rows = {"sa": sa, "isa": isa, "lcp": lcp}
    rows["bwt"] = [0] + [text.symbols[(sa[r] - 1 if sa[r] > 1 else n) - 1] for r in range(1, n + 1)]
    rows["lf"] = [0] + [isa[sa[r] - 1 if sa[r] > 1 else n] for r in range(1, n + 1)]
    for name in ("plcp", "ilf", "phi", "inv_phi"):
        rows[name] = [0] * (n + 1)
    for r in range(1, n + 1):
        rows["plcp"][sa[r]] = lcp[r]
        rows["ilf"][rows["lf"][r]] = r
        before = sa[r - 1] if r > 1 else sa[n]
        rows["phi"][sa[r]] = before
        rows["inv_phi"][before] = sa[r]
    return tuple(rows[name] for name in names)


def _check_warm_equals_cold(symbols: list[int], sigma: int, queries: int = 200) -> None:
    cold = _builds(Text.from_symbols(symbols, sigma))
    text = Text.from_symbols(symbols, sigma)
    assert live_bundle(text) is None
    bundle = build_bundle(text)
    assert live_bundle(text) is bundle
    assert live_bundle(Text.from_symbols(symbols, sigma)) is None  # equal, not the same
    warm = _builds(text)
    for w, c in zip(warm, cold):
        for field in dataclasses.fields(c):
            assert getattr(w, field.name) == getattr(c, field.name), field.name
        assert w == c
    ilf, rmq = warm
    assert rmq.isa is bundle.isa  # the bundle's own ISA, not a copy

    n = text.n
    naive_ilf, naive_lcp = _naive_rows(text)
    assert list(bundle.ilf) == naive_ilf
    assert [ilf_query(ilf, i) for i in range(1, n + 1)] == naive_ilf[1:]
    rng = random.Random(n)
    for _ in range(queries):
        b = rng.randrange(n)
        e = rng.randint(b + 1, n)
        assert lcp_rmq(rmq, b, e) == min(range(b + 1, e + 1), key=naive_lcp.__getitem__)
        i, j = rng.randint(1, n), rng.randint(1, n)
        assert lce_query(rmq, i, j) == lce_naive(text, i, j)

    # The indexes hold rows of the bundle, never the bundle itself.
    del bundle
    gc.collect()
    assert live_bundle(text) is None
    assert _builds(text) == cold


def _gadget_symbols() -> list[int]:
    gadget = build_gadget("lcp-select", random_input("lcp-select", 4, random.Random(0x1B)))
    return list(gadget.text.symbols)


_rng = random.Random(0x11F)
TEXTS = {
    "unary": ([0] * 300, 1),
    "period-5": ([0, 1, 1, 2, 3] * 60, 4),
    "sigma 1, n 1": ([0], 1),
    "all distinct": (_rng.sample(range(250), 250), 250),
    "random sigma 4": ([_rng.randrange(4) for _ in range(500)], 4),
    "gadget lcp-select": (_gadget_symbols(), None),
}


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_warm_builds_equal_cold_builds(name):
    symbols, sigma = TEXTS[name]
    _check_warm_equals_cold(symbols, sigma)


@given(st.integers(1, 4).flatmap(lambda sigma: st.tuples(
    st.lists(st.integers(0, sigma - 1), min_size=1, max_size=80), st.just(sigma))))
@settings(max_examples=60, deadline=None)
def test_warm_builds_equal_cold_builds_property(case):
    symbols, sigma = case
    _check_warm_equals_cold(symbols, sigma, queries=30)


def test_registry_follows_the_latest_bundle_of_a_text():
    """A rebuilt bundle replaces the entry, and dropping every bundle of a
    text empties it even while the indexes built from it live on."""
    text = Text.from_ascii("mississippi")
    first = build_bundle(text)
    second = build_bundle(text)
    assert live_bundle(text) is second
    indexes = _builds(text)
    del first, second
    gc.collect()
    assert live_bundle(text) is None
    assert indexes == _builds(text)


def _derived(bundle) -> set[str]:
    return set(DERIVED) & set(vars(bundle))


def test_serving_and_measures_derive_no_row():
    """A bundle stores SA and ISA; serve set-up (the inverse-LF and LCP-RMQ
    indexes) and the measures read only those and LCP, which the inverse-LF
    build leaves underived and the LCP-RMQ build derives."""
    rng = random.Random(0xB0D)
    for symbols, sigma in [([rng.randrange(4) for _ in range(400)], 4), ([0, 1, 1] * 50, 2)]:
        text = Text.from_symbols(symbols, sigma)
        bundle = build_bundle(text)
        assert _derived(bundle) == set()
        assert "lcp" not in vars(bundle)
        build_ilf_index(text)
        assert "lcp" not in vars(bundle)
        build_lcp_rmq_index(text)
        assert "lcp" in vars(bundle)
        assert _derived(bundle) == set()
        lz77_factorize(text), bwt_run_count(text), substring_complexity(text)
        assert _derived(bundle) == set()


def test_serving_derives_no_unread_structure():
    """Queries bisect boundary_keys and the rules' plen rows, so answering
    every inverse-LF position and a sample of each grammar query, with the
    text's bundle held or not, derives none of the predecessor views that
    only perfbench reads (IlfIndex.trie and pred_keys, RuleStats.pred);
    nor does reading the grammar index's stored_integers."""
    rng = random.Random(0x5E2F)
    for symbols, sigma in [([rng.randrange(4) for _ in range(400)], 4), ([0, 1, 1] * 50, 2)]:
        text = Text.from_symbols(symbols, sigma)
        n = text.n
        for held in (True, False):
            bundle = build_bundle(text) if held else None
            assert live_bundle(text) is bundle
            ilf, grammar = _builds(text)
            stats = grammar.stats
            for i in range(1, n + 1):
                ilf_query(ilf, i)
            for _ in range(200):
                b = rng.randrange(n)
                lcp_rmq(grammar, b, rng.randint(b + 1, n))
                lce_query(grammar, rng.randint(1, n), rng.randint(1, n))
                x = rng.randrange(len(grammar.slg.rules))
                p = rng.randint(1, stats.exp_len[x])
                prefix_stats_query(stats, x, p)
                _suffix_min(stats, x, p)
            assert {"trie", "pred_keys"}.isdisjoint(vars(ilf))
            assert "pred" not in vars(stats)
            assert grammar.stored_integers > n
            assert "pred" not in vars(stats)
            del bundle
            gc.collect()


@given(
    st.integers(1, 4).flatmap(lambda sigma: st.tuples(
        st.lists(st.integers(0, sigma - 1), min_size=1, max_size=80), st.just(sigma))),
    st.permutations(ROWS),
)
@settings(max_examples=60, deadline=None)
def test_rows_read_in_any_order_match_their_definitions(case, order):
    """Each derived row, read in any order, equals its definition, is kept
    once read, and changes neither ``==`` nor ``hash``."""
    symbols, sigma = case
    text = Text.from_symbols(symbols, sigma)
    bundle = build_bundle(text)
    unread = build_bundle(Text.from_symbols(symbols, sigma))
    key = hash(unread)
    naive = dict(zip(ROWS, _naive_rows(text, ROWS)))
    read = set()
    for name in order:
        row = getattr(bundle, name)
        assert list(row) == naive[name], name
        assert getattr(bundle, name) is row
        read.add(name)
        assert _derived(bundle) == read & set(DERIVED)
        assert bundle == unread and hash(bundle) == key
    assert _derived(unread) == set()

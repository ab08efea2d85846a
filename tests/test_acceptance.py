"""Acceptance suite: ten criteria, one test (one pass/fail line) each.

The structures under test realize asymptotic bounds, so acceptance is
property-based: the worked figure is reproduced exactly, closed-form
text lengths and run counts are checked, and every reduction is
replayed against definitional oracles over exhaustive and seeded
random instance families.  Wall-clock budgets are asserted where they
are pinned; every random draw is seeded, so the suite is deterministic.

Run with ``pytest -v tests/test_acceptance.py`` to see the ten lines.
"""

import random
import time
from fractions import Fraction
from itertools import accumulate

from csq.gadgets import (
    KINDS,
    build_gadget,
    invphi_via_phi,
    phi_via_invphi,
    proof_certificate,
    random_input,
    verify_many,
    verify_reduction,
)
from csq.grammar_lcp_rmq import (
    build_lcp_rmq_index,
    expand,
    lce_query,
    lcp_rmq,
)
from csq.measures import (
    bwt_run_count,
    delta_append_check,
    distinct_substring_counts,
    lz77_factorize,
    substring_complexity,
    validate_lz_like,
)
from csq.predecessor import (
    ColoredSet,
    SmallSet,
    StaticKeySet,
    pred,
    pred_color,
    smallset_build,
    smallset_pred,
    yfast_build,
    yfast_pred,
)
from csq.rlbwt_ilf import build_ilf_index, ilf_query
from csq.text_core import Text, build_bundle, lce_naive, occurrences, pattern_range

from conftest import (
    SESSION_T0,
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
    append_terminator,
    random_text,
)


def test_c01_figure_rows_exact_within_one_second():
    """Criterion 1: the worked figure's nine rows, exactly, in < 1 s."""
    start = time.monotonic()
    text = Text.from_ascii(FIG_ASCII)
    bundle = build_bundle(text)
    assert list(bundle.sa[1:]) == FIG_SA
    assert list(bundle.isa[1:]) == FIG_ISA
    assert list(bundle.lcp[1:]) == FIG_LCP
    assert list(bundle.plcp[1:]) == FIG_PLCP
    assert "".join(chr(c) for c in bundle.bwt[1:]) == FIG_BWT
    assert list(bundle.lf[1:]) == FIG_LF
    assert list(bundle.ilf[1:]) == FIG_ILF
    assert list(bundle.phi[1:]) == FIG_PHI
    assert list(bundle.inv_phi[1:]) == FIG_INV_PHI
    assert time.monotonic() - start < 1.0


def test_c02_worked_examples_exact():
    """Criterion 2: z, r, pattern range, predecessor and range examples."""
    text = Text.from_ascii(FIG_ASCII)
    factorization = lz77_factorize(text)
    assert factorization.phrase_count == 7
    assert factorization.phrases == (
        (ord("b"), 0),
        (1, 1),
        (ord("a"), 0),
        (2, 2),
        (3, 3),
        (7, 6),
        (10, 5),
    )
    assert bwt_run_count(text) == 6

    bundle = build_bundle(text)
    found = pattern_range(text, bundle.sa, "ababa")
    assert (found.range_beg, found.range_end) == (6, 10)
    assert occurrences(text, bundle.sa, "ababa") == [6, 8, 10, 15]

    keyset = StaticKeySet.build([2, 5, 7, 8, 10, 12])
    assert pred(keyset, 9) == 4
    colored = ColoredSet(keyset)
    assert pred_color(colored, 9) == 0
    assert pred_color(colored, 8) == 1

    index = build_lcp_rmq_index(text)
    assert lcp_rmq(index, 1, 19) == 11
    assert lce_query(index, 3, 12) == 8


def test_c03_gadget_exhaustives_zero_mismatches_within_sixty_seconds():
    """Criterion 3: exhaustive instance x query sweeps, closed-form counts."""
    start = time.monotonic()
    tops = {
        "lcp-select": 6,
        "isa-count": 5,
        "bwt-color": 3,
        "plcp-pred": 3,
        "phi-pred": 3,
        "ilf-pred": 3,
    }
    reports = {}
    for kind, top in tops.items():
        for size in range(1, top + 1):
            report = verify_many(kind, size, exhaustive=True)
            assert report.mismatch_count == 0, (kind, size, report.first_mismatch)
            assert report.anchors_consistent, (kind, size)
            reports[kind, size] = report

    # Exhaustive enumeration really happened: instance counts are the
    # closed-form family sizes (permutations of [1..n]; m-subsets of [1..m^2]).
    assert reports["lcp-select", 6].instances == 720
    assert reports["isa-count", 5].instances == 120
    for kind in ("bwt-color", "plcp-pred", "phi-pred", "ilf-pred"):
        assert reports[kind, 3].instances == 84

    # Closed-form text lengths and run-length run counts, exact.
    assert reports["lcp-select", 6].text_length == (6 + 2) * (6 + 1)
    assert reports["lcp-select", 6].rl_runs == 2 * (6 + 1)
    assert reports["isa-count", 5].text_length == (5 * 5 + 8) * (5 + 1) // 2
    assert reports["isa-count", 5].rl_runs == 4 * (5 + 1)
    k = (3).bit_length()
    assert reports["bwt-color", 3].text_length == (2 * k + 4) * 9
    max_sum = 9 + 8 + 7  # largest 3-subset of [1..9]
    assert reports["plcp-pred", 3].text_length == (
        max_sum + ((3 + 1) * (3 + 2) // 2 - 1) + 2 * 9 + 3 + 4
    )
    assert reports["plcp-pred", 3].rl_runs == 2 * (3 + 2)
    assert reports["phi-pred", 3].text_length == 27 + 3 * 9 + 2 * 3 + 4
    assert reports["phi-pred", 3].rl_runs == 2 * (3 + 2)
    assert reports["ilf-pred", 3].text_length == 9 + (2 * k + 3) * (3 + 1) * 9
    assert time.monotonic() - start < 60.0


def test_c04_gadget_randomized_instances_zero_mismatches():
    """Criterion 4: 100 seeded random instances per kind at larger sizes."""
    caps = {
        "lcp-select": 32,
        "isa-count": 32,
        "bwt-color": 32,
        "plcp-pred": 32,
        "phi-pred": 32,
        "ilf-pred": 8,
        "phi-inverse": 32,
    }
    assert set(caps) == set(KINDS)
    for index, (kind, cap) in enumerate(sorted(caps.items())):
        rng = random.Random(0xC4_00 + index)
        seen_large = 0
        for _ in range(100):
            size = rng.randint(1, cap)
            seen_large += size > cap // 2
            data = random_input(kind, size, rng)
            report = verify_reduction(kind, build_gadget(kind, data))
            assert report.mismatch_count == 0, (kind, size, report.first_mismatch)
            assert report.anchors_consistent, (kind, size)
        assert seen_large > 10  # the draws really reach the upper sizes


def test_c05_ilf_index_matches_bundle_within_thirty_seconds():
    """Criterion 5: 200 random texts; every position; run-count bounds."""
    start = time.monotonic()
    rng = random.Random(0xC5)
    for _ in range(200):
        n = rng.randint(1, 2000)
        sigma = rng.choice((2, 4, 26))
        text = random_text(rng, n, sigma)
        index = build_ilf_index(text)
        bundle = build_bundle(text)
        for i in range(1, n + 1):
            assert ilf_query(index, i) == bundle.ilf[i]
        r_shifted = bwt_run_count(append_terminator(text).shifted)
        assert index.boundary_count == r_shifted
        assert r_shifted <= bwt_run_count(text) + 3
    assert time.monotonic() - start < 30.0


def test_c06_lcp_rmq_and_lce_exhaustive_ranges_within_sixty_seconds():
    """Criterion 6: all ranges and all pairs on 100 texts; diff-LCP at 2000."""
    start = time.monotonic()
    rng = random.Random(0xC6)
    for _ in range(100):
        n = rng.randint(1, 128)
        sigma = rng.choice((2, 3, 4, 26))
        text = random_text(rng, n, sigma)
        index = build_lcp_rmq_index(text)
        lcp = build_bundle(text).lcp
        for b in range(n):
            best = b + 1
            for e in range(b + 1, n + 1):
                if lcp[e] < lcp[best]:
                    best = e
                assert lcp_rmq(index, b, e) == best
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                want = lce_naive(text, i, j)
                assert lce_query(index, i, j) == want
                assert lce_query(index, j, i) == want

    for n, sigma in ((2000, 2), (1777, 4), (2000, 26)):
        text = random_text(rng, n, sigma)
        bundle = build_bundle(text)
        slg = build_lcp_rmq_index(text).slg
        values = expand(slg, slg.start)
        assert values == [bundle.lcp[i] - bundle.lcp[i - 1] for i in range(1, n + 1)]
        assert list(accumulate(values)) == list(bundle.lcp[1:])
    assert time.monotonic() - start < 60.0


def test_c07_phi_inversion_identities_hold_everywhere():
    """Criterion 7: 100 random binary texts; both identities; |T'| = 5n+1."""
    rng = random.Random(0xC7)
    for _ in range(100):
        n = rng.randint(1, 300)
        bits = tuple(rng.randrange(2) for _ in range(n))
        gadget = build_gadget("phi-inverse", bits)
        assert gadget.text.n == 5 * n + 1
        bundle = build_bundle(Text.from_symbols(list(bits), 2))
        for j in range(1, n + 1):
            assert phi_via_invphi(gadget, j) == bundle.phi[j]
            assert invphi_via_phi(gadget, j) == bundle.inv_phi[j]


def test_c08_measure_lemmas():
    """Criterion 8: append/reversal laws, certificate bounds, brute-force delta."""
    rng = random.Random(0xC8)
    for _ in range(200):
        n = rng.randint(1, 64)
        sigma = rng.choice((2, 3, 4))
        text = random_text(rng, n, sigma)
        before = substring_complexity(text)
        assert substring_complexity(text.reverse()).value == before.value
        for c in range(sigma + 1):  # every live symbol plus one fresh symbol
            checked_before, after = delta_append_check(text, c)
            assert checked_before.value == before.value
            assert after.value <= before.value + 1

    # Every proof-supplied LZ-like certificate validates and dominates z.
    cert_caps = {kind: (3 if kind == "ilf-pred" else 6) for kind in KINDS}
    for kind in KINDS:
        for _ in range(4):
            size = rng.randint(1, cert_caps[kind])
            gadget = build_gadget(kind, random_input(kind, size, rng))
            factorization, bound = proof_certificate(gadget)
            k = validate_lz_like(gadget.text, factorization)
            assert lz77_factorize(gadget.text).phrase_count <= k <= bound

    # Suffix-array delta equals the hash-set brute force up to n = 10^3.
    for n in (1000, 641, 257, 96, 17, 2, 1):
        sigma = rng.choice((2, 4, 26))
        text = random_text(rng, n, sigma)
        raw = bytes(text.symbols)
        brute = [
            len({raw[i : i + length] for i in range(n - length + 1)})
            for length in range(1, n + 1)
        ]
        assert distinct_substring_counts(text) == brute
        value = substring_complexity(text).value
        assert value == max(
            Fraction(brute[length - 1], length) for length in range(1, n + 1)
        )


def test_c09_predecessor_flavors_agree_with_binary_search():
    """Criterion 9: exhaustive on [0..15]; 10^5 random queries at u = 2^20."""
    u = 16
    for mask in range(1, 1 << u):
        keys = [b for b in range(u) if (mask >> b) & 1]
        keyset = StaticKeySet.build(keys, u)
        trie = yfast_build(keys, u)
        small = smallset_build(keys)
        for x in range(u):
            want = pred(keyset, x)
            assert yfast_pred(trie, x) == want
            assert smallset_pred(small, x) == want

    rng = random.Random(0xC9)
    u = 1 << 20
    keys = sorted(rng.sample(range(u), 4096))
    keyset = StaticKeySet.build(keys, u)
    trie = yfast_build(keys, u)
    small = smallset_build(keys)
    for _ in range(100_000):
        x = rng.randrange(u)
        want = pred(keyset, x)
        assert yfast_pred(trie, x) == want
        assert smallset_pred(small, x) == want


def test_c10_suite_wall_clock_within_budget():
    """Criterion 10: the whole suite stays within ~3 minutes, single-threaded."""
    elapsed = time.monotonic() - SESSION_T0
    assert elapsed < 165.0, f"suite already at {elapsed:.1f}s before the final modules"

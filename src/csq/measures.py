"""Repetitiveness measures over small texts.

This module provides run-length encoding, the longest-previous-factor (LPF)
array with matching sources, greedy LZ77 factorization, a validator for
arbitrary LZ77-like factorizations, the BWT run count r, and the substring
complexity measure delta, together with the measure lemmas the rest of the
package relies on (append stability of delta, factorizations induced by
uniform morphisms, and the canonical factorization of a run-length encoding).

Conventions match text_core: texts are 1-indexed in the API, phrase sources
are 1-based text positions, and all quantities are exact (delta is kept as a
reduced integer fraction, never a float).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, Mapping, Sequence

from .text_core import SuffixArrayBundle, Text, suffix_core

__all__ = [
    "DeltaValue",
    "LZFactorization",
    "RunLengthEncoding",
    "bwt_run_count",
    "bwt_run_count_from_isa",
    "delta_append_check",
    "lpf_array",
    "lpf_with_sources",
    "lz77_factorize",
    "lz77_from_bundle",
    "morphism_expand",
    "run_length_encode",
    "run_length_factorization",
    "substring_complexity",
    "text_measures",
    "validate_lz_like",
]


# ---------------------------------------------------------------------------
# Run-length encoding


@dataclass(frozen=True)
class RunLengthEncoding:
    """Maximal runs of equal symbols, as (symbol, length) pairs."""

    runs: tuple[tuple[int, int], ...]

    @property
    def run_count(self) -> int:
        return len(self.runs)

    def decode(self) -> list[int]:
        out: list[int] = []
        for symbol, length in self.runs:
            out.extend([symbol] * length)
        return out


def run_length_encode(text: Text) -> RunLengthEncoding:
    """Group the text into maximal runs of equal symbols."""
    if text.n == 0:
        raise ValueError("cannot run-length encode an empty text")
    runs: list[tuple[int, int]] = []
    current = text.symbols[0]
    length = 1
    for c in text.symbols[1:]:
        if c == current:
            length += 1
        else:
            runs.append((current, length))
            current, length = c, 1
    runs.append((current, length))
    return RunLengthEncoding(tuple(runs))


# ---------------------------------------------------------------------------
# LPF and LZ77


def lpf_with_sources(text: Text) -> tuple[list[int], list[int]]:
    """Longest previous factor per position, with a witness source.

    Returns (lpf, src), both lists of length n with position j at index j-1.
    lpf[j-1] is the largest l such that T[j..j+l) also occurs starting at
    some position j' < j, and src[j-1] is one such j' (0 when lpf is 0).
    Runs one pass over the suffix array with a stack: each rank is pushed
    once, and a pop resolves that position against its nearest smaller
    position on either side in suffix order.
    """
    if text.n == 0:
        raise ValueError("cannot compute LPF of an empty text")
    sa0, _, lcp0 = suffix_core(text.symbols)
    return _lpf_from_core(sa0, lcp0)


def _lpf_from_core(sa0: Sequence[int], lcp0: Sequence[int]) -> tuple[list[int], list[int]]:
    n = len(sa0)
    lpf = [0] * n
    src = [0] * n
    # Two parallel stacks: poss holds positions and lces[i] the LCE of the
    # suffix at poss[i] with the one directly below it.  The -2 sentinel
    # sits below every position, so it is never popped, and an entry pushed
    # onto the bare sentinel always carries LCE 0.
    poss = [-2]
    lces = [0]
    for cur_pos, cur_lcp in zip(chain(sa0, (-1,)), chain(lcp0, (0,))):
        while poss[-1] > cur_pos:
            pos = poss.pop()
            l = lces.pop()
            if l >= cur_lcp:
                lpf[pos] = l
                if l:
                    src[pos] = poss[-1] + 1
            else:
                lpf[pos] = cur_lcp
                src[pos] = cur_pos + 1
                cur_lcp = l
        poss.append(cur_pos)
        lces.append(cur_lcp)
    return lpf, src


def lpf_array(text: Text) -> list[int]:
    """Longest previous factor per position (length n, position j at j-1)."""
    return lpf_with_sources(text)[0]


@dataclass(frozen=True)
class LZFactorization:
    """An LZ77-like factorization of a length-n text.

    Each phrase is a pair (a, length): length 0 marks a literal with symbol
    a, and length >= 1 marks a copy of `length` symbols from the earlier
    text position a (1-based).  Copies may self-overlap.
    """

    phrases: tuple[tuple[int, int], ...]
    n: int

    @property
    def phrase_count(self) -> int:
        return len(self.phrases)

    def decode(self) -> list[int]:
        out: list[int] = []
        for a, length in self.phrases:
            if length == 0:
                out.append(a)
            else:
                for t in range(length):
                    out.append(out[a - 1 + t])
        return out


def lz77_factorize(text: Text) -> LZFactorization:
    """Greedy left-to-right LZ77 factorization.

    Each phrase is the longest prefix of the remaining text that occurs
    starting earlier (possibly overlapping itself), or a single literal when
    no such prefix exists.  The greedy factorization has the minimum phrase
    count among all factorizations accepted by validate_lz_like.
    """
    if text.n == 0:
        raise ValueError("cannot factorize an empty text")
    return _lz77_from_lpf(text, *lpf_with_sources(text))


def lz77_from_bundle(bundle: SuffixArrayBundle) -> LZFactorization:
    """Greedy LZ77 factorization read off a text's stored bundle, with no
    suffix sort: the same LPF pass as lz77_factorize over the bundle's SA
    and LCP rows.  Pair it with validate_lz_like to check the parse against
    the text itself rather than trust the bundle."""
    sa0 = [j - 1 for j in bundle.sa[1:]]
    return _lz77_from_lpf(bundle.text, *_lpf_from_core(sa0, bundle.lcp[1:]))


def _lz77_from_lpf(text: Text, lpf: Sequence[int], src: Sequence[int]) -> LZFactorization:
    n = text.n
    phrases: list[tuple[int, int]] = []
    j = 1
    while j <= n:
        length = lpf[j - 1]
        if length == 0:
            phrases.append((text.at(j), 0))
            j += 1
        else:
            phrases.append((src[j - 1], length))
            j += length
    return LZFactorization(tuple(phrases), n)


def validate_lz_like(text: Text, factorization: LZFactorization | Iterable[tuple[int, int]]) -> int:
    """Check an LZ77-like factorization of the text and return its size.

    A valid factorization concatenates to the text, every copy phrase names
    a source position strictly before the phrase, and the text matches the
    source for the phrase's full length (overlap allowed).  Raises ValueError
    naming the first offending phrase index otherwise.  The returned size k
    satisfies z(T) <= k because the greedy factorization is optimal; this
    check runs in linear time and does not recompute z.
    """
    phrases = (
        factorization.phrases
        if isinstance(factorization, LZFactorization)
        else tuple(factorization)
    )
    syms = text.symbols
    n = text.n
    j = 1
    for idx, (a, length) in enumerate(phrases, start=1):
        if length == 0:
            if j > n:
                raise ValueError(f"phrase {idx}: literal lies past the end of the text")
            if syms[j - 1] != a:
                raise ValueError(
                    f"phrase {idx}: literal {a} != text symbol {syms[j - 1]} at position {j}"
                )
            j += 1
        else:
            if length < 0:
                raise ValueError(f"phrase {idx}: negative length")
            if not 1 <= a < j:
                raise ValueError(
                    f"phrase {idx}: source {a} does not start strictly before position {j}"
                )
            if j + length - 1 > n:
                raise ValueError(f"phrase {idx}: copy runs past the end of the text")
            # Comparing the two text slices is the overlap-allowed definition:
            # T[a..a+length) must equal T[j..j+length) as written in the text.
            if syms[j - 1 : j - 1 + length] != syms[a - 1 : a - 1 + length]:
                t = next(
                    t for t in range(length) if syms[j - 1 + t] != syms[a - 1 + t]
                )
                raise ValueError(
                    f"phrase {idx}: source {a} matches only {t} < {length} symbols"
                )
            j += length
    if j != n + 1:
        raise ValueError(f"factorization covers {j - 1} of {n} symbols")
    return len(phrases)


def run_length_factorization(text: Text) -> LZFactorization:
    """The canonical LZ77-like factorization read off the run-length encoding.

    Every run contributes one literal plus, when longer than one symbol, one
    self-overlapping copy of the rest of the run, so a text with k runs is
    factorized into at most 2k phrases.
    """
    rle = run_length_encode(text)
    phrases: list[tuple[int, int]] = []
    j = 1
    for symbol, length in rle.runs:
        phrases.append((symbol, 0))
        if length > 1:
            phrases.append((j, length - 1))
        j += length
    return LZFactorization(tuple(phrases), text.n)


# ---------------------------------------------------------------------------
# BWT runs


def bwt_run_count(text: Text) -> int:
    """Number of maximal equal-symbol runs in the BWT of the text."""
    if text.n == 0:
        raise ValueError("cannot compute BWT runs of an empty text")
    sa0, _, _ = suffix_core(text.symbols)
    return _bwt_runs_from_sa(text.symbols, sa0)


def bwt_run_count_from_isa(text: Text, isa: Sequence[int]) -> int:
    """BWT run count read off a stored 1-indexed ISA (placeholder at 0),
    such as a bundle's or an LCP-RMQ index's, with no suffix sort."""
    sa0 = [0] * text.n
    for j in range(1, text.n + 1):
        sa0[isa[j] - 1] = j - 1
    return _bwt_runs_from_sa(text.symbols, sa0)


def _bwt_runs_from_sa(syms: Sequence[int], sa0: Sequence[int]) -> int:
    runs = 1
    prev = syms[sa0[0] - 1]  # index -1 wraps to the last symbol
    for j in sa0:
        c = syms[j - 1]
        if c != prev:
            runs += 1
            prev = c
    return runs


# ---------------------------------------------------------------------------
# Substring complexity delta


@dataclass(frozen=True)
class DeltaValue:
    """delta = max over l of d_l / l, as a reduced fraction.

    d_l is the number of distinct length-l substrings; arg_len is the
    smallest l attaining the maximum.
    """

    numerator: int
    denominator: int
    arg_len: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def distinct_substring_counts(text: Text) -> list[int]:
    """d_l for l = 1..n (index l-1), computed from the suffix array.

    Among the n-l+1 starting positions of length-l substrings, one per
    distinct substring is counted by dropping every suffix-array position
    whose LCP with its predecessor is at least l.
    """
    if text.n == 0:
        raise ValueError("cannot count substrings of an empty text")
    _, _, lcp0 = suffix_core(text.symbols)
    return _distinct_counts_from_lcp(lcp0)


def _distinct_counts_from_lcp(lcp0: Sequence[int]) -> list[int]:
    n = len(lcp0)
    hist = [0] * (n + 2)
    for r in range(1, n):
        hist[lcp0[r]] += 1
    counts = []
    cnt_ge = 0
    for length in range(n, 0, -1):
        cnt_ge += hist[length]
        counts.append((n - length + 1) - cnt_ge)
    counts.reverse()
    return counts


def substring_complexity(text: Text) -> DeltaValue:
    """Exact substring complexity delta = max over l in [1..n] of d_l / l."""
    return _delta_from_counts(distinct_substring_counts(text))


def _delta_from_counts(counts: Sequence[int]) -> DeltaValue:
    # Integer scan: c / length beats num / den exactly when
    # c * den > num * length; the strict test keeps the smallest arg_len.
    num, den = counts[0], 1
    for length, c in enumerate(counts[1:], start=2):
        if c * den > num * length:
            num, den = c, length
    g = gcd(num, den)
    return DeltaValue(num // g, den // g, den)


def text_measures(text: Text) -> tuple[LZFactorization, int, DeltaValue]:
    """The greedy LZ77 factorization, the BWT run count r, and delta, all
    read off one suffix sort of the text."""
    if text.n == 0:
        raise ValueError("cannot measure an empty text")
    sa0, _, lcp0 = suffix_core(text.symbols)
    factorization = _lz77_from_lpf(text, *_lpf_from_core(sa0, lcp0))
    runs = _bwt_runs_from_sa(text.symbols, sa0)
    return factorization, runs, _delta_from_counts(_distinct_counts_from_lcp(lcp0))


def delta_append_check(text: Text, symbol: int) -> tuple[DeltaValue, DeltaValue]:
    """delta before and after appending one symbol.

    Appending a symbol adds at most one new distinct substring per length,
    so delta can grow by at most 1; that bound is asserted here.
    """
    before = substring_complexity(text)
    sigma = max(text.sigma, symbol + 1)
    extended = Text.from_symbols(list(text.symbols) + [symbol], sigma)
    after = substring_complexity(extended)
    assert after.value <= before.value + 1
    return before, after


# ---------------------------------------------------------------------------
# Uniform morphisms


def morphism_expand(text: Text, blocks: Mapping[int, Sequence[int]]) -> Text:
    """Apply a uniform morphism: replace each symbol by its length-k block.

    All blocks must share one length k >= 1 (ragged blocks raise
    ValueError).  The phrase-by-phrase image of the greedy factorization of
    the input is itself a valid factorization of the output with at most
    k * z(T) phrases; this is checked on every call, so z(T') <= k * z(T).
    """
    if text.n == 0:
        raise ValueError("cannot expand an empty text")
    used = sorted(set(text.symbols))
    missing = [c for c in used if c not in blocks]
    if missing:
        raise ValueError(f"morphism lacks a block for symbol {missing[0]}")
    k = len(blocks[used[0]])
    if k < 1:
        raise ValueError("morphism blocks must be nonempty")
    for c in used:
        if len(blocks[c]) != k:
            raise ValueError(
                f"ragged morphism: block for symbol {c} has length {len(blocks[c])}, expected {k}"
            )
    expanded: list[int] = []
    for c in text.symbols:
        expanded.extend(blocks[c])
    sigma = max(text.sigma, 1 + max(max(blocks[c]) for c in used))
    image = Text.from_symbols(expanded, sigma)

    fact = lz77_factorize(text)
    induced: list[tuple[int, int]] = []
    for a, length in fact.phrases:
        if length == 0:
            induced.extend((c, 0) for c in blocks[a])
        else:
            induced.append((k * (a - 1) + 1, k * length))
    count = validate_lz_like(image, induced)
    assert count <= k * fact.phrase_count
    return image

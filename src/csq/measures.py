"""Repetitiveness measures over small texts.

This module provides run-length encoding, greedy LZ77 factorization, a
validator for arbitrary LZ77-like factorizations, the factorization of a
text spelled as repeated blocks, the BWT run count r, and the substring
complexity measure delta, with a check of delta's append stability.

Conventions match text_core: texts are 1-indexed in the API, phrase sources
are 1-based text positions, and all quantities are exact (delta is kept as a
reduced integer fraction, never a float).  Every measure reads the text's
rows from text_core.bundle_of, so it sorts nothing while the text's bundle
is held and sorts once otherwise, and runs Kasai's LCP pass only where it
reads LCP and the bundle has not derived it yet.  r reads the BWT off SA by
text_core.bwt_row and caches no BWT row.  delta counts the LCP values in
one list indexed by value, n + 1 slots whatever the text.  A caller that wants
several measures from one sort holds build_bundle(text) while it calls
them, as ``csq measures`` does for z, r and delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import gcd
from operator import ne
from typing import Iterable, Iterator, Sequence

from .text_core import SuffixArrayBundle, Text, bundle_of, bwt_row

__all__ = [
    "DeltaValue",
    "LZFactorization",
    "RunLengthEncoding",
    "bwt_run_count",
    "delta_append_check",
    "distinct_substring_counts",
    "lz77_factorize",
    "lz77_from_bundle",
    "repeat_factorization",
    "run_length_encode",
    "substring_complexity",
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


def _lpf_from_core(sa: Sequence[int], lcp: Sequence[int]) -> tuple[list[int], list[int]]:
    """Longest previous factors (lpf, src) from a text's 1-indexed SA and
    LCP rows, position j at index j-1: lpf[j-1] is the largest l such that
    T[j..j+l) also occurs at some j' < j, and src[j-1] is one such j' (0 when
    lpf is 0).  One stack pass over the suffix array: each rank is pushed
    once, and a pop resolves its position against the nearest smaller
    position on either side in suffix order.  lz77_from_bundle falls back
    to this pass when its per-phrase scans exceed a linear budget.
    """
    n = len(sa) - 1
    lpf = [0] * (n + 1)
    src = [0] * (n + 1)
    # Two parallel stacks: poss holds positions and lces[i] the LCE of the
    # suffix at poss[i] with the one directly below it.  Position 0 sits
    # below every position, so it is never popped, an entry pushed onto it
    # always carries LCE 0, and a final 0 pops every other entry.
    poss = [0]
    lces = [0]
    for cur_pos, cur_lcp in chain(islice(zip(sa, lcp), 1, None), ((0, 0),)):
        while poss[-1] > cur_pos:
            pos = poss.pop()
            l = lces.pop()
            if l >= cur_lcp:
                lpf[pos] = l
                if l:
                    src[pos] = poss[-1]
            else:
                lpf[pos] = cur_lcp
                src[pos] = cur_pos
                cur_lcp = l
        poss.append(cur_pos)
        lces.append(cur_lcp)
    return lpf[1:], src[1:]


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
    count among all factorizations accepted by validate_lz_like.  This is
    lz77_from_bundle over text_core.bundle_of(text): one suffix sort, or
    none while the text's bundle is held.
    """
    if text.n == 0:
        raise ValueError("cannot factorize an empty text")
    return lz77_from_bundle(bundle_of(text))


# Ranks the per-phrase parse may scan per text symbol before it gives up and
# runs the linear LPF pass instead.  Benchmark and gadget texts scan at most
# 13 per symbol and random texts about 8; texts shaped like 0 m 0 m-1 ... 0 1
# scan quadratically many and are parsed by the fallback.
_LZ_SCAN_BUDGET = 32


def lz77_from_bundle(bundle: SuffixArrayBundle) -> LZFactorization:
    """Greedy LZ77 in one step per phrase (Kärkkäinen, Kempa & Puglisi),
    read off a text's bundle with no suffix sort.

    At a phrase start j, the longest earlier match is with one of the two
    ranks nearest ISA[j] whose positions lie before j; a bitmap of the
    ranks parsed so far yields both with one C-level scan each.  A tie goes
    to the lower rank, as in the LPF stack pass, so the phrases and their
    sources equal the parse read off that pass's (lpf, src).  Pair it with
    validate_lz_like to check the parse against the text itself rather
    than trust the bundle.
    """
    syms, sa, isa, lcp = bundle.text.symbols, bundle.sa, bundle.isa, bundle.lcp
    n = len(syms)
    seen = bytearray(n + 1)
    budget = _LZ_SCAN_BUDGET * n
    phrases: list[tuple[int, int]] = []
    j = 1
    while j <= n:
        k = isa[j]
        lo = seen.rfind(1, 1, k)
        hi = seen.find(1, k + 1)
        budget -= (hi if hi >= 0 else n + 1) - (lo if lo >= 0 else 0)
        if budget < 0:
            return _lz77_from_lpf(syms, *_lpf_from_core(sa, lcp))
        length = 0
        if lo >= 0:
            length = lcp[k] if lo == k - 1 else min(lcp[lo + 1 : k + 1])
            src = sa[lo]
        if hi >= 0:
            right = lcp[hi] if hi == k + 1 else min(lcp[k + 1 : hi + 1])
            if right > length:
                length, src = right, sa[hi]
        if length == 0:
            phrases.append((syms[j - 1], 0))
            seen[k] = 1
            j += 1
        else:
            phrases.append((src, length))
            for r in isa[j : j + length]:
                seen[r] = 1
            j += length
    return LZFactorization(tuple(phrases), n)


def _lz77_from_lpf(syms: Sequence[int], lpf: Sequence[int], src: Sequence[int]) -> LZFactorization:
    n = len(syms)
    phrases: list[tuple[int, int]] = []
    j = 0
    while j < n:
        length = lpf[j]
        if length == 0:
            phrases.append((syms[j], 0))
            j += 1
        else:
            phrases.append((src[j], length))
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


def repeat_factorization(blocks: Iterable[tuple[Sequence[int], int]], n: int) -> LZFactorization:
    """The LZ77-like factorization of a length-n text spelled as blocks.

    Each block (unit, copies) stands for ``copies`` repetitions of ``unit``.
    A nonempty block contributes the unit's literals plus, when repeated,
    one self-overlapping copy of the remaining copies; a block with an
    empty unit or no copies spells nothing and contributes no phrase.
    """
    phrases: list[tuple[int, int]] = []
    j = 1
    for unit, copies in blocks:
        if copies == 0 or not unit:
            continue
        phrases += [(s, 0) for s in unit]
        if copies > 1:
            phrases.append((j, (copies - 1) * len(unit)))
        j += copies * len(unit)
    return LZFactorization(tuple(phrases), n)


# ---------------------------------------------------------------------------
# BWT runs


def bwt_run_count(text: Text) -> int:
    """Number of maximal equal-symbol runs in the BWT of the text."""
    if text.n == 0:
        raise ValueError("cannot compute BWT runs of an empty text")
    # A run starts at every rank r >= 2 where BWT changes.
    bwt = bwt_row(text, bundle_of(text).sa)
    return 1 + sum(map(ne, bwt[2:], bwt[1:-1]))


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
    return list(_distinct_counts(bundle_of(text).lcp))


def _distinct_counts(lcp: Sequence[int]) -> Iterator[int]:
    # d_l = (n - l + 1) - #{r : LCP[r] >= l} for l = 1, 2, ..., n, from one
    # histogram of the 1-indexed row; its placeholder LCP[0] = 0 counts
    # below every l, as LCP[1] = 0 does.  The histogram is a list indexed
    # by LCP value (every value is below n).  On a periodic text nearly
    # every value is distinct, so a dict of counts would hold about n keys
    # with their entries; this list holds n + 1 pointer slots.
    n = len(lcp) - 1
    hist = [0] * (n + 1)
    for value in lcp:
        hist[value] += 1
    ge = n + 1
    for length in range(1, n + 1):
        ge -= hist[length - 1]
        yield (n - length + 1) - ge


def substring_complexity(text: Text) -> DeltaValue:
    """Exact substring complexity delta = max over l in [1..n] of d_l / l."""
    if text.n == 0:
        raise ValueError("cannot count substrings of an empty text")
    # Integer test: d / l beats num / den exactly when d * den > num * l; the
    # strict test keeps the smallest arg_len.  Since d_l <= n - l + 1 and
    # (n - l + 1) / l only falls, the scan stops once that bound cannot win.
    n = text.n
    num, den = 0, 1
    for length, d in enumerate(_distinct_counts(bundle_of(text).lcp), 1):
        if (n - length + 1) * den <= num * length:
            break
        if d * den > num * length:
            num, den = d, length
    g = gcd(num, den)
    return DeltaValue(num // g, den // g, den)


def delta_append_check(text: Text, symbol: int) -> tuple[DeltaValue, DeltaValue]:
    """delta before and after appending one symbol.

    Appending a symbol adds at most one new distinct substring per length,
    so delta can grow by at most 1; AssertionError is raised otherwise.
    """
    before = substring_complexity(text)
    sigma = max(text.sigma, symbol + 1)
    extended = Text.from_symbols(list(text.symbols) + [symbol], sigma)
    after = substring_complexity(extended)
    if after.value > before.value + 1:
        raise AssertionError(
            f"delta grew from {before.value} to {after.value} on one appended symbol"
        )
    return before, after


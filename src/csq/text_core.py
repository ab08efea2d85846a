"""Suffix-array machinery: the classic query arrays of a text, pattern ranges,
and a naive longest-common-extension scan.

Conventions used throughout the package:

* a text of length n is the 1-indexed sequence T[1..n] of integer symbols;
* every public array is 1-indexed and stored with an unused placeholder at
  index 0, so that ``arr[i]`` reads exactly like the textbook definition;
  the sorters' raw 0-based output (suffix_array, suffix_array_naive) is
  the one exception.

This module alone turns sort output into rows.  suffix_core(text) hands
every structure and measure the text's SA, ISA and LCP rows, as tuples in
the bundle's own format, and suffix_ranks(text) its SA and ISA.  Both
return the rows of live_bundle(text), the bundle last built for that very
Text object while a caller still holds it (the registry holds it weakly);
only without one do they sort the text, once, by SA-IS induced sorting in
linear time, and suffix_core adds Kasai's LCP pass.  build_bundle always
sorts, draws every position, rank and LCP value from one pool of n + 1 int
objects, and derives nine arrays:

    SA       suffix array: SA[i] = start of the i-th suffix in sorted order
    ISA      inverse permutation of SA
    LCP      LCP[1] = 0; LCP[i] = LCE of the suffixes ranked i and i-1
    PLCP     LCP in text order: PLCP[SA[i]] = LCP[i]
    BWT      BWT[i] = T[SA[i]-1], wrapping to T[n] when SA[i] = 1
    LF       LF[i] = ISA[SA[i]-1], wrapping to ISA[n] when SA[i] = 1
    ILF      inverse permutation of LF
    PHI      PHI[SA[i]] = SA[i-1]; PHI[SA[1]] = SA[n]
    INV_PHI  inverse permutation of PHI
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence, Union


@dataclass(frozen=True)
class Text:
    """An immutable integer string; ``symbols[0]`` holds T[1]."""

    symbols: tuple[int, ...]
    sigma: int

    @staticmethod
    def from_symbols(symbols: Sequence[int], sigma: int | None = None) -> "Text":
        syms = tuple(map(int, symbols))
        if syms and min(syms) < 0:
            raise ValueError("symbols must be non-negative integers")
        top = max(syms, default=0)
        if sigma is None:
            sigma = top + 1
        if sigma < 1:
            raise ValueError("sigma must be at least 1")
        if top >= sigma:
            raise ValueError(f"symbol {top} out of range for sigma={sigma}")
        return Text(syms, sigma)

    @staticmethod
    def from_ascii(s: str) -> "Text":
        """Map each character to its code point (alphabet fixed at 256)."""
        codes = [ord(c) for c in s]
        if codes and max(codes) > 255:
            raise ValueError("from_ascii accepts 8-bit characters only")
        return Text(tuple(codes), 256)

    @property
    def n(self) -> int:
        return len(self.symbols)

    def at(self, j: int) -> int:
        """T[j], 1-based."""
        if not 1 <= j <= len(self.symbols):
            raise IndexError(f"position {j} out of [1..{len(self.symbols)}]")
        return self.symbols[j - 1]

    def slice(self, i: int, j: int) -> tuple[int, ...]:
        """T[i..j] inclusive, 1-based; empty when j < i."""
        return self.symbols[max(i, 1) - 1 : max(j, 0)]

    def reverse(self) -> "Text":
        return Text(tuple(reversed(self.symbols)), self.sigma)

    def to_ascii(self) -> str:
        return "".join(chr(s) for s in self.symbols)


PatternLike = Union["Text", str, Sequence[int]]


def _coerce_pattern(pattern: PatternLike) -> tuple[int, ...]:
    if isinstance(pattern, Text):
        return pattern.symbols
    if isinstance(pattern, str):
        return tuple(map(ord, pattern))
    return tuple(map(int, pattern))


def suffix_array(symbols: Sequence[int]) -> list[int]:
    """0-based suffix array by SA-IS induced sorting (Nong, Zhang & Chan,
    "Linear suffix array construction by almost pure induced-sorting",
    DCC 2009), in O(n) time.

    The alphabet is first rank-reduced to 1..sigma' and a unique smallest 0
    is appended, so the buckets depend only on the distinct symbols present,
    never on their magnitude.
    """
    if not symbols:
        return []
    code = {c: r for r, c in enumerate(sorted(set(symbols)), 1)}
    s = [code[c] for c in symbols]
    s.append(0)
    sa = _sais(s, len(code) + 1)
    del sa[0]  # the sentinel suffix
    return sa


def _sais(s: list[int], k: int) -> list[int]:
    """Suffix array of ``s``, whose symbols lie in [0, k) and whose last
    symbol is a unique 0.

    A suffix is S-type when it is smaller than the next one, else L-type;
    an LMS position is an S-type one right after an L-type one.  Sorting the
    LMS suffixes induces the order of all others, and the LMS suffixes are
    sorted by recursing on the names of their LMS substrings.  There are at
    most n/2 LMS positions, so the recursion is at most log2 n levels deep.
    """
    n = len(s)
    stype = [False] * n
    stype[-1] = True
    nxt, nxt_stype = 0, True
    for i in range(n - 2, -1, -1):
        c = s[i]
        nxt_stype = stype[i] = c < nxt or (c == nxt and nxt_stype)
        nxt = c
    lms = [i for i in range(1, n) if stype[i] and not stype[i - 1]]

    counts = [0] * k
    for c in s:
        counts[c] += 1
    tails = list(accumulate(counts))
    heads = [t - c for t, c in zip(tails, counts)]

    def induce(sorted_lms: list[int]) -> list[int]:
        # LMS suffixes at their bucket tails, then L-types left to right
        # from the bucket heads, then S-types right to left from the tails.
        # Both scans read entries the same scan has just written.
        sa = [-1] * n
        bkt = tails[:]
        for p in reversed(sorted_lms):
            c = s[p]
            bkt[c] -= 1
            sa[bkt[c]] = p
        bkt = heads[:]
        for p in sa:
            if p > 0 and not stype[p - 1]:
                c = s[p - 1]
                sa[bkt[c]] = p - 1
                bkt[c] += 1
        bkt = tails[:]
        for p in reversed(sa):
            if p > 0 and stype[p - 1]:
                c = s[p - 1]
                bkt[c] -= 1
                sa[bkt[c]] = p - 1
        return sa

    # Inducing from the LMS positions in text order sorts the LMS
    # substrings; equal substrings are adjacent and get one name.  ``end``
    # holds each LMS substring's end and is then overwritten with its name.
    sa = induce(lms)
    end = [-1] * n
    for a, b in zip(lms, lms[1:]):
        end[a] = b + 1
    end[n - 1] = n
    name = -1
    prev = None
    for p in sa:
        e = end[p]
        if e >= 0:
            cur = s[p:e]
            if cur != prev:
                name += 1
                prev = cur
            end[p] = name
    del sa
    reduced = [end[p] for p in lms]
    del end
    if name + 1 == len(lms):  # all names distinct: they are the ranks
        order = sorted(range(len(reduced)), key=reduced.__getitem__)
    else:
        order = _sais(reduced, name + 1)
    return induce([lms[i] for i in order])


# perfbench's traced standalone-sort span imports this name; the alias goes
# when perfbench points at suffix_array (ROADMAP item 1).
suffix_array_prefix_doubling = suffix_array


def suffix_array_naive(symbols: Sequence[int]) -> list[int]:
    """0-based suffix array by direct suffix comparison.

    Quadratic-memory oracle kept as an independent cross-check for the
    SA-IS sorter; intended for small inputs only.
    """
    syms = tuple(symbols)
    return sorted(range(len(syms)), key=lambda i: syms[i:])


@dataclass(frozen=True)
class SuffixArrayBundle:
    """The nine arrays of a text, each 1-indexed with a placeholder at 0."""

    text: Text
    sa: tuple[int, ...]
    isa: tuple[int, ...]
    lcp: tuple[int, ...]
    plcp: tuple[int, ...]
    bwt: tuple[int, ...]
    lf: tuple[int, ...]
    ilf: tuple[int, ...]
    phi: tuple[int, ...]
    inv_phi: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.text.n


# id(text) -> the last bundle built for that text object, held weakly.  The
# bundle holds its text, so an id cannot be reused while its entry lives.
_LIVE_BUNDLES: weakref.WeakValueDictionary[int, SuffixArrayBundle] = weakref.WeakValueDictionary()


def live_bundle(text: Text) -> SuffixArrayBundle | None:
    """The bundle build_bundle last made for this very ``text`` object while
    it is alive, else None (also for an equal but distinct Text)."""
    bundle = _LIVE_BUNDLES.get(id(text))
    return bundle if bundle is not None and bundle.text is text else None


def _sorted_ranks(symbols: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    """SA and ISA of one SA-IS sort, and the pool ids = [0, 1, ..., n] that
    every value of theirs is drawn from."""
    ids = list(range(len(symbols) + 1))
    sa = [0, *map(ids[1:].__getitem__, suffix_array(symbols))]
    isa = [0] * len(ids)
    for j, r in zip(sa, ids):
        isa[j] = r
    return tuple(sa), tuple(isa), ids


def _lcp_kasai(
    symbols: Sequence[int], sa: Sequence[int], isa: Sequence[int], ids: list[int]
) -> tuple[int, ...]:
    # LCP[r] = LCE(SA[r], SA[r-1]) for r >= 2, by Kasai's pass in text
    # order.  s[j] = T[j]; the None after T[n] equals no symbol, so it ends
    # every extension unchecked.
    n = len(symbols)
    s = [None, *symbols, None]
    lcp = [0] * (n + 1)
    h = 0
    for j in range(1, n + 1):
        r = isa[j]
        if r > 1:
            j2 = sa[r - 1]
            while s[j + h] == s[j2 + h]:
                h += 1
            lcp[r] = ids[h]
            if h:
                h -= 1
        else:
            h = 0
    return tuple(lcp)


def suffix_core(text: Text) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The rows SA, ISA and LCP of a text: its live bundle's own tuples,
    else one SA-IS sort and Kasai's LCP pass in the same format."""
    bundle = live_bundle(text)
    if bundle is not None:
        return bundle.sa, bundle.isa, bundle.lcp
    sa, isa, ids = _sorted_ranks(text.symbols)
    return sa, isa, _lcp_kasai(text.symbols, sa, isa, ids)


def suffix_ranks(text: Text) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """SA and ISA as suffix_core gives them, with no LCP pass."""
    bundle = live_bundle(text)
    if bundle is not None:
        return bundle.sa, bundle.isa
    return _sorted_ranks(text.symbols)[:2]


def build_bundle(text: Text) -> SuffixArrayBundle:
    """Compute all nine arrays of ``text`` from one suffix sort, and record
    the bundle as the text's live bundle."""
    n = text.n
    if n == 0:
        raise ValueError("cannot build a suffix-array bundle for an empty text")
    syms = text.symbols
    sa, isa, ids = _sorted_ranks(syms)
    lcp = _lcp_kasai(syms, sa, isa, ids)
    # At rank r, BWT and LF read the text position before SA[r] and PHI the
    # rank before r, each wrapping to n at 1; the placeholders read 0.  The
    # loop inverts LF and PHI and writes every value from the shared pool.
    bwt = tuple(map((0, syms[-1], *syms[:-1]).__getitem__, sa))
    lf = tuple(map((0, isa[n], *isa[1:n]).__getitem__, sa))
    plcp, ilf, phi, inv_phi = ([0] * (n + 1) for _ in range(4))
    for r, j, h, l, p in zip(ids, sa, lcp, lf, (0, sa[n], *sa[1:n])):
        plcp[j] = h
        ilf[l] = r
        phi[j] = p
        inv_phi[p] = j
    bundle = _LIVE_BUNDLES[id(text)] = SuffixArrayBundle(
        text=text,
        sa=sa,
        isa=isa,
        lcp=lcp,
        plcp=tuple(plcp),
        bwt=bwt,
        lf=lf,
        ilf=tuple(ilf),
        phi=tuple(phi),
        inv_phi=tuple(inv_phi),
    )
    return bundle


@dataclass(frozen=True, slots=True)
class PatternRange:
    """Half-open rank interval (range_beg..range_end] of suffixes that start
    with the pattern."""

    range_beg: int
    range_end: int

    @property
    def occ_count(self) -> int:
        return self.range_end - self.range_beg

    @property
    def is_empty(self) -> bool:
        return self.range_end == self.range_beg


def pattern_range(text: Text, sa: Sequence[int], pattern: PatternLike) -> PatternRange:
    """Rank interval of ``pattern`` by one bisection of the suffix array that
    narrows both ends until a probe matches, then two keyed bisects.

    ``sa`` is the 1-indexed array from :func:`build_bundle`.  Each probe
    compares a suffix's first m = |pattern| symbols with the pattern; tuple
    order is the suffix/pattern order, since a suffix shorter than the
    pattern sorts before it.  Until a probe matches, every rank below ``lo``
    is smaller than the pattern and every rank from ``hi`` on is larger, so
    an absent pattern costs at most ceil(log2(n+1)) SA reads.  At the first
    match the two ends are finished by bisects inside [lo, mid) and
    (mid, hi), for at most 2 ceil(log2(n+1)) reads in all.  The empty
    pattern yields (0, n).  Needs Python >= 3.10.
    """
    pat = _coerce_pattern(pattern)
    syms = text.symbols
    m = len(pat)

    def key(j: int) -> tuple[int, ...]:
        return syms[j - 1 : j - 1 + m]

    lo, hi = 1, text.n + 1
    while lo < hi:
        mid = (lo + hi) // 2
        j = sa[mid] - 1
        window = syms[j : j + m]
        if window < pat:
            lo = mid + 1
        elif window > pat:
            hi = mid
        else:
            beg = bisect_left(sa, pat, lo, mid, key=key)
            end = bisect_right(sa, pat, mid + 1, hi, key=key)
            return PatternRange(beg - 1, end - 1)
    return PatternRange(lo - 1, lo - 1)


def occurrences(text: Text, sa: Sequence[int], pattern: PatternLike) -> list[int]:
    """Sorted starting positions of ``pattern`` in ``text``."""
    rng = pattern_range(text, sa, pattern)
    return sorted(sa[r] for r in range(rng.range_beg + 1, rng.range_end + 1))


def lce_naive(text: Text, i: int, j: int) -> int:
    """Length of the longest common prefix of suffixes T[i..n] and T[j..n],
    by direct symbol comparison."""
    syms = text.symbols
    n = len(syms)
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"positions ({i}, {j}) out of [1..{n}]")
    a, b = i - 1, j - 1
    ell = 0
    while a + ell < n and b + ell < n and syms[a + ell] == syms[b + ell]:
        ell += 1
    return ell

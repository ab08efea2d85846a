"""Suffix-array machinery: the classic query arrays of a text, pattern ranges,
and a naive longest-common-extension scan.

Conventions used throughout the package:

* a text of length n is the 1-indexed sequence T[1..n] of integer symbols;
* every public array is 1-indexed and stored with an unused placeholder at
  index 0, so that ``arr[i]`` reads exactly like the textbook definition;
  the sorters' raw 0-based output (suffix_array, suffix_array_naive) is
  the one exception.

This module alone turns sort output into rows, and bwt_row alone reads the
BWT off SA, for the bundle, r and the inverse-LF index.  bundle_of(text)
hands every structure and measure the text's rows: live_bundle(text), the
bundle last built for that very Text object while a caller still holds it
(the registry holds it weakly), else a new one from build_bundle.
build_bundle sorts the text once, by SA-IS induced sorting (linear-time
induce passes plus one comparison sort of the LMS spans per recursion level,
O(n log n) in the worst case; see _SPAN), and stores two rows:

    SA       suffix array: SA[i] = start of the i-th suffix in sorted order
    ISA      inverse permutation of SA

The bundle derives seven more on first read: LCP by Kasai's pass in text
order, and each other row by one gather over SA or ISA:

    LCP      LCP[1] = 0; LCP[i] = LCE of the suffixes ranked i and i-1
    PLCP     LCP in text order: PLCP[SA[i]] = LCP[i]
    BWT      BWT[i] = T[SA[i]-1], wrapping to T[n] when SA[i] = 1
    LF       LF[i] = ISA[SA[i]-1], wrapping to ISA[n] when SA[i] = 1
    ILF      inverse of LF: ILF[ISA[j]] = ISA[j+1], wrapping to ISA[1] at j = n
    PHI      PHI[SA[i]] = SA[i-1]; PHI[SA[1]] = SA[n]
    INV_PHI  inverse permutation of PHI

Every row of positions, ranks or LCP values (all but BWT) is an
``array('i')``, 4 bytes per entry, which holds values up to 2**31 - 1, far
past the command line's text budget of 10**6.  BWT is a tuple of the text's
own symbol objects, since a symbol may exceed 32 bits.
"""

from __future__ import annotations

import sys
import weakref
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import ne
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

    def reverse(self) -> "Text":
        return Text(tuple(reversed(self.symbols)), self.sigma)


PatternLike = Union[str, Sequence[int]]


def _coerce_pattern(pattern: PatternLike) -> tuple[int, ...]:
    if isinstance(pattern, str):
        return tuple(map(ord, pattern))
    return tuple(map(int, pattern))


def suffix_array(symbols: Sequence[int]) -> list[int]:
    """0-based suffix array by SA-IS induced sorting (Nong, Zhang & Chan,
    "Linear suffix array construction by almost pure induced-sorting",
    DCC 2009), with the LMS suffixes named by one comparison sort of their
    spans (see _sais).  Each recursion level costs linear-time induce
    passes plus that sort, O(n log n) in the worst case.

    The alphabet is first rank-reduced to 1..sigma' and a unique smallest 0
    is appended, so the buckets depend only on the distinct symbols present,
    never on their magnitude.
    """
    if not symbols:
        return []
    code = {c: r for r, c in enumerate(sorted(set(symbols)), 1)}
    s = list(map(code.__getitem__, symbols))
    s.append(0)
    sa = _sais(s, len(code) + 1)
    del sa[0]  # the sentinel suffix
    return sa


# How many LMS substrings make up the span that names an LMS position.  Any
# value of at least 1 sorts correctly; longer spans leave fewer equal names,
# so the recursion ends sooner.  8 was measured fastest: shorter spans recurse
# more on random texts, and longer ones gained nothing.
_SPAN = 8


def _sais(s: list[int], k: int) -> list[int]:
    """Suffix array of ``s``, whose symbols lie in [0, k) and whose last
    symbol is a unique 0.

    A suffix is S-type when it is smaller than the next one, else L-type;
    an LMS position is an S-type one right after an L-type one.  Sorting the
    LMS suffixes induces the order of all others in one pass.

    The LMS suffixes are sorted by their spans: the text from an LMS
    position through the _SPAN-th next one (or the sentinel), each symbol c
    of type t encoded as 2c + t.  A span ends at an LMS position, so no span
    is a proper prefix of another, and two spans that differ order their
    suffixes as they order themselves.  One sort of the spans as ``bytes``
    keys is therefore the LMS order when they are all distinct; otherwise
    equal spans get one name, and the suffix array of the names in text
    order is the LMS order.  There are at most n/2 LMS positions, so the
    recursion is at most log2 n levels deep.
    """
    n = len(s)
    stype = [False] * n
    stype[-1] = True
    lms = []
    nxt, nxt_stype = 0, True
    for i in range(n - 2, -1, -1):
        c = s[i]
        cur = c < nxt if c != nxt else nxt_stype
        if nxt_stype and not cur:
            lms.append(i + 1)
        stype[i] = nxt_stype = cur
        nxt = c
    lms.reverse()

    # One byte per encoded symbol when 2k - 1 fits, else a fixed-width
    # big-endian integer, so that bytes order is numeric order.
    enc = [c + c + t for c, t in zip(s, stype)]
    if 2 * k <= 256:
        enc, width = bytes(enc), 1
    else:
        enc = array("I", enc)
        if sys.byteorder == "little":
            enc.byteswap()
        enc, width = enc.tobytes(), enc.itemsize
    m = len(lms)
    starts = list(map(width.__mul__, lms))
    ends = list(map(width.__add__, starts[_SPAN:]))
    ends += [width * n] * (m - len(ends))
    keys = list(map(enc.__getitem__, map(slice, starts, ends)))
    del enc, starts, ends
    order = sorted(range(m), key=keys.__getitem__)
    spans = list(map(keys.__getitem__, order))
    del keys
    fresh = list(map(ne, spans, spans[1:]))  # differs from the span before
    del spans
    if not all(fresh):
        names = [0] * m
        for j, name in zip(order, accumulate(fresh, initial=0)):
            names[j] = name
        del fresh, order
        order = _sais(names, name + 1)

    counts = [0] * k
    for c in s:
        counts[c] += 1
    tails = list(accumulate(counts))
    # LMS suffixes at their bucket tails, then L-types left to right from
    # the bucket heads, then S-types right to left from the tails.  Both
    # scans read entries the same scan has just written.
    sa = [-1] * n
    bkt = tails[:]
    for p in reversed(list(map(lms.__getitem__, order))):
        c = s[p]
        bkt[c] -= 1
        sa[bkt[c]] = p
    bkt = [t - c for t, c in zip(tails, counts)]
    for p in sa:
        if p > 0 and not stype[p - 1]:
            c = s[p - 1]
            sa[bkt[c]] = p - 1
            bkt[c] += 1
    bkt = tails
    for p in reversed(sa):
        if p > 0 and stype[p - 1]:
            c = s[p - 1]
            bkt[c] -= 1
            sa[bkt[c]] = p - 1
    return sa


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
    """The nine arrays of a text, each 1-indexed with a placeholder at 0.

    Only the text and its SA and ISA rows are stored, and ``==`` reads them
    alone, since they determine the rest; ``hash`` reads the text alone,
    which determines every row.  The other seven rows are derived on first
    read and cached on the instance, so a reader pays for the rows it reads.
    Every row but BWT is an ``array('i')``.
    """

    text: Text
    sa: array
    isa: array

    def __hash__(self) -> int:
        return hash(self.text)

    @cached_property
    def lcp(self) -> array:
        return _lcp_kasai(self.text.symbols, self.sa, self.isa)

    # Each other derived row is one gather, row[i] = src[idx[i]]: idx is SA
    # or ISA, and src a row or the text, shifted by at most one place with
    # wrap-around at the ends; idx[0] = 0 reads src[0] = 0, the placeholder.

    @cached_property
    def plcp(self) -> array:
        return _gather(self.lcp, self.isa)

    @cached_property
    def bwt(self) -> tuple[int, ...]:
        return tuple(bwt_row(self.text, self.sa))

    @cached_property
    def lf(self) -> array:
        isa = self.isa
        return _gather(array("i", (0, isa[-1])) + isa[1:-1], self.sa)

    @cached_property
    def ilf(self) -> array:
        isa = self.isa
        return _gather(array("i", [0]) + isa[2:] + isa[1:2], self.sa)

    @cached_property
    def phi(self) -> array:
        sa = self.sa
        return _gather(array("i", (0, sa[-1])) + sa[1:-1], self.isa)

    @cached_property
    def inv_phi(self) -> array:
        sa = self.sa
        return _gather(array("i", [0]) + sa[2:] + sa[1:2], self.isa)


def bwt_row(text: Text, sa: Sequence[int]) -> list[int]:
    """A new list of the BWT row read off the 1-indexed ``sa``; the
    placeholder SA[0] = 0 reads 0."""
    syms = text.symbols
    before = (0, syms[-1], *syms[:-1])
    return [before[j] for j in sa]


def _gather(src: array, idx: array) -> array:
    """The row src[idx[0]], src[idx[1]], ..., read off the arrays directly."""
    return array("i", [src[i] for i in idx])


# id(text) -> the last bundle built for that text object, held weakly.  The
# bundle holds its text, so an id cannot be reused while its entry lives.
_LIVE_BUNDLES: weakref.WeakValueDictionary[int, SuffixArrayBundle] = weakref.WeakValueDictionary()


def live_bundle(text: Text) -> SuffixArrayBundle | None:
    """The bundle build_bundle last made for this very ``text`` object while
    it is alive, else None (also for an equal but distinct Text)."""
    bundle = _LIVE_BUNDLES.get(id(text))
    return bundle if bundle is not None and bundle.text is text else None


def _lcp_kasai(symbols: Sequence[int], sa: array, isa: array) -> array:
    # LCP[r] = LCE(SA[r], SA[r-1]) for r >= 2, by Kasai's pass in text
    # order, reading the arrays directly.  prev[r] = SA[r-1], and 0 for
    # r <= 1, where the extension restarts from h = 0 (r = 0 is the
    # placeholder ISA[0]).  s[j] = T[j]; the None after T[n] equals no
    # symbol, so it ends every extension unchecked.  Each h goes into a
    # list, which takes a store faster than an array does, and the list
    # becomes the row at the end.
    s = [None, *symbols, None]
    prev = array("i", (0, 0)) + sa[1:-1]
    lcp = [0] * len(isa)
    h = 0
    for j, r in enumerate(isa):
        j2 = prev[r]
        if j2:
            while s[j + h] == s[j2 + h]:
                h += 1
            lcp[r] = h
            if h:
                h -= 1
        else:
            h = 0
    return array("i", lcp)


def build_bundle(text: Text) -> SuffixArrayBundle:
    """Sort ``text`` once into its SA and ISA rows, and record the bundle as
    the text's live bundle; LCP and the other six rows wait for a read.

    The sort is of x T, with x below every symbol: the whole string is the
    smallest suffix, at rank 0, and every other suffix starts at its
    1-based position in T.  Its suffix array is thus T's 1-indexed SA with
    the placeholder SA[0] = 0 in front."""
    if text.n == 0:
        raise ValueError("cannot build a suffix-array bundle for an empty text")
    syms = text.symbols
    sa = suffix_array((min(syms) - 1, *syms))
    isa = array("i", [0]) * len(sa)
    for r, j in enumerate(sa):
        isa[j] = r
    bundle = _LIVE_BUNDLES[id(text)] = SuffixArrayBundle(text, array("i", sa), isa)
    return bundle


def bundle_of(text: Text) -> SuffixArrayBundle:
    """The text's live bundle, else a new one from build_bundle: a held
    bundle is never sorted again, and a caller that keeps only the rows it
    reads lets the new bundle go when it returns."""
    bundle = live_bundle(text)
    return bundle if bundle is not None else build_bundle(text)


@dataclass(frozen=True, slots=True)
class PatternRange:
    """Half-open rank interval (range_beg..range_end] of suffixes that start
    with the pattern."""

    range_beg: int
    range_end: int

    @property
    def occ_count(self) -> int:
        return self.range_end - self.range_beg


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

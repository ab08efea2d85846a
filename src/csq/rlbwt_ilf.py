"""Inverse-LF queries from run-boundary samples plus predecessor search.

The index stores one entry per run of the BWT of the terminated text: the
LF-images of the run heads form a set J of positions, ILF is arithmetic
(+1 per step) between consecutive elements of J, so a query is one strict
predecessor search over J (one bisect), a one-step successor adjustment,
and O(1) arithmetic.  Two integers are kept per element of J, so space is
proportional to the BWT run count r rather than the text length.

Two layers make the index work for arbitrary texts:

* termination — conceptually, all symbols are shifted up by one and a
  unique smallest 0 is appended, which appends at most 3 BWT runs.  The
  terminator suffix sorts first and leaves every other suffix in order,
  so the terminated text's SA, BWT and LF are read off the original
  text's SA and ISA rows (text_core.suffix_ranks: a live bundle's, else
  one sort), one rank further down.  The terminated text itself is never
  built (the tests keep a builder of it as a reference), no symbol is
  rewritten, and any alphabet works;
* unwrapping — inverse-LF answers for the terminated text are mapped back
  to the original text, with the lexicographically last suffix handled by
  the defining wrap-around i_last -> i_first.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import ne

from .predecessor import StaticKeySet, YFastTrie, yfast_build
from .text_core import Text, suffix_ranks

__all__ = [
    "IlfIndex",
    "build_ilf_index",
    "ilf_query",
]

@dataclass(frozen=True)
class IlfIndex:
    """Run-boundary samples answering inverse-LF queries on the original text.

    boundary_keys holds J = {LF[i] : i a BWT run head of the terminated
    text} in increasing order, the keys a query bisects; ilf_at_boundary[k]
    is ILF at boundary_keys[k].  These two rows are all a query reads.
    """

    n: int
    i_first: int
    i_last: int
    boundary_keys: tuple[int, ...]
    ilf_at_boundary: tuple[int, ...]
    r_original: int
    r_shifted: int

    @property
    def boundary_count(self) -> int:
        return len(self.boundary_keys)

    @property
    def stored_integers(self) -> int:
        """Integers the index retains: a key and an ILF sample per boundary."""
        return len(self.boundary_keys) + len(self.ilf_at_boundary)

    # No query reads pred_keys or trie: ilf_query bisects boundary_keys.
    # perfbench's space count and its traced predecessor head-to-head read
    # both by name, so each is built over boundary_keys, key checks and all,
    # on first read.  They go with ROADMAP item 1.
    @cached_property
    def pred_keys(self) -> StaticKeySet:
        return StaticKeySet.build(self.boundary_keys, u=self.n + 1)

    @cached_property
    def trie(self) -> YFastTrie:
        return yfast_build(self.boundary_keys, u=self.n + 1)


def build_ilf_index(text: Text) -> IlfIndex:
    """Build the O(r)-entry inverse-LF index for an arbitrary-alphabet text.

    The original text's SA and ISA (a live bundle's rows with no sort,
    else one sort with no LCP pass; the index is equal either way) give
    the terminated text's BWT and LF, and one boundary entry (a key and its
    ILF sample) is stored per BWT run of the terminated text.
    """
    n = text.n
    if n == 0:
        raise ValueError("cannot index an empty text")
    sa, isa = suffix_ranks(text)
    # Terminated BWT by 0-based rank: before[j] = T[j - 1], wrapping to T[n]
    # at j = 1, so bwt1[t] = BWT[t] for t >= 1; at the placeholder SA[0] = 0
    # it reads T[n], which precedes the terminator suffix.  The terminator
    # (None, unequal to every symbol; runs only compare equality, so the +1
    # shift is not applied) precedes the full text.
    before = (text.symbols[-1],) * 2 + text.symbols
    bwt1: list[int | None] = list(map(before.__getitem__, sa))
    r_original = 1 + sum(map(ne, bwt1[2:], bwt1[1:]))
    i_first = isa[1]
    bwt1[i_first] = None
    heads = [0, *compress(range(1, n + 1), map(ne, bwt1[1:], bwt1))]
    r_shifted = len(heads)
    if r_shifted > r_original + 3:
        raise AssertionError(
            f"terminating added {r_shifted - r_original} BWT runs, more than 3"
        )
    # LF at terminated rank t + 1 is ISA + 1 at the position before its
    # suffix start (n + 1 for the terminator); before position 1, the
    # placeholder ISA[0] = 0 gives the terminator its rank 1.
    pairs = sorted((isa[(sa[t] if t else n + 1) - 1] + 1, t + 1) for t in heads)
    boundary_keys = tuple(p for p, _ in pairs)
    ilf_at_boundary = tuple(i for _, i in pairs)
    return IlfIndex(
        n=n,
        i_first=i_first,
        i_last=isa[n],
        boundary_keys=boundary_keys,
        ilf_at_boundary=ilf_at_boundary,
        r_original=r_original,
        r_shifted=r_shifted,
    )


def ilf_query(index: IlfIndex, i: int) -> int:
    """Inverse LF at suffix-order position i of the original text.

    The lexicographically last suffix wraps to the first by definition;
    every other position is answered inside the terminated text, where the
    answer sits (j - p_k) steps after the nearest boundary p_k <= j, and is
    shifted back down by one.  p_k is found by one bisect of boundary_keys.
    """
    if not 1 <= i <= index.n:
        raise IndexError(f"position {i} outside [1..{index.n}]")
    if i == index.i_last:
        return index.i_first
    j = i + 1
    keys = index.boundary_keys
    # Strict predecessor, then a one-step successor equality adjustment so
    # that boundary positions use their own stored entry.
    k = bisect_left(keys, j)
    if k < len(keys) and keys[k] == j:
        k += 1
    return index.ilf_at_boundary[k - 1] + (j - keys[k - 1]) - 1

"""Predecessor and colored-predecessor queries over static integer sets.

A query Pred(A, x) asks for max {y in A : y < x}, with -infinity when no key
is smaller.  All structures here answer with the key's index i in [0..m]
(index 0 encodes -infinity, so the answer equals the number of keys strictly
below x), which also yields the colored answer as the index parity.

Three interchangeable flavors are provided:

* ``pred`` — binary search over the sorted key array (the reference oracle);
* ``yfast_build``/``yfast_pred`` — a y-fast trie: a bit-trie over bucket
  representatives stored as per-level prefix dictionaries, with sorted
  buckets of Theta(log u) keys at the bottom;
* ``smallset_build``/``smallset_pred`` — two bisects, one over the minima
  of small sorted blocks and one inside the chosen block.

No index searches a y-fast trie or a small set: every query bisects its
sorted keys.  They are criterion c09's tested models, and the views that
perfbench derives on first read (``IlfIndex.trie``, ``RuleStats.pred``).

Builds validate their input; queries accept any integer x.  All structures
are immutable after build, so queries are safe to run concurrently.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "ColoredSet",
    "SmallSet",
    "StaticKeySet",
    "YFastTrie",
    "pred",
    "pred_color",
    "smallset_build",
    "smallset_pred",
    "yfast_build",
    "yfast_pred",
]


def _checked_keys(keys: Sequence[int], u: int | None) -> tuple[int, ...]:
    out = tuple(keys)
    if not out:
        raise ValueError("key set must be nonempty")
    for a, b in zip(out, out[1:]):
        if a >= b:
            raise ValueError("keys must be strictly increasing")
    if out[0] < 0:
        raise ValueError("keys must be nonnegative")
    if u is not None and out[-1] > u:
        raise ValueError(f"key {out[-1]} exceeds the universe bound {u}")
    return out


@dataclass(frozen=True)
class StaticKeySet:
    """A sorted static set a_1 < ... < a_m of integers in [0..u].

    Index 0 is the -infinity sentinel; key a_i sits at index i.
    """

    keys: tuple[int, ...]
    u: int

    @staticmethod
    def build(keys: Sequence[int], u: int | None = None) -> "StaticKeySet":
        checked = _checked_keys(keys, u)
        return StaticKeySet(checked, checked[-1] if u is None else u)

    @property
    def m(self) -> int:
        return len(self.keys)

    def key_at(self, i: int) -> int:
        """Value of a_i for i in [1..m] (index 0 has no value)."""
        if not 1 <= i <= len(self.keys):
            raise IndexError(f"key index {i} outside [1..{len(self.keys)}]")
        return self.keys[i - 1]


@dataclass(frozen=True)
class ColoredSet:
    """A static key set whose colors are the implicit rank parities."""

    keyset: StaticKeySet


def pred(keyset: StaticKeySet, x: int) -> int:
    """Index of Pred(A, x) by binary search: the number of keys below x."""
    return bisect_left(keyset.keys, x)


def pred_color(colored: ColoredSet, x: int) -> int:
    """Parity of |{y in A : y < x}|."""
    return pred(colored.keyset, x) & 1


# ---------------------------------------------------------------------------
# Y-fast trie


@dataclass(frozen=True)
class YFastTrie:
    """Bucketed bit-trie for predecessor queries on [0..u].

    The sorted keys are cut into buckets of ``bucket_size`` consecutive keys;
    ``reps`` holds each bucket's minimum.  ``levels[d]`` maps every d-bit
    prefix of a representative to the (first, last) indices of the
    representatives carrying that prefix.  A query binary-searches the
    deepest level that still knows x's prefix, turns that into the number of
    representatives below x, and finishes inside a single bucket.
    """

    u: int
    width: int
    bucket_size: int
    buckets: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    levels: tuple[dict[int, tuple[int, int]], ...]

    @property
    def m(self) -> int:
        return sum(len(b) for b in self.buckets)


def yfast_build(keys: Sequence[int], u: int) -> YFastTrie:
    checked = _checked_keys(keys, u)
    if u < 0:
        raise ValueError("universe bound must be nonnegative")
    width = max(1, u.bit_length())
    bucket_size = max(1, width)
    buckets = tuple(
        checked[t : t + bucket_size] for t in range(0, len(checked), bucket_size)
    )
    reps = tuple(b[0] for b in buckets)
    # dict() keeps the last index zipped with each prefix, so zipping the
    # prefixes backwards keeps each one's first index, forwards its last.
    m = len(reps)
    levels: list[dict[int, tuple[int, int]]] = []
    for shift in range(width, -1, -1):  # level d = width - shift
        prefixes = [v >> shift for v in reps]
        first = dict(zip(reversed(prefixes), range(m - 1, -1, -1)))
        last = dict(zip(prefixes, range(m)))
        levels.append({prefix: (first[prefix], t) for prefix, t in last.items()})
    return YFastTrie(u, width, bucket_size, buckets, reps, tuple(levels))


def yfast_pred(trie: YFastTrie, x: int) -> int:
    """Same answer as pred(): the number of stored keys strictly below x."""
    if x <= trie.reps[0]:
        return 0
    if x > trie.u:
        return trie.m
    # Deepest level whose prefix dictionary knows x's prefix.  Level 0 always
    # matches, and matching is monotone in the depth.
    w = trie.width
    lo, hi = 0, w
    levels = trie.levels
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if (x >> (w - mid)) in levels[mid]:
            lo = mid
        else:
            hi = mid - 1
    d = lo
    first, last = levels[d][x >> (w - d)]
    if d == w:
        # x is itself a representative.
        below = first
    elif (x >> (w - d - 1)) & 1:
        # x continues with a 1-bit: every representative under this prefix
        # continues with a 0-bit, so all of them lie below x.
        below = last + 1
    else:
        # x continues with a 0-bit: every representative under this prefix
        # continues with a 1-bit, so none of them lie below x.
        below = first
    bucket = trie.buckets[below - 1]
    return (below - 1) * trie.bucket_size + bisect_left(bucket, x)


# ---------------------------------------------------------------------------
# Small-set flat search


@dataclass(frozen=True)
class SmallSet:
    """Two-level search for short key sequences.

    Keys are cut into fixed-size blocks; a query bisects the block minima,
    then the chosen block.  Correctness holds for any m.
    """

    block_size: int
    blocks: tuple[tuple[int, ...], ...]
    minima: tuple[int, ...]

    @property
    def m(self) -> int:
        return sum(len(b) for b in self.blocks)


def smallset_build(keys: Sequence[int]) -> SmallSet:
    checked = _checked_keys(keys, None)
    block_size = 8
    blocks = tuple(
        checked[t : t + block_size] for t in range(0, len(checked), block_size)
    )
    return SmallSet(block_size, blocks, tuple(b[0] for b in blocks))


def smallset_pred(s: SmallSet, x: int) -> int:
    """Same answer as pred(): the number of stored keys strictly below x."""
    t = bisect_left(s.minima, x)
    if t == 0:
        return 0
    return (t - 1) * s.block_size + bisect_left(s.blocks[t - 1], x)

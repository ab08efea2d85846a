"""Independent answers, measure checks and space accounting.

Nothing here calls the structure under test.  Query answers come from the
suffix-array bundle's plain arrays (ILF, LCP), a sparse table written here,
direct symbol comparison, and sorted text windows; measure values are
re-derived from the BWT row and from substring sets.  Integer counts are
read from the public fields of the built indexes.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Sequence


class SparseArgmin:
    """Leftmost argmin of ``values`` over 1-based ranges (b..e]."""

    def __init__(self, values: Sequence[int]) -> None:
        # values[0] is the placeholder of a 1-indexed array; level k holds,
        # at index t, the leftmost argmin of positions t+1 .. t+2^k.
        self.values = values
        level = list(range(1, len(values)))
        self.levels = [level]
        half = 1
        while 2 * half <= len(level):
            prev = self.levels[-1]
            self.levels.append(
                [a if values[a] <= values[b] else b for a, b in zip(prev, prev[half:])]
            )
            half *= 2

    def query(self, b: int, e: int) -> int:
        k = (e - b).bit_length() - 1
        left = self.levels[k][b]
        right = self.levels[k][e - (1 << k)]
        return left if self.values[left] <= self.values[right] else right


def pattern_ranges(data: bytes, patterns: Iterable[bytes]) -> dict[bytes, tuple[int, int]]:
    """Rank interval (beg, end) of each pattern among the text's suffixes.

    A suffix cut to the pattern's length sorts before, with, or after the
    pattern exactly as the whole suffix does, so sorting the windows of one
    length gives the suffix order for every pattern of that length.
    """
    by_length: dict[int, list[bytes]] = {}
    for p in set(patterns):
        by_length.setdefault(len(p), []).append(p)
    out = {}
    for length, group in by_length.items():
        windows = sorted(data[t : t + length] for t in range(len(data)))
        for p in group:
            out[p] = (bisect_left(windows, p), bisect_right(windows, p))
    return out


def bwt_runs(bwt: Sequence[int]) -> int:
    """Runs of the 1-indexed BWT row."""
    return 1 + sum(1 for a, b in zip(bwt[1:], bwt[2:]) if a != b)


def distinct_substrings(data: bytes, length: int) -> int:
    return len({data[t : t + length] for t in range(len(data) - length + 1)})


def check_measures(data: bytes, bwt: Sequence[int], report: dict) -> tuple[int, list[str]]:
    """Check one ``csq measures`` report against the text and its BWT row.

    Returns (checks made, descriptions of the failed ones).  delta is
    checked at its reported length and against d_l / l for every short l.
    """
    failures = []
    checks = 0

    def check(label: str, got: object, want: object) -> None:
        nonlocal checks
        checks += 1
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    n = len(data)
    check("n", report["n"], n)
    check("sigma", report["sigma"], len(set(data)))
    check("rl_runs", report["rl_runs"], 1 + sum(1 for a, b in zip(data, data[1:]) if a != b))
    check("bwt_runs", report["bwt_runs"], bwt_runs(bwt))
    num, den = (int(v) for v in report["delta"].split("/"))
    delta = Fraction(num, den)
    arg = report["delta_arg_len"]
    check("delta", delta, Fraction(distinct_substrings(data, arg), arg))
    for length in range(1, min(16, n) + 1):
        ratio = Fraction(distinct_substrings(data, length), length)
        # arg is the smallest length attaining the maximum.
        check(f"d_{length}/{length} below delta", ratio < delta or (ratio == delta and length >= arg), True)
    return checks, failures


def digest(record: object) -> str:
    """SHA-256 of a canonical JSON rendering of every recorded value."""
    blob = json.dumps(record, separators=(",", ":"), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Space accounting from public fields


def ilf_integers(index) -> int:
    """Integers an IlfIndex keeps: its boundary samples, the binary-search
    keys, and the y-fast trie's representatives, buckets and prefix
    entries (a key plus a (first, last) pair each)."""
    stored = len(index.boundary_keys) + len(index.ilf_at_boundary)
    stored += len(index.pred_keys.keys)
    if index.trie is not None:
        stored += len(index.trie.reps)
        stored += sum(len(bucket) for bucket in index.trie.buckets)
        stored += 3 * sum(len(level) for level in index.trie.levels)
    return stored


_RULE_ROWS = ("plen", "psum", "pmin", "ppos", "slen", "ssum", "smin", "spos", "mmin", "mpos")


def grammar_integers(index) -> int:
    """Slots an LcpRmqIndex keeps: grammar symbols and caches, every
    RuleStats row (placeholders included), the per-rule sparse tables and
    small-set blocks, and the n-entry ISA."""
    slg, stats = index.slg, index.stats
    stored = sum(len(rhs) for rhs in slg.rules) + len(slg.exp_lens) + len(slg.heights)
    stored += len(stats.exp_len) + len(stats.exp_sum) + len(stats.nt_min) + len(stats.nt_pos)
    for row in _RULE_ROWS:
        stored += sum(len(per_rule) for per_rule in getattr(stats, row))
    for rmq in stats.rmq:
        stored += len(rmq.values) + 2 * sum(len(level) for level in rmq.table)
    for small in stats.pred:
        stored += sum(len(block) for block in small.blocks) + len(small.minima)
    return stored + len(index.isa)


_BUNDLE_ROWS = ("sa", "isa", "lcp", "plcp", "bwt", "lf", "ilf", "phi", "inv_phi")


def gadget_integers(instance) -> int:
    """Integers a GadgetInstance keeps: input, text, bundle rows, anchors."""
    stored = len(instance.input) + instance.text.n
    stored += sum(len(getattr(instance.bundle, row)) for row in _BUNDLE_ROWS)
    for value in instance.anchors.values():
        stored += len(value) if isinstance(value, tuple) else 1
    return stored

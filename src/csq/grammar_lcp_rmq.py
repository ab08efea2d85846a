"""Straight-line grammars with prefix-sum statistics, LCP RMQ, and LCE queries.

A straight-line grammar (SLG) has one rule per nonterminal over terminals
(arbitrary integers) and nonterminal references, and derives exactly one
string, the expansion of its start symbol.  This module builds an SLG whose
expansion is the differential LCP array of a text (A[1] = LCP[1] and
A[i] = LCP[i] - LCP[i-1], so prefix sums of A reconstruct LCP), equips every
rule with the prefix/suffix/child statistics its queries read, and answers

* prefix_stats_query / suffix_stats_query — sum, minimum, and leftmost
  argmin of the partial sums of a prefix or suffix of a nonterminal's
  expansion, by descending O(height) rules with one bisect of the rule's
  plen row each, and one scan of at most l per-child minima for the argmin;
* interval_argmin_prefix_sum — leftmost argmin of A[1]+...+A[i] over an
  interval (b..e], by a left-suffix / middle-children / right-prefix
  decomposition at the deepest rule containing the interval, whose middle
  children are searched by one scan of at most l per-child minima;
* lcp_rmq — leftmost argmin of LCP over (b..e] (the same position, by the
  prefix-sum identity);
* lce_query — longest common extension of two suffixes, via two ISA
  lookups and one grammar descent that yields the LCP minimum over the
  rank interval along with its argmin.

The grammar is built by deterministic round-based pairing of adjacent
symbols (memoizing distinct pairs, keyed by terminals in the first round
and by rule ids after it), then widened by cutting, from the
start symbol down, each reachable rule's parse tree at depth k, which caps
right-hand sides at l = 2*2^k symbols and divides the height by k.
Terminal values may be any integers; all sums use exact integer arithmetic.

Rules are numbered children first, so a rule refers only to earlier rules
(the textbook straight-line program); pairing makes its rules bottom-up and
widening keeps its survivors in order.  make_slg, the one grammar
constructor, checks that numbering and derives every expansion length and
height in one forward pass, so each grammar is derived once, and the
statistics and the builder read lengths and heights off it.  The builder's
contracts raise AssertionError explicitly, so they hold under ``python
-O``: the widened height is at most ceil(h/k) + 1 for a pairing grammar
of height h, no right-hand side exceeds l symbols, and the start symbol
expands to n symbols.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import ceil, log2
from operator import sub
from typing import Sequence, Union

from .predecessor import SmallSet, smallset_build
from .text_core import Text, bundle_of

__all__ = [
    "LcpRmqIndex",
    "Nt",
    "RuleStats",
    "Slg",
    "build_lcp_rmq_index",
    "build_rule_stats",
    "check_epsilon",
    "expand",
    "interval_argmin_prefix_sum",
    "lce_query",
    "lcp_rmq",
    "make_slg",
    "prefix_stats_query",
    "suffix_stats_query",
    "widen_slg",
]


@dataclass(frozen=True)
class Nt:
    """A reference to nonterminal `id` inside a rule right-hand side."""

    id: int


Atom = Union[int, "Nt"]


@dataclass(frozen=True)
class Slg:
    """A straight-line grammar: rules[x] is the right-hand side of x.

    Rules are numbered children first: an Nt(a) inside rules[x] has a < x,
    so every cycle is ruled out and one forward pass derives the grammar.
    exp_lens and heights cache, per nonterminal, the expansion length and
    the parse-tree height (a rule of terminals has height 1).  Construct
    through make_slg, which validates the numbering and fills the caches.
    """

    rules: tuple[tuple[Atom, ...], ...]
    start: int
    exp_lens: tuple[int, ...]
    heights: tuple[int, ...]


def _derive(rules: Sequence[Sequence[Atom]], start: int) -> tuple[list[int], list[int]]:
    """Validate a children-first rule table in one forward pass and return
    every nonterminal's expansion length and parse-tree height."""
    L = len(rules)
    if not 0 <= start < L:
        raise ValueError(f"start symbol {start} has no rule")
    exp_lens: list[int] = []
    heights: list[int] = []
    for x, rhs in enumerate(rules):
        total = best = 0
        for a in rhs:
            if isinstance(a, Nt):
                y = a.id
                if not 0 <= y < x:
                    kind = "itself" if y == x else "a later rule" if x < y < L else "a missing rule"
                    raise ValueError(f"rule {x} references {kind}, nonterminal {y}")
                total += exp_lens[y]
                if heights[y] > best:
                    best = heights[y]
            else:
                total += 1
        exp_lens.append(total)
        heights.append(1 + best)
    return exp_lens, heights


def _size(slg: Slg) -> int:
    """Sum over rules of max(|rhs|, 1)."""
    return sum(max(len(r), 1) for r in slg.rules)


def make_slg(rules: Sequence[Sequence[Atom]], start: int) -> Slg:
    """The one grammar constructor: freeze a dense rule table, check that it
    is numbered children first, and attach the expansion-length and height
    caches.  Raises ValueError naming the rule and the referenced id on a
    reference to the rule itself, to a later rule or to a missing rule."""
    frozen = tuple(tuple(r) for r in rules)
    exp_lens, heights = _derive(frozen, start)
    return Slg(frozen, start, tuple(exp_lens), tuple(heights))


def expand(slg: Slg, nonterminal: int) -> list[int]:
    """The string of terminals derived from the given nonterminal."""
    if not 0 <= nonterminal < len(slg.rules):
        raise ValueError(f"no rule for nonterminal {nonterminal}")
    out: list[int] = []
    stack: list[Atom] = [Nt(nonterminal)]
    while stack:
        a = stack.pop()
        if isinstance(a, Nt):
            stack.extend(reversed(slg.rules[a.id]))
        else:
            out.append(a)
    return out


# ---------------------------------------------------------------------------
# Rule statistics


@dataclass(frozen=True)
class RuleStats:
    """Per-rule prefix/suffix/child statistics of an SLG's expansions.

    For a rule x with right-hand side e_1..e_L, position delta indexes the
    1-based arrays (index 0 is a placeholder):

    * plen/psum[delta], delta in [1..L+1]: length and sum of the expansion
      of e_1..e_{delta-1};
    * pmin[delta]: minimum of the partial sums inside that prefix region
      (None marks the empty region at delta = 1);
    * smin[delta], delta in [1..L]: the same minimum for the suffix region
      e_{delta+1}..e_L, counted from its start (None sentinel at delta = L);
    * mmin[delta], delta in [1..L]: minimum partial sum of the prefix of the
      full expansion ending inside e_delta; no row keeps an argmin, and _at
      finds one by a scan of this row;
    * pred[x]: a small-set predecessor over plen[1..L+1], which no query
      reads; unlike the five rows, it is derived on first read.

    exp_len/exp_sum/nt_min/nt_pos aggregate each nonterminal's full
    expansion: length, sum, minimum partial sum, leftmost argmin.
    """

    slg: Slg
    exp_len: tuple[int, ...]
    exp_sum: tuple[int, ...]
    nt_min: tuple[int, ...]
    nt_pos: tuple[int, ...]
    plen: tuple[tuple[int | None, ...], ...]
    psum: tuple[tuple[int | None, ...], ...]
    pmin: tuple[tuple[int | None, ...], ...]
    smin: tuple[tuple[int | None, ...], ...]
    mmin: tuple[tuple[int | None, ...], ...]
    # Always empty: no query keeps argmin rows, suffix length or sum rows,
    # or per-rule RMQ tables.  The fields stay only because perfbench's
    # space counter iterates them; they go when perfbench reads public
    # entry points (ROADMAP item 1).
    ppos: tuple = ()
    spos: tuple = ()
    slen: tuple = ()
    ssum: tuple = ()
    mpos: tuple = ()
    rmq: tuple = ()

    # No query reads pred: a descent bisects the plen row, whose entries
    # 1..L+1 are exactly these keys.  perfbench's space count iterates it
    # and its traced head-to-head probes it, so it is built from the plen
    # rows, key checks and all, on first read.  It goes with ROADMAP item 1.
    @cached_property
    def pred(self) -> tuple[SmallSet, ...]:
        return tuple(smallset_build(row[1:]) for row in self.plen)


def build_rule_stats(slg: Slg) -> RuleStats:
    """Compute all per-rule statistics in rule order, which is children
    before parents; exp_len is the grammar's own exp_lens tuple.

    Every rule must have a nonempty right-hand side (so every expansion is
    nonempty and the boundary keys are strictly increasing).
    """
    rules = slg.rules
    exp_len = slg.exp_lens
    exp_sum = [0] * len(rules)
    nt_min = [0] * len(rules)
    nt_pos = [0] * len(rules)
    rows: list[tuple] = [()] * len(rules)  # rule x's per-rule RuleStats fields
    for x, rhs in enumerate(rules):
        if not rhs:
            raise ValueError(f"nonterminal {x} has an empty right-hand side")
        plen: list = [None, 0]
        psum: list = [None, 0]
        pmin: list = [None, None]
        mmin: list = [None]
        ln = sm = 0  # length and sum of the children passed
        low = low_pos = None  # their minimum partial sum and its leftmost argmin
        for a in rhs:
            if isinstance(a, Nt):
                v, pos = sm + nt_min[a.id], ln + nt_pos[a.id]
                ln += exp_len[a.id]
                sm += exp_sum[a.id]
            else:
                v, pos = sm + a, ln + 1
                ln += 1
                sm += a
            if low is None or v < low:
                low, low_pos = v, pos
            mmin.append(v)
            pmin.append(low)
            plen.append(ln)
            psum.append(sm)
        # smin[d] = min(mmin[d+1..L]) - psum[d+1], a running minimum from the right
        smin: list = [None] * len(mmin)
        right = mmin[-1]
        for d in range(len(rhs) - 1, 0, -1):
            smin[d] = right - psum[d + 1]
            if mmin[d] < right:
                right = mmin[d]
        exp_sum[x], nt_min[x], nt_pos[x] = sm, low, low_pos
        rows[x] = tuple(map(tuple, (plen, psum, pmin, smin, mmin)))
    columns = tuple(zip(*rows)) or ((),) * 5
    return RuleStats(slg, exp_len, tuple(exp_sum), tuple(nt_min), tuple(nt_pos), *columns)


# ---------------------------------------------------------------------------
# Statistics queries


def _at(stats: RuleStats, where: tuple) -> int:
    """The argmin a descent names as (offset, y, v, lo), v the minimum over
    children lo.. of y: offset, plus (unless y is None) the offset of the
    first such child whose mmin entry is v and its own argmin (1 if terminal)."""
    offset, y, v, lo = where
    if y is None:
        return offset
    t = stats.mmin[y].index(v, lo)
    a = stats.slg.rules[y][t - 1]
    return offset + stats.plen[y][t] + (stats.nt_pos[a.id] if isinstance(a, Nt) else 1)


def prefix_stats_query(stats: RuleStats, x: int, p: int) -> tuple[int, int, int]:
    """(sum, min, argmin) of the partial sums of B = exp(x)[1..p]:
    (B[1]+...+B[p], min over t of B[1]+...+B[t], smallest minimizing t)."""
    if not 0 <= x < len(stats.exp_len):
        raise ValueError(f"no rule for nonterminal {x}")
    if not 1 <= p <= stats.exp_len[x]:
        raise ValueError(f"prefix length {p} outside [1..{stats.exp_len[x]}]")
    total, low, where = _prefix_min(stats, x, p)
    return total, low, _at(stats, where)


def suffix_stats_query(stats: RuleStats, x: int, p: int) -> tuple[int, int, int]:
    """(sum, min, argmin) of the partial sums of C = exp(x)[m-p+1..m]:
    (C[1]+...+C[p], min over t of C[1]+...+C[t], smallest minimizing t)."""
    if not 0 <= x < len(stats.exp_len):
        raise ValueError(f"no rule for nonterminal {x}")
    if not 1 <= p <= stats.exp_len[x]:
        raise ValueError(f"suffix length {p} outside [1..{stats.exp_len[x]}]")
    total, low, where = _suffix_min(stats, x, p)
    return total, low, _at(stats, where)


def _prefix_min(stats: RuleStats, x: int, p: int) -> tuple[int, int, tuple]:
    """prefix_stats_query's sum and min, and its argmin as _at reads it.

    One rule descent per level, each localizing p with one bisect of the
    rule's plen row, keeps the level whose prefix region holds the best
    minimum and derives no argmin; earlier levels lie left and win ties.
    """
    rules, plen, psum, pmin = stats.slg.rules, stats.plen, stats.psum, stats.pmin
    acc_sum = 0  # sum of the full regions above the current level
    acc_len = 0  # their total length
    best_v: int | None = None
    where: tuple = ()
    cur, p_cur = x, p
    while True:
        d = bisect_left(plen[cur], p_cur, 1) - 1
        pm = pmin[cur][d]
        if pm is not None and (best_v is None or acc_sum + pm < best_v):
            best_v = acc_sum + pm
            where = (acc_len, cur, pm, 1)
        acc_sum += psum[cur][d]
        a = rules[cur][d - 1]
        if not isinstance(a, Nt):
            break
        acc_len += plen[cur][d]
        p_cur -= plen[cur][d]
        cur = a.id
    total = acc_sum + a
    if best_v is None or total < best_v:
        return total, total, (p, None, 0, 0)
    return total, best_v, where


def _suffix_min(stats: RuleStats, x: int, p: int) -> tuple[int, int, tuple]:
    """suffix_stats_query's sum and min, and its argmin as _at reads it.

    One rule descent per level, as in _prefix_min, keeps the best partial
    sum of exp(x) from its start over each level's suffix region.  A deeper
    region lies further left, and the leaf C[1] leftmost of all, so later
    candidates win ties; the sum of exp(x) before C, known at the leaf, is
    subtracted last.
    """
    rules, plen, psum, smin = stats.slg.rules, stats.plen, stats.psum, stats.smin
    acc_sum = 0  # sum of exp(x) before the current rule's expansion
    best_v: int | None = None
    where: tuple = ()
    cur, p_cur = x, stats.exp_len[x] - p + 1  # p_cur: where C starts in exp(cur)
    while True:
        d = bisect_left(plen[cur], p_cur, 1) - 1
        sm = smin[cur][d]
        if sm is not None:
            v = psum[cur][d + 1] + sm
            if best_v is None or acc_sum + v <= best_v:
                best_v = acc_sum + v
                where = (1 - p_cur, cur, v, d + 1)
        acc_sum += psum[cur][d]
        a = rules[cur][d - 1]
        if not isinstance(a, Nt):
            break
        p_cur -= plen[cur][d]
        cur = a.id
    v = acc_sum + a  # acc_sum is now the sum of exp(x) before C
    if best_v is None or v <= best_v:
        best_v, where = v, (1, None, 0, 0)
    return stats.exp_sum[x] - acc_sum, best_v - acc_sum, where


def _interval_min(stats: RuleStats, b: int, e: int) -> tuple[int, int, tuple]:
    """(min, where) of A[1]+...+A[i] over i in (b..e], A = start's
    expansion; the argmin is b + _at(stats, where), which an LCE never
    derives.

    One descent: each level localizes b with one bisect of the rule's plen
    row, and the interval stays inside child i exactly when e < plen[i+1].
    The rule where it splits is bisected once more, for e, and the interval
    becomes a suffix of the left child, full middle children and a prefix of
    the right child, combined left to right with strict-inequality updates.
    The middle children's minimum is one scan of a slice of the rule's mmin
    row, at most l entries.  The prefix sums of the regions passed on the
    way down give A[1]+...+A[b], which turns the best relative minimum into
    the minimum itself.
    """
    start = stats.slg.start
    n = stats.exp_len[start]
    if not 0 <= b < e <= n:
        raise ValueError(f"empty or invalid range ({b}..{e}] over {n} positions")
    rules, plen, psum = stats.slg.rules, stats.plen, stats.psum
    x, b1, e1 = start, b, e
    base = 0  # sum of A over the positions before x's expansion
    while True:
        plen_x = plen[x]
        i = bisect_left(plen_x, b1, 1) - 1
        if i == 0 or e1 >= plen_x[i + 1]:
            break
        # The whole interval lies inside child i, which must expand to more
        # than one symbol and hence is a nonterminal.
        b1 -= plen_x[i]
        e1 -= plen_x[i]
        base += psum[x][i]
        x = rules[x][i - 1].id
    j = bisect_left(plen_x, e1 + 1, 1) - 1
    psum_x = psum[x]
    p_left = plen_x[i + 1] - b1
    p_mid = plen_x[j] - plen_x[i + 1]
    p_right = e1 - plen_x[j]
    best_v: int | None = None
    where: tuple = ()  # positions counted from b
    acc_sum = 0
    acc_len = 0
    if p_left > 0:
        a = rules[x][i - 1]
        if isinstance(a, Nt):
            s_l, best_v, where = _suffix_min(stats, a.id, p_left)
        else:
            s_l, best_v, where = a, a, (1, None, 0, 0)
        acc_sum, acc_len = s_l, p_left
    before_b = base + psum_x[i + 1] - acc_sum  # A[1]+...+A[b]
    if p_mid > 0:
        v_m = min(stats.mmin[x][i + 1 : j])
        if best_v is None or acc_sum + v_m - psum_x[i + 1] < best_v:
            best_v = acc_sum + v_m - psum_x[i + 1]
            where = (acc_len - plen_x[i + 1], x, v_m, i + 1)
        acc_sum += psum_x[j] - psum_x[i + 1]
        acc_len += p_mid
    if p_right > 0:
        a = rules[x][j - 1]
        if isinstance(a, Nt):
            _, v_r, where_r = _prefix_min(stats, a.id, p_right)
        else:
            v_r, where_r = a, (1, None, 0, 0)
        if best_v is None or acc_sum + v_r < best_v:
            best_v = acc_sum + v_r
            where = (acc_len + where_r[0], *where_r[1:])
    return before_b + best_v, where


def interval_argmin_prefix_sum(stats: RuleStats, b: int, e: int) -> int:
    """Smallest i in (b..e] minimizing A[1]+...+A[i], A = start's expansion,
    by the one-descent search of _interval_min."""
    return b + _at(stats, _interval_min(stats, b, e)[1])


# ---------------------------------------------------------------------------
# Differential LCP grammar


def _pairing_slp(values: Sequence[int]) -> tuple[list[tuple[Atom, ...]], int]:
    """Round-based pairing: each round replaces adjacent pairs by memoized
    nonterminals, carrying an odd element; height is logarithmic.

    A round of m > 1 symbols leaves ceil(m/2), so the last round pairs
    exactly two symbols and the last pair made is the root.

    Round 1 pairs terminals.  Later rounds pair rule ids under one memo of
    their own, since an id pair and a terminal pair may hold the same two
    integers; a rule is built from one shared Nt per id.  A terminal left
    over by round 1 rides along as id -1, which no rule has, until it is
    paired once; nts[-1] is that terminal."""
    if len(values) == 1:
        return [(values[0],)], 0
    memo: dict[tuple[int, int], int] = {}
    seq = [memo.setdefault(pair, len(memo)) for pair in zip(values[::2], values[1::2])]
    rules: list[tuple[Atom, ...]] = list(memo)
    base = len(rules)
    if len(values) % 2:
        seq.append(-1)
    memo = {}
    while len(seq) > 1:
        odd = seq[-1:] if len(seq) % 2 else []
        seq = [memo.setdefault(pair, base + len(memo)) for pair in zip(seq[::2], seq[1::2])] + odd
    nts: list[Atom] = [Nt(x) for x in range(base + len(memo))]
    nts.append(values[-1])  # id -1, the carried terminal
    rules += [(nts[a], nts[b]) for a, b in memo]
    return rules, seq[0]


def _depth_cut(rules: Sequence[tuple[Atom, ...]], rhs: tuple[Atom, ...], depth: int) -> tuple[Atom, ...]:
    """The parse-tree cut at the given depth below a right-hand side,
    expanded one level per pass."""
    cut = rhs
    for _ in range(depth):
        cut = [b for a in cut for b in (rules[a.id] if isinstance(a, Nt) else (a,))]
    return tuple(cut)


def widen_slg(slg: Slg, k: int) -> Slg:
    """Replace every reachable rule by its depth-k parse-tree cut.

    Rules are cut as they are reached from the start symbol, so rules that
    only the cuts bypass are never cut; the survivors keep their relative
    order, so a children-first grammar widens to a children-first grammar.
    Right-hand sides grow by at most 2^k symbols each while the height
    drops to about height/k; the expansion is unchanged.
    """
    if k < 1:
        raise ValueError("widening depth must be at least 1")
    cut: dict[int, tuple[Atom, ...]] = {}
    pending = [slg.start]
    while pending:
        x = pending.pop()
        if x not in cut:
            cut[x] = rhs = _depth_cut(slg.rules, slg.rules[x], k)
            pending.extend(a.id for a in rhs if isinstance(a, Nt) and a.id not in cut)
    keep = sorted(cut)
    nts = {old: Nt(new) for new, old in enumerate(keep)}
    rules = [tuple(nts[a.id] if isinstance(a, Nt) else a for a in cut[old]) for old in keep]
    return make_slg(rules, nts[slg.start].id)


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless 0 < epsilon < 1, the widening parameter's
    domain; the command line calls it before any sort."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")


def _widening_depth(n: int, epsilon: float) -> int:
    check_epsilon(epsilon)
    if n < 4:
        return 1
    return max(1, ceil(epsilon * log2(log2(n))))


@dataclass(frozen=True)
class LcpRmqIndex:
    """Grammar-backed LCP RMQ / LCE structure for one text.

    Holds the widened grammar and its statistics, the text's ISA for LCE
    queries (the bundle's own ``array('i')`` row), and build metadata (text
    length n, widening depth k, rhs bound ell, grammar size/height before
    and after widening) for reporting.  The text itself is not kept: no
    query reads it.
    """

    slg: Slg
    stats: RuleStats
    isa: array
    n: int
    k_widen: int
    ell: int
    slp_size: int
    slp_height: int
    size: int
    height: int

    @property
    def stored_integers(self) -> int:
        """Slots the index keeps: the grammar's symbols and caches, the five
        plen, psum, pmin, smin and mmin rows of RuleStats (placeholders
        included), the ISA, and the blocks and minima of the pred view,
        which this count derives.  The ISA has an entry per text position,
        so the index is O(n) however small the grammar is."""
        slg, stats = self.slg, self.stats
        stored = sum(map(len, slg.rules)) + len(slg.exp_lens) + len(slg.heights)
        stored += 4 * len(stats.exp_len)  # exp_len, exp_sum, nt_min, nt_pos
        rows = (stats.plen, stats.psum, stats.pmin, stats.smin, stats.mmin)
        stored += sum(len(row) for per_rule in rows for row in per_rule)
        stored += sum(len(s.minima) + sum(map(len, s.blocks)) for s in stats.pred)
        return stored + len(self.isa)


def build_lcp_rmq_index(text: Text, epsilon: float = 0.5) -> LcpRmqIndex:
    """Grammar (with statistics) expanding to the text's differential LCP
    array, plus the text's ISA for LCE queries.

    The pairing construction is widened by k = ceil(epsilon * log2 log2 n)
    levels, so every right-hand side has at most l = 2*2^k symbols.  LCP and
    ISA come from text_core.bundle_of: a live bundle's rows with no sort,
    else one sort's; the index is equal either way.
    """
    n = text.n
    if n == 0:
        raise ValueError("cannot index an empty text")
    k = _widening_depth(n, epsilon)
    bundle = bundle_of(text)
    isa, lcp = bundle.isa, bundle.lcp
    del bundle  # a cold call frees its SA here, before the grammar is built
    diff = list(map(sub, lcp[1:], lcp))  # LCP[i] - LCP[i-1]; the pad LCP[0] is 0
    slp = make_slg(*_pairing_slp(diff))
    widened = widen_slg(slp, k)
    slp_height = slp.heights[slp.start]
    height = widened.heights[widened.start]
    if height > -(-slp_height // k) + 1:
        raise AssertionError(f"widened height {height} exceeds ceil({slp_height}/{k}) + 1")
    ell = 2 * (1 << k)
    widest = max(len(r) for r in widened.rules)
    if widest > ell:
        raise AssertionError(f"a widened rule has {widest} symbols, over the bound {ell}")
    stats = build_rule_stats(widened)
    if stats.exp_len[widened.start] != n:
        raise AssertionError(
            f"the grammar expands to {stats.exp_len[widened.start]} symbols, not {n}"
        )
    return LcpRmqIndex(
        slg=widened,
        stats=stats,
        isa=isa,
        n=n,
        k_widen=k,
        ell=ell,
        slp_size=_size(slp),
        slp_height=slp_height,
        size=_size(widened),
        height=height,
    )


def lcp_rmq(index: LcpRmqIndex, b: int, e: int) -> int:
    """Smallest position of the minimum of LCP over (b..e].

    LCP[i] is the prefix sum A[1]+...+A[i] of the differential array, so
    the interval argmin over prefix sums is the LCP argmin.
    """
    return interval_argmin_prefix_sum(index.stats, b, e)


def lce_query(index: LcpRmqIndex, i: int, j: int) -> int:
    """Length of the longest common prefix of the suffixes at i and j.

    Two ISA lookups give the ranks p < q, and the LCE is the minimum of LCP
    over (p..q], read off the same grammar descent that finds its argmin.
    """
    n = index.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"positions ({i}, {j}) outside [1..{n}]")
    if i == j:
        return n - i + 1
    p, q = index.isa[i], index.isa[j]
    if p > q:
        p, q = q, p
    return _interval_min(index.stats, p, q)[0]

"""Reduction gadgets: texts whose index arrays answer abstract queries.

Each gadget encodes a permutation or a sorted integer set into a
binary text so that a single row of the text's suffix-array bundle (LCP,
ISA, BWT, PLCP, Phi, ILF, or inverse Phi) answers selection, counting,
or predecessor queries about the encoded input through a closed-form
index mapping.  ``verify_reduction`` replays every in-contract query
through both the mapping and the direct definition and reports
disagreements, together with run-length and LZ-like phrase-count
certificates of the gadget text's compressibility.

One table, ``_TABLE``, holds what each kind is: its input family and
check, its text's spelling and anchor derivation, its closed-form text
length and run count, its query replay, and its certificate.
``build_gadget`` is the one builder, for every kind.  The closed-form
contracts raise AssertionError explicitly, so they hold under
``python -O``.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterator, Mapping, Sequence

from .measures import (
    LZFactorization,
    RunLengthEncoding,
    lz77_from_bundle,
    repeat_factorization,
    run_length_encode,
    validate_lz_like,
)
from .text_core import SuffixArrayBundle, Text, build_bundle, pattern_range

EXHAUSTIVE_BUDGET = 10**6
"""The most inputs ``instance_inputs`` replays in either mode: the most
``all_inputs`` enumerates, and the most trials it draws."""

TEXT_LENGTH_BUDGET = 10**6
"""The longest gadget text ``instance_inputs`` lets a size make, and the
longest text the command line loads."""


@dataclass(frozen=True)
class GadgetInstance:
    """A constructed gadget text with the anchors its queries read.

    ``input`` is the encoded object (a permutation, a sorted set, or the
    symbols of an original text), ``text`` the constructed gadget text,
    ``anchors`` the named integers the query mappings use (suffix-array
    rank anchors, offsets, and sizes), and ``bundle`` the gadget text's
    suffix-array bundle.
    """

    kind: str
    input: tuple[int, ...]
    text: Text
    anchors: Mapping[str, object]
    bundle: SuffixArrayBundle


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of replaying a gadget's query domain against definitions.

    ``instances``, ``query_count`` and ``mismatch_count`` aggregate when
    reports are merged; the size fields then describe the largest
    instance merged.  ``first_mismatch`` holds ``(query, got, want)``
    for the earliest disagreement, if any.
    """

    kind: str
    instances: int
    query_count: int
    mismatch_count: int
    text_length: int
    rl_runs: int
    lz_phrases: int
    cert_phrases: int
    cert_bound: int
    anchors_consistent: bool
    first_mismatch: tuple | None

    @property
    def ok(self) -> bool:
        return self.mismatch_count == 0 and self.anchors_consistent


def merge_reports(a: ReductionReport, b: ReductionReport) -> ReductionReport:
    """Combine two reports of the same kind; associative."""
    if a.kind != b.kind:
        raise ValueError(f"cannot merge reports of kinds {a.kind!r} and {b.kind!r}")
    return ReductionReport(
        kind=a.kind,
        instances=a.instances + b.instances,
        query_count=a.query_count + b.query_count,
        mismatch_count=a.mismatch_count + b.mismatch_count,
        text_length=max(a.text_length, b.text_length),
        rl_runs=max(a.rl_runs, b.rl_runs),
        lz_phrases=max(a.lz_phrases, b.lz_phrases),
        cert_phrases=max(a.cert_phrases, b.cert_phrases),
        cert_bound=max(a.cert_bound, b.cert_bound),
        anchors_consistent=a.anchors_consistent and b.anchors_consistent,
        first_mismatch=(
            a.first_mismatch if a.first_mismatch is not None else b.first_mismatch
        ),
    )


# ---------------------------------------------------------------------------
# Input validation, binary block codes, and repeated-unit texts


def _checked_permutation(values: Sequence[int]) -> tuple[int, ...]:
    perm = tuple(int(v) for v in values)
    n = len(perm)
    if n == 0:
        raise ValueError("permutation must be nonempty")
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"input is not a permutation of 1..{n}")
    return perm


def _checked_symbols(values: Sequence[int]) -> tuple[int, ...]:
    symbols = tuple(int(v) for v in values)
    if not symbols:
        raise ValueError("cannot transform an empty text")
    if min(symbols) < 0:
        raise ValueError("symbols must be non-negative integers")
    return symbols


def _checked_sorted_set(values: Sequence[int]) -> tuple[int, ...]:
    keys = tuple(int(v) for v in values)
    m = len(keys)
    if m == 0:
        raise ValueError("set must be nonempty")
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise ValueError("set elements must be strictly increasing")
    if keys[0] < 1 or keys[-1] > m * m:
        raise ValueError(f"set elements must lie in [1..{m * m}]")
    return keys


def _bits(x: int, k: int) -> list[int]:
    """Big-endian binary digits of x, zero-padded to width k."""
    return [(x >> (k - 1 - t)) & 1 for t in range(k)]


def _ebin(x: int, k: int) -> list[int]:
    """Framed binary code 1^{k+1} 0 bits_k(x) 0 of length 2k + 3."""
    return [1] * (k + 1) + [0] + _bits(x, k) + [0]


def _owned_counts(keys: Sequence[int]) -> list[int]:
    """For i in 0..m, how many x in [1..m^2] have exactly i elements below them."""
    m = len(keys)
    bounds = (0,) + tuple(keys) + (m * m,)
    return [bounds[i + 1] - bounds[i] for i in range(m + 1)]


Blocks = list[tuple[Sequence[int], int]]


def _spell(blocks: Blocks) -> list[int]:
    """The text of (unit, copies) blocks: each unit repeated copies times."""
    symbols: list[int] = []
    for unit, copies in blocks:
        symbols += list(unit) * copies
    return symbols


def _expect_kind(gadget: GadgetInstance, kind: str) -> None:
    if gadget.kind != kind:
        raise ValueError(f"expected a {kind} gadget, got {gadget.kind}")


# ---------------------------------------------------------------------------
# Range selection via LCP and range counting via ISA


def _threshold_blocks(perm: tuple[int, ...]) -> list[int]:
    """Encode a permutation so LCP entries answer range selection.

    The text concatenates a block 0^{A[i]} 1^i per position i and the
    separator 0^{n+1} 1^{n+1}.  For a threshold v the suffixes starting
    at block zeros with A[i] >= v occupy consecutive suffix-array ranks
    right after the anchor R[v] = RangeBeg(0^v 1), ordered by i, and the
    LCP entry r steps in reveals the r-th qualifying index.
    """
    n = len(perm)
    symbols: list[int] = []
    for i, a in enumerate(perm, start=1):
        symbols += [0] * a + [1] * i
    return symbols + [0] * (n + 1) + [1] * (n + 1)


def _threshold_anchors(perm: tuple[int, ...], text: Text, sa: Sequence[int]) -> dict[str, object]:
    """n and the rank anchors R[v] = RangeBeg(0^v 1), with R[0] = 0."""
    n = len(perm)
    ranks = tuple(pattern_range(text, sa, [0] * v + [1]).range_beg for v in range(1, n + 1))
    return {"n": n, "R": (0,) + ranks}


def select_via_lcp(gadget: GadgetInstance, v: int, r: int) -> int:
    """The r-th smallest index i with A[i] >= v, read off one LCP entry.

    A threshold of v = 0 is answered as v = 1: every index qualifies
    either way.
    """
    _expect_kind(gadget, "lcp-select")
    n = gadget.anchors["n"]
    if v == 0:
        v = 1
    if not 1 <= v <= n:
        raise ValueError(f"threshold v={v} out of [0..{n}]")
    count = n - v + 1
    if not 1 <= r <= count:
        raise ValueError(f"rank r={r} out of [1..{count}] for threshold v={v}")
    anchor = gadget.anchors["R"][v]
    return gadget.bundle.lcp[anchor + r + 1] - v


def _isa_count_symbols(perm: tuple[int, ...]) -> list[int]:
    """Encode a permutation so ISA entries answer range counting.

    The text extends the range-selection encoding with a third section
    of blocks 0^{n+1} 1^i whose suffixes interleave, in suffix-array
    order, with the first section's block suffixes; the rank of a probe
    suffix therefore counts the qualifying positions in a prefix.
    """
    n = len(perm)
    symbols = _threshold_blocks(perm)
    for i in range(1, n + 2):
        symbols += [0] * (n + 1) + [1] * i
    return symbols


def count_via_isa(gadget: GadgetInstance, j: int, v: int) -> int:
    """#{i <= j : A[i] >= v}, read off one ISA entry.

    Thresholds outside [1..n] short-circuit: v < 1 counts every i <= j
    and v > n counts none.
    """
    _expect_kind(gadget, "isa-count")
    n = gadget.anchors["n"]
    if not 0 <= j <= n:
        raise ValueError(f"prefix end j={j} out of [0..{n}]")
    if v < 1:
        return j
    if v > n:
        return 0
    offset = j * (n + 1) + j * (j + 1) // 2 + (n + 2 - v)
    probe = gadget.anchors["ell1"] + gadget.anchors["ell2"] + offset
    return gadget.bundle.isa[probe] - (gadget.anchors["R"][v] + j + 1)


# ---------------------------------------------------------------------------
# Colored predecessor via BWT


def _code_anchors(keys: tuple[int, ...], text: Text, sa: Sequence[int], **heads: int) -> dict:
    """m, the code width k, and per name the rank anchor RangeBeg(1^{k+head} 0)."""
    m = len(keys)
    k = m.bit_length()
    anchors: dict[str, object] = {"m": m, "k": k}
    for name, head in heads.items():
        anchors[name] = pattern_range(text, sa, [1] * (k + head) + [0]).range_beg
    return anchors


def _bwt_color_blocks(keys: tuple[int, ...]) -> Blocks:
    """Encode a sorted m-set from [1..m^2] so BWT symbols answer
    colored-predecessor queries.

    Every universe position x carries one framed binary code naming the
    number of set elements below it, prefixed by that number's parity
    bit; the BWT groups the codes so the symbol preceding the x-th copy
    is exactly the parity of the predecessor's rank.  The blocks are, per
    rank i, the parity bit and framed code of i, once per owned x.
    """
    k = len(keys).bit_length()
    return [([i % 2] + _ebin(i, k), c) for i, c in enumerate(_owned_counts(keys))]


def color_via_bwt(gadget: GadgetInstance, x: int) -> int:
    """Parity of #{a in A : a < x}, read off one BWT symbol."""
    _expect_kind(gadget, "bwt-color")
    m = gadget.anchors["m"]
    if x < 1:
        return 0
    if x > m * m:
        return m % 2
    return gadget.bundle.bwt[gadget.anchors["b"] + x]


# ---------------------------------------------------------------------------
# Predecessor via PLCP, Phi, and ILF


def _plcp_pred_symbols(keys: tuple[int, ...]) -> list[int]:
    """Encode a sorted m-set from [1..m^2] so PLCP entries answer
    predecessor queries.

    Blocks 0^{a_i} 1^{m-i+2} carry the set elements in their zero-run
    lengths; probing the tail section's zeros measures, through one
    PLCP entry, how many elements lie below the query.
    """
    m = len(keys)
    symbols: list[int] = []
    for i, a in enumerate(keys, start=1):
        symbols += [0] * a + [1] * (m - i + 2)
    return symbols + [0] * (m * m + 1) + [1] + [0] * (m * m) + [1] * (m + 2)


def _phi_pred_symbols(keys: tuple[int, ...]) -> list[int]:
    """Encode a sorted m-set from [1..m^2] so Phi entries answer
    predecessor queries.

    Blocks 0^{a_i} 1^{m^2-a_i+2} put each element's block suffixes in a
    band of positions of width m^2 + 2; Phi evaluated in the tail
    section lands in the predecessor's band, which integer division
    recovers.
    """
    m = len(keys)
    symbols: list[int] = []
    for a in keys:
        symbols += [0] * a + [1] * (m * m - a + 2)
    return symbols + [0] * (m * m + 1) + [1] + [0] * (m * m) + [1] * (m * m + 2)


def _ilf_pred_blocks(keys: tuple[int, ...]) -> Blocks:
    """Encode a sorted m-set from [1..m^2] so ILF entries answer
    predecessor queries.

    Block i spells c_i marked copies (prefixed with an extra 1) and
    m^2 - c_i unmarked copies of the framed code of i, where c_i counts
    universe positions owned by the i-th element; following the inverse
    LF step from the x-th marked code lands among the unmarked codes of
    the predecessor's block, in a band of width m^2.
    """
    m = len(keys)
    k = m.bit_length()
    blocks: Blocks = []
    for i, copies in enumerate(_owned_counts(keys)):
        code = _ebin(i, k)
        blocks += [([1] + code, copies), (code, m * m - copies)]
    return blocks


def _pred_frame(
    gadget: GadgetInstance, x: int, rank_fn: Callable[[GadgetInstance, int], int]
) -> tuple[int, int | None]:
    m = gadget.anchors["m"]
    if x < 1:
        return (0, None)
    rank = m if x > m * m else rank_fn(gadget, x)
    return (rank, gadget.input[rank - 1] if rank >= 1 else None)


def _plcp_pred_rank(gadget: GadgetInstance, x: int) -> int:
    m = gadget.anchors["m"]
    probe = gadget.anchors["delta"] + m * m - x + 1
    return (x + m + 1) - gadget.bundle.plcp[probe]


def _phi_pred_rank(gadget: GadgetInstance, x: int) -> int:
    m = gadget.anchors["m"]
    probe = gadget.anchors["delta"] + m * m - x + 1
    return -(-gadget.bundle.phi[probe] // (m * m + 2)) - 1


def _ilf_pred_rank(gadget: GadgetInstance, x: int) -> int:
    m = gadget.anchors["m"]
    landed = gadget.bundle.ilf[gadget.anchors["alpha"] + x] - gadget.anchors["beta"]
    return -(-landed // (m * m)) - 1


def pred_via_plcp(gadget: GadgetInstance, x: int) -> tuple[int, int | None]:
    """(rank, value) of the predecessor of x in A via one PLCP entry.

    Rank 0 with value None means no element of A lies below x.
    """
    _expect_kind(gadget, "plcp-pred")
    return _pred_frame(gadget, x, _plcp_pred_rank)


def pred_via_phi(gadget: GadgetInstance, x: int) -> tuple[int, int | None]:
    """(rank, value) of the predecessor of x in A via one Phi entry.

    Rank 0 with value None means no element of A lies below x.
    """
    _expect_kind(gadget, "phi-pred")
    return _pred_frame(gadget, x, _phi_pred_rank)


def pred_via_ilf(gadget: GadgetInstance, x: int) -> tuple[int, int | None]:
    """(rank, value) of the predecessor of x in A via one ILF entry.

    Internally the mapping answers over A extended with a zero sentinel;
    landing on the sentinel yields rank 0 with value None, meaning no
    element of A lies below x.
    """
    _expect_kind(gadget, "ilf-pred")
    return _pred_frame(gadget, x, _ilf_pred_rank)


# ---------------------------------------------------------------------------
# Phi from inverse Phi and back


def _phi_inverse_symbols(original: tuple[int, ...]) -> list[int]:
    """Five-symbol blocks that swap a text's Phi and inverse-Phi rows.

    Each symbol a becomes the block 0 0 1 (sigma-1-a) 1, with sigma =
    max(2, largest symbol + 1), and a final 1 is appended.  Complementing the
    distinguishing symbol reverses the lexicographic order of the
    block-start suffixes, so the transform's inverse Phi evaluated at
    block starts computes the original Phi and vice versa; the
    lexicographically extreme positions are stored and answered directly.
    """
    sigma = max(2, max(original) + 1)
    symbols: list[int] = []
    for a in original:
        symbols += [0, 0, 1, sigma - 1 - a, 1]
    return symbols + [1]


def _phi_inverse_anchors(data: tuple[int, ...], text: Text, sa: Sequence[int]) -> dict[str, object]:
    """n, sigma read off the first block, and the original text's
    lexicographically first and last suffixes read off the transform's SA.

    Only block-start suffixes begin with 0 0, so they fill SA[1..n], in the
    reverse of the original suffixes' order."""
    n = len(data)
    sigma = text.symbols[3] + 1 + data[0]
    return {
        "n": n,
        "sigma": sigma,
        "j_lexfirst": (sa[n] - 1) // 5 + 1,
        "j_lexlast": (sa[1] - 1) // 5 + 1,
    }


def _block_start_to_position(landed: int) -> int:
    if landed % 5 != 1:
        raise AssertionError(f"transform position {landed} is not a block start")
    return (landed - 1) // 5 + 1


def phi_via_invphi(gadget: GadgetInstance, j: int) -> int:
    """Phi of the original text at j, read off the transform's inverse Phi."""
    _expect_kind(gadget, "phi-inverse")
    n = gadget.anchors["n"]
    if not 1 <= j <= n:
        raise IndexError(f"position {j} out of [1..{n}]")
    if j == gadget.anchors["j_lexfirst"]:
        return gadget.anchors["j_lexlast"]
    return _block_start_to_position(gadget.bundle.inv_phi[5 * j - 4])


def invphi_via_phi(gadget: GadgetInstance, j: int) -> int:
    """Inverse Phi of the original text at j, read off the transform's Phi."""
    _expect_kind(gadget, "phi-inverse")
    n = gadget.anchors["n"]
    if not 1 <= j <= n:
        raise IndexError(f"position {j} out of [1..{n}]")
    if j == gadget.anchors["j_lexlast"]:
        return gadget.anchors["j_lexfirst"]
    return _block_start_to_position(gadget.bundle.phi[5 * j - 4])


# ---------------------------------------------------------------------------
# Definitional oracles and query replay


def _definition_select(perm: Sequence[int], v: int, r: int) -> int:
    v = max(v, 1)
    matches = [i for i, a in enumerate(perm, start=1) if a >= v]
    return matches[r - 1]


def _definition_count(perm: Sequence[int], j: int, v: int) -> int:
    return sum(1 for a in perm[:j] if a >= v)


def _definition_pred(keys: Sequence[int], x: int) -> tuple[int, int | None]:
    rank = bisect_left(keys, x)
    return (rank, keys[rank - 1] if rank >= 1 else None)


Replay = Callable[[GadgetInstance], Iterator[tuple]]


def _replay(
    via: Callable[..., object],
    definition: Callable[..., object],
    domain: Callable[[int], Iterator[tuple]],
) -> Replay:
    """Yield (query, via(gadget, *query), definition(input, *query)) for
    every query of the domain of the input's size."""

    def replay(gadget: GadgetInstance) -> Iterator[tuple]:
        data = gadget.input
        for query in domain(len(data)):
            yield query, via(gadget, *query), definition(data, *query)

    return replay


def _universe_queries(m: int) -> Iterator[tuple]:
    return ((x,) for x in range(0, m * m + 2))


def _replay_phi_inverse(gadget: GadgetInstance) -> Iterator[tuple]:
    source = build_bundle(Text.from_symbols(gadget.input, gadget.anchors["sigma"]))
    n = len(gadget.input)
    for j in range(1, n + 1):
        yield ("phi", j), phi_via_invphi(gadget, j), source.phi[j]
    for j in range(1, n + 1):
        yield ("invphi", j), invphi_via_phi(gadget, j), source.inv_phi[j]


# ---------------------------------------------------------------------------
# Compressibility certificates


def _run_certificate(gadget: GadgetInstance, rle: RunLengthEncoding) -> tuple[Blocks, int]:
    """One block per run: at most twice the run count phrases."""
    return [((symbol,), length) for symbol, length in rle.runs], 2 * rle.run_count


def _certificate(gadget: GadgetInstance, rle: RunLengthEncoding) -> tuple[LZFactorization, int]:
    blocks, bound = _spec(gadget.kind).certificate(gadget, rle)
    return repeat_factorization(blocks, gadget.text.n), bound


def proof_certificate(gadget: GadgetInstance) -> tuple[LZFactorization, int]:
    """An explicit LZ-like factorization of the gadget text together
    with its closed-form phrase bound.

    The block-coded kinds spell each block group as literals plus one
    self-overlapping copy, giving (m+1)(2k+5) phrases for bwt-color and
    (m+1)(4k+9) for ilf-pred; every other kind is covered by the
    run-length factorization with at most twice the run count.
    ``verify_reduction`` checks the phrase count against the bound.
    """
    return _certificate(gadget, run_length_encode(gadget.text))


# ---------------------------------------------------------------------------
# Input families


@dataclass(frozen=True)
class _Family:
    """The check every input passes before a build, which returns it as a
    tuple of ints, and the valid inputs of one size: all of them, a seeded
    draw, their count, and the one whose gadget text is longest."""

    check: Callable[[Sequence[int]], tuple[int, ...]]
    every: Callable[[int], Iterator[tuple[int, ...]]]
    draw: Callable[[int, random.Random], tuple[int, ...]]
    count: Callable[[int], int]
    longest: Callable[[int], tuple[int, ...]]


def _draw_permutation(n: int, rng: random.Random) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


_PERMUTATIONS = _Family(
    check=_checked_permutation,
    every=lambda n: itertools.permutations(range(1, n + 1)),
    draw=_draw_permutation,
    count=math.factorial,
    longest=lambda n: tuple(range(1, n + 1)),
)
_SETS = _Family(
    check=_checked_sorted_set,
    every=lambda m: itertools.combinations(range(1, m * m + 1), m),
    draw=lambda m, rng: tuple(sorted(rng.sample(range(1, m * m + 1), m))),
    count=lambda m: math.comb(m * m, m),
    longest=lambda m: tuple(range(m * m - m + 1, m * m + 1)),
)
_BITS = _Family(
    check=_checked_symbols,
    every=lambda n: itertools.product((0, 1), repeat=n),
    draw=lambda n, rng: tuple(rng.randrange(2) for _ in range(n)),
    count=lambda n: 2**n,
    longest=lambda n: (1,) * n,
)


# ---------------------------------------------------------------------------
# The kind table


@dataclass(frozen=True)
class _Kind:
    """Everything the module knows about one gadget kind.

    ``spell`` writes a checked input's text as symbols; ``anchors`` derives the anchors from the input, the text and its suffix
    array; ``length`` and ``runs`` give an input's closed-form text length
    and, where one exists, run count.  ``rows`` names the derived bundle
    rows the replay reads besides LCP (SA and ISA are stored, and every
    build derives LCP); a build derives exactly these, and no other.
    """

    family: _Family
    spell: Callable[[tuple[int, ...]], list[int]]
    anchors: Callable[[tuple[int, ...], Text, Sequence[int]], dict[str, object]]
    length: Callable[[tuple[int, ...]], int]
    replay: Replay
    rows: tuple[str, ...] = ()
    runs: Callable[[tuple[int, ...]], int] | None = None
    certificate: Callable[[GadgetInstance, RunLengthEncoding], tuple[Blocks, int]] = (
        _run_certificate
    )


_TABLE: dict[str, _Kind] = {
    "lcp-select": _Kind(
        family=_PERMUTATIONS,
        spell=_threshold_blocks,
        anchors=_threshold_anchors,
        length=lambda p: (len(p) + 2) * (len(p) + 1),
        runs=lambda p: 2 * (len(p) + 1),
        replay=_replay(
            select_via_lcp,
            _definition_select,
            lambda n: ((v, r) for v in range(0, n + 1) for r in range(1, n - max(v, 1) + 2)),
        ),
    ),
    "isa-count": _Kind(
        family=_PERMUTATIONS,
        spell=_isa_count_symbols,
        anchors=lambda p, text, sa: {
            **_threshold_anchors(p, text, sa),
            "ell1": len(p) * (len(p) + 1),
            "ell2": 2 * (len(p) + 1),
        },
        length=lambda p: (5 * len(p) + 8) * (len(p) + 1) // 2,
        runs=lambda p: 4 * (len(p) + 1),
        replay=_replay(
            count_via_isa,
            _definition_count,
            lambda n: ((j, v) for j in range(0, n + 1) for v in range(0, n + 2)),
        ),
    ),
    "bwt-color": _Kind(
        rows=("bwt",),
        family=_SETS,
        spell=lambda a: _spell(_bwt_color_blocks(a)),
        anchors=lambda a, text, sa: _code_anchors(a, text, sa, b=1),
        length=lambda a: (2 * len(a).bit_length() + 4) * len(a) ** 2,
        replay=_replay(color_via_bwt, lambda a, x: bisect_left(a, x) % 2, _universe_queries),
        certificate=lambda g, rle: (
            _bwt_color_blocks(g.input),
            (g.anchors["m"] + 1) * (2 * g.anchors["k"] + 5),
        ),
    ),
    "plcp-pred": _Kind(
        rows=("plcp",),
        family=_SETS,
        spell=_plcp_pred_symbols,
        anchors=lambda a, text, sa: {"m": len(a), "delta": text.n - (len(a) ** 2 + len(a) + 2)},
        length=lambda a: (
            sum(a) + ((len(a) + 1) * (len(a) + 2) // 2 - 1) + 2 * len(a) ** 2 + len(a) + 4
        ),
        runs=lambda a: 2 * (len(a) + 2),
        replay=_replay(pred_via_plcp, _definition_pred, _universe_queries),
    ),
    "phi-pred": _Kind(
        rows=("phi",),
        family=_SETS,
        spell=_phi_pred_symbols,
        anchors=lambda a, text, sa: {"m": len(a), "delta": text.n - 2 * (len(a) ** 2 + 1)},
        length=lambda a: len(a) ** 3 + 3 * len(a) ** 2 + 2 * len(a) + 4,
        runs=lambda a: 2 * (len(a) + 2),
        replay=_replay(pred_via_phi, _definition_pred, _universe_queries),
    ),
    "ilf-pred": _Kind(
        rows=("ilf",),
        family=_SETS,
        spell=lambda a: _spell(_ilf_pred_blocks(a)),
        anchors=lambda a, text, sa: _code_anchors(a, text, sa, alpha=2, beta=1),
        length=lambda a: len(a) ** 2 * (1 + (2 * len(a).bit_length() + 3) * (len(a) + 1)),
        replay=_replay(pred_via_ilf, _definition_pred, _universe_queries),
        certificate=lambda g, rle: (
            _ilf_pred_blocks(g.input),
            (g.anchors["m"] + 1) * (4 * g.anchors["k"] + 9),
        ),
    ),
    "phi-inverse": _Kind(
        rows=("phi", "inv_phi"),
        family=_BITS,
        spell=_phi_inverse_symbols,
        anchors=_phi_inverse_anchors,
        length=lambda s: 5 * len(s) + 1,
        replay=_replay_phi_inverse,
    ),
}

KINDS = tuple(_TABLE)


def _spec(kind: str) -> _Kind:
    try:
        return _TABLE[kind]
    except KeyError:
        raise ValueError(f"unknown gadget kind {kind!r}") from None


def _family(kind: str, size: int) -> _Family:
    family = _spec(kind).family
    if size < 1:
        raise ValueError("size must be at least 1")
    return family


# ---------------------------------------------------------------------------
# Verification harness


def build_gadget(kind: str, data: Sequence[int]) -> GadgetInstance:
    """Construct a gadget of the given kind from its raw input.

    The kind's family checks the input and the kind spells its text, whose
    length must match the closed form.  The text is then sorted once, and
    LCP (which verification's LZ77 reads for every kind), the rows the
    kind's replay reads and the anchors are derived.
    """
    spec = _spec(kind)
    checked = spec.family.check(data)
    text = Text.from_symbols(spec.spell(checked))
    want = spec.length(checked)
    if text.n != want:
        raise AssertionError(f"{kind} text has length {text.n}, not the closed-form {want}")
    bundle = build_bundle(text)
    for row in ("lcp", *spec.rows):  # derived here, so verification derives none
        getattr(bundle, row)
    return GadgetInstance(kind, checked, text, spec.anchors(checked, text, bundle.sa), bundle)


def recompute_anchors(gadget: GadgetInstance) -> dict[str, object]:
    """Anchors derived afresh from the constructed text.

    Rank anchors are recomputed with pattern_range over the gadget's
    suffix array; offsets follow their closed forms.  For phi-inverse
    sigma is read off the transform's first block and the boundary
    positions off the transform's suffix array.
    """
    spec = _spec(gadget.kind)
    return spec.anchors(gadget.input, gadget.text, gadget.bundle.sa)


def verify_reduction(kind: str, instance: GadgetInstance) -> ReductionReport:
    """Replay a gadget's query domain against the direct definitions.

    Every in-contract query — plus the out-of-band sentinels just outside
    the domain — is checked.  The report also compares the stored anchors
    against freshly recomputed ones and validates the closed-form LZ-like
    certificate of the text.

    The greedy phrase count ``z`` is read off the instance's stored
    bundle, one step per phrase over its SA, ISA and LCP rows, so
    verification sorts nothing, and the parse is validated against the
    text itself.  Greedy LZ77 is optimal, so a faulty bundle
    can only overstate ``z`` (or yield a parse that fails validation with
    ValueError).  Raises AssertionError if the text's run count differs
    from its closed form, if the certificate exceeds its closed-form
    bound, or if the certificate has fewer phrases than the greedy
    factorization, which optimality rules out.
    """
    spec = _spec(kind)
    if instance.kind != kind:
        raise ValueError(f"instance kind {instance.kind!r} does not match {kind!r}")
    text = instance.text
    rle = run_length_encode(text)
    if spec.runs is not None and rle.run_count != spec.runs(instance.input):
        raise AssertionError(
            f"{kind} text has {rle.run_count} runs, not the closed-form {spec.runs(instance.input)}"
        )
    queries = mismatches = 0
    first: tuple | None = None
    for query, got, want in spec.replay(instance):
        queries += 1
        if got != want:
            mismatches += 1
            if first is None:
                first = (query, got, want)
    certificate, bound = _certificate(instance, rle)
    cert_size = validate_lz_like(text, certificate)
    if cert_size > bound:
        raise AssertionError(
            f"{kind} certificate has {cert_size} phrases, over its closed-form bound {bound}"
        )
    z = validate_lz_like(text, lz77_from_bundle(instance.bundle))
    if z > cert_size:
        raise AssertionError(
            f"greedy LZ77 has {z} phrases, more than the {cert_size}-phrase certificate"
        )
    return ReductionReport(
        kind=kind,
        instances=1,
        query_count=queries,
        mismatch_count=mismatches,
        text_length=text.n,
        rl_runs=rle.run_count,
        lz_phrases=z,
        cert_phrases=cert_size,
        cert_bound=bound,
        anchors_consistent=recompute_anchors(instance) == dict(instance.anchors),
        first_mismatch=first,
    )


# ---------------------------------------------------------------------------
# Instance enumeration


def all_inputs(kind: str, size: int) -> Iterator[tuple[int, ...]]:
    """Every valid input of the given size, in deterministic order.

    The family is counted in closed form first (n! permutations,
    C(m^2, m) sets, 2^n bit strings); families of more than
    EXHAUSTIVE_BUDGET inputs raise ValueError before any is enumerated.
    """
    family = _family(kind, size)
    # Every family passes 2**63 inputs by size 64; larger sizes go uncounted.
    count = family.count(size) if size <= 64 else None
    if count is None or count > EXHAUSTIVE_BUDGET:
        shown = count if count is not None else "more than 2**63"
        raise ValueError(
            f"{kind} at size {size} has {shown} inputs, "
            f"over the exhaustive budget of {EXHAUSTIVE_BUDGET}"
        )
    return family.every(size)


def random_input(kind: str, size: int, rng: random.Random) -> tuple[int, ...]:
    """One uniformly drawn valid input of the given size."""
    return _family(kind, size).draw(size, rng)


def longest_text(kind: str, size: int) -> int:
    """The length of the longest gadget text of one kind and size, read off
    the kind's closed-form length at its family's longest input."""
    return _spec(kind).length(_family(kind, size).longest(size))


def instance_inputs(
    kind: str,
    size: int,
    *,
    exhaustive: bool = False,
    trials: int = 20,
    seed: int = 0,
) -> tuple[int, Iterator[tuple[int, ...]]]:
    """How many inputs ``verify_many`` replays, and a stream of them.

    ``exhaustive`` enumerates ``all_inputs`` (within EXHAUSTIVE_BUDGET);
    otherwise ``trials`` inputs are drawn from ``random.Random(seed)``.
    Raises ValueError for an unknown kind, a size below 1, an
    over-budget family, fewer than one trial or more than
    EXHAUSTIVE_BUDGET of them, or a size whose longest text, by the
    kind's closed-form length, exceeds a budget of 10**6 symbols.
    """
    family = _family(kind, size)
    # Every gadget text is longer than its input, so a size over the budget
    # is refused before an input of that size is made.
    length = longest_text(kind, size) if size <= TEXT_LENGTH_BUDGET else None
    if length is None or length > TEXT_LENGTH_BUDGET:
        shown = length if length is not None else f"more than {size}"
        raise ValueError(
            f"{kind} at size {size} makes texts of {shown} symbols, "
            f"over the text-length budget of {TEXT_LENGTH_BUDGET}"
        )
    if exhaustive:
        inputs = all_inputs(kind, size)
        return family.count(size), inputs
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if trials > EXHAUSTIVE_BUDGET:
        raise ValueError(f"{trials} trials are over the exhaustive budget of {EXHAUSTIVE_BUDGET}")
    rng = random.Random(seed)
    return trials, (family.draw(size, rng) for _ in range(trials))


def verify_many(
    kind: str,
    size: int,
    *,
    exhaustive: bool = False,
    trials: int = 20,
    seed: int = 0,
) -> ReductionReport:
    """Verify many instances of one kind and merge their reports.

    ``exhaustive`` enumerates every input of the given size; otherwise
    ``trials`` seeded random inputs are drawn.  Queries are replayed
    exhaustively either way.
    """
    _, inputs = instance_inputs(kind, size, exhaustive=exhaustive, trials=trials, seed=seed)
    reports = (verify_reduction(kind, build_gadget(kind, data)) for data in inputs)
    return reduce(merge_reports, reports)

"""Reduction gadgets: texts whose index arrays answer abstract queries.

Each constructor encodes a permutation or a sorted integer set into a
binary text so that a single row of the text's suffix-array bundle (LCP,
ISA, BWT, PLCP, Phi, ILF, or inverse Phi) answers selection, counting,
or predecessor queries about the encoded input through a closed-form
index mapping.  ``verify_reduction`` replays every in-contract query
through both the mapping and the direct definition and reports
disagreements, together with run-length and LZ-like phrase-count
certificates of the gadget text's compressibility.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .measures import (
    LZFactorization,
    lz77_from_bundle,
    run_length_encode,
    run_length_factorization,
    validate_lz_like,
)
from .text_core import SuffixArrayBundle, Text, build_bundle, pattern_range

KINDS = (
    "lcp-select",
    "isa-count",
    "bwt-color",
    "plcp-pred",
    "phi-pred",
    "ilf-pred",
    "phi-inverse",
)


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
# Input validation and binary block codes


def _checked_permutation(values: Sequence[int]) -> tuple[int, ...]:
    perm = tuple(int(v) for v in values)
    n = len(perm)
    if n == 0:
        raise ValueError("permutation must be nonempty")
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"input is not a permutation of 1..{n}")
    return perm


def _checked_sorted_set(values: Sequence[int], m: int | None) -> tuple[int, ...]:
    keys = tuple(int(v) for v in values)
    if m is None:
        m = len(keys)
    if m < 1 or len(keys) != m:
        raise ValueError(f"set must contain exactly m={m} elements")
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


def _expect_kind(gadget: GadgetInstance, kind: str) -> None:
    if gadget.kind != kind:
        raise ValueError(f"expected a {kind} gadget, got {gadget.kind}")


# ---------------------------------------------------------------------------
# Range selection via LCP


def lcp_select_gadget(values: Sequence[int]) -> GadgetInstance:
    """Encode a permutation so LCP entries answer range selection.

    The text concatenates a block 0^{A[i]} 1^i per position i and the
    separator 0^{n+1} 1^{n+1}.  For a threshold v the suffixes starting
    at block zeros with A[i] >= v occupy consecutive suffix-array ranks
    right after the anchor R[v] = RangeBeg(0^v 1), ordered by i, and the
    LCP entry r steps in reveals the r-th qualifying index.
    """
    perm = _checked_permutation(values)
    n = len(perm)
    symbols: list[int] = []
    for i, a in enumerate(perm, start=1):
        symbols += [0] * a + [1] * i
    symbols += [0] * (n + 1) + [1] * (n + 1)
    text = Text.from_symbols(symbols, 2)
    assert text.n == (n + 2) * (n + 1)
    assert run_length_encode(text).run_count == 2 * (n + 1)
    bundle = build_bundle(text)
    ranks = tuple(
        pattern_range(text, bundle.sa, [0] * v + [1]).range_beg
        for v in range(1, n + 1)
    )
    anchors = {"n": n, "R": (0,) + ranks}
    return GadgetInstance("lcp-select", perm, text, anchors, bundle)


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


# ---------------------------------------------------------------------------
# Range counting via ISA


def isa_count_gadget(values: Sequence[int]) -> GadgetInstance:
    """Encode a permutation so ISA entries answer range counting.

    The text extends the range-selection encoding with a third section
    of blocks 0^{n+1} 1^i whose suffixes interleave, in suffix-array
    order, with the first section's block suffixes; the rank of a probe
    suffix therefore counts the qualifying positions in a prefix.
    """
    perm = _checked_permutation(values)
    n = len(perm)
    symbols: list[int] = []
    for i, a in enumerate(perm, start=1):
        symbols += [0] * a + [1] * i
    symbols += [0] * (n + 1) + [1] * (n + 1)
    for i in range(1, n + 2):
        symbols += [0] * (n + 1) + [1] * i
    text = Text.from_symbols(symbols, 2)
    assert text.n == (5 * n + 8) * (n + 1) // 2
    assert run_length_encode(text).run_count == 4 * (n + 1)
    bundle = build_bundle(text)
    ranks = tuple(
        pattern_range(text, bundle.sa, [0] * v + [1]).range_beg
        for v in range(1, n + 1)
    )
    anchors = {
        "n": n,
        "R": (0,) + ranks,
        "ell1": n * (n + 1),
        "ell2": 2 * (n + 1),
    }
    return GadgetInstance("isa-count", perm, text, anchors, bundle)


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


def bwt_color_gadget(values: Sequence[int], m: int | None = None) -> GadgetInstance:
    """Encode a sorted m-set from [1..m^2] so BWT symbols answer
    colored-predecessor queries.

    Every universe position x carries one framed binary code naming the
    number of set elements below it, prefixed by that number's parity
    bit; the BWT groups the codes so the symbol preceding the x-th copy
    is exactly the parity of the predecessor's rank.
    """
    keys = _checked_sorted_set(values, m)
    m = len(keys)
    k = m.bit_length()
    bounds = (0,) + keys + (m * m,)
    symbols: list[int] = []
    for i in range(m + 1):
        copies = bounds[i + 1] - bounds[i]
        block = [i % 2] + _ebin(i, k)
        symbols += block * copies
    text = Text.from_symbols(symbols, 2)
    assert text.n == (2 * k + 4) * m * m
    bundle = build_bundle(text)
    anchor = pattern_range(text, bundle.sa, [1] * (k + 1) + [0]).range_beg
    anchors = {"m": m, "k": k, "b": anchor}
    return GadgetInstance("bwt-color", keys, text, anchors, bundle)


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


def plcp_pred_gadget(values: Sequence[int], m: int | None = None) -> GadgetInstance:
    """Encode a sorted m-set from [1..m^2] so PLCP entries answer
    predecessor queries.

    Blocks 0^{a_i} 1^{m-i+2} carry the set elements in their zero-run
    lengths; probing the tail section's zeros measures, through one
    PLCP entry, how many elements lie below the query.
    """
    keys = _checked_sorted_set(values, m)
    m = len(keys)
    symbols: list[int] = []
    for i, a in enumerate(keys, start=1):
        symbols += [0] * a + [1] * (m - i + 2)
    symbols += [0] * (m * m + 1) + [1]
    symbols += [0] * (m * m) + [1] * (m + 2)
    text = Text.from_symbols(symbols, 2)
    assert text.n == sum(keys) + ((m + 1) * (m + 2) // 2 - 1) + 2 * m * m + m + 4
    assert run_length_encode(text).run_count == 2 * (m + 2)
    bundle = build_bundle(text)
    anchors = {"m": m, "delta": text.n - (m * m + m + 2)}
    return GadgetInstance("plcp-pred", keys, text, anchors, bundle)


def phi_pred_gadget(values: Sequence[int], m: int | None = None) -> GadgetInstance:
    """Encode a sorted m-set from [1..m^2] so Phi entries answer
    predecessor queries.

    Blocks 0^{a_i} 1^{m^2-a_i+2} put each element's block suffixes in a
    band of positions of width m^2 + 2; Phi evaluated in the tail
    section lands in the predecessor's band, which integer division
    recovers.
    """
    keys = _checked_sorted_set(values, m)
    m = len(keys)
    symbols: list[int] = []
    for a in keys:
        symbols += [0] * a + [1] * (m * m - a + 2)
    symbols += [0] * (m * m + 1) + [1]
    symbols += [0] * (m * m) + [1] * (m * m + 2)
    text = Text.from_symbols(symbols, 2)
    assert text.n == m**3 + 3 * m * m + 2 * m + 4
    assert run_length_encode(text).run_count == 2 * (m + 2)
    bundle = build_bundle(text)
    anchors = {"m": m, "delta": text.n - 2 * (m * m + 1)}
    return GadgetInstance("phi-pred", keys, text, anchors, bundle)


def ilf_pred_gadget(values: Sequence[int], m: int | None = None) -> GadgetInstance:
    """Encode a sorted m-set from [1..m^2] so ILF entries answer
    predecessor queries.

    Block i spells c_i marked copies (prefixed with an extra 1) and
    m^2 - c_i unmarked copies of the framed code of i, where c_i counts
    universe positions owned by the i-th element; following the inverse
    LF step from the x-th marked code lands among the unmarked codes of
    the predecessor's block, in a band of width m^2.
    """
    keys = _checked_sorted_set(values, m)
    m = len(keys)
    k = m.bit_length()
    bounds = (0,) + keys + (m * m,)
    symbols: list[int] = []
    for i in range(m + 1):
        copies = bounds[i + 1] - bounds[i]
        code = _ebin(i, k)
        symbols += ([1] + code) * copies
        symbols += code * (m * m - copies)
    text = Text.from_symbols(symbols, 2)
    assert text.n == m * m + (2 * k + 3) * (m + 1) * m * m
    bundle = build_bundle(text)
    alpha = pattern_range(text, bundle.sa, [1] * (k + 2) + [0]).range_beg
    beta = pattern_range(text, bundle.sa, [1] * (k + 1) + [0]).range_beg
    anchors = {"m": m, "k": k, "alpha": alpha, "beta": beta}
    return GadgetInstance("ilf-pred", keys, text, anchors, bundle)


def _pred_result(gadget: GadgetInstance, rank: int) -> tuple[int, int | None]:
    return (rank, gadget.input[rank - 1] if rank >= 1 else None)


def _pred_frame(
    gadget: GadgetInstance, x: int, rank_fn: Callable[[GadgetInstance, int], int]
) -> tuple[int, int | None]:
    m = gadget.anchors["m"]
    if x < 1:
        return (0, None)
    if x > m * m:
        return _pred_result(gadget, m)
    return _pred_result(gadget, rank_fn(gadget, x))


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


def phi_inverse_transform(text: Text, sigma: int | None = None) -> GadgetInstance:
    """Five-symbol blocks that swap a text's Phi and inverse-Phi rows.

    Each symbol a becomes the block 0 0 1 (sigma-1-a) 1 and a final 1 is
    appended.  Complementing the distinguishing symbol reverses the
    lexicographic order of the block-start suffixes, so the transform's
    inverse Phi evaluated at block starts computes the original Phi and
    vice versa; the lexicographically extreme positions are stored and
    answered directly.
    """
    if text.n == 0:
        raise ValueError("cannot transform an empty text")
    if sigma is None:
        sigma = text.sigma
    top = max(text.symbols)
    if sigma < top + 1:
        raise ValueError(f"sigma={sigma} cannot encode symbol {top}")
    symbols: list[int] = []
    for a in text.symbols:
        symbols += [0, 0, 1, sigma - 1 - a, 1]
    symbols.append(1)
    prime = Text.from_symbols(symbols, max(2, sigma))
    assert prime.n == 5 * text.n + 1
    source = build_bundle(text)
    bundle = build_bundle(prime)
    anchors = {
        "n": text.n,
        "sigma": sigma,
        "j_lexfirst": source.sa[1],
        "j_lexlast": source.sa[text.n],
    }
    return GadgetInstance("phi-inverse", text.symbols, prime, anchors, bundle)


def phi_via_invphi(gadget: GadgetInstance, j: int) -> int:
    """Phi of the original text at j, read off the transform's inverse Phi."""
    _expect_kind(gadget, "phi-inverse")
    n = gadget.anchors["n"]
    if not 1 <= j <= n:
        raise IndexError(f"position {j} out of [1..{n}]")
    if j == gadget.anchors["j_lexfirst"]:
        return gadget.anchors["j_lexlast"]
    landed = gadget.bundle.inv_phi[5 * j - 4]
    assert landed % 5 == 1
    return (landed - 1) // 5 + 1


def invphi_via_phi(gadget: GadgetInstance, j: int) -> int:
    """Inverse Phi of the original text at j, read off the transform's Phi."""
    _expect_kind(gadget, "phi-inverse")
    n = gadget.anchors["n"]
    if not 1 <= j <= n:
        raise IndexError(f"position {j} out of [1..{n}]")
    if j == gadget.anchors["j_lexlast"]:
        return gadget.anchors["j_lexfirst"]
    landed = gadget.bundle.phi[5 * j - 4]
    assert landed % 5 == 1
    return (landed - 1) // 5 + 1


# ---------------------------------------------------------------------------
# Definitional oracles


def _definition_select(perm: Sequence[int], v: int, r: int) -> int:
    v = max(v, 1)
    matches = [i for i, a in enumerate(perm, start=1) if a >= v]
    return matches[r - 1]


def _definition_count(perm: Sequence[int], j: int, v: int) -> int:
    return sum(1 for a in perm[:j] if a >= v)


def _definition_pred(keys: Sequence[int], x: int) -> tuple[int, int | None]:
    rank = bisect_left(keys, x)
    return (rank, keys[rank - 1] if rank >= 1 else None)


# ---------------------------------------------------------------------------
# Compressibility certificates


def proof_certificate(gadget: GadgetInstance) -> tuple[LZFactorization, int]:
    """An explicit LZ-like factorization of the gadget text together
    with its closed-form phrase bound.

    The block-coded kinds spell each block group as literals plus one
    self-overlapping copy, giving (m+1)(2k+5) phrases for bwt-color and
    (m+1)(4k+9) for ilf-pred; every other kind is covered by the
    run-length factorization with at most twice the run count.
    """
    kind, text = gadget.kind, gadget.text
    if kind == "bwt-color":
        m, k = gadget.anchors["m"], gadget.anchors["k"]
        bounds = (0,) + gadget.input + (m * m,)
        unit = 2 * k + 4
        phrases: list[tuple[int, int]] = []
        pos = 1
        for i in range(m + 1):
            copies = bounds[i + 1] - bounds[i]
            if copies == 0:
                continue
            phrases += [(s, 0) for s in [i % 2] + _ebin(i, k)]
            if copies >= 2:
                phrases.append((pos, (copies - 1) * unit))
            pos += copies * unit
        bound = (m + 1) * (2 * k + 5)
    elif kind == "ilf-pred":
        m, k = gadget.anchors["m"], gadget.anchors["k"]
        bounds = (0,) + gadget.input + (m * m,)
        phrases = []
        pos = 1
        for i in range(m + 1):
            copies = bounds[i + 1] - bounds[i]
            rest = m * m - copies
            code = _ebin(i, k)
            if copies >= 1:
                phrases += [(s, 0) for s in [1] + code]
                if copies >= 2:
                    phrases.append((pos, (copies - 1) * (2 * k + 4)))
                pos += copies * (2 * k + 4)
            if rest >= 1:
                phrases += [(s, 0) for s in code]
                if rest >= 2:
                    phrases.append((pos, (rest - 1) * (2 * k + 3)))
                pos += rest * (2 * k + 3)
        bound = (m + 1) * (4 * k + 9)
    else:
        factorization = run_length_factorization(text)
        bound = 2 * run_length_encode(text).run_count
        assert factorization.phrase_count <= bound
        return factorization, bound
    factorization = LZFactorization(tuple(phrases), text.n)
    assert factorization.phrase_count <= bound
    return factorization, bound


# ---------------------------------------------------------------------------
# Verification harness


def recompute_anchors(gadget: GadgetInstance) -> dict[str, object]:
    """Anchors derived afresh from the constructed text.

    Rank anchors are recomputed with pattern_range over the gadget's
    suffix array; offsets follow their closed forms.  For phi-inverse
    the boundary positions come from re-sorting the original text, and
    sigma is a transform parameter copied as stored.
    """
    kind, text, sa = gadget.kind, gadget.text, gadget.bundle.sa
    if kind in ("lcp-select", "isa-count"):
        n = len(gadget.input)
        ranks = (0,) + tuple(
            pattern_range(text, sa, [0] * v + [1]).range_beg for v in range(1, n + 1)
        )
        anchors: dict[str, object] = {"n": n, "R": ranks}
        if kind == "isa-count":
            anchors["ell1"] = n * (n + 1)
            anchors["ell2"] = 2 * (n + 1)
        return anchors
    if kind == "bwt-color":
        m = len(gadget.input)
        k = m.bit_length()
        anchor = pattern_range(text, sa, [1] * (k + 1) + [0]).range_beg
        return {"m": m, "k": k, "b": anchor}
    if kind == "plcp-pred":
        m = len(gadget.input)
        return {"m": m, "delta": text.n - (m * m + m + 2)}
    if kind == "phi-pred":
        m = len(gadget.input)
        return {"m": m, "delta": text.n - 2 * (m * m + 1)}
    if kind == "ilf-pred":
        m = len(gadget.input)
        k = m.bit_length()
        return {
            "m": m,
            "k": k,
            "alpha": pattern_range(text, sa, [1] * (k + 2) + [0]).range_beg,
            "beta": pattern_range(text, sa, [1] * (k + 1) + [0]).range_beg,
        }
    if kind == "phi-inverse":
        sigma = gadget.anchors["sigma"]
        n = len(gadget.input)
        source = build_bundle(Text.from_symbols(gadget.input, sigma))
        return {
            "n": n,
            "sigma": sigma,
            "j_lexfirst": source.sa[1],
            "j_lexlast": source.sa[n],
        }
    raise ValueError(f"unknown gadget kind {kind!r}")


def _query_domain(gadget: GadgetInstance) -> list[tuple]:
    kind = gadget.kind
    if kind == "lcp-select":
        n = len(gadget.input)
        return [
            (v, r) for v in range(0, n + 1) for r in range(1, n - max(v, 1) + 2)
        ]
    if kind == "isa-count":
        n = len(gadget.input)
        return [(j, v) for j in range(0, n + 1) for v in range(0, n + 2)]
    if kind in ("bwt-color", "plcp-pred", "phi-pred", "ilf-pred"):
        m = len(gadget.input)
        return [(x,) for x in range(0, m * m + 2)]
    if kind == "phi-inverse":
        n = gadget.anchors["n"]
        return [("phi", j) for j in range(1, n + 1)] + [
            ("invphi", j) for j in range(1, n + 1)
        ]
    raise ValueError(f"unknown gadget kind {kind!r}")


def _run_lcp_select(gadget: GadgetInstance) -> Callable[[tuple], tuple]:
    def run(query: tuple) -> tuple:
        v, r = query
        return select_via_lcp(gadget, v, r), _definition_select(gadget.input, v, r)

    return run


def _run_isa_count(gadget: GadgetInstance) -> Callable[[tuple], tuple]:
    def run(query: tuple) -> tuple:
        j, v = query
        return count_via_isa(gadget, j, v), _definition_count(gadget.input, j, v)

    return run


def _run_bwt_color(gadget: GadgetInstance) -> Callable[[tuple], tuple]:
    def run(query: tuple) -> tuple:
        (x,) = query
        return color_via_bwt(gadget, x), _definition_pred(gadget.input, x)[0] % 2

    return run


def _make_pred_runner(
    query_fn: Callable[[GadgetInstance, int], tuple[int, int | None]],
) -> Callable[[GadgetInstance], Callable[[tuple], tuple]]:
    def factory(gadget: GadgetInstance) -> Callable[[tuple], tuple]:
        def run(query: tuple) -> tuple:
            (x,) = query
            return query_fn(gadget, x), _definition_pred(gadget.input, x)

        return run

    return factory


def _run_phi_inverse(gadget: GadgetInstance) -> Callable[[tuple], tuple]:
    source = build_bundle(
        Text.from_symbols(gadget.input, gadget.anchors["sigma"])
    )

    def run(query: tuple) -> tuple:
        direction, j = query
        if direction == "phi":
            return phi_via_invphi(gadget, j), source.phi[j]
        return invphi_via_phi(gadget, j), source.inv_phi[j]

    return run


_QUERY_RUNNERS: dict[str, Callable[[GadgetInstance], Callable[[tuple], tuple]]] = {
    "lcp-select": _run_lcp_select,
    "isa-count": _run_isa_count,
    "bwt-color": _run_bwt_color,
    "plcp-pred": _make_pred_runner(pred_via_plcp),
    "phi-pred": _make_pred_runner(pred_via_phi),
    "ilf-pred": _make_pred_runner(pred_via_ilf),
    "phi-inverse": _run_phi_inverse,
}


def verify_reduction(
    kind: str,
    instance: GadgetInstance,
    exhaustive: bool = True,
    *,
    sample_limit: int = 256,
    seed: int = 0,
) -> ReductionReport:
    """Replay a gadget's query domain against the direct definitions.

    With ``exhaustive`` every in-contract query — plus the out-of-band
    sentinels just outside the domain — is checked; otherwise a seeded
    sample of at most ``sample_limit`` queries is.  The report also
    compares the stored anchors against freshly recomputed ones and
    validates the closed-form LZ-like certificate of the text.

    The greedy phrase count ``z`` is read off the instance's stored
    bundle, so verification sorts nothing, and the parse is validated
    against the text itself.  Greedy LZ77 is optimal, so a faulty bundle
    can only overstate ``z`` (or yield a parse that fails validation with
    ValueError).  Raises AssertionError if the certificate has fewer
    phrases than the greedy factorization, which optimality rules out.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown gadget kind {kind!r}")
    if instance.kind != kind:
        raise ValueError(f"instance kind {instance.kind!r} does not match {kind!r}")
    queries = _query_domain(instance)
    if not exhaustive and len(queries) > sample_limit:
        queries = random.Random(seed).sample(queries, sample_limit)
    run = _QUERY_RUNNERS[kind](instance)
    mismatches = 0
    first: tuple | None = None
    for query in queries:
        got, want = run(query)
        if got != want:
            mismatches += 1
            if first is None:
                first = (query, got, want)
    certificate, bound = proof_certificate(instance)
    cert_size = validate_lz_like(instance.text, certificate)
    z = validate_lz_like(instance.text, lz77_from_bundle(instance.bundle))
    if z > cert_size:
        raise AssertionError(
            f"greedy LZ77 has {z} phrases, more than the {cert_size}-phrase certificate"
        )
    return ReductionReport(
        kind=kind,
        instances=1,
        query_count=len(queries),
        mismatch_count=mismatches,
        text_length=instance.text.n,
        rl_runs=run_length_encode(instance.text).run_count,
        lz_phrases=z,
        cert_phrases=cert_size,
        cert_bound=bound,
        anchors_consistent=recompute_anchors(instance) == dict(instance.anchors),
        first_mismatch=first,
    )


# ---------------------------------------------------------------------------
# Instance enumeration


_BUILDERS: dict[str, Callable[[Sequence[int]], GadgetInstance]] = {
    "lcp-select": lcp_select_gadget,
    "isa-count": isa_count_gadget,
    "bwt-color": bwt_color_gadget,
    "plcp-pred": plcp_pred_gadget,
    "phi-pred": phi_pred_gadget,
    "ilf-pred": ilf_pred_gadget,
}


def build_gadget(kind: str, data: Sequence[int]) -> GadgetInstance:
    """Construct a gadget of the given kind from its raw input."""
    if kind == "phi-inverse":
        symbols = tuple(int(s) for s in data)
        sigma = max(2, (max(symbols) + 1) if symbols else 2)
        return phi_inverse_transform(Text.from_symbols(symbols, sigma))
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown gadget kind {kind!r}") from None
    return builder(data)


def all_inputs(kind: str, size: int) -> Iterator[tuple[int, ...]]:
    """Every valid input of the given size, in deterministic order."""
    if size < 1:
        raise ValueError("size must be at least 1")
    if kind in ("lcp-select", "isa-count"):
        return (tuple(p) for p in itertools.permutations(range(1, size + 1)))
    if kind in ("bwt-color", "plcp-pred", "phi-pred", "ilf-pred"):
        universe = range(1, size * size + 1)
        return (tuple(c) for c in itertools.combinations(universe, size))
    if kind == "phi-inverse":
        return (tuple(bits) for bits in itertools.product((0, 1), repeat=size))
    raise ValueError(f"unknown gadget kind {kind!r}")


def random_input(kind: str, size: int, rng: random.Random) -> tuple[int, ...]:
    """One uniformly drawn valid input of the given size."""
    if size < 1:
        raise ValueError("size must be at least 1")
    if kind in ("lcp-select", "isa-count"):
        perm = list(range(1, size + 1))
        rng.shuffle(perm)
        return tuple(perm)
    if kind in ("bwt-color", "plcp-pred", "phi-pred", "ilf-pred"):
        return tuple(sorted(rng.sample(range(1, size * size + 1), size)))
    if kind == "phi-inverse":
        return tuple(rng.randrange(2) for _ in range(size))
    raise ValueError(f"unknown gadget kind {kind!r}")


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
    if exhaustive:
        inputs: Iterable[tuple[int, ...]] = all_inputs(kind, size)
    else:
        rng = random.Random(seed)
        inputs = (random_input(kind, size, rng) for _ in range(max(1, trials)))
    report: ReductionReport | None = None
    for data in inputs:
        one = verify_reduction(kind, build_gadget(kind, data))
        report = one if report is None else merge_reports(report, one)
    assert report is not None
    return report

import dataclasses
import itertools
import random
import sys

import pytest

from csq import gadgets, measures
from csq.gadgets import (
    EXHAUSTIVE_BUDGET,
    KINDS,
    all_inputs,
    build_gadget,
    color_via_bwt,
    count_via_isa,
    instance_inputs,
    invphi_via_phi,
    merge_reports,
    phi_via_invphi,
    pred_via_ilf,
    pred_via_phi,
    pred_via_plcp,
    proof_certificate,
    random_input,
    recompute_anchors,
    select_via_lcp,
    verify_many,
    verify_reduction,
)
from csq.grammar_lcp_rmq import build_lcp_rmq_index, lce_query, lcp_rmq
from csq.measures import LZFactorization, run_length_encode
from csq.rlbwt_ilf import build_ilf_index, ilf_query
from csq.text_core import Text, build_bundle, lce_naive

from conftest import FIG_ASCII, FIG_INV_PHI, FIG_PHI


def _symbol_string(gadget) -> str:
    return "".join(str(c) for c in gadget.text.symbols)


# ---------------------------------------------------------------------------
# Range selection via LCP


def test_lcp_select_rejects_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        build_gadget("lcp-select", [5, 1, 2, 8, 4, 7, 6, 2, 9])
    with pytest.raises(ValueError, match="nonempty"):
        build_gadget("lcp-select", [])


def test_lcp_select_singleton():
    g = build_gadget("lcp-select", [1])
    assert _symbol_string(g) == "010011"
    assert select_via_lcp(g, 1, 1) == 1
    assert select_via_lcp(g, 0, 1) == 1  # answered as v = 1


def test_lcp_select_query_contract():
    g = build_gadget("lcp-select", [2, 1, 3])
    with pytest.raises(ValueError, match="threshold"):
        select_via_lcp(g, 4, 1)
    with pytest.raises(ValueError, match="rank"):
        select_via_lcp(g, 2, 3)  # only two indices have A[i] >= 2
    with pytest.raises(ValueError, match="rank"):
        select_via_lcp(g, 1, 0)


def test_lcp_select_worked_instance():
    g = build_gadget("lcp-select", [2, 1, 3])
    # indices with A[i] >= 2 are {1, 3}
    assert select_via_lcp(g, 2, 1) == 1
    assert select_via_lcp(g, 2, 2) == 3
    assert select_via_lcp(g, 3, 1) == 3


def test_lcp_select_exhaustive_n4():
    report = verify_many("lcp-select", 4, exhaustive=True)
    assert report.instances == 24
    assert report.mismatch_count == 0
    assert report.ok


# ---------------------------------------------------------------------------
# Range counting via ISA


def test_isa_count_worked_example():
    g = build_gadget("isa-count", [2, 1, 3])
    assert count_via_isa(g, 2, 2) == 1
    assert count_via_isa(g, 3, 2) == 2
    assert count_via_isa(g, 2, 0) == 2  # v < 1 counts the whole prefix
    assert count_via_isa(g, 2, 4) == 0  # v > n counts nothing
    with pytest.raises(ValueError, match="prefix end"):
        count_via_isa(g, 4, 1)
    with pytest.raises(ValueError, match="prefix end"):
        count_via_isa(g, -1, 1)


def test_isa_count_singleton_shape():
    g = build_gadget("isa-count", [1])
    assert g.text.n == 13
    assert run_length_encode(g.text).run_count == 8


def test_isa_count_exhaustive_n4():
    report = verify_many("isa-count", 4, exhaustive=True)
    assert report.instances == 24
    assert report.mismatch_count == 0
    assert report.ok


# ---------------------------------------------------------------------------
# Colored predecessor via BWT


def test_bwt_color_singleton():
    g = build_gadget("bwt-color", [1])
    assert _symbol_string(g) == "011000"
    assert color_via_bwt(g, 1) == 0


def test_bwt_color_boundaries():
    g = build_gadget("bwt-color", [2, 5, 9])
    assert color_via_bwt(g, 1) == 0  # x <= min(A)
    assert color_via_bwt(g, 2) == 0
    assert color_via_bwt(g, 0) == 0  # below the universe
    assert color_via_bwt(g, 10) == 3 % 2  # above the universe


def test_set_gadget_input_validation():
    for kind in ("bwt-color", "plcp-pred", "phi-pred", "ilf-pred"):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_gadget(kind, [2, 5, 5])
        with pytest.raises(ValueError, match=r"lie in \[1"):
            build_gadget(kind, [0, 3])
        with pytest.raises(ValueError, match=r"lie in \[1"):
            build_gadget(kind, [1, 99])
        with pytest.raises(ValueError, match="nonempty"):
            build_gadget(kind, [])


def test_bwt_color_exhaustive_m2():
    report = verify_many("bwt-color", 2, exhaustive=True)
    assert report.instances == 6
    assert report.ok


# ---------------------------------------------------------------------------
# Predecessor via PLCP, Phi, and ILF


def test_plcp_pred_worked_example():
    g = build_gadget("plcp-pred", [1, 3])
    assert pred_via_plcp(g, 3) == (1, 1)
    assert pred_via_plcp(g, 4) == (2, 3)
    assert pred_via_plcp(g, 1) == (0, None)
    assert pred_via_plcp(g, 0) == (0, None)
    assert pred_via_plcp(g, 5) == (2, 3)  # above the universe


def test_phi_pred_worked_example():
    g = build_gadget("phi-pred", [1, 3])
    assert g.text.n == 28
    assert pred_via_phi(g, 2) == (1, 1)
    assert pred_via_phi(g, 1) == (0, None)


def test_ilf_pred_singleton():
    g = build_gadget("ilf-pred", [1])
    assert _symbol_string(g) == "11100011010"
    assert pred_via_ilf(g, 1) == (0, None)  # the zero sentinel ranks first


def test_pred_flavors_agree():
    rng = random.Random(0x5E7)
    for _ in range(10):
        m = rng.randint(1, 5)
        keys = tuple(sorted(rng.sample(range(1, m * m + 1), m)))
        gadgets = tuple(build_gadget(kind, keys) for kind in ("plcp-pred", "phi-pred", "ilf-pred"))
        queries = range(0, m * m + 2)
        for x in queries:
            answers = {
                pred_via_plcp(gadgets[0], x),
                pred_via_phi(gadgets[1], x),
                pred_via_ilf(gadgets[2], x),
            }
            assert len(answers) == 1


def test_pred_exhaustive_m2_all_flavors():
    for kind in ("plcp-pred", "phi-pred", "ilf-pred"):
        report = verify_many(kind, 2, exhaustive=True)
        assert report.instances == 6
        assert report.ok, report.first_mismatch


# ---------------------------------------------------------------------------
# Phi from inverse Phi and back


def test_phi_inverse_block_shape():
    g = build_gadget("phi-inverse", [1, 0])
    assert _symbol_string(g) == "00101001111"
    assert g.text.n == 5 * 2 + 1


def test_phi_inverse_sigma_validation():
    with pytest.raises(ValueError, match="empty"):
        build_gadget("phi-inverse", [])
    with pytest.raises(ValueError, match="^symbols must be non-negative integers$"):
        build_gadget("phi-inverse", [1, -1])


def test_phi_inverse_reproduces_figure_rows(fig_text):
    symbols = [1 if c == "b" else 0 for c in FIG_ASCII]
    g = build_gadget("phi-inverse", symbols)
    n = len(symbols)
    assert g.text.n == 5 * n + 1
    for j in range(1, n + 1):
        assert phi_via_invphi(g, j) == FIG_PHI[j - 1]
        assert invphi_via_phi(g, j) == FIG_INV_PHI[j - 1]


def test_phi_inverse_singleton_and_errors():
    g = build_gadget("phi-inverse", (0,))
    assert phi_via_invphi(g, 1) == 1
    assert invphi_via_phi(g, 1) == 1
    with pytest.raises(IndexError):
        phi_via_invphi(g, 2)
    with pytest.raises(IndexError):
        invphi_via_phi(g, 0)


def test_phi_inverse_exhaustive_n4():
    report = verify_many("phi-inverse", 4, exhaustive=True)
    assert report.instances == 16
    assert report.ok


def test_phi_inverse_anchors_match_a_sort_of_the_original():
    """The extreme suffixes read off the transform's suffix array are the
    original text's own, found by sorting the original independently."""
    rng = random.Random(0x5A)
    texts = [bits for n in range(1, 9) for bits in itertools.product((0, 1), repeat=n)]
    texts += [[rng.randrange(5) for _ in range(rng.randint(1, 12))] for _ in range(200)]
    for symbols in texts:
        original = Text.from_symbols(symbols, 5)
        sa = build_bundle(original).sa
        anchors = build_gadget("phi-inverse", symbols).anchors
        assert (anchors["j_lexfirst"], anchors["j_lexlast"]) == (sa[1], sa[-1]), symbols


# ---------------------------------------------------------------------------
# Certificates


def test_certificates_decode_and_respect_bounds():
    rng = random.Random(0xCE87)
    for kind, size in [
        ("lcp-select", 5),
        ("isa-count", 4),
        ("bwt-color", 4),
        ("plcp-pred", 5),
        ("phi-pred", 4),
        ("ilf-pred", 3),
        ("phi-inverse", 12),
    ]:
        g = build_gadget(kind, random_input(kind, size, rng))
        factorization, bound = proof_certificate(g)
        assert factorization.decode() == list(g.text.symbols)
        assert factorization.phrase_count <= bound


def test_block_certificate_bounds_formulas():
    g = build_gadget("bwt-color", [2, 5, 9])
    _, bound = proof_certificate(g)
    k = g.anchors["k"]
    assert bound == (3 + 1) * (2 * k + 5)
    g = build_gadget("ilf-pred", [2, 5, 9])
    _, bound = proof_certificate(g)
    k = g.anchors["k"]
    assert bound == (3 + 1) * (4 * k + 9)


# ---------------------------------------------------------------------------
# Verification harness


def test_negative_control_corrupted_anchor():
    g = build_gadget("plcp-pred", [2, 5, 9])
    bad = dataclasses.replace(
        g, anchors={**g.anchors, "delta": g.anchors["delta"] + 1}
    )
    report = verify_reduction("plcp-pred", bad)
    assert report.mismatch_count > 0
    assert not report.anchors_consistent
    assert not report.ok
    query, got, want = report.first_mismatch
    assert got != want


def test_certificate_beating_greedy_raises(monkeypatch):
    """Greedy LZ77 is optimal, so no certificate may have fewer phrases."""
    g = build_gadget("plcp-pred", [2, 5, 9])
    cert_size = proof_certificate(g)[0].phrase_count
    # The all-literal parse is valid, so only the phrase-count check fails.
    literals = LZFactorization(tuple((c, 0) for c in g.text.symbols), g.text.n)
    assert literals.phrase_count > cert_size
    monkeypatch.setattr(gadgets, "lz77_from_bundle", lambda bundle: literals)
    with pytest.raises(AssertionError, match="certificate"):
        verify_reduction("plcp-pred", g)


@pytest.mark.parametrize("kind", KINDS)
def test_certificate_over_its_bound_raises(monkeypatch, kind):
    """A certificate with more phrases than its closed-form bound is refused."""
    g = build_gadget(kind, random_input(kind, 3, random.Random(0xB0)))
    phrases = proof_certificate(g)[0].phrase_count
    spec = gadgets._TABLE[kind]
    tight = dataclasses.replace(
        spec, certificate=lambda gadget, rle: (spec.certificate(gadget, rle)[0], phrases - 1)
    )
    monkeypatch.setitem(gadgets._TABLE, kind, tight)
    message = f"^{kind} certificate has {phrases} phrases, over its closed-form bound {phrases - 1}$"
    with pytest.raises(AssertionError, match=message):
        verify_reduction(kind, g)


_MAPPINGS = [
    (select_via_lcp, "lcp-select", (1, 1)),
    (count_via_isa, "isa-count", (1, 1)),
    (color_via_bwt, "bwt-color", (1,)),
    (pred_via_plcp, "plcp-pred", (1,)),
    (pred_via_phi, "phi-pred", (1,)),
    (pred_via_ilf, "ilf-pred", (1,)),
    (phi_via_invphi, "phi-inverse", (1,)),
    (invphi_via_phi, "phi-inverse", (1,)),
]


@pytest.mark.parametrize("via, kind, query", _MAPPINGS, ids=[m[0].__name__ for m in _MAPPINGS])
def test_query_mapping_refuses_a_gadget_of_another_kind(via, kind, query):
    other = "isa-count" if kind == "lcp-select" else "lcp-select"
    g = build_gadget(other, (1,))
    with pytest.raises(ValueError, match=f"^expected a {kind} gadget, got {other}$"):
        via(g, *query)


def test_verify_rejects_bundle_with_faulty_lcp():
    """A faulty stored bundle never passes silently: zeroed LCPs overstate z
    and fail the certificate check, and inflated LCPs give a parse that does
    not spell the text, which validation rejects."""
    g = build_gadget("plcp-pred", [2, 5, 9])

    def with_lcp(lcp):
        bad = dataclasses.replace(g.bundle)
        vars(bad)["lcp"] = lcp
        vars(bad)["plcp"] = g.bundle.plcp  # the replay reads the true row
        return dataclasses.replace(g, bundle=bad)

    with pytest.raises(AssertionError, match="certificate"):
        verify_reduction("plcp-pred", with_lcp((0,) * len(g.bundle.lcp)))
    n = g.text.n
    with pytest.raises(ValueError, match="phrase"):
        verify_reduction("plcp-pred", with_lcp((0, 0) + (n,) * (n - 1)))


def test_contracts_raise_on_doctored_instances(monkeypatch):
    """The closed-form contracts are explicit raises, so they hold under -O."""
    g = build_gadget("lcp-select", [2, 1, 3])
    extra_run = dataclasses.replace(g, text=Text.from_symbols((1,) + g.text.symbols[1:], 2))
    with pytest.raises(AssertionError, match="runs, not the closed-form"):
        verify_reduction("lcp-select", extra_run)

    g = build_gadget("phi-inverse", (1, 0, 1, 1))
    bundle = dataclasses.replace(g.bundle)
    vars(bundle)["inv_phi"] = tuple(p + 1 for p in g.bundle.inv_phi)
    bad = dataclasses.replace(g, bundle=bundle)
    with pytest.raises(AssertionError, match="not a block start"):
        verify_reduction("phi-inverse", bad)

    spec = gadgets._TABLE["lcp-select"]
    longer = dataclasses.replace(spec, spell=lambda perm: spec.spell(perm) + [1])
    monkeypatch.setitem(gadgets._TABLE, "lcp-select", longer)
    with pytest.raises(AssertionError, match="length 21, not the closed-form 20"):
        build_gadget("lcp-select", [2, 1, 3])


def test_one_run_length_encoding_per_verify(monkeypatch):
    """Building a gadget encodes no runs; verifying it encodes them once."""
    calls = []
    real = measures.run_length_encode

    def counted(text):
        calls.append(text.n)
        return real(text)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "csq" and hasattr(module, "run_length_encode"):
            monkeypatch.setattr(module, "run_length_encode", counted)
    rng = random.Random(0x41E)
    for kind in KINDS:
        calls.clear()
        gadget = build_gadget(kind, random_input(kind, 3, rng))
        assert calls == [], kind
        verify_reduction(kind, gadget)
        assert calls == [gadget.text.n], kind


def test_each_kind_derives_only_the_rows_its_replay_reads():
    """A build derives LCP and the kind's ``rows`` and no other bundle row,
    so verification derives none."""
    derived_rows = {"lcp", "plcp", "bwt", "lf", "ilf", "phi", "inv_phi"}
    rng = random.Random(0x8075)
    for kind in KINDS:
        g = build_gadget(kind, random_input(kind, 3, rng))
        rows = {"lcp", *gadgets._TABLE[kind].rows}
        assert derived_rows & set(vars(g.bundle)) == rows, kind
        assert verify_reduction(kind, g).ok
        assert derived_rows & set(vars(g.bundle)) == rows, kind


def test_recompute_anchors_is_idempotent():
    rng = random.Random(0xA11C)
    for kind in KINDS:
        g = build_gadget(kind, random_input(kind, 3, rng))
        assert recompute_anchors(g) == dict(g.anchors)


def test_verify_kind_mismatch_and_unknown_kind():
    g = build_gadget("plcp-pred", [1, 3])
    with pytest.raises(ValueError, match="does not match"):
        verify_reduction("phi-pred", g)
    with pytest.raises(ValueError, match="unknown gadget kind"):
        verify_reduction("nonsense", g)
    with pytest.raises(ValueError, match="unknown gadget kind"):
        build_gadget("nonsense", [1])
    with pytest.raises(ValueError, match="unknown gadget kind"):
        list(all_inputs("nonsense", 2))
    with pytest.raises(ValueError, match="unknown gadget kind"):
        random_input("nonsense", 2, random.Random(0))


def test_merge_reports_associative_and_checked():
    rng = random.Random(0x3E6)
    reports = [
        verify_reduction("phi-pred", build_gadget("phi-pred", random_input("phi-pred", 3, rng)))
        for _ in range(3)
    ]
    left = merge_reports(merge_reports(reports[0], reports[1]), reports[2])
    right = merge_reports(reports[0], merge_reports(reports[1], reports[2]))
    assert left == right
    assert left.instances == 3
    other = verify_reduction("plcp-pred", build_gadget("plcp-pred", [1, 3]))
    with pytest.raises(ValueError, match="cannot merge"):
        merge_reports(reports[0], other)


def test_enumeration_counts_and_validity():
    assert len(list(all_inputs("lcp-select", 3))) == 6
    assert len(list(all_inputs("bwt-color", 2))) == 6
    assert len(list(all_inputs("phi-inverse", 3))) == 8
    rng = random.Random(7)
    for kind in KINDS:
        data = random_input(kind, 4, rng)
        g = build_gadget(kind, data)
        assert g.input == data
    with pytest.raises(ValueError, match="size"):
        random_input("lcp-select", 0, rng)


def test_instance_inputs_are_counted_before_enumeration():
    """Exhaustive families are counted in closed form, and a family over the
    budget is refused before any input is made; trials must be positive
    and are held to the same budget, refused before any input is drawn."""
    assert EXHAUSTIVE_BUDGET == 10**6
    for kind, size, count in [
        ("lcp-select", 9, 362_880),
        ("bwt-color", 5, 53_130),
        ("phi-inverse", 19, 2**19),
    ]:
        assert instance_inputs(kind, size, exhaustive=True)[0] == count
    for kind, size, shown in [
        ("isa-count", 10, "3628800"),
        ("plcp-pred", 6, "1947792"),
        ("phi-inverse", 20, "1048576"),
        ("lcp-select", 10**9, "more than 2\\*\\*63"),
    ]:
        with pytest.raises(ValueError, match=f"has {shown} inputs, over the exhaustive budget"):
            all_inputs(kind, size)
    count, inputs = instance_inputs("ilf-pred", 3, trials=4, seed=1)
    assert count == 4 and len(list(inputs)) == 4
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            verify_many("lcp-select", 3, trials=trials)
    assert instance_inputs("lcp-select", 3, trials=EXHAUSTIVE_BUDGET)[0] == EXHAUSTIVE_BUDGET
    for trials in (EXHAUSTIVE_BUDGET + 1, 10**12):
        with pytest.raises(ValueError, match=f"{trials} trials are over the exhaustive budget"):
            instance_inputs("lcp-select", 3, trials=trials)


def test_seeded_random_instances_all_kinds():
    rng = random.Random(0xF00D)
    for kind, top in [
        ("lcp-select", 10),
        ("isa-count", 8),
        ("bwt-color", 6),
        ("plcp-pred", 8),
        ("phi-pred", 7),
        ("ilf-pred", 4),
        ("phi-inverse", 24),
    ]:
        for _ in range(6):
            size = rng.randint(1, top)
            report = verify_reduction(kind, build_gadget(kind, random_input(kind, size, rng)))
            assert report.ok, (kind, size, report.first_mismatch)
            assert report.cert_phrases <= report.cert_bound
            assert report.lz_phrases <= report.cert_phrases


# ---------------------------------------------------------------------------
# Gadget texts through the compressed indexes


@pytest.mark.parametrize("kind", KINDS)
def test_compressed_indexes_answer_on_gadget_texts(kind):
    """One seeded instance per kind at the acceptance caps (32; ilf-pred 8),
    texts of long runs and framed codes: the inverse-LF index equals the
    bundle's ILF row everywhere, lcp_rmq gives the leftmost minimum of its
    LCP slice, and lce_query equals a direct comparison."""
    rng = random.Random(0x15_00 + KINDS.index(kind))
    size = 8 if kind == "ilf-pred" else 32
    gadget = build_gadget(kind, random_input(kind, size, rng))
    text, bundle = gadget.text, gadget.bundle
    n = text.n
    ilf = build_ilf_index(text)
    assert [ilf_query(ilf, i) for i in range(1, n + 1)] == list(bundle.ilf[1:])
    grammar = build_lcp_rmq_index(text)
    lcp = bundle.lcp
    for _ in range(300):
        b = rng.randrange(n)
        e = rng.randint(b + 1, n)
        window = lcp[b + 1 : e + 1]
        assert lcp_rmq(grammar, b, e) == b + 1 + window.index(min(window)), (kind, b, e)
    for _ in range(300):
        i, j = rng.randint(1, n), rng.randint(1, n)
        assert lce_query(grammar, i, j) == lce_naive(text, i, j), (kind, i, j)

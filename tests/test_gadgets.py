import dataclasses
import random

import pytest

from csq import gadgets
from csq.gadgets import (
    KINDS,
    all_inputs,
    build_gadget,
    bwt_color_gadget,
    color_via_bwt,
    count_via_isa,
    ilf_pred_gadget,
    invphi_via_phi,
    isa_count_gadget,
    lcp_select_gadget,
    merge_reports,
    phi_inverse_transform,
    phi_pred_gadget,
    phi_via_invphi,
    plcp_pred_gadget,
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
from csq.measures import LZFactorization, run_length_encode
from csq.text_core import Text

from conftest import FIG_ASCII, FIG_INV_PHI, FIG_PHI


def _symbol_string(gadget) -> str:
    return "".join(str(c) for c in gadget.text.symbols)


# ---------------------------------------------------------------------------
# Range selection via LCP


def test_lcp_select_rejects_non_permutation():
    with pytest.raises(ValueError, match="not a permutation"):
        lcp_select_gadget([5, 1, 2, 8, 4, 7, 6, 2, 9])
    with pytest.raises(ValueError, match="nonempty"):
        lcp_select_gadget([])


def test_lcp_select_singleton():
    g = lcp_select_gadget([1])
    assert _symbol_string(g) == "010011"
    assert select_via_lcp(g, 1, 1) == 1
    assert select_via_lcp(g, 0, 1) == 1  # answered as v = 1


def test_lcp_select_query_contract():
    g = lcp_select_gadget([2, 1, 3])
    with pytest.raises(ValueError, match="threshold"):
        select_via_lcp(g, 4, 1)
    with pytest.raises(ValueError, match="rank"):
        select_via_lcp(g, 2, 3)  # only two indices have A[i] >= 2
    with pytest.raises(ValueError, match="rank"):
        select_via_lcp(g, 1, 0)


def test_lcp_select_worked_instance():
    g = lcp_select_gadget([2, 1, 3])
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
    g = isa_count_gadget([2, 1, 3])
    assert count_via_isa(g, 2, 2) == 1
    assert count_via_isa(g, 3, 2) == 2
    assert count_via_isa(g, 2, 0) == 2  # v < 1 counts the whole prefix
    assert count_via_isa(g, 2, 4) == 0  # v > n counts nothing
    with pytest.raises(ValueError, match="prefix end"):
        count_via_isa(g, 4, 1)
    with pytest.raises(ValueError, match="prefix end"):
        count_via_isa(g, -1, 1)


def test_isa_count_singleton_shape():
    g = isa_count_gadget([1])
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
    g = bwt_color_gadget([1])
    assert _symbol_string(g) == "011000"
    assert color_via_bwt(g, 1) == 0


def test_bwt_color_boundaries():
    g = bwt_color_gadget([2, 5, 9])
    assert color_via_bwt(g, 1) == 0  # x <= min(A)
    assert color_via_bwt(g, 2) == 0
    assert color_via_bwt(g, 0) == 0  # below the universe
    assert color_via_bwt(g, 10) == 3 % 2  # above the universe


def test_set_gadget_input_validation():
    for build in (bwt_color_gadget, plcp_pred_gadget, phi_pred_gadget, ilf_pred_gadget):
        with pytest.raises(ValueError, match="strictly increasing"):
            build([2, 5, 5])
        with pytest.raises(ValueError, match=r"lie in \[1"):
            build([0, 3])
        with pytest.raises(ValueError, match=r"lie in \[1"):
            build([1, 99])
        with pytest.raises(ValueError, match="exactly m"):
            build([1, 3], m=3)
        with pytest.raises(ValueError, match="exactly m"):
            build([])


def test_bwt_color_exhaustive_m2():
    report = verify_many("bwt-color", 2, exhaustive=True)
    assert report.instances == 6
    assert report.ok


# ---------------------------------------------------------------------------
# Predecessor via PLCP, Phi, and ILF


def test_plcp_pred_worked_example():
    g = plcp_pred_gadget([1, 3])
    assert pred_via_plcp(g, 3) == (1, 1)
    assert pred_via_plcp(g, 4) == (2, 3)
    assert pred_via_plcp(g, 1) == (0, None)
    assert pred_via_plcp(g, 0) == (0, None)
    assert pred_via_plcp(g, 5) == (2, 3)  # above the universe


def test_phi_pred_worked_example():
    g = phi_pred_gadget([1, 3])
    assert g.text.n == 28
    assert pred_via_phi(g, 2) == (1, 1)
    assert pred_via_phi(g, 1) == (0, None)


def test_ilf_pred_singleton():
    g = ilf_pred_gadget([1])
    assert _symbol_string(g) == "11100011010"
    assert pred_via_ilf(g, 1) == (0, None)  # the zero sentinel ranks first


def test_pred_flavors_agree():
    rng = random.Random(0x5E7)
    for _ in range(10):
        m = rng.randint(1, 5)
        keys = tuple(sorted(rng.sample(range(1, m * m + 1), m)))
        gadgets = (plcp_pred_gadget(keys), phi_pred_gadget(keys), ilf_pred_gadget(keys))
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
    g = phi_inverse_transform(Text.from_symbols([1, 0], 2))
    assert _symbol_string(g) == "00101001111"
    assert g.text.n == 5 * 2 + 1


def test_phi_inverse_sigma_validation():
    with pytest.raises(ValueError, match="sigma"):
        phi_inverse_transform(Text.from_symbols([0, 1, 2], 3), sigma=2)
    with pytest.raises(ValueError, match="empty"):
        phi_inverse_transform(Text.from_symbols([], 2))


def test_phi_inverse_reproduces_figure_rows(fig_text):
    symbols = [1 if c == "b" else 0 for c in FIG_ASCII]
    g = phi_inverse_transform(Text.from_symbols(symbols, 2))
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
    g = bwt_color_gadget([2, 5, 9])
    _, bound = proof_certificate(g)
    k = g.anchors["k"]
    assert bound == (3 + 1) * (2 * k + 5)
    g = ilf_pred_gadget([2, 5, 9])
    _, bound = proof_certificate(g)
    k = g.anchors["k"]
    assert bound == (3 + 1) * (4 * k + 9)


# ---------------------------------------------------------------------------
# Verification harness


def test_negative_control_corrupted_anchor():
    g = plcp_pred_gadget([2, 5, 9])
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
    g = plcp_pred_gadget([2, 5, 9])
    cert_size = proof_certificate(g)[0].phrase_count
    # The all-literal parse is valid, so only the phrase-count check fails.
    literals = LZFactorization(tuple((c, 0) for c in g.text.symbols), g.text.n)
    assert literals.phrase_count > cert_size
    monkeypatch.setattr(gadgets, "lz77_from_bundle", lambda bundle: literals)
    with pytest.raises(AssertionError, match="certificate"):
        verify_reduction("plcp-pred", g)


def test_verify_rejects_bundle_with_faulty_lcp():
    """A faulty stored bundle never passes silently: zeroed LCPs overstate z
    and fail the certificate check, and inflated LCPs give a parse that does
    not spell the text, which validation rejects."""
    g = plcp_pred_gadget([2, 5, 9])

    def with_lcp(lcp):
        return dataclasses.replace(g, bundle=dataclasses.replace(g.bundle, lcp=lcp))

    with pytest.raises(AssertionError, match="certificate"):
        verify_reduction("plcp-pred", with_lcp((0,) * len(g.bundle.lcp)))
    n = g.text.n
    with pytest.raises(ValueError, match="phrase"):
        verify_reduction("plcp-pred", with_lcp((0, 0) + (n,) * (n - 1)))


def test_recompute_anchors_is_idempotent():
    rng = random.Random(0xA11C)
    for kind in KINDS:
        g = build_gadget(kind, random_input(kind, 3, rng))
        assert recompute_anchors(g) == dict(g.anchors)


def test_verify_kind_mismatch_and_unknown_kind():
    g = plcp_pred_gadget([1, 3])
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


def test_query_sampling_is_deterministic():
    g = build_gadget("isa-count", (3, 1, 4, 2, 5))
    full = verify_reduction("isa-count", g)
    a = verify_reduction("isa-count", g, exhaustive=False, sample_limit=8, seed=5)
    b = verify_reduction("isa-count", g, exhaustive=False, sample_limit=8, seed=5)
    assert a.query_count == 8 < full.query_count
    assert a == b
    assert a.mismatch_count == 0


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
    other = verify_reduction("plcp-pred", plcp_pred_gadget([1, 3]))
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

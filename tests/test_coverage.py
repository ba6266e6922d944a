import pytest

from rvvfuzz.coverage import (
    CoverageError,
    category_breakdown,
    compute_coverage,
    family_of,
    format_report,
)
from rvvfuzz.intrinsics import parse_definitions

from reference import compute_coverage as reference_coverage

TWO_DEFS = "\n".join(
    [
        "vint8m1_t __riscv_vadd_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, size_t vl);",
        "vint8m1_t __riscv_vmax(vint8m1_t vs2, vint8m1_t vs1, size_t vl);",
        "vint16m1_t __riscv_vmax(vint16m1_t vs2, vint16m1_t vs1, size_t vl);",
    ]
)


def test_formula_arithmetic():
    defs = parse_definitions(TWO_DEFS)  # weights: vadd..=1, vmax=2
    corpus = ["__riscv_vadd_vv_i8m1(); __riscv_vadd_vv_i8m1(); __riscv_vadd_vv_i8m1(); __riscv_vmax();"]
    rep = compute_coverage(corpus, defs)
    assert rep.per_intrinsic["__riscv_vadd_vv_i8m1"] == (3, 1, 1)
    assert rep.per_intrinsic["__riscv_vmax"] == (1, 2, 1)
    assert rep.overall == pytest.approx(2 / 3)


def test_zero_occurrences():
    defs = parse_definitions(TWO_DEFS)
    assert compute_coverage(["int main(void){}"], defs).overall == 0.0


def test_empty_defs_error():
    with pytest.raises(CoverageError):
        compute_coverage(["x"], [])


def test_whole_token_matching_no_prefix_double_count():
    listing = "\n".join(
        [
            "vint8m1_t __riscv_vadd_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, size_t vl);",
            "vint8m1_t __riscv_vadd_vv_i8m1_m(vbool8_t vm, vint8m1_t vs2, vint8m1_t vs1, size_t vl);",
        ]
    )
    defs = parse_definitions(listing)
    rep = compute_coverage(["__riscv_vadd_vv_i8m1_m(m, a, b, vl);"], defs)
    assert rep.per_intrinsic["__riscv_vadd_vv_i8m1_m"][0] == 1
    assert rep.per_intrinsic["__riscv_vadd_vv_i8m1"][0] == 0


def test_monotone_and_saturating():
    defs = parse_definitions(TWO_DEFS)
    corpus = []
    prev = 0.0
    for _ in range(5):
        corpus.append("__riscv_vmax();")
        cov = compute_coverage(corpus, defs).overall
        assert cov >= prev
        prev = cov
    # appearing more often than its weight contributes exactly the weight
    rep = compute_coverage(corpus, defs)
    assert rep.per_intrinsic["__riscv_vmax"] == (5, 2, 2)


def test_determinism():
    defs = parse_definitions(TWO_DEFS)
    corpus = ["__riscv_vmax(); __riscv_vadd_vv_i8m1();"] * 3
    a = compute_coverage(corpus, defs)
    b = compute_coverage(corpus, defs)
    assert a == b


def test_family_partition(catalog_defs):
    rep = compute_coverage(["__riscv_vadd_vv_i8m1();"], catalog_defs)
    breakdown = category_breakdown(rep, catalog_defs)
    total_contrib = sum(a for a, _, _ in breakdown.values())
    total_weight = sum(b for _, b, _ in breakdown.values())
    assert total_contrib == rep.contribution()
    assert total_weight == rep.weight_total()


def test_pure_vadd_corpus_hits_only_arithmetic(catalog_defs):
    rep = compute_coverage(
        ["__riscv_vadd_vv_i8m1(a, b, vl); __riscv_vadd_vx_u16m2(a, 3, vl);"],
        catalog_defs,
    )
    breakdown = category_breakdown(rep, catalog_defs)
    assert breakdown["arithmetic"][0] > 0
    for fam, (contrib, _, _) in breakdown.items():
        if fam != "arithmetic":
            assert contrib == 0, fam


def test_family_of_spot_checks(catalog_defs):
    by_name = {d.full_name: d for d in catalog_defs}
    assert family_of(by_name["__riscv_vle8_v_i8m1"]) == "load/store"
    assert family_of(by_name["__riscv_vlseg2e8_v_i8m1x2"]) == "segment load/store"
    assert family_of(by_name["__riscv_vadd_vv_i8m1"]) == "arithmetic"
    assert family_of(by_name["__riscv_vmand_mm_b8"]) == "mask"
    assert family_of(by_name["__riscv_vredsum_vs_i8m1_i8m1"]) == "reduction"
    assert family_of(by_name["__riscv_vslideup_vx_i8m1"]) == "permutation"
    assert family_of(by_name["__riscv_vreinterpret_v_i8mf8_u8mf8"]) == "conversion"
    assert family_of(by_name["__riscv_vsetvl_e8m1"]) == "misc"


def test_format_report_smoke():
    defs = parse_definitions(TWO_DEFS)
    rep = compute_coverage(["__riscv_vmax();"], defs)
    text = format_report(rep, category_breakdown(rep, defs))
    assert "overall intrinsic coverage" in text
    assert "arithmetic" in text


def _assert_same_report(got, want):
    assert got.overall == want.overall
    assert got.naming_totals == want.naming_totals
    assert got.per_intrinsic == want.per_intrinsic
    assert got.corpus_size == want.corpus_size


def test_matches_reference_on_catalog_seeds(catalog_gen):
    corpus = [c.source for seed in range(200) for c in catalog_gen.cases(seed)]
    _assert_same_report(compute_coverage(corpus, catalog_gen.defs),
                        reference_coverage(corpus, catalog_gen.defs))


def test_matches_reference_with_unlisted_and_prefix_names(catalog_defs):
    corpus = [
        # listed, a prefix of a listed name, an unlisted name, a name inside
        # a longer identifier, and a listed name that outruns its weight
        "__riscv_vadd_vv_i8m1(a, b, vl); __riscv_vadd_vv_i8m1_m(m, a, b, vl);",
        "__riscv_vadd_vv(a, b); __riscv_vfoo_vv_i8m1(a); x__riscv_vsub_vv_i8m1(a);",
        "__riscv_vadd_vv_i8m1(a, b, vl); __riscv_vadd_vv_i8m1(a, b, vl);",
        "",
    ]
    _assert_same_report(compute_coverage(corpus, catalog_defs),
                        reference_coverage(corpus, catalog_defs))
    defs = parse_definitions(TWO_DEFS)  # weights: vadd..=1, vmax=2
    for extra in ([], ["__riscv_vmax();"], ["__riscv_vmax();"] * 3):
        _assert_same_report(compute_coverage(corpus + extra, defs),
                            reference_coverage(corpus + extra, defs))


def test_generator_and_list_give_equal_reports(catalog_gen):
    sources = [catalog_gen.case(seed, "allin").source for seed in range(50)]
    from_list = compute_coverage(sources, catalog_gen.defs)
    from_generator = compute_coverage((s for s in sources), catalog_gen.defs)
    assert from_generator == from_list
    assert from_generator.corpus_size == 50

import random
import re
from fractions import Fraction

import pytest

from rvvfuzz.catalog import build_listing
from rvvfuzz.intrinsics import (
    AlignmentError,
    is_ratio_aligned,
    is_reduction,
    parse_definitions,
    parse_prototype,
)
from rvvfuzz.pipeline import Generator
from rvvfuzz.selection import (
    SelectionConfig,
    SelectionError,
    can_participate,
    filter_candidates,
    reduction_vs2,
    select_sequence,
)
from rvvfuzz.semantics import is_generatable
from rvvfuzz.types import BOOL_RATIOS

_LMULS = {"mf8": Fraction(1, 8), "mf4": Fraction(1, 4), "mf2": Fraction(1, 2),
          "m1": 1, "m2": 2, "m4": 4, "m8": 8}
_VTYPE_RE = re.compile(r"v(?:int|uint|float)(8|16|32|64)(mf?[1248])(?:x[2-8])?_t")
_BOOL_RE = re.compile(r"vbool(\d+)_t")


def signature_ratios(d) -> set[int]:
    """Independent ratio audit straight off the C type spellings."""
    text = d.ret_ctype + " " + " ".join(p.ctype for p in d.params)
    ratios = set()
    for sew, lm in _VTYPE_RE.findall(text):
        ratios.add(int(Fraction(int(sew)) / _LMULS[lm]))
    for r in _BOOL_RE.findall(text):
        ratios.add(int(r))
    return ratios


@pytest.fixture(scope="module")
def defs(catalog_defs):
    return catalog_defs


def test_filter_keeps_ratio16_float_add(defs):
    cands = filter_candidates(defs, 16)
    names = {d.full_name for d in cands}
    assert "__riscv_vfadd_vv_f32m2" in names
    assert "__riscv_vadd_vv_u8m1_m" not in names  # ratio 8


def test_filter_keeps_masked_add_at_ratio8(defs):
    names = {d.full_name for d in filter_candidates(defs, 8)}
    assert "__riscv_vadd_vv_u8m1_m" in names


def test_reduction_rule(defs):
    # vs2 governs: i8m4 has ratio 2, so the op joins ratio-2 pools only
    name = "__riscv_vredsum_vs_i8m4_i8m1"
    assert name not in {d.full_name for d in filter_candidates(defs, 16)}
    assert name in {d.full_name for d in filter_candidates(defs, 2)}


def test_always_undefined_kept_but_flagged(defs):
    from rvvfuzz.selection import is_quarantined

    cands = filter_candidates(defs, 32)
    ext = [d for d in cands if d.full_name == "__riscv_vlmul_ext_v_f16mf2_f16m1"]
    assert ext and is_quarantined(ext[0])


def test_no_loads_stores_ignored_in_pool(defs):
    for ratio in (1, 2, 4, 8, 16, 32, 64):
        for d in filter_candidates(defs, ratio):
            assert d.category == "Operation"


def test_empty_pool_is_an_error():
    only_loads = parse_definitions(
        "vint8m1_t __riscv_vle8_v_i8m1(const int8_t *rs1, size_t vl);"
    )
    with pytest.raises(SelectionError, match="ratio 8"):
        filter_candidates(only_loads, 8)


def reference_can_participate(d, ratio: int) -> bool:
    """The ratio rule checked one ratio at a time, as a reference."""
    if not is_generatable(d):
        return False
    if is_reduction(d):
        return reduction_vs2(d).vtype.ratio == ratio
    try:
        aligned, common = is_ratio_aligned(d)
    except AlignmentError:
        return False
    if aligned:
        return common == ratio
    if ratio not in [t.ratio for t in d.vector_types()]:
        return False
    return all(p.vtype.ratio <= ratio for p in d.params if p.vtype is not None)


@pytest.mark.parametrize("fixture", ["catalog_gen", "subset_gen"])
def test_pools_are_one_pass_views_of_can_participate(fixture, request):
    gen = request.getfixturevalue(fixture)
    for ratio in BOOL_RATIOS:
        want = [d for d in gen.defs if can_participate(d, ratio)]
        assert want == [d for d in gen.defs if reference_can_participate(d, ratio)]
        got = gen.pool(ratio)
        # the same objects in the same order: select_sequence draws by index
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want)), ratio
    for ratio in (0, 3, 128):
        with pytest.raises(SelectionError, match=f"ratio {ratio} "):
            gen.pool(ratio)


def test_generator_without_operations_fails_at_pool_not_construction():
    gen = Generator(
        "vint8m1_t __riscv_vle8_v_i8m1(const int8_t *rs1, size_t vl);\n"
        "void __riscv_vse8_v_i8m1(int8_t *rs1, vint8m1_t vs3, size_t vl);\n"
    )
    with pytest.raises(SelectionError, match="ratio 8"):
        gen.pool(8)


def test_single_candidate():
    d = parse_prototype(
        "vint8m1_t __riscv_vadd_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, size_t vl);"
    )
    cfg = SelectionConfig.from_type_token("i8m1", seq_len=1, rng_seed=7)
    assert select_sequence([d], cfg) == [d]


def test_determinism(defs):
    cands = filter_candidates(defs, 8)
    cfg = SelectionConfig(8, 3, rng_seed=1234)
    a = [d.full_name for d in select_sequence(cands, cfg)]
    b = [d.full_name for d in select_sequence(cands, cfg)]
    assert a == b


def test_sequences_are_ratio_aligned_by_audit(defs):
    # Definition 2 audit: every drawn op must expose the common ratio, and all
    # fully aligned ops must agree on it.  Quantified over 1,000 random seeds.
    for ratio in (1, 8, 16, 64):
        cands = filter_candidates(defs, ratio)
        for seed in range(250):
            cfg = SelectionConfig(ratio, 10, rng_seed=seed)
            seq = select_sequence(cands, cfg)
            for d in seq:
                ratios = signature_ratios(d)
                assert ratios, d.full_name
                from rvvfuzz.intrinsics import is_reduction
                if is_reduction(d):
                    from rvvfuzz.selection import reduction_vs2
                    assert reduction_vs2(d).vtype.ratio == ratio
                elif len(ratios) == 1:
                    assert ratios == {ratio}
                else:
                    assert ratio in ratios


def test_config_validation():
    with pytest.raises(SelectionError):
        SelectionConfig(8, 0)
    with pytest.raises(SelectionError):
        SelectionConfig(5, 1)
    assert SelectionConfig.from_type_token("f32m2", 4).common_ratio == 16

import random
import re
from fractions import Fraction

import pytest

from rvvfuzz.catalog import build_listing
from rvvfuzz.dataflow import OpInstance, allocate
from rvvfuzz.intrinsics import (
    AlignmentError,
    is_ratio_aligned,
    is_reduction,
    parse_definitions,
    parse_prototype,
)
from rvvfuzz.pipeline import Generator
from rvvfuzz.selection import (
    SelectionError,
    participating_ratios,
    ratio_pools,
    reduction_vs2,
    select_sequence,
)
from rvvfuzz.semantics import UNINITIALIZED, is_generatable, semantic_class
from rvvfuzz.types import BOOL_RATIOS, TypeError_

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
def gen(catalog_gen):
    return catalog_gen


def _names(pool):
    return {d.full_name for d in pool}


def test_filter_keeps_ratio16_float_add(gen):
    names = _names(gen.pool(16))
    assert "__riscv_vfadd_vv_f32m2" in names
    assert "__riscv_vadd_vv_u8m1_m" not in names  # ratio 8


def test_filter_keeps_masked_add_at_ratio8(gen):
    assert "__riscv_vadd_vv_u8m1_m" in _names(gen.pool(8))


def test_reduction_rule(gen):
    # vs2 governs: i8m4 has ratio 2, so the op joins ratio-2 pools only
    name = "__riscv_vredsum_vs_i8m4_i8m1"
    assert name not in _names(gen.pool(16))
    assert name in _names(gen.pool(2))


def test_always_undefined_kept_but_flagged(gen):
    ext = [d for d in gen.pool(32) if d.full_name == "__riscv_vlmul_ext_v_f16mf2_f16m1"]
    assert ext and semantic_class(ext[0]) == UNINITIALIZED
    (op,) = allocate([OpInstance(ext[0])], random.Random(0))
    assert op.bound_return.quarantined


def test_no_loads_stores_ignored_in_pool(gen):
    for ratio in (1, 2, 4, 8, 16, 32, 64):
        for d in gen.pool(ratio):
            assert d.category == "Operation"


def test_empty_pool_is_an_error():
    only_loads = parse_definitions(
        "vint8m1_t __riscv_vle8_v_i8m1(const int8_t *rs1, size_t vl);"
    )
    assert ratio_pools(only_loads) == {}
    with pytest.raises(SelectionError, match="empty candidate set"):
        select_sequence([], 1, random.Random(0))


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
        want = [d for d in gen.defs if ratio in participating_ratios(d)]
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
    assert select_sequence([d], 1, random.Random(7)) == [d]


def test_determinism(gen):
    cands = gen.pool(8)
    a = [d.full_name for d in select_sequence(cands, 3, random.Random(1234))]
    b = [d.full_name for d in select_sequence(cands, 3, random.Random(1234))]
    assert a == b


def test_sequences_are_ratio_aligned_by_audit(gen):
    # Definition 2 audit: every drawn op must expose the common ratio, and all
    # fully aligned ops must agree on it.  Quantified over 1,000 random seeds.
    for ratio in (1, 8, 16, 64):
        cands = gen.pool(ratio)
        for seed in range(250):
            seq = select_sequence(cands, 10, random.Random(f"select:{seed}"))
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


def test_config_validation(gen):
    with pytest.raises(SelectionError):
        gen.build(0, seq_len=0)
    for token in ("i8m3", "f8m1", "e32m1"):  # the ratio comes from a legal type token
        with pytest.raises(TypeError_):
            gen.build(0, ratio_token=token)
    assert gen.build(0, ratio_token="f32m2", seq_len=4).ratio == 16

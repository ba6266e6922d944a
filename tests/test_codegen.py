import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from rvvfuzz.catalog import build_listing
from rvvfuzz.codegen import (
    CodegenError,
    ScalarValue,
    _is_nan,
    _mask_bytes,
    emit_case,
    gen_scalar,
    gen_values,
    nan_squash_bits,
    render_int,
)
from rvvfuzz.pipeline import Generator
from rvvfuzz.semantics import VD_INPUT_STEMS

from reference import analyze_agnostic_per_lane

MINIMAL_LISTING = "\n".join(
    [
        "vfloat32m2_t __riscv_vle32_v_f32m2(const float *rs1, size_t vl);",
        "void __riscv_vse32_v_f32m2(float *rs1, vfloat32m2_t vs3, size_t vl);",
        "vfloat32m2_t __riscv_vfadd_vv_f32m2(vfloat32m2_t vs2, vfloat32m2_t vs1, size_t vl);",
    ]
)

INT_LISTING = "\n".join(
    [
        "vint8m1_t __riscv_vle8_v_i8m1(const int8_t *rs1, size_t vl);",
        "void __riscv_vse8_v_i8m1(int8_t *rs1, vint8m1_t vs3, size_t vl);",
        "vint8m1_t __riscv_vadd_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, size_t vl);",
        "vint8m1_t __riscv_vadd_vv_i8m1_m(vbool8_t vm, vint8m1_t vs2, vint8m1_t vs1, size_t vl);",
    ]
)


# -- scalar data generation --------------------------------------------------

@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_int8_range(seed):
    v = gen_scalar("int", 8, random.Random(seed))
    assert -128 <= v.value <= 127


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_uint16_range(seed):
    v = gen_scalar("uint", 16, random.Random(seed))
    assert 0 <= v.value <= 65535


def test_all_kind_width_ranges():
    rng = random.Random(0)
    for width in (8, 16, 32, 64):
        for _ in range(2000):
            v = gen_scalar("int", width, rng)
            assert -(1 << (width - 1)) <= v.value <= (1 << (width - 1)) - 1
            u = gen_scalar("uint", width, rng)
            assert 0 <= u.value < (1 << width)
    for _ in range(2000):
        b = gen_scalar("bool", 1, rng)
        assert b.bits in (0, 1)


def test_float_never_nan():
    rng = random.Random(1)
    for width in (16, 32, 64):
        for _ in range(5000):
            v = gen_scalar("float", width, rng)
            assert not _is_nan(v.bits, width)


def test_nan_replaced_by_zero():
    # a NaN pattern must come out as +0.0
    class FixedRng:
        def __init__(self, v):
            self.v = v

        def randrange(self, n):
            return self.v

        def getrandbits(self, k):  # the bulk draw's primitive
            return self.v

    assert gen_scalar("float", 32, FixedRng(0x7FC00001)).bits == 0
    assert gen_scalar("float", 16, FixedRng(0x7E00)).bits == 0
    assert nan_squash_bits(0x7FF0000000000001, 64) == 0
    assert nan_squash_bits(0x3FF0000000000000, 64) == 0x3FF0000000000000


def test_unsupported_pairs_rejected():
    rng = random.Random(2)
    with pytest.raises(CodegenError):
        gen_scalar("float", 8, rng)
    with pytest.raises(CodegenError):
        gen_scalar("int", 7, rng)
    with pytest.raises(CodegenError):
        gen_scalar("complex", 32, rng)


SCALAR_PAIRS = [("bool", 1)] + [(k, w) for k in ("int", "uint") for w in (8, 16, 32, 64)] + [
    ("float", w) for w in (16, 32, 64)]


def _randrange_bits(kind, width, rng):
    """One value drawn the way the generator drew it before bulk draws."""
    if kind == "int":
        v = rng.randrange(-(1 << (width - 1)), 1 << (width - 1))
        return v & ((1 << width) - 1)
    bits = rng.randrange(1 << width)
    return 0 if kind == "float" and _is_nan(bits, width) else bits


@pytest.mark.parametrize("kind,width", SCALAR_PAIRS)
def test_bulk_draw_matches_randrange_stream(kind, width):
    for seed in range(20):
        for count in (0, 1, 7, 64):
            bulk_rng, one_rng, scalar_rng = (random.Random(seed) for _ in range(3))
            bulk = gen_values(kind, width, count, bulk_rng)
            assert [v.bits for v in bulk] == [
                _randrange_bits(kind, width, one_rng) for _ in range(count)]
            assert bulk == [gen_scalar(kind, width, scalar_rng) for _ in range(count)]
            assert bulk_rng.getstate() == one_rng.getstate() == scalar_rng.getstate()
            assert all(v.kind == kind and v.width == width for v in bulk)


def test_mask_bytes_match_randrange_stream():
    for seed in range(20):
        bulk_rng, one_rng = random.Random(seed), random.Random(seed)
        assert _mask_bytes(40, bulk_rng) == [
            ScalarValue("int", 8, one_rng.randrange(2)) for _ in range(40)]
        assert bulk_rng.getstate() == one_rng.getstate()


def test_render_int_edges():
    assert render_int(ScalarValue("int", 64, (1 << 63))) == "(-9223372036854775807LL - 1)"
    assert render_int(ScalarValue("uint", 64, 2**64 - 1)) == "18446744073709551615ULL"
    assert render_int(ScalarValue("int", 8, 0x80)) == "-128"


# -- program emission --------------------------------------------------------

def test_minimal_case_skeleton():
    ir = Generator(MINIMAL_LISTING).build(3, seq_len=1, data_len=3, ratio_token="f32m2")
    case = emit_case(ir, "unit")
    src = case.source
    assert "__riscv_vsetvl_e" in src
    assert "__riscv_vle32_v_f32m2(" in src
    assert "__riscv_vfadd_vv_f32m2(" in src
    assert "__riscv_vse32_v_f32m2(" in src
    assert "for (size_t vl; avl > 0; avl -= vl)" in src
    assert re.search(r"p_\w+ \+= vl", src)


def test_determinism_byte_identical(catalog_gen):
    a = emit_case(catalog_gen.build(42), "random").source
    b = emit_case(catalog_gen.build(42), "random").source
    assert a == b


def test_modes_share_phase_a(catalog_gen):
    ir = catalog_gen.build(7)
    sources = {m: emit_case(ir, m).source for m in ("allin", "unit", "random")}
    # same arrays and initializers in every variant
    for m in ("unit", "random"):
        for line in sources["allin"].splitlines():
            if line.startswith("static ") and "sink" not in line:
                assert line in sources[m]
    # identical manifests
    cases = [emit_case(ir, m) for m in ("allin", "unit", "random")]
    assert cases[0].manifest == cases[1].manifest == cases[2].manifest


def test_load_store_memory_separation(catalog_gen):
    for seed in range(30):
        ir = catalog_gen.build(seed, seq_len=6, data_len=10)
        case = emit_case(ir, "random")
        load_ptrs = {f"p_{a.name}" for a in ir.arrays if a.role != "store-destination"}
        store_ptrs = {f"p_{a.name}" for a in ir.arrays if a.role == "store-destination"}
        assert not (load_ptrs & store_ptrs)
        for line in case.source.splitlines():
            stripped = line.strip()
            if stripped.startswith("__riscv_vs"):  # store call statements
                assert not any(p + "," in stripped or p + ")" in stripped
                               for p in load_ptrs - store_ptrs)
        # loads never name a store-destination pointer
        for line in case.source.splitlines():
            m = re.match(r"\s*(?:\w+ )?vreg_\d+_mem = __riscv_vl\w+\((p_\w+)", line)
            if m:
                assert m.group(1) in load_ptrs


def test_masked_off_positions_not_printed():
    gen = Generator(INT_LISTING)
    for seed in range(50):
        ir = gen.build(seed, seq_len=2, data_len=6, ratio_token="i8m1")
        masked = [
            op for op in ir.ops if op.def_.full_name.endswith("_m")
        ]
        if not masked:
            continue
        # positions printed for an array written only by a masked op must be
        # a subset of the mask's one-positions
        for op in masked:
            reg = op.bound_return
            writers = [o for o in ir.ops if o.bound_return is reg]
            if writers[-1] is not op:
                continue
            mask_reg = next(
                b for b, p in zip(op.bound_params, op.def_.params) if p.role == "mask"
            )
            plan = ir.load_plans.get(mask_reg.id)
            if plan is None:
                continue  # mask produced by a compare, not pattern-known
            ones = {i for i, v in enumerate(plan.array.values) if v.bits == 1}
            arr = ir.store_plans[reg.id].array.name
            printed = {i for (name, i) in ir.manifest if name == arr}
            assert printed <= ones


def test_unmasked_chain_fully_defined():
    listing = "\n".join(
        [
            "vint8m1_t __riscv_vle8_v_i8m1(const int8_t *rs1, size_t vl);",
            "void __riscv_vse8_v_i8m1(int8_t *rs1, vint8m1_t vs3, size_t vl);",
            "vint8m1_t __riscv_vadd_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, size_t vl);",
        ]
    )
    ir = Generator(listing).build(11, seq_len=3, data_len=7, ratio_token="i8m1")
    # every position of every store destination is printed
    stores = [a for a in ir.arrays if a.role == "store-destination"]
    assert stores
    assert ir.manifest == [(a.name, i) for a in stores for i in range(a.length)]


def test_manifest_matches_prints(catalog_gen):
    for seed in (0, 5, 9):
        ir = catalog_gen.build(seed)
        case = emit_case(ir, "allin")
        printed = re.findall(r'printf\("(\w+)\[(\d+)\]=', case.source)
        expected = [(name, str(idx)) for name, idx in case.manifest]
        assert printed == expected
        if not case.manifest:
            assert 'printf("none\\n")' in case.source


def test_frm_vxrm_from_legal_sets(catalog_gen):
    pat_frm = re.compile(r"__RISCV_FRM_(\w+)")
    pat_vxrm = re.compile(r"__RISCV_VXRM_(\w+)")
    for seed in range(15):
        src = emit_case(catalog_gen.build(seed), "unit").source
        for m in pat_frm.findall(src):
            assert m in ("RNE", "RTZ", "RDN", "RUP", "RMM")
        for m in pat_vxrm.findall(src):
            assert m in ("RNU", "RNE", "RDN", "ROD")


def test_slide_offsets_bounded(catalog_gen):
    # emitted slide offsets stay inside [0, data_len]
    pat = re.compile(r"__riscv_vslide(?:up|down)_vx_\w+\(([^;]+)\)")
    for seed in range(200):
        ir = catalog_gen.build(seed, seq_len=4, data_len=9)
        src = emit_case(ir, "unit").source
        for args in pat.findall(src):
            parts = [a.strip() for a in args.split(",")]
            offset = parts[-2]
            assert offset.isdigit() and 0 <= int(offset) <= 9, args


def test_initializers_contain_no_nan(catalog_gen):
    for seed in range(40):
        ir = catalog_gen.build(seed)
        for arr in ir.arrays:
            if arr.values and arr.vtype.kind == "float":
                for v in arr.values:
                    assert not _is_nan(v.bits, v.width)


def test_seq_and_data_ranges_drawn_deterministically(catalog_gen):
    a = catalog_gen.build(3, seq_len=(1, 20), data_len=(1, 1000))
    b = catalog_gen.build(3, seq_len=(1, 20), data_len=(1, 1000))
    assert (a.seq_len, a.data_len, a.type_token) == (b.seq_len, b.data_len, b.type_token)
    assert 1 <= a.seq_len <= 20 and 1 <= a.data_len <= 1000


def test_replay_with_pinned_knobs_reproduces(catalog_gen):
    a = catalog_gen.build(17, seq_len=(1, 20), data_len=(1, 50))
    b = catalog_gen.build(
        17, seq_len=a.seq_len, data_len=a.data_len, ratio_token=a.type_token,
    )
    assert emit_case(a, "unit").source == emit_case(b, "unit").source


def test_build_and_emit_construct_no_fraction(catalog_gen, monkeypatch):
    # the per-seed path runs on interned types and integer ratios
    import fractions

    import rvvfuzz.codegen
    import rvvfuzz.types

    made, listed = [], []
    new_fraction = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new_fraction(cls, *args, **kwargs)

    all_value_types = rvvfuzz.types.all_value_types

    def counting_all_value_types(*args, **kwargs):
        listed.append(args)
        return all_value_types(*args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(rvvfuzz.types, "all_value_types", counting_all_value_types)
    monkeypatch.setattr(rvvfuzz.codegen, "all_value_types", counting_all_value_types)
    fractions.Fraction(1, 2)  # the counter sees constructions
    assert made == [(1, 2)]
    made.clear()
    for seed in range(50):
        catalog_gen.cases(seed)
    assert made == []
    assert listed == []


@pytest.mark.parametrize("fixture,seeds", [("catalog_gen", range(500)),
                                           ("policy_gen", range(200))])
def test_analysis_matches_per_lane_reference(fixture, seeds, request):
    gen = request.getfixturevalue(fixture)
    merged_readers = 0
    for seed in seeds:
        ir = gen.build(seed)
        ref = analyze_agnostic_per_lane(ir.ops, ir.load_plans, ir.scalar_args, ir.data_len)
        assert ir.state.regs == ref.regs, f"seed {seed}"
        merged_readers += sum(op.def_.stem in VD_INPUT_STEMS and op.def_.policy in
                              ("tu", "tum", "tumu", "mu") for op in ir.ops)
    if fixture == "policy_gen":
        assert merged_readers > 0  # the vd that is read and merged into is exercised

import pytest

from rvvfuzz.codegen import (
    ScalarValue,
    analyze_agnostic,
    _build_manifest,
    emit_case,
)
from rvvfuzz.oracle import OracleUnsupported, evaluate, oracle_subset_listing
from rvvfuzz.pipeline import Generator

ADD32_LISTING = "\n".join(
    [
        "vint32m1_t __riscv_vle32_v_i32m1(const int32_t *rs1, size_t vl);",
        "void __riscv_vse32_v_i32m1(int32_t *rs1, vint32m1_t vs3, size_t vl);",
        "vint32m1_t __riscv_vadd_vv_i32m1(vint32m1_t vs2, vint32m1_t vs1, size_t vl);",
    ]
)

MASKED_ADD_LISTING = "\n".join(
    [
        "vint8m1_t __riscv_vle8_v_i8m1(const int8_t *rs1, size_t vl);",
        "void __riscv_vse8_v_i8m1(int8_t *rs1, vint8m1_t vs3, size_t vl);",
        "vint8m1_t __riscv_vadd_vv_i8m1_m(vbool8_t vm, vint8m1_t vs2, vint8m1_t vs1, size_t vl);",
    ]
)


def _refresh_manifest(ir):
    ir.state = analyze_agnostic(ir.ops, ir.load_plans, ir.scalar_args, ir.data_len)
    ir.manifest = _build_manifest(ir.S, ir.store_plans, ir.state)


def test_elementwise_add_prints_sums():
    ir = Generator(ADD32_LISTING).build(0, seq_len=1, data_len=3, ratio_token="i32m1",
                                        coin_bias=1.0)
    srcs = [a for a in ir.arrays if a.role == "load-source"]
    assert len(srcs) == 2
    srcs[0].values = [ScalarValue("int", 32, v) for v in (1, 2, 3)]
    srcs[1].values = [ScalarValue("int", 32, v) for v in (10, 20, 30)]
    case = emit_case(ir, "unit")
    out_name = next(a.name for a in ir.arrays if a.role == "store-destination")
    expect = f"{out_name}[0]=11\n{out_name}[1]=22\n{out_name}[2]=33\n"
    assert evaluate(case, vlen=128) == expect
    # identical across VLEN
    assert evaluate(case, vlen=256) == expect
    assert evaluate(case, vlen=64) == expect


def test_masked_add_hides_masked_off_position():
    gen = Generator(MASKED_ADD_LISTING)
    for seed in range(64):
        ir = gen.build(seed, seq_len=1, data_len=3, ratio_token="i8m1", coin_bias=1.0)
        masks = [a for a in ir.arrays if a.role == "mask-source"]
        if not masks:
            continue
        masks[0].values = [ScalarValue("int", 8, b) for b in (1, 0, 1)]
        _refresh_manifest(ir)
        case = emit_case(ir, "unit")
        out_name = next(a.name for a in ir.arrays if a.role == "store-destination")
        printed = [f"{n}[{i}]" for n, i in case.manifest if n == out_name]
        assert printed == [f"{out_name}[0]", f"{out_name}[2]"]
        text = evaluate(case, vlen=128)
        assert f"{out_name}[1]=" not in text
        return
    pytest.fail("no masked case produced")


def test_subset_listing_is_self_contained(subset_gen):
    cats = {d.category for d in subset_gen.defs}
    assert cats == {"Load", "Store", "Operation"}


def test_emi_equivalence_across_modes(subset_gen):
    for seed in range(100):
        ir = subset_gen.build(seed, seq_len=5, data_len=10)
        outs = {
            mode: evaluate(emit_case(ir, mode), vlen=128)
            for mode in ("allin", "unit", "random")
        }
        assert outs["allin"] == outs["unit"] == outs["random"], seed


def test_poison_independence(subset_gen):
    for seed in range(100):
        ir = subset_gen.build(seed, seq_len=5, data_len=10)
        case = emit_case(ir, "random")
        a = evaluate(case, vlen=128, poison_byte=0x00)
        b = evaluate(case, vlen=128, poison_byte=0xFF)
        assert a == b, seed


def test_vlen_independence(subset_gen):
    for seed in range(60):
        ir = subset_gen.build(seed, seq_len=4, data_len=10)
        case = emit_case(ir, "unit")
        outs = {v: evaluate(case, vlen=v) for v in (64, 128, 256, 512)}
        assert len(set(outs.values())) == 1, seed


def test_unsupported_detected(catalog_gen):
    hit = 0
    for seed in range(40):
        ir = catalog_gen.build(seed, seq_len=6)
        case = emit_case(ir, "unit")
        try:
            evaluate(case, vlen=128)
        except OracleUnsupported:
            hit += 1
    assert hit > 0  # the full listing contains plenty outside the subset


def test_fully_masked_prints_sentinel():
    gen = Generator(MASKED_ADD_LISTING)
    for seed in range(64):
        ir = gen.build(seed, seq_len=1, data_len=3, ratio_token="i8m1", coin_bias=1.0)
        masks = [a for a in ir.arrays if a.role == "mask-source"]
        if not masks:
            continue
        masks[0].values = [ScalarValue("int", 8, 0)] * 3
        _refresh_manifest(ir)
        case = emit_case(ir, "unit")
        assert case.manifest == []
        assert evaluate(case, vlen=128) == "none\n"
        assert 'printf("none\\n")' in case.source
        return
    pytest.fail("no masked case produced")


def test_strip_mining_multiple_iterations(subset_gen):
    # data_len larger than vlmax forces several iterations at VLEN 64
    for seed in range(30):
        ir = subset_gen.build(seed, seq_len=3, data_len=50)
        case = emit_case(ir, "unit")
        a = evaluate(case, vlen=64)
        b = evaluate(case, vlen=512)
        assert a == b, seed


def test_subset_listing_built_once(monkeypatch):
    import rvvfuzz.intrinsics

    parsed = []
    parse_prototype = rvvfuzz.intrinsics.parse_prototype

    def counting(*args, **kwargs):
        parsed.append(args)
        return parse_prototype(*args, **kwargs)

    monkeypatch.setattr(rvvfuzz.intrinsics, "parse_prototype", counting)
    first = oracle_subset_listing()
    parsed.clear()
    assert oracle_subset_listing() == first
    assert parsed == []
    # the counter does see a real build
    oracle_subset_listing.cache_clear()
    assert oracle_subset_listing() == first
    assert parsed

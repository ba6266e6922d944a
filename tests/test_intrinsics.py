import re

import pytest

from rvvfuzz.catalog import build_listing
from rvvfuzz.intrinsics import (
    AlignmentError,
    DecodeError,
    ParseError,
    ParseMemo,
    _VTYPE_TOKENS,
    decode_name,
    is_always_undefined,
    is_ratio_aligned,
    is_reduction,
    iter_lines,
    parse_definitions,
    parse_prototype,
)

from reference import render_name


def test_decode_policy_variant():
    p = decode_name("__riscv_vadd_vv_i8mf8_tumu")
    assert p.prefix == "__riscv_"
    assert p.mnemonic == "vadd_vv"
    assert p.type_tokens == ("i8mf8",)
    assert p.policy == "tumu"


def test_decode_two_type_tokens():
    p = decode_name("__riscv_vreinterpret_v_i8mf8_u8mf8")
    assert p.type_tokens == ("i8mf8", "u8mf8")
    assert p.mnemonic == "vreinterpret_v"


def test_decode_plain_load():
    p = decode_name("__riscv_vle32_v_f32m2")
    assert p.mnemonic == "vle32_v"
    assert p.type_tokens == ("f32m2",)
    assert p.policy == ""


@pytest.mark.parametrize(
    "name",
    [
        "__riscv_vadd_vv_i8m1",
        "__riscv_vadd_vv_i8m1_m",
        "__riscv_vfadd_vv_f32m1_rm",
        "__riscv_vfadd_vv_f32m1_rm_m",
        "__riscv_vmseq_vx_i8m1_b8",
        "__riscv_vredsum_vs_i8m4_i8m1",
        "__riscv_vlmul_ext_v_f16mf2_f16m1",
        "__riscv_vget_v_i8m1x2_i8m1",
        "__riscv_vmv_x_s_i8m1_i8",
        "__riscv_vsetvl_e8m1",
        "__riscv_vlseg2e8_v_i8m1x2",
        "__riscv_vluxseg3ei16_v_u32m2x3",
        "__riscv_vadd",
        "__riscv_vadd_tu",
        "__riscv_vid_v_u8m1_m",
        "__riscv_vcpop_m_b8",
    ],
)
def test_decode_render_identity(name):
    assert render_name(decode_name(name)) == name


def test_decode_rejects_unknown_suffix():
    with pytest.raises(DecodeError, match="zz"):
        decode_name("__riscv_vadd_vv_i8m1_zz")
    with pytest.raises(DecodeError):
        decode_name("riscv_vadd_vv_i8m1")


def test_decode_implicit_names():
    p = decode_name("__riscv_vadd")
    assert p.type_tokens == ()
    assert p.mnemonic == "vadd"
    p = decode_name("__riscv_vadd_tumu")
    assert p.mnemonic == "vadd"
    assert p.policy == "tumu"


def test_parse_unit_load():
    d = parse_prototype("vint8m1_t __riscv_vle8_v_i8m1(const int8_t *rs1, size_t vl);")
    assert d.category == "Load"
    assert d.ret_vtype.token == "i8m1"
    assert [p.role for p in d.params] == ["memory-address", "vl-count"]


def test_parse_store():
    d = parse_prototype("void __riscv_vse8_v_u8m1(uint8_t *rs1, vuint8m1_t vs3, size_t vl);")
    assert d.category == "Store"
    assert d.return_kind == "void"
    assert [p.role for p in d.params] == ["memory-address", "vector-operand", "vl-count"]


def test_parse_masked_op_roles():
    d = parse_prototype(
        "vuint8m1_t __riscv_vadd_vv_u8m1_m(vbool8_t vm, vuint8m1_t vs2, vuint8m1_t vs1, size_t vl);"
    )
    assert d.category == "Operation"
    assert d.is_masked
    assert [p.role for p in d.params] == ["mask", "vector-operand", "vector-operand", "vl-count"]


def test_parse_rounding_roles():
    d = parse_prototype(
        "vint8m1_t __riscv_vaadd_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, unsigned int vxrm, size_t vl);"
    )
    assert d.params[2].role == "rounding-mode-vxrm"
    d = parse_prototype(
        "vfloat32m1_t __riscv_vfadd_vv_f32m1_rm(vfloat32m1_t vs2, vfloat32m1_t vs1, unsigned int frm, size_t vl);"
    )
    assert d.params[2].role == "rounding-mode-frm"


def test_parse_indexed_load_index_role():
    d = parse_prototype(
        "vuint8m1_t __riscv_vluxei8_v_u8m1(const uint8_t *rs1, vuint8m1_t rs2, size_t vl);"
    )
    assert d.params[1].role == "index-vector"


def test_classification():
    cases = {
        "vint8m1_t __riscv_vle8_v_i8m1(const int8_t *rs1, size_t vl);": "Load",
        "size_t __riscv_vsetvl_e64m8(size_t avl);": "Ignored",
        "size_t __riscv_vsetvlmax_e32m2();": "Ignored",
        "vint8m1_t __riscv_vle8ff_v_i8m1(const int8_t *rs1, size_t *new_vl, size_t vl);": "Ignored",
        "vbool8_t __riscv_vlm_v_b8(const uint8_t *rs1, size_t vl);": "Ignored",
        "vint8m1_t __riscv_vl1re8_v_i8m1(const int8_t *rs1);": "Ignored",
        "vuint8m1_t __riscv_vadd_vv_u8m1_m(vbool8_t vm, vuint8m1_t vs2, vuint8m1_t vs1, size_t vl);": "Operation",
        "void __riscv_vsse16_v_i16m1(int16_t *rs1, ptrdiff_t rs2, vint16m1_t vs3, size_t vl);": "Store",
        "vint16m2_t __riscv_vlseg2e16_v_i16m2x2(const int16_t *rs1, size_t vl);": "Load",
        "unsigned long __riscv_vcpop_m_b8(vbool8_t vs2, size_t vl);": "Operation",
    }
    for proto, want in cases.items():
        assert parse_prototype(proto).category == want, proto


def test_overload_merge():
    listing = "\n".join(
        [
            "vint8m1_t __riscv_vadd(vint8m1_t vs2, vint8m1_t vs1, size_t vl);",
            "vint16m1_t __riscv_vadd(vint16m1_t vs2, vint16m1_t vs1, size_t vl);",
            "// a comment",
            "# another comment",
            "vint8m1_t __riscv_vle8_v_i8m1(const int8_t *rs1, size_t vl)",
        ]
    )
    defs = parse_definitions(listing)
    by_name = {d.full_name: d for d in defs}
    assert by_name["__riscv_vadd"].alias_count == 2
    assert by_name["__riscv_vle8_v_i8m1"].alias_count == 1


def test_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_definitions("not a prototype")
    with pytest.raises(ParseError, match="empty"):
        parse_definitions("// only comments\n\n")
    with pytest.raises(ParseError, match="8-bit float"):
        parse_prototype("vfloat8m1_t __riscv_vle8_v_f8m1(const char *rs1, size_t vl);")


def test_ratio_alignment():
    aligned = parse_prototype(
        "vint8m1_t __riscv_vadd_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, size_t vl);"
    )
    assert is_ratio_aligned(aligned) == (True, 8)

    widening = parse_prototype(
        "vint16m2_t __riscv_vwadd_vv_i16m2(vint8m1_t vs2, vint8m1_t vs1, size_t vl);"
    )
    assert is_ratio_aligned(widening) == (True, 8)

    lmul_change = parse_prototype(
        "vfloat16m1_t __riscv_vlmul_ext_v_f16mf2_f16m1(vfloat16mf2_t vs2);"
    )
    ok, ratio = is_ratio_aligned(lmul_change)
    assert not ok and ratio is None

    no_vec = parse_prototype("size_t __riscv_vsetvl_e8m1(size_t avl);")
    with pytest.raises(AlignmentError):
        is_ratio_aligned(no_vec)


def test_reduction_and_undefined_predicates():
    red = parse_prototype(
        "vint8m1_t __riscv_vredsum_vs_i8m4_i8m1(vint8m4_t vs2, vint8m1_t vs1, size_t vl);"
    )
    assert is_reduction(red)
    undef = parse_prototype("vint8m1_t __riscv_vundefined_i8m1();")
    assert is_always_undefined(undef)
    ext = parse_prototype(
        "vfloat16m1_t __riscv_vlmul_ext_v_f16mf2_f16m1(vfloat16mf2_t vs2);"
    )
    assert is_always_undefined(ext)
    reint = parse_prototype(
        "vuint8mf8_t __riscv_vreinterpret_v_i8mf8_u8mf8(vint8mf8_t vs2);"
    )
    assert is_always_undefined(reint)


def test_naming_categories():
    assert parse_prototype(
        "vint8m1_t __riscv_vadd_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, size_t vl);"
    ).naming_category == "explicit"
    assert parse_prototype(
        "vint8m1_t __riscv_vadd_vv_i8m1_m(vbool8_t vm, vint8m1_t vs2, vint8m1_t vs1, size_t vl);"
    ).naming_category == "explicit"
    assert parse_prototype(
        "vint8m1_t __riscv_vadd_vv_i8m1_tumu(vbool8_t vm, vint8m1_t vd, vint8m1_t vs2, vint8m1_t vs1, size_t vl);"
    ).naming_category == "explicit-policy"
    assert parse_prototype(
        "vint8m1_t __riscv_vadd(vint8m1_t vs2, vint8m1_t vs1, size_t vl);"
    ).naming_category == "implicit"


def test_memo_keys_parameters_on_indexed_stem():
    # one parameter text, two roles: an indexed load reads its unsigned
    # vector operand as the index vector, an operation as an operand
    params = "(const uint8_t *rs1, vuint8m1_t rs2, size_t vl);"
    load = "vuint8m1_t __riscv_vluxei8_v_u8m1" + params
    op = "vuint8m1_t __riscv_vaddx_v_u8m1" + params
    for lines in ([load, op], [op, load]):
        by_name = {d.full_name: d for d in parse_definitions("\n".join(lines))}
        assert by_name["__riscv_vluxei8_v_u8m1"].params[1].role == "index-vector"
        assert by_name["__riscv_vaddx_v_u8m1"].params[1].role == "vector-operand"


def test_parse_definitions_equals_line_by_line_parse():
    listing = build_listing()
    # two overloads of one implicit name exercise alias merging as well
    listing += (
        "vint8m1_t __riscv_vadd(vint8m1_t vs2, vint8m1_t vs1, size_t vl);\n"
        "vint16m1_t __riscv_vadd(vint16m1_t vs2, vint16m1_t vs1, size_t vl);\n"
    )
    want: dict = {}
    for line in listing.splitlines():
        d = parse_prototype(line)
        if d.full_name in want:
            want[d.full_name].alias_count += 1
        else:
            want[d.full_name] = d
    got = parse_definitions(listing)
    assert len(got) == len(want)
    assert want["__riscv_vadd"].alias_count == 2
    for a, b in zip(got, want.values()):
        assert (a.full_name, a.name_parts, a.ret_ctype, a.ret_vtype, a.params,
                a.category, a.alias_count, a.stem, a.policy) == (
                b.full_name, b.name_parts, b.ret_ctype, b.ret_vtype, b.params,
                b.category, b.alias_count, b.stem, b.policy), a.full_name


def test_malformed_parameter_names_its_own_line():
    good = "vint8m1_t __riscv_vadd_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, size_t vl);"
    bad = "vint8m1_t __riscv_vadd_vv_i8m2(vint8m1_t vs2, vint8m1_t, size_t vl);"
    with pytest.raises(ParseError, match=r"^line 3: malformed parameter 'vint8m1_t'"):
        parse_definitions("\n".join([good, "// comment", bad]))
    # a failure is not remembered: the same text fails again on its own line
    memo = ParseMemo()
    parse_prototype(good, 1, memo)
    for lineno in (4, 9):
        with pytest.raises(ParseError, match=f"^line {lineno}: malformed parameter"):
            parse_prototype(bad, lineno, memo)


def test_type_token_set_matches_the_grammar():
    grammar = re.compile(
        r"^(?:[iuf](?:8|16|32|64)(?:mf?[1248])(?:x[2-8])?"
        r"|e(?:8|16|32|64)(?:mf?[1248])"
        r"|b(?:1|2|4|8|16|32|64)"
        r"|[iuf](?:8|16|32|64))$"
    )
    pieces = {p for line in build_listing().splitlines()
              for p in line.split("(")[0].split()[-1].split("_")}
    near = {"i8m3", "i8mf16", "e8", "b3", "b128", "u8m1x9", "u8m1x1", "x2", "f8",
            "i128", "m1", "vv", "v", "rm", "tumu", "I8M1", ""}
    for piece in pieces | near | _VTYPE_TOKENS.keys():
        assert (piece in _VTYPE_TOKENS) == bool(grammar.match(piece)), piece


def test_parsed_catalog_shares_repeated_values(catalog_defs):
    """One object per distinct value, however many records hold it."""
    getters = {
        "stem": lambda d: d.stem,
        "mnemonic": lambda d: d.mnemonic,
        "type_tokens": lambda d: d.name_parts.type_tokens,
        "policy": lambda d: d.name_parts.policy,
        "ret_ctype": lambda d: d.ret_ctype,
    }
    for field, get in getters.items():
        values = [get(d) for d in catalog_defs]
        assert len({id(v) for v in values}) == len(set(values)), field
    tokens = [tok for d in catalog_defs for tok in d.name_parts.type_tokens]
    assert len({id(t) for t in tokens}) == len(set(tokens))


def test_generator_keeps_at_most_11_mb(catalog_listing):
    import gc
    import tracemalloc

    from rvvfuzz.pipeline import Generator

    gc.collect()
    tracemalloc.start()
    try:
        gen = Generator(catalog_listing)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(gen.defs) == 26_635
    assert kept <= 11e6, f"Generator keeps {kept / 1e6:.2f} MB"


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8, 1 << 16])
def test_iter_lines_is_splitlines(block):
    text = ("a\r\nbc\n\n\rd\x0be\x0cf\x1cg h\r\r\n\n"
            "long line " * 3 + "\n\r\n" + "\n" * 4 + "tail\r")
    for end in range(len(text) + 1):
        assert list(iter_lines(text[:end], block)) == text[:end].splitlines()

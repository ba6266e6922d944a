from fractions import Fraction

import pytest

from rvvfuzz.types import (
    TypeError_,
    VectorType,
    all_bool_types,
    all_tuple_types,
    all_value_types,
    type_at_ratio,
)


def test_token_roundtrip():
    for t in all_value_types() + all_tuple_types() + all_bool_types():
        assert VectorType.from_token(t.token) == t
        assert VectorType.from_cname(t.cname) == t


def test_cnames():
    assert VectorType.from_token("i8m1").cname == "vint8m1_t"
    assert VectorType.from_token("u16mf4").cname == "vuint16mf4_t"
    assert VectorType.from_token("f32m2").cname == "vfloat32m2_t"
    assert VectorType.from_token("b8").cname == "vbool8_t"
    assert VectorType.from_token("i8m1x2").cname == "vint8m1x2_t"


@pytest.mark.parametrize(
    "token,ratio",
    [
        ("f32m2", 16),
        ("i8mf8", 64),
        ("b8", 8),
        ("i8m1", 8),
        ("i64m8", 8),
        ("u16m8", 2),
        ("i8m8", 1),
    ],
)
def test_ratio_of(token, ratio):
    assert VectorType.from_token(token).ratio == ratio


def test_illegal_types_rejected():
    with pytest.raises(TypeError_):
        VectorType.from_token("i16mf8")  # ratio 128
    with pytest.raises(TypeError_):
        VectorType.from_token("f8m1")  # no 8-bit float
    with pytest.raises(TypeError_):
        VectorType.from_token("i8m3")
    with pytest.raises(TypeError_):
        VectorType.from_token("b3")
    with pytest.raises(TypeError_):
        VectorType.from_token("e32m4")  # a vsetvl shape, not a vector type
    with pytest.raises(TypeError_):
        VectorType("int", 8, Fraction(1), nf=9)
    with pytest.raises(TypeError_):
        VectorType("int", 8, Fraction(8), nf=2)  # lmul*nf > 8


def test_ratio_monotone_in_lmul():
    # at fixed sew, ratio decreases as lmul grows; ratio divides sew for lmul >= 1
    for sew in (8, 16, 32, 64):
        prev = None
        for t in all_value_types():
            if t.kind != "int" or t.sew != sew:
                continue
            if t.lmul >= 1:
                assert sew % t.ratio == 0
            if prev is not None:
                assert t.ratio < prev
            prev = t.ratio


def test_type_universe_sizes():
    assert len(all_value_types()) == 59  # 22 int + 22 uint + 15 float
    assert len(all_bool_types()) == 7
    assert len(all_tuple_types()) == 226


def test_mask_type():
    assert VectorType.from_token("i8m1").mask_type.token == "b8"
    assert VectorType.from_token("f32m2").mask_type.token == "b16"
    assert VectorType.from_token("u64m8").mask_type.token == "b8"


# -- the integer type model against the Fraction formulas it replaced --------

_PREFIX = {"int": "i", "uint": "u", "float": "f"}
_LMUL_TOK = {Fraction(1, 8): "mf8", Fraction(1, 4): "mf4", Fraction(1, 2): "mf2",
             Fraction(1): "m1", Fraction(2): "m2", Fraction(4): "m4", Fraction(8): "m8"}


def _fraction_legal(kind, sew, lmul, nf):
    if sew not in (8, 16, 32, 64) or (kind == "float" and sew == 8):
        return False
    r = Fraction(sew) / lmul
    if r.denominator != 1 or not 1 <= r <= 64:
        return False
    return nf == 1 or (2 <= nf <= 8 and lmul * nf <= 8)


def test_integer_model_matches_fraction_formulas():
    legal = 0
    for kind in ("int", "uint", "float"):
        for sew in (4, 8, 16, 32, 64, 128):
            for lmul in _LMUL_TOK:
                for nf in range(0, 10):
                    if not _fraction_legal(kind, sew, lmul, nf):
                        with pytest.raises(TypeError_):
                            VectorType(kind, sew, lmul, nf=nf)
                        continue
                    legal += 1
                    t = VectorType(kind, sew, lmul, nf=nf)
                    ratio = int(Fraction(sew) / lmul)
                    token = f"{_PREFIX[kind]}{sew}{_LMUL_TOK[lmul]}" + (f"x{nf}" if nf > 1 else "")
                    cname = f"v{kind}{sew}{_LMUL_TOK[lmul]}" + (f"x{nf}" if nf > 1 else "") + "_t"
                    assert (t.ratio, t.token, t.cname) == (ratio, token, cname)
                    assert t.mask_type == VectorType("bool", bool_ratio=ratio)
                    assert VectorType.from_token(token).ratio == ratio
    assert legal == len(all_value_types()) + len(all_tuple_types())
    for r in (1, 2, 4, 8, 16, 32, 64):
        b = VectorType("bool", bool_ratio=r)
        assert (b.ratio, b.token, b.cname) == (r, f"b{r}", f"vbool{r}_t")
        assert VectorType.from_token(f"b{r}").ratio == r


def test_emul_decisions_match_fraction_formulas():
    from rvvfuzz import codegen

    for eew in (8, 16, 32, 64):
        for ratio in (1, 2, 4, 8, 16, 32, 64):
            emul = Fraction(eew, ratio)
            legal = Fraction(1, 8) <= emul <= 8
            assert ((eew, ratio) in codegen._INDEX_TOKENS) == legal
            if legal:
                assert codegen._INDEX_TOKENS[eew, ratio] == f"u{eew}{_LMUL_TOK[emul]}"
                assert type_at_ratio("uint", eew, ratio) == VectorType("uint", eew, emul)
            else:
                with pytest.raises(TypeError_):
                    type_at_ratio("uint", eew, ratio)
    for ratio in (1, 2, 4, 8, 16, 32, 64):
        assert codegen._MASK_SOURCE_TYPES[ratio] == VectorType("int", 8, Fraction(8, ratio))
        assert codegen._VSETVL_TOKENS[ratio] == [
            f"e{t.sew}{_LMUL_TOK[t.lmul]}" for t in all_value_types()
            if t.kind == "int" and int(Fraction(t.sew) / t.lmul) == ratio
        ]
    for t in all_value_types() + all_tuple_types():
        for data_len in (1, 10, 200, 300, 70_000):
            step = (t.sew // 8) * t.nf
            expected = [
                eew for eew in (8, 16, 32, 64)
                if Fraction(1, 8) <= Fraction(eew, t.ratio) <= 8
                and (data_len - 1) * step <= (1 << eew) - 1
            ]
            bits = codegen.index_offset_bits(t, data_len)
            assert codegen._legal_index_eews(t, bits) == expected


def test_parsed_types_are_interned():
    for t in all_value_types() + all_tuple_types() + all_bool_types():
        assert VectorType.from_token(t.token) is VectorType.from_token(t.token)
        assert VectorType.from_cname(t.cname) is VectorType.from_token(t.token)
        assert t.mask_type is VectorType.from_token(t.mask_type.token)
    # a fresh list every call: callers may mutate theirs
    types = all_value_types()
    types.clear()
    assert len(all_value_types()) == 59

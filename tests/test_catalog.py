from collections import Counter

import pytest

from rvvfuzz.catalog import build_listing
from rvvfuzz.intrinsics import (
    AlignmentError,
    is_ratio_aligned,
    parse_definitions,
)
from rvvfuzz.semantics import VD_INPUT_STEMS


@pytest.fixture(scope="module")
def defs(catalog_defs):
    return catalog_defs


def test_no_duplicate_names(defs):
    lines = [l for l in build_listing().splitlines() if l.strip()]
    assert len(lines) == len(defs)


def test_every_prototype_parses_and_classifies(defs):
    cats = Counter(d.category for d in defs)
    assert set(cats) == {"Load", "Store", "Ignored", "Operation"}
    assert cats["Operation"] > 10_000
    assert cats["Load"] > 4_000
    assert cats["Store"] > 4_000


def test_family_census(defs):
    def count(prefix):
        return sum(1 for d in defs if d.mnemonic.startswith(prefix))

    # register-group/tuple manipulation sizes are fixed by the type system
    assert count("vset_v") == 292
    assert count("vget_v") == 292
    assert count("vlmul_ext") == 135
    assert count("vlmul_trunc") == 135
    # segment family is the most numerous one
    seg = sum(1 for d in defs if "seg" in d.stem)
    assert seg == 9388
    for fam in ("vle", "vse", "vlse", "vsse", "vluxei", "vsoxei"):
        assert any(d.stem.startswith(fam) for d in defs)


def test_known_spellings(defs):
    names = {d.full_name for d in defs}
    for n in (
        "__riscv_vle8_v_i8m1",
        "__riscv_vse8_v_u8m1",
        "__riscv_vadd_vv_u8m1_m",
        "__riscv_vmseq_vx_i8m1_b8",
        "__riscv_vluxei8_v_u8m1",
        "__riscv_vid_v_u8m1",
        "__riscv_vaadd_vv_i8m1",
        "__riscv_vfnmadd_vv_f16m1_rm",
        "__riscv_vfredosum_vs_f32m1_f32m1",
        "__riscv_vsetvl_e64m8",
        "__riscv_vlmul_ext_v_f16mf2_f16m1",
        "__riscv_vundefined_i8m1",
        "__riscv_vreinterpret_v_i8mf8_u8mf8",
    ):
        assert n in names


def test_categories_partition(defs):
    # the category rule is total: every def lands in exactly one category
    for d in defs:
        assert d.category in ("Load", "Store", "Ignored", "Operation")


def test_alignment_census(defs):
    aligned = 0
    for d in defs:
        try:
            ok, ratio = is_ratio_aligned(d)
        except AlignmentError:
            assert d.category == "Ignored"
            continue
        if ok:
            assert ratio in (1, 2, 4, 8, 16, 32, 64)
            aligned += 1
    assert aligned / len(defs) > 0.9


def test_fof_and_whole_register_are_ignored(defs):
    for d in defs:
        if "ff" in d.stem or d.stem in ("vlm", "vsetvl", "vsetvlmax", "vlenb"):
            assert d.category == "Ignored", d.full_name


def test_decode_render_identity_on_whole_catalog(defs):
    from rvvfuzz.intrinsics import decode_name
    from reference import render_name

    for d in defs:
        assert render_name(decode_name(d.full_name)) == d.full_name


def test_policy_listing_is_larger():
    pol = parse_definitions(build_listing(policy=True))
    cats = Counter(d.naming_category for d in pol)
    assert cats["explicit-policy"] > 30_000
    assert len(pol) > 60_000


@pytest.mark.parametrize("fixture", ["catalog_defs", "policy_gen"])
def test_no_prototype_repeats_a_parameter_name(fixture, request):
    found = request.getfixturevalue(fixture)
    repeated = []
    for d in found.defs if fixture == "policy_gen" else found:
        names = [p.name for p in d.params]
        if len(names) != len(set(names)):
            repeated.append(d.full_name)
    assert not repeated, f"{len(repeated)} prototypes, e.g. {repeated[:3]}"


def test_policy_forms_of_vd_readers_merge_into_their_vd(policy_gen):
    protos = {d.full_name: [p.name for p in d.params] for d in policy_gen.defs}
    assert protos["__riscv_vmacc_vv_i8mf8_tum"] == ["vm", "vd", "vs1", "vs2", "vl"]
    assert protos["__riscv_vslideup_vx_i8mf8_mu"] == ["vm", "vd", "vs2", "rs1", "vl"]
    assert protos["__riscv_vadd_vv_i8mf8_tum"] == ["vm", "vd", "vs2", "vs1", "vl"]


def test_vd_input_stems_are_the_ops_with_a_vd_parameter(defs):
    # the default listing names a vd only where the op reads it
    with_vd = {d.stem for d in defs if any(p.name == "vd" for p in d.params)}
    assert with_vd == VD_INPUT_STEMS

import random

import pytest

from rvvfuzz.catalog import build_listing
from rvvfuzz.dataflow import OpInstance, SynthIndex, VReg, allocate
from rvvfuzz.intrinsics import parse_definitions, parse_prototype
from rvvfuzz.selection import select_sequence

from reference import scan_dependencies, use_define_violations

ADD = parse_prototype(
    "vint8m1_t __riscv_vadd_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, size_t vl);"
)
ADD_M2 = parse_prototype(
    "vint8m2_t __riscv_vadd_vv_i8m2(vint8m2_t vs2, vint8m2_t vs1, size_t vl);"
)
EXT = parse_prototype(
    "vint8m2_t __riscv_vlmul_ext_v_i8m1_i8m2(vint8m1_t vs1);"
)
GATHER = parse_prototype(
    "vuint8m1_t __riscv_vrgather_vv_u8m1(vuint8m1_t vs2, vuint8m1_t vs1, size_t vl);"
)


def _ops(defs):
    return [OpInstance(d) for d in defs]


def test_all_fresh_when_coin_always_true():
    ops = allocate(_ops([ADD, ADD, ADD]), random.Random(0), coin_bias=1.0)
    params = [b for op in ops for b in op.reads]
    rets = [op.bound_return for op in ops]
    assert len({r.id for r in params}) == 6
    assert all(r.from_memory for r in params)
    assert len({r.id for r in rets}) == 3
    assert not any(r.from_memory for r in rets)


def test_empty_bucket_overrides_coin():
    ops = allocate(_ops([ADD]), random.Random(2), coin_bias=0.0)
    assert all(r.from_memory for r in ops[0].reads)  # forced fresh


def test_quarantined_return_not_in_table():
    # a quarantined result never becomes reusable: even when the coin always
    # says reuse, later operands of its type come fresh from memory
    ops = allocate(_ops([EXT, EXT, ADD_M2, ADD_M2]), random.Random(3), coin_bias=0.0)
    quarantined = {op.bound_return.id for op in ops[:2]}
    assert all(op.bound_return.quarantined for op in ops[:2])
    assert len(quarantined) == 2
    for op in ops[2:]:
        assert op.bound_return.id not in quarantined
        for r in op.reads:
            assert r.id not in quarantined and r.from_memory


def test_gather_index_is_synthesized():
    ops = allocate(_ops([GATHER]), random.Random(4))
    kinds = [type(b).__name__ for b in ops[0].bound_params if b is not None]
    assert "SynthIndex" in kinds
    synth = [b for b in ops[0].bound_params if isinstance(b, SynthIndex)]
    assert synth[0].vtype.kind == "uint"


def test_write_read_dependency_realizable():
    rng = random.Random(11)
    # forcing reuse after the first op quickly creates chains
    ops = allocate(_ops([ADD, ADD, ADD, ADD]), rng, coin_bias=0.2)
    deps = scan_dependencies(ops)
    assert deps <= {"read-read", "read-write", "write-read", "write-write"}


@pytest.fixture(scope="module")
def pool(catalog_gen):
    return catalog_gen.pool(8)


def test_four_scenarios_over_seeds(pool):
    found = set()
    for seed in range(300):
        seq = select_sequence(pool, 10, random.Random(f"select:{seed}"))
        ops = allocate(_ops(seq), random.Random(f"alloc:{seed}"))
        found |= scan_dependencies(ops)
        if found == {"read-read", "read-write", "write-read", "write-write"}:
            break
    assert found == {"read-read", "read-write", "write-read", "write-write"}


def test_use_define_correctness(pool):
    for seed in range(100):
        seq = select_sequence(pool, 8, random.Random(f"select:{seed}"))
        ops = allocate(_ops(seq), random.Random(f"alloc:{seed}"))
        assert use_define_violations(ops) == []


def test_table_soundness(pool):
    # every binding has its slot's exact type, and every register is either
    # new (ids count up from 0 in binding order) or an earlier, unquarantined one
    for seed in range(50):
        seq = select_sequence(pool, 12, random.Random(f"select:{seed}"))
        ops = allocate(_ops(seq), random.Random(9))
        seen: dict[int, VReg] = {}
        for op in ops:
            slots = [(b, p.vtype) for b, p in zip(op.bound_params, op.def_.params)
                     if isinstance(b, VReg)]
            if op.bound_return is not None:
                slots.append((op.bound_return, op.def_.ret_vtype))
            for reg, vtype in slots:
                assert reg.vtype.token == vtype.token
                if reg.id in seen:
                    assert seen[reg.id] is reg and not reg.quarantined
                else:
                    assert reg.id == len(seen)
                    seen[reg.id] = reg

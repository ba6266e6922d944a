import random

import pytest

from rvvfuzz.catalog import build_listing
from rvvfuzz.dataflow import (
    OpInstance,
    SynthIndex,
    VRegTable,
    allocate,
    coin_flip,
    scan_dependencies,
    use_define_violations,
)
from rvvfuzz.intrinsics import parse_definitions, parse_prototype
from rvvfuzz.selection import SelectionConfig, select_sequence

ADD = parse_prototype(
    "vint8m1_t __riscv_vadd_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, size_t vl);"
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


def test_all_reuse_with_preseeded_table():
    table = VRegTable()
    seeded = allocate(_ops([ADD]), random.Random(0), coin_bias=1.0, table=table)
    n_before = len(table.active())
    ops = allocate(_ops([ADD, ADD]), random.Random(1), coin_bias=0.0, table=table)
    assert len(table.active()) == n_before  # zero new registers, zero new loads
    for op in ops:
        for r in op.reads:
            assert r.id in {x.id for x in table.active()}
    assert seeded[0].bound_return is not None


def test_empty_bucket_overrides_coin():
    ops = allocate(_ops([ADD]), random.Random(2), coin_bias=0.0)
    assert all(r.from_memory for r in ops[0].reads)  # forced fresh


def test_quarantined_return_not_in_table():
    table = VRegTable()
    ops = allocate(_ops([EXT, EXT]), random.Random(3), coin_bias=0.0, table=table)
    for op in ops:
        assert op.bound_return.quarantined
    ids = {r.id for r in table.active()}
    for op in ops:
        assert op.bound_return.id not in ids


def test_gather_index_is_synthesized():
    ops = allocate(_ops([GATHER]), random.Random(4))
    kinds = [type(b).__name__ for b in ops[0].bound_params if b is not None]
    assert "SynthIndex" in kinds
    synth = [b for b in ops[0].bound_params if isinstance(b, SynthIndex)]
    assert synth[0].vtype.kind == "uint"


def test_coin_flip_determinism_and_mean():
    a = [coin_flip(random.Random(42)) for _ in range(5)]
    b = [coin_flip(random.Random(42)) for _ in range(5)]
    assert a == b
    rng = random.Random(7)
    mean = sum(coin_flip(rng) for _ in range(100_000)) / 100_000
    assert 0.49 <= mean <= 0.51


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
        cfg = SelectionConfig(8, 10, rng_seed=seed)
        seq = select_sequence(pool, cfg)
        ops = allocate(_ops(seq), random.Random(f"alloc:{seed}"))
        found |= scan_dependencies(ops)
        if found == {"read-read", "read-write", "write-read", "write-write"}:
            break
    assert found == {"read-read", "read-write", "write-read", "write-write"}


def test_use_define_correctness(pool):
    for seed in range(100):
        cfg = SelectionConfig(8, 8, rng_seed=seed)
        seq = select_sequence(pool, cfg)
        ops = allocate(_ops(seq), random.Random(f"alloc:{seed}"))
        assert use_define_violations(ops) == []


def test_table_soundness(pool):
    table = VRegTable()
    seq = select_sequence(pool, SelectionConfig(8, 12, rng_seed=5))
    ops = allocate(_ops(seq), random.Random(9), table=table)
    allocated = {}
    for op in ops:
        for b in op.reads:
            allocated[b.id] = b
        if op.bound_return is not None:
            allocated[op.bound_return.id] = op.bound_return
    expected = {r.id for r in allocated.values() if not r.quarantined}
    assert {r.id for r in table.active()} == expected
    for tok, regs in table._buckets.items():
        for r in regs:
            assert r.vtype.token == tok

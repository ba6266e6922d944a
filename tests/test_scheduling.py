import itertools
import random
from collections import Counter

import pytest

from rvvfuzz.scheduling import (
    Schedule,
    ScheduleItem,
    build_schedule,
    derive_prefix_suffix,
    schedule_allin,
    schedule_random,
    schedule_unit,
)

from reference import check_constraints


def _fake_ps(p_sizes, s_sizes):
    # stand-ins: the algorithms only look at lengths
    P = [["p"] * n for n in p_sizes]
    S = [["s"] * n for n in s_sizes]
    return P, S


def legal_set(P, S):
    """Brute-force oracle: every interleaving that passes check_constraints."""
    N = len(P)
    items = [ScheduleItem("op", i) for i in range(N)]
    items += [ScheduleItem("load", i, k) for i in range(N) for k in range(len(P[i]))]
    items += [ScheduleItem("store", i, k) for i in range(N) for k in range(len(S[i]))]
    out = set()
    for perm in itertools.permutations(items):
        if check_constraints(Schedule(list(perm), "x"), P, S) is None:
            out.add(perm)
    return out


def test_allin_trace():
    P, S = _fake_ps([1, 1], [1, 1])
    got = schedule_allin(P, S).items
    assert [(i.kind, i.op_index) for i in got] == [
        ("load", 0), ("load", 1), ("op", 0), ("op", 1), ("store", 0), ("store", 1),
    ]


def test_allin_single_op_no_items():
    P, S = _fake_ps([0], [0])
    assert [(i.kind, i.op_index) for i in schedule_allin(P, S).items] == [("op", 0)]


def test_allin_length():
    P, S = _fake_ps([2, 0, 1], [1, 1, 0])
    got = schedule_allin(P, S).items
    assert len(got) == sum(map(len, P)) + len(P) + sum(map(len, S))


def test_unit_trace():
    P, S = _fake_ps([1, 1], [1, 1])
    got = schedule_unit(P, S).items
    assert [(i.kind, i.op_index) for i in got] == [
        ("load", 0), ("op", 0), ("store", 0), ("load", 1), ("op", 1), ("store", 1),
    ]


def test_unit_single():
    P, S = _fake_ps([1], [1])
    got = schedule_unit(P, S).items
    assert [(i.kind, i.op_index) for i in got] == [("load", 0), ("op", 0), ("store", 0)]


def test_fixed_modes_consume_no_randomness():
    P, S = _fake_ps([2, 1], [1, 1])
    a = schedule_allin(P, S).items
    b = schedule_allin(P, S).items
    assert a == b
    u1 = schedule_unit(P, S).items
    u2 = schedule_unit(P, S).items
    assert u1 == u2


def test_random_single_op_only_legal_output():
    P, S = _fake_ps([1], [1])
    for seed in range(20):
        got = schedule_random(P, S, random.Random(seed)).items
        assert [(i.kind) for i in got] == ["load", "op", "store"]


def test_random_member_of_enumerated_legal_set():
    P, S = _fake_ps([1, 1], [1, 1])
    legal = legal_set(P, S)
    seen = set()
    for seed in range(500):
        got = tuple(schedule_random(P, S, random.Random(seed)).items)
        assert got in legal
        seen.add(got)
    assert len(seen) >= 5
    # the two fixed algorithms sit inside the same legal set
    assert tuple(schedule_allin(P, S).items) in legal
    assert tuple(schedule_unit(P, S).items) in legal


def test_random_passes_constraints_many_shapes():
    shapes = [([1], [1]), ([2, 1], [1, 0]), ([0, 0, 2], [1, 1, 1]), ([3, 2, 1], [1, 1, 1])]
    for p_sizes, s_sizes in shapes:
        P, S = _fake_ps(p_sizes, s_sizes)
        for seed in range(200):
            sch = schedule_random(P, S, random.Random(seed))
            assert check_constraints(sch, P, S) is None


def test_violations_reported():
    P, S = _fake_ps([1, 0], [0, 0])
    ok = schedule_allin(P, S)
    assert check_constraints(ok, P, S) is None

    swapped = Schedule(
        [ScheduleItem("load", 0), ScheduleItem("op", 1), ScheduleItem("op", 0)], "x"
    )
    assert "op order" in check_constraints(swapped, P, S)

    late_load = Schedule(
        [ScheduleItem("op", 0), ScheduleItem("load", 0), ScheduleItem("op", 1)], "x"
    )
    assert "prefix after op" in check_constraints(late_load, P, S)

    missing = Schedule([ScheduleItem("op", 0)], "x")
    assert "multiset" in check_constraints(missing, P, S)


def test_equivalence_contract_same_multiset():
    P, S = _fake_ps([2, 1, 0], [1, 1, 1])
    rng = random.Random(3)
    variants = [
        schedule_allin(P, S),
        schedule_unit(P, S),
        schedule_random(P, S, rng),
    ]
    multisets = [Counter(v.items) for v in variants]
    assert multisets[0] == multisets[1] == multisets[2]


def test_build_schedule_dispatch():
    P, S = _fake_ps([1], [1])
    assert build_schedule(P, S, "allin").mode == "allin"
    assert build_schedule(P, S, "unit").mode == "unit"
    assert build_schedule(P, S, "random", random.Random(0)).mode == "random"
    with pytest.raises(ValueError):
        build_schedule(P, S, "random")
    with pytest.raises(ValueError):
        build_schedule(P, S, "sideways")


def test_derive_prefix_suffix_first_occurrence():
    import random as _r

    from rvvfuzz.dataflow import OpInstance, allocate
    from rvvfuzz.intrinsics import parse_prototype

    add = parse_prototype(
        "vint8m1_t __riscv_vadd_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, size_t vl);"
    )
    ops = [OpInstance(add), OpInstance(add)]
    allocate(ops, _r.Random(0), coin_bias=0.0)
    # op0 forced two fresh loads (empty buckets); op1 reuses everything
    P, S = derive_prefix_suffix(ops)
    assert [len(x) for x in P] == [1, 0] or [len(x) for x in P] == [2, 0]
    assert [len(x) for x in S] == [1, 1]


def test_derive_skips_quarantined_and_bool_returns():
    import random as _r

    from rvvfuzz.dataflow import OpInstance, allocate
    from rvvfuzz.intrinsics import parse_prototype

    ext = parse_prototype("vint8m2_t __riscv_vlmul_ext_v_i8m1_i8m2(vint8m1_t vs1);")
    cmp_ = parse_prototype(
        "vbool8_t __riscv_vmseq_vv_i8m1_b8(vint8m1_t vs2, vint8m1_t vs1, size_t vl);"
    )
    ops = [OpInstance(ext), OpInstance(cmp_)]
    allocate(ops, _r.Random(1), coin_bias=1.0)
    P, S = derive_prefix_suffix(ops)
    assert S == [[], []]
    assert len(P[0]) == 1 and len(P[1]) == 2

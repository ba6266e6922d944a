"""Load/store insertion around the operation sequence, three ways.

Prefix items P[i] are the loads an operation needs before it runs (one per
first-occurrence memory-backed parameter register); suffix items S[i] are
the stores of its return register.  A legal schedule keeps ops in index
order, keeps prefixes before and suffixes after their op, and preserves
the relative order inside each P[i] and S[i].
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .dataflow import OpInstance, VReg

MODES = ("allin", "unit", "random")


@dataclass(frozen=True)
class ScheduleItem:
    kind: str  # "load" | "op" | "store"
    op_index: int
    intra_index: int = 0


@dataclass
class Schedule:
    items: list[ScheduleItem]
    mode: str


def derive_prefix_suffix(
    ops: list[OpInstance],
) -> tuple[list[list[VReg]], list[list[VReg]]]:
    """Loads for first-occurrence memory registers; stores for printable returns.

    Quarantined returns hold uninitialized lanes and bool returns have no
    element-wise store form, so neither produces a suffix item.
    """
    seen: set[int] = set()
    P: list[list[VReg]] = []
    S: list[list[VReg]] = []
    for op in ops:
        loads: list[VReg] = []
        for reg in op.reads:
            if reg.from_memory and reg.id not in seen:
                seen.add(reg.id)
                loads.append(reg)
        P.append(loads)
        r = op.bound_return
        if r is not None and not r.quarantined and not r.vtype.is_bool:
            S.append([r])
        else:
            S.append([])
    return P, S


def _items(P, S):
    N = len(P)
    ops = [ScheduleItem("op", i) for i in range(N)]
    loads = [[ScheduleItem("load", i, k) for k in range(len(P[i]))] for i in range(N)]
    stores = [[ScheduleItem("store", i, k) for k in range(len(S[i]))] for i in range(N)]
    return ops, loads, stores


def schedule_allin(P, S) -> Schedule:
    ops, loads, stores = _items(P, S)
    res: list[ScheduleItem] = []
    for i in range(len(P)):
        res.extend(loads[i])
    res.extend(ops)
    for i in range(len(P)):
        res.extend(stores[i])
    return Schedule(res, "allin")


def schedule_unit(P, S) -> Schedule:
    ops, loads, stores = _items(P, S)
    res: list[ScheduleItem] = []
    for i in range(len(P)):
        res.extend(loads[i])
        res.append(ops[i])
        res.extend(stores[i])
    return Schedule(res, "unit")


def schedule_random(P, S, rng: random.Random) -> Schedule:
    """Each op lands uniformly after the previous op; prefixes uniformly
    before it and suffixes uniformly after, respecting intra order."""
    ops, loads, stores = _items(P, S)
    res: list[ScheduleItem] = []
    last_op_pos = -1
    for i in range(len(P)):
        op_pos = rng.randint(last_op_pos + 1, len(res))
        res.insert(op_pos, ops[i])
        lo = 0
        for item in loads[i]:
            pos = rng.randint(lo, op_pos)
            res.insert(pos, item)
            op_pos += 1
            lo = pos + 1
        lo = op_pos + 1
        for item in stores[i]:
            pos = rng.randint(lo, len(res))
            res.insert(pos, item)
            lo = pos + 1
        last_op_pos = op_pos
    return Schedule(res, "random")


def build_schedule(P, S, mode: str, rng: random.Random | None = None) -> Schedule:
    if mode == "allin":
        return schedule_allin(P, S)
    if mode == "unit":
        return schedule_unit(P, S)
    if mode == "random":
        if rng is None:
            raise ValueError("random scheduling needs an rng")
        return schedule_random(P, S, rng)
    raise ValueError(f"unknown scheduling mode {mode!r}")


def check_constraints(schedule: Schedule, P, S) -> str | None:
    """None when the schedule is legal, else a description of the first
    violated ordering pair."""
    N = len(P)
    items = schedule.items
    want = {("op", i, 0) for i in range(N)}
    want |= {("load", i, k) for i in range(N) for k in range(len(P[i]))}
    want |= {("store", i, k) for i in range(N) for k in range(len(S[i]))}
    got = [(it.kind, it.op_index, it.intra_index) for it in items]
    if len(got) != len(set(got)) or set(got) != want:
        return "item multiset mismatch"

    pos = {key: idx for idx, key in enumerate(got)}
    for i in range(N):
        if i and pos[("op", i - 1, 0)] > pos[("op", i, 0)]:
            return f"op order: op {i - 1} after op {i}"
        op_at = pos[("op", i, 0)]
        for k in range(len(P[i])):
            if pos[("load", i, k)] > op_at:
                return f"prefix after op: P[{i}][{k}]"
            if k and pos[("load", i, k - 1)] > pos[("load", i, k)]:
                return f"prefix order: P[{i}][{k - 1}] after P[{i}][{k}]"
        for k in range(len(S[i])):
            if pos[("store", i, k)] < op_at:
                return f"suffix before op: S[{i}][{k}]"
            if k and pos[("store", i, k - 1)] > pos[("store", i, k)]:
                return f"suffix order: S[{i}][{k - 1}] after S[{i}][{k}]"
    return None

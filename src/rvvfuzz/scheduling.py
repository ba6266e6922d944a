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
from functools import cache
from typing import NamedTuple

from .dataflow import OpInstance, VReg

MODES = ("allin", "unit", "random")


class ScheduleItem(NamedTuple):
    """A plain tuple, so an item is also its statement's key."""

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


# Items are immutable, so every schedule shares the same ones
@cache
def _ops(count: int) -> tuple[ScheduleItem, ...]:
    return tuple(ScheduleItem("op", i) for i in range(count))


@cache
def _run(kind: str, op_index: int, count: int) -> tuple[ScheduleItem, ...]:
    """The items of one op's prefix ("load") or suffix ("store")."""
    return tuple(ScheduleItem(kind, op_index, k) for k in range(count))


def _items(P, S):
    loads = [_run("load", i, len(p)) for i, p in enumerate(P)]
    stores = [_run("store", i, len(s)) for i, s in enumerate(S)]
    return _ops(len(P)), loads, stores


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


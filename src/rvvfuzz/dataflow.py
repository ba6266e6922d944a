"""Randomized vector-register allocation over a selected operation sequence.

Walks the sequence once, binding every vector parameter and return value to
a virtual register.  A coin flip (or an empty table bucket) forces a fresh
register; fresh parameter registers are memory-backed and later require one
load intrinsic plus one global array each.  Reuse draws uniformly from the
active registers of the exact type, which is what produces read/write
dependency chains between operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .intrinsics import IntrinsicDef
from .semantics import UNINITIALIZED, semantic_class, wants_synth_index
from .types import VectorType


@dataclass
class VReg:
    id: int
    vtype: VectorType
    from_memory: bool = False
    quarantined: bool = False

    @property
    def name(self) -> str:
        return f"vreg_{self.id}_mem" if self.from_memory else f"vreg_{self.id}"


@dataclass(frozen=True)
class SynthIndex:
    """A vector operand synthesized inline from vid so indices stay in [0, vl)."""

    vtype: VectorType


@dataclass
class OpInstance:
    def_: IntrinsicDef
    bound_params: list = field(default_factory=list)  # VReg | SynthIndex | None
    bound_return: VReg | None = None

    @property
    def reads(self) -> list[VReg]:
        return [b for b in self.bound_params if isinstance(b, VReg)]


def allocate(
    ops: list[OpInstance], rng: random.Random, coin_bias: float = 0.5
) -> list[OpInstance]:
    # type token -> active registers of that exact type
    table: dict[str, list[VReg]] = {}
    next_id = 0

    def fresh(vtype: VectorType, from_memory: bool, quarantined: bool = False) -> VReg:
        nonlocal next_id
        reg = VReg(next_id, vtype, from_memory, quarantined)
        next_id += 1
        return reg

    for op in ops:
        assert not op.bound_params and op.bound_return is None
        for p in op.def_.params:
            if p.vtype is None:
                op.bound_params.append(None)  # scalar/CSR slots filled by codegen
                continue
            if wants_synth_index(op.def_, p.name):
                op.bound_params.append(SynthIndex(p.vtype))
                continue
            bucket = table.setdefault(p.vtype.token, [])
            if rng.random() < coin_bias or not bucket:
                reg = fresh(p.vtype, from_memory=True)
                bucket.append(reg)
            else:
                reg = bucket[rng.randrange(len(bucket))]
            op.bound_params.append(reg)

        ret_t = op.def_.ret_vtype
        if ret_t is None:
            continue
        if semantic_class(op.def_) == UNINITIALIZED:
            op.bound_return = fresh(ret_t, from_memory=False, quarantined=True)
            continue
        bucket = table.setdefault(ret_t.token, [])
        if rng.random() < coin_bias or not bucket:
            reg = fresh(ret_t, from_memory=False)
            bucket.append(reg)
        else:
            reg = bucket[rng.randrange(len(bucket))]
        op.bound_return = reg

    return ops


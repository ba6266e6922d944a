"""Ratio-driven candidate filtering and random sequence selection."""

from __future__ import annotations

import random

from .intrinsics import AlignmentError, IntrinsicDef, is_ratio_aligned, is_reduction
from .semantics import is_generatable


class SelectionError(ValueError):
    pass


def reduction_vs2(d: IntrinsicDef):
    """The iterated operand of a reduction: first non-mask vector parameter."""
    for p in d.params:
        if p.vtype is not None and p.role == "vector-operand":
            return p
    raise SelectionError(f"reduction {d.full_name} has no vs2 operand")


def participating_ratios(d: IntrinsicDef) -> frozenset[int]:
    """The common ratios at which the operation fits a ratio-aligned sequence.

    Aligned operations fit their one ratio.  Reductions fit the ratio of
    their iterated vs2 operand alone.  Other mixed-ratio operations fit each
    ratio among their vector types that no vector parameter's ratio exceeds:
    every parameter then holds at least as many lanes as the common shape,
    so the shared vl never exceeds an operand's capacity.
    """
    if not is_generatable(d):
        return frozenset()
    if is_reduction(d):
        return frozenset((reduction_vs2(d).vtype.ratio,))
    try:
        aligned, common = is_ratio_aligned(d)
    except AlignmentError:
        return frozenset()
    if aligned:
        return frozenset((common,))
    highest = max((p.vtype.ratio for p in d.params if p.vtype is not None), default=0)
    return frozenset(t.ratio for t in d.vector_types() if t.ratio >= highest)


def ratio_pools(defs: list[IntrinsicDef]) -> dict[int, list[IntrinsicDef]]:
    """Every ratio's candidates in one pass, each pool in definition order.

    Always-undefined conversions stay in the pools; dataflow quarantines
    their results so nothing downstream consumes an uninitialized value.
    """
    pools: dict[int, list[IntrinsicDef]] = {}
    for d in defs:
        for r in participating_ratios(d):
            pools.setdefault(r, []).append(d)
    return pools


def select_sequence(
    candidates: list[IntrinsicDef], seq_len: int, rng: random.Random
) -> list[IntrinsicDef]:
    """N independent uniform draws with replacement, deterministic per seed."""
    if seq_len < 1:
        raise SelectionError("sequence length must be >= 1")
    if not candidates:
        raise SelectionError("empty candidate set")
    return [candidates[rng.randrange(len(candidates))] for _ in range(seq_len)]

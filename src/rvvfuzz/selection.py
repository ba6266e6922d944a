"""Ratio-driven candidate filtering and random sequence selection."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .intrinsics import AlignmentError, IntrinsicDef, is_ratio_aligned, is_reduction
from .semantics import UNINITIALIZED, is_generatable, semantic_class
from .types import ratio_of


class SelectionError(ValueError):
    pass


@dataclass(frozen=True)
class SelectionConfig:
    common_ratio: int
    seq_len: int
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.seq_len < 1:
            raise SelectionError("sequence length must be >= 1")
        if self.common_ratio not in (1, 2, 4, 8, 16, 32, 64):
            raise SelectionError(f"illegal SEW/LMUL ratio {self.common_ratio}")

    @classmethod
    def from_type_token(cls, token: str, seq_len: int, rng_seed: int = 0):
        return cls(ratio_of(token), seq_len, rng_seed)


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


def can_participate(d: IntrinsicDef, ratio: int) -> bool:
    """Whether the operation fits a ratio-aligned sequence at this ratio."""
    return ratio in participating_ratios(d)


def ratio_pools(defs: list[IntrinsicDef]) -> dict[int, list[IntrinsicDef]]:
    """Every ratio's candidates in one pass, each pool in definition order."""
    pools: dict[int, list[IntrinsicDef]] = {}
    for d in defs:
        for r in participating_ratios(d):
            pools.setdefault(r, []).append(d)
    return pools


def filter_candidates(defs: list[IntrinsicDef], ratio: int) -> list[IntrinsicDef]:
    """Operation intrinsics able to join a ratio-aligned sequence.

    Always-undefined conversions stay in the pool; dataflow quarantines
    their results so nothing downstream consumes an uninitialized value.
    """
    out = [d for d in defs if can_participate(d, ratio)]
    if not out:
        raise SelectionError(f"ratio {ratio} admits no operation intrinsics")
    return out


def is_quarantined(d: IntrinsicDef) -> bool:
    return semantic_class(d) == UNINITIALIZED


def select_sequence(
    candidates: list[IntrinsicDef], cfg: SelectionConfig, rng: random.Random | None = None
) -> list[IntrinsicDef]:
    """N independent uniform draws with replacement, deterministic per seed."""
    if not candidates:
        raise SelectionError("empty candidate set")
    if rng is None:
        rng = random.Random(f"select:{cfg.rng_seed}")
    return [candidates[rng.randrange(len(candidates))] for _ in range(cfg.seq_len)]

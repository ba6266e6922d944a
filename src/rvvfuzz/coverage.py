"""Intrinsic-coverage metric over a corpus of generated programs.

coverage = sum(min(count_i, weight_i)) / sum(weight_i), where count_i is
the number of whole-identifier occurrences of name i in the corpus and
weight_i is the name's overload weight from the definition listing.
Occurrences are extracted as maximal C identifiers, so a name never counts
as a prefix of a longer one.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .intrinsics import IntrinsicDef, is_reduction

_IDENT_RE = re.compile(r"__riscv_\w+")

FAMILIES = (
    "load/store",
    "segment load/store",
    "arithmetic",
    "mask",
    "reduction",
    "permutation",
    "conversion",
    "misc",
)

_MASK_STEMS = frozenset(
    {
        "vmand", "vmnand", "vmandn", "vmxor", "vmor", "vmnor", "vmorn", "vmxnor",
        "vmmv", "vmnot", "vmclr", "vmset", "vcpop", "vfirst",
        "vmsbf", "vmsif", "vmsof", "viota", "vid",
    }
)
_PERM_STEMS = frozenset(
    {
        "vslideup", "vslidedown", "vslide1up", "vslide1down",
        "vfslide1up", "vfslide1down", "vrgather", "vrgatherei16", "vcompress",
    }
)
_CONV_STEMS = frozenset(
    {
        "vundefined", "vreinterpret", "vset", "vget",
        "vfcvt", "vfwcvt", "vfncvt", "vzext", "vsext",
        "vwcvt", "vwcvtu", "vncvt",
    }
)


def family_of(d: IntrinsicDef) -> str:
    stem = d.stem
    if "seg" in stem:
        return "segment load/store"
    if d.category in ("Load", "Store") or re.match(r"^vl.*\d+(ff)?$", stem) or stem == "vlm":
        return "load/store"
    if stem in ("vsetvl", "vsetvlmax", "vlenb"):
        return "misc"
    if is_reduction(d):
        return "reduction"
    if stem in _MASK_STEMS:
        return "mask"
    if stem in _PERM_STEMS or re.match(r"^vmv[1248]r$", stem):
        return "permutation"
    if d.mnemonic.startswith(("vmv_x_s", "vmv_s_x", "vfmv_f_s", "vfmv_s_f")):
        return "permutation"
    if stem in _CONV_STEMS or d.mnemonic.startswith(("vlmul_ext", "vlmul_trunc")):
        return "conversion"
    return "arithmetic"


class CoverageError(ValueError):
    pass


@dataclass
class CoverageReport:
    per_intrinsic: dict[str, tuple[int, int, int]]  # name -> (count, weight, contribution)
    overall: float
    naming_totals: dict[str, tuple[int, int, float]]
    corpus_size: int

    def contribution(self) -> int:
        return sum(c for _, _, c in self.per_intrinsic.values())

    def weight_total(self) -> int:
        return sum(w for _, w, _ in self.per_intrinsic.values())


def compute_coverage(corpus: Iterable[str], defs: list[IntrinsicDef]) -> CoverageReport:
    """Coverage of ``defs`` (distinct names, as parsed from a listing) by
    ``corpus``, read once: any iterable of program texts."""
    if not defs:
        raise CoverageError("empty definition list")
    counts: Counter = Counter()
    corpus_size = 0
    for text in corpus:
        counts.update(_IDENT_RE.findall(text))
        corpus_size += 1

    per: dict[str, tuple[int, int, int]] = {}
    uncovered: dict[int, tuple[int, int, int]] = {}  # weight -> (0, weight, 0)
    naming: dict[str, list[int]] = {}
    covered = weight_total = 0
    for d in defs:
        w = d.alias_count
        c = counts.get(d.full_name, 0)
        if c:
            contrib = min(c, w)
            per[d.full_name] = (c, w, contrib)
            covered += contrib
        else:
            contrib = 0
            per[d.full_name] = uncovered.setdefault(w, (0, w, 0))
        weight_total += w
        acc = naming.setdefault(d.naming_category, [0, 0])
        acc[0] += contrib
        acc[1] += w
    naming_totals = {
        k: (a, b, a / b if b else 0.0) for k, (a, b) in sorted(naming.items())
    }
    return CoverageReport(per, covered / weight_total, naming_totals, corpus_size)


def category_breakdown(
    report: CoverageReport, defs: list[IntrinsicDef]
) -> dict[str, tuple[int, int, float]]:
    """Coverage grouped by functional family; families partition the listing."""
    acc: dict[str, list[int]] = {f: [0, 0] for f in FAMILIES}
    for d in defs:
        c, w, contrib = report.per_intrinsic[d.full_name]
        fam = family_of(d)
        acc[fam][0] += contrib
        acc[fam][1] += w
    return {f: (a, b, a / b if b else 0.0) for f, (a, b) in acc.items()}


def format_report(report: CoverageReport, breakdown: dict | None = None) -> str:
    lines = [
        f"corpus size: {report.corpus_size}",
        f"overall intrinsic coverage: {report.overall:.2%} "
        f"({report.contribution()}/{report.weight_total()})",
    ]
    for k, (a, b, r) in report.naming_totals.items():
        lines.append(f"  {k:<16} {r:.2%} ({a}/{b})")
    if breakdown:
        lines.append("per-family coverage:")
        for fam, (a, b, r) in breakdown.items():
            lines.append(f"  {fam:<20} {r:.2%} ({a}/{b})")
    return "\n".join(lines) + "\n"

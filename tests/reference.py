"""Test oracles: slow, direct statements of what the pipeline must hold.

Nothing under ``src/`` calls these.  Each one restates a property in the
plainest form, so that a test can hold the pipeline's fast paths to it.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter

from rvvfuzz.codegen import _MASK_LOGIC, ElementState, _not_bit, _op_scalar
from rvvfuzz.coverage import CoverageReport
from rvvfuzz.dataflow import OpInstance, SynthIndex, VReg
from rvvfuzz.intrinsics import IntrinsicDef, NameParts
from rvvfuzz.scheduling import Schedule
from rvvfuzz.semantics import (
    LANE_LOCAL,
    REDUCTION,
    REGROUP,
    SCALAR_INSERT,
    SELECTOR_STEMS,
    TUPLE_EXTRACT,
    TUPLE_INSERT,
    UNINITIALIZED,
    VD_INPUT_STEMS,
    semantic_class,
)


def render_name(parts: NameParts) -> str:
    """The intrinsic name ``parts`` decodes from."""
    pieces = [parts.mnemonic]
    pieces.extend(parts.type_tokens)
    if parts.policy:
        pieces.append(parts.policy)
    return parts.prefix + "_".join(pieces)


def scan_dependencies(ops: list[OpInstance]) -> set[str]:
    """Which of the four dependency scenarios the bound sequence realizes."""
    accesses: dict[int, list[tuple[int, str]]] = {}
    for i, op in enumerate(ops):
        for reg in op.reads:
            accesses.setdefault(reg.id, []).append((i, "read"))
        if op.bound_return is not None:
            accesses.setdefault(op.bound_return.id, []).append((i, "write"))
    found: set[str] = set()
    for events in accesses.values():
        for a in range(len(events)):
            for b in range(a + 1, len(events)):
                (i, ka), (j, kb) = events[a], events[b]
                if i == j:
                    continue
                found.add(f"{ka}-{kb}")
    return found


def use_define_violations(ops: list[OpInstance]) -> list[str]:
    """Registers read before any definition (load for _mem, else a return)."""
    defined: set[int] = set()
    problems: list[str] = []
    for i, op in enumerate(ops):
        for reg in op.reads:
            if reg.from_memory:
                defined.add(reg.id)  # backing load precedes first use
            elif reg.id not in defined:
                problems.append(f"op {i} reads {reg.name} before definition")
        if op.bound_return is not None:
            defined.add(op.bound_return.id)
    return problems


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


def _defined(v: str) -> bool:
    return v in ("D", "0", "1")


def analyze_agnostic_per_lane(ops, load_plans, scalar_args, data_len: int) -> ElementState:
    """``codegen.analyze_agnostic`` one lane at a time: for every lane of an
    elementwise op it picks the lane function by stem, then applies the
    mask, then folds 0/1 into D on a data result."""
    n = data_len
    regs: dict[int, list] = {}

    def reg_state(reg: VReg) -> list:
        if reg.id not in regs:
            if reg.from_memory:
                plan = load_plans[reg.id]
                if plan.kind == "mask":
                    regs[reg.id] = [str(v.bits) for v in plan.array.values]
                elif reg.vtype.is_tuple:
                    regs[reg.id] = [["D"] * n for _ in range(reg.vtype.nf)]
                else:
                    regs[reg.id] = ["D"] * n
            elif reg.vtype.is_tuple:
                regs[reg.id] = [["A"] * n for _ in range(reg.vtype.nf)]
            else:
                regs[reg.id] = ["A"] * n
        return regs[reg.id]

    for i, op in enumerate(ops):
        d = op.def_
        klass = semantic_class(d)
        mask_bits = None
        merge = None
        sources: list[list] = []
        selector = d.stem in SELECTOR_STEMS

        for b, p in zip(op.bound_params, d.params):
            if isinstance(b, SynthIndex):
                continue
            if not isinstance(b, VReg):
                continue
            st = reg_state(b)
            if p.role == "mask" and not selector:
                mask_bits = st
            elif p.name == "vd" and d.policy in ("tu", "tum", "tumu", "mu"):
                merge = st
                if d.stem in VD_INPUT_STEMS:
                    sources.append(st)
            else:
                sources.append(st)

        ret = op.bound_return
        if ret is None:
            continue

        if klass == UNINITIALIZED or klass == REGROUP or klass == LANE_LOCAL:
            regs[ret.id] = (
                [["A"] * n for _ in range(ret.vtype.nf)]
                if ret.vtype.is_tuple
                else ["A"] * n
            )
            continue
        if klass == SCALAR_INSERT:
            st = ["A"] * n
            st[0] = "D"
            regs[ret.id] = st
            continue
        if klass == REDUCTION:
            ok = all(s[0] in ("D", "0", "1") for s in sources[1:]) if len(sources) > 1 else True
            vs2 = sources[0] if sources else ["A"] * n
            for p_pos in range(n):
                m = mask_bits[p_pos] if mask_bits is not None else "1"
                if m == "A":
                    ok = False
                elif m != "0" and vs2[p_pos] not in ("D", "0", "1"):
                    ok = False
            st = ["A"] * n
            st[0] = "D" if ok else "A"
            regs[ret.id] = st
            continue
        if klass == TUPLE_INSERT:
            idx = int(_op_scalar(op, scalar_args, i))
            dest_src = sources[0]
            value = sources[1] if len(sources) > 1 else ["A"] * n
            new = [list(f) for f in dest_src]
            new[idx] = list(value)
            regs[ret.id] = new
            continue
        if klass == TUPLE_EXTRACT:
            idx = int(_op_scalar(op, scalar_args, i))
            regs[ret.id] = list(sources[0][idx])
            continue

        is_bool_ret = ret.vtype.is_bool
        out = []
        for p_pos in range(n):
            vals = [s[p_pos] for s in sources]
            computed_ok = all(v in ("D", "0", "1") for v in vals)
            if d.stem in _MASK_LOGIC and len(vals) == 2:
                res = _MASK_LOGIC[d.stem](vals[0], vals[1])
            elif d.stem == "vmclr":
                res = "0"
            elif d.stem == "vmset":
                res = "1"
            elif d.stem in ("vmmv",):
                res = vals[0] if vals else "A"
            elif d.stem == "vmnot":
                res = _not_bit(vals[0]) if vals else "A"
            else:
                res = "D" if computed_ok else "A"
            if mask_bits is not None:
                m = mask_bits[p_pos]
                inactive = merge[p_pos] if merge is not None else "A"
                if d.policy in ("m", "tum"):
                    inactive = "A"
                if m == "1":
                    pass
                elif m == "0":
                    res = inactive
                elif m == "D":
                    res = "D" if (_defined(res) and _defined(inactive)) else "A"
                else:
                    res = "A"
            if not is_bool_ret and res in ("0", "1"):
                res = "D"
            out.append(res)
        regs[ret.id] = out

    return ElementState(regs)


def compute_coverage(corpus, defs: list[IntrinsicDef]) -> CoverageReport:
    """Coverage as a set of listed names, the listed occurrences counted,
    then one record per name and totals summed from the records."""
    names = {d.full_name for d in defs}
    corpus = list(corpus)
    counts: Counter = Counter()
    for text in corpus:
        for tok in re.findall(r"__riscv_\w+", text):
            if tok in names:
                counts[tok] += 1
    per: dict[str, tuple[int, int, int]] = {}
    naming: dict[str, list[int]] = {}
    for d in defs:
        c = counts.get(d.full_name, 0)
        w = d.alias_count
        contrib = min(c, w)
        per[d.full_name] = (c, w, contrib)
        acc = naming.setdefault(d.naming_category, [0, 0])
        acc[0] += contrib
        acc[1] += w
    weight_total = sum(w for _, w, _ in per.values())
    covered = sum(x for _, _, x in per.values())
    naming_totals = {
        k: (a, b, a / b if b else 0.0) for k, (a, b) in sorted(naming.items())
    }
    return CoverageReport(per, covered / weight_total, naming_totals, len(corpus))


def sidecar_bytes(case) -> bytes:
    """A case's sidecar as ``json.dumps`` lays it out with ``indent=2``."""
    meta = {
        "snapshot": case.snapshot,
        "manifest_len": len(case.manifest),
        "source_sha256": hashlib.sha256(case.source.encode()).hexdigest(),
    }
    return (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode()

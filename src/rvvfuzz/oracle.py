"""Reference evaluator for a core intrinsic subset.

Executes a generated case's IR directly: unit/strided/indexed loads, element
stores, the vsetvl loop, integer add/sub, compares, shifts, element-index,
and their masked forms.  This is the in-repo ground truth for scheduling
equivalence, agnostic-poison checks and bounds tracking, with no RISC-V
toolchain involved.

Lanes that the architecture leaves agnostic (masked-off, tail) are filled
with a caller-chosen poison byte, so running a case twice with different
poison exposes any agnostic value that reaches a print.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cache

from .codegen import CaseIR, ProgramCase, ScalarValue, nan_squash_bits
from .dataflow import VReg


class OracleUnsupported(Exception):
    """Case uses an intrinsic outside the evaluator subset."""


class OracleBoundsError(Exception):
    """An access fell outside its array: a generator bug, never tolerable."""


@dataclass
class _Array:
    name: str
    sew: int
    length: int
    values: list[int]
    defined: list[bool]


class _Lane:
    __slots__ = ("bits", "ok")

    def __init__(self, bits: int, ok: bool):
        self.bits = bits
        self.ok = ok


def _signed(bits: int, width: int) -> int:
    return bits - (1 << width) if bits >= 1 << (width - 1) else bits


def _poison_bits(poison_byte: int, width: int) -> int:
    out = 0
    for _ in range(width // 8):
        out = (out << 8) | poison_byte
    return out if width >= 8 else poison_byte & 1


def _compare(test, signed: bool):
    if signed:
        return lambda i, a, b, sew: test(_signed(a, sew), _signed(b, sew))
    return lambda i, a, b, sew: test(a, b)


# One row per supported stem: the value of lane i from the SEW-bit patterns
# a (first vector operand) and b (second vector operand or the scalar); the
# caller truncates the result to the destination width.
_LANE_FUNCS = {
    "vadd": lambda i, a, b, sew: a + b,
    "vsub": lambda i, a, b, sew: a - b,
    "vrsub": lambda i, a, b, sew: b - a,
    "vsll": lambda i, a, b, sew: a << (b & (sew - 1)),
    "vsrl": lambda i, a, b, sew: a >> (b & (sew - 1)),
    "vsra": lambda i, a, b, sew: _signed(a, sew) >> (b & (sew - 1)),
    "vmseq": _compare(operator.eq, False),
    "vmsne": _compare(operator.ne, False),
    "vmslt": _compare(operator.lt, True),
    "vmsltu": _compare(operator.lt, False),
    "vmsle": _compare(operator.le, True),
    "vmsleu": _compare(operator.le, False),
    "vmsgt": _compare(operator.gt, True),
    "vmsgtu": _compare(operator.gt, False),
    "vmsge": _compare(operator.ge, True),
    "vmsgeu": _compare(operator.ge, False),
    "vid": lambda i, a, b, sew: i,
}

SUPPORTED_OP_STEMS = frozenset(_LANE_FUNCS)


def _fmt(kind: str, sew: int, bits: int) -> str:
    if kind == "int":
        return str(_signed(bits, sew))
    if kind == "uint":
        return str(bits)
    squashed = nan_squash_bits(bits, sew)
    return f"0x{squashed:0{sew // 4}x}"


def evaluate(case: ProgramCase, vlen: int = 128, poison_byte: int = 0x00) -> str:
    """The text a correct implementation of the case would print."""
    ir = case.ir
    _check_supported(ir)
    ratio = ir.ratio
    if vlen < ratio:
        raise OracleUnsupported(f"vlmax < 1 at VLEN {vlen} for ratio {ratio}")
    vlmax = vlen // ratio

    arrays: dict[str, _Array] = {}
    for a in ir.arrays:
        vals = [v.bits for v in a.values] if a.values is not None else [0] * a.length
        arrays[a.name] = _Array(a.name, a.vtype.sew, a.length, vals, [True] * a.length)

    avl = ir.data_len
    pos = 0
    while avl > 0:
        vl = min(avl, vlmax)
        regs: dict[int, list[_Lane]] = {}
        for item in case.schedule.items:
            if item.kind == "load":
                reg = ir.P[item.op_index][item.intra_index]
                _exec_load(ir, reg, regs, arrays, pos, vl, vlmax, poison_byte)
            elif item.kind == "store":
                reg = ir.S[item.op_index][item.intra_index]
                _exec_store(ir, reg, regs, arrays, pos, vl)
            else:
                _exec_op(ir, item.op_index, regs, vl, vlmax, poison_byte)
        pos += vl
        avl -= vl

    lines = []
    if not ir.manifest:
        lines.append("none")
    by_decl = {a.name: a for a in ir.arrays}
    for name, idx in ir.manifest:
        arr = arrays[name]
        decl = by_decl[name]
        lines.append(f"{name}[{idx}]={_fmt(decl.vtype.kind, arr.sew, arr.values[idx])}")
    return "\n".join(lines) + "\n"


def _check_supported(ir: CaseIR) -> None:
    for op in ir.ops:
        d = op.def_
        if d.stem not in SUPPORTED_OP_STEMS:
            raise OracleUnsupported(d.full_name)
        if d.policy not in ("", "m"):
            raise OracleUnsupported(f"policy variant {d.full_name}")
        for t in d.vector_types():
            if t.is_tuple:
                raise OracleUnsupported(f"tuple type in {d.full_name}")
            if t.ratio != ir.ratio:
                raise OracleUnsupported(f"off-ratio operand in {d.full_name}")
    for plan in list(ir.load_plans.values()):
        if plan.reg.vtype.is_tuple:
            raise OracleUnsupported("segment load")
    for plan in list(ir.store_plans.values()):
        if plan.reg.vtype.is_tuple:
            raise OracleUnsupported("segment store")


def _lane_indices(plan, arr: _Array, esize: int, pos: int, vl: int) -> list[int]:
    """The array index each of the vl active lanes accesses, checked for
    alignment and bounds."""
    if plan.kind in ("indexed-u", "indexed-o"):
        # vid << log2(esize) (or * esize), truncated to the index element width
        mask = (1 << plan.index_eew) - 1
        offsets = [(i * esize) & mask for i in range(vl)]
    else:
        offsets = [i * esize for i in range(vl)]  # unit, mask and unit-stride strided
    out = []
    for byte_off in offsets:
        if byte_off % esize:
            raise OracleBoundsError(f"misaligned offset {byte_off} in {arr.name}")
        idx = pos + byte_off // esize
        if not 0 <= idx < arr.length:
            raise OracleBoundsError(f"{arr.name}[{idx}] outside length {arr.length}")
        out.append(idx)
    return out


def _exec_load(ir, reg: VReg, regs, arrays, pos, vl, vlmax, poison_byte):
    plan = ir.load_plans[reg.id]
    arr = arrays[plan.array.name]
    if plan.kind == "mask":
        lanes = [_Lane(1 if arr.values[k] == 1 else 0, arr.defined[k])
                 for k in _lane_indices(plan, arr, 1, pos, vl)]
        tail = _Lane(poison_byte & 1, False)
    else:
        sew = reg.vtype.sew
        lanes = [_Lane(arr.values[k], arr.defined[k])
                 for k in _lane_indices(plan, arr, sew // 8, pos, vl)]
        tail = _Lane(_poison_bits(poison_byte, sew), False)
    regs[reg.id] = lanes + [tail] * (vlmax - vl)


def _exec_store(ir, reg: VReg, regs, arrays, pos, vl):
    plan = ir.store_plans[reg.id]
    arr = arrays[plan.array.name]
    lanes = regs.get(reg.id)
    if lanes is None:
        raise OracleBoundsError(f"store of undefined register {reg.name}")
    for k, lane in zip(_lane_indices(plan, arr, reg.vtype.sew // 8, pos, vl), lanes):
        arr.values[k] = lane.bits
        arr.defined[k] = lane.ok


def _scalar_arg(ir, op_index, j) -> int:
    a = ir.scalar_args[(op_index, j)]
    if isinstance(a, ScalarValue):
        return a.bits
    return int(a)


def _exec_op(ir, op_index, regs, vl, vlmax, poison_byte):
    op = ir.ops[op_index]
    d = op.def_
    t = d.ret_vtype
    sew = None
    mask = None
    vec_args: list[list[_Lane]] = []
    scalar = None
    for j, (b, p) in enumerate(zip(op.bound_params, d.params)):
        if isinstance(b, VReg):
            lanes = regs.get(b.id)
            if lanes is None:
                raise OracleBoundsError(f"use of undefined register {b.name}")
            if p.role == "mask":
                mask = lanes
            else:
                vec_args.append(lanes)
                sew = b.vtype.sew
        elif b is None and p.role == "scalar":
            scalar = _scalar_arg(ir, op_index, j)
    dest_w = 1 if t.is_bool else t.sew
    if sew is None:
        sew = 8 if t.is_bool else t.sew
    if scalar is not None:
        scalar &= (1 << sew) - 1
    width_mask = (1 << dest_w) - 1
    lane_func = _LANE_FUNCS[d.stem]
    poison = _Lane(_poison_bits(poison_byte, dest_w) & width_mask, False)

    out: list[_Lane] = []
    for i in range(vlmax):
        if i >= vl or mask is not None and (mask[i].bits != 1 or not mask[i].ok):
            out.append(poison)
            continue
        srcs = [v[i] for v in vec_args]
        a = srcs[0].bits if srcs else None
        b = srcs[1].bits if len(srcs) > 1 else scalar
        out.append(_Lane(lane_func(i, a, b, sew) & width_mask, all(x.ok for x in srcs)))
    regs[op.bound_return.id] = out


# unmasked unit, strided and indexed load/store families, e.g. vle8, vsuxei16
_SUBSET_MEM_FAMILIES = ("vle", "vlse", "vluxei", "vloxei", "vse", "vsse", "vsuxei", "vsoxei")
_NAME_STEM_RE = re.compile(r"__riscv_([^_(]*)")


def _is_subset_mem_stem(stem: str) -> bool:
    return any(stem.startswith(f) and stem[len(f):].isdigit() for f in _SUBSET_MEM_FAMILIES)


@cache
def oracle_subset_listing() -> str:
    """A listing restricted to evaluator-supported families; the smoke
    profile used by the equivalence and well-definedness suites.  The text
    is built once per process; the parsed catalog it is filtered from, and
    the parse memo its lines share, are not kept."""
    from .catalog import build_listing
    from .intrinsics import ParseMemo, parse_prototype

    memo = ParseMemo()
    keep: list[str] = []
    for line in build_listing().splitlines():
        # only a supported stem can pass the full rule below: skip the rest unparsed
        m = _NAME_STEM_RE.search(line)
        if m is None or not (m[1] in SUPPORTED_OP_STEMS or _is_subset_mem_stem(m[1])):
            continue
        d = parse_prototype(line, memo=memo)
        if d.policy not in ("", "m"):
            continue
        if any(t.is_tuple or t.kind == "float" for t in d.vector_types()):
            continue
        if d.category == "Operation":
            if d.stem in SUPPORTED_OP_STEMS:
                keep.append(line)
        elif d.category in ("Load", "Store"):
            if not d.is_masked and _is_subset_mem_stem(d.stem):
                keep.append(line)
    return "\n".join(keep) + "\n"

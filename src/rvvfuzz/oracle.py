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

from dataclasses import dataclass
from functools import cache

from .codegen import CaseIR, ProgramCase, ScalarValue, nan_squash_bits
from .dataflow import VReg

SUPPORTED_OP_STEMS = frozenset(
    {
        "vadd", "vsub", "vrsub",
        "vsll", "vsrl", "vsra",
        "vmseq", "vmsne", "vmslt", "vmsltu", "vmsle", "vmsleu",
        "vmsgt", "vmsgtu", "vmsge", "vmsgeu",
        "vid",
    }
)


class OracleUnsupported(Exception):
    """Case uses an intrinsic outside the evaluator subset."""


class OracleBoundsError(Exception):
    """An access fell outside its array: a generator bug, never tolerable."""


@dataclass
class _Array:
    name: str
    sew: int
    kind: str
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
        if a.values is not None:
            vals = [v.bits for v in a.values]
            defined = [True] * a.length
        else:
            vals = [0] * a.length
            defined = [True] * a.length
        arrays[a.name] = _Array(a.name, a.vtype.sew, a.vtype.kind, a.length, vals, defined)

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


def _index_offsets(eew: int, step: int, vl: int) -> list[int]:
    # vid << log2(step) (or * step), truncated to the index element width
    mask = (1 << eew) - 1
    return [(i * step) & mask for i in range(vl)]


def _exec_load(ir, reg: VReg, regs, arrays, pos, vl, vlmax, poison_byte):
    plan = ir.load_plans[reg.id]
    arr = arrays[plan.array.name]
    t = reg.vtype
    if plan.kind == "mask":
        lanes = []
        for i in range(vlmax):
            if i < vl:
                idx = pos + i
                _bounds(arr, idx)
                lanes.append(_Lane(1 if arr.values[idx] == 1 else 0, arr.defined[idx]))
            else:
                lanes.append(_Lane(poison_byte & 1, False))
        regs[reg.id] = lanes
        return
    esize = t.sew // 8
    if plan.kind in ("indexed-u", "indexed-o"):
        offsets = _index_offsets(plan.index_eew, esize, vl)
    else:
        offsets = [i * esize for i in range(vl)]  # unit and unit-stride strided
    lanes = []
    for i in range(vlmax):
        if i < vl:
            byte_off = offsets[i]
            if byte_off % esize:
                raise OracleBoundsError(f"misaligned offset {byte_off} in {arr.name}")
            idx = pos + byte_off // esize
            _bounds(arr, idx)
            lanes.append(_Lane(arr.values[idx], arr.defined[idx]))
        else:
            lanes.append(_Lane(_poison_bits(poison_byte, t.sew), False))
    regs[reg.id] = lanes


def _exec_store(ir, reg: VReg, regs, arrays, pos, vl):
    plan = ir.store_plans[reg.id]
    arr = arrays[plan.array.name]
    t = reg.vtype
    esize = t.sew // 8
    lanes = regs.get(reg.id)
    if lanes is None:
        raise OracleBoundsError(f"store of undefined register {reg.name}")
    if plan.kind in ("indexed-u", "indexed-o"):
        offsets = _index_offsets(plan.index_eew, esize, vl)
    else:
        offsets = [i * esize for i in range(vl)]
    for i in range(vl):
        byte_off = offsets[i]
        if byte_off % esize:
            raise OracleBoundsError(f"misaligned offset {byte_off} in {arr.name}")
        idx = pos + byte_off // esize
        _bounds(arr, idx)
        arr.values[idx] = lanes[i].bits
        arr.defined[idx] = lanes[i].ok


def _bounds(arr: _Array, idx: int) -> None:
    if not 0 <= idx < arr.length:
        raise OracleBoundsError(f"{arr.name}[{idx}] outside length {arr.length}")


def _scalar_arg(ir, op_index, j) -> int:
    a = ir.scalar_args[(op_index, j)]
    if isinstance(a, ScalarValue):
        return a.bits
    return int(a)


def _exec_op(ir, op_index, regs, vl, vlmax, poison_byte):
    op = ir.ops[op_index]
    d = op.def_
    stem = d.stem
    t = d.ret_vtype
    is_bool_ret = t.is_bool
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
    if sew is None:
        sew = 8 if is_bool_ret else t.sew
    width_mask = (1 << (t.sew if not is_bool_ret else 1)) - 1

    def src(k: int, i: int) -> _Lane:
        return vec_args[k][i]

    out: list[_Lane] = []
    dest_w = 1 if is_bool_ret else t.sew
    for i in range(vlmax):
        if i >= vl:
            out.append(_Lane(_poison_bits(poison_byte, dest_w) & width_mask, False))
            continue
        if mask is not None and mask[i].bits != 1:
            out.append(_Lane(_poison_bits(poison_byte, dest_w) & width_mask, False))
            continue
        if mask is not None and not mask[i].ok:
            out.append(_Lane(_poison_bits(poison_byte, dest_w) & width_mask, False))
            continue
        bits, ok = _lane_value(stem, d, vec_args, scalar, i, sew)
        out.append(_Lane(bits & width_mask, ok))
    regs[op.bound_return.id] = out


def _lane_value(stem, d, vec_args, scalar, i, sew):
    full = (1 << sew) - 1
    mn = d.mnemonic

    def v(k):
        return vec_args[k][i]

    if stem == "vid":
        return i, True
    a = v(0)
    if len(vec_args) > 1:
        b = v(1)
        b_bits, b_ok = b.bits, b.ok
    else:
        b_bits, b_ok = scalar, True
    ok = a.ok and b_ok

    if stem == "vadd":
        return (a.bits + b_bits) & full, ok
    if stem == "vsub":
        return (a.bits - b_bits) & full, ok
    if stem == "vrsub":
        return (b_bits - a.bits) & full, ok
    if stem in ("vsll", "vsrl", "vsra"):
        sh = b_bits & (sew - 1)
        if stem == "vsll":
            return (a.bits << sh) & full, ok
        if stem == "vsrl":
            return (a.bits >> sh) & full, ok
        return (_signed(a.bits, sew) >> sh) & full, ok

    signed = not stem.endswith("u") and stem not in ("vmseq", "vmsne")
    x = _signed(a.bits, sew) if signed else a.bits
    y = _signed(b_bits & full, sew) if signed else (b_bits & full)
    table = {
        "vmseq": x == y, "vmsne": x != y,
        "vmslt": x < y, "vmsltu": x < y,
        "vmsle": x <= y, "vmsleu": x <= y,
        "vmsgt": x > y, "vmsgtu": x > y,
        "vmsge": x >= y, "vmsgeu": x >= y,
    }
    if stem not in table:
        raise OracleUnsupported(d.full_name)
    return int(table[stem]), ok


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
    load_store = ("vle", "vlse", "vluxei", "vloxei", "vse", "vsse", "vsuxei", "vsoxei")
    for line in build_listing().splitlines():
        if not line.strip():
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
            if d.is_masked:
                continue
            if any(d.stem.startswith(f) and d.stem[len(f):].isdigit() for f in load_store):
                keep.append(line)
    return "\n".join(keep) + "\n"

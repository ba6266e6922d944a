"""Complete C program emission from a scheduled intrinsic sequence.

A case is built in two phases.  Phase A is seed-only and shared by every
scheduling variant: sequence selection, register allocation, load/store
planning, memory contents, scalar arguments and the well-definedness
analysis.  Phase B orders the items for one scheduling mode and renders the
source text.  Keeping phase A mode-independent is what makes the variants
of one seed semantically equivalent.

The analysis works on logical data-stream positions 0..data_len-1.  Within
a strip-mining iteration, lane i of every ratio-aligned operand maps to
stream position (iteration start + i), and stores write exactly vl
elements, so the analysis never needs to know VLEN.  Results whose lanes
are only meaningful relative to the iteration chunk (slides, gathers,
element indices, register regrouping, reduction lanes past the first) are
treated as agnostic so they can never reach a print statement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .dataflow import OpInstance, SynthIndex, VReg, allocate
from .intrinsics import IntrinsicDef
from .scheduling import Schedule, build_schedule, derive_prefix_suffix
from .selection import select_sequence
from .semantics import (
    ELEMENTWISE,
    LANE_LOCAL,
    REDUCTION,
    REGROUP,
    SCALAR_INSERT,
    SCALAR_OUT,
    SELECTOR_STEMS,
    TUPLE_EXTRACT,
    TUPLE_INSERT,
    UNINITIALIZED,
    VD_INPUT_STEMS,
    semantic_class,
)
from .types import (
    BOOL_RATIOS,
    EMUL_TOKENS,
    SCALAR_CTYPES,
    VectorType,
    all_value_types,
    lmul_token,
    type_at_ratio,
)

VXRM_NAMES = ("__RISCV_VXRM_RNU", "__RISCV_VXRM_RNE",
              "__RISCV_VXRM_RDN", "__RISCV_VXRM_ROD")
FRM_NAMES = ("__RISCV_FRM_RNE", "__RISCV_FRM_RTZ", "__RISCV_FRM_RDN",
             "__RISCV_FRM_RUP", "__RISCV_FRM_RMM")

_SHIFT_STEMS = frozenset(
    {"vsll", "vsrl", "vsra", "vssrl", "vssra", "vnsrl", "vnsra", "vnclip", "vnclipu"}
)
_SLIDE_STEMS = frozenset({"vslideup", "vslidedown"})


class CodegenError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scalar data generation
# ---------------------------------------------------------------------------

# IEEE width -> (exponent mask, mantissa mask): a NaN has every exponent
# bit set and a mantissa other than zero
_FLOAT_MASKS = {
    w: ((1 << (w - 1)) - (1 << m), (1 << m) - 1)
    for w, m in ((16, 10), (32, 23), (64, 52))
}


def _is_nan(bits: int, width: int) -> bool:
    exp, mant = _FLOAT_MASKS[width]
    return (bits & exp) == exp and (bits & mant) != 0


class ScalarValue(NamedTuple):
    """One scalar; a plain tuple, as every array value is one."""

    kind: str  # bool | int | uint | float
    width: int
    bits: int  # raw pattern, always non-negative

    @property
    def value(self) -> int:
        if self.kind == "int" and self.bits >= 1 << (self.width - 1):
            return self.bits - (1 << self.width)
        return self.bits


_SCALAR_WIDTHS = {"bool": (1,), "int": (8, 16, 32, 64), "uint": (8, 16, 32, 64),
                  "float": (16, 32, 64)}


def _draw_bits(rng: random.Random, width: int, count: int) -> list[int]:
    """``count`` draws of ``rng.randrange(2 ** width)``, made with the same
    ``getrandbits`` calls: width + 1 bits, again until below 2 ** width."""
    getrandbits = rng.getrandbits
    k, limit = width + 1, 1 << width
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= limit:
            r = getrandbits(k)
        out.append(r)
    return out


def gen_values(kind: str, width: int, count: int, rng: random.Random) -> list[ScalarValue]:
    """``count`` values of one (kind, width).  Each is one ``randrange`` over
    the type's range (a signed value's offset is a flip of the sign bit); a
    NaN pattern becomes +0.0 without a draw of its own."""
    if width not in _SCALAR_WIDTHS.get(kind, ()):
        raise CodegenError(f"unsupported scalar pair ({kind}, {width})")
    bits = _draw_bits(rng, width, count)
    new = tuple.__new__  # ScalarValue(...) without its Python-level __new__
    if kind == "int":
        sign = 1 << (width - 1)
        return [new(ScalarValue, (kind, width, b ^ sign)) for b in bits]
    if kind == "float":
        bits = [0 if _is_nan(b, width) else b for b in bits]
    return [new(ScalarValue, (kind, width, b)) for b in bits]


def gen_scalar(kind: str, width: int, rng: random.Random) -> ScalarValue:
    """The one-value case of ``gen_values``."""
    return gen_values(kind, width, 1, rng)[0]


def _mask_bytes(count: int, rng: random.Random) -> list[ScalarValue]:
    """A mask source: int8 bytes of 0 or 1, each one ``randrange(2)``."""
    new = tuple.__new__
    return [new(ScalarValue, ("int", 8, b)) for b in _draw_bits(rng, 1, count)]


_CTYPE_TO_PAIR = {ctype: pair for pair, ctype in SCALAR_CTYPES.items()}
_FLOAT_CTYPES = frozenset(c for (kind, _), c in SCALAR_CTYPES.items() if kind == "float")


def _int_literals(values: list[ScalarValue], kind: str, width: int) -> str:
    """The C literals of int or uint values of one width, comma-separated."""
    if kind == "uint":
        suffix = "ULL" if width == 64 else "u"
        return ", ".join([f"{v.bits}{suffix}" for v in values])
    half, full = 1 << (width - 1), 1 << width
    vals = [v.bits - full if v.bits >= half else v.bits for v in values]
    if width != 64:
        return ", ".join(map(str, vals))
    # INT64_MIN has no literal: 9223372036854775808LL overflows
    return ", ".join(["(-9223372036854775807LL - 1)" if x == -half else f"{x}LL"
                      for x in vals])


def render_int(v: ScalarValue) -> str:
    return _int_literals([v], v.kind, v.width)


def render_scalar(v: ScalarValue) -> str:
    if v.kind == "float":
        fn = {16: "f16_bits", 32: "f32_bits", 64: "f64_bits"}[v.width]
        return f"{fn}(0x{v.bits:0{v.width // 4}x}u)"
    return render_int(v)


# ---------------------------------------------------------------------------
# memory plan and load/store plans
# ---------------------------------------------------------------------------

@dataclass
class ArrayDecl:
    name: str
    vtype: VectorType  # element typing (nf > 1 means field-interleaved layout)
    role: str  # load-source | mask-source | store-destination
    length: int  # scalars: data_len * nf
    values: list[ScalarValue] | None = None  # None for store destinations


@dataclass
class MemPlan:
    """How one register moves between its array and the vector file."""

    reg: VReg
    array: ArrayDecl
    kind: str  # unit | strided | indexed-u | indexed-o | mask (loads only)
    index_eew: int | None = None


# the byte array a mask is loaded from: i8 at the mask's ratio
_MASK_SOURCE_TYPES = {r: type_at_ratio("int", 8, r) for r in BOOL_RATIOS}
# (eew, ratio) -> the index-vector token, for every legal EMUL
_INDEX_TOKENS = {(eew, r): type_at_ratio("uint", eew, r).token for eew, r in EMUL_TOKENS}


def index_offset_bits(t: VectorType, data_len: int) -> int:
    """Bits of the largest byte offset into data_len elements of t: index
    widths of at least this many bits cannot wrap."""
    return max(0, (data_len - 1) * (t.sew // 8) * t.nf).bit_length()


def _legal_index_eews(t: VectorType, offset_bits: int) -> list[int]:
    """Index widths whose EMUL is legal and that hold offsets of
    ``offset_bits`` bits (see ``index_offset_bits``) without wrapping."""
    out = []
    for eew in (8, 16, 32, 64):
        if (eew, t.ratio) not in _INDEX_TOKENS:
            continue
        if offset_bits > eew:
            continue
        out.append(eew)
    return out


_ADDRESSING = {"unit": "", "strided": "s", "indexed-u": "ux", "indexed-o": "ox"}


def _mem_name(op: str, t: VectorType, kind: str, eew: int | None = None) -> str:
    """The load (op "l") or store (op "s") intrinsic of type t for one
    (kind, index eew): ``v{l|s}[s|ux|ox][seg{nf}]{e{sew}|ei{eew}}``."""
    seg = f"seg{t.nf}" if t.nf > 1 else ""
    width = f"ei{eew}" if eew is not None else f"e{t.sew}"
    return f"__riscv_v{op}{_ADDRESSING[kind]}{seg}{width}_v_{t.token}"


def mem_kind_choices(op: str, t: VectorType, offset_bits: int,
                     listed) -> list[tuple[str, int | None]]:
    """The (kind, index eew) forms a load (op "l") or store (op "s") of t may
    take: unit-stride always; strided and indexed forms when listed, the
    indexed ones with index widths that hold ``offset_bits``-bit offsets."""
    kinds: list[tuple[str, int | None]] = [("unit", None)]
    if _mem_name(op, t, "strided") in listed:
        kinds.append(("strided", None))
    for eew in _legal_index_eews(t, offset_bits):
        for kind in ("indexed-u", "indexed-o"):
            if _mem_name(op, t, kind, eew) in listed:
                kinds.append((kind, eew))
    return kinds


# ---------------------------------------------------------------------------
# case IR (phase A)
# ---------------------------------------------------------------------------

@dataclass
class CaseIR:
    seed: int
    ratio: int
    type_token: str
    vsetvl_token: str
    seq_len: int
    data_len: int
    ops: list[OpInstance]
    P: list[list[VReg]]
    S: list[list[VReg]]
    load_plans: dict[int, MemPlan]  # reg id -> plan
    store_plans: dict[int, MemPlan]
    arrays: list[ArrayDecl]
    scalar_args: dict[tuple[int, int], object]  # (op index, param index) -> arg
    state: "ElementState"
    manifest: list[tuple[str, int]]
    snapshot: dict
    # the text every scheduling mode shares, rendered at the first emit_case
    rendered: "_RenderedCase | None" = field(default=None, repr=False, compare=False)


@dataclass
class ProgramCase:
    seed: int
    mode: str
    source: str
    manifest: list[tuple[str, int]]
    snapshot: dict
    ir: CaseIR
    schedule: Schedule

    @property
    def name(self) -> str:
        return f"case_{self.seed}_{self.mode}"


_VALUE_TOKENS = [t.token for t in all_value_types()]
# ratio -> the vsetvl shapes ("e{sew}{lmul}") of the int types at that ratio
_VSETVL_TOKENS = {
    r: [f"e{t.sew}{lmul_token(t.lmul)}" for t in all_value_types()
        if t.kind == "int" and t.ratio == r]
    for r in BOOL_RATIOS
}


def _draw(rng: random.Random, spec_val) -> int:
    if isinstance(spec_val, tuple):
        lo, hi = spec_val
        return rng.randint(lo, hi)
    return spec_val


def build_case(
    pool: Callable[[int], list[IntrinsicDef]],
    seed: int,
    *,
    mem_kinds: Callable[[str, VectorType, int], list[tuple[str, int | None]]],
    seq_len,
    data_len,
    ratio_token: str | None,
    coin_bias: float,
) -> CaseIR:
    """Phase A for one seed.  ``pool`` maps a ratio to its candidates and
    ``mem_kinds`` gives ``mem_kind_choices`` over the listed names;
    ``pipeline.Generator`` owns both."""
    # the shape knobs draw from their own stream so that a replay pinning
    # the recorded values reproduces the exact same case stream below
    cfg_rng = random.Random(f"cfg:{seed}")
    n = _draw(cfg_rng, seq_len)
    dlen = _draw(cfg_rng, data_len)
    token = ratio_token or _VALUE_TOKENS[cfg_rng.randrange(len(_VALUE_TOKENS))]
    rng = random.Random(f"case:{seed}")
    ratio = VectorType.from_token(token).ratio

    # the loop's vsetvl may use any shape with the common ratio
    vsetvl_choices = _VSETVL_TOKENS[ratio]
    vsetvl_token = vsetvl_choices[rng.randrange(len(vsetvl_choices))]

    seq = select_sequence(pool(ratio), n, rng)
    ops = allocate([OpInstance(d) for d in seq], rng, coin_bias)
    P, S = derive_prefix_suffix(ops)

    load_plans: dict[int, MemPlan] = {}
    store_plans: dict[int, MemPlan] = {}
    arrays: list[ArrayDecl] = []

    for i in range(n):
        for reg in P[i]:
            t = reg.vtype
            if t.is_bool:
                src_t = _MASK_SOURCE_TYPES[t.ratio]
                arr = ArrayDecl(f"maskin_{reg.id}", src_t, "mask-source", dlen)
                load_plans[reg.id] = MemPlan(reg, arr, "mask")
            else:
                kinds = mem_kinds("l", t, dlen)
                kind, eew = kinds[rng.randrange(len(kinds))]
                arr = ArrayDecl(f"in_{reg.id}", t, "load-source", dlen * t.nf)
                load_plans[reg.id] = MemPlan(reg, arr, kind, eew)
            arrays.append(arr)
    for i in range(n):
        for reg in S[i]:
            if reg.id in store_plans:
                continue
            t = reg.vtype
            kinds = mem_kinds("s", t, dlen)
            kind, eew = kinds[rng.randrange(len(kinds))]
            arr = ArrayDecl(f"out_{reg.id}", t, "store-destination", dlen * t.nf)
            store_plans[reg.id] = MemPlan(reg, arr, kind, eew)
            arrays.append(arr)

    # memory initialization, in array declaration order
    for arr in arrays:
        if arr.role == "load-source":
            arr.values = gen_values(arr.vtype.kind, arr.vtype.sew, arr.length, rng)
        elif arr.role == "mask-source":
            arr.values = _mask_bytes(arr.length, rng)

    scalar_args = _draw_scalar_args(ops, dlen, rng)

    state = analyze_agnostic(ops, load_plans, scalar_args, dlen)
    manifest = _build_manifest(S, store_plans, state)

    snapshot = {
        "seed": seed,
        "ratio_token": token,
        "vsetvl_token": vsetvl_token,
        "seq_len": n,
        "data_len": dlen,
        "coin_bias": coin_bias,
    }

    return CaseIR(
        seed, ratio, token, vsetvl_token, n, dlen, ops, P, S,
        load_plans, store_plans, arrays, scalar_args, state, manifest, snapshot,
    )


def _draw_scalar_args(ops, data_len: int, rng: random.Random) -> dict:
    """Safe constant synthesis for scalar and CSR parameters (phase A)."""
    args: dict[tuple[int, int], object] = {}
    for i, op in enumerate(ops):
        d = op.def_
        stem = d.stem
        for j, p in enumerate(d.params):
            if p.vtype is not None or p.role == "vl-count":
                continue
            if p.role == "rounding-mode-vxrm":
                args[(i, j)] = VXRM_NAMES[rng.randrange(4)]
            elif p.role == "rounding-mode-frm":
                args[(i, j)] = FRM_NAMES[rng.randrange(5)]
            elif p.role == "scalar":
                base = p.ctype.replace("const", "").strip()
                if base in ("size_t", "ptrdiff_t", "unsigned long", "long"):
                    if stem in _SHIFT_STEMS:
                        hi = (d.ret_vtype.sew if d.ret_vtype else 64) - 1
                        args[(i, j)] = str(rng.randint(0, hi))
                    elif stem in _SLIDE_STEMS:
                        args[(i, j)] = str(rng.randint(0, data_len))
                    elif stem in ("vset", "vget"):
                        args[(i, j)] = str(_group_index(d, rng))
                    elif stem in ("vrgather",):
                        args[(i, j)] = str(rng.randrange(max(1, data_len)))
                    else:
                        args[(i, j)] = str(rng.randint(0, data_len))
                else:
                    kind, width = _CTYPE_TO_PAIR.get(base, ("uint", 64))
                    args[(i, j)] = gen_scalar(kind, width, rng)
            else:
                args[(i, j)] = "0"
    return args


def _group_index(d: IntrinsicDef, rng: random.Random) -> int:
    """In-range slot index for tuple/group insert-extract."""
    vts = d.vector_types()
    tuples = [t for t in vts if t.is_tuple]
    if tuples:
        return rng.randrange(tuples[0].nf)
    big = max(vts, key=lambda t: t.lmul)
    small = min(vts, key=lambda t: t.lmul)
    groups = (big.lmul.numerator * small.lmul.denominator
              // (big.lmul.denominator * small.lmul.numerator))
    return rng.randrange(max(1, groups))


# ---------------------------------------------------------------------------
# agnostic-state analysis
# ---------------------------------------------------------------------------

# data lanes: "D" defined / "A" agnostic.
# mask lanes add known bits: "0", "1", plus "D" (defined, value unknown).

@dataclass
class ElementState:
    regs: dict[int, list]  # final per-stream-position state per register


def _and_bit(a: str, b: str) -> str:
    if "A" in (a, b):
        return "A"
    if "0" in (a, b):
        return "0"
    if a == b == "1":
        return "1"
    return "D"


def _or_bit(a: str, b: str) -> str:
    if "A" in (a, b):
        return "A"
    if "1" in (a, b):
        return "1"
    if a == b == "0":
        return "0"
    return "D"


def _xor_bit(a: str, b: str) -> str:
    if "A" in (a, b):
        return "A"
    if a in "01" and b in "01":
        return str(int(a) ^ int(b))
    return "D"


def _not_bit(a: str) -> str:
    return {"0": "1", "1": "0", "D": "D", "A": "A"}[a]


_MASK_LOGIC = {
    "vmand": lambda a, b: _and_bit(a, b),
    "vmnand": lambda a, b: _not_bit(_and_bit(a, b)),
    "vmandn": lambda a, b: _and_bit(a, _not_bit(b)),
    "vmxor": lambda a, b: _xor_bit(a, b),
    "vmor": lambda a, b: _or_bit(a, b),
    "vmnor": lambda a, b: _not_bit(_or_bit(a, b)),
    "vmorn": lambda a, b: _or_bit(a, _not_bit(b)),
    "vmxnor": lambda a, b: _not_bit(_xor_bit(a, b)),
}
# the same functions as tables over every pair of lane states
_MASK_TABLES = {
    stem: {(a, b): f(a, b) for a in "01DA" for b in "01DA"}
    for stem, f in _MASK_LOGIC.items()
}
_NOT_BIT = {a: _not_bit(a) for a in "01DA"}
_DEFINED = frozenset("D01")
_MERGE_POLICIES = frozenset(("tu", "tum", "tumu", "mu"))


def _first_read_state(reg: VReg, load_plans: dict[int, MemPlan], n: int) -> list:
    """A register's state where the analysis first meets it as an operand."""
    if reg.from_memory:
        plan = load_plans[reg.id]
        if plan.kind == "mask":
            return [str(v.bits) for v in plan.array.values]
        if reg.vtype.is_tuple:
            return [["D"] * n for _ in range(reg.vtype.nf)]
        return ["D"] * n
    if reg.vtype.is_tuple:
        return [["A"] * n for _ in range(reg.vtype.nf)]
    # read with no prior definition: treat as poisoned
    return ["A"] * n


def analyze_agnostic(
    ops: list[OpInstance],
    load_plans: dict[int, MemPlan],
    scalar_args: dict,
    data_len: int,
) -> ElementState:
    """Per-stream-position definedness for every register and store array.

    Memory-backed registers start fully defined (mask sources carry their
    known 0/1 bytes); every operation then transfers state per its semantic
    class.  The final state of a stored register is the final state of its
    destination array, because every redefinition spawns its own store.
    """
    n = data_len
    regs: dict[int, list] = {}

    for i, op in enumerate(ops):
        d = op.def_
        klass = semantic_class(d)
        mask_bits = None
        merge = None
        sources: list[list] = []
        stem = d.stem
        selector = stem in SELECTOR_STEMS
        merges = d.policy in _MERGE_POLICIES

        for b, p in zip(op.bound_params, d.params):
            if not isinstance(b, VReg):
                continue  # scalar slots and vid-derived identity indices
            st = regs.get(b.id)
            if st is None:
                st = regs[b.id] = _first_read_state(b, load_plans, n)
            if p.role == "mask" and not selector:
                mask_bits = st
            elif merges and p.name == "vd":
                merge = st
                if stem in VD_INPUT_STEMS:
                    sources.append(st)  # the one vd is read and merged into
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

        # elementwise (covers compares, merges, carries, MACs, broadcasts):
        # the op's lane function, then its mask, then 0/1 fold into D
        if stem in _MASK_TABLES and len(sources) == 2:
            table = _MASK_TABLES[stem]
            out = [table[ab] for ab in zip(*sources)]
        elif stem == "vmclr":
            out = ["0"] * n
        elif stem == "vmset":
            out = ["1"] * n
        elif stem == "vmmv":
            out = list(sources[0]) if sources else ["A"] * n
        elif stem == "vmnot":
            out = [_NOT_BIT[v] for v in sources[0]] if sources else ["A"] * n
        else:
            # generic: a lane is agnostic where any source lane is (lanes
            # hold one of D, A, 0 and 1, so "not defined" is "A")
            agnostic = [s for s in sources if "A" in s]
            if not agnostic:
                out = ["D"] * n
            elif len(agnostic) == 1:
                out = ["A" if v == "A" else "D" for v in agnostic[0]]
            else:
                out = ["A" if "A" in lanes else "D" for lanes in zip(*agnostic)]
        if mask_bits is not None:
            inactive = merge if merge is not None and d.policy not in ("m", "tum") else None
            out = _masked(out, mask_bits, inactive)
        if not ret.vtype.is_bool and ("0" in out or "1" in out):
            out = ["D" if v == "0" or v == "1" else v for v in out]
        regs[ret.id] = out

    return ElementState(regs)


def _masked(out: list, mask_bits: list, inactive: list | None) -> list:
    """``out`` under a mask: a 0 lane takes the inactive lane (agnostic
    without ``inactive``), a lane of unknown mask is defined only if both
    paths are, and an agnostic mask lane is agnostic."""
    res = []
    for p_pos, m in enumerate(mask_bits):
        if m == "1":
            res.append(out[p_pos])
        elif inactive is None:
            res.append("A")
        elif m == "0":
            res.append(inactive[p_pos])
        elif m == "D":
            res.append("D" if out[p_pos] in _DEFINED and inactive[p_pos] in _DEFINED else "A")
        else:
            res.append("A")
    return res


def _op_scalar(op: OpInstance, scalar_args: dict, op_index: int) -> str:
    for j, p in enumerate(op.def_.params):
        if p.vtype is None and p.role == "scalar":
            return scalar_args[(op_index, j)]
    raise CodegenError(f"{op.def_.full_name}: missing scalar slot")


def _build_manifest(S, store_plans, state: ElementState):
    """Defined positions of every store-destination array, in array order.

    The last definition of a register decides the final array contents in
    every scheduling variant, so the register's final state is the array's.
    """
    manifest: list[tuple[str, int]] = []
    seen: set[int] = set()
    order: list[VReg] = []
    for items in S:
        for reg in items:
            if reg.id not in seen:
                seen.add(reg.id)
                order.append(reg)
    for reg in order:
        plan = store_plans[reg.id]
        st = state.regs.get(reg.id)
        if not st:
            continue  # never defined: nothing of the array is printed
        name, nf = plan.array.name, reg.vtype.nf
        if nf > 1:
            # field-interleaved: element p_pos * nf + f is field f's lane p_pos
            lanes = [st[f][p_pos] for p_pos in range(plan.array.length // nf) for f in range(nf)]
        else:
            lanes = st
        manifest += [(name, idx) for idx, v in enumerate(lanes) if v in _DEFINED]
    return manifest


# ---------------------------------------------------------------------------
# emission (phase B)
# ---------------------------------------------------------------------------

_PRINT_FMT = {
    ("int", 8): ("%d", "(int)"), ("int", 16): ("%d", "(int)"),
    ("int", 32): ("%d", "(int)"), ("int", 64): ("%lld", "(long long)"),
    ("uint", 8): ("%u", "(unsigned)"), ("uint", 16): ("%u", "(unsigned)"),
    ("uint", 32): ("%u", "(unsigned)"), ("uint", 64): ("%llu", "(unsigned long long)"),
    ("float", 16): ("0x%04x", "(unsigned)"), ("float", 32): ("0x%08x", "(unsigned)"),
    ("float", 64): ("0x%016llx", "(unsigned long long)"),
}

# float width -> the unsigned C type of its bit pattern
_BITS_CTYPE = {w: SCALAR_CTYPES["uint", w] for w in (16, 32, 64)}

# computed NaNs print as zero so payload differences never masquerade as
# miscompilations; the exponent/mantissa masks as C literals
_NAN_MASKS = {
    w: tuple(f"0x{m:0{w // 4}x}{'ull' if w == 64 else 'u'}" for m in masks)
    for w, masks in _FLOAT_MASKS.items()
}


def nan_squash_bits(bits: int, width: int) -> int:
    return 0 if _is_nan(bits, width) else bits


def _print_helper(width: int) -> str:
    bt = _BITS_CTYPE[width]
    exp, mant = _NAN_MASKS[width]
    return (
        f"static inline {bt} f{width}_print({bt} b) "
        f"{{ return ((b & {exp}) == {exp} && (b & {mant})) ? 0 : b; }}"
    )


def _array_decl(arr: ArrayDecl) -> str:
    t = arr.vtype
    if t.kind == "float":
        bits = _BITS_CTYPE[t.sew]
        if arr.values is None:
            return (f"static union {{ {bits} b[{arr.length}]; "
                    f"{t.elem_ctype} f[{arr.length}]; }} {arr.name};")
        fmt = f"0x%0{t.sew // 4}xu"
        vals = ", ".join([fmt % v.bits for v in arr.values])
        return (f"static union {{ {bits} b[{arr.length}]; "
                f"{t.elem_ctype} f[{arr.length}]; }} {arr.name} = {{ .b = {{{vals}}} }};")
    if arr.values is None:
        return f"static {t.elem_ctype} {arr.name}[{arr.length}];"
    vals = _int_literals(arr.values, t.kind, t.sew)
    return f"static {t.elem_ctype} {arr.name}[{arr.length}] = {{{vals}}};"


def _print_parts(arr: ArrayDecl) -> tuple[str, str, str]:
    """The printf line of element idx of arr is pre, idx, mid, idx, post."""
    t, name = arr.vtype, arr.name
    fmt, cast = _PRINT_FMT[t.kind, t.sew]
    if t.kind == "float":
        access, close = f"f{t.sew}_print({name}.b[", "])"
    else:
        access, close = f"{name}[", "]"
    return f'    printf("{name}[', f']={fmt}\\n", {cast}{access}', f"{close});"


def _ptr_name(arr: ArrayDecl) -> str:
    return f"p_{arr.name}"


def _index_expr(t: VectorType, eew: int, step: int) -> str:
    itok = _INDEX_TOKENS[eew, t.ratio]
    vid = f"__riscv_vid_v_{itok}(vl)"
    if step == 1:
        return vid
    if step & (step - 1) == 0:
        return f"__riscv_vsll_vx_{itok}({vid}, {int(math.log2(step))}, vl)"
    return f"__riscv_vmul_vx_{itok}({vid}, {step}, vl)"


def _mem_call(op: str, plan: MemPlan) -> str:
    t = plan.reg.vtype
    step = (t.sew // 8) * t.nf
    args = [_ptr_name(plan.array)]
    if plan.kind == "strided":
        args.append(str(step))
    elif plan.kind != "unit":
        args.append(_index_expr(t, plan.index_eew, step))
    if op == "s":
        args.append(plan.reg.name)
    args.append("vl")
    return f"{_mem_name(op, t, plan.kind, plan.index_eew)}({', '.join(args)})"


# A statement as (the register it assigns or None, its line when that
# assignment declares the register, its line when the register exists)
_Stmt = tuple[int | None, str, str]


def _load_stmt(plan: MemPlan) -> _Stmt:
    reg, t, arr = plan.reg, plan.reg.vtype, plan.array
    if plan.kind == "mask":
        src_t = arr.vtype
        before = (f"{src_t.cname} mload_{reg.id} = "
                  f"__riscv_vle8_v_{src_t.token}({_ptr_name(arr)}, vl);\n        ")
        assign = (f"{reg.name} = "
                  f"__riscv_vmseq_vx_{src_t.token}_{t.token}(mload_{reg.id}, 1, vl);")
    else:
        before, assign = "", f"{reg.name} = {_mem_call('l', plan)};"
    return reg.id, f"        {before}{t.cname} {assign}", f"        {before}{assign}"


def _op_stmt(op: OpInstance, i: int, scalar_args: dict) -> _Stmt:
    d = op.def_
    args: list[str] = []
    for j, (b, p) in enumerate(zip(op.bound_params, d.params)):
        if isinstance(b, VReg):
            args.append(b.name)
        elif isinstance(b, SynthIndex):
            args.append(_index_expr(b.vtype, b.vtype.sew, 1))
        elif p.role == "vl-count":
            args.append("vl")
        else:
            a = scalar_args[(i, j)]
            args.append(render_scalar(a) if isinstance(a, ScalarValue) else str(a))
    call = f"{d.full_name}({', '.join(args)})"
    ret = op.bound_return
    if ret is None:
        if d.return_kind == "void":
            line = f"        {call};"
        else:
            sink = "fp_sink" if d.ret_ctype in _FLOAT_CTYPES else "int_sink"
            cast = "(double)" if sink == "fp_sink" else "(long long)"
            line = f"        {sink} = {cast}{call};"
        return None, line, line
    return (ret.id, f"        {ret.vtype.cname} {ret.name} = {call};",
            f"        {ret.name} = {call};")


@dataclass
class _RenderedCase:
    head: str  # up to the loop's vsetvl line
    stmts: dict[tuple[str, int, int], _Stmt]  # by schedule item: (kind, op, intra index)
    tail: str  # from the pointer bumps to the end


def _render(ir: CaseIR) -> _RenderedCase:
    """Everything in a case's source that does not depend on the mode."""
    float_widths = sorted(
        {a.width for a in ir.scalar_args.values()
         if isinstance(a, ScalarValue) and a.kind == "float"}
    )
    needs_int_sink = any(
        op.bound_return is None and op.def_.return_kind == "scalar"
        and op.def_.ret_ctype not in _FLOAT_CTYPES
        for op in ir.ops
    )
    needs_fp_sink = any(
        op.bound_return is None
        and op.def_.ret_ctype in _FLOAT_CTYPES
        for op in ir.ops
    )

    # per array: its declaration, its pointer and the pointer's bump
    pointers, bumps = [], []
    out: list[str] = ["#include <riscv_vector.h>", "#include <stdint.h>", "#include <stdio.h>", ""]
    w = out.append
    for arr in ir.arrays:
        w(_array_decl(arr))
        t, ptr = arr.vtype, _ptr_name(arr)
        const = "const " if arr.role != "store-destination" else ""
        base = f"{arr.name}.f" if t.kind == "float" else arr.name
        pointers.append(f"    {const}{t.elem_ctype} *{ptr} = {base};")
        bumps.append(f"{ptr} += vl * {t.nf};" if t.nf > 1 else f"{ptr} += vl;")
    if needs_int_sink:
        w("static volatile long long int_sink;")
    if needs_fp_sink:
        w("static volatile double fp_sink;")
    for width in float_widths:
        bits, ftype = _BITS_CTYPE[width], SCALAR_CTYPES["float", width]
        w(f"static inline {ftype} f{width}_bits({bits} b) "
          f"{{ union {{ {bits} b; {ftype} f; }} u; u.b = b; return u.f; }}")
    arrays_by_name = {arr.name: arr for arr in ir.arrays}
    printed = [arrays_by_name[name] for name in dict.fromkeys(name for name, _ in ir.manifest)]
    printed_float_widths = sorted({a.vtype.sew for a in printed if a.vtype.kind == "float"})
    for width in printed_float_widths:
        w(_print_helper(width))
    w("")
    w("int main(void) {")
    out += pointers
    w(f"    size_t avl = {ir.data_len};")
    w("    for (size_t vl; avl > 0; avl -= vl) {")
    w(f"        vl = __riscv_vsetvl_{ir.vsetvl_token}(avl);")
    head = "\n".join(out)

    stmts: dict[tuple[str, int, int], _Stmt] = {}
    for i, regs in enumerate(ir.P):
        for j, reg in enumerate(regs):
            stmts["load", i, j] = _load_stmt(ir.load_plans[reg.id])
    for i, op in enumerate(ir.ops):
        stmts["op", i, 0] = _op_stmt(op, i, ir.scalar_args)
    for i, regs in enumerate(ir.S):
        for j, reg in enumerate(regs):
            line = f"        {_mem_call('s', ir.store_plans[reg.id])};"
            stmts["store", i, j] = (None, line, line)

    out = []
    w = out.append
    if bumps:
        w(f"        {' '.join(bumps)}")
    w("    }")

    if not ir.manifest:
        w('    printf("none\\n");')
    parts = {arr.name: _print_parts(arr) for arr in printed}
    for name, idx in ir.manifest:
        pre, mid, post = parts[name]
        w(f"{pre}{idx}{mid}{idx}{post}")
    w("    return 0;")
    w("}")
    w("")
    return _RenderedCase(head, stmts, "\n".join(out))


def emit_case(ir: CaseIR, mode: str) -> ProgramCase:
    """Phase B: order the shared statements for one mode and join them."""
    rng = random.Random(f"sched:{ir.seed}:{mode}")
    schedule = build_schedule(ir.P, ir.S, mode, rng)
    if ir.rendered is None:
        ir.rendered = _render(ir)
    text = ir.rendered

    lines = [text.head]
    declared: set[int] = set()
    for item in schedule.items:
        reg, declaring, assigning = text.stmts[item]
        if reg is None or reg in declared:
            lines.append(assigning)
        else:
            declared.add(reg)
            lines.append(declaring)
    lines.append(text.tail)

    return ProgramCase(
        ir.seed, mode, "\n".join(lines), ir.manifest,
        dict(ir.snapshot, mode=mode), ir, schedule,
    )

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
from typing import Callable

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

_FLOAT_EXP_BITS = {16: 5, 32: 8, 64: 11}


def _is_nan(bits: int, width: int) -> bool:
    exp_bits = _FLOAT_EXP_BITS[width]
    mant_bits = width - 1 - exp_bits
    exp = (bits >> mant_bits) & ((1 << exp_bits) - 1)
    mant = bits & ((1 << mant_bits) - 1)
    return exp == (1 << exp_bits) - 1 and mant != 0


@dataclass(frozen=True)
class ScalarValue:
    kind: str  # bool | int | uint | float
    width: int
    bits: int  # raw pattern, always non-negative

    @property
    def value(self) -> int:
        if self.kind == "int" and self.bits >= 1 << (self.width - 1):
            return self.bits - (1 << self.width)
        return self.bits


def gen_scalar(kind: str, width: int, rng: random.Random) -> ScalarValue:
    if kind == "bool":
        if width != 1:
            raise CodegenError(f"unsupported scalar pair ({kind}, {width})")
        return ScalarValue(kind, 1, rng.randrange(2))
    if kind == "int":
        if width not in (8, 16, 32, 64):
            raise CodegenError(f"unsupported scalar pair ({kind}, {width})")
        v = rng.randrange(-(1 << (width - 1)), 1 << (width - 1))
        return ScalarValue(kind, width, v & ((1 << width) - 1))
    if kind == "uint":
        if width not in (8, 16, 32, 64):
            raise CodegenError(f"unsupported scalar pair ({kind}, {width})")
        return ScalarValue(kind, width, rng.randrange(1 << width))
    if kind == "float":
        if width not in (16, 32, 64):
            raise CodegenError(f"unsupported scalar pair ({kind}, {width})")
        bits = rng.randrange(1 << width)
        if _is_nan(bits, width):
            bits = 0
        return ScalarValue(kind, width, bits)
    raise CodegenError(f"unsupported scalar pair ({kind}, {width})")


_CTYPE_TO_PAIR = {ctype: pair for pair, ctype in SCALAR_CTYPES.items()}
_FLOAT_CTYPES = frozenset(c for (kind, _), c in SCALAR_CTYPES.items() if kind == "float")


def render_int(v: ScalarValue) -> str:
    val = v.value
    if v.kind == "uint":
        return f"{val}ULL" if v.width == 64 else f"{val}u"
    if v.width == 64:
        if val == -(1 << 63):
            return "(-9223372036854775807LL - 1)"
        return f"{val}LL"
    return str(val)


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


def _legal_index_eews(t: VectorType, data_len: int) -> list[int]:
    """Index widths whose EMUL is legal and whose byte offsets cannot wrap."""
    out = []
    step = (t.sew // 8) * t.nf
    for eew in (8, 16, 32, 64):
        if (eew, t.ratio) not in _INDEX_TOKENS:
            continue
        if (data_len - 1) * step > (1 << eew) - 1:
            continue
        out.append(eew)
    return out


_ADDRESSING = {"unit": "", "strided": "s", "indexed-u": "ux", "indexed-o": "ox"}


def _mem_names(op: str, t: VectorType):
    """Load (op "l") or store (op "s") intrinsic names for type t, as a
    function of (kind, index eew): ``v{l|s}[s|ux|ox][seg{nf}]{e{sew}|ei{eew}}``."""
    seg = f"seg{t.nf}" if t.nf > 1 else ""
    suffix = f"_v_{t.token}"

    def name(kind: str, eew: int | None = None) -> str:
        width = f"ei{eew}" if eew is not None else f"e{t.sew}"
        return f"__riscv_v{op}{_ADDRESSING[kind]}{seg}{width}{suffix}"

    return name


def _choose_mem_kind(op: str, t: VectorType, data_len: int, listed, rng) -> tuple[str, int | None]:
    """Unit-stride always; strided and indexed forms when listed."""
    name = _mem_names(op, t)
    kinds: list[tuple[str, int | None]] = [("unit", None)]
    if name("strided") in listed:
        kinds.append(("strided", None))
    for eew in _legal_index_eews(t, data_len):
        for kind in ("indexed-u", "indexed-o"):
            if name(kind, eew) in listed:
                kinds.append((kind, eew))
    return kinds[rng.randrange(len(kinds))]


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
    listed: set[str],
    seq_len,
    data_len,
    ratio_token: str | None,
    coin_bias: float,
) -> CaseIR:
    """Phase A for one seed.  ``pool`` maps a ratio to its candidates and
    ``listed`` holds every listed name; ``pipeline.Generator`` owns both."""
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
                kind, eew = _choose_mem_kind("l", t, dlen, listed, rng)
                arr = ArrayDecl(f"in_{reg.id}", t, "load-source", dlen * t.nf)
                load_plans[reg.id] = MemPlan(reg, arr, kind, eew)
            arrays.append(arr)
    for i in range(n):
        for reg in S[i]:
            if reg.id in store_plans:
                continue
            t = reg.vtype
            kind, eew = _choose_mem_kind("s", t, dlen, listed, rng)
            arr = ArrayDecl(f"out_{reg.id}", t, "store-destination", dlen * t.nf)
            store_plans[reg.id] = MemPlan(reg, arr, kind, eew)
            arrays.append(arr)

    # memory initialization, in array declaration order
    for arr in arrays:
        if arr.role == "load-source":
            arr.values = [
                gen_scalar(arr.vtype.kind, arr.vtype.sew, rng) for _ in range(arr.length)
            ]
        elif arr.role == "mask-source":
            arr.values = [ScalarValue("int", 8, rng.randrange(2)) for _ in range(arr.length)]

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


def _mk(val: str, n: int) -> list[str]:
    return [val] * n


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

    def reg_state(reg: VReg) -> list:
        if reg.id not in regs:
            if reg.from_memory:
                plan = load_plans[reg.id]
                if plan.kind == "mask":
                    regs[reg.id] = [str(v.bits) for v in plan.array.values]
                elif reg.vtype.is_tuple:
                    regs[reg.id] = [["D"] * n for _ in range(reg.vtype.nf)]
                else:
                    regs[reg.id] = _mk("D", n)
            elif reg.vtype.is_tuple:
                regs[reg.id] = [["A"] * n for _ in range(reg.vtype.nf)]
            else:
                # read with no prior definition: treat as poisoned
                regs[reg.id] = _mk("A", n)
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
                continue  # vid-derived identity indices
            if not isinstance(b, VReg):
                continue
            st = reg_state(b)
            if p.role == "mask" and not selector:
                mask_bits = st
            elif p.name == "vd" and d.policy in ("tu", "tum", "tumu", "mu"):
                merge = st
            else:
                sources.append(st)

        ret = op.bound_return
        if ret is None:
            continue

        if klass == UNINITIALIZED or klass == REGROUP or klass == LANE_LOCAL:
            regs[ret.id] = (
                [["A"] * n for _ in range(ret.vtype.nf)]
                if ret.vtype.is_tuple
                else _mk("A", n)
            )
            continue
        if klass == SCALAR_INSERT:
            st = _mk("A", n)
            st[0] = "D"
            regs[ret.id] = st
            continue
        if klass == REDUCTION:
            ok = all(s[0] in ("D", "0", "1") for s in sources[1:]) if len(sources) > 1 else True
            vs2 = sources[0] if sources else _mk("A", n)
            for p_pos in range(n):
                m = mask_bits[p_pos] if mask_bits is not None else "1"
                if m == "A":
                    ok = False
                elif m != "0" and vs2[p_pos] not in ("D", "0", "1"):
                    ok = False
            st = _mk("A", n)
            st[0] = "D" if ok else "A"
            regs[ret.id] = st
            continue
        if klass == TUPLE_INSERT:
            idx = int(_op_scalar(op, scalar_args, i))
            dest_src = sources[0]
            value = sources[1] if len(sources) > 1 else _mk("A", n)
            new = [list(f) for f in dest_src]
            new[idx] = list(value)
            regs[ret.id] = new
            continue
        if klass == TUPLE_EXTRACT:
            idx = int(_op_scalar(op, scalar_args, i))
            regs[ret.id] = list(sources[0][idx])
            continue

        # elementwise (covers compares, merges, carries, MACs, broadcasts)
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
                    # either path may win; defined only if both are
                    res = "D" if (_defined(res) and _defined(inactive)) else "A"
                else:
                    res = "A"
            if not is_bool_ret and res in ("0", "1"):
                res = "D"
            out.append(res)
        regs[ret.id] = out

    return ElementState(regs)


def _defined(v: str) -> bool:
    return v in ("D", "0", "1")


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
        nf = reg.vtype.nf
        flags: list[bool] = []
        if nf > 1:
            for p_pos in range(plan.array.length // nf):
                for f in range(nf):
                    flags.append(_defined(st[f][p_pos]) if st else False)
        else:
            flags = [_defined(v) for v in st] if st else [False] * plan.array.length
        for idx, ok in enumerate(flags):
            if ok:
                manifest.append((plan.array.name, idx))
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
# miscompilations; exponent/mantissa masks per IEEE width
_NAN_MASKS = {
    16: ("0x7c00u", "0x03ffu"),
    32: ("0x7f800000u", "0x007fffffu"),
    64: ("0x7ff0000000000000ull", "0x000fffffffffffffull"),
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
        vals = ", ".join(f"0x{v.bits:0{t.sew // 4}x}u" for v in arr.values)
        return (f"static union {{ {bits} b[{arr.length}]; "
                f"{t.elem_ctype} f[{arr.length}]; }} {arr.name} = {{ .b = {{{vals}}} }};")
    if arr.values is None:
        return f"static {t.elem_ctype} {arr.name}[{arr.length}];"
    vals = ", ".join(render_int(v) for v in arr.values)
    return f"static {t.elem_ctype} {arr.name}[{arr.length}] = {{{vals}}};"


def _ptr_name(arr: ArrayDecl) -> str:
    return f"p_{arr.name}"


def _array_base(arr: ArrayDecl) -> str:
    return f"{arr.name}.f" if arr.vtype.kind == "float" else arr.name


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
    return f"{_mem_names(op, t)(plan.kind, plan.index_eew)}({', '.join(args)})"


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
    call = f"__riscv_{d.full_name[len('__riscv_'):]}({', '.join(args)})"
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
    stmts: dict[tuple[str, int, int], _Stmt]  # by (kind, op index, intra index)
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

    out: list[str] = []
    w = out.append
    w("#include <riscv_vector.h>")
    w("#include <stdint.h>")
    w("#include <stdio.h>")
    w("")
    for arr in ir.arrays:
        w(_array_decl(arr))
    if needs_int_sink:
        w("static volatile long long int_sink;")
    if needs_fp_sink:
        w("static volatile double fp_sink;")
    for width in float_widths:
        bits, ftype = _BITS_CTYPE[width], SCALAR_CTYPES["float", width]
        w(f"static inline {ftype} f{width}_bits({bits} b) "
          f"{{ union {{ {bits} b; {ftype} f; }} u; u.b = b; return u.f; }}")
    arrays_by_name = {arr.name: arr for arr in ir.arrays}
    printed_float_widths = sorted(
        {arrays_by_name[name].vtype.sew for name, _ in ir.manifest
         if arrays_by_name[name].vtype.kind == "float"}
    )
    for width in printed_float_widths:
        w(_print_helper(width))
    w("")
    w("int main(void) {")
    for arr in ir.arrays:
        const = "const " if arr.role != "store-destination" else ""
        w(f"    {const}{arr.vtype.elem_ctype} *{_ptr_name(arr)} = {_array_base(arr)};")
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
    bumps = []
    for arr in ir.arrays:
        nf = arr.vtype.nf
        bumps.append(f"{_ptr_name(arr)} += vl{f' * {nf}' if nf > 1 else ''};")
    if bumps:
        w(f"        {' '.join(bumps)}")
    w("    }")

    if not ir.manifest:
        w('    printf("none\\n");')
    for name, idx in ir.manifest:
        arr = arrays_by_name[name]
        fmt, cast = _PRINT_FMT[(arr.vtype.kind, arr.vtype.sew)]
        if arr.vtype.kind == "float":
            access = f"f{arr.vtype.sew}_print({name}.b[{idx}])"
        else:
            access = f"{name}[{idx}]"
        w(f'    printf("{name}[{idx}]={fmt}\\n", {cast}{access});')
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
        reg, declaring, assigning = text.stmts[item.kind, item.op_index, item.intra_index]
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

"""Scalar-C ``riscv_vector.h`` for the reference evaluator's subset.

The header is generated from the catalog's prototypes: every intrinsic in
``oracle_subset_listing()`` plus the ``vsetvl_e*m*`` forms the emitter puts
in every loop.  A vector value is a pointer to VLMAX lanes that no
intrinsic writes after creating them.  Each intrinsic is a macro that
converts its arguments to the declared types and calls one of three lane
loops in the runtime (``render_runtime``), which is compiled once per
poison byte and linked into every program; a program then compiles about
as fast as one without vectors, at every ``-O`` level.

``VLEN`` and ``RVV_POISON`` (the byte written to tail and masked-off lanes)
are macros chosen per compile; two configurations with different poison
bytes turn a leaked agnostic lane into a cross-compiler WrongResult.
"""

from __future__ import annotations

from rvvfuzz.intrinsics import IntrinsicDef, parse_definitions
from rvvfuzz.oracle import SUPPORTED_OP_STEMS
from rvvfuzz.types import VectorType, all_bool_types, all_value_types

# Lane results of the supported operations, as C over the lane index i,
# the operands' raw bits x and y (zero-extended), the same sign-extended
# (sx, sy) and the shift amount sh.  rvv_op truncates to the lane width.
LANE_EXPR = {
    "vadd": "x + y",
    "vsub": "x - y",
    "vrsub": "y - x",
    "vsll": "x << sh",
    "vsrl": "x >> sh",
    "vsra": "(unsigned long long)(sx >> sh)",
    "vmseq": "x == y",
    "vmsne": "x != y",
    "vmslt": "sx < sy",
    "vmsltu": "x < y",
    "vmsle": "sx <= sy",
    "vmsleu": "x <= y",
    "vmsgt": "sx > sy",
    "vmsgtu": "x > y",
    "vmsge": "sx >= sy",
    "vmsgeu": "x >= y",
    "vid": "i",
}
assert set(LANE_EXPR) == SUPPORTED_OP_STEMS

HEADER_PRELUDE = r"""#ifndef RVV_SHIM_H
#define RVV_SHIM_H
#include <stddef.h>
#include <stdint.h>
#ifndef VLEN
#error "compile with -DVLEN=<bits>"
#endif
void *rvv_load(size_t lanes, int w, const void *p, ptrdiff_t stride,
               const void *idx, int iw, size_t vl);
void rvv_store(void *p, ptrdiff_t stride, const void *idx, int iw,
               const void *v, int w, size_t vl);
void *rvv_op(int op, size_t lanes, int dw, const void *a, const void *b,
             unsigned long long s, int w, const uint8_t *m, size_t vl);
"""

RUNTIME = r"""#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifndef RVV_POISON
#error "compile with -DRVV_POISON=<byte>"
#endif

/* Every intrinsic result gets fresh lanes from this pool and is never
   written again, so a vector value can be a plain pointer. */
static unsigned char rvv_pool[1 << 22];
static size_t rvv_used;

static void *rvv_alloc(size_t lanes, int w, int fill) {
    size_t n = (lanes * w + 7) & ~(size_t)7;
    if (rvv_used + n > sizeof rvv_pool)
        abort();
    void *d = rvv_pool + rvv_used;
    rvv_used += n;
    memset(d, fill, lanes * w);
    return d;
}

static unsigned long long rvv_get(const void *v, size_t i, int w) {
    switch (w) {
    case 1: return ((const uint8_t *)v)[i];
    case 2: return ((const uint16_t *)v)[i];
    case 4: return ((const uint32_t *)v)[i];
    default: return ((const uint64_t *)v)[i];
    }
}

static long long rvv_sext(unsigned long long x, int w) {
    int drop = 64 - 8 * w;
    return drop ? (long long)(x << drop) >> drop : (long long)x;
}

/* lanes [0, vl) read from p + i * stride, or from p + idx[i] when idx is
   set; the other lanes are poison */
void *rvv_load(size_t lanes, int w, const void *p, ptrdiff_t stride,
               const void *idx, int iw, size_t vl) {
    char *d = rvv_alloc(lanes, w, RVV_POISON);
    for (size_t i = 0; i < vl; i++) {
        ptrdiff_t off = idx ? (ptrdiff_t)rvv_get(idx, i, iw) : (ptrdiff_t)i * stride;
        memcpy(d + i * w, (const char *)p + off, w);
    }
    return d;
}

void rvv_store(void *p, ptrdiff_t stride, const void *idx, int iw,
               const void *v, int w, size_t vl) {
    for (size_t i = 0; i < vl; i++) {
        ptrdiff_t off = idx ? (ptrdiff_t)rvv_get(idx, i, iw) : (ptrdiff_t)i * stride;
        memcpy((char *)p + off, (const char *)v + i * w, w);
    }
}

/* lanes [0, vl) where the mask m (if any) is set take operation op over
   the w-byte operands a and b (or scalar s); the other lanes are poison.
   A result of width dw == 0 is a mask: one 0/1 byte per lane. */
void *rvv_op(int op, size_t lanes, int dw, const void *a, const void *b,
             unsigned long long s, int w, const uint8_t *m, size_t vl) {
    char *d = rvv_alloc(lanes, dw ? dw : 1, dw ? RVV_POISON : (RVV_POISON & 1));
    unsigned long long keep = w == 8 ? ~0ull : (1ull << (8 * w)) - 1;
    for (size_t i = 0; i < vl; i++) {
        if (m && !m[i])
            continue;
        unsigned long long x = a ? rvv_get(a, i, w) : 0;
        unsigned long long y = (b ? rvv_get(b, i, w) : s) & keep;
        long long sx = rvv_sext(x, w), sy = rvv_sext(y, w);
        unsigned sh = (unsigned)(y & (8 * w - 1));
        unsigned long long v = 0;
        switch (op) {
@CASES@
        }
        if (dw)
            memcpy(d + i * dw, &v, dw); /* little-endian host */
        else
            d[i] = v != 0;
    }
    return d;
}
"""

_OPCODES = {stem: k for k, stem in enumerate(sorted(LANE_EXPR))}


def _lanes(t: VectorType) -> str:
    """VLMAX of ``t`` as a C constant expression in VLEN."""
    if t.is_bool:
        return f"(VLEN / {t.bool_ratio})"
    return f"(VLEN * {t.lmul.numerator} / {t.lmul.denominator * t.sew})"


def _typedef(t: VectorType) -> str:
    elem = "uint8_t" if t.is_bool else t.elem_ctype
    return f"typedef {elem} *{t.cname};"


def _arg(p) -> str:
    """The macro argument converted to the parameter's declared type."""
    return f"({p.ctype})({p.name})"


def _memory_call(d: IntrinsicDef) -> str:
    """Loads and stores, named as in the specification: ``rs1`` is the base
    pointer, ``rs2`` the byte stride or the offset vector, ``vs3`` the
    stored value."""
    params = {p.name: p for p in d.params}
    data_t = d.ret_vtype if d.category == "Load" else params["vs3"].vtype
    w = data_t.sew // 8
    rs2 = params.get("rs2")
    if rs2 is None:
        where = f"{w}, 0, 0"
    elif rs2.vtype is not None:
        where = f"0, {_arg(rs2)}, {rs2.vtype.sew // 8}"
    else:
        where = f"{_arg(rs2)}, 0, 0"
    base = _arg(params["rs1"])
    if d.category == "Load":
        return f"(({data_t.cname})rvv_load({_lanes(data_t)}, {w}, {base}, {where}, (vl)))"
    return f"rvv_store({base}, {where}, {_arg(params['vs3'])}, {w}, (vl))"


def _op_call(d: IntrinsicDef) -> str:
    mask, vectors, scalar = "0", [], "0"
    for p in d.params:
        if p.role == "mask":
            mask = _arg(p)
        elif p.vtype is not None:
            vectors.append(_arg(p))
        elif p.role == "scalar":
            scalar = f"(unsigned long long){_arg(p)}"
    rt = d.ret_vtype
    src_t = next((p.vtype for p in d.params if p.role == "vector-operand"), rt)
    a = vectors[0] if vectors else "0"
    b = vectors[1] if len(vectors) > 1 else "0"
    dw = 0 if rt.is_bool else rt.sew // 8
    return (f"(({rt.cname})rvv_op({_OPCODES[d.stem]}, {_lanes(rt)}, {dw}, {a}, {b}, "
            f"{scalar}, {src_t.sew // 8}, {mask}, (vl)))")


def intrinsic_macro(d: IntrinsicDef) -> str:
    """One ``#define`` that behaves like the prototype ``d``: each argument
    is converted to its declared type, as a function call would."""
    if d.stem == "vsetvl":
        vlmax = _lanes(VectorType.from_token("i" + d.name_parts.type_tokens[0][1:]))
        return f"#define {d.full_name}(avl) ((size_t)((avl) < {vlmax} ? (avl) : {vlmax}))"
    call = _memory_call(d) if d.category in ("Load", "Store") else _op_call(d)
    return f"#define {d.full_name}({', '.join(p.name for p in d.params)}) {call}"


def render_header(listing: str, subset: list[IntrinsicDef]) -> str:
    """``riscv_vector.h`` for ``subset`` (parsed ``oracle_subset_listing()``)
    plus the ``vsetvl_e*m*`` prototypes of the full catalog ``listing``."""
    vsetvl = [line for line in listing.splitlines() if "__riscv_vsetvl_e" in line]
    lines = [HEADER_PRELUDE]
    lines += [_typedef(t) for t in all_value_types() if t.kind != "float"]
    lines += [_typedef(t) for t in all_bool_types()]
    lines += [intrinsic_macro(d) for d in parse_definitions("\n".join(vsetvl)) + subset]
    lines.append("#endif")
    return "\n".join(lines) + "\n"


def render_runtime() -> str:
    """The lane loops the header's macros call, with ``LANE_EXPR`` as the
    operations; compiled once per poison byte."""
    cases = "\n".join(f"        case {_OPCODES[stem]}: v = {expr}; break; /* {stem} */"
                      for stem, expr in sorted(LANE_EXPR.items()))
    return RUNTIME.replace("@CASES@", cases)

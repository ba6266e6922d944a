"""Generator for the ratified RVV intrinsic prototype listing.

Emits one C prototype per line for the explicit (non-overloaded) intrinsics,
optionally with tail/mask policy variants.  The output feeds the same parser
as user-supplied listings, so tests cross-check the two representations.

Conventions: mask parameter ``vm`` first, merge/destination operand ``vd``,
vector operands ``vs2``/``vs1``/``vs3``, scalar operand ``rs1``, stride
``rs2``, index vector ``rs2``, vector length ``vl`` last.
"""

from __future__ import annotations

from fractions import Fraction

from .types import (
    EMUL_TOKENS,
    SEWS,
    VectorType,
    all_bool_types,
    all_tuple_types,
    all_value_types,
    type_at_ratio,
)

VALUE_TYPES = all_value_types()
INT_TYPES = [t for t in VALUE_TYPES if t.kind == "int"]
UINT_TYPES = [t for t in VALUE_TYPES if t.kind == "uint"]
IU_TYPES = INT_TYPES + UINT_TYPES
FLOAT_TYPES = [t for t in VALUE_TYPES if t.kind == "float"]
TUPLE_TYPES = all_tuple_types()
BOOL_TYPES = all_bool_types()

# source shapes for widening results (2*SEW <= ELEN, 2*LMUL <= 8)
def _narrow(types):
    return [t for t in types if t.sew * 2 <= 64 and t.lmul * 2 <= 8]


def _index_eews(t: VectorType) -> list[int]:
    """EEWs whose index-vector EMUL stays in [1/8, 8] for this data type."""
    return [eew for eew in SEWS if (eew, t.ratio) in EMUL_TOKENS]


def _index_type(t: VectorType, eew: int) -> VectorType:
    return type_at_ratio("uint", eew, t.ratio)


def _shift_type(t: VectorType) -> VectorType:
    return VectorType("uint", t.sew, t.lmul)


def _same(t: VectorType, kind: str) -> VectorType:
    return VectorType(kind, t.sew, t.lmul, nf=t.nf)


def _wide(t: VectorType, kind: str | None = None) -> VectorType:
    return VectorType(kind or t.kind, t.sew * 2, t.lmul * 2)


def _m1(t: VectorType, kind: str | None = None, sew: int | None = None) -> VectorType:
    return VectorType(kind or t.kind, sew or t.sew, Fraction(1))


class Catalog:
    def __init__(self, policy: bool = False):
        self.policy = policy
        self.lines: list[str] = []

    def raw(self, ret: str, name: str, params: list[str]) -> None:
        self.lines.append(f"{ret} __riscv_{name}({', '.join(params)});")

    def op(
        self,
        name: str,
        ret: VectorType | str,
        params: list[str],
        *,
        masked: bool = True,
        tail: bool = True,
        merge: VectorType | str | None = None,
    ) -> None:
        """One operation plus its mask/policy variants.

        ``merge`` is the type of the vd operand added by tu/mu policies (and
        by plain ``_m`` for nothing -- TAMA needs no merge source); defaults
        to the return type.
        """
        ret_c = ret.cname if isinstance(ret, VectorType) else ret
        is_vec_ret = isinstance(ret, VectorType)
        merge_t = merge if merge is not None else ret
        merge_c = merge_t.cname if isinstance(merge_t, VectorType) else merge_t
        governing = ret if is_vec_ret else (
            merge_t if isinstance(merge_t, VectorType) else None)
        mask_c = None
        if masked and governing is not None:
            mask_c = f"vbool{governing.ratio}_t vm"

        self.raw(ret_c, name, params)
        if mask_c:
            self.raw(ret_c, f"{name}_m", [mask_c] + params)
        if not self.policy or not is_vec_ret:
            return
        # an op that already reads a vd (multiply-add, slide-up) merges into
        # that same operand, so its policy forms add no second one
        merged = params if any(p.endswith(" vd") for p in params) else [f"{merge_c} vd"] + params
        if ret.is_bool:
            # compares and mask-producing ops carry only a mu variant
            if mask_c:
                self.raw(ret_c, f"{name}_mu", [mask_c] + merged)
            return
        if tail:
            self.raw(ret_c, f"{name}_tu", merged)
        if mask_c:
            for pol in ("tum", "tumu", "mu"):
                self.raw(ret_c, f"{name}_{pol}", [mask_c] + merged)


# ---------------------------------------------------------------------------
# loads and stores
# ---------------------------------------------------------------------------

def _loads_stores(c: Catalog) -> None:
    for t in VALUE_TYPES:
        e, tok, sew = t.elem_ctype, t.token, t.sew
        c.op(f"vle{sew}_v_{tok}", t, [f"const {e} *rs1", "size_t vl"])
        c.op(f"vse{sew}_v_{tok}", "void", [f"{e} *rs1", f"{t.cname} vs3", "size_t vl"],
             merge=t)
        c.op(f"vlse{sew}_v_{tok}", t,
             [f"const {e} *rs1", "ptrdiff_t rs2", "size_t vl"])
        c.op(f"vsse{sew}_v_{tok}", "void",
             [f"{e} *rs1", "ptrdiff_t rs2", f"{t.cname} vs3", "size_t vl"], merge=t)
        c.op(f"vle{sew}ff_v_{tok}", t,
             [f"const {e} *rs1", "size_t *new_vl", "size_t vl"])
        for eew in _index_eews(t):
            idx = _index_type(t, eew).cname
            c.op(f"vluxei{eew}_v_{tok}", t,
                 [f"const {e} *rs1", f"{idx} rs2", "size_t vl"])
            c.op(f"vloxei{eew}_v_{tok}", t,
                 [f"const {e} *rs1", f"{idx} rs2", "size_t vl"])
            c.op(f"vsuxei{eew}_v_{tok}", "void",
                 [f"{e} *rs1", f"{idx} rs2", f"{t.cname} vs3", "size_t vl"], merge=t)
            c.op(f"vsoxei{eew}_v_{tok}", "void",
                 [f"{e} *rs1", f"{idx} rs2", f"{t.cname} vs3", "size_t vl"], merge=t)

    # stores for masks have void returns and are never maskable; mask loads
    # and whole-register transfers take no vl and sit in the Ignored set
    for b in BOOL_TYPES:
        c.raw(b.cname, f"vlm_v_{b.token}", ["const uint8_t *rs1", "size_t vl"])
        c.raw("void", f"vsm_v_{b.token}",
              ["uint8_t *rs1", f"{b.cname} vs3", "size_t vl"])
    for t in VALUE_TYPES:
        if t.lmul.denominator != 1:
            continue
        n = int(t.lmul)
        c.raw(t.cname, f"vl{n}re{t.sew}_v_{t.token}", [f"const {t.elem_ctype} *rs1"])
        c.raw("void", f"vs{n}r_v_{t.token}",
              [f"{t.elem_ctype} *rs1", f"{t.cname} vs3"])

    for tt in TUPLE_TYPES:
        e, tok, sew, nf = tt.elem_ctype, tt.token, tt.sew, tt.nf
        c.op(f"vlseg{nf}e{sew}_v_{tok}", tt, [f"const {e} *rs1", "size_t vl"])
        c.op(f"vlseg{nf}e{sew}ff_v_{tok}", tt,
             [f"const {e} *rs1", "size_t *new_vl", "size_t vl"])
        c.op(f"vlsseg{nf}e{sew}_v_{tok}", tt,
             [f"const {e} *rs1", "ptrdiff_t rs2", "size_t vl"])
        c.op(f"vsseg{nf}e{sew}_v_{tok}", "void",
             [f"{e} *rs1", f"{tt.cname} vs3", "size_t vl"], merge=tt)
        c.op(f"vssseg{nf}e{sew}_v_{tok}", "void",
             [f"{e} *rs1", "ptrdiff_t rs2", f"{tt.cname} vs3", "size_t vl"], merge=tt)
        for eew in _index_eews(tt):
            idx = _index_type(tt, eew).cname
            c.op(f"vluxseg{nf}ei{eew}_v_{tok}", tt,
                 [f"const {e} *rs1", f"{idx} rs2", "size_t vl"])
            c.op(f"vloxseg{nf}ei{eew}_v_{tok}", tt,
                 [f"const {e} *rs1", f"{idx} rs2", "size_t vl"])
            c.op(f"vsuxseg{nf}ei{eew}_v_{tok}", "void",
                 [f"{e} *rs1", f"{idx} rs2", f"{tt.cname} vs3", "size_t vl"], merge=tt)
            c.op(f"vsoxseg{nf}ei{eew}_v_{tok}", "void",
                 [f"{e} *rs1", f"{idx} rs2", f"{tt.cname} vs3", "size_t vl"], merge=tt)


# ---------------------------------------------------------------------------
# integer arithmetic
# ---------------------------------------------------------------------------

def _binary(c: Catalog, name: str, types, forms=("vv", "vx"), **kw) -> None:
    for t in types:
        for form in forms:
            if form == "vv":
                params = [f"{t.cname} vs2", f"{t.cname} vs1", "size_t vl"]
            else:
                params = [f"{t.cname} vs2", f"{t.elem_ctype} rs1", "size_t vl"]
            c.op(f"{name}_{form}_{t.token}", t, params, **kw)


def _int_arith(c: Catalog) -> None:
    _binary(c, "vadd", IU_TYPES)
    _binary(c, "vsub", IU_TYPES)
    _binary(c, "vrsub", IU_TYPES, forms=("vx",))
    for t in INT_TYPES:
        c.op(f"vneg_v_{t.token}", t, [f"{t.cname} vs2", "size_t vl"])

    for base, kind in (("vwadd", "int"), ("vwaddu", "uint"),
                       ("vwsub", "int"), ("vwsubu", "uint")):
        for t in _narrow(INT_TYPES if kind == "int" else UINT_TYPES):
            w = _wide(t)
            for form, v2, v1 in (
                ("vv", t.cname, t.cname),
                ("vx", t.cname, t.elem_ctype),
                ("wv", w.cname, t.cname),
                ("wx", w.cname, t.elem_ctype),
            ):
                c.op(f"{base}_{form}_{w.token}", w,
                     [f"{v2} vs2", f"{v1} vs1" if "v" in form[1] else f"{v1} rs1",
                      "size_t vl"])
    for t in _narrow(INT_TYPES):
        w = _wide(t)
        c.op(f"vwcvt_x_x_v_{w.token}", w, [f"{t.cname} vs2", "size_t vl"])
    for t in _narrow(UINT_TYPES):
        w = _wide(t)
        c.op(f"vwcvtu_x_x_v_{w.token}", w, [f"{t.cname} vs2", "size_t vl"])

    for name, types in (("vzext", UINT_TYPES), ("vsext", INT_TYPES)):
        for frac in (2, 4, 8):
            for dst in types:
                # the source has SEW / frac at the same ratio
                if (dst.sew // frac, dst.ratio) not in EMUL_TOKENS:
                    continue
                src = type_at_ratio(dst.kind, dst.sew // frac, dst.ratio)
                c.op(f"{name}_vf{frac}_{dst.token}", dst,
                     [f"{src.cname} vs2", "size_t vl"])

    # carry/borrow ops take a selector mask and are never themselves masked
    for t in IU_TYPES:
        b = t.mask_type.cname
        for name in ("vadc", "vsbc"):
            c.op(f"{name}_vvm_{t.token}", t,
                 [f"{t.cname} vs2", f"{t.cname} vs1", f"{b} v0", "size_t vl"],
                 masked=False)
            c.op(f"{name}_vxm_{t.token}", t,
                 [f"{t.cname} vs2", f"{t.elem_ctype} rs1", f"{b} v0", "size_t vl"],
                 masked=False)
        for name in ("vmadc", "vmsbc"):
            bt = t.mask_type
            c.op(f"{name}_vvm_{t.token}_{bt.token}", bt,
                 [f"{t.cname} vs2", f"{t.cname} vs1", f"{b} v0", "size_t vl"],
                 masked=False, tail=False)
            c.op(f"{name}_vxm_{t.token}_{bt.token}", bt,
                 [f"{t.cname} vs2", f"{t.elem_ctype} rs1", f"{b} v0", "size_t vl"],
                 masked=False, tail=False)
            c.op(f"{name}_vv_{t.token}_{bt.token}", bt,
                 [f"{t.cname} vs2", f"{t.cname} vs1", "size_t vl"],
                 masked=False, tail=False)
            c.op(f"{name}_vx_{t.token}_{bt.token}", bt,
                 [f"{t.cname} vs2", f"{t.elem_ctype} rs1", "size_t vl"],
                 masked=False, tail=False)

    _binary(c, "vand", IU_TYPES)
    _binary(c, "vor", IU_TYPES)
    _binary(c, "vxor", IU_TYPES)
    for t in IU_TYPES:
        c.op(f"vnot_v_{t.token}", t, [f"{t.cname} vs2", "size_t vl"])

    for name, types in (("vsll", IU_TYPES), ("vsrl", UINT_TYPES), ("vsra", INT_TYPES)):
        for t in types:
            sh = _shift_type(t).cname
            c.op(f"{name}_vv_{t.token}", t,
                 [f"{t.cname} vs2", f"{sh} vs1", "size_t vl"])
            c.op(f"{name}_vx_{t.token}", t,
                 [f"{t.cname} vs2", "size_t rs1", "size_t vl"])

    for name, types in (("vnsrl", UINT_TYPES), ("vnsra", INT_TYPES)):
        for t in _narrow(types):
            w = _wide(t)
            sh = _shift_type(t).cname
            c.op(f"{name}_wv_{t.token}", t,
                 [f"{w.cname} vs2", f"{sh} vs1", "size_t vl"])
            c.op(f"{name}_wx_{t.token}", t,
                 [f"{w.cname} vs2", "size_t rs1", "size_t vl"])
    for t in _narrow(INT_TYPES):
        c.op(f"vncvt_x_x_w_{t.token}", t, [f"{_wide(t).cname} vs2", "size_t vl"])
    for t in _narrow(UINT_TYPES):
        c.op(f"vncvt_x_x_w_{t.token}", t, [f"{_wide(t).cname} vs2", "size_t vl"])

    cmp_table = (
        ("vmseq", IU_TYPES), ("vmsne", IU_TYPES),
        ("vmsltu", UINT_TYPES), ("vmslt", INT_TYPES),
        ("vmsleu", UINT_TYPES), ("vmsle", INT_TYPES),
        ("vmsgtu", UINT_TYPES), ("vmsgt", INT_TYPES),
        ("vmsgeu", UINT_TYPES), ("vmsge", INT_TYPES),
    )
    for name, types in cmp_table:
        for t in types:
            bt = t.mask_type
            c.op(f"{name}_vv_{t.token}_{bt.token}", bt,
                 [f"{t.cname} vs2", f"{t.cname} vs1", "size_t vl"])
            c.op(f"{name}_vx_{t.token}_{bt.token}", bt,
                 [f"{t.cname} vs2", f"{t.elem_ctype} rs1", "size_t vl"])

    _binary(c, "vminu", UINT_TYPES)
    _binary(c, "vmin", INT_TYPES)
    _binary(c, "vmaxu", UINT_TYPES)
    _binary(c, "vmax", INT_TYPES)

    _binary(c, "vmul", IU_TYPES)
    _binary(c, "vmulh", INT_TYPES)
    _binary(c, "vmulhu", UINT_TYPES)
    for t in INT_TYPES:
        u = _same(t, "uint")
        c.op(f"vmulhsu_vv_{t.token}", t,
             [f"{t.cname} vs2", f"{u.cname} vs1", "size_t vl"])
        c.op(f"vmulhsu_vx_{t.token}", t,
             [f"{t.cname} vs2", f"{u.elem_ctype} rs1", "size_t vl"])
    _binary(c, "vdivu", UINT_TYPES)
    _binary(c, "vdiv", INT_TYPES)
    _binary(c, "vremu", UINT_TYPES)
    _binary(c, "vrem", INT_TYPES)

    for name, kind in (("vwmul", "int"), ("vwmulu", "uint")):
        for t in _narrow(INT_TYPES if kind == "int" else UINT_TYPES):
            w = _wide(t)
            c.op(f"{name}_vv_{w.token}", w,
                 [f"{t.cname} vs2", f"{t.cname} vs1", "size_t vl"])
            c.op(f"{name}_vx_{w.token}", w,
                 [f"{t.cname} vs2", f"{t.elem_ctype} rs1", "size_t vl"])
    for t in _narrow(INT_TYPES):
        w = _wide(t)
        u = _same(t, "uint")
        c.op(f"vwmulsu_vv_{w.token}", w,
             [f"{t.cname} vs2", f"{u.cname} vs1", "size_t vl"])
        c.op(f"vwmulsu_vx_{w.token}", w,
             [f"{t.cname} vs2", f"{u.elem_ctype} rs1", "size_t vl"])

    for name in ("vmacc", "vnmsac", "vmadd", "vnmsub"):
        for t in IU_TYPES:
            c.op(f"{name}_vv_{t.token}", t,
                 [f"{t.cname} vd", f"{t.cname} vs1", f"{t.cname} vs2", "size_t vl"],
                 tail=False)
            c.op(f"{name}_vx_{t.token}", t,
                 [f"{t.cname} vd", f"{t.elem_ctype} rs1", f"{t.cname} vs2", "size_t vl"],
                 tail=False)
    for name, kind in (("vwmaccu", "uint"), ("vwmacc", "int")):
        for t in _narrow(INT_TYPES if kind == "int" else UINT_TYPES):
            w = _wide(t)
            c.op(f"{name}_vv_{w.token}", w,
                 [f"{w.cname} vd", f"{t.cname} vs1", f"{t.cname} vs2", "size_t vl"],
                 tail=False)
            c.op(f"{name}_vx_{w.token}", w,
                 [f"{w.cname} vd", f"{t.elem_ctype} rs1", f"{t.cname} vs2",
                  "size_t vl"], tail=False)
    for t in _narrow(INT_TYPES):
        w = _wide(t)
        u = _same(t, "uint")
        c.op(f"vwmaccsu_vv_{w.token}", w,
             [f"{w.cname} vd", f"{t.cname} vs1", f"{u.cname} vs2", "size_t vl"],
             tail=False)
        c.op(f"vwmaccsu_vx_{w.token}", w,
             [f"{w.cname} vd", f"{t.elem_ctype} rs1", f"{u.cname} vs2", "size_t vl"],
             tail=False)
        c.op(f"vwmaccus_vx_{w.token}", w,
             [f"{w.cname} vd", f"{u.elem_ctype} rs1", f"{t.cname} vs2", "size_t vl"],
             tail=False)

    for t in IU_TYPES:
        b = t.mask_type.cname
        c.op(f"vmerge_vvm_{t.token}", t,
             [f"{t.cname} vs2", f"{t.cname} vs1", f"{b} v0", "size_t vl"],
             masked=False)
        c.op(f"vmerge_vxm_{t.token}", t,
             [f"{t.cname} vs2", f"{t.elem_ctype} rs1", f"{b} v0", "size_t vl"],
             masked=False)
    for t in FLOAT_TYPES:
        b = t.mask_type.cname
        c.op(f"vmerge_vvm_{t.token}", t,
             [f"{t.cname} vs2", f"{t.cname} vs1", f"{b} v0", "size_t vl"],
             masked=False)
        c.op(f"vfmerge_vfm_{t.token}", t,
             [f"{t.cname} vs2", f"{t.elem_ctype} rs1", f"{b} v0", "size_t vl"],
             masked=False)

    for t in VALUE_TYPES:
        c.op(f"vmv_v_v_{t.token}", t, [f"{t.cname} vs1", "size_t vl"], masked=False)
    for t in IU_TYPES:
        c.op(f"vmv_v_x_{t.token}", t, [f"{t.elem_ctype} rs1", "size_t vl"],
             masked=False)
    for t in FLOAT_TYPES:
        c.op(f"vfmv_v_f_{t.token}", t, [f"{t.elem_ctype} rs1", "size_t vl"],
             masked=False)


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def _fixed_point(c: Catalog) -> None:
    _binary(c, "vsaddu", UINT_TYPES)
    _binary(c, "vsadd", INT_TYPES)
    _binary(c, "vssubu", UINT_TYPES)
    _binary(c, "vssub", INT_TYPES)

    def vxrm_binary(name, types, shift=False):
        for t in types:
            v1 = f"{_shift_type(t).cname} vs1" if shift else f"{t.cname} vs1"
            x1 = "size_t rs1" if shift else f"{t.elem_ctype} rs1"
            c.op(f"{name}_vv_{t.token}", t,
                 [f"{t.cname} vs2", v1, "unsigned int vxrm", "size_t vl"])
            c.op(f"{name}_vx_{t.token}", t,
                 [f"{t.cname} vs2", x1, "unsigned int vxrm", "size_t vl"])

    vxrm_binary("vaaddu", UINT_TYPES)
    vxrm_binary("vaadd", INT_TYPES)
    vxrm_binary("vasubu", UINT_TYPES)
    vxrm_binary("vasub", INT_TYPES)
    vxrm_binary("vsmul", INT_TYPES)
    vxrm_binary("vssrl", UINT_TYPES, shift=True)
    vxrm_binary("vssra", INT_TYPES, shift=True)

    for name, types in (("vnclipu", UINT_TYPES), ("vnclip", INT_TYPES)):
        for t in _narrow(types):
            w = _wide(t)
            sh = _shift_type(t).cname
            c.op(f"{name}_wv_{t.token}", t,
                 [f"{w.cname} vs2", f"{sh} vs1", "unsigned int vxrm", "size_t vl"])
            c.op(f"{name}_wx_{t.token}", t,
                 [f"{w.cname} vs2", "size_t rs1", "unsigned int vxrm", "size_t vl"])


# ---------------------------------------------------------------------------
# floating point
# ---------------------------------------------------------------------------

def _float_arith(c: Catalog) -> None:
    def fp_binary(name, forms=("vv", "vf"), types=FLOAT_TYPES, rm=True):
        for t in types:
            for form in forms:
                if form == "vv":
                    args = [f"{t.cname} vs2", f"{t.cname} vs1", "size_t vl"]
                else:
                    args = [f"{t.cname} vs2", f"{t.elem_ctype} rs1", "size_t vl"]
                c.op(f"{name}_{form}_{t.token}", t, args)
                if rm:
                    c.op(f"{name}_{form}_{t.token}_rm", t,
                         args[:-1] + ["unsigned int frm", "size_t vl"])

    fp_binary("vfadd")
    fp_binary("vfsub")
    fp_binary("vfrsub", forms=("vf",))
    fp_binary("vfmul")
    fp_binary("vfdiv")
    fp_binary("vfrdiv", forms=("vf",))
    fp_binary("vfmin", rm=False)
    fp_binary("vfmax", rm=False)
    fp_binary("vfsgnj", rm=False)
    fp_binary("vfsgnjn", rm=False)
    fp_binary("vfsgnjx", rm=False)

    for t in FLOAT_TYPES:
        for name, rm in (("vfneg", False), ("vfabs", False),
                         ("vfsqrt", True), ("vfrsqrt7", False), ("vfrec7", True)):
            args = [f"{t.cname} vs2", "size_t vl"]
            c.op(f"{name}_v_{t.token}", t, args)
            if rm:
                c.op(f"{name}_v_{t.token}_rm", t,
                     args[:-1] + ["unsigned int frm", "size_t vl"])

    fwide = _narrow(FLOAT_TYPES)
    for base in ("vfwadd", "vfwsub"):
        for t in fwide:
            w = _wide(t)
            for form, v2, v1 in (
                ("vv", t.cname, f"{t.cname} vs1"),
                ("vf", t.cname, f"{t.elem_ctype} rs1"),
                ("wv", w.cname, f"{t.cname} vs1"),
                ("wf", w.cname, f"{t.elem_ctype} rs1"),
            ):
                args = [f"{v2} vs2", v1, "size_t vl"]
                c.op(f"{base}_{form}_{w.token}", w, args)
                c.op(f"{base}_{form}_{w.token}_rm", w,
                     args[:-1] + ["unsigned int frm", "size_t vl"])
    for t in fwide:
        w = _wide(t)
        for form, v1 in (("vv", f"{t.cname} vs1"), ("vf", f"{t.elem_ctype} rs1")):
            args = [f"{t.cname} vs2", v1, "size_t vl"]
            c.op(f"vfwmul_{form}_{w.token}", w, args)
            c.op(f"vfwmul_{form}_{w.token}_rm", w,
                 args[:-1] + ["unsigned int frm", "size_t vl"])

    macs = ("vfmacc", "vfnmacc", "vfmsac", "vfnmsac",
            "vfmadd", "vfnmadd", "vfmsub", "vfnmsub")
    for name in macs:
        for t in FLOAT_TYPES:
            for form, s1 in (("vv", f"{t.cname} vs1"), ("vf", f"{t.elem_ctype} rs1")):
                args = [f"{t.cname} vd", s1, f"{t.cname} vs2", "size_t vl"]
                c.op(f"{name}_{form}_{t.token}", t, args, tail=False)
                c.op(f"{name}_{form}_{t.token}_rm", t,
                     args[:-1] + ["unsigned int frm", "size_t vl"], tail=False)
    for name in ("vfwmacc", "vfwnmacc", "vfwmsac", "vfwnmsac"):
        for t in fwide:
            w = _wide(t)
            for form, s1 in (("vv", f"{t.cname} vs1"), ("vf", f"{t.elem_ctype} rs1")):
                args = [f"{w.cname} vd", s1, f"{t.cname} vs2", "size_t vl"]
                c.op(f"{name}_{form}_{w.token}", w, args, tail=False)
                c.op(f"{name}_{form}_{w.token}_rm", w,
                     args[:-1] + ["unsigned int frm", "size_t vl"], tail=False)

    cmp_table = ("vmfeq", "vmfne", "vmflt", "vmfle", "vmfgt", "vmfge")
    for name in cmp_table:
        for t in FLOAT_TYPES:
            bt = t.mask_type
            c.op(f"{name}_vv_{t.token}_{bt.token}", bt,
                 [f"{t.cname} vs2", f"{t.cname} vs1", "size_t vl"])
            c.op(f"{name}_vf_{t.token}_{bt.token}", bt,
                 [f"{t.cname} vs2", f"{t.elem_ctype} rs1", "size_t vl"])

    for t in FLOAT_TYPES:
        u = _same(t, "uint")
        c.op(f"vfclass_v_{u.token}", u, [f"{t.cname} vs2", "size_t vl"])

    # single-width float/int conversions
    for t in FLOAT_TYPES:
        i, u = _same(t, "int"), _same(t, "uint")
        for name, dst, src, rm in (
            ("vfcvt_x_f_v", i, t, True),
            ("vfcvt_xu_f_v", u, t, True),
            ("vfcvt_rtz_x_f_v", i, t, False),
            ("vfcvt_rtz_xu_f_v", u, t, False),
            ("vfcvt_f_x_v", t, i, True),
            ("vfcvt_f_xu_v", t, u, True),
        ):
            args = [f"{src.cname} vs2", "size_t vl"]
            c.op(f"{name}_{dst.token}", dst, args)
            if rm:
                c.op(f"{name}_{dst.token}_rm", dst,
                     args[:-1] + ["unsigned int frm", "size_t vl"])
    # widening conversions
    for t in fwide:
        wf = _wide(t)
        wi, wu = _same(wf, "int"), _same(wf, "uint")
        for name, dst, src, rm in (
            ("vfwcvt_f_f_v", wf, t, False),
            ("vfwcvt_x_f_v", wi, t, True),
            ("vfwcvt_xu_f_v", wu, t, True),
            ("vfwcvt_rtz_x_f_v", wi, t, False),
            ("vfwcvt_rtz_xu_f_v", wu, t, False),
        ):
            args = [f"{src.cname} vs2", "size_t vl"]
            c.op(f"{name}_{dst.token}", dst, args)
            if rm:
                c.op(f"{name}_{dst.token}_rm", dst,
                     args[:-1] + ["unsigned int frm", "size_t vl"])
    for dst in fwide:  # int -> wider float
        wf = _wide(dst)
        ni, nu = _same(dst, "int"), _same(dst, "uint")
        for name, src in (("vfwcvt_f_x_v", ni), ("vfwcvt_f_xu_v", nu)):
            c.op(f"{name}_{wf.token}", wf, [f"{src.cname} vs2", "size_t vl"])
    # narrowing conversions
    for nt in fwide:
        wf = _wide(nt)
        for name, dst, src, rm in (
            ("vfncvt_f_f_w", nt, wf, True),
            ("vfncvt_rod_f_f_w", nt, wf, False),
            ("vfncvt_f_x_w", nt, _same(wf, "int"), True),
            ("vfncvt_f_xu_w", nt, _same(wf, "uint"), True),
        ):
            args = [f"{src.cname} vs2", "size_t vl"]
            c.op(f"{name}_{dst.token}", dst, args)
            if rm:
                c.op(f"{name}_{dst.token}_rm", dst,
                     args[:-1] + ["unsigned int frm", "size_t vl"])
    for kind in ("int", "uint"):
        for nt in _narrow([t for t in VALUE_TYPES if t.kind == kind]):
            if nt.sew * 2 not in (16, 32, 64):
                continue
            wf = _wide(nt, "float")
            tag = "x" if kind == "int" else "xu"
            args = [f"{wf.cname} vs2", "size_t vl"]
            c.op(f"vfncvt_{tag}_f_w_{nt.token}", nt, args)
            c.op(f"vfncvt_{tag}_f_w_{nt.token}_rm", nt,
                 args[:-1] + ["unsigned int frm", "size_t vl"])
            c.op(f"vfncvt_rtz_{tag}_f_w_{nt.token}", nt, args)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _reductions(c: Catalog) -> None:
    table = (
        ("vredsum", IU_TYPES), ("vredand", IU_TYPES), ("vredor", IU_TYPES),
        ("vredxor", IU_TYPES), ("vredmaxu", UINT_TYPES), ("vredmax", INT_TYPES),
        ("vredminu", UINT_TYPES), ("vredmin", INT_TYPES),
    )
    for name, types in table:
        for t in types:
            s = _m1(t)
            c.op(f"{name}_vs_{t.token}_{s.token}", s,
                 [f"{t.cname} vs2", f"{s.cname} vs1", "size_t vl"], tail=True)
    for name, kind in (("vwredsum", "int"), ("vwredsumu", "uint")):
        for t in [x for x in VALUE_TYPES if x.kind == kind and x.sew * 2 <= 64]:
            s = _m1(t, sew=t.sew * 2)
            c.op(f"{name}_vs_{t.token}_{s.token}", s,
                 [f"{t.cname} vs2", f"{s.cname} vs1", "size_t vl"], tail=True)
    for name, rm in (("vfredosum", True), ("vfredusum", True),
                     ("vfredmax", False), ("vfredmin", False)):
        for t in FLOAT_TYPES:
            s = _m1(t)
            args = [f"{t.cname} vs2", f"{s.cname} vs1", "size_t vl"]
            c.op(f"{name}_vs_{t.token}_{s.token}", s, args, tail=True)
            if rm:
                c.op(f"{name}_vs_{t.token}_{s.token}_rm", s,
                     args[:-1] + ["unsigned int frm", "size_t vl"], tail=True)
    for name in ("vfwredosum", "vfwredusum"):
        for t in [x for x in FLOAT_TYPES if x.sew * 2 <= 64]:
            s = _m1(t, sew=t.sew * 2)
            args = [f"{t.cname} vs2", f"{s.cname} vs1", "size_t vl"]
            c.op(f"{name}_vs_{t.token}_{s.token}", s, args, tail=True)
            c.op(f"{name}_vs_{t.token}_{s.token}_rm", s,
                 args[:-1] + ["unsigned int frm", "size_t vl"], tail=True)


# ---------------------------------------------------------------------------
# mask register ops
# ---------------------------------------------------------------------------

def _mask_ops(c: Catalog) -> None:
    logical = ("vmand", "vmnand", "vmandn", "vmxor",
               "vmor", "vmnor", "vmorn", "vmxnor")
    for name in logical:
        for b in BOOL_TYPES:
            c.raw(b.cname, f"{name}_mm_{b.token}",
                  [f"{b.cname} vs2", f"{b.cname} vs1", "size_t vl"])
    for b in BOOL_TYPES:
        c.raw(b.cname, f"vmmv_m_{b.token}", [f"{b.cname} vs2", "size_t vl"])
        c.raw(b.cname, f"vmnot_m_{b.token}", [f"{b.cname} vs2", "size_t vl"])
        c.raw(b.cname, f"vmclr_m_{b.token}", ["size_t vl"])
        c.raw(b.cname, f"vmset_m_{b.token}", ["size_t vl"])
        c.op(f"vcpop_m_{b.token}", "unsigned long",
             [f"{b.cname} vs2", "size_t vl"], merge=b)
        c.op(f"vfirst_m_{b.token}", "long", [f"{b.cname} vs2", "size_t vl"], merge=b)
        for name in ("vmsbf", "vmsif", "vmsof"):
            c.op(f"{name}_m_{b.token}", b, [f"{b.cname} vs2", "size_t vl"])
    for t in UINT_TYPES:
        b = t.mask_type
        c.op(f"viota_m_{t.token}", t, [f"{b.cname} vs2", "size_t vl"])
        c.op(f"vid_v_{t.token}", t, ["size_t vl"])


# ---------------------------------------------------------------------------
# permutation
# ---------------------------------------------------------------------------

def _permutation(c: Catalog) -> None:
    for t in IU_TYPES:
        st = t.elem_ctype
        stok = f"{'i' if t.kind == 'int' else 'u'}{t.sew}"
        c.raw(st, f"vmv_x_s_{t.token}_{stok}", [f"{t.cname} vs1"])
        c.op(f"vmv_s_x_{t.token}", t, [f"{st} rs1", "size_t vl"], masked=False)
    for t in FLOAT_TYPES:
        st = t.elem_ctype
        c.raw(st, f"vfmv_f_s_{t.token}_f{t.sew}", [f"{t.cname} vs1"])
        c.op(f"vfmv_s_f_{t.token}", t, [f"{st} rs1", "size_t vl"], masked=False)

    for t in VALUE_TYPES:
        c.op(f"vslideup_vx_{t.token}", t,
             [f"{t.cname} vd", f"{t.cname} vs2", "size_t rs1", "size_t vl"],
             tail=False)
        c.op(f"vslidedown_vx_{t.token}", t,
             [f"{t.cname} vs2", "size_t rs1", "size_t vl"])
    for t in IU_TYPES:
        c.op(f"vslide1up_vx_{t.token}", t,
             [f"{t.cname} vs2", f"{t.elem_ctype} rs1", "size_t vl"])
        c.op(f"vslide1down_vx_{t.token}", t,
             [f"{t.cname} vs2", f"{t.elem_ctype} rs1", "size_t vl"])
    for t in FLOAT_TYPES:
        c.op(f"vfslide1up_vf_{t.token}", t,
             [f"{t.cname} vs2", f"{t.elem_ctype} rs1", "size_t vl"])
        c.op(f"vfslide1down_vf_{t.token}", t,
             [f"{t.cname} vs2", f"{t.elem_ctype} rs1", "size_t vl"])

    for t in VALUE_TYPES:
        idx = _shift_type(t)
        c.op(f"vrgather_vv_{t.token}", t,
             [f"{t.cname} vs2", f"{idx.cname} vs1", "size_t vl"])
        c.op(f"vrgather_vx_{t.token}", t,
             [f"{t.cname} vs2", "size_t rs1", "size_t vl"])
        if (16, t.ratio) in EMUL_TOKENS:
            i16 = _index_type(t, 16)
            c.op(f"vrgatherei16_vv_{t.token}", t,
                 [f"{t.cname} vs2", f"{i16.cname} vs1", "size_t vl"])
        c.op(f"vcompress_vm_{t.token}", t,
             [f"{t.cname} vs2", f"{t.mask_type.cname} vs1", "size_t vl"],
             masked=False)

    for t in VALUE_TYPES:
        if t.lmul.denominator != 1:
            continue
        n = int(t.lmul)
        c.raw(t.cname, f"vmv{n}r_v_{t.token}", [f"{t.cname} vs2"])


# ---------------------------------------------------------------------------
# type conversions / register-group and tuple manipulation
# ---------------------------------------------------------------------------

def _conversions(c: Catalog) -> None:
    for t in VALUE_TYPES + TUPLE_TYPES:
        c.raw(t.cname, f"vundefined_{t.token}", [])

    for t in INT_TYPES:
        u = _same(t, "uint")
        c.raw(u.cname, f"vreinterpret_v_{t.token}_{u.token}", [f"{t.cname} vs1"])
        c.raw(t.cname, f"vreinterpret_v_{u.token}_{t.token}", [f"{u.cname} vs1"])
    for f in FLOAT_TYPES:
        i, u = _same(f, "int"), _same(f, "uint")
        for a, b in ((f, i), (i, f), (f, u), (u, f)):
            c.raw(b.cname, f"vreinterpret_v_{a.token}_{b.token}", [f"{a.cname} vs1"])
    for kind in ("int", "uint"):
        kinds = [t for t in VALUE_TYPES if t.kind == kind]
        for a in kinds:
            for b in kinds:
                if a.lmul == b.lmul and a.sew != b.sew:
                    c.raw(b.cname, f"vreinterpret_v_{a.token}_{b.token}",
                          [f"{a.cname} vs1"])

    for src in VALUE_TYPES:
        for dst in VALUE_TYPES:
            if src.kind != dst.kind or src.sew != dst.sew:
                continue
            if dst.lmul > src.lmul:
                c.raw(dst.cname, f"vlmul_ext_v_{src.token}_{dst.token}",
                      [f"{src.cname} vs1"])
            elif dst.lmul < src.lmul:
                c.raw(dst.cname, f"vlmul_trunc_v_{src.token}_{dst.token}",
                      [f"{src.cname} vs1"])

    # register-group insert/extract between whole-LMUL types
    for small in VALUE_TYPES:
        if small.lmul.denominator != 1:
            continue
        for big in VALUE_TYPES:
            if (
                big.kind == small.kind
                and big.sew == small.sew
                and big.lmul.denominator == 1
                and big.lmul > small.lmul
            ):
                c.raw(big.cname, f"vset_v_{small.token}_{big.token}",
                      [f"{big.cname} dest", "size_t index", f"{small.cname} value"])
                c.raw(small.cname, f"vget_v_{big.token}_{small.token}",
                      [f"{big.cname} src", "size_t index"])
    # tuple insert/extract
    for tt in TUPLE_TYPES:
        base = tt.scalar(nf=1)
        c.raw(tt.cname, f"vset_v_{base.token}_{tt.token}",
              [f"{tt.cname} dest", "size_t index", f"{base.cname} value"])
        c.raw(base.cname, f"vget_v_{tt.token}_{base.token}",
              [f"{tt.cname} src", "size_t index"])


def _config(c: Catalog) -> None:
    for t in VALUE_TYPES:
        if t.kind != "int":
            continue
        tok = f"e{t.sew}{t.token[len(str(t.sew)) + 1:]}"
        c.raw("size_t", f"vsetvl_{tok}", ["size_t avl"])
        c.raw("size_t", f"vsetvlmax_{tok}", [])
    c.raw("unsigned long", "vlenb", [])


def build_listing(policy: bool = False) -> str:
    """The explicit intrinsic listing, one prototype per line."""
    c = Catalog(policy=policy)
    _loads_stores(c)
    _int_arith(c)
    _fixed_point(c)
    _float_arith(c)
    _reductions(c)
    _mask_ops(c)
    _permutation(c)
    _conversions(c)
    _config(c)
    return "\n".join(c.lines) + "\n"

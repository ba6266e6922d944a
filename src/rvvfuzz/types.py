"""Vector type model: element kinds, SEW/LMUL, ratios and type tokens."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

SEWS = (8, 16, 32, 64)
FLOAT_SEWS = (16, 32, 64)
LMULS = (
    Fraction(1, 8),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(4),
    Fraction(8),
)
BOOL_RATIOS = (1, 2, 4, 8, 16, 32, 64)

_LMUL_TO_TOKEN = {
    Fraction(1, 8): "mf8",
    Fraction(1, 4): "mf4",
    Fraction(1, 2): "mf2",
    Fraction(1): "m1",
    Fraction(2): "m2",
    Fraction(4): "m4",
    Fraction(8): "m8",
}
_TOKEN_TO_LMUL = {v: k for k, v in _LMUL_TO_TOKEN.items()}

# LMUL token of EMUL = EEW / ratio for every (EEW, ratio) whose EMUL is legal
# (1/8..8): the register group of an EEW-wide index or mask-source operand
# sharing its ratio with the data it addresses
EMUL_TOKENS = {
    (eew, r): _LMUL_TO_TOKEN[Fraction(eew, r)]
    for eew in SEWS
    for r in BOOL_RATIOS
    if r <= 8 * eew and eew <= 8 * r
}

_KIND_PREFIX = {"int": "i", "uint": "u", "float": "f"}
_PREFIX_KIND = {v: k for k, v in _KIND_PREFIX.items()}

# (kind, SEW) -> the C type of one element or scalar operand
SCALAR_CTYPES = {
    ("int", 8): "int8_t",
    ("int", 16): "int16_t",
    ("int", 32): "int32_t",
    ("int", 64): "int64_t",
    ("uint", 8): "uint8_t",
    ("uint", 16): "uint16_t",
    ("uint", 32): "uint32_t",
    ("uint", 64): "uint64_t",
    ("float", 16): "_Float16",
    ("float", 32): "float",
    ("float", 64): "double",
}


def _whole_ratio(sew: int, lmul: Fraction) -> int | None:
    """SEW / LMUL in integer arithmetic; None when it is not a whole number."""
    num, den = lmul.numerator, lmul.denominator
    return None if sew * den % num else sew * den // num


class TypeError_(ValueError):
    """Raised for malformed or illegal vector type tokens."""


@dataclass(frozen=True)
class VectorType:
    """One RVV value type: element kind plus SEW/LMUL, or a bool ratio.

    Bool types store their ratio directly and carry no SEW/LMUL.  Tuple types
    (segment load/store operands) carry nf > 1.
    """

    kind: str  # "int" | "uint" | "float" | "bool"
    sew: int | None = None
    lmul: Fraction | None = None
    bool_ratio: int | None = None
    nf: int = 1

    def __post_init__(self) -> None:
        if self.kind == "bool":
            if self.bool_ratio not in BOOL_RATIOS:
                raise TypeError_(f"illegal bool ratio {self.bool_ratio}")
            if self.sew is not None or self.lmul is not None or self.nf != 1:
                raise TypeError_("bool types carry only a ratio")
            return
        if self.kind not in _KIND_PREFIX:
            raise TypeError_(f"unknown element kind {self.kind!r}")
        if self.sew not in SEWS:
            raise TypeError_(f"illegal SEW {self.sew}")
        if self.kind == "float" and self.sew not in FLOAT_SEWS:
            raise TypeError_(f"no {self.sew}-bit float vector type")
        if self.lmul not in LMULS:
            raise TypeError_(f"illegal LMUL {self.lmul}")
        ratio = _whole_ratio(self.sew, self.lmul)
        if ratio is None or not 1 <= ratio <= 64:
            raise TypeError_(f"illegal SEW/LMUL combination {self.sew}/{self.lmul}")
        if self.nf != 1:
            if not 2 <= self.nf <= 8 or self.nf * self.lmul.numerator > 8 * self.lmul.denominator:
                raise TypeError_(f"illegal tuple: lmul={self.lmul} nf={self.nf}")

    @property
    def is_bool(self) -> bool:
        return self.kind == "bool"

    @property
    def is_tuple(self) -> bool:
        return self.nf > 1

    # ratio, token, cname, elem_ctype and mask_type are computed once per
    # instance; the cached values live in the instance __dict__, outside
    # equality and hash
    @cached_property
    def ratio(self) -> int:
        if self.is_bool:
            return self.bool_ratio  # type: ignore[return-value]
        return _whole_ratio(self.sew, self.lmul)

    @cached_property
    def token(self) -> str:
        if self.is_bool:
            return f"b{self.bool_ratio}"
        base = f"{_KIND_PREFIX[self.kind]}{self.sew}{_LMUL_TO_TOKEN[self.lmul]}"
        return base if self.nf == 1 else f"{base}x{self.nf}"

    @cached_property
    def cname(self) -> str:
        """The C type name, e.g. vint8m1_t, vbool8_t, vint8m1x2_t."""
        if self.is_bool:
            return f"vbool{self.bool_ratio}_t"
        base = f"v{self.kind}{self.sew}{_LMUL_TO_TOKEN[self.lmul]}"
        if self.nf > 1:
            base += f"x{self.nf}"
        return base + "_t"

    @cached_property
    def elem_ctype(self) -> str:
        """The scalar C type of one element (bool elements have none)."""
        if self.is_bool:
            raise TypeError_("bool vectors have no element C type")
        return SCALAR_CTYPES[(self.kind, self.sew)]

    def scalar(self, nf: int = 1) -> "VectorType":
        """Same kind/SEW/LMUL with a different tuple length."""
        return VectorType(self.kind, self.sew, self.lmul, nf=nf)

    @cached_property
    def mask_type(self) -> "VectorType":
        """The bool type governing this type's lanes (same ratio)."""
        return VectorType.from_token(f"b{self.ratio}")

    @classmethod
    def from_token(cls, token: str) -> "VectorType":
        """The type a token names; every call with one token returns the
        same object."""
        return _from_token(token)

    @classmethod
    def from_cname(cls, cname: str) -> "VectorType":
        """The type a C type name names, shared with ``from_token``."""
        return _from_cname(cname)


@cache
def _from_token(token: str) -> VectorType:
    sew, lmul, nf = None, None, 1
    t = token
    if t.startswith("b"):
        try:
            ratio = int(t[1:])
        except ValueError:
            raise TypeError_(f"malformed type token {token!r}") from None
        return VectorType("bool", bool_ratio=ratio)
    if t and t[0] in _PREFIX_KIND:
        kind = _PREFIX_KIND[t[0]]
        t = t[1:]
    else:
        raise TypeError_(f"malformed type token {token!r}")
    if "x" in t:
        t, _, nf_s = t.partition("x")
        try:
            nf = int(nf_s)
        except ValueError:
            raise TypeError_(f"malformed type token {token!r}") from None
    m_at = t.find("m")
    if m_at < 0:
        raise TypeError_(f"malformed type token {token!r}")
    try:
        sew = int(t[:m_at])
    except ValueError:
        raise TypeError_(f"malformed type token {token!r}") from None
    lmul = _TOKEN_TO_LMUL.get(t[m_at:])
    if lmul is None:
        raise TypeError_(f"malformed type token {token!r}")
    return VectorType(kind, sew, lmul, nf=nf)


@cache
def _from_cname(cname: str) -> VectorType:
    if not (cname.startswith("v") and cname.endswith("_t")):
        raise TypeError_(f"not a vector C type: {cname!r}")
    body = cname[1:-2]
    for stem, kind in (("int", "i"), ("uint", "u"), ("float", "f"), ("bool", "b")):
        if body.startswith(stem):
            return _from_token(kind + body[len(stem):])
    raise TypeError_(f"not a vector C type: {cname!r}")


def type_at_ratio(kind: str, sew: int, ratio: int) -> VectorType:
    """The kind/SEW type with this SEW/LMUL ratio, i.e. LMUL = EMUL = SEW / ratio."""
    emul = EMUL_TOKENS.get((sew, ratio))
    if emul is None or kind not in _KIND_PREFIX:
        raise TypeError_(f"no {kind}{sew} vector type at ratio {ratio}")
    return VectorType.from_token(f"{_KIND_PREFIX[kind]}{sew}{emul}")


def lmul_token(lmul: Fraction) -> str:
    return _LMUL_TO_TOKEN[lmul]


def all_value_types(elen: int = 64) -> list[VectorType]:
    """Every legal non-bool, non-tuple vector type under the given ELEN."""
    return list(_value_types(elen))


@cache
def _value_types(elen: int) -> tuple[VectorType, ...]:
    out = []
    for kind in ("int", "uint", "float"):
        sews = FLOAT_SEWS if kind == "float" else SEWS
        for sew in sews:
            for lmul in LMULS:
                r = _whole_ratio(sew, lmul)
                if r is not None and 1 <= r <= elen:
                    out.append(VectorType.from_token(
                        f"{_KIND_PREFIX[kind]}{sew}{_LMUL_TO_TOKEN[lmul]}"))
    return tuple(out)


def all_tuple_types(elen: int = 64) -> list[VectorType]:
    """Every legal tuple (segment) type: LMUL * NF <= 8, NF in 2..8."""
    out = []
    for base in _value_types(elen):
        for nf in range(2, 9):
            if nf * base.lmul.numerator <= 8 * base.lmul.denominator:
                out.append(VectorType.from_token(f"{base.token}x{nf}"))
    return out


def all_bool_types() -> list[VectorType]:
    return [VectorType.from_token(f"b{r}") for r in BOOL_RATIOS]

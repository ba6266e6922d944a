"""Intrinsic definitions: name decoding, prototype parsing, categories.

The input listing is plain text with one C prototype per line (trailing
semicolon optional); lines starting with ``//`` or ``#`` are ignored.
Overloaded prototypes sharing a name merge into one record with the
occurrence count kept as the overload weight.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache

from .types import VectorType, TypeError_

PREFIX = "__riscv_"

# Tokens that may follow the vector-type tokens in a name: an optional
# rounding-mode marker, then an optional mask/policy marker.
ROUND_TOKEN = "rm"
POLICY_TOKENS = ("m", "tu", "tum", "tumu", "mu")

_VTYPE_TOKEN_RE = re.compile(
    r"^(?:[iuf](?:8|16|32|64)(?:mf?[1248])(?:x[2-8])?"  # value/tuple types
    r"|e(?:8|16|32|64)(?:mf?[1248])"  # vsetvl config form
    r"|b(?:1|2|4|8|16|32|64)"  # bool types
    r"|[iuf](?:8|16|32|64))$"  # scalar element types (vmv_x_s etc.)
)

_LOAD_STEM_RE = re.compile(
    r"^(?:vle\d+|vlse\d+|vl[uo]xei\d+"
    r"|vlseg[2-8]e\d+|vlsseg[2-8]e\d+|vl[uo]xseg[2-8]ei\d+)$"
)
_FOF_STEM_RE = re.compile(r"^(?:vle\d+ff|vlseg[2-8]e\d+ff)$")
_WHOLE_REG_LOAD_RE = re.compile(r"^vl[1248]re\d+$")

# Unsupported by the generator and excluded from selection; extendable by
# callers (the exact inventory beyond fault-only-first loads is configurable).
DEFAULT_IGNORED_STEMS = frozenset({"vsetvl", "vsetvlmax", "vlenb", "vlm"})

CATEGORIES = ("Load", "Store", "Ignored", "Operation")


class ParseError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


class DecodeError(ValueError):
    pass


class AlignmentError(ValueError):
    pass


@dataclass(frozen=True)
class NameParts:
    prefix: str
    mnemonic: str
    type_tokens: tuple[str, ...]
    policy: str = ""  # "", "m", "tu", "rm", "rm_tumu", ...


def decode_name(full_name: str) -> NameParts:
    """Split an intrinsic name into prefix, mnemonic, type tokens and suffix."""
    if not full_name.startswith(PREFIX):
        raise DecodeError(f"{full_name!r} does not start with {PREFIX!r}")
    pieces = full_name[len(PREFIX):].split("_")
    if not pieces or not pieces[0]:
        raise DecodeError(f"{full_name!r} has no mnemonic")

    first_type = next(
        (i for i, p in enumerate(pieces) if _VTYPE_TOKEN_RE.match(p)), None
    )
    if first_type is None:
        # implicit (overloaded) form: no type tokens, maybe trailing policy
        suffix: list[str] = []
        while pieces and pieces[-1] in POLICY_TOKENS:
            suffix.insert(0, pieces.pop())
        if pieces and pieces[-1] == ROUND_TOKEN:
            suffix.insert(0, pieces.pop())
        if not pieces:
            raise DecodeError(f"{full_name!r} has no mnemonic")
        return NameParts(PREFIX, "_".join(pieces), (), "_".join(suffix))

    end_type = first_type
    while end_type < len(pieces) and _VTYPE_TOKEN_RE.match(pieces[end_type]):
        end_type += 1
    mnemonic = "_".join(pieces[:first_type])
    types = tuple(pieces[first_type:end_type])
    rest = pieces[end_type:]

    allowed = list(rest)
    if allowed and allowed[0] == ROUND_TOKEN:
        allowed.pop(0)
    if allowed and allowed[0] in POLICY_TOKENS:
        allowed.pop(0)
    if allowed:
        raise DecodeError(f"unknown suffix token {allowed[0]!r} in {full_name!r}")
    if not mnemonic:
        raise DecodeError(f"{full_name!r} has no mnemonic")
    return NameParts(PREFIX, mnemonic, types, "_".join(rest))


def render_name(parts: NameParts) -> str:
    pieces = [parts.mnemonic]
    pieces.extend(parts.type_tokens)
    if parts.policy:
        pieces.append(parts.policy)
    return parts.prefix + "_".join(pieces)


@dataclass(frozen=True)
class Param:
    name: str
    ctype: str
    vtype: VectorType | None
    role: str  # vector-operand | mask | scalar | rounding-mode-vxrm |
    #            rounding-mode-frm | vl-count | memory-address | index-vector | other


@dataclass
class IntrinsicDef:
    full_name: str
    name_parts: NameParts
    ret_ctype: str
    ret_vtype: VectorType | None
    params: tuple[Param, ...]
    category: str = "Operation"
    alias_count: int = 1
    # derived from name_parts once: the generator reads them per operand
    stem: str = field(init=False, repr=False, compare=False)
    policy: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.stem = self.name_parts.mnemonic.split("_", 1)[0]
        # the mask/tail policy token alone, without any rounding marker
        last = self.name_parts.policy.split("_")[-1]
        self.policy = last if last in POLICY_TOKENS else ""

    @property
    def mnemonic(self) -> str:
        return self.name_parts.mnemonic

    @property
    def is_masked(self) -> bool:
        return self.policy in ("m", "tum", "tumu", "mu")

    @property
    def return_kind(self) -> str:
        if self.ret_vtype is not None:
            return "vector"
        if self.ret_ctype == "void":
            return "void"
        if self.ret_ctype == "size_t":
            return "size-count"
        return "scalar"

    def vector_types(self) -> list[VectorType]:
        out = [p.vtype for p in self.params if p.vtype is not None]
        if self.ret_vtype is not None:
            out.append(self.ret_vtype)
        return out

    @property
    def naming_category(self) -> str:
        """explicit / explicit-policy / implicit / implicit-policy."""
        has_types = bool(self.name_parts.type_tokens)
        has_policy = self.policy not in ("", "m")
        if has_types:
            return "explicit-policy" if has_policy else "explicit"
        return "implicit-policy" if has_policy else "implicit"


def is_reduction(d: IntrinsicDef) -> bool:
    return d.mnemonic.endswith("_vs")


ALWAYS_UNDEFINED_STEMS = frozenset({"vundefined", "vreinterpret"})


def is_always_undefined(d: IntrinsicDef) -> bool:
    """Intrinsics whose results are (partly) uninitialized no matter the inputs."""
    m = d.mnemonic
    return (
        d.stem in ALWAYS_UNDEFINED_STEMS
        or m.startswith("vlmul_ext")
        or m.startswith("vlmul_trunc")
    )


def classify(d: IntrinsicDef, ignored_stems: frozenset[str] = DEFAULT_IGNORED_STEMS) -> str:
    stem = d.stem
    if (
        stem in ignored_stems
        or _FOF_STEM_RE.match(stem)
        or _WHOLE_REG_LOAD_RE.match(stem)
    ):
        return "Ignored"
    if _LOAD_STEM_RE.match(stem):
        return "Load"
    if d.ret_ctype == "void" and d.full_name.startswith(PREFIX + "vs"):
        return "Store"
    return "Operation"


def is_ratio_aligned(d: IntrinsicDef) -> tuple[bool, int | None]:
    """True with the common ratio iff every vector type shares one SEW/LMUL ratio."""
    vts = d.vector_types()
    if not vts:
        raise AlignmentError(f"{d.full_name} has no vector type")
    ratios = {t.ratio for t in vts}
    if len(ratios) == 1:
        return True, ratios.pop()
    return False, None


_PROTO_RE = re.compile(
    r"^\s*(?P<ret>[A-Za-z_][\w ]*?(?:\s*\*)?)\s*"
    r"(?P<name>__riscv_\w+)\s*\(\s*(?P<params>.*?)\s*\)\s*;?\s*$"
)
_PARAM_RE = re.compile(r"^(?P<ctype>.+?[\s*])(?P<name>[A-Za-z_]\w*)$")

_INDEXED_MEM_RE = re.compile(r"^v[ls][uo]x(?:seg[2-8])?ei\d+$")


@cache
def _vtype_of_ctype(ctype: str) -> VectorType | None:
    t = ctype.replace("const", "").replace("*", "").strip()
    if t.startswith("v") and t.endswith("_t"):
        try:
            return VectorType.from_cname(t)
        except TypeError_:
            return None
    return None


def _param_role(name: str, ctype: str, vtype: VectorType | None, stem: str) -> str:
    if "*" in ctype:
        return "memory-address"
    if vtype is not None:
        if vtype.is_bool and name in ("vm", "v0", "mask"):
            return "mask"
        if not vtype.is_bool and vtype.kind == "uint" and _INDEXED_MEM_RE.match(stem):
            return "index-vector"
        return "vector-operand"
    base = ctype.replace("const", "").strip()
    if base == "size_t":
        return "vl-count" if name == "vl" else "scalar"
    if base == "unsigned int" and name == "vxrm":
        return "rounding-mode-vxrm"
    if base == "unsigned int" and name == "frm":
        return "rounding-mode-frm"
    if base in ("ptrdiff_t", "unsigned int", "int", "long", "unsigned long") or base.endswith("_t") or base in ("float", "double", "_Float16"):
        return "scalar"
    return "other"


def parse_prototype(line: str, lineno: int | None = None) -> IntrinsicDef:
    m = _PROTO_RE.match(line)
    if not m:
        raise ParseError(f"malformed prototype: {line.strip()!r}", lineno)
    name = m.group("name")
    try:
        parts = decode_name(name)
    except DecodeError as e:
        raise ParseError(str(e), lineno) from None

    ret_ctype = " ".join(m.group("ret").split())
    ret_vtype = _vtype_of_ctype(ret_ctype)
    if any(tok.startswith("f8") for tok in parts.type_tokens) or "vfloat8" in line:
        raise ParseError(f"8-bit float vector types are not supported: {name}", lineno)

    stem = parts.mnemonic.split("_", 1)[0]
    params: list[Param] = []
    raw = m.group("params")
    if raw and raw != "void":
        for piece in raw.split(","):
            pm = _PARAM_RE.match(piece.strip())
            if not pm:
                raise ParseError(f"malformed parameter {piece.strip()!r}", lineno)
            ctype = " ".join(pm.group("ctype").replace("*", " * ").split())
            pname = pm.group("name")
            vtype = _vtype_of_ctype(ctype)
            params.append(Param(pname, ctype, vtype, _param_role(pname, ctype, vtype, stem)))

    d = IntrinsicDef(name, parts, ret_ctype, ret_vtype, tuple(params))
    d.category = classify(d)
    return d


def parse_definitions(listing: str) -> list[IntrinsicDef]:
    """Parse a prototype listing into merged intrinsic records."""
    defs: dict[str, IntrinsicDef] = {}
    seen_any = False
    for lineno, line in enumerate(listing.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("//") or stripped.startswith("#"):
            continue
        seen_any = True
        d = parse_prototype(stripped, lineno)
        if d.full_name in defs:
            defs[d.full_name].alias_count += 1
        else:
            defs[d.full_name] = d
    if not seen_any:
        raise ParseError("empty listing")
    return list(defs.values())

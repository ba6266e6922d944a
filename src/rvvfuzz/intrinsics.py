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

# Every name piece that reads as a type token: value and tuple types
# ({i,u,f}{sew}{lmul}[x{nf}]), the vsetvl form (e{sew}{lmul}), bool types
# (b{ratio}) and scalar element types ({i,u,f}{sew}, as in vmv_x_s).  The
# grammar is finite, so it is spelled out once and a name piece costs one
# set lookup.  Like the regex it replaces, it admits more than the legal
# types (mf1, f8).
_SEW_TOKENS = ("8", "16", "32", "64")
_LMUL_GRAMMAR = tuple(f"m{f}{n}" for f in ("", "f") for n in "1248")
_VTYPE_TOKENS = frozenset(
    [f"{k}{s}{m}{x}" for k in "iuf" for s in _SEW_TOKENS for m in _LMUL_GRAMMAR
     for x in ("", *(f"x{nf}" for nf in range(2, 9)))]
    + [f"e{s}{m}" for s in _SEW_TOKENS for m in _LMUL_GRAMMAR]
    + [f"b{r}" for r in (1, 2, 4, 8, 16, 32, 64)]
    + [f"{k}{s}" for k in "iuf" for s in _SEW_TOKENS]
)

_LOAD_STEM_RE = re.compile(
    r"^(?:vle\d+|vlse\d+|vl[uo]xei\d+"
    r"|vlseg[2-8]e\d+|vlsseg[2-8]e\d+|vl[uo]xseg[2-8]ei\d+)$"
)
_FOF_STEM_RE = re.compile(r"^(?:vle\d+ff|vlseg[2-8]e\d+ff)$")
_WHOLE_REG_LOAD_RE = re.compile(r"^vl[1248]re\d+$")

# Unsupported by the generator and excluded from selection, beside the
# fault-only-first and whole-register loads matched below
IGNORED_STEMS = frozenset({"vsetvl", "vsetvlmax", "vlenb", "vlm"})


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


@dataclass(frozen=True, slots=True)
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
    if not pieces[0]:
        raise DecodeError(f"{full_name!r} has no mnemonic")

    for first_type, piece in enumerate(pieces):
        if piece in _VTYPE_TOKENS:
            break
    else:
        # implicit (overloaded) form: no type tokens, maybe trailing policy
        suffix: list[str] = []
        while pieces and pieces[-1] in POLICY_TOKENS:
            suffix.insert(0, pieces.pop())
        if pieces and pieces[-1] == ROUND_TOKEN:
            suffix.insert(0, pieces.pop())
        if not pieces:
            raise DecodeError(f"{full_name!r} has no mnemonic")
        return NameParts(PREFIX, "_".join(pieces), (), "_".join(suffix))

    end_type = first_type + 1
    while end_type < len(pieces) and pieces[end_type] in _VTYPE_TOKENS:
        end_type += 1
    rest = pieces[end_type:]
    if rest:
        # allowed: an optional rounding marker, then an optional policy
        i = 1 if rest[0] == ROUND_TOKEN else 0
        if i < len(rest) and rest[i] in POLICY_TOKENS:
            i += 1
        if i < len(rest):
            raise DecodeError(f"unknown suffix token {rest[i]!r} in {full_name!r}")
    if not first_type:
        raise DecodeError(f"{full_name!r} has no mnemonic")
    return NameParts(PREFIX, "_".join(pieces[:first_type]),
                     tuple(pieces[first_type:end_type]), "_".join(rest))


@dataclass(frozen=True)
class Param:
    name: str
    ctype: str
    vtype: VectorType | None
    role: str  # vector-operand | mask | scalar | rounding-mode-vxrm |
    #            rounding-mode-frm | vl-count | memory-address | index-vector | other


@dataclass(slots=True)
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
    # semantics.semantic_class fills it on first use, not at parse time
    sem_class: str | None = field(default=None, init=False, repr=False, compare=False)

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


def _stem_category(stem: str) -> str | None:
    """The category a stem decides on its own: Ignored, Load, or None."""
    if (
        stem in IGNORED_STEMS
        or _FOF_STEM_RE.match(stem)
        or _WHOLE_REG_LOAD_RE.match(stem)
    ):
        return "Ignored"
    if _LOAD_STEM_RE.match(stem):
        return "Load"
    return None


def _category(d: IntrinsicDef, stem_category: str | None) -> str:
    if stem_category is not None:
        return stem_category
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
    r"(?P<name>__riscv_\w+)\s*\(\s*(?P<params>(?:.*\S)?)\s*\)\s*;?\s*$"
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


def _param_role(name: str, ctype: str, vtype: VectorType | None, indexed: bool) -> str:
    """``indexed``: the stem is an indexed load/store, whose unsigned vector
    operand is the index vector."""
    if "*" in ctype:
        return "memory-address"
    if vtype is not None:
        if vtype.is_bool and name in ("vm", "v0", "mask"):
            return "mask"
        if not vtype.is_bool and vtype.kind == "uint" and indexed:
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


class ParseMemo:
    """What the prototypes of one listing share, each parsed once.

    ``params`` maps (parameter-list text, stem is an indexed load/store) to
    the parsed parameters and ``pieces`` does the same for one parameter;
    ``stems`` maps a stem to its stem-only category and whether it is an
    indexed load/store.  A listing's tens of thousands of prototypes share
    a few thousand parameter lists, about a thousand parameters and a few
    hundred stems.  One memo serves one pass over a listing and goes with
    it, so nothing it holds outlives that listing.
    """

    __slots__ = ("params", "pieces", "stems")

    def __init__(self) -> None:
        self.params: dict[tuple[str, bool], tuple[Param, ...]] = {}
        self.pieces: dict[tuple[str, bool], Param] = {}
        self.stems: dict[str, tuple[str | None, bool]] = {}

    def parse_params(self, raw: str, indexed: bool, lineno: int | None) -> tuple[Param, ...]:
        params = self.params.get((raw, indexed))
        if params is None:
            if not raw or raw == "void":
                params = ()
            else:
                params = tuple(self._param(piece.strip(), indexed, lineno)
                               for piece in raw.split(","))
            self.params[raw, indexed] = params
        return params

    def _param(self, piece: str, indexed: bool, lineno: int | None) -> Param:
        param = self.pieces.get((piece, indexed))
        if param is None:
            pm = _PARAM_RE.match(piece)
            if not pm:
                raise ParseError(f"malformed parameter {piece!r}", lineno)
            ctype = " ".join(pm.group("ctype").replace("*", " * ").split())
            pname = pm.group("name")
            vtype = _vtype_of_ctype(ctype)
            param = self.pieces[piece, indexed] = Param(
                pname, ctype, vtype, _param_role(pname, ctype, vtype, indexed))
        return param


def parse_prototype(line: str, lineno: int | None = None,
                    memo: ParseMemo | None = None) -> IntrinsicDef:
    """Parse one prototype; pass one ``memo`` to every line of a listing."""
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
    if ("f8" in name and any(tok.startswith("f8") for tok in parts.type_tokens)
            or "vfloat8" in line):
        raise ParseError(f"8-bit float vector types are not supported: {name}", lineno)

    if memo is None:
        memo = ParseMemo()
    stem = parts.mnemonic.split("_", 1)[0]
    facts = memo.stems.get(stem)
    if facts is None:
        facts = memo.stems[stem] = (
            _stem_category(stem),
            _INDEXED_MEM_RE.match(stem) is not None,
        )
    stem_category, indexed = facts
    params = memo.parse_params(m.group("params"), indexed, lineno)

    d = IntrinsicDef(name, parts, ret_ctype, ret_vtype, params)
    d.category = _category(d, stem_category)
    return d


def parse_definitions(listing: str) -> list[IntrinsicDef]:
    """Parse a prototype listing into merged intrinsic records."""
    defs: dict[str, IntrinsicDef] = {}
    memo = ParseMemo()
    seen_any = False
    for lineno, line in enumerate(listing.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("//", "#")):
            continue
        seen_any = True
        d = parse_prototype(stripped, lineno, memo)
        if d.full_name in defs:
            defs[d.full_name].alias_count += 1
        else:
            defs[d.full_name] = d
    if not seen_any:
        raise ParseError("empty listing")
    return list(defs.values())

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
# grammar is finite, so it is spelled out once, and each token maps to
# itself: a name piece costs one dict lookup, which also hands out the one
# string every name shares for that token.  Like the regex it replaces, it
# admits more than the legal types (mf1, f8).
_SEW_TOKENS = ("8", "16", "32", "64")
_LMUL_GRAMMAR = tuple(f"m{f}{n}" for f in ("", "f") for n in "1248")
_VTYPE_TOKENS = {tok: tok for tok in (
    [f"{k}{s}{m}{x}" for k in "iuf" for s in _SEW_TOKENS for m in _LMUL_GRAMMAR
     for x in ("", *(f"x{nf}" for nf in range(2, 9)))]
    + [f"e{s}{m}" for s in _SEW_TOKENS for m in _LMUL_GRAMMAR]
    + [f"b{r}" for r in (1, 2, 4, 8, 16, 32, 64)]
    + [f"{k}{s}" for k in "iuf" for s in _SEW_TOKENS]
)}

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
    return NameParts(PREFIX, *_split_name(full_name))


def _split_name(full_name: str) -> tuple[str, tuple[str, ...], str]:
    """``decode_name``'s mnemonic, type tokens and suffix, unwrapped."""
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
        return "_".join(pieces), (), "_".join(suffix)

    tokens = []
    for piece in pieces[first_type:]:
        tok = _VTYPE_TOKENS.get(piece)
        if tok is None:
            break
        tokens.append(tok)
    rest = pieces[first_type + len(tokens):]
    if rest:
        # allowed: an optional rounding marker, then an optional policy
        i = 1 if rest[0] == ROUND_TOKEN else 0
        if i < len(rest) and rest[i] in POLICY_TOKENS:
            i += 1
        if i < len(rest):
            raise DecodeError(f"unknown suffix token {rest[i]!r} in {full_name!r}")
    if not first_type:
        raise DecodeError(f"{full_name!r} has no mnemonic")
    return "_".join(pieces[:first_type]), tuple(tokens), "_".join(rest)


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
    # derived from name_parts once per listing (ParseMemo): the generator
    # reads them per operand.  ``policy`` is the mask/tail policy token
    # alone, without any rounding marker.
    stem: str = field(repr=False, compare=False)
    policy: str = field(repr=False, compare=False)
    category: str = "Operation"
    alias_count: int = 1
    # semantics.semantic_class fills it on first use, not at parse time
    sem_class: str | None = field(default=None, init=False, repr=False, compare=False)

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


def _category(full_name: str, ret_ctype: str, stem_category: str | None) -> str:
    if stem_category is not None:
        return stem_category
    if ret_ctype == "void" and full_name.startswith(PREFIX + "vs"):
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
    the parsed parameters and ``pieces`` does the same for one parameter.
    ``mnemonics`` maps a mnemonic to (the mnemonic, its stem, the stem's
    stem-only category, whether the stem is an indexed load/store), and
    ``stems`` maps a stem to the last three.  ``suffixes`` maps a name
    suffix to (the suffix, its policy token), ``rets`` maps a return type's
    raw text to (its C type, its vector type), and ``tokens`` maps a
    type-token tuple to itself.  The 26,635 prototypes of the built-in
    catalog share 7,292 parameter lists, 1,441 parameters, 1,423 type-token
    tuples, 622 mnemonics, 483 stems and 307 return types, and every record
    holds the one shared object of each.  One memo serves one pass over a
    listing and goes with it; the shared values live on in the records.
    """

    __slots__ = ("params", "pieces", "mnemonics", "stems", "suffixes", "rets", "tokens")

    def __init__(self) -> None:
        self.params: dict[tuple[str, bool], tuple[Param, ...]] = {}
        self.pieces: dict[tuple[str, bool], Param] = {}
        self.mnemonics: dict[str, tuple[str, str, str | None, bool]] = {}
        self.stems: dict[str, tuple[str, str | None, bool]] = {}
        self.suffixes: dict[str, tuple[str, str]] = {}
        self.rets: dict[str, tuple[str, VectorType | None]] = {}
        self.tokens: dict[tuple[str, ...], tuple[str, ...]] = {}

    def mnemonic(self, mnemonic: str) -> tuple[str, str, str | None, bool]:
        facts = self.mnemonics.get(mnemonic)
        if facts is None:
            stem = mnemonic.split("_", 1)[0]
            stem_facts = self.stems.get(stem)
            if stem_facts is None:
                stem_facts = self.stems[stem] = (
                    stem, _stem_category(stem), _INDEXED_MEM_RE.match(stem) is not None)
            facts = self.mnemonics[mnemonic] = (mnemonic, *stem_facts)
        return facts

    def suffix(self, suffix: str) -> tuple[str, str]:
        facts = self.suffixes.get(suffix)
        if facts is None:
            # the mask/tail policy token alone, without any rounding marker
            last = suffix.split("_")[-1]
            facts = self.suffixes[suffix] = (suffix, last if last in POLICY_TOKENS else "")
        return facts

    def ret(self, raw: str) -> tuple[str, VectorType | None]:
        facts = self.rets.get(raw)
        if facts is None:
            ctype = " ".join(raw.split())
            facts = self.rets[raw] = (ctype, _vtype_of_ctype(ctype))
        return facts

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
        mnemonic, tokens, suffix = _split_name(name)
    except DecodeError as e:
        raise ParseError(str(e), lineno) from None
    if ("f8" in name and any(tok.startswith("f8") for tok in tokens)
            or "vfloat8" in line):
        raise ParseError(f"8-bit float vector types are not supported: {name}", lineno)

    if memo is None:
        memo = ParseMemo()
    mnemonic, stem, stem_category, indexed = memo.mnemonic(mnemonic)
    tokens = memo.tokens.setdefault(tokens, tokens)
    suffix, policy = memo.suffix(suffix)
    ret_ctype, ret_vtype = memo.ret(m.group("ret"))
    params = memo.parse_params(m.group("params"), indexed, lineno)
    return IntrinsicDef(name, NameParts(PREFIX, mnemonic, tokens, suffix),
                        ret_ctype, ret_vtype, params, stem, policy,
                        _category(name, ret_ctype, stem_category))


def iter_lines(text: str, block: int = 1 << 16):
    """``text.splitlines()``, one block of lines at a time, so that a
    listing's lines are never all alive at once.  Each block ends just after
    a newline, so the blocks' lines are exactly the text's."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + block)
        end = len(text) if end < 0 else end + 1
        yield from text[start:end].splitlines()
        start = end


def parse_index(listing: str) -> dict[str, IntrinsicDef]:
    """Parse a prototype listing into merged intrinsic records by name, in
    listing order."""
    defs: dict[str, IntrinsicDef] = {}
    memo = ParseMemo()
    seen_any = False
    for lineno, line in enumerate(iter_lines(listing), start=1):
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
    return defs


def parse_definitions(listing: str) -> list[IntrinsicDef]:
    """Parse a prototype listing into merged intrinsic records."""
    return list(parse_index(listing).values())

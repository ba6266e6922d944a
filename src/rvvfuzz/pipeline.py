"""End-to-end wiring: listing -> candidate pools -> cases -> campaign."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .catalog import build_listing
from .codegen import (
    CaseIR,
    ProgramCase,
    build_case,
    emit_case,
    index_offset_bits,
    mem_kind_choices,
)
from .difftest import CompilerConfig, compare, report, run_case
from .intrinsics import IntrinsicDef, parse_index
from .oracle import OracleUnsupported, evaluate
from .scheduling import MODES
from .selection import SelectionError, ratio_pools
from .types import VectorType


class SelfCheckError(AssertionError):
    """The reference evaluator disagreed with itself: a generator bug."""


@dataclass
class RunConfig:
    listing: str | None = None  # path; None uses the built-in catalog
    vlen: int = 128
    ratio_type: str | None = None
    seq_len: object = 10  # int or (lo, hi)
    data_len: object = 10
    seeds: tuple[int, int] = (0, 0)  # inclusive
    modes: tuple[str, ...] = MODES
    compilers: str | None = None
    out_dir: str = "rvvfuzz-out"
    self_check: bool = False
    coin_bias: float = 0.5

    def seed_range(self) -> range:
        lo, hi = self.seeds
        if hi < lo:
            raise ValueError(f"empty seed range {lo}..{hi}")
        return range(lo, hi + 1)


class Generator:
    """The one way to build cases: owns the parsed definitions, indexed by
    name in ``listed``, the per-ratio candidate pools (all filled at
    construction) and the load/store forms per type and offset width
    (filled on first use)."""

    def __init__(self, listing_text: str, *, seq_len=10, data_len=10,
                 ratio_type: str | None = None, coin_bias: float = 0.5):
        if ratio_type is not None:
            VectorType.from_token(ratio_type)  # a bad token fails before any seed
        self.listing_sha = hashlib.sha256(listing_text.encode()).hexdigest()
        self.listed: dict[str, IntrinsicDef] = parse_index(listing_text)
        self.defs: list[IntrinsicDef] = list(self.listed.values())
        self.seq_len = seq_len
        self.data_len = data_len
        self.ratio_type = ratio_type
        self.coin_bias = coin_bias
        self._pools = ratio_pools(self.defs)
        self._mem_kinds: dict[tuple[str, str, int], list[tuple[str, int | None]]] = {}

    @classmethod
    def from_config(cls, cfg: RunConfig) -> "Generator":
        if cfg.listing:
            text = Path(cfg.listing).read_text(encoding="utf-8")
        else:
            text = build_listing()
        return cls(text, seq_len=cfg.seq_len, data_len=cfg.data_len,
                   ratio_type=cfg.ratio_type, coin_bias=cfg.coin_bias)

    def pool(self, ratio: int) -> list[IntrinsicDef]:
        pool = self._pools.get(ratio)
        if pool is None:
            raise SelectionError(f"ratio {ratio} admits no operation intrinsics")
        return pool

    def mem_kinds(self, op: str, t: VectorType, data_len: int) -> list[tuple[str, int | None]]:
        """``codegen.mem_kind_choices`` over the listed names, worked out once
        per (op, type, offset width): the arguments it depends on."""
        bits = index_offset_bits(t, data_len)
        key = (op, t.token, bits)
        kinds = self._mem_kinds.get(key)
        if kinds is None:
            kinds = self._mem_kinds[key] = mem_kind_choices(op, t, bits, self.listed)
        return kinds

    def build(self, seed: int, **overrides) -> CaseIR:
        kw = dict(
            seq_len=self.seq_len,
            data_len=self.data_len,
            ratio_token=self.ratio_type,
            coin_bias=self.coin_bias,
        )
        kw.update(overrides)
        ir = build_case(self.pool, seed, mem_kinds=self.mem_kinds, **kw)
        ir.snapshot["listing_sha256"] = self.listing_sha
        return ir

    def case(self, seed: int, mode: str, **overrides) -> ProgramCase:
        return emit_case(self.build(seed, **overrides), mode)

    def cases(self, seed: int, modes=MODES, **overrides) -> list[ProgramCase]:
        ir = self.build(seed, **overrides)
        return [emit_case(ir, m) for m in modes]


def self_check(cases: list[ProgramCase], vlen: int) -> bool:
    """Evaluator cross-checks for one seed's variants.

    Returns False when the case is outside the evaluator subset (the caller
    then relies on differential testing alone); raises on real divergence.
    """
    try:
        outputs = {c.mode: evaluate(c, vlen=vlen, poison_byte=0x00) for c in cases}
        poisoned = {c.mode: evaluate(c, vlen=vlen, poison_byte=0xFF) for c in cases}
    except OracleUnsupported:
        return False
    if len(set(outputs.values())) != 1:
        raise SelfCheckError(f"seed {cases[0].seed}: variants disagree under evaluation")
    if outputs != poisoned:
        raise SelfCheckError(f"seed {cases[0].seed}: agnostic value reached a print")
    return True


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_CLOEXEC", 0)


def _write_file(path: str, data: bytes) -> None:
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


# The sidecar's snapshot object as ``indent=2`` lays it out one level deep,
# from the C encoder: ``indent`` itself selects json's pure-Python encoder
_encode_snapshot = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": ")).encode


def _sidecar_bytes(case: ProgramCase, source_sha256: str) -> bytes:
    """``json.dumps(meta, indent=2, sort_keys=True) + "\n"`` of the sidecar
    ``meta`` (manifest length, snapshot, source hash), for a non-empty
    snapshot of scalars, as ``build_case`` makes it."""
    snap = _encode_snapshot(case.snapshot)[1:-1]
    return (f'{{\n  "manifest_len": {len(case.manifest)},\n  "snapshot": {{\n    {snap}\n  }},\n'
            f'  "source_sha256": "{source_sha256}"\n}}\n').encode()


def write_case(case: ProgramCase, out_dir: str | Path) -> tuple[str, str]:
    """Write ``<name>.c`` and its ``<name>.json`` sidecar into ``out_dir``,
    creating the directory when it is missing; returns both paths."""
    source = case.source.encode()
    base = os.path.join(out_dir, case.name)
    src, sidecar = base + ".c", base + ".json"
    try:
        _write_file(src, source)
    except FileNotFoundError:
        os.makedirs(out_dir, exist_ok=True)
        _write_file(src, source)
    _write_file(sidecar, _sidecar_bytes(case, hashlib.sha256(source).hexdigest()))
    return src, sidecar


def fuzz_seed(
    gen: Generator,
    seed: int,
    configs: list[CompilerConfig],
    workdir: str | Path,
    modes=MODES,
    vlen: int = 128,
    do_self_check: bool = False,
):
    """Generate all variants of one seed, run the matrix, compare the outputs."""
    cases = gen.cases(seed, modes=modes)
    if do_self_check:
        self_check(cases, vlen)
    outcomes = []
    for case in cases:
        src, _ = write_case(case, workdir)
        outcomes.extend(run_case(case, configs, workdir, src))
    return compare(outcomes), outcomes

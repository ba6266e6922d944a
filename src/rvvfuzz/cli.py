"""Command-line front end: generate, fuzz, coverage, replay, listing."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

from .catalog import build_listing
from .coverage import category_breakdown, compute_coverage, family_of, format_report
from .difftest import (
    HarnessConfigError,
    Verdict,
    check_toolchain,
    compare,
    load_compiler_configs,
    report as write_report,
    run_case,
)
from .intrinsics import ParseError
from .pipeline import Generator, RunConfig, SelfCheckError, fuzz_seed, write_case
from .scheduling import MODES
from .selection import SelectionError
from .types import TypeError_

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_CONFIG = 2


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _parse_len(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return (int(lo), int(hi))
    return int(text)


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        for key, val in data.items():
            if not hasattr(cfg, key):
                raise HarnessConfigError(f"unknown config key {key!r}")
            if key == "seeds":
                val = tuple(val)
            if key in ("seq_len", "data_len") and isinstance(val, list):
                val = tuple(val)
            if key == "modes":
                val = tuple(val)
            setattr(cfg, key, val)
    # flags win over the config file
    if getattr(args, "listing", None):
        cfg.listing = args.listing
    if getattr(args, "seeds", None):
        cfg.seeds = _parse_range(args.seeds)
    if getattr(args, "modes", None):
        cfg.modes = tuple(args.modes.split(","))
    if getattr(args, "seq_len", None):
        cfg.seq_len = _parse_len(args.seq_len)
    if getattr(args, "data_len", None):
        cfg.data_len = _parse_len(args.data_len)
    if getattr(args, "ratio_type", None):
        cfg.ratio_type = args.ratio_type
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "compilers", None):
        cfg.compilers = args.compilers
    if getattr(args, "vlen", None):
        cfg.vlen = args.vlen
    if getattr(args, "self_check", False):
        cfg.self_check = True
    for mode in cfg.modes:
        if mode not in MODES:
            raise HarnessConfigError(f"unknown scheduling mode {mode!r}")
    return cfg


def cmd_listing(args) -> int:
    text = build_listing(policy=args.policy)
    if args.elen < 64:
        # drop prototypes touching elements wider than the machine supports
        from .intrinsics import parse_prototype

        kept = []
        for line in text.splitlines():
            d = parse_prototype(line)
            if all(t.is_bool or t.sew <= args.elen for t in d.vector_types()):
                kept.append(line)
        text = "\n".join(kept) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    gen = Generator.from_config(cfg)
    n = 0
    for seed in cfg.seed_range():
        for case in gen.cases(seed, modes=cfg.modes):
            write_case(case, cfg.out_dir)
            n += 1
    print(f"wrote {n} cases to {cfg.out_dir}")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    cfg = _load_config(args)
    if not cfg.compilers:
        raise HarnessConfigError("fuzz needs a compiler config (--compilers)")
    configs = load_compiler_configs(cfg.compilers)
    check_toolchain(configs)
    gen = Generator.from_config(cfg)

    out_dir = Path(cfg.out_dir)
    seeds = cfg.seed_range()

    def one(seed: int) -> list[Verdict]:
        """The seed's verdicts; its outcomes (stdout, diagnostics) go with
        the call, so a campaign holds no more of them than it runs at once."""
        try:
            return fuzz_seed(
                gen, seed, configs, out_dir / f"seed_{seed}",
                modes=cfg.modes, vlen=cfg.vlen, do_self_check=cfg.self_check,
            )[0]
        except SelfCheckError:
            raise  # a generator bug: stop the campaign
        except Exception as e:
            # one bad seed is a finding, never the end of the campaign
            print(f"seed {seed}: harness error", file=sys.stderr)
            traceback.print_exc()
            return [Verdict(seed, "HarnessError", "", (), f"{type(e).__name__}: {e}")]

    all_verdicts = []
    jobs = max(1, args.jobs)
    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for verdicts in (pool.map if pool else map)(one, seeds):
            all_verdicts.extend(verdicts)

    report_path = Path(args.report) if args.report else out_dir / "report.jsonl"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    with open(report_path, "w", encoding="utf-8") as fh:
        summary = write_report(all_verdicts, fh)
    print(json.dumps(summary, sort_keys=True))
    findings = sum(v for k, v in summary["counts"].items() if k != "Pass")
    return EXIT_FINDINGS if findings else EXIT_OK


def cmd_coverage(args) -> int:
    cfg = _load_config(args)
    gen = Generator.from_config(cfg)
    if args.corpus_dir:
        paths = sorted(Path(args.corpus_dir).glob("*.c"))
        if not paths:
            raise HarnessConfigError(f"no .c files under {args.corpus_dir}")
        corpus = (p.read_text(encoding="utf-8") for p in paths)
    else:
        corpus = (gen.case(seed, cfg.modes[0]).source for seed in cfg.seed_range())
    rep = compute_coverage(corpus, gen.defs)
    breakdown = category_breakdown(rep, gen.defs)
    sys.stdout.write(format_report(rep, breakdown))
    if args.records:
        with open(args.records, "w", encoding="utf-8") as fh:
            for d in gen.defs:
                c, w, contrib = rep.per_intrinsic[d.full_name]
                fh.write(json.dumps({
                    "name": d.full_name, "count": c, "weight": w,
                    "contribution": contrib, "family": family_of(d),
                }, sort_keys=True) + "\n")
            fh.write(json.dumps({"overall": rep.overall,
                                 "corpus_size": rep.corpus_size}, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_replay(args) -> int:
    meta = json.loads(Path(args.case_json).read_text(encoding="utf-8"))
    snap = meta["snapshot"]
    cfg = _load_config(args)
    gen = Generator.from_config(cfg)
    if snap.get("listing_sha256") != gen.listing_sha:
        print("refusing to replay: listing changed since the case was recorded",
              file=sys.stderr)
        return EXIT_CONFIG

    case = gen.case(
        snap["seed"],
        snap["mode"],
        seq_len=snap["seq_len"],
        data_len=snap["data_len"],
        ratio_token=snap["ratio_token"],
        coin_bias=snap.get("coin_bias", 0.5),
    )
    digest = hashlib.sha256(case.source.encode()).hexdigest()
    if digest != meta["source_sha256"]:
        print("replayed source differs from the archived case", file=sys.stderr)
        return EXIT_FINDINGS
    print(f"replayed {case.name}: source is byte-identical")

    if cfg.compilers:
        configs = load_compiler_configs(cfg.compilers)
        check_toolchain(configs)
        workdir = Path(cfg.out_dir) / f"replay_{case.name}"
        src, _ = write_case(case, workdir)
        outcomes = run_case(case, configs, workdir, src)
        verdicts = compare(outcomes)
        for v in verdicts:
            print(json.dumps({
                "seed": v.seed, "classification": v.classification,
                "strategy": v.strategy, "witnesses": list(v.witnesses),
            }, sort_keys=True))
        if any(v.classification != "Pass" for v in verdicts):
            return EXIT_FINDINGS
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rvvfuzz",
        description="Random well-defined RVV intrinsic programs and a "
                    "differential-testing harness over them.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("listing", help="emit the built-in intrinsic listing")
    p.add_argument("--policy", action="store_true",
                   help="include tail/mask policy variants")
    p.add_argument("--elen", type=int, default=64,
                   help="max element width; filters 64-bit types for rv32 targets")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_listing)

    def common(p, compilers=False):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--listing", help="intrinsic listing file (default: built-in)")
        p.add_argument("--seeds", help="seed or inclusive range A..B")
        p.add_argument("--modes", help="comma list of allin,unit,random")
        p.add_argument("--seq-len", dest="seq_len", help="value or range A..B")
        p.add_argument("--data-len", dest="data_len", help="value or range A..B")
        p.add_argument("--ratio-type", dest="ratio_type",
                       help="vector type token fixing the SEW/LMUL ratio")
        p.add_argument("--out", help="output directory")
        if compilers:
            p.add_argument("--compilers", help="compiler config JSON")
            p.add_argument("--vlen", type=int, help="VLEN for oracle self-checks")

    p = sub.add_parser("generate", help="emit program cases and sidecars")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fuzz", help="generate, compile, run and compare")
    common(p, compilers=True)
    p.add_argument("--report", help="verdict report path (JSON lines)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--self-check", dest="self_check", action="store_true",
                   help="cross-check variants with the reference evaluator")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("coverage", help="intrinsic-coverage report")
    common(p)
    p.add_argument("--corpus-dir", help="measure existing .c files instead")
    p.add_argument("--records", help="write per-intrinsic records here")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("replay", help="regenerate a case from its sidecar")
    p.add_argument("case_json", help="sidecar file written by generate/fuzz")
    common(p, compilers=True)
    p.set_defaults(func=cmd_replay)

    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HarnessConfigError, SelectionError, ParseError, TypeError_,
            FileNotFoundError, ValueError) as e:
        # a SelfCheckError is deliberately not caught: it means the
        # generator itself is broken and should fail loudly
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

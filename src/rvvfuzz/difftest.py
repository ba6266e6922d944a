"""Compile-and-run orchestration across compilers, opt levels and variants.

Each job is one (compiler, optimization) pair on one program variant.
Command templates are argv lists with ``{src}``, ``{out}``, ``{opt}`` and
``{bin}`` placeholders, so scripted mock toolchains exercise the whole
harness without any RISC-V tools installed.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_CRASH_SIGNATURES = (
    "internal compiler error",
    "PLEASE submit a bug report",
    "Segmentation fault",
    "Assertion",
    "UNREACHABLE executed",
)

# HarnessError: the seed's generation or jobs raised, so nothing was compared
CLASSIFICATIONS = ("Pass", "CompileError", "CompilerCrash", "RuntimeCrash",
                   "WrongResult", "HarnessError")
STRATEGIES = ("cross-compiler", "cross-optimization", "cross-variant")


class HarnessConfigError(ValueError):
    pass


@dataclass
class CompilerConfig:
    label: str
    compile_cmd: list[str]
    opt_levels: list[str]
    run_cmd: list[str] = field(default_factory=list)
    compile_timeout: float = 60.0
    run_timeout: float = 30.0
    crash_signatures: tuple[str, ...] = DEFAULT_CRASH_SIGNATURES

    @classmethod
    def from_dict(cls, d: dict) -> "CompilerConfig":
        # $VARS in command words let environments point at toolchains
        expand = lambda cmd: [os.path.expandvars(w) for w in cmd]
        return cls(
            label=d["label"],
            compile_cmd=expand(list(d["compile_cmd"])),
            opt_levels=list(d.get("opt_levels", ["-O0", "-O3"])),
            run_cmd=expand(list(d.get("run_cmd", []))),
            compile_timeout=float(d.get("compile_timeout", 60.0)),
            run_timeout=float(d.get("run_timeout", 30.0)),
            crash_signatures=tuple(d.get("crash_signatures", DEFAULT_CRASH_SIGNATURES)),
        )


def load_compiler_configs(path: str | Path) -> list[CompilerConfig]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    configs = [CompilerConfig.from_dict(d) for d in data["compilers"]]
    if not configs:
        raise HarnessConfigError("config lists no compilers")
    return configs


def check_toolchain(configs: list[CompilerConfig]) -> None:
    """Fail before any job starts when an executable cannot be resolved."""
    for cfg in configs:
        for cmd in (cfg.compile_cmd, cfg.run_cmd):
            if not cmd:
                continue
            exe = cmd[0]
            if os.path.sep in exe:
                if not (os.path.isfile(exe) and os.access(exe, os.X_OK)):
                    raise HarnessConfigError(f"{cfg.label}: {exe} is not executable")
            elif shutil.which(exe) is None:
                raise HarnessConfigError(f"{cfg.label}: {exe} not found on PATH")


@dataclass
class RunOutcome:
    seed: int
    mode: str
    compiler: str
    opt: str
    compile_status: str  # ok | error | crash | timeout
    run_status: str  # ok | crash | timeout | n/a
    stdout: str = ""
    diagnostics: str = ""

    @property
    def key(self) -> tuple:
        return (self.seed, self.mode, self.compiler, self.opt)


@dataclass
class Verdict:
    seed: int
    classification: str
    strategy: str  # one of STRATEGIES, or "" for Pass/CompileError
    witnesses: tuple[str, ...]  # "compiler:opt:mode" labels
    detail: str = ""  # the exception behind a HarnessError

    @property
    def signature(self) -> str:
        return "|".join((self.classification, self.strategy) + tuple(sorted(self.witnesses)))


def _fill(template: list[str], **subs) -> list[str]:
    return [t.format(**subs) for t in template]


def _run(cmd: list[str], timeout: float):
    """(returncode or None on timeout, stdout, stderr, timed out) as bytes;
    any output, even partial or not UTF-8, is kept.

    The job leads its own process group; on a timeout (or an interrupt) the
    whole group is killed, so no grandchild outlives the job.
    """
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
            return proc.returncode, out, err, False
        except subprocess.TimeoutExpired as e:
            _kill_group(proc.pid)
            proc.wait()
            return None, e.stdout or b"", e.stderr or b"", True
        except BaseException:
            _kill_group(proc.pid)
            raise


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stdout(b: bytes) -> str:
    # lossless, so distinct outputs still compare unequal
    return b.decode("utf-8", errors="surrogateescape")


def _diag(b: bytes) -> str:
    return b.decode("utf-8", errors="replace").strip()


def run_case(case, configs: list[CompilerConfig], workdir: str | Path,
             src: str | Path | None = None) -> list[RunOutcome]:
    """One outcome per (config, opt level) for one program variant.

    ``src`` is the source file ``pipeline.write_case`` wrote; without it the
    source is written into ``workdir``.  Callers run ``check_toolchain`` once
    before the first job.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if src is None:
        src = workdir / f"{case.name}.c"
        src.write_text(case.source, encoding="utf-8")

    outcomes: list[RunOutcome] = []
    for cfg in configs:
        for opt in cfg.opt_levels:
            binary = workdir / f"{case.name}.{cfg.label}.{opt.lstrip('-')}"
            cmd = _fill(cfg.compile_cmd, src=str(src), out=str(binary), opt=opt)
            rc, out, err, timed_out = _run(cmd, cfg.compile_timeout)
            diag = _diag(out + err)
            if timed_out:
                outcomes.append(RunOutcome(case.seed, case.mode, cfg.label, opt,
                                           "timeout", "n/a", "", diag))
                continue
            crashed = (rc is not None and rc < 0) or any(
                s in diag for s in cfg.crash_signatures
            )
            if rc != 0 or crashed:
                status = "crash" if crashed else "error"
                outcomes.append(RunOutcome(case.seed, case.mode, cfg.label, opt,
                                           status, "n/a", "", diag))
                continue

            run_cmd = _fill(cfg.run_cmd, bin=str(binary)) if cfg.run_cmd else [str(binary)]
            rc, out, err, timed_out = _run(run_cmd, cfg.run_timeout)
            if timed_out:
                outcomes.append(RunOutcome(case.seed, case.mode, cfg.label, opt,
                                           "ok", "timeout", "", _diag(err)))
            elif rc != 0:
                outcomes.append(RunOutcome(case.seed, case.mode, cfg.label, opt,
                                           "ok", "crash", _stdout(out), _diag(err)))
            else:
                outcomes.append(RunOutcome(case.seed, case.mode, cfg.label, opt,
                                           "ok", "ok", _stdout(out), ""))
    return outcomes


def _wit(o: RunOutcome) -> str:
    return f"{o.compiler}:{o.opt}:{o.mode}"


def _strategy(a: RunOutcome, b: RunOutcome) -> str | None:
    if a.opt == b.opt and a.mode == b.mode and a.compiler != b.compiler:
        return "cross-compiler"
    if a.compiler == b.compiler and a.mode == b.mode and a.opt != b.opt:
        return "cross-optimization"
    if a.compiler == b.compiler and a.opt == b.opt and a.mode != b.mode:
        return "cross-variant"
    return None


def compare(outcomes: list[RunOutcome]) -> list[Verdict]:
    """Classify one seed group; crashes win over output comparison.

    Verdicts are deterministic and idempotent: outcomes are keyed and
    sorted, so the caller's job ordering never matters.
    """
    by_seed: dict[int, list[RunOutcome]] = {}
    for o in sorted(outcomes, key=lambda o: o.key):
        by_seed.setdefault(o.seed, []).append(o)

    verdicts: list[Verdict] = []
    for seed, group in sorted(by_seed.items()):
        seen: set[str] = set()
        found = []

        def emit(v: Verdict):
            if v.signature not in seen:
                seen.add(v.signature)
                found.append(v)

        healthy = [o for o in group if o.compile_status == "ok" and o.run_status == "ok"]

        for o in group:
            if o.compile_status in ("crash", "timeout"):
                partner = next((h for h in healthy if _strategy(o, h)), None)
                wit = (_wit(o), _wit(partner)) if partner else (_wit(o),)
                strat = _strategy(o, partner) if partner else ""
                emit(Verdict(seed, "CompilerCrash", strat or "", wit))
            elif o.compile_status == "error":
                emit(Verdict(seed, "CompileError", "", (_wit(o),)))
            elif o.run_status in ("crash", "timeout"):
                partner = next((h for h in healthy if _strategy(o, h)), None)
                wit = (_wit(o), _wit(partner)) if partner else (_wit(o),)
                strat = _strategy(o, partner) if partner else ""
                emit(Verdict(seed, "RuntimeCrash", strat or "", wit))

        for i, a in enumerate(healthy):
            for b in healthy[i + 1:]:
                strat = _strategy(a, b)
                if strat and a.stdout != b.stdout:
                    emit(Verdict(seed, "WrongResult", strat, (_wit(a), _wit(b))))

        if not found:
            emit(Verdict(seed, "Pass", "", ()))
        verdicts.extend(found)
    return verdicts


def report(verdicts: list[Verdict], sink) -> dict:
    """Line-delimited verdict records plus aggregate counts."""
    counts = {c: 0 for c in CLASSIFICATIONS}
    signatures: set[str] = set()
    for v in verdicts:
        counts[v.classification] += 1
        signatures.add(v.signature)
        rec = {
            "seed": v.seed,
            "classification": v.classification,
            "strategy": v.strategy,
            "witnesses": list(v.witnesses),
        }
        if v.detail:
            rec["detail"] = v.detail
        sink.write(json.dumps(rec, sort_keys=True) + "\n")
    summary = {"counts": counts, "unique_signatures": len(signatures),
               "total": len(verdicts)}
    sink.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    return summary

"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` and always
appended to ``acceptance_report.txt`` next to this file).
"""

import itertools
import json
import random
import re
import shutil
import stat
import subprocess
from collections import Counter
from pathlib import Path

import pytest

from rvvfuzz.codegen import emit_case, gen_scalar, _is_nan
from rvvfuzz.coverage import CoverageReport, category_breakdown
from rvvfuzz.dataflow import OpInstance, allocate
from rvvfuzz.difftest import CompilerConfig, compare, run_case
from rvvfuzz.oracle import (
    OracleBoundsError,
    evaluate,
    oracle_subset_listing,
)
from rvvfuzz.pipeline import Generator
from rvvfuzz.scheduling import (
    Schedule,
    ScheduleItem,
    build_schedule,
    derive_prefix_suffix,
)
from rvvfuzz.selection import select_sequence

from reference import check_constraints, scan_dependencies

REPORT = Path(__file__).with_name("acceptance_report.txt")


@pytest.fixture(scope="session", autouse=True)
def _truncate_report():
    REPORT.write_text("")
    yield


def _record(name: str, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line)
    with REPORT.open("a") as fh:
        fh.write(line + "\n")
    assert ok, line


@pytest.fixture(scope="module")
def coverage_marks(catalog_gen):
    """Name counts over 10^4 generated cases, sampled at 10^2/10^3/10^4."""
    names = catalog_gen.listed
    weights = {d.full_name: d.alias_count for d in catalog_gen.defs}
    wsum = sum(weights.values())
    counts = Counter()
    marks = {}
    for seed in range(10_000):
        case = emit_case(catalog_gen.build(seed), "allin")
        counts.update(t for t in re.findall(r"__riscv_\w+", case.source) if t in names)
        if seed + 1 in (100, 1_000, 10_000):
            cov = sum(min(counts.get(n, 0), w) for n, w in weights.items()) / wsum
            marks[seed + 1] = cov
    per = {n: (counts.get(n, 0), w, min(counts.get(n, 0), w)) for n, w in weights.items()}
    report = CoverageReport(per, marks[10_000], {}, 10_000)
    return marks, report


def test_criterion_1_coverage_reproduction(coverage_marks, catalog_gen):
    marks, _ = coverage_marks
    ok3 = abs(marks[1_000] - 0.3384) <= 0.10
    ok4 = abs(marks[10_000] - 0.6832) <= 0.10
    _record(
        "criterion-1 coverage reproduction",
        ok3 and ok4,
        f"n=1e3: {marks[1_000]:.2%} (target 33.84%±10pp), "
        f"n=1e4: {marks[10_000]:.2%} (target 68.32%±10pp)",
    )


def test_criterion_2_coverage_ordering(coverage_marks, catalog_gen):
    marks, report = coverage_marks
    ordered = marks[100] < marks[1_000] < marks[10_000]
    breakdown = category_breakdown(report, catalog_gen.defs)
    seg = breakdown["segment load/store"][2]
    minimum = all(seg <= r for fam, (_, _, r) in breakdown.items())
    _record(
        "criterion-2 coverage ordering",
        ordered and minimum,
        f"{marks[100]:.2%} < {marks[1_000]:.2%} < {marks[10_000]:.2%}; "
        f"segment family at {seg:.2%} is the minimum",
    )


def test_criterion_3_scheduling_constraints(catalog_gen):
    checked = 0
    failures = 0
    ratios = (1, 2, 4, 8, 16, 32, 64)
    for seed in range(1_000):
        for n in range(1, 21):
            ratio = ratios[(seed + n) % len(ratios)]
            seq = select_sequence(catalog_gen.pool(ratio), n,
                                  random.Random(f"select:{seed}"))
            ops = allocate([OpInstance(d) for d in seq],
                           random.Random(f"a:{seed}:{n}"))
            P, S = derive_prefix_suffix(ops)
            for mode in ("allin", "unit", "random"):
                sch = build_schedule(P, S, mode, random.Random(f"s:{seed}:{n}:{mode}"))
                checked += 1
                if check_constraints(sch, P, S) is not None:
                    failures += 1

    # small shapes: every random schedule must be in the enumerated legal set
    member_failures = 0
    small_checked = 0
    for n in (1, 2, 3):
        for p_total in range(0, 3):
            for s_total in range(0, 3):
                p_sizes = [0] * n
                s_sizes = [0] * n
                for k in range(p_total):
                    p_sizes[k % n] += 1
                for k in range(s_total):
                    s_sizes[k % n] += 1
                P = [["p"] * x for x in p_sizes]
                S = [["s"] * x for x in s_sizes]
                items = [ScheduleItem("op", i) for i in range(n)]
                items += [ScheduleItem("load", i, k)
                          for i in range(n) for k in range(p_sizes[i])]
                items += [ScheduleItem("store", i, k)
                          for i in range(n) for k in range(s_sizes[i])]
                legal = {
                    perm
                    for perm in itertools.permutations(items)
                    if check_constraints(Schedule(list(perm), "x"), P, S) is None
                }
                for seed in range(60):
                    got = tuple(
                        build_schedule(P, S, "random", random.Random(seed)).items
                    )
                    small_checked += 1
                    if got not in legal:
                        member_failures += 1
    _record(
        "criterion-3 scheduling constraints",
        failures == 0 and member_failures == 0,
        f"{checked} schedules all legal; {small_checked} small random schedules "
        f"all inside the brute-force legal set",
    )


def test_criterion_4_emi_equivalence(subset_gen):
    bad = 0
    for seed in range(500):
        ir = subset_gen.build(seed)
        cases = [emit_case(ir, m) for m in ("allin", "unit", "random")]
        for vlen in (128, 256):
            outs = {evaluate(c, vlen=vlen) for c in cases}
            if len(outs) != 1:
                bad += 1
    _record(
        "criterion-4 scheduling-variant equivalence",
        bad == 0,
        f"500 seeds x 3 variants x VLEN {{128,256}}: {bad} divergences",
    )


def test_criterion_5_well_definedness(subset_gen):
    diffs = 0
    oob = 0
    for seed in range(500):
        case = emit_case(subset_gen.build(seed), "random")
        try:
            a = evaluate(case, vlen=128, poison_byte=0x00)
            b = evaluate(case, vlen=128, poison_byte=0xFF)
        except OracleBoundsError:
            oob += 1
            continue
        if a != b:
            diffs += 1
    _record(
        "criterion-5 well-definedness",
        diffs == 0 and oob == 0,
        f"two-poison over 500 seeds: {diffs} leaks, {oob} out-of-bounds accesses",
    )


def test_criterion_6_data_generation_ranges():
    rng = random.Random(2024)
    bad = 0
    pairs = [("bool", 1)] + [(k, w) for k in ("int", "uint") for w in (8, 16, 32, 64)]
    for kind, width in pairs:
        lo = -(1 << (width - 1)) if kind == "int" else 0
        hi = (1 << (width - 1)) - 1 if kind == "int" else (1 << width) - 1
        if kind == "bool":
            lo, hi = 0, 1
        for _ in range(100_000):
            v = gen_scalar(kind, width, rng)
            if not lo <= v.value <= hi:
                bad += 1
    nans = 0
    for width in (16, 32, 64):
        for _ in range(100_000):
            v = gen_scalar("float", width, rng)
            if _is_nan(v.bits, width):
                nans += 1
    # emitted initializers carry no NaN either
    gen = Generator(oracle_subset_listing(), seq_len=4, data_len=8)
    init_nans = 0
    for seed in range(200):
        ir = gen.build(seed)
        for arr in ir.arrays:
            if arr.values and arr.vtype.kind == "float":
                init_nans += sum(_is_nan(v.bits, v.width) for v in arr.values)
    _record(
        "criterion-6 data generation ranges",
        bad == 0 and nans == 0 and init_nans == 0,
        f"1e5 draws per pair: {bad} out of range, {nans} NaN draws, "
        f"{init_nans} NaN initializers",
    )


def test_criterion_7_dependency_scenarios(catalog_gen):
    want = {"read-read", "read-write", "write-read", "write-write"}
    found = set()
    for seed in range(10_000):
        seq = select_sequence(catalog_gen.pool(8), 10, random.Random(f"select:{seed}"))
        ops = allocate([OpInstance(d) for d in seq], random.Random(f"d:{seed}"))
        found |= scan_dependencies(ops)
        if found >= want:
            break
    _record(
        "criterion-7 dependency scenarios",
        found >= want,
        f"observed {sorted(found & want)}",
    )


def _mock(tmp, name, body):
    p = tmp / name
    p.write_text("#!/bin/sh\n" + body)
    p.chmod(p.stat().st_mode | stat.S_IXUSR)
    return str(p)


class _Stub:
    def __init__(self, seed, mode):
        self.seed, self.mode = seed, mode
        self.source = "int main(void){return 0;}\n"

    @property
    def name(self):
        return f"case_{self.seed}_{self.mode}"


def test_criterion_8_harness_with_mocks(tmp_path):
    produce = 'printf \'#!/bin/sh\\necho %s\\n\' "{m}" > "$2"\nchmod +x "$2"\n'
    fixed = _mock(tmp_path, "fixed.sh", produce.format(m="X"))
    fixed_y = _mock(tmp_path, "y.sh", produce.format(m="Y"))
    opt_echo = _mock(tmp_path, "opt.sh",
                     'printf \'#!/bin/sh\\necho %s\\n\' "$3" > "$2"\nchmod +x "$2"\n')
    mode_echo = _mock(
        tmp_path, "mode.sh",
        'base=$(basename "$1" .c)\nmode=${base##*_}\n'
        'printf \'#!/bin/sh\\necho %s\\n\' "$mode" > "$2"\nchmod +x "$2"\n')
    ice = _mock(tmp_path, "ice.sh",
                'echo "internal compiler error: unrecognizable insn" >&2\nexit 1\n')
    cerr = _mock(tmp_path, "err.sh", 'echo "error: unknown builtin" >&2\nexit 1\n')
    rt = _mock(tmp_path, "rt.sh",
               'printf \'#!/bin/sh\\nexit 139\\n\' > "$2"\nchmod +x "$2"\n')
    rt_opt = _mock(
        tmp_path, "rtopt.sh",
        'if [ "$3" = "-O3" ]; then printf \'#!/bin/sh\\nexit 139\\n\' > "$2"; '
        'else printf \'#!/bin/sh\\necho X\\n\' > "$2"; fi\nchmod +x "$2"\n')

    def cfg(label, script, opts=("-O0",)):
        return CompilerConfig(label, [script, "{src}", "{out}", "{opt}"], list(opts))

    wd = tmp_path / "wd"
    got = {}

    outs = run_case(_Stub(1, "allin"), [cfg("a", fixed), cfg("b", fixed)], wd)
    got["Pass"] = compare(outs)

    outs = run_case(_Stub(2, "allin"), [cfg("a", fixed), cfg("b", fixed_y)], wd)
    got[("WrongResult", "cross-compiler")] = compare(outs)

    outs = run_case(_Stub(3, "allin"), [cfg("a", opt_echo, ("-O0", "-O3"))], wd)
    got[("WrongResult", "cross-optimization")] = compare(outs)

    outs = []
    for mode in ("allin", "unit"):
        outs += run_case(_Stub(4, mode), [cfg("a", mode_echo)], wd)
    got[("WrongResult", "cross-variant")] = compare(outs)

    outs = run_case(_Stub(5, "allin"), [cfg("a", ice), cfg("b", fixed)], wd)
    got[("CompilerCrash", "cross-compiler")] = compare(outs)

    outs = run_case(_Stub(6, "allin"), [cfg("a", cerr)], wd)
    got["CompileError"] = compare(outs)

    outs = run_case(_Stub(7, "allin"), [cfg("a", rt), cfg("b", fixed)], wd)
    got[("RuntimeCrash", "cross-compiler")] = compare(outs)

    outs = run_case(_Stub(8, "allin"), [cfg("a", rt_opt, ("-O0", "-O3"))], wd)
    got[("RuntimeCrash", "cross-optimization")] = compare(outs)

    outs = run_case(_Stub(9, "allin"), [cfg("a", fixed)], wd)
    outs += run_case(_Stub(9, "unit"), [cfg("a", rt)], wd)
    got[("RuntimeCrash", "cross-variant")] = compare(outs)

    problems = []
    for key, verdicts in got.items():
        if key == "Pass":
            if [v.classification for v in verdicts] != ["Pass"]:
                problems.append(f"{key}: {verdicts}")
        elif key == "CompileError":
            if not any(v.classification == "CompileError" for v in verdicts):
                problems.append(f"{key}: {verdicts}")
        else:
            cls, strat = key
            if not any(v.classification == cls and v.strategy == strat
                       for v in verdicts):
                problems.append(f"{key}: {verdicts}")
    # idempotence on re-compare
    outs = run_case(_Stub(3, "allin"), [cfg("a", opt_echo, ("-O0", "-O3"))], wd)
    if compare(outs) != compare(list(reversed(outs))):
        problems.append("compare not idempotent")
    _record(
        "criterion-8 harness with mock toolchains",
        not problems,
        "all classification+strategy pairs observed, compare idempotent"
        if not problems else "; ".join(problems),
    )


def test_criterion_9_determinism(catalog_listing, tmp_path):
    gen_a = Generator(catalog_listing, seq_len=(1, 20), data_len=(1, 50))
    gen_b = Generator(catalog_listing, seq_len=(1, 20), data_len=(1, 50))
    mismatches = 0
    for seed in range(20):
        for mode in ("allin", "unit", "random"):
            a = emit_case(gen_a.build(seed), mode)
            b = emit_case(gen_b.build(seed), mode)
            if a.source.encode() != b.source.encode():
                mismatches += 1

    fixed = _mock(tmp_path, "det.sh",
                  'printf \'#!/bin/sh\\necho X\\n\' > "$2"\nchmod +x "$2"\n')
    cfg = CompilerConfig("cc", [fixed, "{src}", "{out}", "{opt}"], ["-O0"])
    from io import StringIO

    from rvvfuzz.difftest import report as write_report

    reports = []
    for run in range(2):
        verdicts = []
        for seed in range(3):
            case = emit_case(gen_a.build(seed), "allin")
            verdicts += compare(run_case(case, [cfg], tmp_path / f"det{run}"))
        sink = StringIO()
        write_report(verdicts, sink)
        reports.append(sink.getvalue())
    report_ok = reports[0] == reports[1]
    _record(
        "criterion-9 determinism",
        mismatches == 0 and report_ok,
        f"{20 * 3} sources byte-identical across runs; reports byte-identical",
    )


def _find_riscv_toolchain():
    for cc in ("riscv64-linux-gnu-gcc", "riscv64-unknown-linux-gnu-gcc",
               "riscv64-unknown-elf-gcc", "clang"):
        path = shutil.which(cc)
        if path is None:
            continue
        if cc == "clang":
            probe = subprocess.run(
                [path, "-target", "riscv64-unknown-linux-gnu", "--version"],
                capture_output=True,
            )
            if probe.returncode != 0:
                continue
        runner = shutil.which("qemu-riscv64") or shutil.which("qemu-riscv64-static")
        if runner:
            return cc, runner
    return None


def test_criterion_10_integration_tier(subset_gen, tmp_path):
    tc = _find_riscv_toolchain()
    if tc is None:
        line = "SKIP  criterion-10 integration tier: no RISC-V toolchain + emulator"
        print(line)
        with REPORT.open("a") as fh:
            fh.write(line + "\n")
        pytest.skip("no RISC-V toolchain available")
    cc, runner = tc
    bad = 0
    for seed in range(5):
        case = emit_case(subset_gen.build(seed), "unit")
        src = tmp_path / f"{case.name}.c"
        src.write_text(case.source)
        expected = evaluate(case, vlen=128)
        for opt in ("-O0", "-O3"):
            binary = tmp_path / f"{case.name}{opt}"
            compile_cmd = [cc, "-march=rv64gcv_zvfh", "-mabi=lp64d",
                           "-Wno-psabi", "-static", opt, str(src), "-o", str(binary)]
            r = subprocess.run(compile_cmd, capture_output=True, text=True)
            if r.returncode != 0 or r.stderr.strip():
                bad += 1
                continue
            out = subprocess.run([runner, "-cpu", "rv64,v=true,vlen=128", str(binary)],
                                 capture_output=True, text=True)
            if out.stdout != expected:
                bad += 1
    _record("criterion-10 integration tier", bad == 0,
            f"toolchain {cc}: {bad} mismatches")

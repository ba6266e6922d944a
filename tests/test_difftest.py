import json
import os
import signal
import stat
import time
from dataclasses import dataclass
from io import StringIO

import pytest

from rvvfuzz.difftest import (
    CompilerConfig,
    HarnessConfigError,
    RunOutcome,
    check_toolchain,
    compare,
    load_compiler_configs,
    report,
    run_case,
)


@dataclass
class StubCase:
    seed: int
    mode: str
    source: str = "int main(void){return 0;}\n"

    @property
    def name(self):
        return f"case_{self.seed}_{self.mode}"


def _script(path, body):
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


@pytest.fixture
def mocks(tmp_path):
    produce = 'printf \'#!/bin/sh\\necho %s\\n\' "{msg}" > "$2"\nchmod +x "$2"\n'
    return {
        "fixed": _script(tmp_path / "cc_fixed.sh", produce.format(msg="X")),
        "fixed_y": _script(tmp_path / "cc_y.sh", produce.format(msg="Y")),
        "opt_echo": _script(
            tmp_path / "cc_opt.sh",
            'printf \'#!/bin/sh\\necho %s\\n\' "$3" > "$2"\nchmod +x "$2"\n',
        ),
        "mode_echo": _script(
            tmp_path / "cc_mode.sh",
            'base=$(basename "$1" .c)\nmode=${base##*_}\n'
            'printf \'#!/bin/sh\\necho %s\\n\' "$mode" > "$2"\nchmod +x "$2"\n',
        ),
        "ice": _script(
            tmp_path / "cc_ice.sh",
            'echo "internal compiler error: in extract_insn" >&2\nexit 1\n',
        ),
        "error": _script(
            tmp_path / "cc_err.sh", 'echo "error: unknown builtin" >&2\nexit 1\n'
        ),
        "rt_crash": _script(
            tmp_path / "cc_rt.sh",
            'printf \'#!/bin/sh\\nexit 139\\n\' > "$2"\nchmod +x "$2"\n',
        ),
        "dir": tmp_path,
    }


def _cfg(label, script, opts=("-O0", "-O3")):
    return CompilerConfig(label, [script, "{src}", "{out}", "{opt}"], list(opts))


def test_all_ok_all_pass(mocks):
    cfg = _cfg("cc", mocks["fixed"])
    outs = run_case(StubCase(1, "allin"), [cfg], mocks["dir"] / "w1")
    assert len(outs) == 2
    assert all(o.compile_status == "ok" and o.run_status == "ok" for o in outs)
    assert all(o.stdout == "X\n" for o in outs)
    verdicts = compare(outs)
    assert [v.classification for v in verdicts] == ["Pass"]


def test_completeness_one_outcome_per_config_opt(mocks):
    cfgs = [
        _cfg("a", mocks["fixed"], opts=("-O0", "-O1", "-O2")),
        _cfg("b", mocks["fixed"], opts=("-O0",)),
    ]
    outs = run_case(StubCase(2, "unit"), cfgs, mocks["dir"] / "w2")
    keys = {(o.compiler, o.opt) for o in outs}
    assert keys == {("a", "-O0"), ("a", "-O1"), ("a", "-O2"), ("b", "-O0")}
    assert len(outs) == 4


def test_cross_optimization_wrong_result(mocks):
    cfg = _cfg("gcc", mocks["opt_echo"])
    outs = run_case(StubCase(3, "allin"), [cfg], mocks["dir"] / "w3")
    verdicts = compare(outs)
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v.classification == "WrongResult"
    assert v.strategy == "cross-optimization"
    assert set(v.witnesses) == {"gcc:-O0:allin", "gcc:-O3:allin"}


def test_cross_compiler_wrong_result(mocks):
    outs = []
    for label, script in (("gcc", mocks["fixed"]), ("llvm", mocks["fixed_y"])):
        outs += run_case(StubCase(4, "unit"), [_cfg(label, script, opts=("-O2",))],
                         mocks["dir"] / "w4")
    verdicts = compare(outs)
    assert [v.classification for v in verdicts] == ["WrongResult"]
    assert verdicts[0].strategy == "cross-compiler"


def test_cross_variant_runtime_crash(mocks):
    ok = run_case(StubCase(5, "allin"), [_cfg("cc", mocks["fixed"], opts=("-O0",))],
                  mocks["dir"] / "w5")
    bad = run_case(StubCase(5, "unit"), [_cfg("cc", mocks["rt_crash"], opts=("-O0",))],
                   mocks["dir"] / "w5")
    assert bad[0].run_status == "crash"
    verdicts = compare(ok + bad)
    assert [v.classification for v in verdicts] == ["RuntimeCrash"]
    assert verdicts[0].strategy == "cross-variant"
    assert "cc:-O0:unit" in verdicts[0].witnesses


def test_cross_variant_wrong_result(mocks):
    cfg = _cfg("cc", mocks["mode_echo"], opts=("-O1",))
    outs = []
    for mode in ("allin", "unit", "random"):
        outs += run_case(StubCase(6, mode), [cfg], mocks["dir"] / "w6")
    verdicts = compare(outs)
    assert {v.classification for v in verdicts} == {"WrongResult"}
    assert {v.strategy for v in verdicts} == {"cross-variant"}
    assert len(verdicts) == 3  # three disagreeing pairs


def test_compiler_crash_detected_by_signature(mocks):
    outs = run_case(StubCase(7, "allin"), [_cfg("gcc", mocks["ice"], opts=("-O2",))],
                    mocks["dir"] / "w7")
    assert outs[0].compile_status == "crash"
    assert "internal compiler error" in outs[0].diagnostics
    verdicts = compare(outs)
    assert [v.classification for v in verdicts] == ["CompilerCrash"]


def test_compile_error_excluded_from_wrong_result(mocks):
    outs = run_case(StubCase(8, "allin"), [_cfg("old", mocks["error"], opts=("-O0",))],
                    mocks["dir"] / "w8")
    outs += run_case(StubCase(8, "allin"), [_cfg("new", mocks["fixed"], opts=("-O0",))],
                     mocks["dir"] / "w8")
    verdicts = compare(outs)
    assert [v.classification for v in verdicts] == ["CompileError"]


def test_idempotent_compare(mocks):
    cfg = _cfg("gcc", mocks["opt_echo"])
    outs = run_case(StubCase(9, "unit"), [cfg], mocks["dir"] / "w9")
    a = compare(outs)
    b = compare(list(reversed(outs)))
    assert a == b
    assert compare(outs) == a


def test_missing_executable_is_config_error(tmp_path):
    cfg = CompilerConfig("ghost", [str(tmp_path / "nope"), "{src}"], ["-O0"])
    with pytest.raises(HarnessConfigError):
        check_toolchain([cfg])
    cfg2 = CompilerConfig("ghost2", ["definitely-not-a-real-cc", "{src}"], ["-O0"])
    with pytest.raises(HarnessConfigError):
        check_toolchain([cfg2])


def test_compile_timeout_classified(mocks, tmp_path):
    slow = _script(tmp_path / "cc_slow.sh", "sleep 5\n")
    cfg = CompilerConfig("slow", [slow, "{src}", "{out}", "{opt}"], ["-O0"],
                         compile_timeout=0.2)
    outs = run_case(StubCase(10, "allin"), [cfg], mocks["dir"] / "w10")
    assert outs[0].compile_status == "timeout"
    verdicts = compare(outs)
    assert verdicts[0].classification == "CompilerCrash"


def test_compile_timeout_with_partial_output(mocks, tmp_path):
    # the timed-out compiler's partial stdout arrives as bytes
    slow = _script(tmp_path / "cc_partial.sh", "printf 'partial diag'\nexec sleep 5\n")
    cfg = CompilerConfig("slow", [slow, "{src}", "{out}", "{opt}"], ["-O0"],
                         compile_timeout=0.5)
    outs = run_case(StubCase(13, "allin"), [cfg], mocks["dir"] / "w13")
    assert outs[0].compile_status == "timeout"
    assert "partial diag" in outs[0].diagnostics


def _alive(pid: int) -> bool:
    """Whether pid is a running process (a zombie awaiting its reaper counts
    as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def test_compile_timeout_kills_grandchild(mocks, tmp_path):
    # the compiler forks exactly one sleeping grandchild, then hangs
    pidfile = tmp_path / "grandchild.pid"
    slow = _script(tmp_path / "cc_forks.sh",
                   f'sleep 30 &\necho $! > "{pidfile}"\nwait\n')
    cfg = CompilerConfig("slow", [slow, "{src}", "{out}", "{opt}"], ["-O0"],
                         compile_timeout=1.0)
    outs = run_case(StubCase(15, "allin"), [cfg], mocks["dir"] / "w15")
    assert outs[0].compile_status == "timeout"
    pid = int(pidfile.read_text())
    try:
        deadline = time.monotonic() + 5
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(pid), "the timed-out compiler's grandchild survived"
    finally:
        if _alive(pid):
            os.kill(pid, signal.SIGKILL)


def test_non_utf8_stdout_compared_losslessly(mocks, tmp_path):
    def emits(name, octal):
        binary = _script(tmp_path / f"{name}.bin", f"printf '{octal}'\n")
        return _script(tmp_path / f"{name}.sh", f'cp "{binary}" "$2"\n')

    cfgs = [_cfg("a", emits("cc_fffe", "\\377\\376"), opts=("-O0",)),
            _cfg("b", emits("cc_fffd", "\\377\\375"), opts=("-O0",))]
    outs = run_case(StubCase(14, "allin"), cfgs, mocks["dir"] / "w14")
    by_label = {o.compiler: o for o in outs}
    assert [(o.compile_status, o.run_status) for o in outs] == [("ok", "ok")] * 2
    assert isinstance(by_label["a"].stdout, str)
    assert by_label["a"].stdout.encode("utf-8", "surrogateescape") == b"\xff\xfe"
    verdicts = compare(outs)
    assert [(v.classification, v.strategy) for v in verdicts] == [
        ("WrongResult", "cross-compiler")]


def test_run_case_uses_given_source(mocks, tmp_path):
    src = tmp_path / "written.c"
    src.write_text("int main(void){return 0;}\n")
    cfg = _cfg("cc", mocks["fixed"], opts=("-O0",))
    outs = run_case(StubCase(15, "allin"), [cfg], mocks["dir"] / "w15", src)
    assert outs[0].run_status == "ok"
    assert not (mocks["dir"] / "w15" / "case_15_allin.c").exists()


def test_job_isolation(mocks, tmp_path):
    # a hanging compiler never poisons the other config's outcome
    slow = _script(tmp_path / "cc_hang.sh", "sleep 5\n")
    cfgs = [
        CompilerConfig("hang", [slow, "{src}", "{out}", "{opt}"], ["-O0"],
                       compile_timeout=0.2),
        _cfg("good", mocks["fixed"], opts=("-O0",)),
    ]
    outs = run_case(StubCase(12, "allin"), cfgs, mocks["dir"] / "w12")
    by_label = {o.compiler: o for o in outs}
    assert by_label["hang"].compile_status == "timeout"
    assert by_label["good"].compile_status == "ok"
    assert by_label["good"].run_status == "ok"


def test_report_records_and_dedup(mocks):
    cfg = _cfg("gcc", mocks["opt_echo"])
    outs = run_case(StubCase(11, "unit"), [cfg], mocks["dir"] / "w11")
    verdicts = compare(outs)
    sink = StringIO()
    summary = report(verdicts + verdicts, sink)  # duplicates share a signature
    lines = [json.loads(l) for l in sink.getvalue().splitlines()]
    assert len(lines) == len(verdicts) * 2 + 1
    assert summary["unique_signatures"] == len({v.signature for v in verdicts})
    assert summary["counts"]["WrongResult"] == 2
    assert "summary" in lines[-1]


def test_config_file_roundtrip(tmp_path, mocks):
    path = tmp_path / "compilers.json"
    path.write_text(json.dumps({
        "compilers": [
            {"label": "cc", "compile_cmd": [mocks["fixed"], "{src}", "{out}", "{opt}"],
             "opt_levels": ["-O0", "-O1"], "run_cmd": [], "compile_timeout": 5}
        ]
    }))
    cfgs = load_compiler_configs(path)
    assert cfgs[0].label == "cc"
    assert cfgs[0].opt_levels == ["-O0", "-O1"]
    with pytest.raises(HarnessConfigError):
        path.write_text(json.dumps({"compilers": []}))
        load_compiler_configs(path)

import json
import stat
from pathlib import Path

import pytest

from rvvfuzz.cli import main

SMALL_LISTING = "\n".join(
    [
        "vint8m1_t __riscv_vle8_v_i8m1(const int8_t *rs1, size_t vl);",
        "void __riscv_vse8_v_i8m1(int8_t *rs1, vint8m1_t vs3, size_t vl);",
        "vint8m1_t __riscv_vadd_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, size_t vl);",
        "vint8m1_t __riscv_vsub_vv_i8m1(vint8m1_t vs2, vint8m1_t vs1, size_t vl);",
        "vint8m1_t __riscv_vadd_vv_i8m1_m(vbool8_t vm, vint8m1_t vs2, vint8m1_t vs1, size_t vl);",
    ]
)


@pytest.fixture
def listing_file(tmp_path):
    p = tmp_path / "subset.txt"
    p.write_text(SMALL_LISTING)
    return str(p)


def _mock_cc(tmp_path, name, body):
    p = tmp_path / name
    p.write_text("#!/bin/sh\n" + body)
    p.chmod(p.stat().st_mode | stat.S_IXUSR)
    return str(p)


def _compilers_json(tmp_path, entries):
    p = tmp_path / "compilers.json"
    p.write_text(json.dumps({"compilers": entries}))
    return str(p)


def _gen_args(listing_file, out, seeds, extra=()):
    return [
        "generate", "--listing", listing_file, "--seeds", seeds,
        "--ratio-type", "i8m1", "--seq-len", "3", "--data-len", "5",
        "--out", out, *extra,
    ]


def test_generate_deterministic(tmp_path, listing_file, capsys):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(_gen_args(listing_file, out1, "1", ["--modes", "allin"])) == 0
    assert main(_gen_args(listing_file, out2, "1", ["--modes", "allin"])) == 0
    a = Path(out1, "case_1_allin.c").read_bytes()
    b = Path(out2, "case_1_allin.c").read_bytes()
    assert a == b


def test_generate_file_count(tmp_path, listing_file):
    out = str(tmp_path / "many")
    assert main(_gen_args(listing_file, out, "1..3")) == 0
    assert len(list(Path(out).glob("*.c"))) == 9
    assert len(list(Path(out).glob("*.json"))) == 9


def test_fuzz_all_pass_exit_zero(tmp_path, listing_file):
    cc = _mock_cc(
        tmp_path, "cc.sh",
        'printf \'#!/bin/sh\\necho X\\n\' > "$2"\nchmod +x "$2"\n',
    )
    compilers = _compilers_json(tmp_path, [
        {"label": "cc", "compile_cmd": [cc, "{src}", "{out}", "{opt}"],
         "opt_levels": ["-O0", "-O3"]},
    ])
    report = tmp_path / "report.jsonl"
    rc = main([
        "fuzz", "--listing", listing_file, "--seeds", "0..2",
        "--ratio-type", "i8m1", "--seq-len", "2", "--data-len", "4",
        "--out", str(tmp_path / "fz"), "--compilers", compilers,
        "--report", str(report),
    ])
    assert rc == 0
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    assert all(l.get("classification") == "Pass" for l in lines[:-1])
    assert lines[-1]["summary"]["counts"]["Pass"] == 3


def test_fuzz_detects_wrong_result(tmp_path, listing_file):
    cc = _mock_cc(
        tmp_path, "flip.sh",
        'if [ "$3" = "-O3" ]; then msg=Y; else msg=X; fi\n'
        'printf \'#!/bin/sh\\necho %s\\n\' "$msg" > "$2"\nchmod +x "$2"\n',
    )
    compilers = _compilers_json(tmp_path, [
        {"label": "gcc", "compile_cmd": [cc, "{src}", "{out}", "{opt}"],
         "opt_levels": ["-O0", "-O3"]},
    ])
    report = tmp_path / "rep.jsonl"
    rc = main([
        "fuzz", "--listing", listing_file, "--seeds", "7",
        "--ratio-type", "i8m1", "--seq-len", "2", "--data-len", "4",
        "--out", str(tmp_path / "fz2"), "--compilers", compilers,
        "--report", str(report),
    ])
    assert rc == 1
    recs = [json.loads(l) for l in report.read_text().splitlines()]
    wrong = [r for r in recs if r.get("classification") == "WrongResult"]
    assert wrong and all(r["strategy"] == "cross-optimization" for r in wrong)


def test_fuzz_seed_that_raises_is_a_harness_error(tmp_path, listing_file, monkeypatch):
    import rvvfuzz.cli

    cc = _mock_cc(
        tmp_path, "cc_ok.sh",
        'printf \'#!/bin/sh\\necho X\\n\' > "$2"\nchmod +x "$2"\n',
    )
    compilers = _compilers_json(tmp_path, [
        {"label": "cc", "compile_cmd": [cc, "{src}", "{out}", "{opt}"],
         "opt_levels": ["-O0"]},
    ])
    fuzz_seed = rvvfuzz.cli.fuzz_seed

    def flaky(gen, seed, *args, **kwargs):
        if seed == 1:
            raise RuntimeError("injected failure")
        return fuzz_seed(gen, seed, *args, **kwargs)

    monkeypatch.setattr(rvvfuzz.cli, "fuzz_seed", flaky)
    report = tmp_path / "rep.jsonl"
    rc = main([
        "fuzz", "--listing", listing_file, "--seeds", "0..2",
        "--ratio-type", "i8m1", "--seq-len", "2", "--data-len", "4",
        "--out", str(tmp_path / "fz_err"), "--compilers", compilers,
        "--report", str(report),
    ])
    assert rc == 1  # a HarnessError is a finding
    recs = [json.loads(l) for l in report.read_text().splitlines()]
    by_seed = {r["seed"]: r for r in recs[:-1]}
    assert by_seed[0]["classification"] == by_seed[2]["classification"] == "Pass"
    assert by_seed[1]["classification"] == "HarnessError"
    assert "injected failure" in by_seed[1]["detail"]
    counts = recs[-1]["summary"]["counts"]
    assert counts["Pass"] == 2 and counts["HarnessError"] == 1


def test_fuzz_resume_produces_same_records(tmp_path, listing_file):
    cc = _mock_cc(
        tmp_path, "cc2.sh",
        'printf \'#!/bin/sh\\necho X\\n\' > "$2"\nchmod +x "$2"\n',
    )
    compilers = _compilers_json(tmp_path, [
        {"label": "cc", "compile_cmd": [cc, "{src}", "{out}", "{opt}"],
         "opt_levels": ["-O0"]},
    ])

    def run(seeds, tag):
        rep = tmp_path / f"rep_{tag}.jsonl"
        main([
            "fuzz", "--listing", listing_file, "--seeds", seeds,
            "--ratio-type", "i8m1", "--seq-len", "2", "--data-len", "4",
            "--out", str(tmp_path / f"w_{tag}"), "--compilers", compilers,
            "--report", str(rep),
        ])
        return [l for l in rep.read_text().splitlines() if "summary" not in l]

    full = run("0..4", "full")
    resumed = run("0..2", "p1") + run("3..4", "p2")
    assert full == resumed


def test_fuzz_parallel_jobs_match_serial(tmp_path, listing_file):
    cc = _mock_cc(
        tmp_path, "ccp.sh",
        'printf \'#!/bin/sh\\necho X\\n\' > "$2"\nchmod +x "$2"\n',
    )
    compilers = _compilers_json(tmp_path, [
        {"label": "cc", "compile_cmd": [cc, "{src}", "{out}", "{opt}"],
         "opt_levels": ["-O0"]},
    ])

    def run(jobs, tag):
        rep = tmp_path / f"repj_{tag}.jsonl"
        main([
            "fuzz", "--listing", listing_file, "--seeds", "0..5",
            "--ratio-type", "i8m1", "--seq-len", "2", "--data-len", "4",
            "--out", str(tmp_path / f"wj_{tag}"), "--compilers", compilers,
            "--report", str(rep), "--jobs", str(jobs),
        ])
        return rep.read_text()

    assert run(1, "serial") == run(4, "parallel")


def test_replay_roundtrip_and_refusal(tmp_path, listing_file):
    out = str(tmp_path / "gen")
    assert main(_gen_args(listing_file, out, "5", ["--modes", "unit"])) == 0
    sidecar = Path(out) / "case_5_unit.json"

    rc = main(["replay", str(sidecar), "--listing", listing_file])
    assert rc == 0

    # replaying against a different listing must refuse
    other = tmp_path / "other.txt"
    other.write_text(SMALL_LISTING + "\nvint8m1_t __riscv_vrsub_vx_i8m1(vint8m1_t vs2, int8_t rs1, size_t vl);")
    rc = main(["replay", str(sidecar), "--listing", str(other)])
    assert rc == 2


def test_replay_reruns_witnesses(tmp_path, listing_file):
    out = str(tmp_path / "gen2")
    assert main(_gen_args(listing_file, out, "6", ["--modes", "allin"])) == 0
    cc = _mock_cc(
        tmp_path, "cc3.sh",
        'printf \'#!/bin/sh\\necho X\\n\' > "$2"\nchmod +x "$2"\n',
    )
    compilers = _compilers_json(tmp_path, [
        {"label": "cc", "compile_cmd": [cc, "{src}", "{out}", "{opt}"],
         "opt_levels": ["-O0"]},
    ])
    rc = main([
        "replay", str(Path(out) / "case_6_allin.json"),
        "--listing", listing_file, "--compilers", compilers,
        "--out", str(tmp_path / "rp"),
    ])
    assert rc == 0


def test_config_file_with_flag_override(tmp_path, listing_file):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({
        "listing": listing_file, "seeds": [2, 2], "ratio_type": "i8m1",
        "seq_len": 2, "data_len": 4, "modes": ["allin"],
        "out_dir": str(tmp_path / "cfg_out"),
    }))
    assert main(["generate", "--config", str(cfgfile)]) == 0
    assert (tmp_path / "cfg_out" / "case_2_allin.c").exists()
    # flag overrides the config file's seed range
    assert main(["generate", "--config", str(cfgfile), "--seeds", "9"]) == 0
    assert (tmp_path / "cfg_out" / "case_9_allin.c").exists()


def test_coverage_command(tmp_path, listing_file, capsys):
    out = str(tmp_path / "cov_cases")
    main(_gen_args(listing_file, out, "0..5", ["--modes", "allin"]))
    rc = main(["coverage", "--listing", listing_file, "--corpus-dir", out,
               "--records", str(tmp_path / "cov.jsonl")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "overall intrinsic coverage" in text
    recs = [json.loads(l) for l in (tmp_path / "cov.jsonl").read_text().splitlines()]
    assert recs[-1]["corpus_size"] == 6


def test_coverage_of_an_empty_corpus_dir_exits_two(tmp_path, listing_file, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["coverage", "--listing", listing_file, "--corpus-dir", str(empty)]) == 2
    assert "no .c files" in capsys.readouterr().err


def test_listing_command(tmp_path):
    out = tmp_path / "listing.txt"
    assert main(["listing", "-o", str(out)]) == 0
    from rvvfuzz.intrinsics import parse_definitions

    defs = parse_definitions(out.read_text())
    assert len(defs) > 20_000


def test_listing_elen_filter(tmp_path):
    out = tmp_path / "listing32.txt"
    assert main(["listing", "--elen", "32", "-o", str(out)]) == 0
    from rvvfuzz.intrinsics import parse_definitions

    defs = parse_definitions(out.read_text())
    for d in defs:
        for t in d.vector_types():
            if not t.is_bool:
                assert t.sew <= 32, d.full_name


def test_config_errors_exit_two(tmp_path, listing_file):
    assert main(["generate", "--listing", "/nonexistent.txt", "--seeds", "1"]) == 2
    assert main(["fuzz", "--listing", listing_file, "--seeds", "1"]) == 2  # no compilers
    assert main(["generate", "--listing", listing_file, "--seeds", "1",
                 "--ratio-type", "i8m1", "--modes", "sideways"]) == 2


@pytest.mark.parametrize("extra", [
    ["--ratio-type", "f8m1"],  # no 8-bit float vector type
    ["--ratio-type", "e8m1"],  # a vsetvl shape, not a vector type
    ["--ratio-type", "i8m1", "--seq-len", "0"],
])
def test_illegal_shape_exits_two(tmp_path, listing_file, extra, capsys):
    out = str(tmp_path / "none")
    assert main(["generate", "--listing", listing_file, "--seeds", "1",
                 "--out", out, *extra]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("token", ["f8m1", "e32m1"])
def test_fuzz_bad_ratio_type_exits_two_before_any_seed(tmp_path, listing_file, token, capsys):
    cc = _mock_cc(
        tmp_path, "cc.sh",
        'printf \'#!/bin/sh\\necho X\\n\' > "$2"\nchmod +x "$2"\n',
    )
    compilers = _compilers_json(tmp_path, [
        {"label": "cc", "compile_cmd": [cc, "{src}", "{out}", "{opt}"], "opt_levels": ["-O0"]},
    ])
    out, report = tmp_path / "fz", tmp_path / "report.jsonl"
    rc = main([
        "fuzz", "--listing", listing_file, "--seeds", "0..2", "--ratio-type", token,
        "--out", str(out), "--compilers", compilers, "--report", str(report),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not report.exists() and not out.exists()


def test_fuzz_drops_each_seeds_outcomes(tmp_path, listing_file, monkeypatch):
    """A seed's run outcomes (stdout, diagnostics) are gone once its
    verdicts are taken, so a campaign's memory does not grow with its
    length."""
    import weakref

    from rvvfuzz import cli
    from rvvfuzz.difftest import RunOutcome, Verdict

    class TrackedOutcome(RunOutcome):
        __hash__ = object.__hash__  # a WeakSet member needs one

    alive = weakref.WeakSet()
    alive_at_start = {}

    def stub_fuzz_seed(gen, seed, configs, workdir, **kw):
        alive_at_start[seed] = sorted({o.seed for o in alive})
        outcomes = [TrackedOutcome(seed, mode, "cc", "-O0", "ok", "ok", "x" * 10_000)
                    for mode in ("allin", "unit", "random")]
        alive.update(outcomes)
        return [Verdict(seed, "Pass", "", ())], outcomes

    monkeypatch.setattr(cli, "fuzz_seed", stub_fuzz_seed)
    cc = _mock_cc(tmp_path, "cc.sh", "exit 0\n")
    compilers = _compilers_json(tmp_path, [
        {"label": "cc", "compile_cmd": [cc, "{src}", "{out}", "{opt}"], "opt_levels": ["-O0"]},
    ])
    report = tmp_path / "report.jsonl"
    rc = main([
        "fuzz", "--listing", listing_file, "--seeds", "0..5", "--ratio-type", "i8m1",
        "--out", str(tmp_path / "fz"), "--compilers", compilers, "--report", str(report),
    ])
    assert rc == 0
    assert alive_at_start == {seed: [] for seed in range(6)}
    assert len(alive) == 0
    summary = json.loads(report.read_text().splitlines()[-1])["summary"]
    assert summary["counts"]["Pass"] == 6

import hashlib
import json
import stat
from pathlib import Path

import pytest

from rvvfuzz.difftest import CompilerConfig
from rvvfuzz.oracle import oracle_subset_listing
from rvvfuzz.pipeline import (
    Generator,
    RunConfig,
    SelfCheckError,
    fuzz_seed,
    self_check,
    write_case,
)

from reference import sidecar_bytes


@pytest.fixture(scope="module")
def gen():
    return Generator(oracle_subset_listing(), seq_len=3, data_len=6)


def test_generator_caches_and_reuses_pools(gen):
    a = gen.pool(8)
    b = gen.pool(8)
    assert a is b
    assert all(d.category == "Operation" for d in a)


def test_cases_share_one_ir(gen):
    cases = gen.cases(5)
    assert [c.mode for c in cases] == ["allin", "unit", "random"]
    assert cases[0].ir is cases[1].ir is cases[2].ir
    assert cases[0].snapshot["listing_sha256"] == gen.listing_sha


def test_self_check_green_on_subset(gen):
    ran = 0
    for seed in range(30):
        if self_check(gen.cases(seed), vlen=128):
            ran += 1
    assert ran == 30  # subset cases never fall back


def test_self_check_detects_tampering(gen):
    cases = gen.cases(2)
    if not cases[0].manifest:
        cases = gen.cases(3)
    assert cases[0].manifest, "expected printable output"
    # corrupt one variant's initial memory after the fact
    arr = next(a for a in cases[0].ir.arrays if a.values is not None)
    broken = gen.cases(cases[0].seed)
    arr2 = next(a for a in broken[0].ir.arrays if a.values is not None)
    from rvvfuzz.codegen import ScalarValue

    arr2.values = [ScalarValue(v.kind, v.width, (v.bits + 1) % (1 << v.width))
                   for v in arr2.values]
    mixed = [cases[0], broken[1], broken[2]]
    with pytest.raises(SelfCheckError):
        self_check(mixed, vlen=128)


def test_write_case_sidecar(gen, tmp_path):
    case = gen.cases(4)[0]
    src, sidecar = write_case(case, tmp_path)
    assert Path(src).read_text() == case.source
    meta = json.loads(Path(sidecar).read_text())
    assert meta["snapshot"]["seed"] == 4
    assert meta["snapshot"]["mode"] == "allin"
    assert len(meta["source_sha256"]) == 64


def test_write_case_into_missing_nested_dir(gen, tmp_path):
    out = tmp_path / "a" / "b"
    for case in gen.cases(5):
        src, sidecar = write_case(case, out)
        assert Path(src).read_bytes() == case.source.encode()
        meta = {
            "snapshot": case.snapshot,
            "manifest_len": len(case.manifest),
            "source_sha256": hashlib.sha256(case.source.encode()).hexdigest(),
        }
        want = json.dumps(meta, indent=2, sort_keys=True) + "\n"
        assert Path(sidecar).read_bytes() == want.encode()
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"case_5_{m}.{ext}" for m in ("allin", "unit", "random") for ext in ("c", "json"))


def test_fuzz_seed_with_mock(gen, tmp_path):
    cc = tmp_path / "cc.sh"
    cc.write_text("#!/bin/sh\nprintf '#!/bin/sh\\necho X\\n' > \"$2\"\nchmod +x \"$2\"\n")
    cc.chmod(cc.stat().st_mode | stat.S_IXUSR)
    cfg = CompilerConfig("cc", [str(cc), "{src}", "{out}", "{opt}"], ["-O0"])
    verdicts, outcomes = fuzz_seed(gen, 1, [cfg], tmp_path / "w", do_self_check=True)
    assert [v.classification for v in verdicts] == ["Pass"]
    assert len(outcomes) == 3  # three variants x one config x one opt
    assert (tmp_path / "w" / "case_1_unit.c").exists()


def test_run_config_seed_range():
    cfg = RunConfig(seeds=(3, 6))
    assert list(cfg.seed_range()) == [3, 4, 5, 6]
    with pytest.raises(ValueError):
        RunConfig(seeds=(6, 3)).seed_range()


@pytest.mark.parametrize("overrides", [
    {},
    {"ratio_token": "u16mf2", "coin_bias": 0.1},
    {"ratio_token": "f64m8", "coin_bias": 1 / 3},
], ids=["default", "u16mf2-0.1", "f64m8-third"])
def test_write_case_bytes_match_json_dumps(catalog_gen, tmp_path, overrides):
    """The sidecar writer's bytes are json.dumps(meta, indent=2,
    sort_keys=True) + newline on the catalog's seeds 0..999 x 3 modes, by
    default and with a pinned ratio type and other coin biases."""
    for seed in range(1000):
        for case in catalog_gen.cases(seed, **overrides):
            src, sidecar = write_case(case, tmp_path)
            assert Path(src).read_bytes() == case.source.encode()
            assert Path(sidecar).read_bytes() == sidecar_bytes(case), case.name

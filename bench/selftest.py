"""Self-tests of the benchmark: python3 -m pytest bench/selftest.py -q

Kept out of the repository's test run (the file name does not match
``test_*.py``) because each test sets up rvvfuzz and most compile with gcc.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on sys.path too)
import shim  # noqa: E402
import spans  # noqa: E402

from rvvfuzz import difftest, oracle  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no host gcc")


@pytest.fixture(autouse=True)
def small_runs(tmp_path, monkeypatch):
    """One set-up sample, few seeds and a private work directory."""
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "MIN_SEEDS", 3)


def _quick(name, trace=False, seed=0):
    return run.run_workload(name, seed=seed, seconds=0, trace=trace)


@needs_gcc
def test_shim_stdout_equals_evaluator(tmp_path):
    ctx = run.setup(run.WORKLOADS["fuzz_host"])
    configs, machine = run.host_configs(ctx["gen"], ctx["listing"], tmp_path / "shim")
    assert sorted(vlen for vlen, _ in machine.values()) == [128, 512]
    for seed in range(4):
        for case in ctx["gen"].cases(seed):
            outcomes = difftest.run_case(case, configs, tmp_path / "jobs")
            assert len(outcomes) == 2 * len(run.OPT_LEVELS)
            for o in outcomes:
                vlen, poison = machine[o.compiler]
                assert (o.compile_status, o.run_status) == ("ok", "ok"), o.diagnostics
                assert o.stdout == oracle.evaluate(case, vlen=vlen, poison_byte=poison), o.key


@needs_gcc
def test_negative_control_shim_fails(monkeypatch):
    monkeypatch.setitem(shim.LANE_EXPR, "vsub", "x + y")
    res = _quick("fuzz_host")["result"]
    assert res["failed"] > 0 and not res["correct"]


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_end_to_end_metric_printed_with_unit(name):
    if name == "fuzz_host" and shutil.which("gcc") is None:
        pytest.skip("no host gcc")
    out = _quick(name)
    res = out["result"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    printed = {line.split()[0]: line.split()[-1] for line in out["lines"]}
    for metric, unit in dict(want, failed_ratio="ratio").items():
        assert printed[metric] == unit


def test_failed_ratio_counts_a_raised_seed(monkeypatch):
    import rvvfuzz.pipeline

    build_case = rvvfuzz.pipeline.build_case

    def flaky(defs, seed, **kw):
        if seed == 5_000_001:
            raise RuntimeError("injected")
        return build_case(defs, seed, **kw)

    monkeypatch.setattr(rvvfuzz.pipeline, "build_case", flaky)
    out = _quick("generate_default", seed=5)
    res = out["result"]
    assert res["failed"] == 1 and not res["correct"]
    assert any("injected" in line for line in out["lines"])
    ratio = next(line for line in out["lines"] if line.startswith("failed_ratio"))
    assert float(ratio.split()[1]) == pytest.approx(res["failed"] / res["attempted"], rel=1e-5)


@needs_gcc
def test_traced_run_spans_every_layer(tmp_path):
    res = _quick("fuzz_host", trace=True)["result"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    recorded = [json.loads(line) for line in
                (tmp_path / "fuzz_host" / "spans.jsonl").read_text().splitlines()]
    assert {s["name"] for s in recorded} == set(spans.SPAN_NAMES)
    assert all(s["end_ns"] >= s["start_ns"] for s in recorded)
    seeds = {s["seed"] for s in recorded if s["name"] == "seed"}
    assert len(seeds) == run.MIN_SEEDS
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["trace.seeds"] == run.MIN_SEEDS
    assert m["oracle.checked"] == m["oracle.attempted"] == run.MIN_SEEDS
    assert m["difftest.jobs"] == run.MIN_SEEDS * 3 * 2 * len(run.OPT_LEVELS)
    assert m["difftest.run_case_ms"] > m["difftest.toolchain_ms"] > 0

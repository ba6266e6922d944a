"""rvvfuzz benchmark: one command per workload, every output checked.

    python3 bench/run.py --workload generate_default --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in ``WORKLOADS``):

- ``generate_default``: built-in catalog, default knobs, the three
  scheduling modes written as ``.c`` plus sidecar, as ``rvvfuzz generate``
  does; then intrinsic coverage.
- ``generate_long``: the same with ``seq_len=1..40`` and ``data_len=1..200``;
  run by hand, not listed in BENCHMARK.json (see bench/README.md).
- ``fuzz_host``: ``oracle_subset_listing()`` through ``pipeline.fuzz_seed``
  with self-check, compiled by host ``gcc`` against the scalar-C
  ``riscv_vector.h`` of ``shim.py`` at two VLEN/poison configurations and two
  ``-O`` levels; every binary's stdout must equal ``oracle.evaluate``.

``--seed`` picks the rvvfuzz seeds (``seed * 1_000_000 + i``), so the same
seed gives the same programs.  After set-up the workload runs seeds one at
a time, in one process with one compile/run job at a time, until
``--seconds`` of measured time have passed.  With ``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` each seed runs
twice, traced and untraced in alternating order, and the line holds the
per-layer metrics, including the tracing overhead.

A failed operation is a seed that raises, a self-check divergence, a
non-Pass verdict, a compiled stdout that differs from ``oracle.evaluate``
(or a seed it cannot run), or a replayed sidecar whose source is not
byte-identical.  Times of the timed loop are scaled to a reference host
speed; see ``HostSpeed``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
for _p in (str(ROOT / "src"), str(BENCH_DIR)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import spans  # noqa: E402  (the benchmark's own module; rvvfuzz is imported in setup)

MODES = ("allin", "unit", "random")
SETUP_SAMPLES = 3  # fresh interpreters per run; setup_s is their median
MIN_SEEDS = 10  # seeds run even when --seconds is already used up
REPLAY_SEEDS = 10  # leading seeds whose sidecars are replayed
FUZZ_VLEN = 128  # VLEN of pipeline.self_check, as `rvvfuzz fuzz --vlen`
# (label, VLEN, poison byte); different poison makes a leaked agnostic
# lane a cross-compiler WrongResult
HOST_CONFIGS = (("host-v128", 128, 0x00), ("host-v512", 512, 0xFF))
OPT_LEVELS = ["-O0", "-O2"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seq_len: object
    data_len: object
    fixed_seeds: int  # seeds 0..n-1: intrinsic_coverage and source_digest
    fuzz: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("generate_default",
             "default generate: per-seed type-model and selection overhead, no toolchain",
             10, 10, 1000),
    Workload("generate_long",
             "seq_len 1..40, data_len 1..200: per-element analysis, manifest and emit work",
             (1, 40), (1, 200), 100),
    Workload("fuzz_host",
             "oracle subset compiled by host gcc and run: toolchain, difftest and oracle work",
             10, 10, 200, fuzz=True),
)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "seeds_per_s": "seeds/s",
    "seed_ms_p50": "ms",
    "seed_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "intrinsic_coverage": "ratio",
}
# failed_ratio is reported as the result's failed/attempted and on an
# info line: a metric that is 0 on a healthy run has no relative spread.
INFO_UNITS = dict(END_TO_END_UNITS, failed_ratio="ratio")

PER_LAYER_UNITS = {
    "catalog.listing_s": "s",
    "intrinsics.parse_s": "s",
    "intrinsics.protos": "count",
    "selection.pools_s": "s",
    "selection.candidates": "count",
    "selection.select_ms": "ms/seed",
    "dataflow.allocate_ms": "ms/seed",
    "codegen.build_self_ms": "ms/seed",
    "codegen.analyze_ms": "ms/seed",
    "scheduling.schedule_ms": "ms/seed",
    "codegen.emit_self_ms": "ms/seed",
    "codegen.source_bytes": "bytes/seed",
    "pipeline.write_ms": "ms/seed",
    "coverage.compute_s": "s",
    "oracle.selfcheck_ms": "ms/seed",
    "oracle.checked": "count",
    "oracle.attempted": "count",
    "difftest.run_case_ms": "ms/seed",
    "difftest.toolchain_ms": "ms/seed",
    "difftest.harness_ms": "ms/seed",
    "difftest.jobs": "count",
    "difftest.compile_errors": "count",
    "difftest.run_crashes": "count",
    "difftest.timeouts": "count",
    "difftest.compare_ms": "ms/seed",
    "difftest.report_ms": "ms/seed",
    "unattributed_ms": "ms/seed",
    "trace.seeds": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no rvvfuzz sources, no gcc)."""


# The host is shared: it preempts this machine's CPUs, so how much of the
# wall clock the work gets drifts by up to 2x between runs.  A fixed
# pure-Python task, run on the same CPU every SEGMENT_S of measured work,
# measures that share: every reported time of the timed loop is divided by
# the mean slowdown of those samples, i.e. given at the speed at which
# reference_work() takes REFERENCE_S.  Means, not medians: a preemption
# slows the work exactly as much as it slows the samples it hits.
REFERENCE_S = 0.0005
SEGMENT_S = 0.02


def reference_work() -> int:
    """Fixed work that allocates no containers, so the garbage collector,
    whose cost grows with rvvfuzz's heap, never runs inside it."""
    acc = 0
    for i in range(2500):
        acc = (acc * 31 + len(f"x{i}") + i) % 1000003
    return acc


class HostSpeed:
    """Reference samples taken in proportion to the measured work."""

    def __init__(self):
        self.samples: list[float] = []
        self.owed = 0.0  # measured seconds not yet matched by samples

    def after_work(self, seconds: float) -> None:
        self.owed += seconds
        while self.owed >= SEGMENT_S:
            self.owed -= SEGMENT_S
            t0 = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - t0)

    def slowdown(self) -> float:
        if not self.samples:  # less than SEGMENT_S measured
            self.owed = SEGMENT_S
            self.after_work(0.0)
        return statistics.fmean(self.samples) / REFERENCE_S


def setup(w: Workload) -> dict:
    """rvvfuzz set-up as a user pays it: import, listing, parse, all pools.
    Times are raw seconds."""
    t0 = time.perf_counter()
    try:
        pipeline = importlib.import_module("rvvfuzz.pipeline")
    except ImportError as e:
        raise BenchError(f"cannot import rvvfuzz from {ROOT / 'src'}: {e}") from None
    from rvvfuzz.catalog import build_listing
    from rvvfuzz.oracle import oracle_subset_listing
    from rvvfuzz.types import all_value_types

    t1 = time.perf_counter()
    listing = build_listing()
    text = oracle_subset_listing() if w.fuzz else listing
    t2 = time.perf_counter()
    gen = pipeline.Generator(text, seq_len=w.seq_len, data_len=w.data_len)
    t3 = time.perf_counter()
    ratios = sorted({t.ratio for t in all_value_types()})
    candidates = sum(len(gen.pool(r)) for r in ratios)
    t4 = time.perf_counter()
    return {
        "gen": gen,
        "listing": listing,
        "setup_s": t4 - t0,
        "layers": {
            "catalog.listing_s": t2 - t1,
            "intrinsics.parse_s": t3 - t2,
            "intrinsics.protos": len(gen.defs),
            "selection.pools_s": t4 - t3,
            "selection.candidates": candidates,
        },
    }


def probe_setup(name: str) -> float:
    """setup_s of one fresh interpreter running this file."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", name],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def host_configs(gen, listing: str, shim_dir: Path):
    """Write the shim, build its runtime once per poison byte, and return
    the two CompilerConfigs plus {label: (VLEN, poison)}."""
    import shim
    from rvvfuzz.difftest import CompilerConfig

    if shutil.which("gcc") is None:
        raise BenchError("fuzz_host needs gcc on PATH")
    shim_dir.mkdir(parents=True, exist_ok=True)
    (shim_dir / "riscv_vector.h").write_text(shim.render_header(listing, gen.defs))
    runtime = shim_dir / "rvv_runtime.c"
    runtime.write_text(shim.render_runtime())
    configs, machine = [], {}
    for label, vlen, poison in HOST_CONFIGS:
        obj = shim_dir / f"rvv_runtime_{poison:02x}.o"
        subprocess.run(["gcc", "-O2", "-c", f"-DRVV_POISON={poison:#04x}",
                        str(runtime), "-o", str(obj)], check=True, timeout=120)
        configs.append(CompilerConfig(
            label=label,
            compile_cmd=["gcc", "{opt}", f"-DVLEN={vlen}", "-I", str(shim_dir),
                         "{src}", str(obj), "-o", "{out}"],
            opt_levels=list(OPT_LEVELS),
        ))
        machine[label] = (vlen, poison)
    return configs, machine


class Run:
    """One workload run: timed seeds, end-of-run work, checks."""

    def __init__(self, w: Workload, seed: int, gen, out: Path, configs=None, machine=None):
        from rvvfuzz import codegen, coverage, difftest, oracle, pipeline

        self.codegen, self.coverage, self.difftest = codegen, coverage, difftest
        self.oracle, self.pipeline = oracle, pipeline
        self.w, self.gen, self.out = w, gen, out
        self.base = seed * 1_000_000
        self.configs, self.machine = configs, machine
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.busy = 0.0  # measured seconds, failed seeds included
        self.latencies: list[float] = []  # completed seeds
        self.verdicts = []
        # the fixed seeds: allin sources and a digest of every mode
        self.allin: list[str] = []
        self.digest = hashlib.sha256()
        self.replayable: list[int] = []  # generated seeds whose sidecars exist
        # per-layer counts, from the executions passed record=True
        self.recorded = 0
        self.source_bytes = 0
        self.outcomes = []
        self.checked = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def run_seed(self, seed: int):
        if self.w.fuzz:
            return self.pipeline.fuzz_seed(
                self.gen, seed, self.configs, self.out / f"seed_{seed}",
                modes=MODES, vlen=FUZZ_VLEN, do_self_check=True)
        ir = self.gen.build(seed)
        cases = [self.codegen.emit_case(ir, mode) for mode in MODES]
        for case in cases:
            self.pipeline.write_case(case, self.out)
        return cases

    def timed_seed(self, seed: int, tracer=None, record: bool = True) -> float:
        """Run and check one seed; returns its measured seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.run_seed(seed)
            else:
                tracer.seed = seed
                with tracer.installed(), tracer.span("seed"):
                    result = self.run_seed(seed)
        except Exception as e:  # a bad seed must not end the run
            dt = time.perf_counter() - t0
            self.busy += dt
            self.fail(f"seed {seed}: {type(e).__name__}: {e}")
            return dt
        dt = time.perf_counter() - t0
        self.busy += dt
        self.latencies.append(dt)
        self.check(seed, result, record)
        return dt

    # -- checks (not measured) -------------------------------------------------

    def check(self, seed: int, result, record: bool) -> None:
        if self.w.fuzz:
            verdicts, outcomes = result
            cases = self.gen.cases(seed, modes=MODES)
        else:
            verdicts, outcomes, cases = [], [], result
        if not self.w.fuzz and len(self.replayable) < REPLAY_SEEDS:
            self.replayable.append(seed)
        if record:
            self.recorded += 1
            self.source_bytes += sum(len(c.source) for c in cases)
            self.outcomes.extend(outcomes)
        if not self.w.fuzz:
            return
        self.verdicts.extend(verdicts)
        try:
            expected = {
                (c.mode, label): self.oracle.evaluate(c, vlen=vlen, poison_byte=poison)
                for c in cases for label, (vlen, poison) in self.machine.items()
            }
        except self.oracle.OracleUnsupported as e:
            self.fail(f"seed {seed}: outside the evaluator subset: {e}")
            return
        if record:
            self.checked += 1
        jobs = len(cases) * sum(len(c.opt_levels) for c in self.configs)
        bad = [v.signature for v in verdicts if v.classification != "Pass"]
        wrong = [f"{o.compiler}:{o.opt}:{o.mode}" for o in outcomes
                 if o.compile_status != "ok" or o.run_status != "ok"
                 or o.stdout != expected[(o.mode, o.compiler)]]
        if bad or wrong or len(outcomes) != jobs:
            self.fail(f"seed {seed}: verdicts {bad}; differs from oracle.evaluate: {wrong}; "
                      f"{len(outcomes)}/{jobs} jobs")

    def replay_sidecars(self) -> None:
        """Rebuild the leading seeds' cases from their sidecars, as
        `rvvfuzz replay` does, and require byte-identical sources."""
        for seed in self.replayable:
            for mode in MODES:
                self.attempted += 1
                meta = json.loads((self.out / f"case_{seed}_{mode}.json").read_text())
                snap = meta["snapshot"]
                if snap.get("listing_sha256") != self.gen.listing_sha:
                    self.fail(f"case_{seed}_{mode}: listing changed")
                    continue
                ir = self.gen.build(snap["seed"], seq_len=snap["seq_len"],
                                    data_len=snap["data_len"], ratio_token=snap["ratio_token"],
                                    coin_bias=snap.get("coin_bias", 0.5))
                case = self.codegen.emit_case(ir, snap["mode"])
                if hashlib.sha256(case.source.encode()).hexdigest() != meta["source_sha256"]:
                    self.fail(f"case_{seed}_{mode}: replayed source differs")

    def generate_fixed_seeds(self) -> None:
        """Not measured: the same seeds on every run, so intrinsic_coverage
        and source_digest repeat exactly and compare across commits."""
        for seed in range(self.w.fixed_seeds):
            self.attempted += 1
            try:
                cases = self.gen.cases(seed, modes=MODES)
            except Exception as e:  # counted like a seed of the timed loop
                self.fail(f"seed {seed}: {type(e).__name__}: {e}")
                continue
            self.allin.append(cases[0].source)
            for c in cases:
                self.digest.update(c.source.encode())

    # -- end of run (measured) ----------------------------------------------------

    def finish(self, tracer=None) -> float:
        """Coverage, and the verdict report on fuzz_host."""
        if tracer is not None:
            tracer.seed = None
        with tracer.installed() if tracer else nullcontext():
            if self.w.fuzz:
                with open(self.out / "report.jsonl", "w", encoding="utf-8") as fh:
                    self.difftest.report(self.verdicts, fh)
            return self.coverage.compute_coverage(self.allin, self.gen.defs).overall


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: returns the info lines and the result object."""
    w = WORKLOADS[name]
    ctx = setup(w)
    setup_times = [ctx["setup_s"]] + [probe_setup(name) for _ in range(SETUP_SAMPLES - 1)]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    configs = machine = None
    if w.fuzz:
        configs, machine = host_configs(ctx["gen"], ctx["listing"], work / "shim")
    run = Run(w, seed, ctx["gen"], work / "out", configs, machine)
    os.sync()  # the last run's deleted files must not be written back during this one
    tracer = spans.Tracer() if trace else None
    traced_s = untraced_s = 0.0

    speed = HostSpeed()
    speed_done = 0.0
    i = 0
    while run.busy < seconds or i < MIN_SEEDS:
        if tracer is None:
            run.timed_seed(run.base + i)
        else:
            # the same seed traced and untraced, alternating which runs
            # first, gives the tracing overhead
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    traced_s += run.timed_seed(run.base + i, tracer)
                else:
                    untraced_s += run.timed_seed(run.base + i, record=False)
        i += 1
        speed.after_work(run.busy - speed_done)
        speed_done = run.busy

    if not w.fuzz:
        run.replay_sidecars()
    run.generate_fixed_seeds()
    t0 = time.perf_counter()
    cov = run.finish(tracer)
    end_s = time.perf_counter() - t0
    speed.after_work(end_s)
    slow = speed.slowdown()
    completed = len(run.latencies)
    info = {
        "setup_s": statistics.median(setup_times),
        "seeds_per_s": completed / (run.busy + end_s) * slow,
        "seed_ms_p50": 1e3 * statistics.median(run.latencies) / slow,
        "seed_ms_p90": 1e3 * statistics.quantiles(run.latencies, n=10)[-1] / slow,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "intrinsic_coverage": cov,
        "failed_ratio": run.failed / run.attempted,
    }
    lines = [
        f"workload {name} seed {seed}: {completed} seed executions completed, "
        f"{run.attempted} operations attempted, {run.failed} failed",
        f"setup samples (s): {', '.join(f'{t:.3f}' for t in setup_times)}",
        f"host slowdown vs reference speed: {slow:.3f} over {len(speed.samples)} samples; "
        f"unscaled seeds_per_s {completed / (run.busy + end_s):.6g}",
        f"source_digest {run.digest.hexdigest()} (seeds 0..{w.fixed_seeds - 1}, "
        f"modes {','.join(MODES)})",
    ]
    lines += [f"{k} {v:.6g} {INFO_UNITS[k]}" for k, v in info.items()]
    lines += [f"error: {e}" for e in run.errors]

    if tracer is None:
        metrics = {k: (info[k], u) for k, u in END_TO_END_UNITS.items()}
    else:
        metrics = layer_metrics(run, ctx["layers"], tracer, slow, traced_s, untraced_s)
        tracer.write(work / "spans.jsonl")
    _clean_outputs(run.out)
    os.sync()
    return {
        "lines": lines,
        "result": {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def _clean_outputs(out: Path) -> None:
    """Drop the generated sources and binaries; keep report.jsonl."""
    if not out.exists():
        return
    for p in out.iterdir():
        if p.is_dir():
            shutil.rmtree(p)
        elif p.name != "report.jsonl":
            p.unlink()


def layer_metrics(run: Run, setup_layers: dict, tracer, slow: float, traced_s: float,
                  untraced_s: float) -> dict:
    own = tracer.self_times_ns()
    seeds = max(1, run.recorded)
    scale = 1 / slow

    def per_seed(name: str) -> float:
        return own.get(name, 0) * scale / 1e6 / seeds

    toolchain = tracer.children_cpu_ns("difftest.run_case") * scale / 1e6 / seeds
    outcomes = run.outcomes
    values = dict(setup_layers)
    values.update({
        "selection.select_ms": per_seed("selection.select"),
        "dataflow.allocate_ms": per_seed("dataflow.allocate"),
        "codegen.build_self_ms": per_seed("codegen.build"),
        "codegen.analyze_ms": per_seed("codegen.analyze"),
        "scheduling.schedule_ms": per_seed("scheduling.schedule"),
        "codegen.emit_self_ms": per_seed("codegen.emit"),
        "codegen.source_bytes": run.source_bytes / seeds,
        "pipeline.write_ms": per_seed("pipeline.write"),
        "coverage.compute_s": own.get("coverage.compute", 0) * scale / 1e9,
        "oracle.selfcheck_ms": per_seed("oracle.selfcheck"),
        "oracle.checked": run.checked,
        "oracle.attempted": tracer.counts().get("oracle.selfcheck", 0),
        "difftest.run_case_ms": per_seed("difftest.run_case"),
        "difftest.toolchain_ms": toolchain,
        "difftest.harness_ms": per_seed("difftest.run_case") - toolchain,
        "difftest.jobs": len(outcomes),
        "difftest.compile_errors": sum(o.compile_status != "ok" for o in outcomes),
        "difftest.run_crashes": sum(o.run_status == "crash" for o in outcomes),
        "difftest.timeouts": sum("timeout" in (o.compile_status, o.run_status)
                                 for o in outcomes),
        "difftest.compare_ms": per_seed("difftest.compare"),
        "difftest.report_ms": per_seed("difftest.report"),
        "unattributed_ms": per_seed("seed"),
        "trace.seeds": run.recorded,
        "trace.spans": len(tracer.spans),
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0) if untraced_s else 0.0,
    })
    return {k: (values[k], u) for k, u in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="time set-up only and print it (used for setup_s samples)")
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # see HostSpeed
    tmp = WORK / "tmp"  # gcc's temporary files stay inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    try:
        if args.probe_setup:
            print(json.dumps({"setup_s": setup(WORKLOADS[args.workload])["setup_s"]}))
            return 0
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

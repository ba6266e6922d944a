"""Spans around rvvfuzz's public functions, recorded from outside ``src/``.

A ``Tracer`` swaps a wrapper into the module attribute each caller looks
up (``rvvfuzz.codegen.allocate`` for ``build_case``, ``rvvfuzz.pipeline.
run_case`` for ``fuzz_seed`` and so on) and puts the original back on exit.
Each call becomes a span: name, start, end, parent span and seed.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import resource
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name); the name is the layer metric's prefix
WRAPPED = (
    ("rvvfuzz.pipeline", "build_case", "codegen.build"),
    ("rvvfuzz.codegen", "select_sequence", "selection.select"),
    ("rvvfuzz.codegen", "allocate", "dataflow.allocate"),
    ("rvvfuzz.codegen", "analyze_agnostic", "codegen.analyze"),
    ("rvvfuzz.pipeline", "emit_case", "codegen.emit"),
    ("rvvfuzz.codegen", "emit_case", "codegen.emit"),
    ("rvvfuzz.codegen", "build_schedule", "scheduling.schedule"),
    ("rvvfuzz.pipeline", "write_case", "pipeline.write"),
    ("rvvfuzz.pipeline", "self_check", "oracle.selfcheck"),
    ("rvvfuzz.pipeline", "run_case", "difftest.run_case"),
    ("rvvfuzz.pipeline", "compare", "difftest.compare"),
    ("rvvfuzz.difftest", "report", "difftest.report"),
    ("rvvfuzz.coverage", "compute_coverage", "coverage.compute"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in WRAPPED)) + ("seed",)


def _children_cpu_ns() -> int:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((ru.ru_utime + ru.ru_stime) * 1e9)


class Tracer:
    """Span recorder; ``installed()`` wraps the functions in ``WRAPPED``."""

    def __init__(self):
        # one list per span: [name, start_ns, end_ns, parent, seed, child_cpu_ns]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.seed: int | None = None

    @contextmanager
    def span(self, name: str, children_cpu: bool = False):
        rec = [name, time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else None, self.seed, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        cpu = _children_cpu_ns() if children_cpu else 0
        try:
            yield
        finally:
            if children_cpu:
                rec[5] = _children_cpu_ns() - cpu
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        children_cpu = name == "difftest.run_case"

        def traced(*args, **kwargs):
            with self.span(name, children_cpu):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, name in WRAPPED:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), name))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times_ns(self) -> dict[str, int]:
        """Per span name: total duration minus the time its children cover."""
        own = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            own[name] += end - start
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return dict(own)

    def counts(self) -> dict[str, int]:
        out = defaultdict(int)
        for rec in self.spans:
            out[rec[0]] += 1
        return dict(out)

    def children_cpu_ns(self, name: str) -> int:
        return sum(rec[5] for rec in self.spans if rec[0] == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, seed, cpu in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "seed": seed,
                                     "children_cpu_ns": cpu}) + "\n")

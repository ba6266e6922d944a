"""Randomized generator and differential-testing harness for RVV intrinsics."""

from .catalog import build_listing
from .codegen import emit_case
from .coverage import category_breakdown, compute_coverage
from .difftest import CompilerConfig, compare, load_compiler_configs, run_case
from .intrinsics import parse_definitions
from .oracle import evaluate, oracle_subset_listing
from .pipeline import Generator, RunConfig

__version__ = "0.1.0"

__all__ = [
    "CompilerConfig",
    "Generator",
    "RunConfig",
    "build_listing",
    "category_breakdown",
    "compare",
    "compute_coverage",
    "emit_case",
    "evaluate",
    "load_compiler_configs",
    "oracle_subset_listing",
    "parse_definitions",
    "run_case",
]

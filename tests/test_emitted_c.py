"""Type-check emitted programs against a stub header built from the catalog.

The stub declares every catalog prototype over opaque vector structs, so a
host C compiler verifies that each emitted call matches the declared
signature exactly: two independent paths from the same type model.
"""

import shutil
import subprocess

import pytest

from rvvfuzz.codegen import emit_case
from rvvfuzz.pipeline import Generator
from rvvfuzz.types import all_bool_types, all_tuple_types, all_value_types

CC = shutil.which("clang") or shutil.which("cc") or shutil.which("gcc")

pytestmark = pytest.mark.skipif(CC is None, reason="no host C compiler")


def _stub_dir(tmp_path_factory, listing: str):
    d = tmp_path_factory.mktemp("rvv_stub")
    hdr = [
        "#ifndef RVV_STUB_H",
        "#define RVV_STUB_H",
        "#include <stddef.h>",
        "#include <stdint.h>",
    ]
    for i, t in enumerate(all_value_types() + all_tuple_types() + all_bool_types()):
        hdr.append(f"typedef struct {{ int _s{i}; }} {t.cname};")
    hdr += [f"#define __RISCV_FRM_{n} {i}"
            for i, n in enumerate(("RNE", "RTZ", "RDN", "RUP", "RMM"))]
    hdr += [f"#define __RISCV_VXRM_{n} {i}"
            for i, n in enumerate(("RNU", "RNE", "RDN", "ROD"))]
    hdr += listing.splitlines()
    hdr.append("#endif")
    (d / "riscv_vector.h").write_text("\n".join(hdr) + "\n")
    return d


@pytest.fixture(scope="module")
def stub_dir(tmp_path_factory, catalog_listing):
    return _stub_dir(tmp_path_factory, catalog_listing)


@pytest.fixture(scope="module")
def policy_stub_dir(tmp_path_factory, policy_listing):
    return _stub_dir(tmp_path_factory, policy_listing)


def _syntax_check(source: str, name: str, stub_dir) -> str | None:
    src = stub_dir / f"{name}.c"
    src.write_text(source)
    # the host target has no _Float16; rewriting it keeps both the header
    # prototypes and the call sites consistent, so type checks still bite
    r = subprocess.run(
        [CC, "-fsyntax-only", "-std=c11", "-Wall", "-Werror",
         "-Wno-unused-variable", "-Wno-unused-but-set-variable",
         "-D_Float16=short", "-I", str(stub_dir), str(src)],
        capture_output=True, text=True,
    )
    return None if r.returncode == 0 else r.stderr


def test_generated_programs_typecheck(stub_dir, catalog_listing):
    gen = Generator(catalog_listing, seq_len=8, data_len=10)
    failures = []
    for seed in range(12):
        ir = gen.build(seed)
        for mode in ("allin", "unit", "random"):
            case = emit_case(ir, mode)
            err = _syntax_check(case.source, case.name, stub_dir)
            if err:
                failures.append(f"{case.name}:\n{err[:800]}")
    assert not failures, "\n".join(failures)


def test_long_sequences_typecheck(stub_dir, catalog_listing):
    gen = Generator(catalog_listing, seq_len=(1, 40), data_len=(1, 200))
    failures = []
    for seed in range(100, 106):
        case = emit_case(gen.build(seed), "random")
        err = _syntax_check(case.source, case.name, stub_dir)
        if err:
            failures.append(f"{case.name}:\n{err[:800]}")
    assert not failures, "\n".join(failures)


def test_policy_programs_typecheck(policy_stub_dir, policy_gen):
    """Policy-listing seeds, whose masked merges pass vd, against a header
    of the whole policy listing (which must itself be valid C)."""
    failures = []
    for seed in range(8):
        case = emit_case(policy_gen.build(seed), "random")
        err = _syntax_check(case.source, case.name, policy_stub_dir)
        if err:
            failures.append(f"{case.name}:\n{err[:800]}")
    assert not failures, "\n".join(failures)

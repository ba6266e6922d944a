"""Golden byte-identity: the same seed and listing give the same sources.

The digests pin sha256 over ``case.source`` of seeds 0..199 in the modes
allin, unit and random (in that order) for a default ``Generator``.  A
change that alters generated programs on purpose updates them and says so.
"""

import hashlib

import pytest

GOLDEN = {
    "catalog_gen": "c2a36986077c7871baf84fec5be0caac38601868b01c351f1d0ad1ce76002fe5",
    "subset_gen": "1e4def74fd0cb7f50b125f3a17f2e11bdc0be21d2a5b7b1c293fdbd837b5e0cb",
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_sources_byte_identical(fixture, request):
    gen = request.getfixturevalue(fixture)
    h = hashlib.sha256()
    for seed in range(200):
        for case in gen.cases(seed, modes=("allin", "unit", "random")):
            h.update(case.source.encode())
    assert h.hexdigest() == GOLDEN[fixture]

"""Golden byte-identity: the same seed and listing give the same sources,
and the reference evaluator gives the same expected output for them.

The source digests pin sha256 over ``case.source`` of seeds 0..199 in the
modes allin, unit and random (in that order) for a default ``Generator``,
and of seeds 0..99 on the listing with policy variants, whose
``_tu``/``_tum``/``_tumu``/``_mu`` forms take the analysis' merge path.
The evaluator digest pins sha256 over ``evaluate(case, vlen=v,
poison_byte=p)`` of the subset's seeds 0..99 in the same modes, for v in
(64, 512) and p in (0x00, 0xFF), in that order.  A change that alters
generated programs or the evaluator's results on purpose updates them and
says so.
"""

import hashlib

import pytest

from rvvfuzz.oracle import evaluate

GOLDEN = {
    "catalog_gen": "c2a36986077c7871baf84fec5be0caac38601868b01c351f1d0ad1ce76002fe5",
    "subset_gen": "1e4def74fd0cb7f50b125f3a17f2e11bdc0be21d2a5b7b1c293fdbd837b5e0cb",
}
POLICY_GOLDEN = "6b6f72bce73f1ec7dc706b74c66397be13f56dbcf763ebd76e51d5b92aeaa484"
EVALUATOR_GOLDEN = "da9c0bbbdd3dea4c6e8c16b0092f71bf3a63aadbc859142b1149a42de51c0ca3"


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_sources_byte_identical(fixture, request):
    gen = request.getfixturevalue(fixture)
    h = hashlib.sha256()
    for seed in range(200):
        for case in gen.cases(seed, modes=("allin", "unit", "random")):
            h.update(case.source.encode())
    assert h.hexdigest() == GOLDEN[fixture]


def test_policy_sources_byte_identical(policy_gen):
    h = hashlib.sha256()
    for seed in range(100):
        for case in policy_gen.cases(seed, modes=("allin", "unit", "random")):
            h.update(case.source.encode())
    assert h.hexdigest() == POLICY_GOLDEN


def test_evaluator_byte_identical(subset_gen):
    h = hashlib.sha256()
    for seed in range(100):
        for case in subset_gen.cases(seed, modes=("allin", "unit", "random")):
            for vlen in (64, 512):
                for poison in (0x00, 0xFF):
                    h.update(evaluate(case, vlen=vlen, poison_byte=poison).encode())
    assert h.hexdigest() == EVALUATOR_GOLDEN

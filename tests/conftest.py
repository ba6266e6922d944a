import pytest

from rvvfuzz.catalog import build_listing
from rvvfuzz.oracle import oracle_subset_listing
from rvvfuzz.pipeline import Generator


@pytest.fixture(scope="session")
def catalog_listing():
    return build_listing()


@pytest.fixture(scope="session")
def catalog_gen(catalog_listing):
    """Default Generator over the built-in catalog; pools are shared by
    every test of the session."""
    return Generator(catalog_listing)


@pytest.fixture(scope="session")
def catalog_defs(catalog_gen):
    return catalog_gen.defs


@pytest.fixture(scope="session")
def subset_gen():
    """Default Generator over the reference evaluator's subset."""
    return Generator(oracle_subset_listing())


@pytest.fixture(scope="session")
def policy_listing():
    return build_listing(policy=True)


@pytest.fixture(scope="session")
def policy_gen(policy_listing):
    """Default Generator over the listing with tail/mask policy variants."""
    return Generator(policy_listing)

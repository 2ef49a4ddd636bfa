import pytest

from nstl import nonstandard


@pytest.fixture(autouse=True)
def fresh_certificates():
    """certify_rank caches each rank it proves: every test, and so every
    test that patches something a certificate reads, starts and ends
    with an empty cache, so a fault patched in meets a fresh proof and
    no proof made under a patch outlives it."""
    nonstandard.certify_rank.cache_clear()
    yield
    nonstandard.certify_rank.cache_clear()

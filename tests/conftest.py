import dataclasses

import pytest

from nstl import nonstandard, seminormal
from nstl.specht_modules import build_specht


@pytest.fixture(autouse=True)
def fresh_certificates():
    """certify_rank caches each rank it proves: every test, and so every
    test that patches something a certificate reads, starts and ends
    with an empty cache, so a fault patched in meets a fresh proof and
    no proof made under a patch outlives it."""
    nonstandard.certify_rank.cache_clear()
    yield
    nonstandard.certify_rank.cache_clear()


@pytest.fixture
def gt_fault(monkeypatch):
    """gt_fault(lam, **fields): seminormal._gt_basis serves the GT basis
    of the shape lam with those fields (g, E) replaced, and every other
    shape as it is. X^-1 of lam, which reads E, is formed first, so the
    Specht module's cache keeps no value read under the fault; the
    caller clears the library caches that read g or E."""

    def serve(lam, **fields):
        real = seminormal._gt_basis
        build_specht(lam).transition_inv
        bad = dataclasses.replace(real(lam.parts), **fields)
        monkeypatch.setattr(
            seminormal,
            "_gt_basis",
            lambda parts: bad if parts == lam.parts else real(parts),
        )

    return serve

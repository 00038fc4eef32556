"""Shared helpers: one seeded RNG per test, with the seed printed and settable.

Set ZINTERP_TEST_SEED to rerun the randomized suites with a different seed.
"""

import os
import random

import pytest

from zinterp.algebra import Poly
from zinterp.formula import PolyStructure

SEED = int(os.environ.get("ZINTERP_TEST_SEED", "20260819"))


def pytest_report_header(config):
    return f"zinterp randomized-test seed: {SEED} (env ZINTERP_TEST_SEED)"


@pytest.fixture
def rng():
    return random.Random(SEED)


def random_poly(rng, p, max_deg, nonzero=False):
    """Uniform random polynomial of degree <= max_deg (coefficients i.i.d.)."""
    lo = -9 if p == 0 else 0
    hi = 9 if p == 0 else p - 1
    while True:
        f = Poly([rng.randint(lo, hi) for _ in range(max_deg + 1)], p)
        if not (nonzero and f.is_zero()):
            return f


class FreshConstants(PolyStructure):
    """F_p[t] whose constant() returns a new object on every call: a memo
    that let go of its argument values would see their ids reused."""

    def constant(self, name):
        return Poly(super().constant(name).coeffs, self.p)

"""Shared generators for randomized algebra tests.

A deterministic series generator (seeded random.Random) backs both the
hypothesis strategies and the large seeded loops in the acceptance suite.
Hypothesis runs under its built-in ``ci`` profile everywhere: derandomized
and without an example database, so every run draws the same examples.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from hrw.field import DEFAULT_FIELD, Field, HyperReal

settings.load_profile("ci")

EXPONENT_GRID = [Fraction(k, d) for d in (1, 2, 3) for k in range(-6, 13)]


def rand_fraction(rng: random.Random, lo: int = -50, hi: int = 50) -> Fraction:
    num = rng.randint(lo, hi)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 20))


def rand_hyper(
    rng: random.Random,
    field: Field = DEFAULT_FIELD,
    max_terms: int = 4,
    limited: bool = False,
    infinitesimal: bool = False,
    nonzero: bool = False,
) -> HyperReal:
    grid = [e for e in EXPONENT_GRID if (not limited or e >= 0) and (not infinitesimal or e > 0)]
    count = rng.randint(1 if nonzero else 0, max_terms)
    exps = rng.sample(grid, count) if count else []
    return HyperReal(
        [(e, rand_fraction(rng)) for e in exps], field.window, field.precision
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)


@pytest.fixture
def field() -> Field:
    return DEFAULT_FIELD

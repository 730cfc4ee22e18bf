"""Shared pieces of the workloads: the operation record and result checks."""

from __future__ import annotations

import importlib
from decimal import Decimal
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

import oracle

TOL = Decimal("1e-30")


class Op(NamedTuple):
    """One timed call into ``hrw``.

    ``run`` performs the call and returns its output; ``check`` inspects that
    output outside the timed region and returns an error message or None.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def agree(got, want, tol: Decimal = TOL) -> bool:
    """Exact equality against an exact oracle value, else within ``tol``."""
    if isinstance(want, Fraction) and isinstance(got, Fraction):
        return got == want
    return oracle.close(got, want, tol)


def mismatch(what: str, got, want) -> str:
    return f"{what}: got {got}, want {want}"


class Hrw:
    """The freshly imported ``hrw`` modules a workload calls into.

    Operations look functions up on these module objects at call time, so the
    traced run sees the wrapped versions.
    """

    def __init__(self):
        imp = importlib.import_module
        self.hrw = imp("hrw")
        self.field = imp("hrw.field")
        self.exprs = imp("hrw.exprs")
        self.calculus = imp("hrw.calculus")
        self.integration = imp("hrw.integration")
        self.cli = imp("hrw.cli")
        self.approx = imp("hrw.approx")
        self.rationals = imp("hrw.rationals")

    def parse(self, text: str):
        return self.exprs.parse(text)

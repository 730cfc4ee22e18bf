"""Small tests of the oracle against published digits and exact identities.

Run with ``python3 -m pytest bench/test_oracle.py`` or ``python3 bench/test_oracle.py``.
"""

from decimal import Decimal
from fractions import Fraction
from math import factorial

import oracle

# Published expansions, 60 decimals each.
PI = "3.141592653589793238462643383279502884197169399375105820974944"
E = "2.718281828459045235360287471352662497757247093699959574966967"
LN2 = "0.693147180559945309417232121458176568075500134360255254120680"


def _agree(value: Decimal, digits: str) -> bool:
    return abs(value - Decimal(digits)) < Decimal("1e-59")


def test_pi_digits():
    assert _agree(oracle.pi(), PI)


def test_e_digits():
    assert _agree(oracle.exp(1), E)


def test_ln2_digits():
    assert _agree(oracle.ln(2), LN2)


def test_sin_cos_identities():
    s, c = oracle.sin_cos(Fraction(7, 3))
    assert abs(s * s + c * c - 1) < Decimal("1e-60")
    assert abs(oracle.sin(oracle.pi() / 6) - Decimal("0.5")) < Decimal("1e-60")
    assert abs(oracle.cos(100 * oracle.pi())) - 1 < Decimal("1e-55")


def test_faulhaber_matches_direct_sum():
    p = [Fraction(1), Fraction(-2, 3), Fraction(0), Fraction(5, 7), Fraction(1, 2)]
    a, b, m = Fraction(-1, 3), Fraction(2), 17
    h = (b - a) / m
    for theta in (Fraction(0), Fraction(1, 2), Fraction(1)):
        direct = sum(oracle.poly_eval(p, a + (k + theta) * h) * h for k in range(m))
        assert oracle.riemann_closed_form(p, a, b, m, theta) == direct


def test_taylor_shift_and_series():
    p = [Fraction(2), Fraction(0), Fraction(-1), Fraction(1)]  # x^3 - x^2 + 2
    jet = oracle.taylor_shift(p, Fraction(3, 2))
    assert jet[0] == oracle.poly_eval(p, Fraction(3, 2))
    assert jet[1] == oracle.poly_eval(oracle.poly_deriv(p), Fraction(3, 2))
    # exp(t) jet: 1/k!
    ex = oracle.ser_exp([Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
    for k, c in enumerate(ex):
        assert oracle.close(c, Fraction(1, factorial(k)), Decimal("1e-65"))
    # ln(1 + t) jet: (-1)^(k+1)/k
    lg = oracle.ser_ln([Fraction(1), Fraction(1), Fraction(0), Fraction(0)])
    assert [oracle.close(c, q, Decimal("1e-65")) for c, q in
            zip(lg, [0, 1, Fraction(-1, 2), Fraction(1, 3)])] == [True] * 4
    # sqrt(1 + t)^2 == 1 + t
    r = oracle.ser_sqrt([Fraction(1), Fraction(1), Fraction(0), Fraction(0)])
    sq = oracle.ser_mul(r, r)
    assert [oracle.close(c, q, Decimal("1e-65")) for c, q in zip(sq, [1, 1, 0, 0])] == [True] * 4


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)

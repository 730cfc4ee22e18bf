"""Constant approximation kernel: accuracy, exactness, determinism."""

from fractions import Fraction as F

import pytest

from hrw import approx
from hrw.errors import ApproxOverflow, DivisionByZero, DomainError

# 50-digit references, checked far beyond the 40-digit working precision
PI = F("3.14159265358979323846264338327950288419716939937511")
E = F("2.71828182845904523536028747135266249775724709369996")
LN2 = F("0.69314718055994530941723212145817656807550013436026")
SIN1 = F("0.84147098480789650665250232163029899962256306079837")
COS1 = F("0.54030230586813971740093660744297660373231042061792")
SQRT2 = F("1.41421356237309504880168872420969807856967187537694")

TOL = F(1, 10**40)


def test_pi():
    assert abs(approx.pi_approx(40) - PI) < TOL


def test_exp_one():
    assert abs(approx.exp_approx(F(1), 40) - E) < TOL


def test_ln_two():
    assert abs(approx.ln_approx(F(2), 40) - LN2) < TOL


def test_sin_cos_one():
    assert abs(approx.sin_approx(F(1), 40) - SIN1) < TOL
    assert abs(approx.cos_approx(F(1), 40) - COS1) < TOL


def test_sqrt_two():
    assert abs(approx.sqrt_approx(F(2), 40) - SQRT2) < TOL


def test_pythagorean_identity_residual():
    s = approx.sin_approx(F(7, 3), 40)
    c = approx.cos_approx(F(7, 3), 40)
    assert abs(s * s + c * c - 1) < 4 * TOL


def test_angle_reduction():
    # sin stays accurate for arguments far beyond one period
    sin100 = F("-0.50636564110975879365655761045978543206503272129066")
    assert abs(approx.sin_approx(F(100), 40) - sin100) < 10 * TOL


def test_tan_agrees_with_ratio():
    t = approx.tan_approx(F(1), 40)
    assert abs(t - SIN1 / COS1) < 4 * TOL


def test_tan_near_pole_rejected():
    half_pi = approx.pi_approx(60) / 2
    with pytest.raises(DomainError):
        approx.tan_approx(half_pi, 40)


def test_exact_shortcuts():
    assert approx.sqrt_approx(F(4), 40) == 2
    assert approx.sqrt_approx(F(9, 16), 40) == F(3, 4)
    assert approx.nth_root_approx(F(8), 3, 40) == 2
    assert approx.pow_approx(F(9, 4), F(3, 2), 40) == F(27, 8)
    assert approx.sin_approx(F(0), 40) == 0
    assert approx.cos_approx(F(0), 40) == 1
    assert approx.ln_approx(F(1), 40) == 0
    assert approx.exp_approx(F(0), 40) == 1


def test_sqrt_scale_coherence():
    # perfect-square denominators factor out, so scaled sums telescope exactly
    root5 = approx.sqrt_approx(F(5), 40)
    for m in (4, 64, 4096):
        assert approx.sqrt_approx(F(5, m * m), 40) == root5 / m


def test_exp_underflow_to_zero():
    assert approx.exp_approx(F(-1000), 40) == 0


def test_exp_overflow_guard():
    with pytest.raises(ApproxOverflow):
        approx.exp_approx(F(10**6), 40)


def test_huge_integer_power_reroutes():
    v = approx.pow_approx(F(1, 2), F(2**40), 40)
    assert v == 0  # underflows cleanly instead of materializing 2^-2^40


def test_integer_power_size_cap():
    # 3 takes 3 bits (numerator and denominator), so 3^66666 is just under the cap
    assert approx.int_pow(F(3), 66666, 40) == F(3) ** 66666
    with pytest.raises(ApproxOverflow):
        approx.int_pow(F(3), 66667, 40)
    assert approx.int_pow(F(3), -66667, 40) == 0
    assert approx.int_pow(F(0), 66667, 40) == 0
    with pytest.raises(DivisionByZero):
        approx.int_pow(F(0), -66667, 40)


def test_pow_domain_errors():
    with pytest.raises(DivisionByZero):
        approx.pow_approx(F(0), F(-1), 40)
    with pytest.raises(DomainError):
        approx.pow_approx(F(-2), F(1, 2), 40)


def test_precision_parameter_scales():
    coarse = approx.pi_approx(5)
    assert abs(coarse - PI) < F(1, 10**5)
    assert coarse.denominator <= 10**5


def test_determinism_same_object():
    a = approx.sin_approx(F(7, 11), 40)
    b = approx.sin_approx(F(7, 11), 40)
    assert a == b

from fractions import Fraction

import pytest

from lihopf.algebra import H, Element, gen_elem, log
from lihopf.series import TruncatedSeries


def x(i):
    return gen_elem(log(i))


def test_constant_and_coefficient():
    s = TruncatedSeries.constant(x(1), 2, H, caps=(2, 1))
    assert s.coefficient((0, 0)) == x(1)
    assert s.coefficient((1, 0)).is_zero()


def test_mul_respects_caps_exactly():
    # (1 + t0)^4 truncated at cap 2 must carry binomials 1,4,6
    one = TruncatedSeries.constant(1, 1, H, caps=(2,))
    t = one.linear_form([(0, 1)])
    p = one + t
    s = p * p * p * p
    assert s.coefficient((0,)) == Element.one(H)
    assert s.coefficient((1,)) == Element.constant(4, H)
    assert s.coefficient((2,)) == Element.constant(6, H)
    assert s.coefficient((3,)).is_zero()


def test_total_cap():
    one = TruncatedSeries.constant(1, 2, H, total_cap=2)
    s = one.linear_form([(0, 1), (1, 1)])   # t0 + t1
    sq = s * s
    assert sq.coefficient((1, 1)) == Element.constant(2, H)
    assert (sq * s).terms == {}              # everything exceeds total degree 2


def test_exp_linear():
    one = TruncatedSeries.constant(1, 1, H, caps=(3,))
    e = one.exp_linear(x(1), [(0, 1)])
    assert e.coefficient((0,)) == Element.one(H)
    assert e.coefficient((1,)) == x(1)
    assert e.coefficient((2,)) == x(1) * x(1) * Fraction(1, 2)
    assert e.coefficient((3,)) == x(1) ** 3 * Fraction(1, 6)


def test_exp_linear_multiplies_like_exp():
    one = TruncatedSeries.constant(1, 2, H, total_cap=3)
    a = one.exp_linear(x(1), [(0, 1)])
    b = one.exp_linear(x(1), [(1, 1)])
    both = one.exp_linear(x(1), [(0, 1), (1, 1)])
    assert a * b == both


def test_substitute_linear_homogeneous():
    # start from (t0 + 2 t1)^2 in two vars, substitute t0 -> s0 - s1, t1 -> s1
    one = TruncatedSeries.constant(1, 2, H, total_cap=2)
    f = one.linear_form([(0, 1), (1, 2)])
    sq = f * f
    g = sq.substitute({0: [(0, 1), (1, -1)], 1: [(1, 1)]}, 2, total_cap=2)
    # (s0 - s1 + 2 s1)^2 = (s0 + s1)^2
    exp = one.linear_form([(0, 1), (1, 1)])
    assert g == exp * exp


def test_substitute_exactness_under_truncation():
    # substitution is degree-preserving, so truncating before or after agrees
    big = TruncatedSeries.constant(1, 2, H, total_cap=6)
    f = big.linear_form([(0, 1), (1, 1)])
    p = f * f * f
    images = {0: [(0, 2)], 1: [(0, 1), (1, 1)]}
    low_after = {e: c for e, c in
                 p.substitute(images, 2, total_cap=6).terms.items()
                 if sum(e) <= 3}
    low_before = p.substitute(images, 2, total_cap=3).terms
    assert low_after == low_before


def test_divide_var_exact():
    one = TruncatedSeries.constant(1, 2, H, caps=(2, 2))
    t0 = one.linear_form([(0, 1)])
    s = t0 * one.linear_form([(0, 1), (1, 1)])
    q = s.divide_var(0)
    assert q == one.linear_form([(0, 1), (1, 1)])


def test_divide_var_detects_pole():
    one = TruncatedSeries.constant(1, 2, H, caps=(2, 2))
    s = one + one.linear_form([(0, 1)])
    with pytest.raises(ArithmeticError):
        s.divide_var(0)

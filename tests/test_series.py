from fractions import Fraction

import pytest

from lihopf.algebra import H, Element, gen_elem, log
from lihopf.coproduct import _inv_series, _inv_series_on
from lihopf.lincomb import clear_caches
from lihopf.series import TruncatedSeries


def x(i):
    return gen_elem(log(i))


def test_constant_and_coefficient():
    s = TruncatedSeries(H, (2, 1)).constant(x(1))
    assert s.coefficient((0, 0)) == x(1)
    assert s.coefficient((1, 0)).is_zero()


def test_mul_respects_caps_exactly():
    # (1 + t0)^4 truncated at cap 2 must carry binomials 1,4,6
    one = TruncatedSeries(H, (2,)).constant(1)
    t = one.linear_form([(0, 1)])
    p = one + t
    s = p * p * p * p
    assert s.coefficient((0,)) == Element.one(H)
    assert s.coefficient((1,)) == Element.constant(4, H)
    assert s.coefficient((2,)) == Element.constant(6, H)
    assert s.coefficient((3,)).is_zero()


def test_total_cap():
    one = TruncatedSeries(H, (2, 2), 2).constant(1)
    s = one.linear_form([(0, 1), (1, 1)])   # t0 + t1
    sq = s * s
    assert sq.coefficient((1, 1)) == Element.constant(2, H)
    assert (sq * s).terms == {}              # everything exceeds total degree 2


def test_exp_linear():
    one = TruncatedSeries(H, (3,)).constant(1)
    e = one.exp_linear(x(1), [(0, 1)])
    assert e.coefficient((0,)) == Element.one(H)
    assert e.coefficient((1,)) == x(1)
    assert e.coefficient((2,)) == x(1) * x(1) * Fraction(1, 2)
    assert e.coefficient((3,)) == x(1) ** 3 * Fraction(1, 6)


def test_exp_linear_multiplies_like_exp():
    one = TruncatedSeries(H, (3, 3), 3).constant(1)
    a = one.exp_linear(x(1), [(0, 1)])
    b = one.exp_linear(x(1), [(1, 1)])
    both = one.exp_linear(x(1), [(0, 1), (1, 1)])
    assert a * b == both


def test_substitute_linear_homogeneous():
    # start from (t0 + 2 t1)^2 in two vars, substitute t0 -> s0 - s1, t1 -> s1
    one = TruncatedSeries(H, (2, 2), 2).constant(1)
    f = one.linear_form([(0, 1), (1, 2)])
    sq = f * f
    g = sq.substitute({0: [(0, 1), (1, -1)], 1: [(1, 1)]}, one)
    # (s0 - s1 + 2 s1)^2 = (s0 + s1)^2
    exp = one.linear_form([(0, 1), (1, 1)])
    assert g == exp * exp


def test_substitute_exactness_under_truncation():
    # substitution is degree-preserving, so truncating before or after agrees
    big = TruncatedSeries(H, (6, 6), 6).constant(1)
    f = big.linear_form([(0, 1), (1, 1)])
    p = f * f * f
    images = {0: [(0, 2)], 1: [(0, 1), (1, 1)]}
    low_after = {e: c for e, c in
                 p.substitute(images, big).terms.items()
                 if sum(e) <= 3}
    low_before = p.substitute(images, TruncatedSeries(H, (3, 3), 3)).terms
    assert low_after == low_before


def test_divide_var_exact():
    one = TruncatedSeries(H, (2, 2)).constant(1)
    t0 = one.linear_form([(0, 1)])
    s = t0 * one.linear_form([(0, 1), (1, 1)])
    q = s.divide_var(0)
    assert q == one.linear_form([(0, 1), (1, 1)])


def test_divide_var_detects_pole():
    one = TruncatedSeries(H, (2, 2)).constant(1)
    s = one + one.linear_form([(0, 1)])
    with pytest.raises(ArithmeticError):
        s.divide_var(0)


def test_shapes_are_canonical():
    # a cap above the total is clipped to it; the total defaults to, and
    # never exceeds, the sum of the caps
    s = TruncatedSeries(H, (5, 1), 2)
    assert (s.caps, s.total) == ((2, 1), 2)
    assert TruncatedSeries(H, (3, 3)).total == 6
    assert TruncatedSeries(H, (1, 1), 9).total == 2
    # two spellings of one kept set are one shape
    assert TruncatedSeries(H, (2, 2), 2) == TruncatedSeries(H, (4, 4), 2)
    assert TruncatedSeries(H, (2, 2), 2) != TruncatedSeries(H, (2, 2), 3)


def test_equal_demands_share_one_inversion_series():
    # the same kept set, spelled with loose caps and with a cap on a
    # variable the bracket does not use, is one cache entry
    p, vars_ = (1, 2, 3), [0, 1]
    clear_caches()
    first = _inv_series(p, vars_, TruncatedSeries(H, (2, 2, 0), 2))
    info = _inv_series_on.cache_info()
    second = _inv_series(p, vars_, TruncatedSeries(H, (4, 4, 7), 2))
    again = _inv_series_on.cache_info()
    assert second is first
    assert (again.misses, again.hits) == (info.misses, info.hits + 1)

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


# ---------------------------------------------------------------------------
# the common denominator: a series is terms / den

def _integral(s):
    return all(type(v) is int for c in s.terms.values()
               for v in c.terms.values())


def test_exp_linear_has_integer_numerators_over_k_factorial():
    # the highest kept power of t0 is K = 3: den 3! = 6, numerators 6/k!
    one = TruncatedSeries(H, (3,)).constant(1)
    e = one.exp_linear(x(1), [(0, 1)])
    assert e.den == 6 and _integral(e)
    assert e.terms[(2,)] == x(1) * x(1) * 3
    # the total allows t0^4, but lin^2 already vanishes on cap 1: K = 1
    one = TruncatedSeries(H, (1, 3), 4).constant(1)
    e = one.exp_linear(x(1), [(0, 1)])
    assert e.den == 1 and _integral(e)
    # K is capped by the total
    one = TruncatedSeries(H, (3, 3), 2).constant(1)
    e = one.exp_linear(x(1) + x(2), [(0, 1), (1, 1)])
    assert e.den == 2 and _integral(e)


def test_sum_over_denominators_2_and_6_is_the_rational_sum():
    shape = TruncatedSeries(H, (2, 1))
    ta = {(0, 0): x(1), (1, 0): x(2), (1, 1): x(1) * 3}
    tb = {(0, 0): x(1) * 3, (0, 1): x(2), (1, 1): x(1) * -9}
    a, b = shape._like(ta, 2), shape._like(tb, 6)
    fa = TruncatedSeries(H, (2, 1), terms={
        e: c * Fraction(1, 2) for e, c in ta.items()})
    fb = TruncatedSeries(H, (2, 1), terms={
        e: c * Fraction(1, 6) for e, c in tb.items()})
    for got, want in ((a + b, fa + fb), (a - b, fa - fb), (b - a, fb - fa)):
        assert got.den == 6 and _integral(got)
        assert got == want and want == got
        for e in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)):
            assert got.coefficient(e) == want.coefficient(e)
    # 3 x(1) / 2 - 9 x(1) / 6 cancels
    assert (1, 1) not in (a + b).terms
    assert (a + b).coefficient((0, 0)) == x(1)
    assert type((a + b).coefficient((0, 0)).terms[(log(1),)]) is int


def test_equality_holds_across_denominators():
    s = TruncatedSeries(H, (2, 2)).constant(x(1)) \
        + TruncatedSeries(H, (2, 2)).linear_form([(0, 3), (1, -1)])
    twice = s._like(s.scale(2).terms, 2)
    assert twice.den == 2 and s.den == 1
    assert twice == s and s == twice
    assert s._like(s.terms, 2) != s
    assert twice.coefficient((1, 0)) == Element.constant(3, H)
    assert type(twice.coefficient((1, 0)).constant_term()) is int


def test_divide_substitute_and_conform_keep_the_denominator():
    one = TruncatedSeries(H, (2, 2)).constant(1)
    t0 = one.linear_form([(0, 1)])
    s = t0._like((t0 * one.linear_form([(0, 1), (1, 1)])).terms, 6)
    q = s.divide_var(0)
    assert q.den == 6
    assert q * 6 == one.linear_form([(0, 1), (1, 1)])
    sub = s.substitute({0: [(1, 1)], 1: [(0, 1)]}, one)
    assert sub.den == 6
    assert sub * 6 == (t0 * one.linear_form([(0, 1), (1, 1)])).substitute(
        {0: [(1, 1)], 1: [(0, 1)]}, one)
    tight = TruncatedSeries(H, (1, 1), 1)
    c = tight._conform(s)
    assert c.den == 6 and (c.caps, c.total) == ((1, 1), 1)
    assert set(c.terms) == set(s.terms) & {(0, 0), (1, 0), (0, 1)}



def _sum_parts():
    """Series whose sum rescales: denominators 6, 1, 2 and 6, the last of
    a wider truncation; self (den 6, the lcm) and the last part keep
    their coefficients, so a sum that wrote into them would show."""
    shape = TruncatedSeries(H, (2, 1))
    wide = TruncatedSeries(H, (3, 2), 4)
    e = x(1) * 2 + x(2)
    head = shape._like({(0, 0): e, (1, 0): x(2) * 5, (2, 1): x(1)}, 6)
    parts = [shape._like({(0, 0): e, (1, 1): x(1)}),
             shape._like({(0, 0): e, (0, 1): x(1) * 3}, 2),
             wide._like({(0, 0): e, (1, 0): x(2), (3, 0): x(1),
                         (1, 2): x(2)}, 6)]
    return head.frozen(), [p.frozen() for p in parts]


def _values(s):
    return {e: s.coefficient(e) for e in s.terms}


def test_sum_over_denominators_and_truncations_is_the_chained_sum():
    head, parts = _sum_parts()
    assert [head.den] + [p.den for p in parts] == [6, 1, 2, 6]
    before = [_values(s) for s in [head] + parts]
    got = head.sum(parts)
    assert [_values(s) for s in [head] + parts] == before
    fresh_head, fresh_parts = _sum_parts()
    want = fresh_head
    for p in fresh_parts:
        want = want + p
    assert got == want and got.den == 6 and _integral(got)
    assert (got.caps, got.total) == (head.caps, head.total)
    assert (3, 0) not in got.terms and (1, 2) not in got.terms
    assert got.coefficient((0, 0)) == (x(1) * 2 + x(2)) * Fraction(11, 6)


def test_series_sum_of_no_parts_is_an_equal_copy():
    head, _ = _sum_parts()
    copy = head.sum([])
    assert copy == head and copy is not head and copy.den == head.den
    assert copy.sum([head]) == head * 2
    assert _values(head) == _values(_sum_parts()[0])

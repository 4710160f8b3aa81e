import itertools
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from lihopf.algebra import H, HBAR, Element, gen_elem, li, log
from lihopf.coproduct import _bracket_series, _inv_series, _inv_series_on
from lihopf.lincomb import clear_caches
from lihopf.series import LIMIT, TruncatedSeries


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
                 p.substitute(images, big).coefficients().items()
                 if sum(e) <= 3}
    low_before = p.substitute(images,
                              TruncatedSeries(H, (3, 3), 3)).coefficients()
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


def test_fields_hold_exponents_up_to_the_limit_and_no_further():
    # every exponent field, the total's included, holds at most LIMIT; a
    # shape one past it raises before it holds a term, and a product at
    # the limit neither wraps nor carries into the next field
    TruncatedSeries(H, (LIMIT + 1,), LIMIT)   # canonical caps (LIMIT,)
    for caps, total in (((LIMIT + 1,), None), ((LIMIT, 1), None),
                        ((LIMIT, LIMIT), LIMIT + 1)):
        with pytest.raises(ValueError):
            TruncatedSeries(H, caps, total)
    shape = TruncatedSeries(H, (LIMIT, LIMIT), LIMIT)
    t0, t1 = shape.linear_form([(0, 1)]), shape.linear_form([(1, 1)])
    high = shape._like({(LIMIT - 1, 0): x(1)})
    assert (high * t0).coefficients() == {(LIMIT, 0): x(1)}
    assert (high * t1).coefficients() == {(LIMIT - 1, 1): x(1)}
    for past in (high * t0 * t0, high * t1 * t1, high * high):
        assert past.terms == {}


def test_an_exponent_of_another_length_raises():
    # the fields of a key are the shape's variables: an exponent that
    # names more or fewer of them is an error, not a term to drop
    shape = TruncatedSeries(H, (2, 2))
    for e in ((1,), (0, 1, 0), ()):
        with pytest.raises(ValueError):
            shape._like({e: x(1)})
        with pytest.raises(ValueError):
            TruncatedSeries(H, (2, 2), None, {e: 1})


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


def test_bracket_series_has_one_bracket_per_weight_tuple():
    # slot u carries t_u, so t0^a t1^b holds the bracket of weights
    # (a + 1, b + 1) alone, over den 1
    shape = TruncatedSeries(HBAR, (1, 2))
    s = _bracket_series(shape, (1, 2, 3), [[(0, 1)], [(1, 1)]], False)
    assert s.den == 1 and len(s.terms) == 6
    for a in range(2):
        for b in range(3):
            assert s.coefficient((a, b)) == gen_elem(
                li((1, 2, 3), (a + 1, b + 1)), HBAR)
    with pytest.raises(ValueError):
        _bracket_series(shape, (1, 2, 3), [[(0, Fraction(1, 2))], [(1, 1)]],
                        False)


# ---------------------------------------------------------------------------
# the common denominator: a series is terms / den

def _integral(s):
    return all(type(v) is int for v in s.terms.values())


def _numerators(s, e):
    """The numerators stored at exponent e, as an Element."""
    return s.coefficient(e) * s.den


def test_exp_linear_has_integer_numerators_over_k_factorial():
    # the highest kept power of t0 is K = 3: den 3! = 6, numerators 6/k!
    one = TruncatedSeries(H, (3,)).constant(1)
    e = one.exp_linear(x(1), [(0, 1)])
    assert e.den == 6 and _integral(e)
    assert _numerators(e, (2,)) == x(1) * x(1) * 3
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
    assert (1, 1) not in (a + b).coefficients()
    assert (a + b).coefficient((0, 0)) == x(1)
    assert type((a + b).coefficient((0, 0)).terms[(log(1),)]) is int


def test_equality_holds_across_denominators():
    s = TruncatedSeries(H, (2, 2)).constant(x(1)) \
        + TruncatedSeries(H, (2, 2)).linear_form([(0, 3), (1, -1)])
    twice = s._like(s.scale(2).coefficients(), 2)
    assert twice.den == 2 and s.den == 1
    assert twice == s and s == twice
    assert s._like(s.coefficients(), 2) != s
    assert twice.coefficient((1, 0)) == Element.constant(3, H)
    assert type(twice.coefficient((1, 0)).constant_term()) is int


def test_divide_substitute_and_conform_keep_the_denominator():
    one = TruncatedSeries(H, (2, 2)).constant(1)
    t0 = one.linear_form([(0, 1)])
    s = t0._like((t0 * one.linear_form([(0, 1), (1, 1)])).coefficients(), 6)
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
    assert set(c.coefficients()) == (set(s.coefficients())
                                     & {(0, 0), (1, 0), (0, 1)})



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
    return s.coefficients()


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
    assert (3, 0) not in _values(got) and (1, 2) not in _values(got)
    assert got.coefficient((0, 0)) == (x(1) * 2 + x(2)) * Fraction(11, 6)


def test_series_sum_of_no_parts_is_an_equal_copy():
    head, _ = _sum_parts()
    copy = head.sum([])
    assert copy == head and copy is not head and copy.den == head.den
    assert copy.sum([head]) == head * 2
    assert _values(head) == _values(_sum_parts()[0])


# ---------------------------------------------------------------------------
# laws on small random series: the flat (exponent, monomial) layout against
# products of coefficients read through ``coefficient``

LAW_SHAPE = TruncatedSeries(H, (2, 2), 3)
LAW_GENS = [log(1), log(2), li((1, 2), (1,))]
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
LAW_ELEMENTS = st.dictionaries(
    st.lists(st.sampled_from(LAW_GENS), max_size=2).map(
        lambda gs: tuple(sorted(gs))),
    RATIONALS, max_size=3).map(lambda t: Element(H, t))
LAW_SERIES = st.tuples(
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    LAW_ELEMENTS, max_size=4),
    st.sampled_from([1, 2, 6])).map(lambda t: LAW_SHAPE._like(*t))
LINEAR_IMAGES = st.lists(st.tuples(st.integers(0, 1), st.fractions(
    min_value=-2, max_value=2, max_denominator=2)), min_size=1, max_size=2)


def _bounded_exponents(n):
    """Exponent tuples of n variables of total at most LIMIT, any one
    entry of them up to LIMIT itself."""
    def fill(e):
        if len(e) == n:
            return st.permutations(e).map(tuple)
        return st.integers(0, LIMIT - sum(e)).flatmap(
            lambda k: fill(e + (k,)))
    return fill(())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.dictionaries(
    _bounded_exponents(n), LAW_ELEMENTS | RATIONALS, max_size=4).map(
        lambda terms: (n, terms))))
def test_keys_decode_to_what_was_stored_up_to_the_field_limit(case):
    n, terms = case
    got = TruncatedSeries(H, (LIMIT,) * n, LIMIT)._like(terms).coefficients()
    want = {e: c if isinstance(c, Element) else Element.constant(c, H)
            for e, c in terms.items()}
    assert got == {e: c for e, c in want.items() if not c.is_zero()}


def _box(shape):
    return [e for e in itertools.product(*(range(c + 1) for c in shape.caps))
            if sum(e) <= shape.total]


@settings(max_examples=40, deadline=None)
@given(LAW_SERIES, LAW_SERIES)
def test_product_coefficients_are_the_truncated_cauchy_sums(a, b):
    got = a * b
    box = _box(LAW_SHAPE)
    for e in box:
        want = Element.zero(H).sum(
            a.coefficient(e1) * b.coefficient(e2) for e1 in box for e2 in box
            if tuple(map(add, e1, e2)) == e)
        assert got.coefficient(e) == want, e


@settings(max_examples=40, deadline=None)
@given(LAW_SERIES, LAW_ELEMENTS)
def test_an_element_scales_like_a_constant_series(a, c):
    assert a * c == c * a == a * a.constant(c)


@settings(max_examples=40, deadline=None)
@given(LAW_SERIES, LINEAR_IMAGES, LINEAR_IMAGES)
def test_substitute_is_the_product_of_the_linear_images(s, im0, im1):
    images = {0: im0, 1: im1}
    target = TruncatedSeries(H, (3, 3), 3)
    lins = [target.linear_form(images[v]) for v in (0, 1)]
    want = target._like()
    for e, c in s.coefficients().items():
        piece = target.constant(c)
        for v, k in enumerate(e):
            for _ in range(k):
                piece = piece * lins[v]
        want = want + piece
    assert s.substitute(images, target) == want


@settings(max_examples=40, deadline=None)
@given(LAW_SERIES, LAW_SERIES, LAW_ELEMENTS, RATIONALS)
def test_numerators_stay_ints(a, b, c, r):
    exp = LAW_SHAPE.exp_linear(c, [(0, 1), (1, -1)])
    results = [a, exp, a.scale(r), a * r, a * c, a.sum([b, exp]), a - b,
               a * b]
    for x in results:
        assert _integral(x) and x.den >= 1, x
    # the exponential is exact: e^{c t0} e^{-c t1} = e^{c (t0 - t1)}
    assert exp == (LAW_SHAPE.exp_linear(c, [(0, 1)])
                   * LAW_SHAPE.exp_linear(c, [(1, -1)]))

"""The shared sparse-combination core: the group laws of addition, zero
pruning and shape-aware equality, checked on all eight algebras."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lihopf.algebra import H, HBAR, Element, li, log
from lihopf.forms import Form, Poly
from lihopf.iterint import ONE, ZERO, IElement, IGenerator, InvProduct, ITensor
from lihopf.lincomb import as_fraction
from lihopf.series import TruncatedSeries
from lihopf.tensor import Tensor, WordSum, u_, uv_key, v_

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
GENS = [log(1), log(2), li((1, 2), (1,)), li((1, 2, 3), (2, 1))]
LETTERS = [u_(1), u_(2), v_(1, 1), v_(1, 2)]
IGENS = [IGenerator(ZERO, (InvProduct(1, 1),), ONE),
         IGenerator(ZERO, (ZERO, InvProduct(1, 2)), ONE),
         IGenerator(ONE, (ZERO,), InvProduct(2, 2))]


def _combos(keys, make):
    """Combinations over the key strategy, zero coefficients included so
    that constructors must drop them."""
    return st.dictionaries(keys, COEFFS, max_size=4).map(make)


def _mons(pool, key=None):
    return st.lists(st.sampled_from(pool), max_size=3).map(
        lambda gs: tuple(sorted(gs, key=key)))


ELEMENTS = _combos(_mons(GENS), lambda t: Element(H, t))
TENSORS = _combos(st.tuples(_mons(GENS), _mons(GENS)),
                  lambda t: Tensor((H, H), t))
WORDS = _combos(st.lists(st.sampled_from(LETTERS), max_size=3).map(tuple),
                WordSum)
POLYS = _combos(_mons(LETTERS, uv_key), Poly)
FORMS = st.dictionaries(st.sampled_from([(s,) for s in LETTERS]), POLYS,
                        max_size=3).map(lambda t: Form(1, t))
I_MONS = _mons(IGENS, lambda g: g.key())
IELEMENTS = _combos(I_MONS, IElement)
ITENSORS = _combos(st.tuples(I_MONS, I_MONS), ITensor)
SERIES_CAPS = (2, 1)
SERIES = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), ELEMENTS,
    max_size=4).map(lambda t: TruncatedSeries(2, H, SERIES_CAPS, 2, t))

ALGEBRAS = {
    "Element": ELEMENTS, "Tensor": TENSORS, "WordSum": WORDS, "Poly": POLYS,
    "Form": FORMS, "IElement": IELEMENTS, "ITensor": ITENSORS,
    "TruncatedSeries": SERIES,
}


def _no_zero_coefficient(x):
    return all(c and not (isinstance(c, (Poly, Element)) and c.is_zero())
               for c in x.terms.values())


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_addition_is_an_abelian_group_law(name):
    combos = ALGEBRAS[name]

    @settings(max_examples=40, deadline=None)
    @given(combos, combos)
    def check(a, b):
        assert a + b == b + a
        assert (a + b) - b == a
        assert (a - a).is_zero()
        assert not (a - a)
        assert -(-a) == a

    check()


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_no_stored_coefficient_is_zero(name):
    combos = ALGEBRAS[name]

    @settings(max_examples=40, deadline=None)
    @given(combos, combos, COEFFS)
    def check(a, b, c):
        results = [a, b, a + b, a - b, b - a, -a, a * c, a * 0]
        if not isinstance(a, Form):
            results.append(a * b)
        for x in results:
            assert _no_zero_coefficient(x), x

    check()


def test_equality_depends_on_shape():
    e = Element.from_generator(log(1), H)
    t = Tensor.of(e, e)
    assert Tensor((H, HBAR), t.terms) != t
    assert Tensor((H, H), t.terms) == t
    with pytest.raises(ValueError):
        t + Tensor((H, HBAR), t.terms)

    assert Form(1) != Form(2)
    f = Form.d_letter(u_(1))
    assert Form(2, f.terms) != f
    with pytest.raises(ValueError):
        f + Form(2, f.terms)

    # constants are sort-agnostic, nothing else is
    assert Element.constant(3, H) == Element.constant(3, HBAR)
    assert Element.zero(H) == Element.zero(HBAR)
    assert e != e.as_sort(HBAR)
    assert (Element.constant(2, HBAR) * e).sort == H
    with pytest.raises(ValueError):
        e + e.as_sort(HBAR)


def test_series_sum_keeps_the_left_truncation():
    x = Element.from_generator(log(1), H)
    tight = TruncatedSeries(2, H, caps=(1, 1), total_cap=1)
    loose = TruncatedSeries(2, H, caps=(3, 3), total_cap=4,
                            terms={(a, b): x for a in range(4)
                                   for b in range(4) if a + b <= 4})
    for got in (tight + loose, tight - loose):
        assert set(got.terms) == {(0, 0), (1, 0), (0, 1)}
        assert (got.caps, got.total_cap) == ((1, 1), 1)
    assert set((loose + tight).terms) == set(loose.terms)


def test_as_fraction_is_the_only_scalar_coercion():
    assert as_fraction(2) == Fraction(2)
    assert isinstance(as_fraction(2), Fraction)
    for bad in (0.5, "1/3", None):
        with pytest.raises(TypeError):
            as_fraction(bad)
        for make in (lambda c: Element(H, {(): c}),
                     lambda c: Tensor((H,), {((),): c}),
                     lambda c: WordSum({(): c}),
                     lambda c: Poly({(): c}),
                     lambda c: Form(0, {(): c}),
                     lambda c: IElement({(): c}),
                     lambda c: ITensor({((), ()): c})):
            with pytest.raises(TypeError):
                make(bad)
    with pytest.raises(TypeError):
        IElement.unit() * 0.5

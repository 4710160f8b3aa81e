"""The shared sparse-combination core: the group laws of addition, zero
pruning and shape-aware equality, checked on all six algebras, with
elements and tensors drawn over the bracket sort H and the symbol sort
I."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lihopf.algebra import H, HBAR, ITER, Element, gen_elem, li, log
from lihopf.expr import element_document
from lihopf.forms import Form, Poly, w_element
from lihopf.iterint import ONE, ZERO, IGenerator, InvProduct
from lihopf.lincomb import (BatchMemo, LinComb, as_fraction, clear_caches,
                            collect)
from lihopf.series import TruncatedSeries
from lihopf.tensor import Tensor, WordSum, u_, v_

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


def _mons(pool):
    return st.lists(st.sampled_from(pool), max_size=3).map(
        lambda gs: tuple(sorted(gs)))


ELEMENTS = _combos(_mons(GENS), lambda t: Element(H, t))
TENSORS = _combos(st.tuples(_mons(GENS), _mons(GENS)),
                  lambda t: Tensor((H, H), t))
WORDS = _combos(st.lists(st.sampled_from(LETTERS), max_size=3).map(tuple),
                WordSum)
POLYS = _combos(_mons(LETTERS), Poly)
FORMS = st.dictionaries(st.sampled_from([(s,) for s in LETTERS]), POLYS,
                        max_size=3).map(lambda t: Form(1, t))
I_MONS = _mons(IGENS)
I_ELEMENTS = _combos(I_MONS, lambda t: Element(ITER, t))
I_TENSORS = _combos(st.tuples(I_MONS, I_MONS),
                    lambda t: Tensor((ITER, ITER), t))
SERIES_CAPS = (2, 1)
SERIES = st.tuples(st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1)), ELEMENTS,
    max_size=4), st.sampled_from([1, 1, 2, 6])).map(
        lambda t: TruncatedSeries(H, SERIES_CAPS, 2)._like(*t))

ALGEBRAS = {
    "Element": ELEMENTS, "Tensor": TENSORS, "WordSum": WORDS, "Poly": POLYS,
    "Form": FORMS, "Element-I": I_ELEMENTS, "Tensor-I": I_TENSORS,
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
        for x in (a, b, a + b, a - b, b - a, -a, a * c, a * 0, a * b):
            assert _no_zero_coefficient(x), x

    check()


def _raw_fractions(x):
    """x with every rational coefficient stored as a Fraction, integral
    ones included, as arithmetic can leave them."""
    return x._new({k: _raw_fractions(c) if isinstance(c, LinComb)
                   else Fraction(c) for k, c in x.terms.items()})


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_int_and_fraction_coefficients_give_equal_results(name):
    combos = ALGEBRAS[name]

    @settings(max_examples=40, deadline=None)
    @given(combos, combos, st.integers(-3, 3))
    def check(a, b, n):
        fa, fb = _raw_fractions(a), _raw_fractions(b)
        pairs = [(a + b, fa + fb), (a - b, fa - fb), (-a, -fa),
                 (a.scale(n), fa.scale(Fraction(n))),
                 (a * n, fa * Fraction(n)), (a + a, fa + a),
                 (a * b, fa * fb)]
        for x, y in pairs:
            assert x == y and y == x
            if isinstance(x, Element):
                if x.sort != ITER:  # no CLI path renders a symbol
                    assert (json.dumps(element_document(x))
                            == json.dumps(element_document(y)))
                assert str(x) == str(y)

    check()


@settings(max_examples=40, deadline=None)
@given(FORMS, FORMS, POLYS)
def test_form_product_is_the_wedge_and_a_poly_scales(f, g, p):
    assert f * g == f.wedge(g)
    assert p * f == f * p == f.scale(p)


def test_equality_depends_on_shape():
    e = gen_elem(log(1), H)
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

    # constants included: elements of two sorts are unequal
    assert Element.constant(3, H) != Element.constant(3, HBAR)
    assert Element.zero(H) != Element.zero(HBAR)
    assert e != e.as_sort(HBAR)
    assert Element.constant(3, H) == 3 == Element.constant(3, HBAR)
    with pytest.raises(ValueError):
        e + e.as_sort(HBAR)
    with pytest.raises(ValueError):
        Element.constant(2, HBAR) * e


def test_series_sum_keeps_the_left_truncation():
    x = gen_elem(log(1), H)
    tight = TruncatedSeries(H, (1, 1), 1)
    loose = TruncatedSeries(H, (3, 3), 4,
                            terms={(a, b): x for a in range(4)
                                   for b in range(4) if a + b <= 4})
    for got in (tight + loose, tight - loose):
        assert set(got.coefficients()) == {(0, 0), (1, 0), (0, 1)}
        assert (got.caps, got.total) == ((1, 1), 1)
    assert set((loose + tight).coefficients()) == set(loose.coefficients())


def test_as_fraction_is_the_only_scalar_coercion():
    # the canonical rational: an int when integral, else a Fraction
    for integral, want in ((2, 2), (Fraction(4, 2), 2), (True, 1)):
        got = as_fraction(integral)
        assert got == want and type(got) is int
    assert type(as_fraction(Fraction(1, 3))) is Fraction
    assert as_fraction(Fraction(-2, 6)) == Fraction(-1, 3)
    assert type(Element(H, {(): Fraction(6, 3)}).constant_term()) is int
    for bad in (0.5, "1/3", None):
        with pytest.raises(TypeError):
            as_fraction(bad)
        for make in (lambda c: Element(H, {(): c}),
                     lambda c: Tensor((H,), {((),): c}),
                     lambda c: WordSum({(): c}),
                     lambda c: Poly({(): c}),
                     lambda c: Form(0, {(): c}),
                     lambda c: Element(ITER, {(): c}),
                     lambda c: Tensor((ITER, ITER), {((), ()): c})):
            with pytest.raises(TypeError):
                make(bad)
    with pytest.raises(TypeError):
        Element.one(ITER) * 0.5


# -- the one accumulator: a coefficient that is itself a combination is
# copied before it grows, so no operand or memo value is written into

def _shared_coefficients():
    """Combination-valued coefficients as a memo or an operand holds them:
    read-only, and plain."""
    p = Poly({(u_(1),): 1, (u_(1), v_(1, 2)): Fraction(-1, 2)})
    e = gen_elem(li((1, 2, 3), (2, 1)), H) * 3 + 1
    return [p.frozen(), e.frozen(), p, e]


def _snapshot(c):
    return dict(c.terms)


def _contents(x):
    """x's terms, a combination-valued coefficient (a Form's Poly) as a
    plain dict; a series stores int numerators."""
    return {k: _snapshot(v) if isinstance(v, LinComb) else v
            for k, v in x.terms.items()}


def test_collect_leaves_a_repeated_shared_coefficient_unchanged():
    for c in _shared_coefficients():
        before = _snapshot(c)
        want = c.scale(4)
        assert collect([("k", c)] * 4) == {"k": want}
        assert _snapshot(c) == before


def test_sum_leaves_repeated_shared_coefficients_unchanged():
    for c in _shared_coefficients():
        x = Form(1, {(u_(1),): c}) if isinstance(c, Poly) \
            else TruncatedSeries(H, (1,), terms={(0,): c})
        x = x.frozen()
        before, shared = _contents(x), _snapshot(c)
        want = x.scale(4)
        assert x.sum([x, x, x]) == want
        assert x + x + x + x == want
        assert _contents(x) == before and _snapshot(c) == shared


def test_summing_a_one_form_leaves_it_and_its_memo_unchanged():
    clear_caches()
    e = gen_elem(li((1, 2, 3), (1, 1)), H) + gen_elem(li((1, 3), (2,)), H)
    first = w_element(e)
    want = first.scale(3)
    assert first.sum([first, first]) == want
    assert first == w_element(e)        # the memoized monomial forms
    clear_caches()
    assert first == w_element(e)        # cold again


def test_a_coefficient_that_cancels_drops_its_key():
    for c in _shared_coefficients():
        before = _snapshot(c)
        assert collect([("k", c), ("k", -c)]) == {}
        # cancelled, then the shared value is stored again and repeated
        terms = collect([("k", c), ("k", c), ("k", -c), ("k", -c),
                         ("k", c), ("k", c), ("j", c)])
        assert terms == {"k": c.scale(2), "j": c}
        assert _snapshot(c) == before
    f = Form(1, {(u_(1),): Poly.variable(u_(2)), (u_(2),): Poly.one()})
    assert f.sum([-f]).terms == {}
    assert (f.sum([f, -f, -f, -f]) + f).terms == {}
    g = f.sum([Form(1, {(u_(1),): -Poly.variable(u_(2))})])
    assert g.terms == {(u_(2),): Poly.one()}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_sum_is_the_chained_plus_and_of_no_parts_an_equal_copy(name):
    combos = ALGEBRAS[name]

    @settings(max_examples=20, deadline=None)
    @given(combos, combos, combos)
    def check(x, a, b):
        x = x.frozen()
        assert x.sum(iter([a, b, x])) == x + a + b + x
        copy = x.sum([])
        assert copy == x and copy is not x and copy.terms is not x.terms
        assert copy.sum([x]) == x.scale(2)

    check()


def test_sum_conforms_like_plus_and_refuses_other_kinds():
    e = gen_elem(log(1), H)
    assert Element.zero(H).sum([e, Element.constant(2, H)]) == e + 2
    with pytest.raises(ValueError):
        Element.zero(H).sum([e.as_sort(HBAR)])
    with pytest.raises(ValueError):
        Element.zero(H).sum([e, Element.constant(2, HBAR)])
    with pytest.raises(ValueError):
        Form(1).sum([Form(2)])
    with pytest.raises(TypeError):
        Poly().sum([Form(0)])


def _recording_store(calls):
    """A private BatchMemo (not in ``MEMOS``) of k -> 1/k that records
    the keys of every batch it runs."""
    def batch(keys):
        calls.append(keys)
        return {k: Element.constant(Fraction(1, k), H) for k in keys}
    return BatchMemo(batch)


def test_a_batch_memo_passes_only_its_missing_keys_in_first_seen_order():
    calls = []
    store = _recording_store(calls)
    first = store([3, 1, 3])
    assert calls == [[3, 1]] and list(first) == [3, 1]
    again = store(iter([2, 1, 4, 2]))
    assert calls == [[3, 1], [2, 4]] and list(again) == [2, 1, 4]
    assert again[1] is first[1]
    assert again[4] == Element.constant(Fraction(1, 4), H)
    with pytest.raises(TypeError):
        again[4].terms[()] = 1
    assert store([1, 3]) == {1: first[1], 3: first[3]}
    assert len(calls) == 2
    assert store.cache_info() == (3, 4, None, 4)
    store.cache_clear()
    assert store.cache_info() == (0, 0, None, 0)


def test_a_batch_memo_stores_nothing_when_its_batch_raises():
    calls = []
    store = _recording_store(calls)
    with pytest.raises(ZeroDivisionError):
        store([2, 0])
    assert store.cache_info() == (0, 0, None, 0)
    assert store([2]) == {2: Element.constant(Fraction(1, 2), H)}
    assert calls == [[2, 0], [2]]

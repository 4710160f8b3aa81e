"""Tensors, words, the canonical projection, and the symbol map."""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lihopf.algebra import H, HBAR, Element, gen_elem, li, log, monomial_weight
from lihopf.coproduct import coproduct
from lihopf.lincomb import linear
from lihopf.tensor import (
    Tensor,
    WordSum,
    letter_generator,
    project_pi,
    shuffle_words,
    symbol,
    u_,
    v_,
    weight_one_letters,
)
from lihopf.verify import weight_tuples

E = gen_elem


# ------------------------------------------------------------------ oracles

def project_pi_closed(word):
    """Closed form of the projection of a single word, against the
    recursive definition:

        pi(w) = w + sum_i (-1)^i (n-i)/n  reverse(w[:i]) shuffled w[i:]
    """
    n = len(word)
    if n == 0:
        return WordSum()
    out = WordSum({word: 1})
    for i in range(1, n):
        pref = tuple(reversed(word[:i]))
        for w, m in shuffle_words(pref, word[i:]).items():
            out = out + WordSum({w: Fraction((-1) ** i * (n - i) * m, n)})
    return out


def _letters_of_monomial(mon):
    if len(mon) != 1:
        raise ValueError("weight-one slot is not a single generator")
    return weight_one_letters(mon[0]).items()


@functools.cache
def _symbol_monomial_via_coproduct(mon):
    n = monomial_weight(mon)
    if n == 0:
        return WordSum.unit()
    if n == 1:
        return WordSum({(sym,): c for sym, c in _letters_of_monomial(mon)})
    t = coproduct(Element.from_monomial(mon, H))
    out = WordSum()
    for (ml, mr), c in t.terms.items():
        if monomial_weight(ml) != 1:
            continue
        tail = _symbol_monomial_via_coproduct(mr)
        for sym, cl in _letters_of_monomial(ml):
            out = out + WordSum({(sym,) + w: cw * c * cl
                                 for w, cw in tail.terms.items()})
    return out


def symbol_via_coproduct(e):
    """Dual route for the symbol: project the coproduct onto its
    weight-(1, n-1) part, read the left factor as a letter and recurse on
    the right one.  Must agree with ``symbol``, which peels letters off
    the right with the derivation, identically."""
    if e.sort != H:
        raise ValueError("the symbol is defined on the plain sort only")
    return linear(e, _symbol_monomial_via_coproduct, WordSum())


_SYMBOL_RIGHT_CACHE = {}


def _symbol_monomial_right(mon):
    hit = _SYMBOL_RIGHT_CACHE.get(mon)
    if hit is not None:
        return hit
    n = monomial_weight(mon)
    if n == 0:
        out = WordSum.unit()
    elif n == 1:
        out = WordSum({(sym,): c for sym, c in weight_one_letters(mon[0]).items()})
    else:
        t = coproduct(Element.from_monomial(mon, H))
        out = WordSum()
        for (ml, mr), c in t.terms.items():
            if monomial_weight(mr) != 1:
                continue
            if len(mr) != 1:
                raise ValueError("weight-one slot is not a single generator")
            head = _symbol_monomial_right(ml)
            for sym, cr in weight_one_letters(mr[0]).items():
                out = out + head.append_letter(sym) * (c * cr)
    _SYMBOL_RIGHT_CACHE[mon] = out
    return out


def symbol_right(e):
    """The symbol, peeling weight-one pieces off the right instead; agrees
    with ``symbol`` by coassociativity and serves as its cross-check."""
    if e.sort != H:
        raise ValueError("the symbol is defined on the plain sort only")
    out = WordSum()
    for mon, c in e.terms.items():
        out = out + _symbol_monomial_right(mon) * c
    return out


# ------------------------------------------------------------------ tensors

def test_tensor_of_and_arithmetic():
    a = E(li((1, 2), (2,)))
    b = E(log(1))
    t = Tensor.of(a + b, b)
    assert t == Tensor.of(a, b) + Tensor.of(b, b)
    assert (t - t).is_zero()
    assert (t * 2).terms == {k: 2 * c for k, c in t.terms.items()}


def test_tensor_slotwise_product():
    a = E(li((1, 2), (1,)))
    one = Element.one(H)
    t1 = Tensor.of(a, one)
    t2 = Tensor.of(one, a)
    assert t1 * t2 == Tensor.of(a, a)


def test_tensor_map_and_expand_slot():
    a = E(li((1, 2), (2,)))
    b = E(log(1))
    t = Tensor.of(a, b)
    doubled = t.map_slot(0, lambda mon: Element.from_monomial(mon, H, 2))
    assert doubled == t * 2
    spliced = t.expand_slot(1, lambda mon: Tensor.of(
        Element.from_monomial(mon, H), Element.one(H)))
    assert spliced == Tensor.of(a, b, Element.one(H))


def test_tensor_contract():
    a = E(li((1, 2), (2,)))
    b = E(log(1))
    assert Tensor.of(a, b).contract(H) == a * b


# -------------------------------------------------------------------- words

def test_letters_of_weight_one():
    assert weight_one_letters(log(3)) == {u_(3): 1}
    assert weight_one_letters(li((2, 5), (1,))) == {v_(2, 4): -1}
    with pytest.raises(ValueError):
        weight_one_letters(li((1, 2), (2,)))


def test_letter_generator_inverts_weight_one_letters():
    syms = [u_(r) for r in range(1, 5)]
    syms += [v_(i, j) for i in range(1, 5) for j in range(i, 5)]
    for sym in syms:
        g, c = letter_generator(sym)
        assert weight_one_letters(g) == {sym: c}, sym


def test_letters_sort_u_before_v():
    syms = [v_(1, 2), u_(2), v_(1, 1), u_(1)]
    assert sorted(syms) == [u_(1), u_(2), v_(1, 1), v_(1, 2)]


def test_shuffle_small():
    a, b, c = u_(1), u_(2), v_(1, 1)
    assert shuffle_words((a,), (b,)) == {(a, b): 1, (b, a): 1}
    got = shuffle_words((a, b), (c,))
    assert got == {(c, a, b): 1, (a, c, b): 1, (a, b, c): 1}


def test_shuffle_words_cached_value_is_read_only():
    a, b, c = u_(1), u_(2), v_(1, 1)
    with pytest.raises(AttributeError):
        shuffle_words((a, b), (c,)).clear()
    with pytest.raises(TypeError):
        shuffle_words((a, b), (c,))[(a,)] = 1
    assert len((WordSum({(a, b): 1}) * WordSum({(c,): 1})).terms) == 3


def test_shuffle_is_commutative_and_associative():
    ws = [WordSum({(u_(1), v_(1, 1)): 1}), WordSum({(u_(2),): 1}),
          WordSum({(v_(1, 2), u_(1)): 1})]
    a, b, c = ws
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def test_shuffle_counts_multiplicities():
    a = u_(1)
    got = shuffle_words((a,), (a, a))
    assert got == {(a, a, a): 3}


# --------------------------------------------------------------- projection

def test_pi_weight_one_fixed():
    w = WordSum({(u_(1),): 1})
    assert project_pi(w) == w


def test_pi_antisymmetrizes_two_letters():
    a, b = u_(1), v_(1, 1)
    got = project_pi(WordSum({(a, b): 1}))
    assert got == WordSum({(a, b): Fraction(1, 2), (b, a): Fraction(-1, 2)})


def test_pi_matches_closed_form():
    letters = [u_(1), v_(1, 1), u_(2)]
    for ln in range(1, 5):
        for word in itertools.product(letters, repeat=ln):
            assert project_pi(WordSum({word: 1})) == project_pi_closed(word)


def test_pi_is_idempotent():
    for word in [(u_(1), v_(1, 1)), (u_(1), u_(2), v_(1, 2)),
                 (v_(1, 1), v_(2, 2), u_(1), u_(2))]:
        p = project_pi(WordSum({word: 1}))
        assert project_pi(p) == p


def test_pi_kills_shuffle_products():
    pairs = [((u_(1),), (v_(1, 1),)),
             ((u_(1), u_(2)), (v_(1, 1),)),
             ((u_(1), v_(1, 2)), (v_(1, 1), u_(2)))]
    for w1, w2 in pairs:
        prod = WordSum({w1: 1}) * WordSum({w2: 1})
        assert project_pi(prod).is_zero()


# ------------------------------------------------------------------- symbol

def test_symbol_depth1():
    # the bracket of weight n maps to -v_{1,1} u_1^(n-1)
    for n in range(1, 5):
        got = symbol(E(li((1, 2), (n,))))
        assert got == WordSum({(v_(1, 1),) + (u_(1),) * (n - 1): -1}), n


def test_symbol_weight_one_letters():
    assert symbol(E(log(2))) == WordSum({(u_(2),): 1})
    assert symbol(E(li((1, 3), (1,)))) == WordSum({(v_(1, 2),): -1})
    assert symbol(Element.constant(5, H)) == WordSum({(): 5})


def test_symbol_11_golden():
    got = symbol(E(li((1, 2, 3), (1, 1))))
    want = WordSum({(v_(1, 2), v_(2, 2)): 1, (v_(1, 2), v_(1, 1)): -1,
                    (v_(1, 2), u_(1)): 1, (v_(2, 2), v_(1, 1)): 1})
    assert got == want


def test_symbol_21_golden():
    # hand-derived: six tensor terms over the bracket letters, expanded in
    # the u/v basis
    got = symbol(E(li((1, 2, 3), (2, 1))))
    want = WordSum()
    expand = {"w1": {v_(1, 2): Fraction(-1)},
              "w0": {u_(1): Fraction(1), u_(2): Fraction(1)},
              "a1": {v_(2, 2): Fraction(-1)}, "a0": {u_(2): Fraction(1)},
              "b1": {v_(1, 1): Fraction(-1)}, "b0": {u_(1): Fraction(1)}}
    data = [(1, ("w1", "w0", "a1")), (1, ("w1", "a1", "w0")),
            (-1, ("w1", "a1", "a0")), (-1, ("w1", "b1", "b0")),
            (-1, ("w1", "b0", "b0")), (1, ("a1", "b1", "b0"))]
    for c, slots in data:
        acc = {(): Fraction(c)}
        for s in slots:
            nxt = {}
            for word, cc in acc.items():
                for sym, cl in expand[s].items():
                    key = word + (sym,)
                    nxt[key] = nxt.get(key, Fraction(0)) + cc * cl
            acc = nxt
        want = want + WordSum(acc)
    assert got == want


def test_symbol_right_agrees():
    # every bracket of depth <= 3 and weight <= 5, at the standard placement,
    # one spread placement and one that does not start at 1
    gens = [li(p[:d + 1], n) for d in (1, 2, 3) for n in weight_tuples(5, d)
            for p in ((1, 2, 3, 4), (1, 3, 4, 7), (2, 4, 5, 8))]
    for g in gens:
        e = E(g)
        want = symbol(e)
        assert want == symbol_via_coproduct(e), g
        assert want == symbol_right(e), g


# products of one or two log factors with up to two brackets
PRODUCTS = st.tuples(
    st.lists(st.sampled_from([log(1), log(2), log(3)]), min_size=1,
             max_size=2),
    st.lists(st.sampled_from([li((1, 2), (1,)), li((1, 2, 3), (2, 1)),
                              li((1, 3, 4), (1, 1)), li((2, 4), (2,))]),
             max_size=2)).map(lambda lb: tuple(sorted(lb[0] + lb[1])))
PRODUCT_SUMS = st.dictionaries(
    PRODUCTS, st.fractions(min_value=-3, max_value=3, max_denominator=3),
    min_size=1, max_size=4).map(lambda t: Element(H, t))


@settings(max_examples=40, deadline=None)
@given(PRODUCT_SUMS)
def test_symbol_agrees_with_coproduct_route_on_products(e):
    assert symbol(e) == symbol_via_coproduct(e)


def test_symbol_is_multiplicative():
    pairs = [(E(li((1, 2), (2,))), E(li((2, 3), (1,)))),
             (E(log(1)), E(li((1, 2, 3), (1, 1)))),
             (E(li((1, 2), (1,))), E(li((1, 2), (1,))))]
    for a, b in pairs:
        assert symbol(a * b) == symbol(a) * symbol(b)


def test_symbol_rejects_extended_sort():
    with pytest.raises(ValueError):
        symbol(E(li((1, 2), (2,), inverted=True), HBAR))


def test_symbol_kernel_contains_pi_complement():
    # products of positive-weight elements stay products under the symbol,
    # so the projection kills their symbols
    a = E(li((1, 2), (1,)))
    b = E(log(2))
    assert project_pi(symbol(a * b)).is_zero()

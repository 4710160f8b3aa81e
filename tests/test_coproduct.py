"""Coproducts, antipode, derivation.  Golden values were derived by hand
from the generating-series formulas (depth <= 2 cases were worked out
term by term and cross-checked twice) before the engine existed."""

from fractions import Fraction

import pytest

from lihopf.algebra import H, HBAR, Element, gen_elem, li, log, monomial_weight
from lihopf.coproduct import (
    antipode,
    cobracket_rep,
    coproduct,
    coproduct_bar,
    coproduct_h,
    inv_element,
    reduced_coproduct,
)
from lihopf.lincomb import collect
from lihopf.tensor import Tensor, derive, weight_one_letters
from lihopf.verify import weight_tuples

E = gen_elem


def derive_via_coproduct(e):
    """Dual route for the derivation: project the coproduct onto its
    weight-(n-1, 1) part and differentiate the right factor.  Must agree
    with ``derive`` identically."""
    if e.sort != H:
        raise ValueError("the derivation lives on the plain sort")
    return collect((sym, Element.from_monomial(ml, H, c * cl))
                   for (ml, mr), c in coproduct(e).terms.items()
                   if monomial_weight(mr) == 1
                   for sym, cl in weight_one_letters(mr[0]).items())


def TT(sort, *pairs):
    out = Tensor.zero((sort, sort))
    for a, b in pairs:
        out = out + Tensor.of(a, b)
    return out


def x1(n, sort=H):
    return E(li((1, 2), (n,)), sort)


def x2(n, sort=H):
    return E(li((2, 3), (n,)), sort)


def w(n, sort=H):
    return E(li((1, 3), (n,)), sort)   # the merged window x1 x2


# --------------------------------------------------------------------- bar

def test_bar_log_is_primitive():
    e = E(log(1), HBAR)
    one = Element.one(HBAR)
    assert coproduct_bar(e) == TT(HBAR, (e, one), (one, e))


def test_bar_depth1():
    # Delta [y]_n = sum_m [y]_m (x) [y]_0^(n-m)/(n-m)! + 1 (x) [y]_n
    one = Element.one(HBAR)
    u = E(log(1), HBAR)
    for n in range(1, 5):
        fact = 1
        want = TT(HBAR, (one, x1(n, HBAR)))
        for m in range(n, 0, -1):
            want = want + Tensor.of(x1(m, HBAR), u ** (n - m) * Fraction(1, fact))
            fact *= (n - m + 1)
        # rebuild factorials cleanly
        want = TT(HBAR, (one, x1(n, HBAR)))
        import math
        for m in range(1, n + 1):
            want = want + Tensor.of(
                x1(m, HBAR), u ** (n - m) * Fraction(1, math.factorial(n - m)))
        assert coproduct_bar(x1(n, HBAR)) == want


def test_bar_31_golden():
    # ten-term hand-derived expansion at weights (3, 1)
    one = Element.one(HBAR)
    u1 = E(log(1), HBAR)
    w0 = E(log(1), HBAR) + E(log(2), HBAR)
    G = E(li((1, 2, 3), (3, 1)), HBAR)
    G21 = E(li((1, 2, 3), (2, 1)), HBAR)
    G11 = E(li((1, 2, 3), (1, 1)), HBAR)
    inv3 = E(li((1, 2), (3,), inverted=True), HBAR)
    want = (TT(HBAR, (G, one), (G21, u1), (G11, u1 * u1 * Fraction(1, 2)))
            + TT(HBAR, (w(3, HBAR), x2(1, HBAR)),
                 (w(2, HBAR), -x2(2, HBAR) + x2(1, HBAR) * w0),
                 (w(1, HBAR), x2(3, HBAR) - x2(2, HBAR) * w0
                  + x2(1, HBAR) * w0 * w0 * Fraction(1, 2)))
            - TT(HBAR, (w(1, HBAR), inv3))
            + TT(HBAR, (x2(1, HBAR), x1(3, HBAR)), (one, G)))
    assert coproduct_bar(E(li((1, 2, 3), (3, 1)), HBAR)) == want


def test_bar_12_golden():
    # weights (1, 2): exercises an inverted right block of weight two and a
    # left factor outside the naive key set
    one = Element.one(HBAR)
    G = E(li((1, 2, 3), (1, 2)), HBAR)
    G11 = E(li((1, 2, 3), (1, 1)), HBAR)
    i1 = E(li((1, 2), (1,), inverted=True), HBAR)
    i2 = E(li((1, 2), (2,), inverted=True), HBAR)
    w0 = E(log(1), HBAR) + E(log(2), HBAR)
    want = (TT(HBAR, (G, one), (one, G))
            + TT(HBAR, (w(1, HBAR), x2(2, HBAR)))
            - TT(HBAR, (w(1, HBAR), i2 + w0 * i1))
            - TT(HBAR, (w(2, HBAR), i1))
            + TT(HBAR, (x2(1, HBAR), x1(1, HBAR) * E(log(2), HBAR)))
            + TT(HBAR, (x2(2, HBAR), x1(1, HBAR)))
            + TT(HBAR, (G11, E(log(2), HBAR))))
    assert coproduct_bar(G) == want


def test_bar_inverted_depth1():
    # letters invert: exp factor runs over -[y]_0
    one = Element.one(HBAR)
    u = E(log(1), HBAR)
    g3 = E(li((1, 2), (3,), inverted=True), HBAR)
    g2 = E(li((1, 2), (2,), inverted=True), HBAR)
    g1 = E(li((1, 2), (1,), inverted=True), HBAR)
    want = (TT(HBAR, (g3, one), (one, g3))
            + Tensor.of(g2, -u)
            + Tensor.of(g1, u * u * Fraction(1, 2)))
    assert coproduct_bar(g3) == want


def test_bar_multiplicative():
    a = E(li((1, 2), (2,)), HBAR)
    b = E(log(2), HBAR)
    assert coproduct_bar(a * b) == coproduct_bar(a) * coproduct_bar(b)
    assert coproduct_bar(a + b) == coproduct_bar(a) + coproduct_bar(b)


# ------------------------------------------------------------- plain sort

def test_plain_31_golden():
    one = Element.one(H)
    u1 = E(log(1), H)
    w0 = E(log(1), H) + E(log(2), H)
    G = E(li((1, 2, 3), (3, 1)), H)
    G21 = E(li((1, 2, 3), (2, 1)), H)
    G11 = E(li((1, 2, 3), (1, 1)), H)
    want = (TT(H, (G, one), (G21, u1), (G11, u1 * u1 * Fraction(1, 2)))
            + TT(H, (w(3), x2(1)), (w(2), -x2(2) + x2(1) * w0),
                 (w(1), x2(3) - x2(2) * w0 + x2(1) * w0 * w0 * Fraction(1, 2)))
            - TT(H, (w(1), x1(3) + u1 ** 3 * Fraction(1, 6)))
            + TT(H, (x2(1), x1(3)), (one, G)))
    assert coproduct_h(G) == want
    assert coproduct(G) == want            # dispatch by sort


def test_plain_11_and_21():
    one = Element.one(H)
    u1 = E(log(1), H)
    G11 = E(li((1, 2, 3), (1, 1)), H)
    want11 = (TT(H, (G11, one), (one, G11))
              + Tensor.of(w(1), x2(1) - x1(1) - u1)
              + Tensor.of(x2(1), x1(1)))
    assert coproduct_h(G11) == want11
    G21 = E(li((1, 2, 3), (2, 1)), H)
    want21 = (TT(H, (G21, one), (one, G21))
              + Tensor.of(G11, u1)
              + Tensor.of(w(2), x2(1))
              + Tensor.of(w(1), x2(1) * (E(log(1), H) + E(log(2), H))
                          - x2(2) - x1(2) - u1 * u1 * Fraction(1, 2))
              + Tensor.of(x2(1), x1(2)))
    assert coproduct_h(G21) == want21


def test_coassociativity_samples():
    def split_bar(mon):
        return coproduct_bar(Element.from_monomial(mon, HBAR))

    def split_h(mon):
        return coproduct_h(Element.from_monomial(mon, H))

    for g in [li((1, 2, 3), (2, 1)), li((1, 2, 3), (1, 2)),
              li((1, 2, 3), (1, 1), inverted=True),
              li((1, 2), (3,), inverted=True), li((1, 3, 4), (2, 1))]:
        t = coproduct_bar(E(g, HBAR))
        assert t.expand_slot(0, split_bar) == t.expand_slot(1, split_bar), g
    for g in [li((1, 2, 3), (2, 1)), li((1, 2, 3), (1, 2)), li((1, 2), (4,))]:
        t = coproduct_h(E(g, H))
        assert t.expand_slot(0, split_h) == t.expand_slot(1, split_h), g


def test_counit_property():
    # (eps (x) id) Delta = id: the terms with unit left factor reproduce e
    for g in [li((1, 2, 3), (2, 1)), li((1, 2), (3,), inverted=True)]:
        e = E(g)
        t = coproduct(e)
        left_unit = Element(e.sort, {mons[1]: c for mons, c in t.terms.items()
                                     if mons[0] == ()})
        assert left_unit == e


def test_reduced_coproduct():
    e = x1(2)
    t = reduced_coproduct(e)
    assert t == Tensor.of(x1(1), E(log(1), H))
    assert reduced_coproduct(Element.one(H)).is_zero()


def test_cobracket_rep_preconditions():
    with pytest.raises(ValueError):
        cobracket_rep(Element.one(H))
    with pytest.raises(ValueError):
        cobracket_rep(x1(1))                 # weight 1
    with pytest.raises(ValueError):
        cobracket_rep(x1(2) + x1(1))         # inhomogeneous
    assert cobracket_rep(x1(2)) == reduced_coproduct(x1(2))


# ---------------------------------------------------------------- antipode

def test_antipode_golden_weight2():
    assert antipode(x1(2)) == -x1(2) + x1(1) * E(log(1), H)


def test_antipode_law():
    # mu (S (x) id) Delta = unit . counit
    def law(e):
        t = coproduct(e)
        s = t.map_slot(0, lambda mon: antipode(Element.from_monomial(mon, e.sort)))
        return s.contract(e.sort) == Element.constant(e.constant_term(), e.sort)

    for g in [li((1, 2, 3), (2, 1)), li((1, 2), (3,)), li((1, 2, 3), (1, 1)),
              li((1, 2, 3), (1, 2))]:
        assert law(E(g, H)), g
    for g in [li((1, 2, 3), (1, 1), inverted=True),
              li((1, 2), (3,), inverted=True)]:
        assert law(E(g, HBAR)), g
    # and on a product
    assert law(x1(2) * x2(1))


def test_antipode_multiplicative():
    a, b = x1(2), x2(1)
    assert antipode(a * b) == antipode(a) * antipode(b)


# -------------------------------------------------------------- derivation

def test_derive_golden_11():
    d = derive(E(li((1, 2, 3), (1, 1)), H))
    assert d == {("v", 1, 1): w(1) - x2(1),
                 ("v", 2, 2): -w(1),
                 ("u", 1): -w(1)}


def test_derive_depth1():
    assert derive(x1(2)) == {("u", 1): x1(1)}
    assert derive(x1(1)) == {("v", 1, 1): -Element.one(H)}
    assert derive(E(log(2), H)) == {("u", 2): Element.one(H)}


def test_derive_leibniz():
    a, b = x1(2), x2(1)
    dab = derive(a * b)
    da, db = derive(a), derive(b)
    want = {}
    for sym, e in da.items():
        want[sym] = want.get(sym, Element.zero(H)) + e * b
    for sym, e in db.items():
        want[sym] = want.get(sym, Element.zero(H)) + e * a
    assert dab == {k: v for k, v in want.items() if not v.is_zero()}


def test_derive_dual_route():
    # the derivation must equal the weight-(n-1,1) coproduct component
    # contracted against the letter differentials, on every bracket of
    # depth <= 3 and weight <= 5 at the standard placement, one spread
    # placement and one that does not start at 1
    gens = [li(p[:d + 1], n) for d in (1, 2, 3) for n in weight_tuples(5, d)
            for p in ((1, 2, 3, 4), (1, 3, 4, 7), (2, 4, 5, 8))]
    for g in gens:
        e = E(g, H)
        assert derive(e) == derive_via_coproduct(e), g


def test_derive_rejects_inverted():
    with pytest.raises(ValueError):
        derive(E(li((1, 2), (2,), inverted=True), HBAR))


# --------------------------------------------------------------- inversion

def test_inv_fixes_regular():
    e = x1(3) * x2(1) + 2 * E(log(1), H)
    assert inv_element(e.as_sort(HBAR)) == e

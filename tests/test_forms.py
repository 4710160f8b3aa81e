import cmath
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lihopf import clear_caches, forms
from lihopf.algebra import (H, HBAR, Element, apply_contraction, gen_elem, li,
                            log)
from lihopf.forms import (Form, Poly, element_to_poly, eta_tensor,
                          point_residual, poly_to_element, pullback_form,
                          sample_point, tangent_basis, w_element, w_tensor)
from lihopf.tensor import WordSum, project_pi, symbol, u_, v_

u1, u2, u3 = u_(1), u_(2), u_(3)
v11, v12, v22 = v_(1, 1), v_(1, 2), v_(2, 2)

ALPHABET = [u1, v11, u2, v12, v22, u3]


def P(sym):
    return Poly.variable(sym)


# ---------------------------------------------------------------- Poly

def test_poly_ring():
    p = (P(u1) + 2) * (P(v11) - P(u1))
    assert p == Poly({(u1, v11): 1, (u1, u1): -1, (v11,): 2, (u1,): -2})
    assert p - p == Poly.zero()
    assert Poly.one() * p == p
    assert p.constant_term() == 0
    assert (p + 5).constant_term() == 5


def test_poly_substitute_and_derivative():
    p = P(u1) * P(u1) * P(v11) + 3 * P(v22)
    assert p.derivative(u1) == 2 * P(u1) * P(v11)
    assert p.derivative(v11) == P(u1) * P(u1)
    assert p.derivative(v12) == Poly.zero()
    q = p.substitute({u1: P(u2) + P(u3)})
    assert q == (P(u2) + P(u3)) * (P(u2) + P(u3)) * P(v11) + 3 * P(v22)


def test_poly_evaluate():
    p = P(u1) * P(v11) - 2
    got = p.evaluate({u1: 3 + 1j, v11: 2j})
    assert abs(got - ((3 + 1j) * 2j - 2)) < 1e-14


# ---------------------------------------------------------------- Form

def test_wedge_antisymmetry_and_repeats():
    a = Form.d_letter(u1)
    b = Form.d_letter(v11)
    assert a.wedge(b) == -(b.wedge(a))
    assert a.wedge(a).is_zero()
    ab = a.wedge(b)
    assert ab.wedge(Form.d_letter(v12)) == Form(
        3, {(u1, v11, v12): Poly.one()})


def test_exterior_d_squares_to_zero():
    p = Poly({(u1, v11): F(2), (v12, v12): F(1, 3), (): F(5)})
    f = Form(1, {(u1,): p, (v22,): Poly({(u1, u1, v12): 1})})
    assert f.exterior_d().exterior_d().is_zero()


def test_exterior_d_leibniz_on_functions():
    p = Poly({(u1, v11): F(2), (v12,): F(1, 3)})
    q = Poly({(v22,): F(1), (u1,): F(-2), (): F(4)})
    dp = Form(0, {(): p}).exterior_d()
    dq = Form(0, {(): q}).exterior_d()
    dpq = Form(0, {(): p * q}).exterior_d()
    assert dpq == dp.scale(q) + dq.scale(p)


def test_exterior_d_on_linear_coefficient():
    # d(v du) = dv ^ du = -du ^ dv
    f = Form(1, {(u1,): P(v11)})
    assert f.exterior_d() == Form(2, {(u1, v11): Poly.constant(-1)})


# ------------------------------------------------------- the one-form w

def test_w_single_letters():
    assert w_element(gen_elem(log(1))) == Form(1, {(u1,): Poly.one()})
    assert w_element(gen_elem(log(3))) == Form(1, {(u3,): Poly.one()})
    # a window of length two: one weight-one generator, one letter
    assert w_element(gen_elem(li((1, 3), (1,)))) == Form(
        1, {(v12,): Poly.constant(-1)})
    assert w_element(gen_elem(li((2, 3), (1,)))) == Form(
        1, {(v22,): Poly.constant(-1)})


def test_w_two_and_three_letter_shapes():
    # hand-checked: w(a (x) b) = (ab' - ba')/2
    got = w_tensor((u1, v11))
    want = Form(1, {(v11,): Poly({(u1,): F(1, 2)}),
                    (u1,): Poly({(v11,): F(-1, 2)})})
    assert got == want
    # hand-checked: w(a (x) b (x) c) = (bc da - 2ac db + ab dc)/6
    got3 = w_tensor((u1, v11, u2))
    want3 = (Form(1, {(u1,): Poly({(u2, v11): F(1, 6)})})
             + Form(1, {(v11,): Poly({(u1, u2): F(-2, 6)})})
             + Form(1, {(u2,): Poly({(u1, v11): F(1, 6)})}))
    assert got3 == want3


def test_w_depth_one_golden():
    # w[x1]_n = ((-1)^n/n!) u^(n-2) (u dv - v du), hand-checked at n=2
    for n in (2, 3, 4, 5):
        c = F((-1) ** n, math.factorial(n))
        upow = (u1,) * (n - 2)
        want = Form(1, {(v11,): Poly({upow + (u1,): c}),
                        (u1,): Poly({tuple(sorted(upow + (v11,))): -c})})
        assert w_element(gen_elem(li((1, 2), (n,)))) == want


def test_w_depth_two_golden():
    got = w_element(gen_elem(li((1, 2, 3), (1, 1))))
    want = Form(1, {
        (u1,): Poly({(v12,): F(1, 2)}),
        (v11,): Poly({(v22,): F(1, 2), (v12,): F(-1, 2)}),
        (v22,): Poly({(v12,): F(1, 2), (v11,): F(-1, 2)}),
        (v12,): Poly({(u1,): F(-1, 2), (v11,): F(1, 2), (v22,): F(-1, 2)}),
    })
    assert got == want


def test_w_weight_three_commutator_slice():
    # 3 w[x1,x2]_{2,1} written through lower-weight forms; hand-checked
    w21 = w_element(gen_elem(li((1, 2, 3), (2, 1))))
    w1_2 = w_element(gen_elem(li((1, 2), (2,))))
    w2_2 = w_element(gen_elem(li((2, 3), (2,))))
    w12_2 = w_element(gen_elem(li((1, 3), (2,))))
    w11 = w_element(gen_elem(li((1, 2, 3), (1, 1))))
    rhs = (w1_2.scale(-P(v22)) - (-w1_2 - w2_2).scale(P(v12))
           - (w11.scale(P(u1)) - w12_2.scale(P(v22))))
    assert w21.scale(3) == rhs


def test_w_equals_eta_after_projection():
    rng = random.Random(20260819)
    for length in range(1, 6):
        for _ in range(10):
            word = tuple(rng.choice(ALPHABET) for _ in range(length))
            ws = WordSum({word: 1})
            assert w_tensor(word) == eta_tensor(project_pi(ws))


def test_w_kills_products():
    rng = random.Random(99)
    gens = [log(1), log(2), li((1, 2), (1,)), li((1, 2), (2,)),
            li((1, 3), (1,)), li((2, 3), (2,)), li((1, 2, 3), (1, 1))]
    for _ in range(50):
        a = gen_elem(rng.choice(gens))
        b = gen_elem(rng.choice(gens))
        assert w_element(a * b).is_zero()


def test_w_of_a_product_goes_through_its_symbol(monkeypatch):
    # the memo keeps the symbol route: a product's nonzero symbol is
    # computed and w kills it, so "w kills the product" stays a check
    seen = []

    def spy(e):
        seen.append(e)
        return symbol(e)

    monkeypatch.setattr(forms, "symbol", spy)
    clear_caches()
    a, b = gen_elem(li((1, 2), (2,))), gen_elem(li((1, 2, 3), (1, 1)))
    assert w_element(a * b).is_zero()
    assert seen == [a * b]
    assert not symbol(a * b).is_zero()
    clear_caches()


def test_w_element_hands_out_copies_of_its_memo():
    e = gen_elem(li((1, 2, 3), (2, 1)))
    want = w_tensor(symbol(e))
    got = w_element(e)
    assert got == want
    basis, p = next(iter(got.terms.items()))
    p.terms[next(iter(p.terms))] += 7
    got.terms[basis] = Poly.one()
    got.terms[(u_(9),)] = Poly.one()
    assert w_element(e) == want
    cached = forms._w_monomial((li((1, 2, 3), (2, 1)),))
    p = next(iter(cached.terms.values()))
    with pytest.raises(TypeError):
        cached.terms[(u_(9),)] = Poly.one()
    with pytest.raises(TypeError):
        p.terms[()] = 1


def test_w_element_is_defined_on_the_plain_sort_only():
    for e in [gen_elem(li((1, 2), (2,), inverted=True)),
              gen_elem(li((1, 2), (2,)), HBAR)]:
        with pytest.raises(ValueError,
                           match="the symbol is defined on the plain sort"):
            w_element(e)


def test_w_vanishes_on_empty_word():
    assert w_tensor(WordSum.unit()).is_zero()


# ------------------------------------------------------------ pullbacks

def pullback_poly(c, p):
    """The pullback of a Poly, through the pullback of the 0-form p."""
    return pullback_form(c, Form(0, {(): p})).terms.get((), Poly.zero())


def test_pullback_poly_letters():
    c = (1, 3)
    assert pullback_poly(c, P(u1)) == P(u1) + P(u2)
    assert pullback_poly(c, P(v11)) == P(v12)
    c2 = (2, 3, 5)
    assert pullback_poly(c2, P(u1)) == P(u2)
    assert pullback_poly(c2, P(u2)) == P(u3) + P(u_(4))
    assert pullback_poly(c2, P(v12)) == P(v_(2, 4))
    assert pullback_poly(c2, P(v22)) == P(v_(3, 4))


def test_pullback_is_ring_map():
    c = (1, 3, 4)
    p = P(u1) * P(v12) + 2 * P(v11)
    q = P(u2) - P(v22)
    assert (pullback_poly(c, p * q)
            == pullback_poly(c, p) * pullback_poly(c, q))


def test_pullback_naturality():
    cases = [
        ((1, 3), li((1, 2), (2,))),
        ((1, 3), li((1, 2), (3,))),
        ((2, 4), li((1, 2), (2,))),
        ((1, 3, 4), li((1, 2, 3), (1, 1))),
        ((1, 2, 4), li((1, 2, 3), (2, 1))),
        ((2, 3, 5), li((1, 2, 3), (1, 2))),
        ((1, 3, 4, 5), li((1, 2, 3, 4), (1, 1, 1))),
    ]
    for c, g in cases:
        lhs = w_element(apply_contraction(c, gen_elem(g)))
        rhs = pullback_form(c, w_element(gen_elem(g)))
        assert lhs == rhs, (c, g)


# ----------------------------------------------------------- embeddings

def test_embedding_roundtrip():
    from lihopf.algebra import Element
    e = (gen_elem(log(2)) * gen_elem(li((1, 3), (1,))) * 3
         + gen_elem(log(1)) - Element.one(H))
    p = element_to_poly(e)
    assert poly_to_element(p, H) == e


def test_embedding_letter_conventions():
    assert element_to_poly(gen_elem(log(4))) == P(u_(4))
    assert element_to_poly(gen_elem(li((2, 4), (1,)))) == -P(v_(2, 3))
    assert poly_to_element(P(v_(2, 3)), H) == -gen_elem(li((2, 4), (1,)))


def test_embedding_rejects_higher_weight():
    with pytest.raises(ValueError):
        element_to_poly(gen_elem(li((1, 2), (2,))))


# -------------------------------------------------------- numeric layer

def test_sample_point_satisfies_constraints():
    for seed in range(5):
        vals = sample_point(3, seed=seed)
        assert point_residual(vals, 3) < 1e-12
        assert set(vals) == ({u_(r) for r in range(1, 4)}
                             | {v_(i, j) for i in range(1, 4)
                                for j in range(i, 4)})


def test_numeric_golden_dim_one():
    # u = -log 2 forces v = -log 2 and the tangent (1, -1)
    u = complex(-math.log(2))
    vals = {u_(1): u, v_(1, 1): cmath.log(1 - cmath.exp(u))}
    assert abs(vals[v_(1, 1)] - u) < 1e-15
    assert point_residual(vals, 1) < 1e-15
    (xi,) = tangent_basis(vals, 1)
    assert abs(xi[u_(1)] - 1) < 1e-15
    assert abs(xi[v_(1, 1)] + 1) < 1e-15


def test_tangent_window_support():
    vals = sample_point(3, seed=11)
    xis = tangent_basis(vals, 3)
    # moving u_2 leaves windows that avoid position 2 untouched
    assert xis[1][v_(3, 3)] == 0j
    assert xis[1][v_(1, 1)] == 0j
    assert abs(xis[1][v_(1, 3)]) > 0
    assert abs(xis[1][v_(2, 2)]) > 0


def test_form_evaluation_antisymmetry():
    f = Form(2, {(u1, v11): Poly.one()})
    xi = {u1: 2 + 0j, v11: 0j}
    et = {u1: 0j, v11: 3 + 0j}
    assert abs(f.evaluate({}, (xi, et)) - 6) < 1e-14
    assert abs(f.evaluate({}, (et, xi)) + 6) < 1e-14
    assert abs(f.evaluate({}, (xi, xi))) < 1e-14


def test_one_form_evaluation_matches_hand_value():
    # w[x1]_2 = (1/2)(u dv - v du) at the golden point: u = v = -log 2,
    # tangent (1,-1) gives (1/2)((-log2)(-1) - (-log2)(1)) = log 2
    f = w_element(gen_elem(li((1, 2), (2,))))
    u = complex(-math.log(2))
    vals = {u_(1): u, v_(1, 1): u}
    (xi,) = tangent_basis(vals, 1)
    got = f.evaluate(vals, (xi,))
    assert abs(got - math.log(2)) < 1e-14


# ------------------------------------------------- property-based bits

@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=4),
       st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=3))
def test_w_kills_shuffles(w1, w2):
    from lihopf.tensor import shuffle_words
    sh = shuffle_words(tuple(w1), tuple(w2))
    total = Form(1)
    for word, mult in sh.items():
        total = total + w_tensor(word).scale(mult)
    assert total.is_zero()


DEPTH2_ALPHABET = [u1, u2, v11, v12, v22]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 3, 4), (1, 2, 4), (2, 3, 5), (1, 3, 5)]),
       st.lists(st.sampled_from(DEPTH2_ALPHABET), min_size=1, max_size=3))
def test_pullback_form_identity_and_degree(c, word):
    word = tuple(word)
    f = w_tensor(word)
    assert pullback_form(c, f).degree == 1
    assert pullback_form((1, 2, 3), f) == f

import importlib
import itertools
import math
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from lihopf import cli
from lihopf.algebra import (H, HBAR, Element, expand_log, gen_elem, li, log)
from lihopf.coproduct import coproduct, reduced_coproduct
from lihopf.forms import (Form, Poly, point_residual, poly_to_element,
                          sample_point, tangent_basis, w_element)
from lihopf.tensor import grouplike_ok, u_, v_
from lihopf.lincomb import collect
from lihopf.variation import (Matrix, VariationMatrix, antipode_ok, build_V,
                              chain_map_ok, corollary_form_ok,
                              curvature_identity_ok, derivation_ok,
                              enumerate_keys, hat_derivation_ok, omega_hat,
                              omega_form_matrix, omega_matrix, recurrence_ok,
                              v_hat, w_closed_form, w_of_V)

variation = importlib.import_module("lihopf.variation")

u1, u2 = u_(1), u_(2)
v1, v2, v12 = v_(1, 1), v_(2, 2), v_(1, 2)
P = Poly.variable

one = Element.one(H)
zero = Element.zero(H)
x1_0 = gen_elem(log(1))
x2_0 = gen_elem(log(2))
x12_0 = x1_0 + x2_0
x1_1 = gen_elem(li((1, 2), (1,)))
x2_1 = gen_elem(li((2, 3), (1,)))
x12_1 = gen_elem(li((1, 3), (1,)))
x1_2 = gen_elem(li((1, 2), (2,)))
x2_2 = gen_elem(li((2, 3), (2,)))
x12_2 = gen_elem(li((1, 3), (2,)))
g11 = gen_elem(li((1, 2, 3), (1, 1)))
g21 = gen_elem(li((1, 2, 3), (2, 1)))


# ------------------------------------------------------------------ keys

def test_enumerate_keys_literals():
    assert enumerate_keys((1, 1)) == [(), (0, 1), (1, 0), (1, 1)]
    assert enumerate_keys((2, 1)) == [(), (0, 1), (1, 0), (1, 1), (2, 0),
                                      (2, 1)]
    assert enumerate_keys((2,)) == [(), (1,), (2,)]


def test_key_closure_needed_for_one_two():
    V = build_V((1, 2), HBAR)
    assert V.keys != tuple(enumerate_keys((1, 2)))
    assert V.keys == ((), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (1, 2))


def test_literal_keys_closed_elsewhere():
    for nv in [(2,), (3,), (1, 1), (2, 1), (1, 1, 1)]:
        assert build_V(nv, HBAR).keys == tuple(enumerate_keys(nv))


def test_block_boundaries():
    assert build_V((1, 1), H).block_boundaries() == [1, 3, 4]
    assert build_V((2, 1), H).block_boundaries() == [1, 3, 5, 6]
    assert build_V((2,), H).block_boundaries() == [1, 2, 3]


# --------------------------------------------------------------- goldens

def test_V21_golden_rows():
    V = build_V((2, 1), H)
    golden = {
        ((), ()): one,
        ((0, 1), ()): x2_1, ((0, 1), (0, 1)): one,
        ((1, 0), ()): x12_1, ((1, 0), (1, 0)): one,
        ((1, 1), ()): g11, ((1, 1), (0, 1)): x1_1,
        ((1, 1), (1, 0)): -x1_1 - x1_0 + x2_1,
        ((1, 1), (1, 1)): one,
        ((2, 0), ()): x12_2, ((2, 0), (1, 0)): x12_0,
        ((2, 0), (2, 0)): one,
        ((2, 1), ()): g21, ((2, 1), (0, 1)): x1_2,
        ((2, 1), (1, 0)): (-x1_2 - x1_0 * x1_0 * F(1, 2) - x2_2
                           + x12_0 * x2_1),
        ((2, 1), (1, 1)): x1_0, ((2, 1), (2, 0)): x2_1,
        ((2, 1), (2, 1)): one,
    }
    for v in V.keys:
        for w in V.keys:
            assert V.entry(v, w) == golden.get((v, w), zero), (v, w)


def test_V31_bottom_row_golden():
    V = build_V((3, 1), H)
    assert V.keys == ((), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0),
                      (3, 1))
    x1_3 = gen_elem(li((1, 2), (3,)))
    x2_3 = gen_elem(li((2, 3), (3,)))
    want = [gen_elem(li((1, 2, 3), (3, 1))),
            x1_3,
            (x2_3 - x1_3 - x2_2 * x12_0 + x2_1 * x12_0 * x12_0 * F(1, 2)
             - x1_0 ** 3 * F(1, 6)),
            x1_0 * x1_0 * F(1, 2),
            -x2_2 + x2_1 * x12_0,
            x1_0,
            x2_1,
            one]
    got = [V.entry((3, 1), w) for w in V.keys]
    assert got == want


def test_depth_one_V_golden():
    V = build_V((4,), H)
    for k in range(5):
        for l in range(5):
            kk = (k,) if k else ()
            ll = (l,) if l else ()
            got = V.entry(kk, ll)
            if l > k:
                assert got == zero
            elif l == 0 and k > 0:
                assert got == gen_elem(li((1, 2), (k,)))
            elif k == l:
                assert got == one
            else:
                assert got == x1_0 ** (k - l) * F(1, math.factorial(k - l))


def test_sort_comparison_at_one_one():
    VH = build_V((1, 1), H)
    VB = build_V((1, 1), HBAR)
    inv11 = gen_elem(li((1, 2), (1,), inverted=True), HBAR)
    assert VH.entry((1, 1), (1, 0)) == x2_1 - x1_1 - x1_0
    assert VB.entry((1, 1), (1, 0)) == x2_1.as_sort(HBAR) - inv11
    assert VH.entry((1, 1), (0, 1)) == x1_1
    assert VB.entry((1, 1), (0, 1)) == x1_1.as_sort(HBAR)


def test_omega_21_golden():
    V = build_V((2, 1), H)
    om = omega_matrix(V)
    want = {
        ((0, 1), ()): -P(v2), ((1, 0), ()): -P(v12),
        ((1, 1), (0, 1)): -P(v1), ((1, 1), (1, 0)): -P(u1) + P(v1) - P(v2),
        ((2, 0), (1, 0)): P(u1) + P(u2),
        ((2, 1), (1, 1)): P(u1), ((2, 1), (2, 0)): -P(v2),
    }
    for v in V.keys:
        for w in V.keys:
            assert om.entry(v, w) == want.get((v, w), Poly.zero()), (v, w)


def test_depth_one_hatted_goldens():
    V = build_V((5,), H)
    om = omega_matrix(V)
    # diagonal-below u, first column -v, nothing else
    for vk in V.keys:
        for wk in V.keys:
            k, l = sum(vk), sum(wk)
            if k == 1 and l == 0:
                assert om.entry(vk, wk) == -P(v1)
            elif k - l == 1:
                assert om.entry(vk, wk) == P(u1)
            else:
                assert om.entry(vk, wk) == Poly.zero()
    oh = omega_hat(V)
    for vk in V.keys:
        n = sum(vk)
        for wk in V.keys:
            if wk == () and n >= 2:
                want = w_element(gen_elem(li((1, 2), (n,)))).scale(F(n - 1))
                assert oh.entry(vk, wk) == want
            else:
                assert oh.entry(vk, wk).is_zero()
    vh = v_hat(V)
    for k in range(1, 6):
        got = vh.entry((k,), ())
        want = poly_to_element(
            Poly({tuple([u1] * (k - 1)) + (v1,):
                  -F((-1) ** k, math.factorial(k))}), H)
        for r in range(k):
            want = want + (gen_elem(li((1, 2), (k - r,))) * x1_0 ** r
                           * F((-1) ** r, math.factorial(r)))
        assert got == want, k


def _lhat2(a, b):
    y2 = gen_elem(li((a, b), (2,)))
    y1 = gen_elem(li((a, b), (1,)))
    return y2 - expand_log(a, b) * y1 * F(1, 2)


def test_two_one_hatted_block_goldens():
    V = build_V((2, 1), H)
    oh = omega_hat(V).rows
    w11 = w_element(g11)
    w21 = w_element(g21)
    w12f = w_element(x12_2)
    w1f = w_element(x1_2)
    w2f = w_element(x2_2)
    A = [[w11, Form(1), Form(1)],
         [w12f, Form(1), Form(1)],
         [w21.scale(2), w1f, (-w1f) - w2f]]
    for i in range(6):
        for j in range(6):
            want = A[i - 3][j] if (i >= 3 and j < 3) else Form(1)
            assert oh[i][j] == want, (i, j)
    vh = v_hat(V).rows
    L11 = poly_to_element(Poly({(u1, v12): -F(1, 2), (v1, v12): F(1, 2),
                                (v1, v2): -F(1, 2), (v12, v2): -F(1, 2)}),
                          H) + g11
    L21 = (poly_to_element(Poly({(u1, u1, v12): F(1, 3),
                                 (u1, v1, v12): -F(1, 3),
                                 (u1, v1, v2): F(1, 3),
                                 (u1, v12, v2): F(2, 3),
                                 (u2, v12, v2): F(1, 3)}), H)
           + poly_to_element(P(v2), H) * x12_2
           - poly_to_element(P(u1), H) * g11 + g21)
    B = [[L11, zero, zero],
         [_lhat2(1, 3), zero, zero],
         [L21, _lhat2(1, 2), -_lhat2(1, 2) - _lhat2(2, 3)]]
    for i in range(6):
        for j in range(6):
            if i >= 3 and j < 3:
                want = B[i - 3][j]
            elif i == j:
                want = one
            else:
                want = zero
            assert vh[i][j] == want, (i, j)


# ------------------------------------------------------------------ laws

NVECS_FAST = [(2,), (1, 1), (2, 1), (1, 2)]
# the laws at the shape of the benchmark's depth-ladder rung
DEEP = (2, 2, 2)


def test_comultiplicativity_both_sorts():
    for nv in NVECS_FAST:
        for sort in (H, HBAR):
            V = build_V(nv, sort)
            assert grouplike_ok(V.keys, V.entry, coproduct), (nv, sort)


def test_perturbed_V_is_not_grouplike():
    V = build_V((2, 1), H)
    bad_key = ((2, 1), (1, 1))
    assert not V.entry(*bad_key).is_zero()

    def perturbed(v, w):
        e = V.entry(v, w)
        return e + e if (v, w) == bad_key else e

    assert not grouplike_ok(V.keys, perturbed, coproduct)


def test_perturbed_V_breaks_every_matrix_law():
    V = build_V((2, 1), H)
    for v, w in [((2, 1), (1, 1)), ((2, 1), ())]:
        entries = dict(V.entries)
        e = entries[v, w]
        entries[v, w] = e + e
        bad = VariationMatrix(V.nvec, V.sort, V.keys, entries)
        assert not antipode_ok(bad), (v, w)
        assert not derivation_ok(bad), (v, w)
        assert not hat_derivation_ok(bad), (v, w)
        assert not chain_map_ok(bad), (v, w)


def test_antipode_identity_both_sorts():
    for nv in NVECS_FAST + [DEEP]:
        for sort in (H, HBAR):
            assert antipode_ok(build_V(nv, sort)), (nv, sort)


def test_derivation_identity():
    for nv in NVECS_FAST + [(3,), DEEP]:
        assert derivation_ok(build_V(nv, H)), nv


def test_w_dual_route_and_chain_map():
    for nv in [(2,), (3,), (4,), (5,), (1, 1), (2, 1), (1, 2), (1, 1, 1),
               DEEP]:
        V = build_V(nv, H)
        for n in range(1, sum(nv) + 1):
            assert w_of_V(V, n) == w_closed_form(V, n), (nv, n)
    for nv in [(3,), (2, 1), (1, 2), DEEP]:
        assert chain_map_ok(build_V(nv, H)), nv


def test_one_forms_of_V_never_need_the_closed_form(monkeypatch):
    # w_of_V is the entrywise route; the closed form is only a check
    def refuse(V, n):
        raise AssertionError("w_closed_form called")

    monkeypatch.setattr(variation, "w_closed_form", refuse)
    V = build_V((2, 1), H)
    assert omega_hat(V)
    assert chain_map_ok(V)
    assert recurrence_ok(V)
    assert corollary_form_ok((2, 1))
    for what in ("wV", "omegahat"):
        res = CliRunner().invoke(cli.main, ["varmatrix", "--weights", "2,1",
                                            "--what", what])
        assert res.exit_code == 0, (what, res.output, res.exception)


def test_hat_connection_laws():
    for nv in [(3,), (2, 1), DEEP]:
        V = build_V(nv, H)
        assert hat_derivation_ok(V), nv
        assert curvature_identity_ok(V), nv


def test_recurrence_and_corollary():
    for nv in [(3,), (2, 1), (1, 2), DEEP]:
        assert recurrence_ok(build_V(nv, H)), nv
    for nv in [(2,), (3,), (1, 1), (2, 1), (1, 2), DEEP]:
        assert corollary_form_ok(nv), nv


def test_generator_chain_map():
    cases = [li((1, 2), (2,)), li((1, 2), (4,)), li((1, 2, 3), (1, 1)),
             li((1, 2, 3), (2, 1)), li((1, 2, 3), (1, 2)), li((1, 3), (2,)),
             li((1, 2, 3, 4), (1, 1, 1))]
    for g in cases:
        e = gen_elem(g)
        lhs = w_element(e).exterior_d()
        rhs = Form(2)
        for (lm, rm), c in reduced_coproduct(e).terms.items():
            wl = w_element(Element.from_monomial(lm, H))
            wr = w_element(Element.from_monomial(rm, H))
            rhs = rhs + wl.wedge(wr).scale(c)
        assert lhs == rhs, g


# --------------------------------------------------------------- numeric

def _omega_wedge_omega(V):
    omf = omega_form_matrix(V).entries
    return list(collect(((v, w), f.wedge(g)) for (v, r), f in omf.items()
                        for (s, w), g in omf.items() if r == s).values())


def test_numeric_flatness():
    for nv in [(2,), (1, 1), (2, 1), (1, 1, 1)]:
        V = build_V(nv, H)
        ww = _omega_wedge_omega(V)
        dim = len(nv)
        if dim < 2:
            continue
        for seed in range(4):
            vals = sample_point(dim, seed=seed)
            assert point_residual(vals, dim) < 1e-12
            tb = tangent_basis(vals, dim)
            for f in ww:
                for a, b in itertools.combinations(range(dim), 2):
                    assert abs(f.evaluate(vals, (tb[a], tb[b]))) < 1e-9


def test_build_V_cached_rows_are_read_only():
    V = build_V((2, 1), H)
    first = [Element(H, dict(e.terms)) for e in V.rows[0]]
    assert len(first) == 6
    with pytest.raises(AttributeError):
        V.rows[0].clear()
    with pytest.raises(AttributeError):
        V.rows[0][0].terms.clear()
    with pytest.raises(AttributeError):
        V.entries.clear()
    again = build_V((2, 1), H)
    assert again is V
    assert list(again.rows[0]) == first
    assert again.entry((2, 1), (2, 1)) == one


def test_build_V_cached_matrix_cannot_be_rebound():
    V = build_V((2, 1), H)
    keys = V.keys
    assert len(keys) == 6
    for name in Matrix.__slots__ + VariationMatrix.__slots__:
        with pytest.raises(AttributeError):
            setattr(V, name, ())
    assert build_V((2, 1), H).keys == keys

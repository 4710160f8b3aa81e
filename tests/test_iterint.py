"""Iterated-integral symbols: coproduct, variation, splitting, evaluation."""

import hashlib
import itertools
import json
import math
from fractions import Fraction as F
from functools import partial

import pytest

from lihopf.algebra import HBAR, ITER, Element, expand_log, gen_elem, li, log
from lihopf.coproduct import coproduct, coproduct_bar
from lihopf.expr import element_document, render
from lihopf.iterint import (
    IGenerator,
    InvProduct,
    ONE,
    ZERO,
    canonical_symbol,
    gamma,
    gamma_gen,
    i_coproduct,
    i_coproduct_gen,
    integral,
    is_polylogarithmic,
    phi,
    phi_element,
    phi_morphism_ok,
    subsequence_entry,
    subsequence_keys,
)
from lihopf.tensor import Tensor, grouplike_ok


def ig(start, word, end):
    return IGenerator(start, tuple(word), end)


# ---------------------------------------------------------------------------
# points and symbols

def test_point_validation():
    with pytest.raises(ValueError):
        InvProduct(3, 2)
    with pytest.raises(ValueError):
        InvProduct(0, 2)


def test_weight_and_depth():
    g = ig(ZERO, (InvProduct(1, 2), ZERO, InvProduct(2, 2)), ONE)
    assert g.weight == 3
    assert g.depth == 2


def test_points_and_symbols_are_tuples():
    points = [InvProduct(1, 2), ONE, InvProduct(1, 1), ZERO]
    assert sorted(points) == [ZERO, ONE, InvProduct(1, 1), InvProduct(1, 2)]
    syms = [ig(ONE, (ZERO,), InvProduct(2, 2)),
            ig(ZERO, (InvProduct(1, 2), ZERO), ONE),
            ig(ZERO, (InvProduct(1, 1),), ONE)]
    assert sorted(syms) == [syms[2], syms[1], syms[0]]
    for x in points + syms:
        assert hash(x) == hash(tuple(x))
    assert integral(syms[0]) * integral(syms[2]) == Element(
        ITER, {(syms[2], syms[0]): 1})


def test_point_and_symbol_reprs():
    assert [repr(p) for p in (ZERO, ONE, InvProduct(2, 2), InvProduct(1, 2))] \
        == ["0", "1", "1/x2", "1/(x1..x2)"]
    g = IGenerator(ZERO, (InvProduct(1, 2), ZERO, InvProduct(2, 2)), ONE)
    assert repr(g) == "I(0;1/(x1..x2),0,1/x2;1)"
    assert "%s" % (g,) == str(g) == repr(g)


def test_empty_word_is_unit():
    assert integral(ig(ONE, (), InvProduct(1, 1))) == Element.one(ITER)


def test_element_ring():
    g1 = ig(ZERO, (InvProduct(1, 1),), ONE)
    g2 = ig(ZERO, (InvProduct(2, 2),), ONE)
    a, b = integral(g1), integral(g2)
    assert a * b == b * a
    assert (a + b) * (a - b) == a * a - b * b
    assert (a - a).is_zero()
    assert 2 * a == a + a


# ---------------------------------------------------------------------------
# the subsequence coproduct

def test_coproduct_weight_two_has_four_terms():
    # keep any subset of the two interior letters; empty segments drop out
    a1, a2 = InvProduct(1, 2), InvProduct(2, 2)
    g = ig(ZERO, (a1, a2), ONE)
    unit = Element.one(ITER)
    want = (
        Tensor.of(unit, integral(g))
        + Tensor.of(integral(ig(ZERO, (a1,), ONE)), integral(ig(a1, (a2,), ONE)))
        + Tensor.of(integral(ig(ZERO, (a2,), ONE)), integral(ig(ZERO, (a1,), a2)))
        + Tensor.of(integral(g), unit)
    )
    assert i_coproduct_gen(g) == want


def test_coproduct_counts_zero_letters():
    # a kept zero letter is a genuine subsequence choice: 2^weight terms
    g = ig(ZERO, (InvProduct(1, 1), ZERO), ONE)
    assert len(i_coproduct_gen(g).terms) == 4


def test_coproduct_multiplicative():
    g1 = ig(ZERO, (InvProduct(1, 1),), ONE)
    g2 = ig(ZERO, (InvProduct(2, 2),), ONE)
    e = integral(g1) * integral(g2)
    assert i_coproduct(e) == i_coproduct_gen(g1) * i_coproduct_gen(g2)


# ---------------------------------------------------------------------------
# the subsequence variation matrix

def test_subsequence_keys():
    assert subsequence_keys(3) == [(0, 2), (0, 1, 2)]
    assert subsequence_keys(4) == [(0, 3), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3)]


def test_subsequence_entry_golden():
    # segments of (0,1,3,4,5) cut at (0,3,5): two factors, hand-checked
    a = [ZERO, InvProduct(1, 3), InvProduct(2, 3), ZERO, InvProduct(3, 3), ONE]
    got = subsequence_entry(a, (0, 1, 3, 4, 5), (0, 3, 5))
    want = (integral(ig(a[0], (a[1],), a[3]))
            * integral(ig(a[3], (a[4],), a[5])))
    assert got == want


def test_subsequence_entry_requires_subsequence():
    a = [ZERO, InvProduct(1, 2), InvProduct(2, 2), ONE]
    assert subsequence_entry(a, (0, 1, 3), (0, 2, 3)).is_zero()


def test_subsequence_diagonal_is_unit():
    a = [ZERO, InvProduct(1, 2), ONE]
    assert subsequence_entry(a, (0, 1, 2), (0, 1, 2)) == Element.one(ITER)


def test_perturbed_subsequence_matrix_is_not_grouplike():
    points = [ZERO, InvProduct(1, 2), InvProduct(2, 2), ONE]
    keys = subsequence_keys(len(points))
    entry = partial(subsequence_entry, points)
    bad_key = ((0, 1, 2, 3), (0, 1, 3))
    assert not entry(*bad_key).is_zero()

    def perturbed(i, j):
        e = entry(i, j)
        return e + e if (i, j) == bad_key else e

    assert not grouplike_ok(keys, perturbed, i_coproduct)


def test_symbols_have_no_bracket_coproduct():
    e = integral(ig(ZERO, (InvProduct(1, 1),), ONE))
    with pytest.raises(ValueError, match="no bracket coproduct on sort 'I'"):
        coproduct(e)


@pytest.mark.parametrize("points", [
    [ZERO, InvProduct(1, 2), ONE],
    [ZERO, InvProduct(1, 2), InvProduct(2, 2), ONE],
    [ZERO, InvProduct(1, 3), ZERO, InvProduct(3, 3), ONE],
    [InvProduct(1, 2), ZERO, InvProduct(2, 2), ZERO, ONE],
])
def test_subsequence_matrix_comultiplicative(points):
    keys = subsequence_keys(len(points))
    assert grouplike_ok(keys, partial(subsequence_entry, points), i_coproduct)


# ---------------------------------------------------------------------------
# the basepoint-splitting map

def test_gamma_two_gap_golden():
    # I(c; 0; 1) splits at either side of the interior zero, hand-checked
    c = InvProduct(1, 1)
    g = ig(c, (ZERO,), ONE)
    want = (integral(ig(c, (), ZERO)) * integral(ig(ZERO, (ZERO,), ONE))
            + integral(ig(c, (ZERO,), ZERO)) * integral(ig(ZERO, (), ONE)))
    assert gamma_gen(g) == want


def test_gamma_fixes_canonical_symbols():
    # a symbol already based at 0 only splits trivially
    for idx, wts in [((1, 2), (2,)), ((1, 2, 3), (1, 1))]:
        g = canonical_symbol(idx, wts)
        assert gamma_gen(g) == integral(g)


def test_gamma_drops_degenerate_pieces():
    # every split of I(0; c; 0) hits a piece that starts and ends at 0
    # with letters inside, so the whole symbol is killed -- matching its
    # evaluation, which vanishes
    g = ig(ZERO, (InvProduct(1, 1),), ZERO)
    assert gamma_gen(g).is_zero()
    assert phi(g).is_zero()


def test_gamma_multiplicative():
    g1 = ig(InvProduct(1, 2), (ZERO, InvProduct(2, 2)), ONE)
    g2 = ig(ONE, (ZERO, InvProduct(1, 1)), ZERO)
    e = integral(g1) * integral(g2)
    assert gamma(e) == gamma(integral(g1)) * gamma(integral(g2))


@pytest.mark.parametrize("g", [
    ig(InvProduct(1, 2), (ZERO, InvProduct(2, 2)), ONE),
    ig(InvProduct(1, 3), (InvProduct(2, 3), ZERO), InvProduct(3, 3)),
    ig(ONE, (ZERO, InvProduct(1, 1)), ZERO),
    ig(InvProduct(2, 3), (ZERO, ZERO), ZERO),
    ig(ZERO, (InvProduct(1, 2), ZERO, InvProduct(2, 2)), ONE),
])
def test_phi_after_gamma_is_phi(g):
    assert (phi_element(gamma_gen(g)) - phi(g)).is_zero()


# ---------------------------------------------------------------------------
# membership

def test_membership_examples():
    c12, c2 = InvProduct(1, 2), InvProduct(2, 2)
    assert is_polylogarithmic(ig(ZERO, (c12, ZERO, c2), ONE))
    assert is_polylogarithmic(ig(ONE, (c2, ZERO, c12), ZERO))  # reversed path
    assert is_polylogarithmic(ig(ONE, (ZERO,), c12))  # descending chain
    assert is_polylogarithmic(ig(ZERO, (ZERO, ZERO), ZERO))
    assert is_polylogarithmic(ig(ZERO, (ONE,), ZERO))
    # unit ratio: the same point twice in a row
    assert not is_polylogarithmic(ig(ZERO, (c12, c12), ONE))
    # incommensurable windows: neither contains the other
    assert not is_polylogarithmic(ig(ZERO, (c12, InvProduct(2, 3)), ONE))
    # mixed orientation: descend then ascend
    assert not is_polylogarithmic(ig(ZERO, (c2, c12, ONE), ONE))


def test_phi_rejects_non_polylogarithmic():
    g = ig(ZERO, (InvProduct(1, 2), InvProduct(2, 3)), ONE)
    with pytest.raises(ValueError):
        phi(g)


# ---------------------------------------------------------------------------
# evaluation goldens

def test_phi_zeros_then_endpoint():
    # I(0; 0^n; a) is the n-th power of the endpoint logarithm over n!
    la = expand_log(1, 3, HBAR, inverse=True)
    for n in range(4):
        g = ig(ZERO, (ZERO,) * n, InvProduct(1, 2))
        want = Element.constant(F(1, math.factorial(n)), HBAR)
        for _ in range(n):
            want = want * la
        assert (phi(g) - want).is_zero()


def test_phi_endpoint_one_kills_zeros():
    # log 1 = 0, so only the empty word survives
    assert (phi(ig(ZERO, (), ONE)) - Element.one(HBAR)).is_zero()
    assert phi(ig(ZERO, (ZERO,), ONE)).is_zero()
    assert phi(ig(ZERO, (ZERO, ZERO), ONE)).is_zero()


def test_phi_reversed_pure_zeros():
    # ending at 0 reverses the path and flips one sign per letter
    c = InvProduct(2, 3)
    lc = expand_log(2, 4, HBAR, inverse=True)
    for k in range(4):
        g = ig(c, (ZERO,) * k, ZERO)
        want = Element.constant(F((-1) ** k, math.factorial(k)), HBAR)
        for _ in range(k):
            want = want * lc
        assert (phi(g) - want).is_zero()


def test_phi_between_nonzero_points():
    # I(p; 0; q) is the logarithm of the ratio q/p, hand-checked:
    # here log(1/x2 / (1/x1 x2)) = log x1
    g = ig(InvProduct(1, 2), (ZERO,), InvProduct(2, 2))
    assert (phi(g) - gen_elem(log(1), HBAR)).is_zero()


def test_phi_descending_single_step():
    # I(1; 0; 1/x1) = log(1/x1) = -log x1
    g = ig(ONE, (ZERO,), InvProduct(1, 1))
    assert (phi(g) + gen_elem(log(1), HBAR)).is_zero()


@pytest.mark.parametrize("idx,wts", [
    ((1, 2), (1,)),
    ((1, 2), (3,)),
    ((2, 3), (2,)),
    ((1, 3), (2,)),
    ((1, 2, 3), (1, 1)),
    ((1, 2, 3), (2, 1)),
    ((1, 2, 4), (1, 2)),
    ((1, 2, 3, 4), (1, 1, 1)),
])
def test_phi_canonical_symbols(idx, wts):
    # the canonical path evaluates to the bracket, one sign per window
    g = canonical_symbol(idx, wts)
    want = gen_elem(li(idx, wts), HBAR) * F((-1) ** len(wts))
    assert (phi(g) - want).is_zero()


def test_phi_same_point_round_trip():
    # the empty word is the unit for any endpoints; with letters between
    # equal points the ratio degenerates and the symbol is excluded
    c = InvProduct(1, 2)
    assert (phi(ig(c, (), c)) - Element.one(HBAR)).is_zero()
    assert not is_polylogarithmic(ig(c, (ZERO,), c))
    with pytest.raises(ValueError):
        phi(ig(c, (ZERO,), c))


@pytest.mark.parametrize("n0,ps,wts,top", [
    (2, (1, 2), (1,), 2),
    (3, (1, 2), (1,), 2),
    (2, (1, 2), (2,), 3),
    (2, (1, 2, 3), (1, 1), 3),
    (1, (2, 3), (2,), 4),
    (3, (1, 3), (1,), 3),
])
def test_phi_leading_zeros_closed_form(n0, ps, wts, top):
    # a path based at 0 with n0-1 leading zeros evaluates to a binomial
    # redistribution of the extra weight over the bracket slots, with the
    # endpoint logarithm absorbing the remainder
    d = len(wts)
    pts = [InvProduct(p, top) for p in ps]
    word = [ZERO] * (n0 - 1)
    for r in range(d):
        word.append(pts[r])
        word.extend([ZERO] * (wts[r] - 1))
    g = IGenerator(ZERO, tuple(word), pts[d])

    la = expand_log(ps[d], top + 1, HBAR, inverse=True)
    want = Element.zero(HBAR)
    for splits in itertools.product(range(n0), repeat=d + 1):
        if sum(splits) != n0 - 1:
            continue
        i0, irest = splits[0], splits[1:]
        coeff = F((-1) ** i0, math.factorial(i0))
        for r in range(d):
            coeff *= math.comb(wts[r] + irest[r] - 1, wts[r] - 1)
        term = Element.constant(coeff, HBAR)
        for _ in range(i0):
            term = term * la
        nw = tuple(wts[r] + irest[r] for r in range(d))
        want = want + term * gen_elem(li(tuple(ps), nw), HBAR)
    want = want * F((-1) ** (n0 + d - 1))
    assert (phi(g) - want).is_zero()


def test_phi_multiplicative_on_monomials():
    g1 = canonical_symbol((1, 2), (1,))
    g2 = ig(ONE, (ZERO,), InvProduct(1, 1))
    e = integral(g1) * integral(g2)
    assert (phi_element(e) - phi(g1) * phi(g2)).is_zero()


# ---------------------------------------------------------------------------
# the coproduct morphism

def _sweep(max_index, max_weight, max_depth, min_weight=1):
    points = [ZERO, ONE] + [InvProduct(i, j)
                            for i in range(1, max_index + 1)
                            for j in range(i, max_index + 1)]
    for wlen in range(min_weight, max_weight + 1):
        for word in itertools.product(points, repeat=wlen):
            if sum(1 for p in word if p != ZERO) > max_depth:
                continue
            for a0 in points:
                for end in points:
                    g = IGenerator(a0, word, end)
                    if is_polylogarithmic(g):
                        yield g


def test_phi_is_a_coproduct_morphism_small():
    # evaluation intertwines the subsequence and bracket coproducts
    count = 0
    for g in _sweep(max_index=2, max_weight=3, max_depth=2):
        assert phi_morphism_ok(g), g
        count += 1
    assert count == 269


# sha256 of the canonical JSON of [repr(g), element_document(phi(g))] over
# the sweep below, in sweep order
PHI_SWEEP_SHA256 = (
    "733a18be417d4a7a3c497d51cb8e92de03ede96abc092828f9b6d5a59171517b")


def test_phi_is_pinned_over_a_sweep():
    # every polylogarithmic symbol with endpoints and letters among 0, 1
    # and 1/(x_i..x_j), j <= 3, and a word of at most three letters, two of
    # them nonzero; 201 of the 831 run between two nonzero points
    syms = list(_sweep(max_index=3, max_weight=3, max_depth=2, min_weight=0))
    assert len(syms) == 831
    assert sum(g.start != ZERO and g.end != ZERO for g in syms) == 201
    text = json.dumps([[repr(g), element_document(phi(g))] for g in syms],
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PHI_SWEEP_SHA256


def test_phi_morphism_hand_cases():
    cases = [
        canonical_symbol((1, 2, 3), (2, 1)),
        IGenerator(InvProduct(1, 2), (InvProduct(2, 2),), ONE),
        IGenerator(ZERO, (InvProduct(1, 2), ZERO), InvProduct(2, 2)),
        IGenerator(InvProduct(1, 3), (ZERO, InvProduct(2, 3)), ONE),
        IGenerator(ONE, (ZERO, InvProduct(1, 1), ZERO), ZERO),
    ]
    for g in cases:
        assert phi_morphism_ok(g), g


def test_morphism_spelled_out_weight_two():
    # by hand for I(0; 1/x1, 0; 1): the four subsequence terms evaluate to
    # 1 (x) -L2, -L1 (x) log x1, 0, -L2 (x) 1  matching the bracket coproduct
    g = canonical_symbol((1, 2), (2,))
    lhs = None
    for (lm, rm), c in i_coproduct_gen(g).terms.items():
        t = Tensor.of(phi_element(Element(ITER, {lm: 1})),
                      phi_element(Element(ITER, {rm: 1}))) * c
        lhs = t if lhs is None else lhs + t
    assert (lhs - coproduct_bar(phi(g))).is_zero()


def test_phi_cached_value_is_read_only():
    g = canonical_symbol((1, 2, 3), (1, 1))
    x = phi(g)
    want = Element(HBAR, dict(x.terms))
    assert not want.is_zero()
    with pytest.raises(AttributeError):
        x.terms.clear()
    with pytest.raises(TypeError):
        x.terms[()] = F(1)
    assert phi(g) is x
    assert phi(g) == want
    assert phi_element(Element(ITER, {(g,): 1})) == want


@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_a_symbol_has_no_bracket_rendering(fmt):
    x = integral(IGenerator(ZERO, (InvProduct(1, 1),), ONE))
    for value in (x, Tensor.of(x, x)):
        with pytest.raises(ValueError, match="sort 'I'"):
            render(value, fmt)


def test_a_symbol_renders_as_text():
    x = integral(IGenerator(ZERO, (InvProduct(1, 1),), ONE))
    assert render(x, "text") == "I(0;1/x1;1)"
    assert render(Tensor.of(x, x), "text") == "I(0;1/x1;1) (x) I(0;1/x1;1)"

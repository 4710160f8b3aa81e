"""The inversion map: goldens, the coalgebra-morphism law, and the pole
cancellation inside its series recursion."""

import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

from lihopf import clear_caches
from lihopf.algebra import (
    H,
    HBAR,
    Element,
    apply_contraction,
    gen_elem,
    li,
    log,
)
from lihopf.coproduct import (
    _inv_series,
    coproduct_bar,
    coproduct_h,
    inv_element,
    inv_generator,
)
from lihopf.expr import element_document, parse
from lihopf.series import TruncatedSeries

E = gen_elem


def test_inv_depth1_closed_form():
    # INV of the depth-one inverted bracket of weight n equals
    # (-1)^(n-1) ( [y]_n + [y]_0^n / n! )  -- checked for n = 1..6
    y0 = E(log(1))
    for n in range(1, 7):
        got = inv_generator(li((1, 2), (n,), inverted=True))
        yn = E(li((1, 2), (n,)))
        want = (yn + y0 ** n * Fraction(1, math.factorial(n))) * ((-1) ** (n - 1))
        assert got == want, n


def test_inv_depth1_weight1():
    assert (inv_generator(li((1, 2), (1,), inverted=True))
            == E(li((1, 2), (1,))) + E(log(1)))


def test_inv_golden_stored_31():
    # displayed weights (1, 3); four groups of terms
    got = inv_generator(li((1, 2, 3), (3, 1), inverted=True))
    x13 = E(li((1, 2), (3,)))
    x14 = E(li((1, 2), (4,)))
    u1 = E(log(1))
    y2 = lambda n: E(li((2, 3), (n,)))
    w0 = E(log(1)) + E(log(2))
    G31 = E(li((1, 2, 3), (3, 1)))
    want = (-G31
            + (x13 + u1 ** 3 * Fraction(1, 6)) * y2(1)
            - (y2(1) * w0 ** 3 * Fraction(1, 6)
               - y2(2) * w0 ** 2 * Fraction(1, 2)
               + y2(3) * w0 - y2(4))
            + ((x13 + u1 ** 3 * Fraction(1, 6)) * w0
               - 3 * (x14 + u1 ** 4 * Fraction(1, 24))))
    assert got == want


def test_inv_weight_preserved():
    for g in [li((1, 2), (3,), inverted=True),
              li((1, 2, 3), (2, 1), inverted=True),
              li((1, 2, 3), (1, 1), inverted=True)]:
        e = inv_generator(g)
        parts = e.weight_parts()
        assert list(parts) == [g.weight]


def test_inv_fixes_regular_and_is_multiplicative():
    a = li((1, 2), (2,), inverted=True)
    b = li((2, 3), (1,), inverted=True)
    prod = Element(HBAR, {(a, b): Fraction(1)})
    assert inv_element(prod) == inv_generator(a) * inv_generator(b)
    reg = E(li((1, 3), (2,)), HBAR)
    assert inv_element(reg) == E(li((1, 3), (2,)), H)


def test_inv_is_coalgebra_morphism():
    # applying INV in both slots of the extended coproduct agrees with the
    # plain coproduct of the INV image
    gens = [li((1, 2), (2,), inverted=True),
            li((1, 2), (4,), inverted=True),
            li((1, 2, 3), (1, 1), inverted=True),
            li((1, 2, 3), (2, 1), inverted=True),
            li((1, 2, 3), (1, 2), inverted=True),
            li((2, 3, 5), (1, 1), inverted=True)]

    def inv_monomial(mon):
        return inv_element(Element.from_monomial(mon, HBAR))

    for g in gens:
        t = coproduct_bar(E(g, HBAR))
        lhs = t.map_slot(0, inv_monomial, sort=H).map_slot(1, inv_monomial,
                                                           sort=H)
        rhs = coproduct_h(inv_element(E(g, HBAR)))
        assert lhs == rhs, g


def test_inv_involution_depth1():
    # depth-one sanity: applying the closed form twice returns the start
    # (stated here through the engine: INV of the regular image under the
    # mirror identity reproduces the bracket)
    n = 3
    g = li((1, 2), (n,), inverted=True)
    e = inv_generator(g)
    # reconstruct the inverted bracket from its INV image and check weights
    back = e * ((-1) ** (n - 1)) - E(log(1)) ** n * Fraction(1, math.factorial(n))
    assert back == E(li((1, 2), (n,)))


# ---------------------------------------------------------------------------
# the truncation of the series recursion

def _weights(max_depth, max_weight):
    for d in range(1, max_depth + 1):
        for n in itertools.product(range(1, max_weight + 1), repeat=d):
            if sum(n) <= max_weight:
                yield n


def _placements():
    for n in _weights(3, 4):
        d = len(n)
        for base in (1, 3):
            yield tuple(range(base, base + d + 1)), n
    for p in [(1, 3, 4, 7), (1, 2, 4, 8)]:
        for n in _weights(3, 4):
            if len(n) == 3:
                yield p, n
    yield (2, 5, 6, 9, 10), (1, 1, 1, 1)


def test_demand_shape_matches_looser_shape():
    # the series truncated to what inv_generator reads (caps n - 1, total
    # sum(n - 1)) agrees, on every exponent of that box, with the same
    # recursion asked for every exponent of total degree sum(n - 1) + 1 in
    # every variable, so no per-variable cap prunes anything it needs;
    # caches are emptied before each computation, so a reference shape
    # never reads a series computed for another shape (and the first
    # series is read before the second clear, which retires its
    # monomial ids)
    for p, n in _placements():
        d = len(n)
        target = tuple(w - 1 for w in n)
        box = list(itertools.product(*(range(c + 1) for c in target)))
        clear_caches()
        series = _inv_series(p, list(range(d)), TruncatedSeries(H, target))
        got = {e: series.coefficient(e) for e in box}
        clear_caches()
        T = sum(target)
        ref = _inv_series(p, list(range(d)),
                          TruncatedSeries(H, (T + 1,) * d, T + 1))
        assert got[target] == ref.coefficient(target), (p, n)
        for e in box:
            assert got[e] == ref.coefficient(e), (p, n, e)


def _document_sha256(e):
    text = json.dumps(element_document(e), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("text, want", [
    ("ILi[1,1,1,1,1](1,2,3,4,5,6)",
     "a66a8356f4a425b3878d691e8886232a521e36ae68b4c4f19900a5f86e24e1c1"),
    ("ILi[2,2,2,2](1,2,3,4,5)",
     "b6638f7190bd2fc33df4c80fcb85b0dd5cf483944fcd666c40693d948127639b"),
    # 25,099 terms, recorded from the engine that keyed series terms by
    # (exponent tuple, monomial) pairs; seven variables fill seven fields
    ("ILi[1,1,1,1,1,1,1](1,2,3,4,5,6,7,8)",
     "a6d8f39bf77a2c8495f5dbbd2684ec0525bd91bb41623eb694ea74a02f65e84c"),
])
def test_deep_inversion_documents_frozen(text, want):
    # the first two hashes were recorded from the engine that truncated
    # every series at total degree sum(n) in all variables
    assert _document_sha256(inv_element(parse(text, sort=HBAR))) == want


def test_inv_generator_commutes_with_contractions():
    # every placement of a bracket is the standard placement (1..d+1)
    # moved into place by the contraction map
    count = 0
    for n in _weights(3, 4):
        d = len(n)
        std = inv_generator(li(range(1, d + 2), n, inverted=True))
        for c in itertools.combinations(range(1, 7), d + 1):
            got = inv_generator(li(c, n, inverted=True))
            assert got == apply_contraction(c, std), (c, n)
            count += 1
    assert count == 240


def test_inv_generator_cached_value_is_read_only():
    g = li((1, 2, 3), (1, 1), inverted=True)
    x = inv_generator(g)
    want = Element(H, dict(x.terms))
    assert not want.is_zero()
    with pytest.raises(AttributeError):
        x.terms.clear()
    with pytest.raises(TypeError):
        x.terms[()] = Fraction(1)
    assert inv_generator(g) == want
    assert inv_generator(g) is x

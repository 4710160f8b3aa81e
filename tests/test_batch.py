"""Placement batches.  The bar coproducts and inversions of a group of
generators on one placement are read off series built once, on the join
of the members' boxes; each member must get the value it gets alone, in
any order of the group, and two deep documents stay byte-identical.
Every route to a bar coproduct, an inversion or a plain-sort coproduct
reads the per-generator store that these batches fill, and the
plain-sort store agrees with the route that remaps the bar coproduct."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lihopf import clear_caches
from lihopf.algebra import (H, HBAR, ITER, ZERO_VECTOR, Element, gen_elem, li,
                            vector_to_generator)
from lihopf.coproduct import (
    _coproduct_bar_generators,
    _coproduct_h_generators,
    _inv_generators,
    coproduct_bar,
    coproduct_generators,
    coproduct_h,
    inv_generator,
)
from lihopf.expr import element_document, matrix_document, parse
from lihopf.expr import tensor_document
from lihopf.lincomb import extend
from lihopf.variation import build_V


@st.composite
def placement_groups(draw):
    """2-6 distinct weight tuples (depth <= 3, weights <= 3) on one
    placement, with a permutation of the group."""
    d = draw(st.integers(1, 3))
    indices = sorted(draw(st.sets(st.integers(1, 7), min_size=d + 1,
                                  max_size=d + 1)))
    weights = draw(st.lists(st.tuples(*[st.integers(1, 3)] * d),
                            min_size=2, max_size=min(6, 3 ** d), unique=True))
    order = draw(st.permutations(range(len(weights))))
    return indices, weights, order


@st.composite
def regular_generators(draw):
    """A regular bracket of depth <= 2 and weights <= 3 on indices <= 5."""
    d = draw(st.integers(1, 2))
    indices = sorted(draw(st.sets(st.integers(1, 5), min_size=d + 1,
                                  max_size=d + 1)))
    return li(indices, draw(st.tuples(*[st.integers(1, 3)] * d)))


def _alone_h(e):
    """The plain-sort coproduct of the Element e by remapping its bar
    coproduct: each right-hand generator inverted on its own by
    ``inv_generator``, each left-hand monomial read in H."""
    def inv_monomial(mon):
        return extend(Element.from_monomial(mon, HBAR), inv_generator,
                      Element.one(H))

    return (coproduct_bar(e)
            .map_slot(1, inv_monomial, sort=H)
            .map_slot(0, lambda mon: Element.from_monomial(mon, H), sort=H))


@settings(max_examples=20, deadline=None)
@given(placement_groups())
def test_a_batch_equals_its_members_alone(drawn):
    indices, weights, order = drawn
    for inverted in (False, True):
        group = [li(indices, n, inverted) for n in weights]
        clear_caches()
        bars = _coproduct_bar_generators(group)
        invs = _inv_generators(group)
        shuffled = [group[k] for k in order]
        clear_caches()
        assert _coproduct_bar_generators(shuffled) == bars
        assert _inv_generators(shuffled) == invs
        for g in group:
            clear_caches()
            assert bars[g] == coproduct_bar(gen_elem(g, HBAR)), g
            clear_caches()
            assert invs[g] == inv_generator(g), g
        if not inverted:
            clear_caches()
            plain = coproduct_generators(group, H)
            for g in group:
                clear_caches()
                assert plain[g] == _alone_h(gen_elem(g, H)), g


@settings(max_examples=25, deadline=None)
@given(st.lists(regular_generators(), min_size=1, max_size=3),
       st.fractions(-4, 4, max_denominator=5).filter(bool))
def test_coproduct_h_is_multiplicative(gens, c):
    # the plain-sort store holds generators only: on a product its
    # values must multiply to the remapped bar coproduct
    e = Element.from_monomial(gens, H, c)
    clear_caches()
    want = _alone_h(e)
    assert coproduct_h(e) == want
    assert coproduct_h(e) == want


def _misses():
    return (_coproduct_bar_generators.cache_info().misses,
            _inv_generators.cache_info().misses,
            _coproduct_h_generators.cache_info().misses)


def test_a_warm_coproduct_h_reads_only_the_plain_store():
    g1, g2, g3 = li((1, 2, 3), (2, 1)), li((2, 3), (1,)), li((1, 3, 4), (1, 2))
    e = (gen_elem(g1, H) * gen_elem(g2, H) * Fraction(1, 2)
         + gen_elem(g1, H) * gen_elem(g3, H) * 3)
    want = coproduct_h(e)
    others = (_coproduct_bar_generators.cache_info(),
              _inv_generators.cache_info())
    hits = _coproduct_h_generators.cache_info().hits
    assert coproduct_h(e) == want
    assert (_coproduct_bar_generators.cache_info(),
            _inv_generators.cache_info()) == others
    assert _coproduct_h_generators.cache_info().hits == hits + 3


def test_an_inverted_generator_has_no_plain_coproduct():
    clear_caches()
    with pytest.raises(ValueError):
        coproduct_generators([li((1, 2, 3), (2, 1), inverted=True)], H)
    info = _coproduct_h_generators.cache_info()
    assert (info.misses, info.currsize) == (0, 0)


def test_build_V_fills_the_stores_that_coproduct_h_reads():
    clear_caches()
    V = build_V((2, 1), H)
    misses = _misses()
    gens = [vector_to_generator(v) for v in V.keys if v != ZERO_VECTOR]
    for g in gens:
        coproduct_h(gen_elem(g, H))
    rights = [h for t in _coproduct_bar_generators(gens).values()
              for _, rmon in t.terms for h in rmon]
    stored = _inv_generators(rights)
    assert any(h.inverted for h in rights)
    for h in rights:
        assert inv_generator(h) is stored[h]
    assert _misses() == misses


def test_coproduct_generators_checks_the_sort_before_computing():
    clear_caches()
    with pytest.raises(ValueError):
        coproduct_generators([li((1, 2, 3), (2, 1))], ITER)
    assert _misses() == (0, 0, 0)


def _sha256(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_build_V_2222_document_frozen():
    V = build_V((2, 2, 2, 2), H)
    assert len(V.keys) == 81
    doc = matrix_document("V", (2, 2, 2, 2), H, V.keys,
                          [[element_document(e) for e in row]
                           for row in V.rows])
    assert _sha256(doc) == (
        "aaf9885388ee95473af886b4790b3272d39b20a51c301a55e87dd2c6af3c81c0")


def test_coproduct_h_2222_document_frozen():
    t = coproduct_h(parse("Li[2,2,2,2](1,2,3,4,5)", sort=H))
    assert len(t.terms) == 1377
    assert _sha256(tensor_document(t)) == (
        "aab9a066af95a2a954e261361453c904ccc2242077bed2ffc708b46cca55701e")

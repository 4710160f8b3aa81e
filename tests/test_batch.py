"""Placement batches.  The bar coproducts and inversions of a group of
generators on one placement are read off series built once, on the join
of the members' boxes; each member must get the value it gets alone, in
any order of the group, and two deep documents stay byte-identical."""

import hashlib
import json

from hypothesis import given, settings, strategies as st

from lihopf import clear_caches
from lihopf.algebra import H, HBAR, Element, gen_elem, li
from lihopf.coproduct import (
    _coproduct_bar_generators,
    _inv_generators,
    _inv_monomial,
    coproduct_bar,
    coproduct_generators,
    coproduct_h,
    inv_generator,
)
from lihopf.expr import element_document, matrix_document, parse
from lihopf.expr import tensor_document
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


def _alone_h(g):
    """The plain-sort coproduct of g, each right-hand generator inverted
    on its own by ``inv_generator``."""
    return (coproduct_bar(gen_elem(g, H))
            .map_slot(1, _inv_monomial, sort=H)
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
                assert plain[g] == _alone_h(g), g


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

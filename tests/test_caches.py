"""The one memo behind every structure-map and output-text cache:
``clear_caches`` empties all of them, recomputed values equal the cached
ones, errors are never cached, and no module keeps a hand-rolled cache
dict beside it."""

import ast
import itertools
import pathlib
from fractions import Fraction

import pytest

import lihopf
from lihopf import clear_caches
from lihopf.algebra import ID_BITS, H, MonomialTable, gen_elem, li, log
from lihopf.coproduct import (_coproduct_bar_generators, _inv_generators,
                              coproduct, inv_generator)
from lihopf.expr import render
from lihopf.forms import w_element
from lihopf.iterint import (ONE, ZERO, IGenerator, InvProduct,
                            canonical_symbol, phi)
from lihopf.lincomb import MEMOS
from lihopf.series import TruncatedSeries
from lihopf.tensor import symbol
from lihopf.variation import build_V


def _warm():
    return (inv_generator(li((1, 2, 3), (1, 1), inverted=True)),
            build_V((2, 1), H),
            symbol(gen_elem(li((1, 2, 3), (2, 1)), H)),
            w_element(gen_elem(li((1, 2, 3), (1, 1)), H)),
            phi(canonical_symbol((1, 2, 3), (1, 1))),
            [render(x, fmt) for x in (
                coproduct(gen_elem(li((1, 2, 3), (2, 1)), H)),
                symbol(gen_elem(li((1, 2, 3), (1, 1)), H)))
             for fmt in ("json", "latex", "text")])


def test_clear_caches_empties_every_memo():
    memos = {m.__wrapped__.__qualname__: m for m in MEMOS}
    assert {"_coproduct_bar_generators", "_coproduct_h_generators",
            "_inv_series_on", "_inv_generators", "_antipode_generator",
            "shuffle_words", "_pi_word", "_symbol_monomial", "_w_monomial",
            "_build_V", "phi", "Generator.__str__", "latex_generator",
            "_json_at", "mul_monomials"} <= set(memos)
    warm = _warm()
    for name in ("_inv_generators", "_build_V", "_symbol_monomial",
                 "_w_monomial", "phi", "Generator.__str__",
                 "latex_generator", "_json_at", "mul_monomials"):
        assert memos[name].cache_info().currsize, name
    clear_caches()
    assert [m.cache_info().currsize for m in MEMOS] == [0] * len(MEMOS)
    again = _warm()
    assert all(a is not b for a, b in zip(again, warm))
    assert again == warm


def test_a_series_from_before_a_clear_is_never_decoded_after_it():
    # the monomial table never reissues an id: once clear_caches() has
    # emptied it, a series that still holds an old id raises when read,
    # compared or multiplied by a monomial, however many monomials were
    # interned since; a product by a rational carries the old ids on and
    # raises in the same way
    mons = [gen_elem(li((1, 2, 3), (a, b)), H) for a in (1, 2) for b in (1, 2)]
    shape = TruncatedSeries(H, (1,))

    def build():
        return shape.constant(mons[0]) + shape.linear_form([(0, 1)]) * mons[1]

    old = build()
    assert old.coefficients() == {(0,): mons[0], (1,): mons[1]}
    clear_caches()
    new = shape.constant(mons[2] + mons[3] + mons[0] * mons[1])
    assert new.coefficient((0,)) == mons[2] + mons[3] + mons[0] * mons[1]
    scaled = old * shape.linear_form([(0, 2)])
    for read in (old.coefficients, lambda: old.coefficient((1,)),
                 lambda: repr(old), lambda: old * new, lambda: old == build(),
                 lambda: build() == old, scaled.coefficients,
                 lambda: scaled == build()):
        with pytest.raises(ValueError):
            read()
    assert build() == build()


def test_monomial_ids_stop_short_of_the_pair_width():
    # a product is memoized under id1 << ID_BITS | id2, so an id past the
    # width would alias another pair: the table raises instead
    table = MonomialTable()
    table.base = (1 << ID_BITS) - 1
    last = table.id((log(1),))
    assert last == (1 << ID_BITS) - 1 and table.monomial(last) == (log(1),)
    with pytest.raises(ValueError):
        table.id((log(2),))


def test_errors_are_not_cached():
    g = IGenerator(ZERO, (InvProduct(1, 2), InvProduct(2, 3)), ONE)
    for _ in range(2):
        with pytest.raises(ValueError):
            phi(g)


def test_symbol_never_reaches_the_coproduct():
    # the symbol peels letters with the derivation; it runs no inversion
    # and no bar coproduct, so their memos stay empty
    memos = {m.__wrapped__.__qualname__: m for m in MEMOS}
    clear_caches()
    symbol(gen_elem(li((1, 2, 3, 4), (2, 2, 2)), H)
           * gen_elem(li((2, 3), (1,)), H))
    assert memos["_symbol_monomial"].cache_info().currsize
    for name in ("_inv_generators", "_coproduct_bar_generators",
                 "_inv_series_on"):
        assert memos[name].cache_info().currsize == 0, name


def _canonical(x):
    """Every rational coefficient of x (through Element coefficients and
    tensor slots) is an int or a Fraction that is not integral."""
    return all(_canonical(c) if hasattr(c, "terms")
               else type(c) is int
               or (type(c) is Fraction and c.denominator > 1)
               for c in x.terms.values())


def test_cached_results_hold_no_integral_fraction():
    # products that read cached values run on ints wherever they can
    clear_caches()
    for d in (1, 2, 3):
        for n in itertools.product((1, 2), repeat=d):
            indices = tuple(range(2, d + 3))
            for inverted in (False, True):
                g = li(indices, n, inverted)
                assert _canonical(_coproduct_bar_generators([g])[g]), g
                assert _canonical(_inv_generators([g])[g]), g
            assert _canonical(phi(canonical_symbol(indices, n))), n
    assert _canonical(phi(IGenerator(ZERO, (InvProduct(1, 2), ZERO,
                                             InvProduct(2, 2)), ONE)))


def _sources():
    return sorted(pathlib.Path(lihopf.__file__).parent.glob("*.py"))


def _empty_dict(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dict" and not node.args and not node.keywords)


def test_no_module_level_cache_dict():
    # a module- or class-level empty dict is how a hand-rolled cache
    # starts; caches go through ``lincomb.memo`` so that ``clear_caches``
    # reaches them
    found = []
    for path in _sources():
        tree = ast.parse(path.read_text())
        bodies = [tree.body] + [node.body for node in ast.walk(tree)
                                if isinstance(node, ast.ClassDef)]
        for node in (node for body in bodies for node in body):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _empty_dict(node.value):
                found.extend((path.stem, t.id) for t in targets
                             if isinstance(t, ast.Name))
    assert found == [("verify", "_SUITES")]


def test_no_function_level_sibling_import():
    # a sibling module imported inside a function hides an import cycle;
    # modules import each other at the top, so the import graph is visible
    found = []
    for path in _sources():
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend((path.stem, fn.name) for node in ast.walk(fn)
                             if isinstance(node, ast.ImportFrom)
                             and node.level)
    assert found == []

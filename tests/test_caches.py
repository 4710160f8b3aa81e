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
from lihopf.algebra import H, gen_elem, li
from lihopf.coproduct import (_coproduct_bar_generators, _inv_generators,
                              coproduct, inv_generator)
from lihopf.expr import render
from lihopf.forms import w_element
from lihopf.iterint import (ONE, ZERO, IGenerator, InvProduct,
                            canonical_symbol, phi)
from lihopf.lincomb import MEMOS
from lihopf.tensor import symbol
from lihopf.variation import build_V


def _warm():
    return (inv_generator(li((1, 2, 3), (1, 1), inverted=True)),
            build_V((2, 1), H).rows,
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
            "_json_at"} <= set(memos)
    warm = _warm()
    for name in ("_inv_generators", "_build_V", "_symbol_monomial",
                 "_w_monomial", "phi", "Generator.__str__",
                 "latex_generator", "_json_at"):
        assert memos[name].cache_info().currsize, name
    clear_caches()
    assert [m.cache_info().currsize for m in MEMOS] == [0] * len(MEMOS)
    again = _warm()
    assert all(a is not b for a, b in zip(again, warm))
    assert again == warm


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

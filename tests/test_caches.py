"""The one memo behind every structure-map cache: ``clear_caches`` empties
all of them, recomputed values equal the cached ones, errors are never
cached, and no module keeps a hand-rolled cache dict beside it."""

import ast
import pathlib

import pytest

import lihopf
from lihopf import clear_caches
from lihopf.algebra import H, HBAR, gen_elem, li
from lihopf.coproduct import inv_generator
from lihopf.iterint import (ONE, ZERO, IGenerator, InvProduct,
                            canonical_symbol, phi)
from lihopf.lincomb import MEMOS
from lihopf.tensor import symbol
from lihopf.variation import build_V


def _warm():
    return (inv_generator(li((1, 2, 3), (1, 1), inverted=True)),
            build_V((2, 1), H).rows,
            symbol(gen_elem(li((1, 2, 3), (2, 1)), H)),
            phi(canonical_symbol((1, 2, 3), (1, 1))))


def test_clear_caches_empties_every_memo():
    memos = {m.__wrapped__.__qualname__: m for m in MEMOS}
    assert {"_coproduct_bar_generator", "_inv_series_on", "inv_generator",
            "_antipode_generator", "shuffle_words", "_pi_word",
            "_symbol_monomial", "_build_V", "phi"} <= set(memos)
    warm = _warm()
    for name in ("inv_generator", "_build_V", "_symbol_monomial", "phi"):
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
        with pytest.raises(ValueError):
            build_V((1, 2), HBAR, closed=False)


def test_symbol_never_reaches_the_coproduct():
    # the symbol peels letters with the derivation; it runs no inversion
    # and no bar coproduct, so their memos stay empty
    memos = {m.__wrapped__.__qualname__: m for m in MEMOS}
    clear_caches()
    symbol(gen_elem(li((1, 2, 3, 4), (2, 2, 2)), H)
           * gen_elem(li((2, 3), (1,)), H))
    assert memos["_symbol_monomial"].cache_info().currsize
    for name in ("inv_generator", "_coproduct_bar_generator",
                 "_inv_series_on"):
        assert memos[name].cache_info().currsize == 0, name


def _sources():
    return sorted(pathlib.Path(lihopf.__file__).parent.glob("*.py"))


def _empty_dict(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dict" and not node.args and not node.keywords)


def test_no_module_level_cache_dict():
    # a module-level empty dict is how a hand-rolled cache starts; caches
    # go through ``lincomb.memo`` so that ``clear_caches`` reaches them
    found = []
    for path in _sources():
        for node in ast.parse(path.read_text()).body:
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

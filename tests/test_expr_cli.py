"""Expression grammar round-trips, renderer goldens, JSON schema
conformance, and the command-line interface (output and exit codes)."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import jsonschema

from lihopf import verify as verification
from lihopf.algebra import H, HBAR, Element, gen_elem, li, log
from lihopf.cli import main
from lihopf.coproduct import coproduct_bar
from lihopf.expr import (
    ExprError,
    element_document,
    form_document,
    latex_element,
    latex_form,
    latex_tensor,
    latex_words,
    parse,
    poly_document,
    report_document,
    tensor_document,
    text_form,
    text_words,
    words_document,
)
from lihopf.forms import Poly, w_element
from lihopf.tensor import symbol, u_, v_

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "lihopf"
     / "document.schema.json").read_text())


def validate(doc):
    jsonschema.validate(doc, SCHEMA,
                        cls=jsonschema.validators.Draft202012Validator)


# ------------------------------------------------------------ the grammar

GEN_POOL_H = [log(1), log(2), log(3),
              li((1, 2), (1,)), li((1, 2), (2,)), li((1, 3), (2,)),
              li((2, 3), (1,)), li((1, 2, 3), (1, 1)),
              li((1, 2, 3), (2, 1)), li((1, 2, 3, 4), (1, 1, 1))]
GEN_POOL_HBAR = GEN_POOL_H + [li((1, 2), (2,), inverted=True),
                              li((1, 3), (3,), inverted=True),
                              li((1, 2, 3), (1, 2), inverted=True)]


def random_element(rng, sort):
    pool = GEN_POOL_HBAR if sort == HBAR else GEN_POOL_H
    e = Element.zero(sort)
    for _ in range(rng.randint(1, 4)):
        coeff = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        term = Element.constant(coeff if coeff else Fraction(1), sort)
        for _ in range(rng.randint(1, 3)):
            term = term * gen_elem(rng.choice(pool), sort)
        e = e + term
    return e


def test_parse_render_round_trip_200():
    rng = random.Random(2026)
    for k in range(100):
        e = random_element(rng, H)
        assert parse(str(e), H) == e, k
    for k in range(100):
        e = random_element(rng, HBAR)
        assert parse(str(e), HBAR) == e, k


def _generators(sort):
    """Logs and brackets of depth 1-3 over indices 1-6; inverted brackets
    in Hbar only."""
    def bracket(d):
        return st.builds(
            li, st.sets(st.integers(1, 6), min_size=d + 1,
                        max_size=d + 1).map(sorted),
            st.lists(st.integers(1, 3), min_size=d, max_size=d),
            st.booleans() if sort == HBAR else st.just(False))
    return st.builds(log, st.integers(1, 6)) | st.integers(1, 3).flatmap(
        bracket)


def _elements(sort):
    """Sums of products of 0-3 generators with rational coefficients."""
    term = st.builds(lambda c, mon: Element.from_monomial(mon, sort, c),
                     st.fractions(-9, 9, max_denominator=9),
                     st.lists(_generators(sort), max_size=3))
    return st.lists(term, max_size=4).map(Element.zero(sort).sum)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([H, HBAR]).flatmap(_elements))
def test_text_parses_back_to_the_element(e):
    assert parse(str(e), e.sort) == e


# the grammar's alphabet as tokens.  A number is one token of at most two
# digits, spaced so that two never merge; with at most ten tokens no
# string nests more than two powers, so no input is large
_TOKENS = st.sampled_from(["Li", "ILi", "log", "[", "]", "(", ")", ",", "+",
                           "-", "*", "^", "/", " "]) | st.integers(0, 99).map(
                               " {} ".format)


@settings(max_examples=500, deadline=None)
@given(st.lists(_TOKENS, max_size=10).map("".join),
       st.sampled_from([H, HBAR]))
def test_parse_fails_only_with_expr_error(text, sort):
    try:
        parse(text, sort)
    except ExprError:
        pass


def test_parse_literals():
    assert parse("Li[2](1,2)") == gen_elem(li((1, 2), (2,)), H)
    assert (parse("log(1)^2 - 2 Li[1,1](1,2,3)")
            == (gen_elem(log(1), H) ** 2
                - 2 * gen_elem(li((1, 2, 3), (1, 1)), H)))
    assert parse("Li[1](1,3)") == gen_elem(li((1, 3), (1,)), H)
    # displayed weights of an inverted bracket read right-to-left in storage
    assert (parse("ILi[1,3](1,2,3)", HBAR)
            == gen_elem(li((1, 2, 3), (3, 1), inverted=True), HBAR))
    assert parse("3/2 log(2) log(2)", H) == (
        gen_elem(log(2), H) ** 2 * Fraction(3, 2))
    assert parse("0", H) == Element.zero(H)
    assert parse("-(Li[2](1,2) - 1/3)", H) == (
        Element.constant(Fraction(1, 3), H) - gen_elem(li((1, 2), (2,)), H))


@pytest.mark.parametrize("text,fragment", [
    ("Li[0](1,2)", "weights must be >= 1"),
    ("Li[2](2,1)", "strictly increasing"),
    ("Li[2](1,2", "expected ',' or ')'"),
    ("2 +", "expected a number, generator, or '('"),
    ("foo(1)", "unknown name 'foo'"),
    ("Li[2](1,2) Li[1](1,2) junk %", "unexpected character"),
])
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(ExprError) as err:
        parse(text, HBAR)
    assert fragment in str(err.value)
    assert "at position" in str(err.value)
    assert err.value.position >= 0


def test_inverted_rejected_in_plain_sort():
    with pytest.raises(ExprError) as err:
        parse("ILi[2](1,2)", H)
    assert "inverted" in str(err.value)


# ------------------------------------------------------------- renderers

def test_latex_goldens():
    e = gen_elem(log(1), H) ** 2 - 2 * gen_elem(li((1, 2, 3), (1, 1)), H)
    assert latex_element(e) == (
        "- 2\\, [x_{1}, x_{2}]_{1,1} + [x_{1}]_{0}^{2}")
    inv = gen_elem(li((1, 2, 3), (3, 1), inverted=True), HBAR)
    assert latex_element(inv) == "[x_{2}^{-1}, x_{1}^{-1}]_{1,3}"
    ws = symbol(gen_elem(li((1, 2), (2,)), H))
    assert latex_words(ws) == "- v_{1,1} \\otimes u_{1}"
    t = coproduct_bar(gen_elem(li((1, 2), (2,), inverted=True), HBAR))
    assert "\\otimes" in latex_tensor(t)
    f = w_element(gen_elem(li((1, 2), (2,)), H))
    assert latex_form(f) == (
        "\\left(- \\tfrac{1}{2}\\, v_{1,1}\\right)\\, \\mathrm{d}u_{1} "
        "+ \\tfrac{1}{2}\\, u_{1}\\, \\mathrm{d}v_{1,1}")


def test_text_goldens():
    f = w_element(gen_elem(li((1, 2, 3), (1, 1)), H))
    assert text_form(f) == (
        "1/2 v1,2 du1 + (-1/2 v1,2 + 1/2 v2,2) dv1,1 + "
        "(-1/2 u1 + 1/2 v1,1 - 1/2 v2,2) dv1,2 + "
        "(-1/2 v1,1 + 1/2 v1,2) dv2,2")
    ws = symbol(gen_elem(li((1, 2), (2,)), H))
    assert text_words(ws) == "-v1,1 (x) u1"


# ----------------------------------------------------------- JSON schema

def test_schema_is_itself_valid():
    jsonschema.validators.Draft202012Validator.check_schema(SCHEMA)


def test_documents_validate():
    e = gen_elem(li((1, 2, 3), (2, 1)), H) - Element.constant(
        Fraction(1, 2), H)
    validate(element_document(e))
    inv = gen_elem(li((1, 2), (3,), inverted=True), HBAR)
    validate(element_document(inv))
    validate(tensor_document(coproduct_bar(inv)))
    validate(words_document(symbol(e)))
    validate(poly_document(Poly({(u_(1), v_(1, 2)): Fraction(-2, 3)})))
    validate(form_document(w_element(e)))
    rep = verification.run_suite("structural")
    validate(report_document([rep]))


def test_element_document_shape():
    doc = element_document(gen_elem(li((1, 2), (2,)), H) * 3
                           + gen_elem(log(1), H) ** 2)
    assert doc["type"] == "element" and doc["sort"] == "H"
    kinds = sorted(f["kind"] for t in doc["terms"] for f in t["factors"])
    assert kinds == ["li", "log", "log"]


# ------------------------------------------------------------------- CLI

runner = CliRunner()


def test_cli_form_text_golden():
    res = runner.invoke(main, ["form", "Li[1,1](1,2,3)", "--format", "text"])
    assert res.exit_code == 0
    assert res.stdout.strip() == (
        "1/2 v1,2 du1 + (-1/2 v1,2 + 1/2 v2,2) dv1,1 + "
        "(-1/2 u1 + 1/2 v1,1 - 1/2 v2,2) dv1,2 + "
        "(-1/2 v1,1 + 1/2 v1,2) dv2,2")


def test_cli_varmatrix_latex_golden():
    res = runner.invoke(main, ["varmatrix", "--weights", "2,1",
                               "--what", "V", "--format", "latex"])
    assert res.exit_code == 0
    assert res.stdout.strip() == (
        "\\begin{pmatrix} 1 & 0 & 0 & 0 & 0 & 0 \\\\ "
        "[x_{2}]_{1} & 1 & 0 & 0 & 0 & 0 \\\\ "
        "[x_{1} x_{2}]_{1} & 0 & 1 & 0 & 0 & 0 \\\\ "
        "[x_{1}, x_{2}]_{1,1} & [x_{1}]_{1} & "
        "- [x_{1}]_{1} + [x_{2}]_{1} - [x_{1}]_{0} & 1 & 0 & 0 \\\\ "
        "[x_{1} x_{2}]_{2} & 0 & [x_{1}]_{0} + [x_{2}]_{0} & 0 & 1 & 0 \\\\ "
        "[x_{1}, x_{2}]_{2,1} & [x_{1}]_{2} & - [x_{1}]_{2} + "
        "[x_{2}]_{1} [x_{1}]_{0} + [x_{2}]_{1} [x_{2}]_{0} - [x_{2}]_{2} - "
        "\\tfrac{1}{2}\\, [x_{1}]_{0}^{2} & [x_{1}]_{0} & [x_{2}]_{1} & 1 "
        "\\end{pmatrix}")


def test_cli_coproduct_round_trips_by_sort():
    res = runner.invoke(main, ["coproduct", "ILi[2](1,2)", "--sort", "Hbar",
                               "--format", "text"])
    assert res.exit_code == 0
    assert "ILi[2](1,2) (x) 1" in res.stdout
    # the same expression is a usage error in the plain sort
    res = runner.invoke(main, ["coproduct", "ILi[2](1,2)", "--sort", "H"])
    assert res.exit_code == 2


def test_cli_json_outputs_validate():
    checks = [
        (["coproduct", "Li[2,1](1,2,3)"], "tensor"),
        (["coproduct", "ILi[1,2](1,2,3)", "--sort", "Hbar"], "tensor"),
        (["inv", "ILi[1,3](1,2,3)"], "element"),
        (["symbol", "Li[1,1](1,2,3)"], "words"),
        (["form", "Li[2](1,2)"], "form"),
        (["varmatrix", "--weights", "2,1", "--what", "V"], "matrix"),
        (["varmatrix", "--weights", "2,1", "--what", "Omega"], "matrix"),
        (["varmatrix", "--weights", "1,1", "--what", "omega"], "matrix"),
        (["varmatrix", "--weights", "1,1", "--what", "omegahat"], "matrix"),
        (["varmatrix", "--weights", "1,1", "--what", "Vhat"], "matrix"),
        (["varmatrix", "--weights", "1,1", "--what", "wV"], "matrix"),
        (["varmatrix", "--weights", "2,1", "--what", "blocks"], "blocks"),
        (["verify", "--suite", "structural"], "report"),
    ]
    for argv, kind in checks:
        res = runner.invoke(main, argv)
        assert res.exit_code == 0, (argv, res.output)
        doc = json.loads(res.stdout)
        assert doc["type"] == kind, argv
        validate(doc)


def test_cli_verify_pass_and_report():
    res = runner.invoke(main, ["verify", "--suite", "coassoc",
                               "--max-weight", "3", "--max-depth", "2"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["passed"] is True
    assert doc["suites"][0]["suite"] == "coassoc"
    assert doc["suites"][0]["cases"] > 0
    assert doc["suites"][0]["failures"] == []
    assert "coassoc" in res.stderr


def test_cli_verify_all_runs_every_suite():
    res = runner.invoke(main, ["verify", "--suite", "all",
                               "--max-weight", "2", "--max-depth", "1",
                               "--format", "text"])
    assert res.exit_code == 0
    names = [line.split()[0] for line in res.stdout.splitlines() if line]
    assert names == verification.suite_names()


def test_cli_verify_failure_exits_one(monkeypatch):
    def red(rep, max_weight=None, max_depth=None, seed=0):
        rep.check_eq("demonstration case", 1, 2)

    monkeypatch.setitem(verification._SUITES, "red-demo",
                        (red, "always fails"))
    res = runner.invoke(main, ["verify", "--suite", "red-demo"])
    assert res.exit_code == 1
    doc = json.loads(res.stdout)
    assert doc["passed"] is False
    assert "demonstration case" in doc["suites"][0]["failures"][0]
    validate(doc)


def test_cli_usage_errors_exit_two():
    for argv in [["verify", "--suite", "nosuch"],
                 ["coproduct", "Li[0](1,2)"],
                 ["symbol", "ILi[2](1,2)"],
                 ["varmatrix", "--weights", "2,1", "--what", "Omega",
                  "--sort", "Hbar"],
                 ["varmatrix", "--weights", "0,1"],
                 ["varmatrix", "--weights", "two"],
                 ["form", "Li[2](1,2) +"]]:
        res = runner.invoke(main, argv)
        assert res.exit_code == 2, argv


def test_cli_verify_bounds_below_one_exit_two():
    # a sweep bound below 1 checks no case, so it must not report a pass
    for argv in [["--max-weight", "0"],
                 ["--suite", "coassoc", "--max-weight", "0"],
                 ["--max-depth", "-3"],
                 ["--suite", "inv-morphism", "--max-depth", "0"]]:
        res = runner.invoke(main, ["verify"] + argv)
        assert res.exit_code == 2, argv
        assert res.stdout == "", argv
        assert "running" not in res.stderr, argv


def test_cli_deterministic_for_a_seed():
    argv = ["verify", "--suite", "forms", "--seed", "3"]
    first = runner.invoke(main, argv)
    second = runner.invoke(main, argv)
    assert first.exit_code == second.exit_code == 0
    strip = lambda s: "\n".join(  # noqa: E731 - wall time varies, drop it
        line for line in s.splitlines() if '"seconds"' not in line)
    assert strip(first.stdout) == strip(second.stdout)

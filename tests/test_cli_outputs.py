"""Byte-identity guard for every rendered output.

Each request of the benchmark's warm-cli catalog (perfbench/workloads.py,
loaded by path) must reproduce the digest recorded in
perfbench/digests.json.  Outputs the catalog does not cover are pinned
here as sha256 values of the exact text: JSON of zero and constant
values, the empty word and a depth-4 coproduct, varmatrix latex/text for
the gauge-lifted pair and the blocks, the structural suite's text
report, and one verification failure line per compound operand type.  A
constant term prints as its bare rational in every format.  The digests
hash parsed JSON, so the JSON layout (``json.dumps`` with ``indent=2``
and ``sort_keys=True``) is checked on the raw text, and each JSON writer
is checked against its document builder on random values.
"""

import contextlib
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import os
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lihopf import cli
from lihopf.algebra import HBAR, Element, li
from lihopf.coproduct import coproduct
from lihopf.expr import (
    element_document,
    form_document,
    parse,
    poly_document,
    render,
    tensor_document,
    text_form,
    text_poly,
    words_document,
)
from lihopf.forms import Form, Poly, w_element
from lihopf.tensor import symbol, u_, v_
from lihopf.verify import Report
from test_lincomb import (ELEMENTS, FORMS, GENS, LETTERS, POLYS, TENSORS,
                          WORDS, _combos, _mons)

WORKLOADS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "workloads.py")


def _workloads():
    spec = importlib.util.spec_from_file_location("lihopf_workloads",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(args=args, standalone_mode=False, prog_name="lihopf")
    return buf.getvalue()


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_cli_catalog_matches_benchmark_digests():
    wl = _workloads()
    want = wl.load_digests()
    catalog = wl.cli_catalog()
    assert len(catalog) == 216
    bad = [wl.request_key(args) for args in catalog
           if wl.digest(wl.cli_output_doc(args, run_cli(args)))
           != want[wl.request_key(args)]]
    assert bad == []


def test_json_outputs_have_the_json_dumps_layout():
    # the structural report carries the float "seconds" of each suite
    requests = [args for args in _workloads().cli_catalog()
                if args[args.index("--format") + 1] == "json"] + [
        ["verify", "--suite", "structural", "--format", "json"]]
    assert len(requests) > 50
    bad = [args for args in requests
           if (text := run_cli(args)) != json.dumps(
               json.loads(text), indent=2, sort_keys=True) + "\n"]
    assert bad == []


# outputs the catalog does not reach: zero and constant values, the empty
# word, a depth-4 coproduct, and the Hbar and blocks varmatrix documents
PINNED_JSON = {
    ("coproduct", "0"):
        "80a9decb87172f96a3cfcb96d1da0137750b03328133ef156ed452978612f12f",
    ("coproduct", "1/2"):
        "9c5bbe45b03b3fba456609f47ddaabd459c39f0c3185ad5e00c98bc5599f1b73",
    ("inv", "0"):
        "b714cb9ae146aae438b3c19de69c514a96cb5ffc3ab736607d3ca88b7950d782",
    ("symbol", "3"):
        "7f000d293cc5dd1d8e9a87a6ecec58f8da43f51782413b52f9d7e642f5dc6be1",
    ("form", "0"):
        "fb85a627b9e47d68df5b1fa66a977464073e94655b28bf65a852538b32a166df",
    ("symbol", "Li[1,2](1,2,3) - 1/3 Li[1](1,2)^2 + 5"):
        "2e9aeb487b31781235a32c96df5aaadf29ae362dbd0cba3ede56f36024c069d5",
    ("varmatrix", "--weights", "2,1", "--sort", "Hbar"):
        "82d059b51d7d01c26af2168b03e0a378ec34f470efdd43380e0417331d3a7704",
    ("varmatrix", "--weights", "2,1", "--what", "blocks"):
        "ae3b8d9b3bcae0c1671ea8b4e0eb05f6c88439dfc3b7a20bb4f3d42e0ddbc13d",
    ("coproduct", "Li[2,2,2,2](1,2,3,4,5)"):
        "b52ca2adc780eb7535b1570c1beeccaa640d5271b1e7f8136916bbe1352ab0fb",
}


@pytest.mark.parametrize("args", sorted(PINNED_JSON))
def test_json_outputs_pinned(args):
    assert sha(run_cli(list(args))) == PINNED_JSON[args]


HBAR_ELEMENTS = _combos(_mons(GENS + [li((1, 2), (2,), inverted=True),
                                      li((1, 2, 3), (2, 1), inverted=True)]),
                        lambda t: Element(HBAR, t))
FORMS_2 = st.dictionaries(
    st.sampled_from(list(itertools.combinations(LETTERS, 2))), POLYS,
    max_size=3).map(lambda t: Form(2, t))
DOCUMENTS = {
    "element": (ELEMENTS, element_document),
    "hbar-element": (HBAR_ELEMENTS, element_document),
    "tensor": (TENSORS, tensor_document),
    "words": (WORDS, words_document),
    "poly": (POLYS, poly_document),
    "form": (FORMS, form_document),
    "2-form": (FORMS_2, form_document),
}


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_json_writer_is_its_document_dumped(kind, data):
    values, document = DOCUMENTS[kind]
    x = data.draw(values)
    assert render(x, "json") == json.dumps(document(x), indent=2,
                                           sort_keys=True)


@pytest.mark.parametrize("args", [
    ["symbol", "Li[1,1](1,2,3)"],
    ["form", "Li[2,1](1,2,3)", "--format", "text"],
    ["verify", "--suite", "golden"],  # progress lines go to stderr
])
def test_in_process_calls_keep_no_output_alive(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cli.main(args=args, standalone_mode=False, prog_name="lihopf")
    assert out.getvalue()
    refs = [weakref.ref(out), weakref.ref(err)]
    del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


# varmatrix --weights 2,1 --what WHAT --format FMT
PINNED_VARMATRIX = {
    ("omegahat", "latex"):
        "348a545b5153a748990c73793be7d3282721c47493e1f8f7f7b709148d3d30dd",
    ("omegahat", "text"):
        "eea54164c5a8c47804cf2a31816d3b677825da221415285bc14035361632779e",
    ("Vhat", "latex"):
        "d831eef2f62ad0abb94dd653ce0ecf6299171d1eb2d3b22708d9941eab2d281c",
    ("Vhat", "text"):
        "ad0daa42abd2e57b2f4e7ebd2ddb8bb995e7328db806dae3492379aa307911c4",
    ("blocks", "latex"):
        "31c0e41920027c984659fa344a0fceaa0c7f595ed837139ac6de2eef8a586de4",
    ("blocks", "text"):
        "31c0e41920027c984659fa344a0fceaa0c7f595ed837139ac6de2eef8a586de4",
}


@pytest.mark.parametrize("what, fmt", sorted(PINNED_VARMATRIX))
def test_varmatrix_outputs_pinned(what, fmt):
    out = run_cli(["varmatrix", "--weights", "2,1", "--what", what,
                   "--format", fmt])
    assert sha(out) == PINNED_VARMATRIX[what, fmt]


def test_verify_text_report_pinned():
    out = run_cli(["verify", "--suite", "structural", "--format", "text"])
    out = re.sub(r", \d+\.\d\ds\)", ")", out)  # wall time varies
    assert sha(out) == (
        "17ebd71d30763ec37c6dbfa302ac8b02fba7c487c683c8977c670ba03168f6bd")


def _failure_line(got, want):
    rep = Report("pinned")
    rep.check_eq("case", got, want)
    return rep.failures[0]


FAILURE_OPERANDS = {
    "tensor": lambda: (coproduct(parse("Li[2,1](1,2,3)")),
                       coproduct(parse("Li[2](1,2)"))),
    "words": lambda: (symbol(parse("Li[1,1](1,2,3)")),
                      symbol(parse("2 Li[2](1,2) - Li[1](2,3)"))),
    "poly": lambda: (Poly({(u_(1),): Fraction(1, 2),
                           (u_(1), v_(1, 2)): -3}),
                     Poly.variable(v_(2, 2)) * -1),
    "form": lambda: (w_element(parse("Li[1,1](1,2,3)")),
                     w_element(parse("Li[2](1,2)"))),
}

PINNED_FAILURES = {
    "tensor":
        "8763c498c5d07bb716bf5a089dba855837cf0019475467179127e37d719a995a",
    "words":
        "bdc6ce602ad79961619f54c9a9775c0d84c87b02d102f46c6f0b7e991a9299f9",
    "poly":
        "eff6840049addcdc498248028ec73aad430458e701d4acaa229adbf162e4f158",
    "form":
        "400ac7c7159f472668eabaf38da39bade9f0a7fced0f0344c02e86282ce21743",
}


@pytest.mark.parametrize("kind", sorted(FAILURE_OPERANDS))
def test_failure_lines_pinned(kind):
    assert sha(_failure_line(*FAILURE_OPERANDS[kind]())) \
        == PINNED_FAILURES[kind]


# ------------------------------------------------------------ constant terms

@pytest.mark.parametrize("fmt, want", [
    ("text", "-v1,1 + 1/2"),
    ("latex", r"- v_{1,1} + \tfrac{1}{2}"),
])
def test_symbol_constant_term_is_bare_rational(fmt, want):
    assert run_cli(["symbol", "1/2 + Li[1](1,2)", "--format", fmt]) \
        == want + "\n"


def test_poly_and_form_constant_terms_are_bare_rationals():
    assert text_poly(Poly.constant(2)) == "2"
    assert text_poly(Poly.constant(-1) + Poly.variable(u_(1))) == "-1 + u1"
    assert text_form(Form(1, {(u_(1),): Poly.constant(Fraction(-1, 2))})) \
        == "-1/2 du1"


def test_render_picks_the_renderer_by_class():
    p = Poly.constant(Fraction(3, 2)) - Poly.variable(v_(1, 2))
    assert render(p, "text") == "3/2 - v1,2"
    assert render(p, "latex") == r"\tfrac{3}{2} - v_{1,2}"
    assert json.loads(render(p, "json"))["type"] == "poly"
    assert render(parse("2 log(1)"), "text") == "2 log(1)"
    assert render(Fraction(1, 3), "text") == "1/3"

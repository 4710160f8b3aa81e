"""The lihopf command: bracket expressions through the maps of the
library (coproducts, inversion, symbols, one-forms, variation matrices),
and the verification suites.  Results go to standard output as JSON, or
as LaTeX or plain text with --format; diagnostics go to standard error.
Exit status: 0 on success or an all-pass report, 1 when a verification
suite fails, 2 on a usage error.

Expressions use the grammar the library prints: Li[2,1](1,2,3) is the
bracket with weights (2,1) on the windows x_{1..2} and x_{2..3};
ILi[...] is its inverted-argument variant (extended sort only); log(i)
is the weight-zero letter; rational coefficients, products, powers (^)
and parentheses compose them.
"""

import argparse
import json
import sys

from . import verify as verification
from .algebra import H, HBAR
from .coproduct import coproduct as coproduct_map
from .coproduct import inv_element
from .expr import (
    ExprError,
    blocks_document,
    latex_matrix,
    matrix_json,
    parse,
    render,
    report_document,
)
from .forms import w_element
from .tensor import symbol as symbol_map
from .variation import (
    build_V,
    omega_form_matrix,
    omega_hat,
    omega_matrix,
    v_hat,
)

SORTS = {"H": H, "Hbar": HBAR}


def _parse_expr(a, sort):
    try:
        return parse(a.expr, sort)
    except ExprError as exc:
        a.parser.error(str(exc))


def _echo(text):
    # looked up on every write, so a redirected sys.stdout is never kept
    sys.stdout.write(text + "\n")


def coproduct_cmd(a):
    """Coproduct of EXPR, as a two-slot tensor."""
    _echo(render(coproduct_map(_parse_expr(a, SORTS[a.sort_name])), a.fmt))


def inv_cmd(a):
    """Rewrite EXPR (extended sort) without inverted generators."""
    _echo(render(inv_element(_parse_expr(a, HBAR)), a.fmt))


def symbol_cmd(a):
    """Symbol of EXPR: its maximal iterated coproduct, as words in the
    weight-one letters u_i and v_{i,j}."""
    _echo(render(symbol_map(_parse_expr(a, H)), a.fmt))


def form_cmd(a):
    """Holomorphic one-form attached to the symbol of EXPR."""
    _echo(render(w_element(_parse_expr(a, H)), a.fmt))


def _positive(text):
    """An integer >= 1: a sweep bound, or one entry of --weights."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError("%r is not an integer >= 1" % text)
    return n


def varmatrix_cmd(a):
    """Variation matrix of the bracket family with the given weights,
    or one of its derived matrices."""
    nvec, what, fmt = a.weights, a.what, a.fmt
    if what != "V" and a.sort_name != "H":
        a.parser.error("--what %s requires --sort H" % what)
    V = build_V(nvec, SORTS[a.sort_name])
    if what == "blocks":
        doc = blocks_document(nvec, V.block_boundaries())
        _echo(json.dumps(doc, indent=2, sort_keys=True) if fmt == "json"
              else " | ".join(str(b) for b in doc["boundaries"]))
        return
    if what == "V":
        M = V
    elif what == "Omega":
        M = omega_matrix(V)
    elif what == "omega":
        M = omega_form_matrix(V)
    elif what == "omegahat":
        M = omega_hat(V)
    elif what == "Vhat":
        M = v_hat(V)
    else:
        # the sum over n of w(V_n), by linearity of w
        M = V.map(w_element)
    cells = [[render(x, fmt) for x in row] for row in M.rows]
    if fmt == "json":
        _echo(matrix_json(what, nvec, a.sort_name, V.keys, cells))
    elif fmt == "latex":
        _echo(latex_matrix(cells))
    else:
        for row in cells:
            _echo(" | ".join(row))


def verify_cmd(a):
    """Run identity-verification suites and report pass/fail.

    Exit status is 0 when every requested suite passes and 1 otherwise.
    """
    known = verification.suite_names()
    if a.suite_name == "all":
        names = known
    elif a.suite_name in known:
        names = [a.suite_name]
    else:
        a.parser.error("unknown suite %r (known: %s, all)"
                       % (a.suite_name, ", ".join(known)))
    reports = []
    for name in names:
        sys.stderr.write("running %s: %s\n"
                         % (name, verification.suite_description(name)))
        rep = verification.run_suite(name, max_weight=a.max_weight,
                                     max_depth=a.max_depth, seed=a.seed)
        sys.stderr.write(rep.summary() + "\n")
        reports.append(rep)
    if a.fmt == "json":
        _echo(json.dumps(report_document(reports), indent=2, sort_keys=True))
    else:
        for rep in reports:
            _echo(rep.summary())
            for failure in rep.failures:
                _echo("    " + failure)
    if not all(rep.passed for rep in reports):
        sys.exit(1)


def _parser():
    parser = argparse.ArgumentParser(
        prog="lihopf", allow_abbrev=False, description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name, run, formats=("json", "latex", "text"),
                what="Output", sort_help=None):
        sub = commands.add_parser(name, allow_abbrev=False,
                                  description=run.__doc__,
                                  help=run.__doc__.split("\n\n")[0])
        sub.set_defaults(run=run, parser=sub)
        sub.add_argument("--format", dest="fmt", choices=formats,
                         default="json",
                         help=what + " rendering. [default: json]")
        if sort_help:
            sub.add_argument("--sort", dest="sort_name", choices=sorted(SORTS),
                             default="H", help=sort_help + ". [default: H]")
        return sub

    command("coproduct", coproduct_cmd, sort_help="Which Hopf algebra the "
            "expression lives in").add_argument("expr", metavar="EXPR")
    for name, run in [("inv", inv_cmd), ("symbol", symbol_cmd),
                      ("form", form_cmd)]:
        command(name, run).add_argument("expr", metavar="EXPR")
    sub = command("varmatrix", varmatrix_cmd,
                  sort_help="Sort of the matrix entries (V only)")
    sub.add_argument("--weights", required=True, metavar="N1,N2,...",
                     type=lambda text: tuple(map(_positive, text.split(","))),
                     help="Weight vector of the bracket family, e.g. 2,1.")
    sub.add_argument("--what", default="V", choices="V Omega omega omegahat "
                     "Vhat wV blocks".split(),
                     help="V: the variation matrix; Omega: its weight-one "
                     "letter matrix; omega: the connection d(Omega); "
                     "omegahat/Vhat: the gauge-lifted pair; wV: the one-form "
                     "of V, all weights; blocks: the weight block "
                     "boundaries. [default: V]")

    sub = command("verify", verify_cmd, ("json", "text"), "Report")
    # checked when the command runs: suites may be registered after import
    sub.add_argument("--suite", dest="suite_name", default="all",
                     metavar="NAME|all",
                     help="One suite by name, or all of them. [default: all]")
    sub.add_argument("--max-weight", type=_positive,
                     help="Override the default weight bound of a sweep.")
    sub.add_argument("--max-depth", type=_positive,
                     help="Override the default depth bound of a sweep.")
    sub.add_argument("--seed", type=int, default=0,
                     help="Seed for the randomized spot checks. [default: 0]")
    return parser


PARSER = _parser()


def main(args=None, standalone_mode=True, prog_name="lihopf"):
    """Run one command line (default sys.argv[1:]); --help and any exit
    status but 0 raise SystemExit.  The keyword arguments change nothing."""
    a = PARSER.parse_args(args)
    a.run(a)


main.main = main  # the name in-process callers use: cli.main.main(args=...)

if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands parse bracket expressions, apply the maps of the library
(coproducts, inversion, symbols, one-forms, variation matrices), and
run the verification suites.  Results go to standard output as JSON by
default, or as LaTeX / plain text with ``--format``; diagnostics go to
standard error.  Exit status: 0 on success or an all-pass report, 1
when a verification suite fails, 2 on usage errors.
"""

import json
import sys

import click

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

format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "latex", "text"]),
    default="json", show_default=True, help="Output rendering.")


def _parse_expr(text, sort):
    try:
        return parse(text, sort)
    except ExprError as exc:
        raise click.UsageError(str(exc))


def _echo(text):
    # naming the stream skips click's per-stream cache, which would keep
    # every redirected sys.stdout (and all its output) alive
    click.echo(text, file=sys.stdout)


@click.group()
def main():
    """Exact calculus for symbolic multiple polylogarithms.

    Expressions use the grammar printed by the library itself:
    Li[2,1](1,2,3) is the bracket with weights (2,1) on the windows
    x_{1..2} and x_{2..3}; ILi[...] is its inverted-argument variant
    (extended sort only); log(i) is the weight-zero letter; rational
    coefficients, products, powers (^), and parentheses compose them.
    """


@main.command("coproduct")
@click.argument("expr")
@click.option("--sort", "sort_name", type=click.Choice(["H", "Hbar"]),
              default="H", show_default=True,
              help="Which Hopf algebra the expression lives in.")
@format_option
def coproduct_cmd(expr, sort_name, fmt):
    """Coproduct of EXPR, as a two-slot tensor."""
    e = _parse_expr(expr, SORTS[sort_name])
    _echo(render(coproduct_map(e), fmt))


@main.command("inv")
@click.argument("expr")
@format_option
def inv_cmd(expr, fmt):
    """Rewrite EXPR (extended sort) without inverted generators."""
    e = _parse_expr(expr, HBAR)
    _echo(render(inv_element(e), fmt))


@main.command("symbol")
@click.argument("expr")
@format_option
def symbol_cmd(expr, fmt):
    """Symbol of EXPR: its maximal iterated coproduct, as words in the
    weight-one letters u_i and v_{i,j}."""
    e = _parse_expr(expr, H)
    _echo(render(symbol_map(e), fmt))


@main.command("form")
@click.argument("expr")
@format_option
def form_cmd(expr, fmt):
    """Holomorphic one-form attached to the symbol of EXPR."""
    e = _parse_expr(expr, H)
    _echo(render(w_element(e), fmt))


def _weights_tuple(text):
    try:
        nvec = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise click.UsageError("--weights expects integers like 2,1")
    if not nvec or any(n < 1 for n in nvec):
        raise click.UsageError("--weights entries must be >= 1")
    return nvec


@main.command("varmatrix")
@click.option("--weights", required=True, metavar="N1,N2,...",
              help="Weight vector of the bracket family, e.g. 2,1.")
@click.option("--what", "what",
              type=click.Choice(["V", "Omega", "omega", "omegahat", "Vhat",
                                 "wV", "blocks"]),
              default="V", show_default=True,
              help="V: the variation matrix; Omega: its weight-one letter "
                   "matrix; omega: the connection d(Omega); omegahat/Vhat: "
                   "the gauge-lifted pair; wV: the one-form of V, all "
                   "weights; blocks: the weight block boundaries.")
@click.option("--sort", "sort_name", type=click.Choice(["H", "Hbar"]),
              default="H", show_default=True,
              help="Sort of the matrix entries (V only).")
@format_option
def varmatrix_cmd(weights, what, sort_name, fmt):
    """Variation matrix of the bracket family with the given weights,
    or one of its derived matrices."""
    nvec = _weights_tuple(weights)
    if what != "V" and sort_name != "H":
        raise click.UsageError("--what %s requires --sort H" % what)
    V = build_V(nvec, SORTS[sort_name])
    if what == "blocks":
        doc = blocks_document(nvec, V.block_boundaries())
        if fmt == "json":
            _echo(json.dumps(doc, indent=2, sort_keys=True))
        else:
            _echo(" | ".join(str(b) for b in doc["boundaries"]))
        return
    if what == "V":
        rows = V.rows
    elif what == "Omega":
        rows = omega_matrix(V)
    elif what == "omega":
        rows = omega_form_matrix(V)
    elif what == "omegahat":
        rows = omega_hat(V)
    elif what == "Vhat":
        rows = v_hat(V)
    else:
        # the sum over n of w(V_n), by linearity of w
        rows = [[w_element(e) for e in row] for row in V.rows]

    cells = [[render(x, fmt) for x in row] for row in rows]
    if fmt == "json":
        _echo(matrix_json(what, nvec, sort_name, V.keys, cells))
    elif fmt == "latex":
        _echo(latex_matrix(cells))
    else:
        for row in cells:
            _echo(" | ".join(row))


@main.command("verify")
@click.option("--suite", "suite_name", default="all", show_default=True,
              metavar="NAME|all", help="One suite by name, or all of them.")
@click.option("--max-weight", type=click.IntRange(min=1), default=None,
              help="Override the default weight bound of a sweep.")
@click.option("--max-depth", type=click.IntRange(min=1), default=None,
              help="Override the default depth bound of a sweep.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the randomized spot checks.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True, help="Report rendering.")
def verify_cmd(suite_name, max_weight, max_depth, seed, fmt):
    """Run identity-verification suites and report pass/fail.

    Exit status is 0 when every requested suite passes and 1 otherwise.
    """
    known = verification.suite_names()
    if suite_name == "all":
        names = known
    elif suite_name in known:
        names = [suite_name]
    else:
        raise click.UsageError(
            "unknown suite %r (known: %s, all)"
            % (suite_name, ", ".join(known)))
    reports = []
    for name in names:
        click.echo("running %s: %s" % (name,
                                       verification.suite_description(name)),
                   file=sys.stderr)
        rep = verification.run_suite(name, max_weight=max_weight,
                                     max_depth=max_depth, seed=seed)
        click.echo(rep.summary(), file=sys.stderr)
        reports.append(rep)
    if fmt == "json":
        _echo(json.dumps(report_document(reports), indent=2,
                         sort_keys=True))
    else:
        for rep in reports:
            _echo(rep.summary())
            for failure in rep.failures:
                _echo("    " + failure)
    if not all(rep.passed for rep in reports):
        sys.exit(1)


if __name__ == "__main__":
    main()

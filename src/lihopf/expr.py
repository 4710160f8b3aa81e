"""Expression grammar and output documents.

The text grammar round-trips with ``str(element)``:

    generator ::= Li[n1,...,nd](i1,...,i_{d+1})
                | ILi[nd,...,n1](i1,...,i_{d+1})     (inverted; display order)
                | log(i)
    expr      ::= rational-weighted sums of products and powers of
                  generators; rationals as p/q; products by juxtaposition
                  or '*'; powers by '^' with a nonnegative integer

``render(x, fmt)`` writes an Element, Tensor, WordSum, Poly or Form as
the text of a JSON document (``json``), LaTeX (``latex``) or plain text
(``text``).  The ``*_document`` builders give each JSON document as a
dict, following the shipped schema (document.schema.json); the JSON
writers (``element_json`` ...) return ``json.dumps(doc, indent=2,
sort_keys=True)`` of it, written from memoized texts of each generator
and letter.  LaTeX output mirrors the bracket notation used throughout
the package.  In every format a constant term prints as its bare
rational.
"""

import json
import re
from fractions import Fraction

from .algebra import (H, ITER, LOG, Element, gen_elem, li, log, monomial_str,
                      monomial_weight, text_sum)
from .forms import Form, Poly
from .lincomb import memo
from .tensor import Tensor, WordSum


class ExprError(ValueError):
    """Syntax or validation error, carrying the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([\[\](),+\-*^/]))")


def _tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprError("unexpected character %r" % text[at], at)
        if m.group(1):
            tokens.append(("num", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("sym", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, sort):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sort = sort

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, val, at = self.next()
        if kind == "end" or val != value:
            raise ExprError("expected %r" % value, at)
        return at

    def parse(self):
        out = self.expr()
        kind, _, at = self.peek()
        if kind != "end":
            raise ExprError("trailing input", at)
        return out

    def expr(self):
        sign = 1
        kind, val, _ = self.peek()
        if kind == "sym" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        out = self.term() * sign
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "+-":
                self.next()
                nxt = self.term()
                out = out + (nxt if val == "+" else nxt * -1)
            else:
                return out

    def term(self):
        out = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val == "*":
                self.next()
                out = out * self.factor()
            elif kind in ("num", "name") or (kind == "sym" and val == "("):
                out = out * self.factor()
            else:
                return out

    def factor(self):
        out = self.primary()
        kind, val, _ = self.peek()
        if kind == "sym" and val == "^":
            self.next()
            kind, n, at = self.next()
            if kind != "num":
                raise ExprError("power needs a nonnegative integer", at)
            out = out ** n
        return out

    def primary(self):
        kind, val, at = self.next()
        if kind == "num":
            num = val
            k2, v2, _ = self.peek()
            if k2 == "sym" and v2 == "/":
                self.next()
                k3, den, at3 = self.next()
                if k3 != "num" or den == 0:
                    raise ExprError("denominator must be a positive integer",
                                    at3)
                return Element.constant(Fraction(num, den), self.sort)
            return Element.constant(num, self.sort)
        if kind == "name":
            return self.generator(val, at)
        if kind == "sym" and val == "(":
            out = self.expr()
            self.expect(")")
            return out
        raise ExprError("expected a number, generator, or '('", at)

    def int_list(self, open_sym, close_sym):
        self.expect(open_sym)
        out = []
        while True:
            kind, val, at = self.next()
            if kind != "num":
                raise ExprError("expected an integer", at)
            out.append(val)
            kind, val, at = self.next()
            if kind == "sym" and val == close_sym:
                return out
            if not (kind == "sym" and val == ","):
                raise ExprError("expected ',' or %r" % close_sym, at)

    def generator(self, name, at):
        if name == "log":
            self.expect("(")
            kind, i, at2 = self.next()
            if kind != "num":
                raise ExprError("log needs an index", at2)
            self.expect(")")
            try:
                return gen_elem(log(i), self.sort)
            except ValueError as exc:
                raise ExprError(str(exc), at) from None
        if name not in ("Li", "ILi"):
            raise ExprError("unknown name %r" % name, at)
        weights = self.int_list("[", "]")
        indices = self.int_list("(", ")")
        if name == "ILi":
            weights = weights[::-1]  # display order reverses storage
        try:
            g = li(tuple(indices), tuple(weights), inverted=(name == "ILi"))
            return gen_elem(g, self.sort)
        except ValueError as exc:
            raise ExprError(str(exc), at) from None


def parse(text, sort=H):
    """Parse an expression into an element of the requested sort."""
    return _Parser(text, sort).parse()


_KINDS = {Element: "element", Tensor: "tensor", WordSum: "words",
          Poly: "poly", Form: "form"}
_RENDERER = {"json": "%s_json", "latex": "latex_%s", "text": "text_%s"}


def render(x, fmt):
    """The text of x in format fmt (json, latex or text), by the writer
    for its class, looked up in the module globals at call time so that a
    rebound renderer is the one called.  A value of any other class
    (a scalar in a failure diff) renders as str(x).  Iterated-integral
    symbols (sort I) render as text only."""
    kind = _KINDS.get(type(x))
    if kind is None:
        return str(x)
    sorts = x.sorts if kind == "tensor" else (getattr(x, "sort", None),)
    if fmt != "text" and ITER in sorts:
        raise ValueError("no %s rendering of sort %r" % (fmt, ITER))
    return globals()[_RENDERER[fmt] % kind](x)


# ---------------------------------------------------------------------------
# one writer per format for a signed sum, and one renderer per format for
# a letter; a letter is its name followed by its indices (tensor.u_, v_)

def _by_weight(e):
    return sorted(e.terms.items(), key=lambda mc: (monomial_weight(mc[0]),
                                                   mc[0]))


def _by_degree(p):
    return sorted(p.terms.items(), key=lambda mc: (len(mc[0]), mc[0]))


def _by_str(x):
    return sorted(x.terms.items(), key=lambda mc: str(mc[0]))


def _latex_sum(items, body_of):
    """As algebra.text_sum, in LaTeX."""
    parts = []
    for key, c in items:
        num, den = abs(c).numerator, c.denominator
        if num == den == 1:
            mag = ""
        elif den == 1:
            mag = str(num)
        else:
            mag = r"\tfrac{%d}{%d}" % (num, den)
        body = body_of(key)
        if not body:
            body = mag or "1"
        elif mag:
            body = mag + r"\, " + body
        if c < 0:
            parts.append("- " + body)
        else:
            parts.append("+ " + body if parts else body)
    return " ".join(parts) if parts else "0"


def _terms_doc(items, field, body_of):
    return [{"coeff": {"num": c.numerator, "den": c.denominator},
             field: body_of(key)} for key, c in items]


# by the length of the letter: its name and one or two indices
_TEXT_LETTER = {2: "%s%d", 3: "%s%d,%d"}
_LATEX_LETTER = {2: "%s_{%d}", 3: "%s_{%d,%d}"}


def _letter_name(sym):
    return _TEXT_LETTER[len(sym)] % sym


def latex_letter(sym):
    return _LATEX_LETTER[len(sym)] % sym


def letter_doc(sym):
    doc = {"d": sym[0], "i": sym[1]}
    if len(sym) == 3:
        doc["j"] = sym[2]
    return doc


def _letters_doc(letters):
    return [letter_doc(s) for s in letters]


# ---------------------------------------------------------------------------
# LaTeX

def _latex_window(i, j, inverted):
    body = " ".join("x_{%d}" % r for r in range(i, j))
    if inverted:
        return "(%s)^{-1}" % body if j - i > 1 else body + "^{-1}"
    return body


@memo
def latex_generator(g):
    if g.kind == LOG:
        return "[x_{%d}]_{0}" % g.indices
    idx = g.indices
    wins = list(zip(idx, idx[1:]))
    if g.inverted:
        letters = [_latex_window(i, j, True) for i, j in reversed(wins)]
        ns = ",".join(str(n) for n in reversed(g.weights))
    else:
        letters = [_latex_window(i, j, False) for i, j in wins]
        ns = ",".join(str(n) for n in g.weights)
    return "[%s]_{%s}" % (", ".join(letters), ns)


def _latex_monomial(mon, render_factor):
    """Equal neighbouring factors as one power; "" for the empty monomial."""
    parts = []
    i = 0
    while i < len(mon):
        j = i
        while j < len(mon) and mon[j] == mon[i]:
            j += 1
        body = render_factor(mon[i])
        parts.append(body + ("^{%d}" % (j - i) if j > i + 1 else ""))
        i = j
    return " ".join(parts)


def latex_element(e):
    return _latex_sum(_by_weight(e),
                      lambda mon: _latex_monomial(mon, latex_generator))


def latex_tensor(t):
    return _latex_sum(_by_str(t), lambda mons: r" \otimes ".join(
        _latex_monomial(m, latex_generator) or "1" for m in mons))


def latex_words(ws):
    return _latex_sum(_by_str(ws), lambda word: r" \otimes ".join(
        latex_letter(s) for s in word))


def latex_poly(p):
    return _latex_sum(_by_degree(p),
                      lambda mon: _latex_monomial(mon, latex_letter))


def latex_form(f):
    parts = []
    for basis in sorted(f.terms):
        coeff = latex_poly(f.terms[basis])
        if "+" in coeff or "- " in coeff:
            coeff = r"\left(%s\right)" % coeff
        dlets = r" \wedge ".join(r"\mathrm{d}" + latex_letter(s)
                                 for s in basis)
        if coeff == "1":
            piece = dlets or "1"
        else:
            piece = coeff + (r"\, " + dlets if dlets else "")
        parts.append("+ " + piece if parts else piece)
    return " ".join(parts) if parts else "0"


def latex_matrix(rows):
    body = r" \\ ".join(" & ".join(row) for row in rows)
    return "\\begin{pmatrix} %s \\end{pmatrix}" % body


# ---------------------------------------------------------------------------
# plain text

def text_element(e):
    return str(e)


def text_tensor(t):
    return text_sum(_by_str(t), lambda mons: " (x) ".join(
        monomial_str(m) or "1" for m in mons))


def text_words(ws):
    return text_sum(_by_str(ws), lambda word: " (x) ".join(
        _letter_name(s) for s in word))


def text_poly(p):
    return text_sum(_by_degree(p), lambda mon: " ".join(
        _letter_name(s) for s in mon))


def text_form(f):
    parts = []
    for basis in sorted(f.terms):
        coeff = text_poly(f.terms[basis])
        if " + " in coeff or " - " in coeff:
            coeff = "(%s)" % coeff
        dlets = " ^ ".join("d" + _letter_name(s) for s in basis)
        piece = coeff + (" " + dlets if dlets else "")
        if coeff == "1" and dlets:
            piece = dlets
        parts.append("+ " + piece if parts else piece)
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# JSON documents

def factor_doc(g):
    if g.kind == LOG:
        return {"kind": "log", "weights": [], "indices": list(g.indices),
                "inverted": False}
    return {"kind": "li", "weights": list(g.weights),
            "indices": list(g.indices), "inverted": g.inverted}


def element_document(e):
    return {"type": "element", "sort": e.sort,
            "terms": _terms_doc(_by_weight(e), "factors",
                                lambda mon: [factor_doc(g) for g in mon])}


def tensor_document(t):
    return {"type": "tensor", "sorts": list(t.sorts),
            "terms": _terms_doc(_by_str(t), "slots", lambda mons: [
                [factor_doc(g) for g in m] for m in mons])}


def words_document(ws):
    return {"type": "words",
            "terms": _terms_doc(_by_str(ws), "word", _letters_doc)}


def poly_document(p):
    return {"type": "poly",
            "terms": _terms_doc(_by_degree(p), "letters", _letters_doc)}


def form_document(f):
    terms = []
    for basis in sorted(f.terms):
        for term in _terms_doc(_by_degree(f.terms[basis]), "letters",
                               _letters_doc):
            term["basis"] = _letters_doc(basis)
            terms.append(term)
    return {"type": "form", "degree": f.degree, "terms": terms}


def matrix_document(what, weights, sort, keys, entries):
    return {"type": "matrix", "what": what, "weights": list(weights),
            "sort": sort, "keys": [list(k) for k in keys],
            "entries": entries}


def blocks_document(weights, boundaries):
    return {"type": "blocks", "weights": list(weights),
            "boundaries": list(boundaries)}


def report_document(reports):
    return {"type": "report",
            "suites": [{"suite": r.suite, "cases": r.cases,
                        "failures": list(r.failures),
                        "seconds": r.seconds} for r in reports],
            "passed": all(r.passed for r in reports)}


# ---------------------------------------------------------------------------
# JSON text: each writer returns json.dumps(<kind>_document(x), indent=2,
# sort_keys=True), joined from the memoized texts of its generators and
# letters.  _P[k] is a new line indented k levels; a container starting
# on _P[k] puts its items on _P[k + 1] and its closing bracket on _P[k].

_P = tuple("\n" + "  " * k for k in range(6))


def _json_list(items, pad):
    if not items:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(items) + pad + "]"


@memo
def _json_at(doc_of, key, pad):
    """doc_of(key) (a generator's or letter's) as JSON text at pad."""
    return json.dumps(doc_of(key), indent=2, sort_keys=True).replace(
        "\n", pad)


def _factors_json(mon, k):
    return _json_list([_json_at(factor_doc, g, _P[k + 1]) for g in mon],
                      _P[k])


def _letters_json(letters):
    return _json_list([_json_at(letter_doc, s, _P[4]) for s in letters],
                      _P[3])


# a term of a document's "terms" list, after its opening brace and any
# field sorting before "coeff"
_TERM = ('\n      "coeff": {\n        "den": %d,\n        "num": %d\n      },'
         '\n      "%s": %s\n    }')


def _terms_json(items, field, body_of, head="{"):
    return [head + _TERM % (c.denominator, c.numerator, field, body_of(key))
            for key, c in items]


def _document_json(kind, terms, head=""):
    """head: the fields sorting before "terms", each with its comma."""
    return '{\n  %s"terms": %s,\n  "type": "%s"\n}' % (
        head, _json_list(terms, _P[1]), kind)


def element_json(e):
    return _document_json("element", _terms_json(
        _by_weight(e), "factors", lambda mon: _factors_json(mon, 3)),
        '"sort": "%s",\n  ' % e.sort)


def tensor_json(t):
    sorts = _json_list(['"%s"' % s for s in t.sorts], _P[1])
    return _document_json("tensor", _terms_json(
        _by_str(t), "slots", lambda mons: _json_list(
            [_factors_json(m, 4) for m in mons], _P[3])),
        '"sorts": %s,\n  ' % sorts)


def words_json(ws):
    return _document_json("words", _terms_json(_by_str(ws), "word",
                                               _letters_json))


def poly_json(p):
    return _document_json("poly", _terms_json(_by_degree(p), "letters",
                                              _letters_json))


def form_json(f):
    terms = []
    for basis in sorted(f.terms):
        terms += _terms_json(_by_degree(f.terms[basis]), "letters",
                             _letters_json,
                             '{\n      "basis": %s,' % _letters_json(basis))
    return _document_json("form", terms, '"degree": %d,\n  ' % f.degree)


def matrix_json(what, weights, sort, keys, cells):
    """The text of matrix_document(what, weights, sort, keys, entries),
    given the entries' JSON texts cells.  "entries" is its first key;
    an entry is re-indented at its new lines, as a JSON text holds no
    raw new line inside a string."""
    rows = [_json_list([c.replace("\n", _P[3]) for c in row], _P[2])
            for row in cells]
    frame = json.dumps(matrix_document(what, weights, sort, keys, None),
                       indent=2, sort_keys=True)
    return '{\n  "entries": %s%s' % (_json_list(rows, _P[1]),
                                     frame[len('{\n  "entries": null'):])

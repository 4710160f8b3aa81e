"""Expression grammar and output documents.

The text grammar round-trips with ``str(element)``:

    generator ::= Li[n1,...,nd](i1,...,i_{d+1})
                | ILi[nd,...,n1](i1,...,i_{d+1})     (inverted; display order)
                | log(i)
    expr      ::= rational-weighted sums of products and powers of
                  generators; rationals as p/q; products by juxtaposition
                  or '*'; powers by '^' with a nonnegative integer

JSON documents follow the shipped schema (document.schema.json); LaTeX
output mirrors the bracket notation used throughout the package.
"""

import re
from fractions import Fraction

from .algebra import (H, HBAR, LOG, Element, gen_elem, li, log, monomial_str,
                      monomial_weight)


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


def render_text(e):
    return str(e)


# ---------------------------------------------------------------------------
# LaTeX

def _latex_window(i, j, inverted):
    body = " ".join("x_{%d}" % r for r in range(i, j))
    if inverted:
        return "(%s)^{-1}" % body if j - i > 1 else body + "^{-1}"
    return body


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


def _latex_coeff(c, first):
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    if mag == 1:
        return sign, ""
    if mag.denominator == 1:
        return sign, str(mag.numerator)
    return sign, r"\tfrac{%d}{%d}" % (mag.numerator, mag.denominator)


def _latex_monomial(mon, render):
    if not mon:
        return "1"
    parts = []
    i = 0
    while i < len(mon):
        j = i
        while j < len(mon) and mon[j] == mon[i]:
            j += 1
        body = render(mon[i])
        parts.append(body + ("^{%d}" % (j - i) if j > i + 1 else ""))
        i = j
    return " ".join(parts)


def _latex_sum(items, render):
    """items: sorted (monomial, coeff); render: monomial entry -> latex."""
    if not items:
        return "0"
    out = []
    for mon, c in items:
        sign, mag = _latex_coeff(c, first=not out)
        body = _latex_monomial(mon, render)
        if body == "1":
            body = mag or "1"
        elif mag:
            body = mag + r"\, " + body
        out.append((sign + " " if sign else "") + body)
    return " ".join(out).strip()


def latex_element(e):
    items = sorted(e.terms.items(), key=lambda mc: (monomial_weight(mc[0]),
                                                    mc[0]))
    return _latex_sum(items, latex_generator)


def latex_letter(sym):
    if sym[0] == "u":
        return "u_{%d}" % sym[1]
    return "v_{%d,%d}" % (sym[1], sym[2])


def latex_tensor(t):
    if t.is_zero():
        return "0"
    parts = []
    for mons, c in sorted(t.terms.items(), key=lambda mc: str(mc[0])):
        sign, mag = _latex_coeff(c, first=not parts)
        body = r" \otimes ".join(_latex_monomial(m, latex_generator)
                                 for m in mons)
        if mag:
            body = mag + r"\, " + body
        parts.append((sign + " " if sign else "") + body)
    return " ".join(parts).strip()


def latex_words(ws):
    if ws.is_zero():
        return "0"
    parts = []
    for word, c in sorted(ws.terms.items(), key=lambda mc: str(mc[0])):
        sign, mag = _latex_coeff(c, first=not parts)
        body = (r" \otimes ".join(latex_letter(s) for s in word)
                if word else "1")
        if mag:
            body = mag + r"\, " + body
        parts.append((sign + " " if sign else "") + body)
    return " ".join(parts).strip()


def latex_poly(p):
    items = sorted(p.terms.items(), key=lambda mc: (len(mc[0]), mc[0]))
    return _latex_sum(items, latex_letter)


def latex_form(f):
    if f.is_zero() if hasattr(f, "is_zero") else not f.terms:
        return "0"
    parts = []
    for basis in sorted(f.terms):
        poly = f.terms[basis]
        if poly.is_zero():
            continue
        coeff = latex_poly(poly)
        if "+" in coeff or "- " in coeff:
            coeff = r"\left(%s\right)" % coeff
        dlets = r" \wedge ".join(r"\mathrm{d}" + latex_letter(s)
                                 for s in basis)
        head = "" if not parts else "+ "
        if coeff == "1":
            parts.append(head + (dlets or "1"))
        elif coeff.startswith("-") and "+" not in coeff:
            parts.append(("-" if not parts else "- ")
                         + (coeff.lstrip("- ") + r"\, " + dlets
                            if dlets else coeff.lstrip("- ")))
        else:
            parts.append(head + coeff + (r"\, " + dlets if dlets else ""))
    return " ".join(parts) if parts else "0"


def latex_matrix(rows):
    body = r" \\ ".join(" & ".join(row) for row in rows)
    return "\\begin{pmatrix} %s \\end{pmatrix}" % body


# ---------------------------------------------------------------------------
# plain-text renderers for compound objects

def text_tensor(t):
    if t.is_zero():
        return "0"
    parts = []
    for mons, c in sorted(t.terms.items(), key=lambda mc: str(mc[0])):
        body = " (x) ".join(monomial_str(m) if m else "1" for m in mons)
        parts.append(_signed(parts, c, body))
    return " ".join(parts)


def text_words(ws):
    if ws.is_zero():
        return "0"
    parts = []
    for word, c in sorted(ws.terms.items(), key=lambda mc: str(mc[0])):
        body = (" (x) ".join(_letter_name(s) for s in word)
                if word else "1")
        parts.append(_signed(parts, c, body))
    return " ".join(parts)


def _letter_name(sym):
    if sym[0] == "u":
        return "u%d" % sym[1]
    return "v%d,%d" % (sym[1], sym[2])


def _signed(parts, c, body):
    mag = abs(c)
    piece = body if mag == 1 else "%s %s" % (mag, body)
    if not parts:
        return piece if c > 0 else "-" + piece
    return ("+ " if c > 0 else "- ") + piece


def text_poly(p):
    parts = []
    for mon, c in sorted(p.terms.items(), key=lambda mc: (len(mc[0]), mc[0])):
        body = " ".join(_letter_name(s) for s in mon) if mon else str(abs(c))
        if mon:
            parts.append(_signed(parts, c, body))
        else:
            parts.append(_signed(parts, c, "1") if abs(c) != 1
                         else (str(c) if not parts
                               else ("+ " if c > 0 else "- ") + str(abs(c))))
    return " ".join(parts) if parts else "0"


def text_form(f):
    parts = []
    for basis in sorted(f.terms):
        poly = f.terms[basis]
        if poly.is_zero():
            continue
        coeff = text_poly(poly)
        if " + " in coeff or " - " in coeff:
            coeff = "(%s)" % coeff
        dlets = " ^ ".join("d" + _letter_name(s) for s in basis)
        piece = coeff + (" " + dlets if dlets else "")
        if coeff == "1" and dlets:
            piece = dlets
        parts.append(piece if not parts else "+ " + piece)
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# JSON documents

def _coeff_doc(c):
    return {"num": c.numerator, "den": c.denominator}


def factor_doc(g):
    if g.kind == LOG:
        return {"kind": "log", "weights": [], "indices": list(g.indices),
                "inverted": False}
    return {"kind": "li", "weights": list(g.weights),
            "indices": list(g.indices), "inverted": g.inverted}


def letter_doc(sym):
    if sym[0] == "u":
        return {"d": "u", "i": sym[1]}
    return {"d": "v", "i": sym[1], "j": sym[2]}


def element_document(e):
    items = sorted(e.terms.items(), key=lambda mc: (monomial_weight(mc[0]),
                                                    mc[0]))
    return {"type": "element", "sort": e.sort,
            "terms": [{"coeff": _coeff_doc(c),
                       "factors": [factor_doc(g) for g in mon]}
                      for mon, c in items]}


def tensor_document(t):
    return {"type": "tensor", "sorts": list(t.sorts),
            "terms": [{"coeff": _coeff_doc(c),
                       "slots": [[factor_doc(g) for g in m] for m in mons]}
                      for mons, c in sorted(t.terms.items(),
                                            key=lambda mc: str(mc[0]))]}


def words_document(ws):
    return {"type": "words",
            "terms": [{"coeff": _coeff_doc(c),
                       "word": [letter_doc(s) for s in word]}
                      for word, c in sorted(ws.terms.items(),
                                            key=lambda mc: str(mc[0]))]}


def poly_document(p):
    return {"type": "poly",
            "terms": [{"coeff": _coeff_doc(c),
                       "letters": [letter_doc(s) for s in mon]}
                      for mon, c in sorted(p.terms.items(),
                                           key=lambda mc: (len(mc[0]),
                                                           mc[0]))]}


def form_document(f):
    terms = []
    for basis in sorted(f.terms):
        poly = f.terms[basis]
        for mon, c in sorted(poly.terms.items(),
                             key=lambda mc: (len(mc[0]), mc[0])):
            terms.append({"coeff": _coeff_doc(c),
                          "letters": [letter_doc(s) for s in mon],
                          "basis": [letter_doc(s) for s in basis]})
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

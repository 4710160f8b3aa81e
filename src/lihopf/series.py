"""Truncated multivariate polynomial series with algebra-valued coefficients.

A series lives in the formal variables t_0, t_1, ..., one per cap, and
keeps exactly the exponent tuples e with e <= caps (entrywise) and
|e| <= total.  The shape is stored in canonical form: total is at most
sum(caps) (its default), and no cap exceeds total, so two shapes that
keep the same exponents compare equal.  Coefficients are Element values
(one common sort per series).  All operations below are exact on the
kept range provided the inputs were: multiplication and homogeneous
linear substitution never move degrees downward, and explicit division
by a variable is only performed after checking that the dividend
vanishes identically on the divisor's zero locus (every kept term has a
positive exponent there).
"""

from fractions import Fraction
from operator import add, le

from .algebra import Element
from .lincomb import LinComb


class TruncatedSeries(LinComb):
    __slots__ = ("caps", "total", "sort")

    _shape = ("caps", "total", "sort")
    _scalars = (Element, int, Fraction)

    def __init__(self, sort, caps, total=None, terms=None):
        full = sum(caps)
        total = full if total is None else min(total, full)
        self.caps = tuple(min(c, total) for c in caps)
        self.total = total
        self.sort = sort
        self._init_terms(terms and {e: c for e, c in terms.items()
                                    if self._keep(e)})

    def _coerce(self, c):
        return c if isinstance(c, Element) else Element.constant(c, self.sort)

    def _keep(self, e):
        return sum(e) <= self.total and all(map(le, e, self.caps))

    def _mul_key(self, e1, e2):
        e = tuple(map(add, e1, e2))
        return e if self._keep(e) else None

    def _conform(self, other):
        """The right operand restricted to this series' truncation."""
        if (len(other.caps), other.sort) != (len(self.caps), self.sort):
            return LinComb._conform(self, other)
        return self._like(other.terms)

    def _like(self, terms=None):
        return TruncatedSeries(self.sort, self.caps, self.total, terms)

    def constant(self, value):
        """value, shaped like self."""
        return self._like({(0,) * len(self.caps): value})

    def coefficient(self, e):
        e = tuple(e)
        return self.terms.get(e, Element.zero(self.sort))

    # kept in the class namespace: operator tracing (perfbench/tracer.py)
    # wraps them per class
    __mul__ = __rmul__ = LinComb.__mul__

    def linear_form(self, pairs):
        """sum of c * t_v for (v, c) in pairs, as a series shaped like self."""
        terms = {}
        for v, c in pairs:
            e = [0] * len(self.caps)
            e[v] = 1
            e = tuple(e)
            terms[e] = terms.get(e, 0) + c
        return self._like(terms)

    def exp_linear(self, value, pairs):
        """exp(value * linear_form(pairs)), truncated.  value is an Element."""
        lin = self.linear_form(pairs) * value
        out = term = self.constant(1)
        for k in range(1, self.total + 1):
            term = term * lin * Fraction(1, k)
            if not term.terms:
                break
            out = out + term
        return out

    def substitute(self, images, target):
        """Replace variable v by the linear form images[v] (list of (var,
        coeff) pairs over the variables of ``target``), truncated like
        ``target``.  Homogeneous, hence truncation-exact."""
        out = target._like()
        lin_cache = {}
        for e, c in self.terms.items():
            piece = target.constant(c)
            for v, k in enumerate(e):
                if not k:
                    continue
                if v not in lin_cache:
                    lin_cache[v] = target.linear_form(images[v])
                for _ in range(k):
                    piece = piece * lin_cache[v]
            out = out + piece
        return out

    def divide_var(self, v):
        """Exact division by t_v; raises if the constant-in-t_v part is
        nonzero (the caller's cancellation failed)."""
        terms = {}
        for e, c in self.terms.items():
            if e[v] == 0:
                raise ArithmeticError(
                    "division by t_%d leaves a pole: %r -> %s" % (v, e, c))
            terms[e[:v] + (e[v] - 1,) + e[v + 1:]] = c
        return self._like(terms)

    def __repr__(self):
        if not self.terms:
            return "<series 0>"
        bits = []
        for e in sorted(self.terms):
            mono = " ".join("t%d^%d" % (v, k) for v, k in enumerate(e) if k)
            bits.append("(%s)%s" % (self.terms[e], " " + mono if mono else ""))
        return "<series %s>" % " + ".join(bits)

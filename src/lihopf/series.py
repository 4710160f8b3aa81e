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

A series is ``terms / den``: integral Element numerators over one
positive integer denominator, the layout of FLINT's ``fmpq_poly``.  The
denominator is a value, not part of the shape.  A product multiplies
the denominators, a sum (``sum``, which ``+`` and ``-`` call) rescales
every part to the lcm of the denominators, and equality compares values
across denominators.  Only ``exp_linear`` makes one other than 1
(``den = K!`` for its highest kept power ``K``), so the arithmetic on
numerators stays in ints; ``coefficient`` divides, once per read, into
canonical rationals.
"""

from fractions import Fraction
from math import factorial, lcm
from operator import add, le

from .algebra import Element
from .lincomb import LinComb, as_fraction, collect


def _divide(v, den):
    """The canonical rational v / den, for an int or Fraction v."""
    if v.__class__ is int and not v % den:
        return v // den
    return as_fraction(Fraction(v, den))


class TruncatedSeries(LinComb):
    __slots__ = ("caps", "total", "sort", "den")

    _shape = ("caps", "total", "sort")
    _scalars = (Element, int, Fraction)

    def __init__(self, sort, caps, total=None, terms=None):
        full = sum(caps)
        total = full if total is None else min(total, full)
        self.caps = tuple(min(c, total) for c in caps)
        self.total = total
        self.sort = sort
        self.den = 1
        self.terms = self._like(terms).terms

    def _new(self, terms, den=None):
        """A result shaped like self, with value terms / den (by default
        self's denominator)."""
        out = LinComb._new(self, terms)
        out.den = self.den if den is None else den
        return out

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
        return self._like(other.terms, other.den)

    def _like(self, terms=None, den=1):
        """terms / den, truncated like self: the terms self keeps,
        coerced, zeros dropped."""
        keep, coerce = self._keep, self._coerce
        kept = {}
        if terms:
            for e, c in terms.items():
                if keep(e):
                    c = coerce(c)
                    if c:
                        kept[e] = c
        return self._new(kept, den)

    def constant(self, value):
        """value, shaped like self."""
        return self._like({(0,) * len(self.caps): value})

    def coefficient(self, e):
        """The coefficient of t^e, its rationals in canonical form."""
        c = self.terms.get(tuple(e))
        if c is None:
            return Element.zero(self.sort)
        den = self.den
        if den == 1:
            return c
        return c._new({m: _divide(v, den) for m, v in c.terms.items()})

    # -- arithmetic on terms / den -------------------------------------------

    def _rescaled(self, den):
        """self with denominator den, a multiple of self.den."""
        f = den // self.den
        if f == 1:
            return self
        return self._new({e: c * f for e, c in self.terms.items()}, den)

    def _add(self, other, sign=1):
        return self.sum((other if sign > 0 else -other,))

    def sum(self, parts):
        """The one rule for adding series: every part, conformed to self's
        truncation, is rescaled to the lcm of the denominators, and the
        numerators are summed in one dict."""
        parts = [self._conformed(part) for part in parts]
        den = lcm(self.den, *[part.den for part in parts])
        return LinComb.sum(self._rescaled(den),
                           [part._rescaled(den) for part in parts])

    def _mul(self, other):
        return self._new(self._mul_terms(other), self.den * other.den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if not self._same_shape(other):
            return False
        a, b = self.den, other.den
        if a == b:
            return self.terms == other.terms
        return ({e: c * b for e, c in self.terms.items()}
                == {e: c * a for e, c in other.terms.items()})

    # kept in the class namespace: operator tracing (perfbench/tracer.py)
    # wraps them per class
    __mul__ = __rmul__ = LinComb.__mul__

    def linear_form(self, pairs):
        """sum of c * t_v for (v, c) in pairs, as a series shaped like self."""
        n = len(self.caps)
        return self._like(collect(
            ((0,) * v + (1,) + (0,) * (n - 1 - v), c) for v, c in pairs))

    def exp_linear(self, value, pairs):
        """exp(value * linear_form(pairs)), truncated.  value is an Element.

        The kept powers lin^k, k <= K, are homogeneous of distinct degrees,
        so their terms are disjoint: the result is sum (K!/k!) lin^k over
        den = K!, with integer numerators."""
        lin = self.linear_form(pairs) * value
        powers = [self.constant(1)]
        while len(powers) <= self.total:
            term = powers[-1] * lin
            if not term.terms:
                break
            powers.append(term)
        top = len(powers) - 1
        terms = {}
        for k, term in enumerate(powers):
            f = factorial(top) // factorial(k)
            for e, c in term.terms.items():
                terms[e] = c * f
        return self._new(terms, factorial(top))

    def substitute(self, images, target):
        """Replace variable v by the linear form images[v] (list of (var,
        coeff) pairs over the variables of ``target``), truncated like
        ``target``.  Homogeneous, hence truncation-exact."""
        lin_cache = {}

        def piece(e, c):
            out = target.constant(c)
            for v, k in enumerate(e):
                if not k:
                    continue
                if v not in lin_cache:
                    lin_cache[v] = target.linear_form(images[v])
                for _ in range(k):
                    out = out * lin_cache[v]
            return out

        out = target._like().sum(piece(e, c) for e, c in self.terms.items())
        return out._new(out.terms, self.den)

    def divide_var(self, v):
        """Exact division by t_v; raises if the constant-in-t_v part is
        nonzero (the caller's cancellation failed)."""
        terms = {}
        for e, c in self.terms.items():
            if e[v] == 0:
                raise ArithmeticError(
                    "division by t_%d leaves a pole: %r -> %s" % (v, e, c))
            terms[e[:v] + (e[v] - 1,) + e[v + 1:]] = c
        # lowering an exponent stays inside the truncation
        return self._new(terms)

    def __repr__(self):
        if not self.terms:
            return "<series 0>"
        bits = []
        for e in sorted(self.terms):
            mono = " ".join("t%d^%d" % (v, k) for v, k in enumerate(e) if k)
            bits.append("(%s)%s" % (self.terms[e], " " + mono if mono else ""))
        over = " over %d" % self.den if self.den != 1 else ""
        return "<series %s%s>" % (" + ".join(bits), over)

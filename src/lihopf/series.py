"""Truncated multivariate polynomial series with algebra-valued coefficients.

A series lives in the formal variables t_0, t_1, ..., one per cap, and
keeps exactly the exponent tuples e with e <= caps (entrywise) and
|e| <= total.  The shape is stored in canonical form: total is at most
sum(caps) (its default), and no cap exceeds total, so two shapes that
keep the same exponents compare equal.  All operations below are exact
on the kept range provided the inputs were: multiplication and
homogeneous linear substitution never move degrees downward, and
explicit division by a variable is only performed after checking that
the dividend vanishes identically on the divisor's zero locus (every
kept term has a positive exponent there).

A series is one flat combination ``terms / den``, the layout of FLINT's
``fmpq_mpoly``: its keys are pairs ``(e, mon)`` of an exponent tuple and
a sorted monomial of the series' sort (``()`` for a scalar), and its
values are int numerators over one positive integer denominator.  The
coefficient of t^e is the Element  sum over mon of
terms[(e, mon)] / den * mon;  ``coefficient`` and ``coefficients`` build
it, dividing once per read into canonical rationals.  No coefficient is
itself a combination, so a product of two terms is one int product, and
a linear form or a constant is a series whose monomials are all ``()``.

The denominator is a value, not part of the shape.  A product multiplies
the denominators, scaling by a rational or an Element folds the
denominators of its coefficients into ``den``, a sum (``sum``, which
``+`` and ``-`` call) rescales every part to the lcm of the
denominators, and equality compares values across denominators.
``exp_linear`` makes ``den = K!`` for its highest kept power ``K``.
"""

from fractions import Fraction
from math import factorial, lcm
from operator import add, le

from .algebra import Element, mul_monomials
from .lincomb import LinComb, as_fraction, collect


def _divide(v, den):
    """The canonical rational v / den, for an int or Fraction v."""
    if v.__class__ is int and not v % den:
        return v // den
    return as_fraction(Fraction(v, den))


def _by_exponent(terms):
    """The (monomial, numerator) pairs of terms, grouped by exponent."""
    out = {}
    for (e, mon), c in terms.items():
        block = out.get(e)
        if block is None:
            out[e] = [(mon, c)]
        else:
            block.append((mon, c))
    return out


class TruncatedSeries(LinComb):
    __slots__ = ("caps", "total", "sort", "den")

    _shape = ("caps", "total", "sort")
    _scalars = (Element,)

    def __init__(self, sort, caps, total=None, terms=None):
        """The series sum of terms[e] t^e (an Element or a rational per
        exponent), truncated to (caps, total)."""
        full = sum(caps)
        total = full if total is None else min(total, full)
        self.caps = tuple(min(c, total) for c in caps)
        self.total = total
        self.sort = sort
        like = self._like(terms)
        self.den = like.den
        self.terms = like.terms

    def _new(self, terms, den=None):
        """A result shaped like self, with value terms / den (by default
        self's denominator)."""
        out = object.__new__(TruncatedSeries)
        out.caps = self.caps
        out.total = self.total
        out.sort = self.sort
        out.den = self.den if den is None else den
        out.terms = terms
        return out

    def _keep(self, e):
        return sum(e) <= self.total and all(map(le, e, self.caps))

    def _conform(self, other):
        """The right operand restricted to this series' truncation."""
        if (len(other.caps), other.sort) != (len(self.caps), self.sort):
            return LinComb._conform(self, other)
        if other.total <= self.total and all(map(le, other.caps, self.caps)):
            return self._new(dict(other.terms), other.den)
        keep = self._keep
        return self._new({k: c for k, c in other.terms.items()
                          if keep(k[0])}, other.den)

    def _like(self, terms=None, den=1):
        """sum of terms[e] t^e over den, truncated like self: terms maps
        exponents to Elements or rationals, whose denominators are folded
        into the result's."""
        keep = self._keep
        pairs = []
        if terms:
            for e, c in terms.items():
                e = tuple(e)
                if not keep(e):
                    continue
                if isinstance(c, Element):
                    pairs.extend(((e, mon), v) for mon, v in c.terms.items())
                else:
                    c = as_fraction(c)
                    if c:
                        pairs.append(((e, ()), c))
        m = lcm(*[v.denominator for _, v in pairs])
        return self._new({k: v.numerator * (m // v.denominator)
                          for k, v in pairs}, den * m)

    def constant(self, value):
        """value, an Element or a rational, shaped like self."""
        return self._like({(0,) * len(self.caps): value})

    def coefficient(self, e):
        """The coefficient of t^e, its rationals in canonical form."""
        e = tuple(e)
        den = self.den
        return Element.zero(self.sort)._new({
            mon: _divide(v, den) for (f, mon), v in self.terms.items()
            if f == e})

    def coefficients(self):
        """Every nonzero coefficient, as a dict exponent -> Element, its
        rationals in canonical form."""
        den = self.den
        grouped = {}
        for (e, mon), v in self.terms.items():
            grouped.setdefault(e, {})[mon] = _divide(v, den)
        zero = Element.zero(self.sort)
        return {e: zero._new(t) for e, t in grouped.items()}

    # -- arithmetic on terms / den -------------------------------------------

    def _rescaled(self, den):
        """self with denominator den, a multiple of self.den."""
        f = den // self.den
        if f == 1:
            return self
        return self._new({k: c * f for k, c in self.terms.items()}, den)

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
        """The product, grouped by exponent: the truncation test runs once
        per pair of exponents, then every pair of their monomials is
        multiplied (the empty monomial is the unit)."""
        caps, total = self.caps, self.total
        right = _by_exponent(other.terms)
        blocks = []
        for e1, t1 in _by_exponent(self.terms).items():
            for e2, t2 in right.items():
                e = tuple(map(add, e1, e2))
                if sum(e) <= total and all(map(le, e, caps)):
                    blocks.append((e, t1, t2))
        return self._new(collect(
            ((e, m2 if not m1 else m1 if not m2 else mul_monomials(m1, m2)),
             c1 * c2)
            for e, t1, t2 in blocks for m1, c1 in t1 for m2, c2 in t2),
            self.den * other.den)

    def scale(self, c):
        """c * self for a rational or an Element c; the denominators of c
        are folded into den, so the numerators stay ints.  An Element is
        the product with the constant series c."""
        if c.__class__ is Element:
            return self._mul(self.constant(c))
        c = as_fraction(c)
        if not c:
            return self._new({})
        n = c.numerator
        return self._new({k: v * n for k, v in self.terms.items()},
                         self.den * c.denominator)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if not self._same_shape(other):
            return False
        a, b = self.den, other.den
        if a == b:
            return self.terms == other.terms
        return ({k: c * b for k, c in self.terms.items()}
                == {k: c * a for k, c in other.terms.items()})

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
        so their terms are disjoint: with lin = num / d, the result is
        sum (K!/k!) d^(K-k) num^k over den = K! d^K, with integer
        numerators (d = 1 unless value has a fractional coefficient)."""
        lin = self.linear_form(pairs) * value
        powers = [self.constant(1)]
        while len(powers) <= self.total:
            term = powers[-1] * lin
            if not term.terms:
                break
            powers.append(term)
        top = len(powers) - 1
        d = lin.den
        terms = {}
        for k, term in enumerate(powers):
            f = factorial(top) // factorial(k) * d ** (top - k)
            for key, c in term.terms.items():
                terms[key] = c * f
        return self._new(terms, factorial(top) * d ** top)

    def substitute(self, images, target):
        """Replace variable v by the linear form images[v] (list of (var,
        coeff) pairs over the variables of ``target``), truncated like
        ``target``.  Homogeneous, hence truncation-exact.

        The image of each exponent present, a product of powers of the
        linear forms, is computed once as (exponent, int) pairs over a
        common denominator; every term then adds its numerator times those
        ints, with no product of coefficients."""
        powers = {}

        def power(v, k):
            pw = powers.get(v)
            if pw is None:
                pw = powers[v] = [target.constant(1),
                                  target.linear_form(images[v])]
            while len(pw) <= k:
                pw.append(pw[-1] * pw[1])
            return pw[k]

        image = {}
        for e in {key[0] for key in self.terms}:
            out = None
            for v, k in enumerate(e):
                if k:
                    out = power(v, k) if out is None else out * power(v, k)
            image[e] = target.constant(1) if out is None else out
        d = lcm(*[s.den for s in image.values()])
        pairs = {e: [(f, n * (d // s.den)) for (f, _), n in s.terms.items()]
                 for e, s in image.items()}
        return target._new(collect(
            ((f, mon), c * n) for (e, mon), c in self.terms.items()
            for f, n in pairs[e]), self.den * d)

    def divide_var(self, v):
        """Exact division by t_v; raises if the constant-in-t_v part is
        nonzero (the caller's cancellation failed)."""
        terms = {}
        for (e, mon), c in self.terms.items():
            if e[v] == 0:
                raise ArithmeticError(
                    "division by t_%d leaves a pole: %r -> %s"
                    % (v, e, self.coefficient(e)))
            terms[(e[:v] + (e[v] - 1,) + e[v + 1:], mon)] = c
        # lowering an exponent stays inside the truncation
        return self._new(terms)

    def __repr__(self):
        coefficients = self.coefficients()
        if not coefficients:
            return "<series 0>"
        bits = []
        for e in sorted(coefficients):
            mono = " ".join("t%d^%d" % (v, k) for v, k in enumerate(e) if k)
            bits.append("(%s)%s" % (coefficients[e],
                                    " " + mono if mono else ""))
        return "<series %s>" % " + ".join(bits)

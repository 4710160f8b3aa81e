"""Truncated multivariate polynomial series with algebra-valued coefficients.

A series lives in a fixed tuple of formal variables t_0..t_{nvars-1} and
keeps only exponent tuples allowed by a per-variable cap vector and/or a
total-degree cap.  Coefficients are Element values (one common sort per
series).  All operations below are exact on the kept range provided the
inputs were: multiplication and homogeneous linear substitution never move
degrees downward, and explicit division by a variable is only performed
after checking that the dividend vanishes identically on the divisor's
zero locus (every kept term has a positive exponent there).
"""

from fractions import Fraction

from .algebra import Element
from .lincomb import LinComb


class TruncatedSeries(LinComb):
    __slots__ = ("nvars", "caps", "total_cap", "sort")

    _shape = ("nvars", "caps", "total_cap", "sort")
    _scalars = (Element, int, Fraction)

    def __init__(self, nvars, sort, caps=None, total_cap=None, terms=None):
        if caps is None and total_cap is None:
            raise ValueError("need at least one truncation bound")
        self.nvars = nvars
        self.caps = tuple(caps) if caps is not None else None
        self.total_cap = total_cap
        self.sort = sort
        self._init_terms(terms and {e: c for e, c in terms.items()
                                    if self._keep(e)})

    def _coerce(self, c):
        return c if isinstance(c, Element) else Element.constant(c, self.sort)

    def _keep(self, e):
        if self.caps is not None and any(x > c for x, c in zip(e, self.caps)):
            return False
        if self.total_cap is not None and sum(e) > self.total_cap:
            return False
        return True

    def _mul_key(self, e1, e2):
        e = tuple(a + b for a, b in zip(e1, e2))
        return e if self._keep(e) else None

    def _conform(self, other):
        """The right operand restricted to this series' truncation."""
        if (other.nvars, other.sort) != (self.nvars, self.sort):
            return LinComb._conform(self, other)
        return self._like(other.terms)

    def _like(self, terms=None):
        return TruncatedSeries(self.nvars, self.sort, self.caps,
                               self.total_cap, terms)

    @staticmethod
    def constant(value, nvars, sort, caps=None, total_cap=None):
        return TruncatedSeries(nvars, sort, caps, total_cap,
                               {(0,) * nvars: value})

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
            e = [0] * self.nvars
            e[v] = 1
            e = tuple(e)
            terms[e] = terms.get(e, 0) + c
        return self._like(terms)

    def exp_linear(self, value, pairs):
        """exp(value * linear_form(pairs)), truncated.  value is an Element."""
        bound = self.total_cap
        if bound is None:
            bound = sum(self.caps)
        lin = self.linear_form(pairs) * value
        out = TruncatedSeries.constant(1, self.nvars, self.sort,
                                       self.caps, self.total_cap)
        term = TruncatedSeries.constant(1, self.nvars, self.sort,
                                        self.caps, self.total_cap)
        for k in range(1, bound + 1):
            term = term * lin * Fraction(1, k)
            if not term.terms:
                break
            out = out + term
        return out

    def substitute(self, images, nvars, caps=None, total_cap=None):
        """Replace variable v by the linear form images[v] (list of (var,
        coeff) pairs over the *target* variables).  Homogeneous, hence
        truncation-exact for the target bounds."""
        out = TruncatedSeries(nvars, self.sort, caps, total_cap)
        lin_cache = {}
        for e, c in self.terms.items():
            piece = TruncatedSeries.constant(c, nvars, self.sort, caps, total_cap)
            for v, k in enumerate(e):
                if not k:
                    continue
                if v not in lin_cache:
                    lin_cache[v] = out.linear_form(images[v])
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

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

A series is one flat combination ``terms / den`` (FLINT's ``fmpq_mpoly``
layout): int numerators over one positive integer denominator, each
keyed by one int.  A key packs t^e as Monagan and Pearce do ("Sparse
polynomial division using a heap", J. Symb. Comput. 2011): e_v in the
byte field v, |e| in field n after the last variable, and above them the
id of a sorted monomial of the series' sort in ``algebra.MONOMIALS`` (0
for ``()``).  A field's top bit is its guard, clear in a stored key, so
no field exceeds LIMIT = 127 (a larger total raises ValueError) and the
fields of two keys of one shape add without a carry.  A product of
exponents is then one int addition; adding the shape's bias (LIMIT - cap,
LIMIT - total in field n) sets a guard bit exactly where a cap or the
total is passed, so truncation is one mask test; division by t_v takes
one unit from field v and from field n; and a product of monomials is
one lookup in the id table.  ``substitute`` reads exponent fields; only
``coefficients`` (behind ``coefficient`` and ``__repr__``) reads whole
keys.  ``clear_caches`` empties the id table and never reissues an id,
so a series kept across a clear raises ValueError when decoded or
compared after it, and a product with it raises or passes its ids on.

The denominator is a value, not part of the shape.  A product multiplies
the denominators, scaling by a rational or an Element folds the
denominators of its coefficients into ``den``, a sum (``sum``, which
``+`` and ``-`` call) rescales every part to the lcm of the
denominators, and equality compares values across denominators.
``exp_linear`` makes ``den = K!`` for its highest kept power ``K``.
"""

from fractions import Fraction
from math import factorial, lcm

from .algebra import ID_BITS, MONOMIALS, Element
from .lincomb import LinComb, as_fraction, collect

WIDTH = 8  # one byte per field: keys pack through int.from_bytes
LIMIT = (1 << WIDTH - 1) - 1


def _divide(v, den):
    """The canonical rational v / den, for an int or Fraction v."""
    if v.__class__ is int and not v % den:
        return v // den
    return as_fraction(Fraction(v, den))


def _by_exponent(terms, shift):
    """terms' (monomial id, numerator) pairs, grouped by exponent fields."""
    low = (1 << shift) - 1
    out = {}
    for k, c in terms.items():
        e = k & low
        block = out.get(e)
        if block is None:
            out[e] = [(k >> shift, c)]
        else:
            block.append((k >> shift, c))
    return out


class TruncatedSeries(LinComb):
    __slots__ = ("caps", "total", "sort", "den", "_layout")

    _shape = ("caps", "total", "sort")
    _scalars = (Element,)

    def __init__(self, sort, caps, total=None, terms=None):
        """The series sum of terms[e] t^e (an Element or a rational per
        exponent), truncated to (caps, total)."""
        full = sum(caps)
        total = full if total is None else min(total, full)
        if total > LIMIT:
            raise ValueError("series total %d exceeds %d" % (total, LIMIT))
        self.caps, self.total = tuple(min(c, total) for c in caps), total
        self.sort = sort
        # (bias, guard bits, bit offset of the monomial id)
        bias = bytes(LIMIT - c for c in self.caps + (total,))
        self._layout = (int.from_bytes(bias, "little"), int.from_bytes(
            b"\x80" * len(bias), "little"), len(bias) * WIDTH)
        like = self._like(terms)
        self.den, self.terms = like.den, like.terms

    def _new(self, terms, den=None):
        """A result shaped like self: terms / den, by default self's den."""
        out = object.__new__(TruncatedSeries)
        out.caps, out.total, out.sort = self.caps, self.total, self.sort
        out._layout = self._layout
        out.den = self.den if den is None else den
        out.terms = terms
        return out

    def _monomial_key(self, mon):
        """The bits of a key that name monomial mon, above the fields."""
        return MONOMIALS.id(mon) << self._layout[2]

    def _conform(self, other):
        """The right operand restricted to this series' truncation."""
        if (len(other.caps), other.sort) != (len(self.caps), self.sort):
            return LinComb._conform(self, other)
        bias, guards, _ = self._layout
        return self._new({k: c for k, c in other.terms.items()
                          if not k + bias & guards}, other.den)

    def _like(self, terms=None, den=1):
        """sum of terms[e] t^e over den, truncated like self: terms maps
        exponents to Elements or rationals, whose denominators are folded
        into the result's.  An exponent of another length raises."""
        n, total, (bias, guards, _) = len(self.caps), self.total, self._layout
        pairs = []
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != n:
                raise ValueError("exponent %s, not of length %d" % (e, n))
            s = sum(e)
            if s > total:
                continue
            # every field is at most total <= LIMIT: adding bias carries not
            k = int.from_bytes(bytes(e + (s,)), "little")
            if k + bias & guards:
                continue
            if isinstance(c, Element):
                pairs.extend((k | self._monomial_key(mon), v)
                             for mon, v in c.terms.items())
            elif c:
                pairs.append((k, as_fraction(c)))
        m = lcm(*[v.denominator for _, v in pairs])
        return self._new({k: v.numerator * (m // v.denominator)
                          for k, v in pairs}, den * m)

    def constant(self, value):
        """value, an Element or a rational, shaped like self."""
        return self._like({(0,) * len(self.caps): value})

    def coefficient(self, e):
        """The coefficient of t^e, its rationals in canonical form."""
        return self.coefficients().get(tuple(e)) or Element.zero(self.sort)

    def coefficients(self):
        """Every nonzero coefficient, as a dict exponent -> Element, its
        rationals in canonical form."""
        den, zero, n = self.den, Element.zero(self.sort), len(self.caps) + 1
        groups = _by_exponent(self.terms, self._layout[2])
        return {tuple(e.to_bytes(n, "little")[:-1]): zero._new(
            {MONOMIALS.monomial(m): _divide(v, den) for m, v in t})
            for e, t in groups.items()}

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
        per pair of exponents, then every pair of their monomial ids is
        multiplied through ``MONOMIALS`` (id 0, the unit, needs none).  By
        a one-term factor, distinct terms go to distinct keys: no sums."""
        bias, guards, shift = self._layout
        if len(self.terms) == 1 or len(other.terms) == 1:
            one, many = (self, other) if len(self.terms) == 1 \
                else (other, self)
            (k1, c1), = one.terms.items()
            low, m1 = (1 << shift) - 1, (k1 >> shift) << ID_BITS
            return self._new({
                k1 + k2 if not (m1 and k2 > low) else (k1 + k2) & low
                | MONOMIALS[m1 | k2 >> shift] << shift: c1 * c2
                for k2, c2 in many.terms.items()
                if not k1 + k2 + bias & guards}, self.den * other.den)
        right = _by_exponent(other.terms, shift)
        blocks = [(e1 + e2, t1, t2)
                  for e1, t1 in _by_exponent(self.terms, shift).items()
                  for e2, t2 in right.items() if not e1 + e2 + bias & guards]
        product = MONOMIALS
        return self._new(collect(
            (e | (product[m1 << ID_BITS | m2] if m1 and m2 else m1 | m2)
             << shift, c1 * c2)
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
        shift, base = self._layout[2], MONOMIALS.base
        if any(0 < k >> shift < base for k in (*self.terms, *other.terms)):
            raise ValueError("a monomial id predates clear_caches()")
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
        linear forms, is computed once as (key, int) pairs over a common
        denominator; every term then adds its numerator times those ints,
        with no product of coefficients."""
        powers = {}

        def power(v, k):
            pw = powers.get(v)
            if pw is None:
                pw = powers[v] = [target.constant(1),
                                  target.linear_form(images[v])]
            while len(pw) <= k:
                pw.append(pw[-1] * pw[1])
            return pw[k]

        shift, n = self._layout[2], len(self.caps)
        low, image = (1 << shift) - 1, {}
        for f in {k & low for k in self.terms}:
            out = None
            for v, k in enumerate(f.to_bytes(n + 1, "little")[:n]):
                if k:
                    out = power(v, k) if out is None else out * power(v, k)
            image[f] = target.constant(1) if out is None else out
        d = lcm(*[s.den for s in image.values()])
        pairs = {f: [(g, n * (d // s.den)) for g, n in s.terms.items()]
                 for f, s in image.items()}
        return target._new(collect(
            (g | k >> shift << target._layout[2], c * n)
            for k, c in self.terms.items() for g, n in pairs[k & low]),
            self.den * d)

    def divide_var(self, v):
        """Exact division by t_v; raises if the constant-in-t_v part is
        nonzero (the caller's cancellation failed)."""
        if any(not k >> v * WIDTH & 0xFF for k in self.terms):
            poles = {e: c for e, c in self.coefficients().items() if not e[v]}
            raise ArithmeticError("t_%d does not divide %s" % (v, poles))
        # lowering an exponent stays inside the truncation
        unit = 1 << v * WIDTH | 1 << len(self.caps) * WIDTH
        return self._new({k - unit: c for k, c in self.terms.items()})

    def __repr__(self):
        return "<series %s>" % (" + ".join(
            "(%s)%s" % (c, "".join(" t%d^%d" % vk for vk in enumerate(e)
                                   if vk[1]))
            for e, c in sorted(self.coefficients().items())) or "0")

"""Sparse Q-linear combinations: the arithmetic shared by every algebra.

Every object of the package is a finite combination  sum_k c_k * k  of
hashable keys k (monomials, tuples of monomials, words, exponent tuples,
basis covectors) with nonzero coefficients c_k.  The coefficients are
exact rationals, or for series and forms elements of another such
algebra.  ``LinComb`` holds the combination in a dict ``terms`` and
implements addition, negation, subtraction, scaling, the product through
a per-class product of keys, equality and zero pruning once, for all of
them.

A subclass declares:

* ``_shape``: the names of the fields two operands must share (a sort,
  a degree, a truncation); results copy them from the left operand;
* ``_mul_key(k1, k2)``: the key of a product of two keys, or None when
  the product vanishes (it is dropped);
* ``_scalars``: the types ``*`` treats as scalars rather than operands;
* ``_lift(c)``: a scalar as a combination shaped like self, for algebras
  with a unit (the default has none);
* ``_coerce(c)``: the coefficient a public constructor stores for c
  (default ``as_fraction``);
* ``_conform(other)``: a right operand of another shape brought to self's
  (default: a ValueError).

Results of arithmetic are built once from dicts that hold only nonzero,
already coerced coefficients; public constructors coerce every
coefficient through ``as_fraction`` and drop zeros.

Structure maps are given on generators and extended by ``extend``
(linear over terms, multiplicative over each monomial); maps given on
keys are extended by ``linear``.
"""

from fractions import Fraction
from types import MappingProxyType


def as_fraction(c):
    """The one coercion of scalars: an int or Fraction, as a Fraction."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError("scalar must be an int or Fraction, got %r" % (c,))


class LinComb:
    __slots__ = ("terms",)

    _shape = ()
    _scalars = (int, Fraction)

    def _init_terms(self, terms):
        """Set terms from a public constructor's input: every coefficient
        coerced, zeros dropped."""
        coerce = self._coerce
        self.terms = {}
        if terms:
            for k, c in terms.items():
                c = coerce(c)
                if c:
                    self.terms[k] = c

    _coerce = staticmethod(as_fraction)

    def _new(self, terms):
        """A result shaped like self; terms must hold no zero and need no
        coercion."""
        out = object.__new__(self.__class__)
        for name in self._shape:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _lift(self, c):
        return None

    def _same_shape(self, other):
        return all(getattr(self, n) == getattr(other, n) for n in self._shape)

    def _conform(self, other):
        """other brought to self's shape; by default shapes must agree."""
        raise ValueError("%s shape mismatch: %s vs %s" % (
            self.__class__.__name__,
            [getattr(self, n) for n in self._shape],
            [getattr(other, n) for n in self._shape]))

    def _join(self, other):
        """The two operands of a binary operation with one shape, or None
        when other is not a combination of this kind."""
        if isinstance(other, (int, Fraction)):
            other = self._lift(other)
        if other.__class__ is not self.__class__:
            return None
        if not self._same_shape(other):
            other = self._conform(other)
        return self, other

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def frozen(self):
        """A copy whose terms cannot be changed, safe to hand out from a
        cache: every caller receives the same object."""
        return self._new(MappingProxyType(dict(self.terms)))

    # -- arithmetic --------------------------------------------------------

    def _add(self, other, sign=1):
        terms = dict(self.terms)
        get = terms.get
        for k, c in other.terms.items():
            if sign < 0:
                c = -c
            v = get(k)
            if v is None:
                terms[k] = c
            else:
                v = v + c
                if v:
                    terms[k] = v
                else:
                    del terms[k]
        return self._new(terms)

    def _mul(self, other):
        key = self._mul_key
        terms = {}
        get = terms.get
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = key(k1, k2)
                if k is not None:
                    v = get(k)
                    terms[k] = c1 * c2 if v is None else v + c1 * c2
        return self._new(_nonzero(terms))

    def scale(self, c):
        """c * self for a scalar c, or a coefficient c of a series or
        form; coefficient rings have no zero divisors."""
        if not isinstance(c, LinComb):
            c = as_fraction(c)
        if not c:
            return self._new({})
        return self._new({k: v * c for k, v in self.terms.items()})

    def __add__(self, other):
        pair = self._join(other)
        if pair is None:
            return NotImplemented
        return pair[0]._add(pair[1])

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._join(other)
        if pair is None:
            return NotImplemented
        return pair[0]._add(pair[1], -1)

    def __rsub__(self, other):
        pair = self._join(other)
        if pair is None:
            return NotImplemented
        return pair[1]._add(pair[0], -1)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        pair = self._join(other)
        if pair is None:
            return NotImplemented
        return pair[0]._mul(pair[1])

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._lift(other)
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms and self._same_shape(other)


def _nonzero(terms):
    return {k: v for k, v in terms.items() if v}


def collect(pairs):
    """The terms of the sum of (key, coefficient) pairs: coefficients of
    equal keys added, zero sums dropped."""
    terms = {}
    get = terms.get
    for k, c in pairs:
        v = get(k)
        terms[k] = c if v is None else v + c
    return _nonzero(terms)


def linear(x, image, zero):
    """The linear map sending each key k of x to image(k); ``zero`` is
    the zero of the target, whose shape the result takes."""
    return zero._new(collect((k, v * c) for key, c in x.terms.items()
                             for k, v in image(key).terms.items()))


def extend(x, image, unit):
    """The map sending each generator g to image(g), extended
    multiplicatively over each monomial of x and linearly over its terms;
    ``unit`` is the image of the empty monomial and gives the result its
    shape."""
    def on_monomial(mon):
        if not mon:
            return unit
        out = image(mon[0])
        for g in mon[1:]:
            out = out * image(g)
        return out

    return linear(x, on_monomial, unit)

"""Sparse Q-linear combinations: the arithmetic shared by every algebra.

Every object of the package is a finite combination  sum_k c_k * k  of
hashable keys k (monomials, tuples of monomials, words, (exponent,
monomial) pairs, basis covectors) with nonzero coefficients c_k.  The
coefficients are exact rationals, or for forms elements of another such
algebra (a Form's Poly values); a series is ``terms / den``, int
numerators over one positive integer denominator (see ``series``).  A
rational is stored in its canonical form, an ``int`` when it is integral
and a ``Fraction`` otherwise; arithmetic may still produce an integral
``Fraction``, which equals and hashes like the int.
``LinComb`` holds the combination in a dict ``terms`` and implements
addition, negation, subtraction, scaling, the product through a
per-class product of keys, equality and zero pruning once, for all of
them.

A subclass declares:

* ``_shape``: the names of the fields two operands must share (a sort,
  a degree, a truncation);
* ``_new(terms)``: a result of self's class with the given terms and
  self's shape fields, so a result takes the shape of its left operand;
  terms hold no zero and need no coercion;
* ``_mul_key(k1, k2)``: the key of a product of two keys, or None when
  the product vanishes (it is dropped);
* ``_scalars``: the combination types ``*`` treats as scalars rather
  than operands (a rational always is one); an operand is tested for
  being a rational by its class, or as a combination first, because an
  ``isinstance`` test against ``Fraction`` runs the ``numbers`` ABC
  machinery for every operand that is not one;
* ``_lift(c)``: a scalar as a combination shaped like self, for algebras
  with a unit (the default has none);
* ``_coerce(c)``: the coefficient a public constructor stores for c
  (default ``as_fraction``);
* ``_conform(other)``: a right operand of another shape brought to self's
  (default: a ValueError).

Results of arithmetic are built once from dicts that hold only nonzero,
already coerced coefficients; public constructors coerce every
coefficient through ``as_fraction`` and drop zeros.  A class whose shape
restricts its keys (the sort H of ``Element`` admits no inverted
generator) validates them in ``_check``.  Sums, products, scalings and
negations of operands of one shape stay in that shape and skip it;
public constructors and results whose shape the caller names (the target
of ``linear`` and ``extend``) run it.

Every sum is formed by one private loop, ``_accumulate``, which adds
(key, coefficient) pairs into a dict in place and drops a key whose
coefficient cancels.  ``LinComb._add`` (``+`` and ``-``), ``collect``
(the terms of a sum of pairs, in a new dict or added in place into one
the caller owns) and ``LinComb.sum`` (self plus any number
of combinations of its kind, into one dict) are the only ways a sum is
formed.  A coefficient that is itself a combination (an Element of
``derive``, a Poly of a Form) is copied the first time its
key repeats and grown in place after that, so a value that an operand or
a memo holds is never written into.

Structure maps are given on generators and extended by ``extend``
(linear over terms, multiplicative over each monomial); maps given on
keys are extended by ``linear``.  Maps whose values are fixed by their
arguments (a map on generators, words or weight vectors) are memoized
per process by ``memo``, or per key by ``batch_memo``; ``clear_caches``
empties every such memo.
"""

import functools
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from types import MappingProxyType


def as_fraction(c):
    """The one coercion of scalars: an int or Fraction, as its canonical
    rational, an int when integral and a Fraction otherwise."""
    if c.__class__ is int:
        return c
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError("scalar must be an int or Fraction, got %r" % (c,))


def is_rational(x):
    """x is an int or a Fraction, told without the ``numbers`` ABC
    machinery when x is a combination."""
    cls = x.__class__
    if cls is int or cls is Fraction:
        return True
    return not isinstance(x, LinComb) and isinstance(x, (int, Fraction))


class LinComb:
    __slots__ = ("terms",)

    _shape = ()
    _scalars = ()

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

    def _lift(self, c):
        return None

    def _check(self):
        """self, once its keys are valid for its shape (by default every
        key is); raises ValueError otherwise."""
        return self

    def _same_shape(self, other):
        for name in self._shape:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def _conform(self, other):
        """other brought to self's shape; by default shapes must agree."""
        raise ValueError("%s shape mismatch: %s vs %s" % (
            self.__class__.__name__,
            [getattr(self, n) for n in self._shape],
            [getattr(other, n) for n in self._shape]))

    def _join(self, other):
        """The two operands of a binary operation with one shape, or None
        when other is not a combination of this kind."""
        if other.__class__ is not self.__class__:
            if is_rational(other):
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
        _accumulate(terms, other.terms.items(), sign)
        return self._new(terms)

    def sum(self, parts):
        """self plus every combination in parts, formed in one dict.  The
        result has self's shape; a part of another shape is conformed to
        it as ``+`` conforms its right operand.  With no parts, a copy of
        self."""
        terms = dict(self.terms)
        _accumulate(terms, chain.from_iterable(
            self._conformed(part).terms.items() for part in parts))
        return self._new(terms)

    def _conformed(self, part):
        if part.__class__ is not self.__class__:
            raise TypeError("cannot add %s to %s" % (
                part.__class__.__name__, self.__class__.__name__))
        return part if part._same_shape(self) else self._conform(part)

    def _mul(self, other):
        return self._new(self._mul_terms(other))

    def _mul_terms(self, other):
        """The terms of the product of self and other, zeros dropped."""
        key = self._mul_key
        return collect((k, c1 * c2) for k1, c1 in self.terms.items()
                       for k2, c2 in other.terms.items()
                       if (k := key(k1, k2)) is not None)

    def scale(self, c):
        """c * self for a scalar c, or a Poly coefficient c of a form;
        coefficient rings have no zero divisors."""
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
        if other.__class__ is not self.__class__ and (
                is_rational(other) or isinstance(other, self._scalars)):
            return self.scale(other)
        pair = self._join(other)
        if pair is None:
            return NotImplemented
        return pair[0]._mul(pair[1])

    __rmul__ = __mul__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            if is_rational(other):
                other = self._lift(other)
            if other.__class__ is not self.__class__:
                return NotImplemented
        return self.terms == other.terms and self._same_shape(other)


# every memo of the package, in registration order, for ``clear_caches``
# and for readers of ``cache_info()``
MEMOS = []


def memo(fn):
    """fn memoized for the life of the process (``functools.cache``) and
    registered in ``MEMOS``.  Every caller receives the same value, so fn
    must return one they cannot change: a ``frozen()`` combination, a
    tuple, a read-only mapping.  Exceptions are not cached."""
    cached = functools.cache(fn)
    MEMOS.append(cached)
    return cached


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class BatchMemo:
    """A per-key memo of ``batch(keys)``, a map computed for many keys at
    once: ``batch`` takes a list of distinct keys and returns a dict with
    a combination for each.  Calling the memo with an iterable of keys
    returns {key: value} in first-seen order; the keys not yet stored go
    to ``batch`` as one list, in that order, and each value is stored
    ``frozen()``.  A batch that raises stores nothing.  Like a ``memo``
    it answers ``cache_info()`` (hits and misses count keys) and
    ``cache_clear()``."""

    def __init__(self, batch):
        self.__wrapped__ = batch
        self.cache_clear()

    def __call__(self, keys):
        store = self._store
        out = dict.fromkeys(keys)
        missing = [k for k in out if k not in store]
        if missing:
            values = self.__wrapped__(missing)
            store.update((k, values[k].frozen()) for k in missing)
            self._misses += len(missing)
        self._hits += len(out) - len(missing)
        for k in out:
            out[k] = store[k]
        return out

    def cache_info(self):
        return _CacheInfo(self._hits, self._misses, None, len(self._store))

    def cache_clear(self):
        self._store = {}
        self._hits = self._misses = 0


def batch_memo(batch):
    """``batch`` memoized per key by a ``BatchMemo``, registered in
    ``MEMOS``."""
    cached = BatchMemo(batch)
    MEMOS.append(cached)
    return cached


def clear_caches():
    """Empty every memo, so each map computes its values afresh."""
    for cached in MEMOS:
        cached.cache_clear()


def _accumulate(terms, pairs, sign=1):
    """Add sign * c into terms[k] for every (k, c) of pairs, in place; a
    zero c is skipped and a key whose coefficient cancels is dropped.  A
    combination-valued coefficient is copied (``v + c``) the first time
    its key repeats and grown in place after that: only the copies this
    call made, the keys in ``grown``, are ever written into."""
    get = terms.get
    grown = ()
    for k, c in pairs:
        if sign < 0:
            c = -c
        v = get(k)
        if v is None:
            if c:
                terms[k] = c
        elif k in grown and c._same_shape(v):
            _accumulate(v.terms, c.terms.items())
            if not v.terms:
                del terms[k]
                grown.discard(k)
        else:
            total = v + c
            if not total:
                del terms[k]
            else:
                terms[k] = total
                if isinstance(total, LinComb):
                    if not grown:
                        grown = set()
                    grown.add(k)


def collect(pairs, terms=None):
    """The terms of the sum of (key, coefficient) pairs: coefficients of
    equal keys added, zero sums dropped.  Given ``terms``, a dict the
    caller owns, the pairs are added into it in place."""
    if terms is None:
        terms = {}
    _accumulate(terms, pairs)
    return terms


def linear(x, image, zero):
    """The linear map sending each key k of x to image(k); ``zero`` is
    the zero of the target, whose shape the result takes and is checked
    against."""
    return zero._new(collect((k, v * c) for key, c in x.terms.items()
                             for k, v in image(key).terms.items()))._check()


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

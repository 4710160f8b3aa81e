"""Tensor powers of the bracket algebras, and the word algebra underneath
the symbol map.

Tensor: exact n-fold tensors whose slots hold monomials of Elements.
WordSum: Q-combinations of words in the weight-one letters u_i, v_{i,j},
with the shuffle product, deconcatenation, the canonical projection onto
indecomposables, and the symbol map (maximal iterated coproduct).
"""

import functools
from fractions import Fraction
from types import MappingProxyType

from .algebra import (
    H,
    LOG,
    Element,
    monomial_weight,
    mul_monomials,
)
from .lincomb import LinComb, collect, linear, memo


def _slotwise(m1, m2):
    return tuple(mul_monomials(a, b) for a, b in zip(m1, m2))


class Tensor(LinComb):
    """A Q-linear combination of pure tensors of monomials."""

    __slots__ = ("sorts",)

    _shape = ("sorts",)
    _mul_key = staticmethod(_slotwise)

    def __init__(self, sorts, terms=None):
        self.sorts = tuple(sorts)
        self._init_terms(terms)

    @property
    def arity(self):
        return len(self.sorts)

    @staticmethod
    def zero(sorts):
        return Tensor(sorts)

    @staticmethod
    def of(*elements):
        """The pure tensor e_1 (x) ... (x) e_n, expanded multilinearly."""
        terms = {(): 1}
        for e in elements:
            terms = {mons + (mon,): c * c2 for mons, c in terms.items()
                     for mon, c2 in e.terms.items()}
        return Tensor([e.sort for e in elements], terms)

    # kept in the class namespace: operator tracing (perfbench/tracer.py)
    # wraps them per class
    __mul__ = __rmul__ = LinComb.__mul__

    def weight_profiles(self):
        return sorted({tuple(monomial_weight(m) for m in mons)
                       for mons in self.terms})

    def component(self, profile):
        """The piece whose slots have the given weights."""
        profile = tuple(profile)
        return self._new({mons: c for mons, c in self.terms.items()
                          if tuple(monomial_weight(m) for m in mons) == profile})

    def map_slot(self, k, fn, sort=None):
        """Apply a linear map (given on monomials, returning Elements) in
        slot k."""
        new_sorts = list(self.sorts)
        if sort is not None:
            new_sorts[k] = sort
        return Tensor(new_sorts)._new(collect(
            (mons[:k] + (mon,) + mons[k + 1:], c * c2)
            for mons, c in self.terms.items()
            for mon, c2 in fn(mons[k]).terms.items()))

    def expand_slot(self, k, fn):
        """Replace slot k via a map from monomials to Tensors (splicing the
        result's slots in place of slot k)."""
        if not self.terms:
            raise ValueError("cannot expand a slot of the zero tensor")
        images = [(mons, c, fn(mons[k])) for mons, c in self.terms.items()]
        sorts = self.sorts[:k] + images[0][2].sorts + self.sorts[k + 1:]
        return Tensor(sorts)._new(collect(
            (mons[:k] + mid + mons[k + 1:], c * c2)
            for mons, c, img in images for mid, c2 in img.terms.items()))

    def contract(self, sort):
        """Multiply all slots together into a single Element."""
        return Element(sort)._new(collect(
            (functools.reduce(mul_monomials, mons, ()), c)
            for mons, c in self.terms.items()))._check()

    def __repr__(self):
        if not self.terms:
            return "<tensor 0>"
        bits = []
        for mons, c in sorted(self.terms.items(),
                              key=lambda mc: tuple(map(str, mc[0]))):
            slot = " (x) ".join("1" if m == () else
                                " ".join(str(g) for g in m) for m in mons)
            bits.append("%s [%s]" % (c, slot))
        return "<tensor %s>" % " + ".join(bits)


# ---------------------------------------------------------------------------
# weight-one letters

def u_(i):
    return ("u", int(i))


def v_(i, j):
    return ("v", int(i), int(j))


def uv_key(sym):
    """Total order on letters: all u_i before all v_{i,j}, each by index."""
    if sym[0] == "u":
        return (0, sym[1], sym[1])
    return (1, sym[1], sym[2])


def weight_one_letters(g):
    """Expand a weight-one generator over the letter basis.

    [x_i]_0 = u_i and [x_{i -> j+1}]_1 = -v_{i,j}.
    """
    if g.kind == LOG:
        return {u_(g.indices[0]): 1}
    if g.weight == 1 and not g.inverted:
        a, b = g.indices
        return {v_(a, b - 1): -1}
    raise ValueError("not a regular weight-one generator: %s" % (g,))


class WordSum(LinComb):
    """A Q-linear combination of words in the letters; * is shuffle."""

    __slots__ = ()

    def __init__(self, terms=None):
        self._init_terms(terms)

    @staticmethod
    def unit():
        return WordSum({(): 1})

    def _mul(self, other):
        return self._new(collect(
            (w, c1 * c2 * mult)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
            for w, mult in shuffle_words(w1, w2).items()))

    def append_letter(self, letter):
        return self._new({w + (letter,): c for w, c in self.terms.items()})

    def prepend_letter(self, letter):
        return self._new({(letter,) + w: c for w, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "<words 0>"
        def wstr(w):
            return "|".join("%s%s" % (s[0], ",".join(map(str, s[1:])))
                            for s in w) if w else "1"
        return "<words %s>" % " + ".join(
            "%s %s" % (c, wstr(w)) for w, c in sorted(self.terms.items()))


@memo
def shuffle_words(w1, w2):
    """All interleavings of w1 and w2 with multiplicity, as a read-only
    mapping from word to multiplicity."""
    if not w1 or not w2:
        return MappingProxyType({w1 + w2: 1})
    out = {}
    for w, m in shuffle_words(w1[1:], w2).items():
        k = (w1[0],) + w
        out[k] = out.get(k, 0) + m
    for w, m in shuffle_words(w1, w2[1:]).items():
        k = (w2[0],) + w
        out[k] = out.get(k, 0) + m
    return MappingProxyType(out)


def deconcatenate(word):
    """All ways to cut the word in two, including the empty ends."""
    return [(word[:k], word[k:]) for k in range(len(word) + 1)]


# ---------------------------------------------------------------------------
# projection onto indecomposables

@memo
def _pi_word(w):
    n = len(w)
    if n <= 1:
        return WordSum({w: 1}).frozen()
    left = _pi_word(w[:-1]).append_letter(w[-1])
    right = _pi_word(w[1:]).append_letter(w[0])
    return ((left - right) * Fraction(n - 1, n)).frozen()


def project_pi(ws):
    """The canonical projection killing all nontrivial shuffle products."""
    return linear(ws, _pi_word, WordSum())


# ---------------------------------------------------------------------------
# the symbol map

def _letters_of_monomial(mon):
    if len(mon) != 1:
        raise ValueError("weight-one slot is not a single generator")
    return weight_one_letters(mon[0])


@memo
def _symbol_monomial(mon):
    n = monomial_weight(mon)
    if n == 0:
        out = WordSum.unit()
    elif n == 1:
        out = WordSum({(sym,): c for sym, c in _letters_of_monomial(mon).items()})
    else:
        from .coproduct import coproduct as _coproduct
        t = _coproduct(Element.from_monomial(mon, H)).component((1, n - 1))
        out = WordSum()._new(collect(
            ((sym,) + w, c * cl * cw)
            for (ml, mr), c in t.terms.items()
            for sym, cl in _letters_of_monomial(ml).items()
            for w, cw in _symbol_monomial(mr).terms.items()))
    return out.frozen()


def symbol(e):
    """Maximal iterated coproduct, peeling weight-one pieces off the left."""
    if e.sort != H:
        raise ValueError("the symbol is defined on the plain sort only")
    return linear(e, _symbol_monomial, WordSum())

"""Tensor powers of the bracket algebras, and the word algebra underneath
the symbol map.

Tensor: exact n-fold tensors whose slots hold monomials of Elements.
WordSum: Q-combinations of words in the weight-one letters u_i, v_{i,j},
with the shuffle product, deconcatenation and the canonical projection
onto indecomposables.

The symbol map (maximal iterated coproduct) is computed from the
weight-lowering derivation ``derive``, the (n-1, 1) piece of the
coproduct written in letters: by coassociativity the symbol peels one
letter at a time off the right of a word, so it never runs the bar
coproduct or the inversion map.
"""

import functools
from fractions import Fraction
from itertools import chain
from types import MappingProxyType

from .algebra import (
    H,
    LOG,
    Element,
    gen_elem,
    li,
    log,
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

    def _new(self, terms):
        out = object.__new__(Tensor)
        out.sorts = self.sorts
        out.terms = terms
        return out

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

    def _slot_images(self, k, fn):
        """fn of each distinct monomial in slot k, computed once."""
        slot = dict.fromkeys(mons[k] for mons in self.terms)
        return {mon: fn(mon) for mon in slot}

    def map_slot(self, k, fn, sort=None):
        """Apply a linear map (given on monomials, returning Elements) in
        slot k."""
        new_sorts = list(self.sorts)
        if sort is not None:
            new_sorts[k] = sort
        images = self._slot_images(k, fn)
        return Tensor(new_sorts)._new(collect(
            (mons[:k] + (mon,) + mons[k + 1:], c * c2)
            for mons, c in self.terms.items()
            for mon, c2 in images[mons[k]].terms.items()))

    def expand_slot(self, k, fn):
        """Replace slot k via a map from monomials to Tensors (splicing the
        result's slots in place of slot k)."""
        if not self.terms:
            raise ValueError("cannot expand a slot of the zero tensor")
        images = self._slot_images(k, fn)
        sorts = (self.sorts[:k] + next(iter(images.values())).sorts
                 + self.sorts[k + 1:])
        return Tensor(sorts)._new(collect(
            (mons[:k] + mid + mons[k + 1:], c * c2)
            for mons, c in self.terms.items()
            for mid, c2 in images[mons[k]].terms.items()))

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


def grouplike_ok(keys, entry, cop):
    """The matrix M[i][j] = entry(i, j) on keys is grouplike under the
    coproduct cop: cop(M[i][j]) == sum over k of M[k][j] (x) M[i][k]."""
    for i in keys:
        for j in keys:
            lhs = cop(entry(i, j))
            if lhs != Tensor.zero(lhs.sorts).sum(
                    Tensor.of(entry(k, j), entry(i, k)) for k in keys):
                return False
    return True


# ---------------------------------------------------------------------------
# weight-one letters
#
# A letter is a tuple, so letters sort by tuple order: all u_i before all
# v_{i,j}, each by its indices.

def u_(i):
    return ("u", int(i))


def v_(i, j):
    return ("v", int(i), int(j))


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


def letter_generator(sym):
    """The (g, c) with weight_one_letters(g) == {sym: c}."""
    if sym[0] == "u":
        return log(sym[1]), 1
    return li((sym[1], sym[2] + 1), (1,)), -1


class WordSum(LinComb):
    """A Q-linear combination of words in the letters; * is shuffle."""

    __slots__ = ()

    def __init__(self, terms=None):
        self._init_terms(terms)

    def _new(self, terms):
        out = object.__new__(WordSum)
        out.terms = terms
        return out

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
    return MappingProxyType(collect(chain(
        (((w1[0],) + w, m) for w, m in shuffle_words(w1[1:], w2).items()),
        (((w2[0],) + w, m) for w, m in shuffle_words(w1, w2[1:]).items()))))


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
# the weight-lowering derivation
#
# The (n-1, 1) piece of the coproduct, written in letters.  Values are
# dicts mapping a letter (u_i or v_{i,j}) to the Element multiplying its
# differential.

def _dlog_window(a, b):
    return [(u_(r), 1) for r in range(a, b)]


def _dli1_window(a, b):
    return [(v_(a, b - 1), -1)]


def _derive_generator(g):
    if g.inverted:
        raise ValueError("the derivation is defined on regular brackets only")
    if g.kind == LOG:
        return {u_(g.indices[0]): Element.one(H)}
    p = g.indices
    n = g.weights
    d = len(n)
    pairs = []
    # lower one weight by differentiating a letter's log
    for k in range(d):
        if n[k] >= 2:
            e = gen_elem(li(p, n[:k] + (n[k] - 1,) + n[k + 1:]), H)
            pairs += [(sym, e * c) for sym, c in _dlog_window(p[k], p[k + 1])]
    # drop a weight-one head letter
    if n[0] == 1:
        e = gen_elem(li(p[1:], n[1:]), H) if d > 1 else Element.one(H)
        pairs += [(sym, e * c) for sym, c in _dli1_window(p[0], p[1])]
    # absorb a weight-one letter into its left neighbour
    for k in range(1, d):
        if n[k] == 1:
            e = gen_elem(li(p[:k] + p[k + 1:], n[:k] + n[k + 1:]), H)
            pairs += [(sym, e * c) for sym, c in _dli1_window(p[k], p[k + 1])]
    # absorb a weight-one letter into its right neighbour (with both the
    # letter's own differentials, and an overall minus sign)
    for k in range(0, d - 1):
        if n[k] == 1:
            e = gen_elem(li(p[:k + 1] + p[k + 2:], n[:k] + n[k + 1:]), H)
            pairs += [(sym, e * (-c)) for sym, c in
                      _dli1_window(p[k], p[k + 1]) + _dlog_window(p[k], p[k + 1])]
    return collect(pairs)


def derive(e):
    """The weight-lowering derivation, extended by the Leibniz rule."""
    if e.sort != H:
        raise ValueError("the derivation lives on the plain sort")

    def pairs():
        for mon, c in e.terms.items():
            for i, g in enumerate(mon):
                rest = Element.from_monomial(mon[:i] + mon[i + 1:], H, c)
                for sym, elem in _derive_generator(g).items():
                    yield sym, rest * elem

    return collect(pairs())


# ---------------------------------------------------------------------------
# the symbol map

@memo
def _symbol_monomial(mon):
    if not mon:
        return WordSum.unit().frozen()
    return WordSum()._new(collect(
        (w + (sym,), c * cw)
        for sym, e in derive(Element.from_monomial(mon, H)).items()
        for m, c in e.terms.items()
        for w, cw in _symbol_monomial(m).terms.items())).frozen()


def symbol(e):
    """Maximal iterated coproduct.  By coassociativity it is fixed by the
    (n-1, 1) piece, which is the derivation: symbol(m) is the sum over
    letters s of symbol(d_s m) with s appended to each word."""
    if e.sort != H:
        raise ValueError("the symbol is defined on the plain sort only")
    return linear(e, _symbol_monomial, WordSum())

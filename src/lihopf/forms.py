"""Polynomials and differential forms in the letter variables.

The letters are u_i (one per variable of the ambient depth) and v_{i,j}
(one per window i..j).  A Poly is an exact polynomial in these commuting
letters; a Form of degree k is a combination of basis k-covectors
d(letter) wedge ... with Poly coefficients.  On top of that sit:

  * the holomorphic one-form attached to a word (the image of the symbol),
  * pullbacks along contraction sequences,
  * the embeddings between weight-at-most-one Elements and linear Polys,
  * a floating-point layer that realizes the letters as actual logarithms
    at random sample points and evaluates forms on tangent vectors there.

All algebra is exact; floats appear only in the sampling layer.
"""

import cmath
import itertools
import math
import random
from fractions import Fraction

from .algebra import Element, H
from .lincomb import LinComb, collect, extend
from .tensor import (WordSum, letter_generator, symbol, u_, uv_key, v_,
                     weight_one_letters)


def _poly_key(m1, m2):
    return tuple(sorted(m1 + m2, key=uv_key))


class Poly(LinComb):
    """Exact polynomial in the letters; monomials are sorted tuples."""

    __slots__ = ()

    _mul_key = staticmethod(_poly_key)

    def __init__(self, terms=None):
        self._init_terms(terms)

    @staticmethod
    def zero():
        return Poly()

    @staticmethod
    def constant(c):
        return Poly({(): c})

    @staticmethod
    def one():
        return Poly.constant(1)

    @staticmethod
    def variable(sym):
        return Poly({(sym,): 1})

    def constant_term(self):
        return self.terms.get((), 0)

    def _lift(self, c):
        return Poly.constant(c)

    def substitute(self, images):
        """Replace each letter by a Poly (letters not named stay put)."""
        return extend(self, lambda sym: images[sym] if sym in images
                      else Poly.variable(sym), Poly.one())

    def derivative(self, sym):
        def drop(mono):
            rest = list(mono)
            rest.remove(sym)
            return tuple(rest)
        return self._new(collect((drop(mono), c * mono.count(sym))
                                 for mono, c in self.terms.items()
                                 if sym in mono))

    def letters(self):
        out = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def evaluate(self, values):
        total = 0j
        for mono, c in self.terms.items():
            acc = complex(c)
            for sym in mono:
                acc *= values[sym]
            total += acc
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        def mstr(m):
            return "*".join("%s%s" % (s[0], ",".join(map(str, s[1:])))
                            for s in m) if m else "1"
        return " + ".join("%s %s" % (c, mstr(m))
                          for m, c in sorted(self.terms.items()))


def _merge_basis(b1, b2):
    """Concatenate two ascending basis tuples; None if a letter repeats,
    else (sign, merged)."""
    merged = list(b1 + b2)
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(merged)):
        j = i
        while j > 0 and uv_key(merged[j - 1]) > uv_key(merged[j]):
            merged[j - 1], merged[j] = merged[j], merged[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(merged, merged[1:]):
        if a == b:
            return None
    return sign, tuple(merged)


class Form(LinComb):
    """Differential form of fixed degree with Poly coefficients."""

    __slots__ = ("degree",)

    _shape = ("degree",)
    _scalars = (Poly, int, Fraction)

    def __init__(self, degree, terms=None):
        self.degree = degree
        self._init_terms(terms)

    @staticmethod
    def _coerce(p):
        return p if isinstance(p, Poly) else Poly.constant(p)

    @staticmethod
    def zero(degree):
        return Form(degree)

    @staticmethod
    def d_letter(sym):
        return Form(1, {(sym,): Poly.one()})

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def wedge(self, other):
        return Form(self.degree + other.degree)._new(collect(
            (hit[1], p1 * p2 * hit[0])
            for b1, p1 in self.terms.items()
            for b2, p2 in other.terms.items()
            if (hit := _merge_basis(b1, b2)) is not None))

    def exterior_d(self):
        return Form(self.degree + 1)._new(collect(
            (hit[1], p.derivative(sym) * hit[0])
            for basis, p in self.terms.items()
            for sym in p.letters()
            if (hit := _merge_basis((sym,), basis)) is not None))

    def evaluate(self, values, tangents):
        """Evaluate on a point (letter values) and ``degree`` tangents."""
        if len(tangents) != self.degree:
            raise ValueError("need exactly %d tangent vectors" % self.degree)
        total = 0j
        for basis, p in self.terms.items():
            coeff = p.evaluate(values)
            det = 0j
            for perm in itertools.permutations(range(self.degree)):
                sgn = 1
                for i in range(len(perm)):
                    for j in range(i + 1, len(perm)):
                        if perm[i] > perm[j]:
                            sgn = -sgn
                prod = complex(sgn)
                for i, pi in enumerate(perm):
                    prod *= tangents[pi].get(basis[i], 0j)
                det += prod
            total += coeff * det
        return total

    def __repr__(self):
        if not self.terms:
            return "<form 0>"
        def bstr(b):
            return "^".join("d%s%s" % (s[0], ",".join(map(str, s[1:])))
                            for s in b)
        return "<form %s>" % " + ".join(
            "(%s) %s" % (p, bstr(b)) for b, p in sorted(self.terms.items()))


# ---------------------------------------------------------------------------
# the holomorphic one-form of a word

def w_tensor(ws):
    """The canonical one-form of a word sum:

    w(f_1 (x) ... (x) f_n) = (-1)^(n+1)/n! *
        sum_i (-1)^(i-1) binom(n-1, i-1) f_1...df_i...f_n
    """
    if isinstance(ws, tuple):
        ws = WordSum({ws: 1})

    def pieces():
        for word, c in ws.terms.items():
            n = len(word)
            pref = Fraction((-1) ** (n + 1), math.factorial(n)) * c
            for i in range(n):
                rest = tuple(sorted(word[:i] + word[i + 1:], key=uv_key))
                coeff = pref * ((-1) ** i) * math.comb(n - 1, i)
                yield (word[i],), Poly({rest: coeff})

    return Form(1)._new(collect(pieces()))


def eta_tensor(ws):
    """eta(f_1 (x) ... (x) f_n) = (-1)^(n+1)/(n-1)! f_2...f_n df_1."""
    if isinstance(ws, tuple):
        ws = WordSum({ws: 1})

    def pieces():
        for word, c in ws.terms.items():
            n = len(word)
            if n:
                rest = tuple(sorted(word[1:], key=uv_key))
                coeff = Fraction((-1) ** (n + 1), math.factorial(n - 1)) * c
                yield (word[0],), Poly({rest: coeff})

    return Form(1)._new(collect(pieces()))


def w_element(e):
    """The one-form of an Element (via its symbol); kills all products."""
    return w_tensor(symbol(e))


# ---------------------------------------------------------------------------
# pullbacks along contraction sequences

def _pullback_images(c):
    """Letter images under the contraction (i_1, ..., i_{m+1})."""
    m = len(c) - 1
    images = {}
    dimages = {}
    for s in range(1, m + 1):
        lo, hi = c[s - 1], c[s]
        images[u_(s)] = sum((Poly.variable(u_(r)) for r in range(lo, hi)),
                            Poly.zero())
        dimages[u_(s)] = sum((Form.d_letter(u_(r)) for r in range(lo, hi)),
                             Form.zero(1))
        for t in range(s, m + 1):
            sym = v_(s, t)
            tgt = v_(c[s - 1], c[t] - 1)
            images[sym] = Poly.variable(tgt)
            dimages[sym] = Form.d_letter(tgt)
    return images, dimages


def pullback_poly(c, p):
    images, _ = _pullback_images(tuple(c))
    return p.substitute(images)


def pullback_form(c, f):
    images, dimages = _pullback_images(tuple(c))
    out = Form(f.degree)
    for basis, p in f.terms.items():
        piece = Form(0, {(): p.substitute(images)})
        for sym in basis:
            piece = piece.wedge(dimages[sym])
        out = out + piece
    return out


# ---------------------------------------------------------------------------
# embeddings between linear Polys and weight-at-most-one Elements

def _letter_of_generator(g):
    return Poly({(sym,): c for sym, c in weight_one_letters(g).items()})


def element_to_poly(e):
    """[x_i]_0 -> u_i and [window]_1 -> -v; defined when every generator
    involved has weight one."""
    return extend(e, _letter_of_generator, Poly.one())


def poly_to_element(p, sort=H):
    def generator_of_letter(sym):
        g, c = letter_generator(sym)
        return Element.from_generator(g, sort) * c

    return extend(p, generator_of_letter, Element.one(sort))


# ---------------------------------------------------------------------------
# numeric layer: letters as actual logarithms

def all_letters(dim):
    syms = [u_(r) for r in range(1, dim + 1)]
    syms += [v_(i, j) for i in range(1, dim + 1) for j in range(i, dim + 1)]
    return syms


def sample_point(dim, seed=0):
    """Random letter values satisfying exp(sum u) + exp(v) = 1 exactly
    (up to rounding) on every window, away from the singular locus."""
    rng = random.Random(seed)
    while True:
        us = {r: complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
              for r in range(1, dim + 1)}
        values = {u_(r): us[r] for r in us}
        ok = True
        for i in range(1, dim + 1):
            for j in range(i, dim + 1):
                s = sum(us[r] for r in range(i, j + 1))
                arg = 1 - cmath.exp(s)
                if abs(arg) < 1e-6 or abs(cmath.exp(s)) < 1e-6:
                    ok = False
                    break
                values[v_(i, j)] = cmath.log(arg)
            if not ok:
                break
        if ok:
            return values


def point_residual(values, dim):
    """Largest violation of the defining constraints at the point."""
    worst = 0.0
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            s = sum(values[u_(r)] for r in range(i, j + 1))
            worst = max(worst, abs(cmath.exp(s) + cmath.exp(values[v_(i, j)]) - 1))
    return worst


def tangent_basis(values, dim):
    """Tangent vectors of the constraint variety: the k-th moves u_k with
    unit speed and drags every v_{i,j} with i <= k <= j along."""
    out = []
    for k in range(1, dim + 1):
        xi = {u_(r): (1 + 0j if r == k else 0j) for r in range(1, dim + 1)}
        for i in range(1, dim + 1):
            for j in range(i, dim + 1):
                if i <= k <= j:
                    s = sum(values[u_(r)] for r in range(i, j + 1))
                    xi[v_(i, j)] = -cmath.exp(s) / cmath.exp(values[v_(i, j)])
                else:
                    xi[v_(i, j)] = 0j
        out.append(xi)
    return out

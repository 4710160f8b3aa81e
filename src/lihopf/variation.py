"""Variation matrices.

For a weight vector n, collect the weight vectors of every generator that
can appear as a left tensor slot when the coproduct hits the generator of
n (the zero vector stands for the unit).  The matrix V defined by

    coproduct(g_v) = sum over w of  g_w (x) V[v][w]

is unit lower triangular in the precede order, comultiplicative, and its
weight-one part drives everything differential: Omega (the matrix of
letter polynomials), omega = d Omega, the one-form matrix of each weight
graded piece, the gauge-transformed connection omega-hat and the
gauge-transformed fundamental solution V-hat.

The componentwise key enumeration is not always closed under taking left
slots (the smallest failure is the weight vector (1, 2)); build_V grows
the key set to closure.

Every matrix is a ``Matrix`` of its nonzero entries, keyed by (v, w) pairs
of weight vectors; ``rows``, the dense view with zeros, is for output.
"""

import itertools
import math
from fractions import Fraction
from types import MappingProxyType

from .algebra import (Element, H, HBAR, ZERO_VECTOR, gen_elem,
                      generator_to_vector, precede_key, vector_to_generator)
from .coproduct import antipode, coproduct_generators
from .forms import Form, Poly, element_to_poly, poly_to_element, w_element
from .lincomb import collect, memo
from .tensor import derive


def enumerate_keys(nvec):
    """Componentwise-bounded weight vectors of the same dimension, the
    zero vector written as (), sorted by the precede order."""
    keys = [ZERO_VECTOR]
    for v in itertools.product(*(range(n + 1) for n in nvec)):
        if any(v):
            keys.append(v)
    keys.sort(key=precede_key)
    return keys


def _left_vector(lmon):
    if len(lmon) > 1:
        raise AssertionError("left slot is a product: %r" % (lmon,))
    return ZERO_VECTOR if not lmon else generator_to_vector(lmon[0])


def _rows_of(keys, sort):
    """{(v, w): read-only Element} over the nonzero entries of the rows of
    keys but the unit's; the coproducts of the keys' generators are one
    batch."""
    gens = {v: vector_to_generator(v) for v in keys if v != ZERO_VECTOR}
    tensors = coproduct_generators(gens.values(), sort)
    entries = {}
    for v, g in gens.items():
        row = collect((_left_vector(lmon),
                       Element.from_monomial(rmon, sort, c))
                      for (lmon, rmon), c in tensors[g].terms.items())
        entries.update(((v, w), e.frozen()) for w, e in row.items())
    return entries


class Matrix:
    """Immutable, over keys in precede order: every pair (v, w) missing
    from ``entries`` holds ``zero``.  Each operation visits nonzero entries
    only and sums through ``collect``, which drops what cancels."""

    __slots__ = ("keys", "zero", "entries")

    def __init__(self, keys, zero, entries):
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "entries", MappingProxyType(entries))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % self.__class__.__name__)

    @staticmethod
    def identity(keys, one):
        return Matrix(keys, one.scale(0), {(k, k): one for k in keys})

    def entry(self, v, w):
        return self.entries.get((v, w), self.zero)

    @property
    def rows(self):
        """Every entry, zeros included, row by row in key order: the
        dense view that output renders."""
        get, zero = self.entries.get, self.zero
        return tuple(tuple(get((v, w), zero) for w in self.keys)
                     for v in self.keys)

    def map(self, fn):
        """The matrix of fn(entry) for a linear fn, whose zero is
        fn(zero)."""
        return Matrix(self.keys, fn(self.zero),
                      collect((k, fn(x)) for k, x in self.entries.items()))

    def combine(self, parts):
        """self plus c * M for every (M, c) of parts, each entry summed
        once; the result has self's keys and zero."""
        return Matrix(self.keys, self.zero, collect(itertools.chain(
            self.entries.items(), ((k, x.scale(c)) for M, c in parts
                                   for k, x in M.entries.items()))))

    def by_row(self):
        """{v: [(w, entry), ...]} over the nonzero entries."""
        out = {}
        for (v, w), x in self.entries.items():
            out.setdefault(v, []).append((w, x))
        return out

    def __mul__(self, other):
        """The product, row by row (Gustavson): each nonzero (v, r) of
        self meets the nonzero entries of row r of other."""
        right = other.by_row()
        return Matrix(self.keys, self.zero * other.zero, collect(
            ((v, w), a * b) for (v, r), a in self.entries.items()
            for w, b in right.get(r, ())))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.keys == other.keys
                and self.entries == other.entries)


class VariationMatrix(Matrix):
    """Immutable: ``build_V`` hands one matrix to every caller."""

    __slots__ = ("nvec", "sort")

    def __init__(self, nvec, sort, keys, entries):
        object.__setattr__(self, "nvec", tuple(nvec))
        object.__setattr__(self, "sort", sort)
        super().__init__(keys, Element.zero(sort).frozen(), entries)

    def block_boundaries(self):
        """Cumulative key counts per total weight level."""
        counts = {}
        for k in self.keys:
            counts[sum(k)] = counts.get(sum(k), 0) + 1
        out = []
        run = 0
        for wt in sorted(counts):
            run += counts[wt]
            out.append(run)
        return out

    def __repr__(self):
        return "<variation matrix %s over %d keys, sort %s>" % (
            self.nvec, len(self.keys), self.sort)


def build_V(nvec, sort=HBAR):
    """The variation matrix of the weight vector nvec in the given sort,
    its key set grown to closure under left slots."""
    return _build_V(tuple(nvec), sort)


@memo
def _build_V(nvec, sort):
    # each round of rows is one batch: the keys first enumerated, then the
    # left slots not yet known; read-only entries let callers share it
    entries = {(ZERO_VECTOR, ZERO_VECTOR): Element.one(sort).frozen()}
    known = set()
    keys = enumerate_keys(nvec)
    while keys:
        entries.update(_rows_of(keys, sort))
        known.update(keys)
        keys = list(dict.fromkeys(w for _, w in entries if w not in known))
    return VariationMatrix(nvec, sort, sorted(known, key=precede_key),
                           entries)


def nilpotent_exp(M, one, negate=False):
    """exp(M) (or exp(-M)) for a strictly triangular matrix; the series
    stops on its own once the power vanishes."""
    sign = -1 if negate else 1
    powers, power = [], M
    for k in range(1, len(M.keys) + 1):
        if not power.entries:
            break
        powers.append((power, Fraction(sign ** k, math.factorial(k))))
        power = power * M
    return Matrix.identity(M.keys, one).combine(powers)


def _bracket(A, B):
    """The commutator AB - BA."""
    return (A * B).combine([(B * A, -1)])


# ---------------------------------------------------------------------------
# structural laws

def antipode_ok(V):
    """sum over w of S(V[w][z]) * V[v][w] == delta(v, z): V times S(V) is
    the identity."""
    return V * V.map(antipode) == Matrix.identity(V.keys,
                                                   Element.one(V.sort))


# ---------------------------------------------------------------------------
# the differential layer (plain sort only)

def omega_matrix(V):
    """Omega: the weight-one parts as letter polynomials."""
    if V.sort != H:
        raise ValueError("the letter polynomials need the plain sort")
    return V.map(lambda e: element_to_poly(e.weight_part(1)))


def omega_form_matrix(V):
    """omega = d Omega, entry by entry."""
    return omega_matrix(V).map(lambda p: Form(0, {(): p}).exterior_d())


def _flat(M, conn):
    """d M == conn M with d the letter-basis derivation: for every entry,
    derive(M[v][w]) is the sum over r of conn[v][r] M[r][w], read letter
    by letter."""
    right = M.by_row()
    lhs = {((v, w), sym): e for (v, w), x in M.entries.items()
           for sym, e in derive(x).items()}
    rhs = collect((((v, w), sym), e * x) for (v, r), f in conn.entries.items()
                  for (sym,), e in [(b, poly_to_element(p, H))
                                    for b, p in f.terms.items()]
                  for w, x in right.get(r, ()))
    return lhs == rhs


def derivation_ok(V):
    """dV == omega V with d the letter-basis derivation."""
    return _flat(V, omega_form_matrix(V))


def w_of_V(V, n):
    """One-form matrix of the weight-n graded piece, entry by entry."""
    return V.map(lambda e: w_element(e.weight_part(n)))


def w_closed_form(V, n):
    """(1/n!) sum over k+l=n-1 of (-1)^k binom(n-1,k) Omega^k omega Omega^l,
    the paper's closed form of ``w_of_V``; the forms suite checks that the
    two agree."""
    om = omega_matrix(V)
    omf = omega_form_matrix(V)
    pows = [Matrix.identity(V.keys, Poly.one())]
    for _ in range(n - 1):
        pows.append(pows[-1] * om)
    return Matrix(V.keys, Form(1), {}).combine(
        (pows[k] * omf * pows[n - 1 - k],
         Fraction((-1) ** k * math.comb(n - 1, k), math.factorial(n)))
        for k in range(n))


def omega_hat(V):
    """The gauge-transformed connection sum((n-1) w(V_n), n >= 2)."""
    return Matrix(V.keys, Form(1), {}).combine(
        (w_of_V(V, n), n - 1) for n in range(2, sum(V.nvec) + 1))


def v_hat(V):
    """V-hat = exp(-Omega) V, an Element matrix."""
    om_elem = omega_matrix(V).map(lambda p: poly_to_element(p, H))
    return nilpotent_exp(om_elem, Element.one(H), negate=True) * V


def hat_derivation_ok(V):
    """d V-hat == omega-hat V-hat."""
    return _flat(v_hat(V), omega_hat(V))


def chain_map_ok(V):
    """d w(V_n) + sum over p+q=n of w(V_p) ^ w(V_q) == 0."""
    w = {n: w_of_V(V, n) for n in range(1, sum(V.nvec) + 1)}
    return not any(w[n].map(Form.exterior_d).combine(
        (w[p] * w[n - p], 1) for p in range(1, n)).entries for n in w)


def curvature_identity_ok(V):
    """d omega-hat minus omega-hat ^ omega-hat equals the conjugated
    curvature -exp(-Omega) (omega ^ omega) exp(Omega)."""
    om = omega_matrix(V)
    omf = omega_form_matrix(V)
    oh = omega_hat(V)
    conj = (nilpotent_exp(om, Poly.one(), negate=True) * (omf * omf)
            * nilpotent_exp(om, Poly.one()))
    return not oh.map(Form.exterior_d).combine(
        [(oh * oh, -1), (conj, 1)]).entries


def recurrence_ok(V):
    """(n+1) w(V_{n+1}) == [w(V_n), Omega] for every n below the top: the
    paper's (n+1)! w(V_{n+1}) == [n! w(V_n), Omega] divided by n!."""
    om = omega_matrix(V)
    return all(w_of_V(V, n + 1).map(lambda f: f.scale(n + 1))
               == _bracket(w_of_V(V, n), om) for n in range(1, sum(V.nvec)))


def corollary_form_ok(nvec):
    """w(g_n) recovered from the commutator slice at (row n, column 0)."""
    V = build_V(nvec, H)
    n = sum(nvec)
    if n < 2:
        return True
    acc = _bracket(w_of_V(V, n - 1), omega_matrix(V)).entry(tuple(nvec),
                                                           ZERO_VECTOR)
    want = w_element(gen_elem(vector_to_generator(tuple(nvec))))
    return acc == want * n

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
    """{key: row} for every key of keys, each row a map column-key ->
    read-only Element; the coproducts of the keys' generators are one
    batch."""
    gens = {v: vector_to_generator(v) for v in keys if v != ZERO_VECTOR}
    tensors = coproduct_generators(gens.values(), sort)
    rows = {}
    for v in keys:
        if v == ZERO_VECTOR:
            rows[v] = {ZERO_VECTOR: Element.one(sort).frozen()}
            continue
        row = collect((_left_vector(lmon),
                       Element.from_monomial(rmon, sort, c))
                      for (lmon, rmon), c in tensors[gens[v]].terms.items())
        rows[v] = {w: e.frozen() for w, e in row.items()}
    return rows


class VariationMatrix:
    """Immutable: ``build_V`` hands one matrix to every caller."""

    __slots__ = ("nvec", "sort", "keys", "index", "rows")

    def __init__(self, nvec, sort, keys, rows):
        object.__setattr__(self, "nvec", tuple(nvec))
        object.__setattr__(self, "sort", sort)
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "index", MappingProxyType(
            {k: i for i, k in enumerate(keys)}))
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("VariationMatrix is immutable")

    def size(self):
        return len(self.keys)

    def entry(self, v, w):
        return self.rows[self.index[v]][self.index[w]]

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
    # left slots not yet known, until none is missing
    known = {}
    keys = enumerate_keys(nvec)
    while keys:
        known.update(_rows_of(keys, sort))
        keys = list(dict.fromkeys(w for row in known.values() for w in row
                                  if w not in known))
    keys = sorted(known, key=precede_key)
    # rows are tuples of read-only entries: the cached matrix is shared by
    # every caller
    zero = Element.zero(sort).frozen()
    rows = tuple(tuple(known[v].get(w, zero) for w in keys) for v in keys)
    return VariationMatrix(nvec, sort, keys, rows)


# ---------------------------------------------------------------------------
# dense matrix helpers (sizes here are tiny)

def matmul(A, B):
    return [[(row[0] * B[0][j]).sum(row[r] * B[r][j]
                                    for r in range(1, len(B)))
             for j in range(len(B[0]))] for row in A]


def _mat_combination(mats, zero, size):
    """The size x size matrix sum of c * M over the (M, c) in mats, each
    entry summed once from zero."""
    return [[zero.sum(M[i][j].scale(c) for M, c in mats)
             for j in range(size)] for i in range(size)]


def mat_scale(A, c):
    return [[a * c for a in row] for row in A]


def mat_is_zero(A):
    return not any(x for row in A for x in row)


def nilpotent_exp(M, one, zero, negate=False):
    """exp(M) (or exp(-M)) for a strictly triangular matrix; the series
    stops on its own once the power vanishes."""
    n = len(M)
    power = [[one if i == j else zero for j in range(n)] for i in range(n)]
    powers = [(power, 1)]
    sign = -1 if negate else 1
    for k in range(1, n + 1):
        power = matmul(power, M)
        if mat_is_zero(power):
            break
        powers.append((power, Fraction(sign ** k, math.factorial(k))))
    return _mat_combination(powers, zero, n)


# ---------------------------------------------------------------------------
# structural laws

def antipode_ok(V):
    """sum over w of S(V[w][z]) * V[v][w] == delta(v, z): V times S(V) is
    the identity."""
    one, zero = Element.one(V.sort), Element.zero(V.sort)
    prod = matmul(V.rows, [[antipode(e) for e in row] for row in V.rows])
    return all(x == (one if v == z else zero)
               for v, row in enumerate(prod) for z, x in enumerate(row))


# ---------------------------------------------------------------------------
# the differential layer (plain sort only)

def omega_matrix(V):
    """Omega: the weight-one parts as letter polynomials."""
    if V.sort != H:
        raise ValueError("the letter polynomials need the plain sort")
    return [[element_to_poly(e.weight_part(1)) for e in row]
            for row in V.rows]


def omega_form_matrix(V):
    """omega = d Omega, entry by entry."""
    return [[Form(0, {(): p}).exterior_d() for p in row]
            for row in omega_matrix(V)]


def _flat(M, conn):
    """d M == conn M with d the letter-basis derivation: for every entry,
    derive(M[i][j]) is the sum over r of conn[i][r] M[r][j], read letter
    by letter."""
    n = len(M)
    coeffs = [[[(basis[0], poly_to_element(p, H))
                for basis, p in f.terms.items()] for f in row]
              for row in conn]
    return all(derive(M[i][j]) == collect((sym, e * M[r][j])
                                          for r in range(n)
                                          for sym, e in coeffs[i][r])
               for i in range(n) for j in range(n))


def derivation_ok(V):
    """dV == omega V with d the letter-basis derivation."""
    return _flat(V.rows, omega_form_matrix(V))


def w_of_V(V, n):
    """One-form matrix of the weight-n graded piece, entry by entry."""
    return [[w_element(e.weight_part(n)) for e in row] for row in V.rows]


def w_closed_form(V, n):
    """(1/n!) sum over k+l=n-1 of (-1)^k binom(n-1,k) Omega^k omega Omega^l,
    the paper's closed form of ``w_of_V``; the forms suite checks that the
    two agree."""
    om = omega_matrix(V)
    omf = omega_form_matrix(V)
    size = V.size()
    pzero, pone = Poly.zero(), Poly.one()
    ident = [[pone if i == j else pzero for j in range(size)]
             for i in range(size)]
    pows = [ident]
    for _ in range(n - 1):
        pows.append(matmul(pows[-1], om))
    return _mat_combination(
        [(matmul(matmul(pows[k], omf), pows[n - 1 - k]),
          Fraction((-1) ** k * math.comb(n - 1, k), math.factorial(n)))
         for k in range(n)], Form(1), size)


def omega_hat(V):
    """The gauge-transformed connection sum((n-1) w(V_n), n >= 2)."""
    return _mat_combination([(w_of_V(V, n), n - 1)
                             for n in range(2, sum(V.nvec) + 1)],
                            Form(1), V.size())


def v_hat(V):
    """V-hat = exp(-Omega) V, an Element matrix."""
    om_elem = [[poly_to_element(p, H) for p in row]
               for row in omega_matrix(V)]
    gauge = nilpotent_exp(om_elem, Element.one(H), Element.zero(H),
                          negate=True)
    return matmul(gauge, V.rows)


def hat_derivation_ok(V):
    """d V-hat == omega-hat V-hat."""
    return _flat(v_hat(V), omega_hat(V))


def chain_map_ok(V):
    """d w(V_n) + sum over p+q=n of w(V_p) ^ w(V_q) == 0."""
    size = V.size()
    w = {n: w_of_V(V, n) for n in range(1, sum(V.nvec) + 1)}
    return not any(w[n][i][j].exterior_d().sum(
        w[p][i][r] * w[n - p][r][j] for p in range(1, n) for r in range(size))
        for n in w for i in range(size) for j in range(size))


def curvature_identity_ok(V):
    """d omega-hat minus omega-hat ^ omega-hat equals the conjugated
    curvature -exp(-Omega) (omega ^ omega) exp(Omega)."""
    om = omega_matrix(V)
    omf = omega_form_matrix(V)
    oh = omega_hat(V)
    d_oh = [[f.exterior_d() for f in row] for row in oh]
    lhs = _mat_combination([(d_oh, 1), (matmul(oh, oh), -1)], Form(2),
                           V.size())
    pone, pzero = Poly.one(), Poly.zero()
    gm = nilpotent_exp(om, pone, pzero, negate=True)
    gp = nilpotent_exp(om, pone, pzero, negate=False)
    rhs = mat_scale(matmul(matmul(gm, matmul(omf, omf)), gp), Fraction(-1))
    return lhs == rhs


def recurrence_ok(V):
    """(n+1)! w(V_{n+1}) == [n! w(V_n), Omega] for every n below the top."""
    om = omega_matrix(V)
    for n in range(1, sum(V.nvec)):
        wn = mat_scale(w_of_V(V, n), Fraction(math.factorial(n)))
        bracket = _mat_combination(
            [(matmul(wn, om), 1), (matmul(om, wn), -1)], Form(1), V.size())
        wn1 = mat_scale(w_of_V(V, n + 1),
                        Fraction(math.factorial(n + 1)))
        if wn1 != bracket:
            return False
    return True


def corollary_form_ok(nvec):
    """w(g_n) recovered from the commutator slice at (row n, column 0)."""
    V = build_V(nvec, H)
    om = omega_matrix(V)
    n = sum(nvec)
    if n < 2:
        return True
    wv = w_of_V(V, n - 1)
    i = V.index[tuple(nvec)]
    j = V.index[ZERO_VECTOR]
    acc = Form(1).sum(wv[i][r] * om[r][j] - om[i][r] * wv[r][j]
                      for r in range(V.size()))
    want = w_element(gen_elem(vector_to_generator(tuple(nvec))))
    return acc == want * n

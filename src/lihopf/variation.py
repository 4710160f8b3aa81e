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
the key set to closure by default and refuses to proceed otherwise.
"""

import itertools
import math
from fractions import Fraction
from types import MappingProxyType

from .algebra import (Element, H, HBAR, ZERO_VECTOR, gen_elem,
                      generator_to_vector, precede_key, vector_to_generator)
from .coproduct import antipode, coproduct
from .forms import Form, Poly, element_to_poly, poly_to_element, w_element
from .lincomb import collect, memo
from .tensor import Tensor, derive


def enumerate_keys(nvec):
    """Componentwise-bounded weight vectors of the same dimension, the
    zero vector written as (), sorted by the precede order."""
    keys = [ZERO_VECTOR]
    for v in itertools.product(*(range(n + 1) for n in nvec)):
        if any(v):
            keys.append(v)
    keys.sort(key=precede_key)
    return keys


def _row_of(v, sort):
    """Map column-key -> read-only Element for the row of one key."""
    if v == ZERO_VECTOR:
        return {ZERO_VECTOR: Element.one(sort).frozen()}
    g = vector_to_generator(v)
    t = coproduct(gen_elem(g, sort))
    row = {}
    for (lmon, rmon), c in t.terms.items():
        if len(lmon) > 1:
            raise AssertionError("left slot is a product: %r" % (lmon,))
        w = ZERO_VECTOR if not lmon else generator_to_vector(lmon[0])
        cur = row.get(w, Element.zero(sort))
        row[w] = cur + Element.from_monomial(rmon, sort, c)
    return {w: e.frozen() for w, e in row.items() if not e.is_zero()}


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

    def generator(self, v):
        return None if v == ZERO_VECTOR else vector_to_generator(v)

    def weight_part(self, n):
        """Dense matrix (list of lists) of the weight-n parts."""
        return [[e.weight_part(n) for e in row] for row in self.rows]

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


def build_V(nvec, sort=HBAR, closed=True):
    """The variation matrix of the weight vector nvec in the given sort,
    its key set grown to closure under left slots unless closed is false
    (then an unclosed key set raises ValueError)."""
    return _build_V(tuple(nvec), sort, bool(closed))


@memo
def _build_V(nvec, sort, closed):
    keys = enumerate_keys(nvec)
    known = {k: _row_of(k, sort) for k in keys}
    if closed:
        while True:
            missing = set()
            for row in known.values():
                for w in row:
                    if w not in known:
                        missing.add(w)
            if not missing:
                break
            for w in missing:
                known[w] = _row_of(w, sort)
        keys = sorted(known, key=precede_key)
    else:
        for k in keys:
            for w in known[k]:
                if w not in known:
                    raise ValueError(
                        "key set of %s is not closed under left slots:"
                        " %s produced %s" % (nvec, k, w))
    # rows are tuples of read-only entries: the cached matrix is shared by
    # every caller
    zero = Element.zero(sort).frozen()
    rows = tuple(tuple(known[v].get(w, zero) for w in keys) for v in keys)
    return VariationMatrix(nvec, sort, keys, rows)


# ---------------------------------------------------------------------------
# dense matrix helpers (sizes here are tiny)

def matmul(A, B, mul=lambda a, b: a * b):
    out = []
    for i in range(len(A)):
        row = []
        for j in range(len(B[0])):
            acc = mul(A[i][0], B[0][j])
            for r in range(1, len(B)):
                acc = acc + mul(A[i][r], B[r][j])
            row.append(acc)
        out.append(row)
    return out


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[a * c for a in row] for row in A]


def mat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def _is_zero_entry(x):
    if hasattr(x, "is_zero"):
        return x.is_zero()
    return x == 0


def mat_is_zero(A):
    return all(_is_zero_entry(x) for row in A for x in row)


def nilpotent_exp(M, one, zero, negate=False):
    """exp(M) (or exp(-M)) for a strictly triangular matrix; the series
    stops on its own once the power vanishes."""
    n = len(M)
    out = [[one if i == j else zero for j in range(n)] for i in range(n)]
    power = out
    sign = -1 if negate else 1
    for k in range(1, n + 1):
        power = matmul(power, M)
        if mat_is_zero(power):
            break
        out = mat_add(out, mat_scale(power, Fraction(sign ** k, math.factorial(k))))
    return out


# ---------------------------------------------------------------------------
# structural laws

def comultiplicative_ok(V):
    """coproduct(V[v][z]) == sum over w of V[w][z] (x) V[v][w]."""
    sorts = (V.sort, V.sort)
    for v in V.keys:
        for z in V.keys:
            lhs = coproduct(V.entry(v, z))
            rhs = Tensor.zero(sorts)
            for w in V.keys:
                rhs = rhs + Tensor.of(V.entry(w, z), V.entry(v, w))
            if not (lhs - rhs).is_zero():
                return False
    return True


def antipode_ok(V):
    """sum over w of S(V[w][z]) * V[v][w] == delta(v, z)."""
    for v in V.keys:
        for z in V.keys:
            acc = Element.zero(V.sort)
            for w in V.keys:
                acc = acc + antipode(V.entry(w, z)) * V.entry(v, w)
            want = Element.one(V.sort) if v == z else Element.zero(V.sort)
            if not (acc - want).is_zero():
                return False
    return True


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


def derivation_ok(V):
    """dV == omega V with d the letter-basis derivation."""
    om = omega_form_matrix(V)
    n = V.size()
    for i in range(n):
        for j in range(n):
            lhs = derive(V.rows[i][j])
            rhs = collect((basis[0], V.rows[r][j] * p.constant_term())
                          for r in range(n)
                          for basis, p in om[i][r].terms.items())
            if lhs != rhs:
                return False
    return True


def w_entrywise(V, n):
    """One-form matrix of the weight-n graded piece, entry by entry."""
    return [[w_element(e.weight_part(n)) for e in row] for row in V.rows]


def w_closed_form(V, n):
    """(1/n!) sum over k+l=n-1 of (-1)^k binom(n-1,k) Omega^k omega Omega^l."""
    om = omega_matrix(V)
    omf = omega_form_matrix(V)
    size = V.size()
    pzero, pone = Poly.zero(), Poly.one()
    ident = [[pone if i == j else pzero for j in range(size)]
             for i in range(size)]
    pows = [ident]
    for _ in range(n - 1):
        pows.append(matmul(pows[-1], om))
    acc = None
    for k in range(n):
        l = n - 1 - k
        term = matmul(matmul(pows[k], omf), pows[l])
        coeff = Fraction((-1) ** k * math.comb(n - 1, k), math.factorial(n))
        term = mat_scale(term, coeff)
        acc = term if acc is None else mat_add(acc, term)
    return acc


def w_of_V(V, n):
    """Both routes to the weight-n one-form matrix; they must agree."""
    direct = w_entrywise(V, n)
    closed = w_closed_form(V, n)
    if not mat_eq(direct, closed):
        raise ValueError(
            "one-form routes disagree on %s at weight %d" % (V.nvec, n))
    return direct


def omega_hat(V):
    """The gauge-transformed connection sum((n-1) w(V_n), n >= 2)."""
    total = None
    for n in range(2, sum(V.nvec) + 1):
        term = mat_scale(w_of_V(V, n), Fraction(n - 1))
        total = term if total is None else mat_add(total, term)
    if total is None:
        size = V.size()
        zf = Form(1)
        total = [[zf for _ in range(size)] for _ in range(size)]
    return total


def v_hat(V):
    """V-hat = exp(-Omega) V, an Element matrix."""
    om_elem = [[poly_to_element(p, H) for p in row]
               for row in omega_matrix(V)]
    gauge = nilpotent_exp(om_elem, Element.one(H), Element.zero(H),
                          negate=True)
    return matmul(gauge, V.rows)


def hat_derivation_ok(V):
    """d V-hat == omega-hat V-hat."""
    oh = omega_hat(V)
    vh = v_hat(V)
    n = V.size()
    for i in range(n):
        for j in range(n):
            lhs = derive(vh[i][j])
            rhs = collect((basis[0], poly_to_element(p, H) * vh[r][j])
                          for r in range(n)
                          for basis, p in oh[i][r].terms.items())
            if lhs != rhs:
                return False
    return True


def chain_map_ok(V, max_weight=None):
    """d w(V_n) + sum over p+q=n of w(V_p) ^ w(V_q) == 0."""
    top = sum(V.nvec) if max_weight is None else min(max_weight, sum(V.nvec))
    wmats = {n: w_of_V(V, n) for n in range(1, top + 1)}
    for n in range(1, top + 1):
        acc = [[f.exterior_d() for f in row] for row in wmats[n]]
        for p in range(1, n):
            prod = matmul(wmats[p], wmats[n - p],
                          mul=lambda a, b: a.wedge(b))
            acc = mat_add(acc, prod)
        if not mat_is_zero(acc):
            return False
    return True


def curvature_identity_ok(V):
    """d omega-hat minus omega-hat ^ omega-hat equals the conjugated
    curvature -exp(-Omega) (omega ^ omega) exp(Omega)."""
    om = omega_matrix(V)
    omf = omega_form_matrix(V)
    oh = omega_hat(V)
    lhs = mat_add([[f.exterior_d() for f in row] for row in oh],
                  mat_scale(matmul(oh, oh, mul=lambda a, b: a.wedge(b)),
                            Fraction(-1)))
    pone, pzero = Poly.one(), Poly.zero()
    gm = nilpotent_exp(om, pone, pzero, negate=True)
    gp = nilpotent_exp(om, pone, pzero, negate=False)
    curv = matmul(omf, omf, mul=lambda a, b: a.wedge(b))
    rhs = mat_scale(matmul(matmul(gm, curv, mul=lambda p, f: f.scale(p)),
                           gp, mul=lambda f, p: f.scale(p)),
                    Fraction(-1))
    return mat_eq(lhs, rhs)


def recurrence_ok(V):
    """(n+1)! w(V_{n+1}) == [n! w(V_n), Omega] for every n below the top."""
    om = omega_matrix(V)
    for n in range(1, sum(V.nvec)):
        wn = mat_scale(w_of_V(V, n), Fraction(math.factorial(n)))
        bracket = mat_add(
            matmul(wn, om, mul=lambda f, p: f.scale(p)),
            mat_scale(matmul(om, wn, mul=lambda p, f: f.scale(p)),
                      Fraction(-1)))
        wn1 = mat_scale(w_of_V(V, n + 1),
                        Fraction(math.factorial(n + 1)))
        if not mat_eq(wn1, bracket):
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
    size = V.size()
    acc = Form(1)
    for r in range(size):
        acc = acc + wv[i][r].scale(om[r][j]) - om[i][r] * wv[r][j]
    want = w_element(gen_elem(vector_to_generator(tuple(nvec))))
    return acc == want.scale(Fraction(n))

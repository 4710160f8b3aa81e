"""Free commutative algebras of polylogarithm brackets and of
iterated-integral symbols, with exact scalars.

Three sorts share one representation: each is spanned by commutative
monomials, sorted tuples of generators.  The two bracket sorts are
spanned by monomials in bracket generators:

    log generator   [x_i]_0                      weight 1
    nested bracket  [w_1, ..., w_d]_{n_1,...,n_d}  weight n_1+...+n_d

where each letter w_r is a *window*: the product x_{i_r} x_{i_r+1} ... x_{i_{r+1}-1}
of consecutive variables.  The windows of one bracket chain left to right,
so a bracket is determined by a strictly increasing index tuple
(i_1, ..., i_{d+1}) and a weight tuple (n_1, ..., n_d).

The plain sort 'H' allows only the generators above.  The extended sort
'Hbar' adds inverted brackets, displayed with the letters reversed and
inverted:

    [w_d^{-1}, ..., w_1^{-1}]_{n_d,...,n_1}

We store an inverted bracket under the same ascending (indices, weights)
data as its regular mirror plus an ``inverted`` flag; renderers reverse
the lists.  Inverted *log* letters never exist as generators: [w^{-1}]_0
normalizes to -[w]_0, and a window log [x_{i->j}]_0 is eagerly expanded
into sum(  [x_r]_0 for i <= r < j ), so that window additivity holds by
construction.

The sort 'I' is spanned by monomials in the iterated-integral symbols
I(a_0; a_1 ... a_m; a_{m+1}) of ``iterint``; it carries the subsequence
coproduct there, not the bracket coproducts.

Scalars are exact rationals.  A coefficient is stored as an int when it
is integral and as a fractions.Fraction otherwise (see ``lincomb``); an
integral Fraction produced by arithmetic equals and hashes like the int.
"""

from typing import NamedTuple

from .lincomb import LinComb, extend, memo

H = "H"
HBAR = "Hbar"
ITER = "I"

LOG = "log"
LI = "li"


class _Bracket(NamedTuple):
    kind: str
    indices: tuple
    weights: tuple = ()
    inverted: bool = False


class Generator(_Bracket):
    """A single bracket generator: a named tuple of its normalised data.

    Python hashes, compares and sorts generators as tuples, in C, so the
    order of generators (and of the monomials built from them) is the
    order of the data (kind, indices, weights, inverted).
    """

    __slots__ = ()

    def __new__(cls, kind, indices, weights=(), inverted=False):
        if kind not in (LOG, LI):
            raise ValueError("unknown generator kind %r" % (kind,))
        indices = tuple(map(int, indices))
        weights = tuple(map(int, weights))
        if kind == LOG:
            if len(indices) != 1 or weights or inverted:
                raise ValueError("log generator takes a single index")
            if indices[0] < 1:
                raise ValueError("variable index must be >= 1")
        else:
            if len(indices) < 2 or len(weights) != len(indices) - 1:
                raise ValueError("bracket needs d+1 indices and d weights")
            if any(a >= b for a, b in zip(indices, indices[1:])):
                raise ValueError("indices must be strictly increasing")
            if indices[0] < 1:
                raise ValueError("indices must be positive")
            if any(n < 1 for n in weights):
                raise ValueError("weights must be >= 1")
        return _Bracket.__new__(cls, kind, indices, weights, bool(inverted))

    @property
    def _key(self):
        # the benchmark tracer (perfbench/tracer.py) counts distinct
        # inversion arguments by this key
        return tuple(self)

    @property
    def weight(self):
        return 1 if self.kind == LOG else sum(self.weights)

    @property
    def depth(self):
        return 0 if self.kind == LOG else len(self.weights)

    @memo
    def __str__(self):
        if self.kind == LOG:
            return "log(%d)" % self.indices
        args = ",".join(str(i) for i in self.indices)
        if self.inverted:
            # display order of an inverted bracket reverses the weight list
            ns = ",".join(str(n) for n in reversed(self.weights))
            return "ILi[%s](%s)" % (ns, args)
        ns = ",".join(str(n) for n in self.weights)
        return "Li[%s](%s)" % (ns, args)

    __repr__ = __str__


def log(i):
    return Generator(LOG, (i,))


def li(indices, weights, inverted=False):
    return Generator(LI, tuple(indices), tuple(weights), inverted)


# ---------------------------------------------------------------------------
# monomials: sorted tuples of generators

def mul_monomials(a, b):
    return tuple(sorted(a + b))


def monomial_weight(mon):
    return sum(g.weight for g in mon)


def monomial_str(mon):
    parts = []
    i = 0
    while i < len(mon):
        j = i
        while j < len(mon) and mon[j] == mon[i]:
            j += 1
        parts.append(str(mon[i]) + ("^%d" % (j - i) if j - i > 1 else ""))
        i = j
    return " ".join(parts)


def text_sum(items, body_of):
    """A signed sum as text.  items: sorted (key, coeff); body_of(key) is
    "" for the empty key, whose term prints as its bare rational."""
    parts = []
    for key, c in items:
        mag = abs(c)
        body = body_of(key)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = "%s %s" % (mag, body)
        if parts:
            parts.append(("+ " if c > 0 else "- ") + piece)
        else:
            parts.append(piece if c > 0 else "-" + piece)
    return " ".join(parts) if parts else "0"


class Element(LinComb):
    """A finite Q-linear combination of monomials, tagged with its sort:
    H, Hbar (brackets) or I (iterated-integral symbols).

    Arithmetic requires equal sorts, constants included; a rational
    operand is lifted to a constant of the other operand's sort.
    """

    __slots__ = ("sort",)

    _shape = ("sort",)
    _mul_key = staticmethod(mul_monomials)

    def __init__(self, sort, terms=None):
        if sort not in (H, HBAR, ITER):
            raise ValueError("sort must be 'H', 'Hbar' or 'I'")
        self.sort = sort
        self._init_terms(terms)
        self._check()

    def _check(self):
        if self.sort == H:
            for mon in self.terms:
                for g in mon:
                    if g.inverted:
                        raise ValueError("inverted generator in H-sort element")
        return self

    def _new(self, terms):
        # unchecked: H is closed under the sums, products, scalings and
        # negations that build results of the operands' sort
        out = object.__new__(Element)
        out.sort = self.sort
        out.terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(sort=H):
        return Element(sort)

    @staticmethod
    def one(sort=H):
        return Element(sort, {(): 1})

    @staticmethod
    def constant(c, sort=H):
        return Element(sort, {(): c})

    @staticmethod
    def from_monomial(mon, sort, coeff=1):
        return Element(sort, {tuple(sorted(mon)): coeff})

    # -- queries -----------------------------------------------------------

    def constant_term(self):
        return self.terms.get((), 0)

    def weight_parts(self):
        """Split into homogeneous pieces: dict weight -> Element."""
        out = {}
        for mon, c in self.terms.items():
            w = monomial_weight(mon)
            out.setdefault(w, {})[mon] = c
        return {w: self._new(t)._check() for w, t in sorted(out.items())}

    def weight_part(self, n):
        return self._new({m: c for m, c in self.terms.items()
                          if monomial_weight(m) == n})._check()

    def as_sort(self, sort):
        return Element(sort, self.terms)

    # -- arithmetic --------------------------------------------------------

    def _lift(self, c):
        return Element.constant(c, self.sort)

    def _same_shape(self, other):
        return self.sort == other.sort

    # kept in the class namespace: operator tracing (perfbench/tracer.py)
    # wraps them per class
    __add__ = __radd__ = LinComb.__add__
    __mul__ = __rmul__ = LinComb.__mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = Element.one(self.sort)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        return str(self)

    def __str__(self):
        return text_sum(sorted(self.terms.items(), key=lambda mc: (
            monomial_weight(mc[0]), mc[0])), monomial_str)


def gen_elem(g, sort=None):
    """The bracket generator g as an element; sort defaults to the
    smallest sort holding it."""
    if sort is None:
        sort = HBAR if g.inverted else H
    return Element(sort, {(g,): 1})


def expand_log(i, j, sort=H, inverse=False):
    """[x_{i->j}]_0 as an element: sum of [x_r]_0 over i <= r < j.

    ``inverse=True`` gives [x_{i->j}^{-1}]_0 = -[x_{i->j}]_0.  i == j is the
    empty window (the unit letter 1) whose log is 0.
    """
    if not 1 <= i <= j:
        raise ValueError("need 1 <= i <= j")
    terms = {}
    for r in range(i, j):
        terms[(log(r),)] = -1 if inverse else 1
    return Element(sort, terms)


# ---------------------------------------------------------------------------
# weight vectors (tuples of non-negative ints; () is the zero vector)

ZERO_VECTOR = ()


def generator_to_vector(g):
    """Encode a regular bracket as its weight vector.

    [x_{i_1->i_2},...]_{n_1..n_d}  ->  entries n_r at positions i_r
    (1-based), zeros elsewhere, length i_{d+1}-1.  The unit (g=None)
    encodes as the zero vector ().
    """
    if g is None:
        return ZERO_VECTOR
    if g.kind != LI or g.inverted:
        raise ValueError("only regular brackets correspond to weight vectors")
    d = g.depth
    length = g.indices[d] - 1
    v = [0] * length
    for r in range(d):
        v[g.indices[r] - 1] = g.weights[r]
    return tuple(v)


def vector_to_generator(v):
    """Inverse of generator_to_vector; the zero vector maps to None (unit)."""
    v = tuple(v)
    if any(x < 0 for x in v):
        raise ValueError("negative entry in weight vector")
    positions = [p for p, x in enumerate(v) if x]
    if not positions:
        if v != ():
            # an all-zero nonempty tuple does not come from any bracket
            raise ValueError("all-zero vector of positive dim has no generator")
        return None
    indices = tuple(p + 1 for p in positions) + (len(v) + 1,)
    weights = tuple(v[p] for p in positions)
    return li(indices, weights)


def precede_key(v):
    """Sort key realizing the weight-vector order.

    Ascending by total weight, then by dim, then by 'the rightmost entry
    where the two differ is larger' -- encoded by negating the reversed
    tuple so plain lexicographic comparison does the rest.
    """
    return (sum(v), len(v), tuple(-x for x in reversed(v)))


def precede(a, b):
    """Strict order a < b on weight vectors."""
    return precede_key(tuple(a)) < precede_key(tuple(b))


# ---------------------------------------------------------------------------
# contraction sequences: strictly increasing index tuples (i_1,...,i_{d+1}).
# Such a tuple maps variable slot s of a depth-d world to the window
# [i_s, i_{s+1}) of a deeper world; brackets transform index-wise.

def check_contraction(c):
    c = tuple(int(x) for x in c)
    if len(c) < 2 or c[0] < 1 or any(a >= b for a, b in zip(c, c[1:])):
        raise ValueError("contraction must be strictly increasing, length >= 2")
    return c


def compose(i, j):
    """The contraction acting as 'apply j, then i': selects entries of i."""
    i = check_contraction(i)
    j = check_contraction(j)
    if j[-1] > len(i):
        raise ValueError("inner sequence exceeds outer length")
    return tuple(i[x - 1] for x in j)


def apply_contraction(c, x):
    """Substitute windows for variables in a generator or element.

    Each variable index a becomes c_a, so a window a->b becomes c_a->c_b.
    Log letters may spread into sums (their windows expand); brackets map
    generator-to-generator.
    """
    c = check_contraction(c)

    def on_generator(g):
        if g.kind == LOG:
            a = g.indices[0]
            if a + 1 > len(c):
                raise ValueError("generator outside contraction range")
            return expand_log(c[a - 1], c[a], sort=H)
        if g.indices[-1] > len(c):
            raise ValueError("generator outside contraction range")
        newidx = tuple(c[a - 1] for a in g.indices)
        return gen_elem(Generator(LI, newidx, g.weights, g.inverted))

    if isinstance(x, Generator):
        return on_generator(x)
    return extend(x, lambda g: on_generator(g).as_sort(x.sort),
                  Element.one(x.sort))

"""Iterated integrals over marked points, and their evaluation.

Points on the integration line are 0, 1, and inverse products
1/(x_i * ... * x_j).  The free commutative algebra on the symbols
I(a_0; a_1 ... a_m; a_{m+1}) carries the subsequence coproduct; the
evaluation map phi sends each polylogarithmic symbol into the inverted
bracket algebra.  phi is computed with the same truncated-series engine
as the bracket coproduct: interior zeros become powers of a formal
variable attached to the preceding nonzero point, and the series of a
zero-free skeleton is built by three rules (a bracket series of ratio
windows when the path starts at 0, a sign-and-reverse when it ends at 0,
a split over the basepoint when it does neither).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .algebra import HBAR, Element, expand_log
from .coproduct import _bracket_series, _normalize_block, coproduct_bar
from .lincomb import LinComb, extend
from .series import TruncatedSeries
from .tensor import Tensor


# ---------------------------------------------------------------------------
# marked points

@dataclass(frozen=True)
class Zero:
    def __repr__(self) -> str:
        return "0"


@dataclass(frozen=True)
class One:
    def __repr__(self) -> str:
        return "1"


@dataclass(frozen=True)
class InvProduct:
    """The point 1/(x_lo * ... * x_hi)."""
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (1 <= self.lo <= self.hi):
            raise ValueError(f"bad inverse product bounds ({self.lo}, {self.hi})")

    def __repr__(self) -> str:
        if self.lo == self.hi:
            return f"1/x{self.lo}"
        return f"1/(x{self.lo}..x{self.hi})"


SPoint = Union[Zero, One, InvProduct]

ZERO = Zero()
ONE = One()


def _point_key(p: SPoint) -> tuple:
    if isinstance(p, Zero):
        return (0,)
    if isinstance(p, One):
        return (1,)
    return (2, p.lo, p.hi)


def _interval(p: SPoint) -> Optional[tuple[int, int]]:
    """Half-open letter interval of 1/point; None for the point 1."""
    if isinstance(p, One):
        return None
    if isinstance(p, InvProduct):
        return (p.lo, p.hi + 1)
    raise ValueError("the point 0 has no letter interval")


def _ratio(p: SPoint, q: SPoint):
    """q/p as a letter window: (lo, hi, inverted), 'unit', or None."""
    if isinstance(p, Zero) or isinstance(q, Zero):
        return None
    wp, wq = _interval(p), _interval(q)
    if wp == wq:
        return "unit"
    if wq is None:
        return (wp[0], wp[1], False)
    if wp is None:
        return (wq[0], wq[1], True)
    if wp[0] <= wq[0] and wq[1] <= wp[1]:
        if wq[0] == wp[0]:
            return (wq[1], wp[1], False)
        if wq[1] == wp[1]:
            return (wp[0], wq[0], False)
        return None
    if wq[0] <= wp[0] and wp[1] <= wq[1]:
        if wp[0] == wq[0]:
            return (wp[1], wq[1], True)
        if wp[1] == wq[1]:
            return (wq[0], wp[0], True)
        return None
    return None


def _log_of(p: SPoint) -> Element:
    """[p]_0 as an element (0 for the points 0-adjacent cases never occur)."""
    if isinstance(p, One):
        return Element.zero(HBAR)
    if isinstance(p, InvProduct):
        return expand_log(p.lo, p.hi + 1, HBAR, inverse=True)
    raise ValueError("no logarithm at the point 0")


# ---------------------------------------------------------------------------
# the symbols and their algebra

@dataclass(frozen=True)
class IGenerator:
    start: SPoint
    word: tuple[SPoint, ...]
    end: SPoint

    @property
    def weight(self) -> int:
        return len(self.word)

    @property
    def depth(self) -> int:
        return sum(1 for p in self.word if not isinstance(p, Zero))

    def key(self) -> tuple:
        return (self.weight, _point_key(self.start),
                tuple(_point_key(p) for p in self.word),
                _point_key(self.end))

    def reversed(self) -> "IGenerator":
        return IGenerator(self.end, self.word[::-1], self.start)

    def __repr__(self) -> str:
        inner = ",".join(repr(p) for p in self.word)
        return f"I({self.start!r};{inner};{self.end!r})"


IMonomial = tuple  # sorted tuple of IGenerator


def _sort_mon(gens) -> IMonomial:
    return tuple(sorted(gens, key=lambda g: g.key()))


def _i_key(m1, m2):
    return _sort_mon(m1 + m2)


def _i_tensor_key(mm1, mm2):
    return (_sort_mon(mm1[0] + mm2[0]), _sort_mon(mm1[1] + mm2[1]))


class IElement(LinComb):
    """Rational combination of products of symbols."""

    __slots__ = ()

    _mul_key = staticmethod(_i_key)

    def __init__(self, terms=None):
        self._init_terms(terms)

    @staticmethod
    def zero() -> "IElement":
        return IElement()

    @staticmethod
    def unit() -> "IElement":
        return IElement({(): 1})

    @staticmethod
    def of(g: IGenerator) -> "IElement":
        if not g.word:
            return IElement.unit()  # an empty integral is 1
        return IElement({(g,): 1})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c} * {m}" for m, c in self.terms.items())


class ITensor(LinComb):
    """Two-slot tensors of symbol monomials."""

    __slots__ = ()

    _mul_key = staticmethod(_i_tensor_key)

    def __init__(self, terms=None):
        self._init_terms(terms)

    @staticmethod
    def zero() -> "ITensor":
        return ITensor()

    @staticmethod
    def of(a: IElement, b: IElement) -> "ITensor":
        return ITensor({(m1, m2): c1 * c2 for m1, c1 in a.terms.items()
                        for m2, c2 in b.terms.items()})

    def __repr__(self) -> str:
        return f"<itensor {len(self.terms)} terms>"


# ---------------------------------------------------------------------------
# the subsequence coproduct

def i_coproduct_gen(g: IGenerator) -> ITensor:
    """Left: the symbol on a subsequence of interior letters.  Right: the
    product of the symbols on the cut-out segments."""
    m = g.weight
    points = [g.start] + list(g.word) + [g.end]
    out = ITensor.zero()
    for k in range(m + 1):
        for keep in itertools.combinations(range(1, m + 1), k):
            left = IElement.of(
                IGenerator(g.start, tuple(points[i] for i in keep), g.end))
            bounds = (0,) + keep + (m + 1,)
            right = IElement.unit()
            for a, b in zip(bounds, bounds[1:]):
                seg = tuple(points[a + 1:b])
                if seg:
                    right = right * IElement.of(
                        IGenerator(points[a], seg, points[b]))
            out = out + ITensor.of(left, right)
    return out


def i_coproduct(e: IElement) -> ITensor:
    return extend(e, i_coproduct_gen,
                  ITensor.of(IElement.unit(), IElement.unit()))


# ---------------------------------------------------------------------------
# the subsequence variation matrix

def subsequence_keys(n_points: int) -> list[tuple[int, ...]]:
    """Index subsequences of (0, ..., n_points-1) keeping both ends."""
    inner = range(1, n_points - 1)
    keys = []
    for k in range(len(inner) + 1):
        for mid in itertools.combinations(inner, k):
            keys.append((0,) + mid + (n_points - 1,))
    keys.sort(key=lambda t: (len(t), t))
    return keys


def subsequence_entry(points, iseq, jseq) -> IElement:
    """Product of segment symbols; zero unless jseq is a subsequence of
    iseq."""
    if not set(jseq) <= set(iseq):
        return IElement.zero()
    out = IElement.unit()
    for a, b in zip(jseq, jseq[1:]):
        seg = tuple(points[i] for i in iseq if a < i < b)
        if seg:
            out = out * IElement.of(IGenerator(points[a], seg, points[b]))
    return out


def subsequence_comultiplicative_ok(points) -> bool:
    """Delta(V[i][j]) == sum over k of V[k][j] (x) V[i][k]."""
    keys = subsequence_keys(len(points))
    for iseq in keys:
        for jseq in keys:
            lhs = i_coproduct(subsequence_entry(points, iseq, jseq))
            rhs = ITensor.zero()
            for kseq in keys:
                rhs = rhs + ITensor.of(
                    subsequence_entry(points, kseq, jseq),
                    subsequence_entry(points, iseq, kseq))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# the basepoint-splitting map

def gamma_gen(g: IGenerator) -> IElement:
    """Split the path at the basepoint 0 in every position; pieces that
    begin and end at 0 with letters in between vanish."""
    out = IElement.zero()
    for q in range(g.weight + 1):
        head, tail = g.word[:q], g.word[q:]
        if isinstance(g.start, Zero) and head:
            continue
        if isinstance(g.end, Zero) and tail:
            continue
        out = out + (IElement.of(IGenerator(g.start, head, ZERO))
                     * IElement.of(IGenerator(ZERO, tail, g.end)))
    return out


def gamma(e: IElement) -> IElement:
    return extend(e, gamma_gen, IElement.unit())


# ---------------------------------------------------------------------------
# polylogarithmic symbols and their evaluation

def is_polylogarithmic(g: IGenerator) -> bool:
    """True when the consecutive ratios of the nonzero marked points
    (endpoints at 0 dropped) form a chain of letter windows, all regular
    and ascending or all inverted and descending."""
    if not g.word:
        return True  # the unit symbol
    chain = [p for p in g.word if not isinstance(p, Zero)]
    if not isinstance(g.start, Zero):
        chain = [g.start] + chain
    if not isinstance(g.end, Zero):
        chain = chain + [g.end]
    if len(chain) <= 1:
        return True
    wins = []
    for p, q in zip(chain, chain[1:]):
        w = _ratio(p, q)
        if w is None or w == "unit":
            return False
        wins.append(w)
    if any(w[2] != wins[0][2] for w in wins):
        return False
    if wins[0][2]:
        return all(b[1] == a[0] for a, b in zip(wins, wins[1:]))
    return all(a[1] == b[0] for a, b in zip(wins, wins[1:]))


def _phi_series(start, letters, end, off, shape):
    """Series of the zero-stripped skeleton in the variables
    off .. off+len(letters) of the ambient truncated-series shape."""
    d = len(letters)
    zero_series = TruncatedSeries(shape.nvars, shape.sort, shape.caps,
                                  shape.total_cap)
    if isinstance(start, Zero) and isinstance(end, Zero):
        if d == 0:
            return TruncatedSeries.constant(1, shape.nvars, shape.sort,
                                            shape.caps, shape.total_cap)
        return zero_series
    if isinstance(end, Zero):
        inner_caps = tuple(shape.caps[off + d - r] for r in range(d + 1))
        inner = TruncatedSeries(d + 1, shape.sort, caps=inner_caps)
        rev = _phi_series(ZERO, letters[::-1], start, 0, inner)
        images = {r: [(off + d - r, -1)] for r in range(d + 1)}
        out = rev.substitute(images, shape.nvars, shape.caps, shape.total_cap)
        return out * Fraction((-1) ** d)
    if isinstance(start, Zero):
        out = TruncatedSeries.constant(1, shape.nvars, shape.sort,
                                       shape.caps, shape.total_cap)
        if d:
            chain = list(letters) + [end]
            block = []
            for k in range(d):
                w = _ratio(chain[k], chain[k + 1])
                if w is None:
                    raise ValueError(f"ratio {chain[k]!r} -> {chain[k+1]!r}"
                                     " is not a letter window")
                if w == "unit":
                    return zero_series
                targ = [(off + k + 1, 1), (off, -1)]
                block.append(((w[0], w[1]), w[2], targ))
            norm = _normalize_block(block)
            if norm is None:
                return zero_series
            indices, targs, inverted = norm
            out = _bracket_series(shape, indices, targs, inverted, shape.sort)
            out = out * Fraction((-1) ** d)
        lg = _log_of(end)
        if not lg.is_zero():
            out = out * shape.exp_linear(lg, [(off, 1)])
        return out
    total = zero_series
    for j in range(d + 1):
        left = _phi_series(start, letters[:j], ZERO, off, shape)
        right = _phi_series(ZERO, letters[j:], end, off + j, shape)
        total = total + left * right
    return total


_PHI_CACHE: dict[IGenerator, Element] = {}


def phi(g: IGenerator) -> Element:
    """Evaluate one polylogarithmic symbol into the inverted bracket
    algebra."""
    if g in _PHI_CACHE:
        return _PHI_CACHE[g]
    if not is_polylogarithmic(g):
        raise ValueError(f"{g!r} is not polylogarithmic")
    runs = [0]
    letters = []
    for p in g.word:
        if isinstance(p, Zero):
            runs[-1] += 1
        else:
            letters.append(p)
            runs.append(0)
    caps = tuple(runs)
    shape = TruncatedSeries(len(caps), HBAR, caps=caps)
    series = _phi_series(g.start, tuple(letters), g.end, 0, shape)
    out = series.coefficient(caps).frozen()
    _PHI_CACHE[g] = out
    return out


def phi_element(e: IElement) -> Element:
    return extend(e, phi, Element.one(HBAR))


def phi_morphism_ok(g: IGenerator) -> bool:
    """(phi (x) phi) after the subsequence coproduct agrees with the
    bracket coproduct after phi."""
    lhs = Tensor.zero((HBAR, HBAR))
    for (lm, rm), c in i_coproduct_gen(g).terms.items():
        lhs = lhs + Tensor.of(phi_element(IElement({lm: 1})),
                              phi_element(IElement({rm: 1}))) * c
    rhs = coproduct_bar(phi(g))
    return (lhs - rhs).is_zero()


def canonical_symbol(indices, weights) -> IGenerator:
    """The symbol whose evaluation is (-1)^depth times the bracket with
    the given windows and weights."""
    top = indices[-1] - 1
    word = []
    for p, n in zip(indices[:-1], weights):
        word.append(InvProduct(p, top))
        word.extend([ZERO] * (n - 1))
    return IGenerator(ZERO, tuple(word), ONE)

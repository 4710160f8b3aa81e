"""Iterated integrals over marked points, and their evaluation.

Points on the integration line are 0, 1, and inverse products
1/(x_i * ... * x_j).  Points and the symbols I(a_0; a_1 ... a_m; a_{m+1})
are named tuples, so they are hashed, compared and sorted as tuples.  The
free commutative algebra on the symbols is the sort I of ``Element``
(``integral(g)`` is the symbol g as an element, and an empty integral is
1); its subsequence coproduct is a ``Tensor`` of sorts (I, I).  The
evaluation map phi sends each polylogarithmic symbol into the inverted
bracket algebra.  A path between two nonzero points is first split at the
basepoint 0 (``gamma_gen``, Goncharov's path composition), so each piece
starts or ends at 0.  Such a piece is computed with the same
truncated-series engine as the bracket coproduct: interior zeros become
powers of a formal variable attached to the preceding nonzero point, and
the series of a zero-free skeleton is built by two rules (a bracket
series of ratio windows when the path starts at 0, a sign-and-reverse
when it ends at 0).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .algebra import HBAR, ITER, Element
from .coproduct import (_bracket_series, _normalize_block, _window_exp,
                        coproduct_bar)
from .lincomb import extend, memo
from .series import TruncatedSeries
from .tensor import Tensor


# ---------------------------------------------------------------------------
# marked points

class Point(NamedTuple):
    """A marked point: kind 0 is the point 0, kind 1 the point 1, kind 2
    the point 1/(x_lo * ... * x_hi)."""
    kind: int
    lo: int = 0
    hi: int = 0

    def __repr__(self) -> str:
        if self.kind < 2:
            return str(self.kind)
        if self.lo == self.hi:
            return f"1/x{self.lo}"
        return f"1/(x{self.lo}..x{self.hi})"


ZERO = Point(0)
ONE = Point(1)


def InvProduct(lo: int, hi: int) -> Point:
    """The point 1/(x_lo * ... * x_hi)."""
    if not (1 <= lo <= hi):
        raise ValueError(f"bad inverse product bounds ({lo}, {hi})")
    return Point(2, lo, hi)


def _interval(p: Point) -> Optional[tuple[int, int]]:
    """Half-open letter interval of 1/point; None for the point 1."""
    if p == ONE:
        return None
    if p == ZERO:
        raise ValueError("the point 0 has no letter interval")
    return (p.lo, p.hi + 1)


def _ratio(p: Point, q: Point):
    """q/p as a letter window: (lo, hi, inverted), 'unit', or None."""
    if p == ZERO or q == ZERO:
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


# ---------------------------------------------------------------------------
# the symbols and their algebra

class IGenerator(NamedTuple):
    """The symbol I(start; word; end)."""
    start: Point
    word: tuple[Point, ...]
    end: Point

    @property
    def weight(self) -> int:
        return len(self.word)

    @property
    def depth(self) -> int:
        return sum(1 for p in self.word if p != ZERO)

    def __repr__(self) -> str:
        inner = ",".join(repr(p) for p in self.word)
        return f"I({self.start!r};{inner};{self.end!r})"


def integral(g: IGenerator) -> Element:
    """The symbol g as a sort-I element; an empty integral is 1."""
    if not g.word:
        return Element.one(ITER)
    return Element(ITER, {(g,): 1})


# ---------------------------------------------------------------------------
# the subsequence coproduct

def i_coproduct_gen(g: IGenerator) -> Tensor:
    """Left: the symbol on a subsequence of interior letters.  Right: the
    product of the symbols on the cut-out segments."""
    m = g.weight
    points = [g.start] + list(g.word) + [g.end]
    keeps = (keep for k in range(m + 1)
             for keep in itertools.combinations(range(1, m + 1), k))
    return Tensor.zero((ITER, ITER)).sum(Tensor.of(
        integral(IGenerator(g.start, tuple(points[i] for i in keep), g.end)),
        subsequence_entry(points, range(m + 2), (0,) + keep + (m + 1,)))
        for keep in keeps)


def i_coproduct(e: Element) -> Tensor:
    one = Element.one(ITER)
    return extend(e, i_coproduct_gen, Tensor.of(one, one))


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


def subsequence_entry(points, iseq, jseq) -> Element:
    """Product of segment symbols; zero unless jseq is a subsequence of
    iseq."""
    if not set(jseq) <= set(iseq):
        return Element.zero(ITER)
    # every segment symbol enters with coefficient 1, and an empty
    # segment is the unit, so the product is one monomial
    segs = (IGenerator(points[a], tuple(points[i] for i in iseq if a < i < b),
                       points[b]) for a, b in zip(jseq, jseq[1:]))
    return Element(ITER, {tuple(sorted(g for g in segs if g.word)): 1})


# ---------------------------------------------------------------------------
# the basepoint-splitting map

def gamma_gen(g: IGenerator) -> Element:
    """Split the path at the basepoint 0 in every position; pieces that
    begin and end at 0 with letters in between vanish."""
    return Element.zero(ITER).sum(
        integral(IGenerator(g.start, g.word[:q], ZERO))
        * integral(IGenerator(ZERO, g.word[q:], g.end))
        for q in range(g.weight + 1)
        if not ((g.start == ZERO and q) or (g.end == ZERO and q < g.weight)))


def gamma(e: Element) -> Element:
    return extend(e, gamma_gen, Element.one(ITER))


# ---------------------------------------------------------------------------
# polylogarithmic symbols and their evaluation

def is_polylogarithmic(g: IGenerator) -> bool:
    """True when the consecutive ratios of the nonzero marked points
    (endpoints at 0 dropped) form a chain of letter windows, all regular
    and ascending or all inverted and descending."""
    if not g.word:
        return True  # the unit symbol
    chain = [p for p in g.word if p != ZERO]
    if g.start != ZERO:
        chain = [g.start] + chain
    if g.end != ZERO:
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


def _phi_series(start, letters, end, shape):
    """Series of the zero-stripped skeleton of a path that starts or ends
    at 0, in the variables of the truncated-series shape."""
    d = len(letters)
    zero_series = shape._like()
    if start == ZERO and end == ZERO:
        return zero_series if d else shape.constant(1)
    if end == ZERO:
        inner = TruncatedSeries(shape.sort, shape.caps[::-1])
        rev = _phi_series(ZERO, letters[::-1], start, inner)
        images = {r: [(d - r, -1)] for r in range(d + 1)}
        return rev.substitute(images, shape) * (-1) ** d
    out = shape.constant(1)
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
            block.append(((w[0], w[1]), w[2], [(k + 1, 1), (0, -1)]))
        norm = _normalize_block(block)
        if norm is None:
            return zero_series
        indices, targs, inverted = norm
        out = _bracket_series(shape, indices, targs, inverted)
        out = out * (-1) ** d
    window = _interval(end)
    if window is not None:
        out = out * _window_exp(shape.caps, shape.total, shape.sort,
                                window, True, 0)
    return out


@memo
def phi(g: IGenerator) -> Element:
    """Evaluate one polylogarithmic symbol into the inverted bracket
    algebra."""
    if not is_polylogarithmic(g):
        raise ValueError(f"{g!r} is not polylogarithmic")
    if g.start != ZERO and g.end != ZERO:
        return phi_element(gamma_gen(g)).frozen()
    runs = [0]
    letters = []
    for p in g.word:
        if p == ZERO:
            runs[-1] += 1
        else:
            letters.append(p)
            runs.append(0)
    caps = tuple(runs)
    shape = TruncatedSeries(HBAR, caps)
    series = _phi_series(g.start, tuple(letters), g.end, shape)
    return series.coefficient(caps).frozen()


def phi_element(e: Element) -> Element:
    return extend(e, phi, Element.one(HBAR))


def _phi_monomial(mon) -> Element:
    return phi_element(Element.from_monomial(mon, ITER))


def phi_morphism_ok(g: IGenerator) -> bool:
    """(phi (x) phi) after the subsequence coproduct agrees with the
    bracket coproduct after phi."""
    lhs = (i_coproduct_gen(g)
           .map_slot(0, _phi_monomial, sort=HBAR)
           .map_slot(1, _phi_monomial, sort=HBAR))
    return lhs == coproduct_bar(phi(g))


def canonical_symbol(indices, weights) -> IGenerator:
    """The symbol whose evaluation is (-1)^depth times the bracket with
    the given windows and weights."""
    top = indices[-1] - 1
    word = []
    for p, n in zip(indices[:-1], weights):
        word.append(InvProduct(p, top))
        word.extend([ZERO] * (n - 1))
    return IGenerator(ZERO, tuple(word), ONE)

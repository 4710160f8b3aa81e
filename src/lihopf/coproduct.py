"""Structure maps of the two bracket Hopf algebras.

The coproduct of a bracket is extracted from a generating-series identity:
a bracket with weights (n_1,...,n_d) is the coefficient of
prod_r t_r^(n_r - 1) in its generating function, and the coproduct of the
generating function is an explicit finite sum of products of (i) brackets
whose letters are merged windows, (ii) brackets in inverted letters, and
(iii) exponentials of weight-one letters.  We therefore compute inside a
polynomial ring truncated at per-variable degree n_r - 1 (multiplication
only ever raises degrees, so truncation is exact) and read off one
coefficient at the end.

The inversion map INV is computed the same way from its recursive series
formula; the recursion introduces explicit divisions by t_j, which are
performed only after checking that the numerator vanishes identically at
t_j = 0.  Each recursive series is kept only on the exponents its caller
reads (a per-variable cap and a total-degree cap, derived from the one
coefficient read at the end; see ``_inv_series``), one degree higher in
t_j before a division by t_j, so those divisions are exact as well.
"""

from .algebra import (
    H,
    HBAR,
    LOG,
    Element,
    expand_log,
    gen_elem,
    li,
)
from .lincomb import extend, memo
from .series import TruncatedSeries
# ``derive`` lives in tensor, next to the letters it is written in; it is
# re-exported here because perfbench's tracer wraps lihopf.coproduct.derive
from .tensor import Tensor, derive

# ---------------------------------------------------------------------------
# display letters and window bookkeeping
#
# Internally a bracket is a word of "letters", each letter a window (lo, hi)
# of consecutive variables, possibly inverted.  For a regular bracket the
# display order is the stored order; for an inverted bracket the display
# order runs through the inverses of the stored windows from right to left,
# and the weight displayed at slot r is the stored weight of the mirrored
# slot.  All series below are indexed by display slots.


def _display_letters(g):
    d = g.depth
    p = g.indices
    n = g.weights
    if not g.inverted:
        letters = [((p[r], p[r + 1]), False) for r in range(d)]
        caps = tuple(w - 1 for w in n)
    else:
        letters = [((p[d - 1 - r], p[d - r]), True) for r in range(d)]
        caps = tuple(n[d - 1 - r] - 1 for r in range(d))
    return letters, caps


def _merge(letters, a, b):
    """The product letter of display slots a..b-1 (1-based, a < b)."""
    sub = letters[a - 1:b - 1]
    if not sub[0][1]:
        # regular letters chain left to right
        for (w1, _), (w2, _) in zip(sub, sub[1:]):
            assert w1[1] == w2[0]
        return (sub[0][0][0], sub[-1][0][1]), False
    # inverted letters chain right to left
    for (w1, _), (w2, _) in zip(sub, sub[1:]):
        assert w2[1] == w1[0]
    return (sub[-1][0][0], sub[0][0][1]), True


def _normalize_block(block):
    """Convert a display-ordered bracket [(window, inverse, targ), ...] to
    stored form (indices, targs, inverted).  Returns None if the bracket
    contains a unit letter (such brackets vanish identically)."""
    if not block:
        return (), [], False
    if any(w[0] == w[1] for w, _, _ in block):
        return None
    inv = block[0][1]
    if any(isinv != inv for _, isinv, _ in block):
        raise AssertionError("mixed regular/inverted letters in one bracket")
    seq = list(reversed(block)) if inv else block
    indices = [seq[0][0][0]]
    for w, _, _ in seq:
        if w[0] != indices[-1]:
            raise AssertionError("letters do not chain")
        indices.append(w[1])
    return tuple(indices), [t for _, _, t in seq], inv


def _bracket_series(shape, indices, targs, inverted, sort):
    """The generating series of a bracket whose slot u carries the linear
    form targs[u]: sum over all weights m_u >= 1 of
    [indices]_{m} * prod targs[u]^(m_u - 1), truncated like ``shape``."""
    one = TruncatedSeries.constant(1, shape.nvars, sort,
                                   shape.caps, shape.total_cap)
    if not targs:
        return one
    lfs = [one.linear_form(t) for t in targs]
    out = [TruncatedSeries(shape.nvars, sort, shape.caps, shape.total_cap)]

    def rec(u, weights, acc):
        if u == len(targs):
            out[0] = out[0] + acc * gen_elem(li(indices, weights, inverted), sort)
            return
        cur = acc
        m = 1
        while True:
            rec(u + 1, weights + (m,), cur)
            nxt = cur * lfs[u]
            if not nxt.terms:
                break
            cur = nxt
            m += 1

    rec(0, (), one)
    return out[0]


def _ij_choices(d):
    """All ways to pick 1 <= i_1 <= j_1 < i_2 <= j_2 < ... <= j_k <= d,
    yielded as tuples of (i, j) pairs (including the empty choice)."""
    def rec(lo, acc):
        yield tuple(acc)
        for i in range(lo, d + 1):
            for j in range(i, d + 1):
                acc.append((i, j))
                yield from rec(j + 1, acc)
                acc.pop()
    yield from rec(1, [])


# ---------------------------------------------------------------------------
# the big-algebra coproduct

@memo
def _coproduct_bar_generator(g):
    one = Element.one(HBAR)
    if g.kind == LOG:
        e = gen_elem(g, HBAR)
        return (Tensor.of(e, one) + Tensor.of(one, e)).frozen()

    letters, caps = _display_letters(g)
    d = len(letters)
    shape = TruncatedSeries(d, HBAR, caps=caps)
    target = caps
    out = Tensor.zero((HBAR, HBAR))

    for pairs in _ij_choices(d):
        # ---- left tensor factor: merged windows at the marked variables
        left_block = []
        for a, (i, j) in enumerate(pairs):
            i_next = pairs[a + 1][0] if a + 1 < len(pairs) else d + 1
            w, inv = _merge(letters, i, i_next)
            left_block.append((w, inv, [(j - 1, 1)]))
        L = _bracket_series(shape, *_normalize_block(left_block), HBAR)

        # ---- right tensor factor: one block per marked slot, plus the
        # unmarked prefix (the boundary block always sits at j_0 = 0, since
        # any other choice puts the unit letter inside a bracket)
        sign = 1
        i1 = pairs[0][0] if pairs else d + 1
        pre = [(letters[r - 1][0], letters[r - 1][1], [(r - 1, 1)])
               for r in range(1, i1)]
        R = _bracket_series(shape, *_normalize_block(pre), HBAR)
        for a, (i, j) in enumerate(pairs):
            i_next = pairs[a + 1][0] if a + 1 < len(pairs) else d + 1
            sign *= (-1) ** (j - i)
            w, inv = _merge(letters, i, i_next)
            R = R * shape.exp_linear(
                expand_log(w[0], w[1], HBAR, inverse=inv), [(j - 1, 1)])
            # letters strictly between i and j, inverted, seen from t_j
            invblock = [(letters[r - 1][0], not letters[r - 1][1],
                         [(j - 1, 1), (r - 1, -1)])
                        for r in range(j - 1, i - 1, -1)]
            nb = _normalize_block(invblock)
            R = R * _bracket_series(shape, *nb, HBAR)
            # letters strictly between j and the next i, regular, from t_j
            regblock = [(letters[r - 1][0], letters[r - 1][1],
                         [(r - 1, 1), (j - 1, -1)])
                        for r in range(j + 1, i_next)]
            R = R * _bracket_series(shape, *_normalize_block(regblock), HBAR)

        for e, ce in L.terms.items():
            f = tuple(t - x for t, x in zip(target, e))
            if any(x < 0 for x in f):
                continue
            cf = R.coefficient(f)
            if cf.is_zero():
                continue
            out = out + Tensor.of(ce, cf) * sign

    return out.frozen()


def coproduct_bar(e):
    """The coproduct of the extended algebra, on any Element."""
    one = Element.one(HBAR)
    return extend(e, _coproduct_bar_generator, Tensor.of(one, one))


# ---------------------------------------------------------------------------
# inversion

def _demand(shape, vars_):
    """The exponents a caller reads from a series in vars_, as canonical
    (caps, total_cap): the set {e <= caps, |e| <= total_cap} of ``shape``
    with every other variable capped at 0, no cap above the total and no
    total above the sum of the caps.  Equal sets get equal keys."""
    total = shape.total_cap
    caps = shape.caps
    if caps is None:
        caps = (total,) * shape.nvars
    live = set(vars_)
    caps = tuple(min(c, total) if v in live else 0
                 for v, c in enumerate(caps))
    return caps, min(total, sum(caps))


def _reshape(s, caps, total_cap):
    """s truncated like (caps, total_cap) instead of its own shape."""
    return TruncatedSeries(s.nvars, s.sort, caps, total_cap, s.terms)


def _inv_series(p, vars_, shape):
    """Series form of the inversion of the bracket with stored windows
    (p_0..p_1, ..., p_{m-1}..p_m), where stored slot u is paired with the
    series variable vars_[u].

    The result is exact on the exponents the caller reads, given by
    ``shape`` as {e <= c, |e| <= T} (see ``_demand``; the total cap T is
    required, the caps c are not).  Each sub-series is computed only on
    the exponents this call reads from it:

    * leading term A * B: products never lower an exponent, so A and B
      are needed on the same set as the output;
    * pole term j, N / t_j: division by t_j shifts exponents down by one,
      so N is needed on c' = c + delta_{t_j} with total T + 1;
    * A inside a pole term enters N through A * B and through
      A(t_r - t_j) for r in vars_[:j-1].  The coefficient of the latter at
      f uses A only at exponents e with e_r >= f_r and
      sum(e_r - f_r) = f_{t_j}, so A is needed on caps c'_r + c'_{t_j}
      with total T + 1.  A is restricted to N's set before forming A * B.

    N's set holds every e_{t_j} = 0 exponent of its box, so the check that
    N vanishes at t_j = 0 still runs over the whole kept range.
    """
    caps, total = _demand(shape, vars_)
    return _inv_series_on(p, tuple(vars_), shape.nvars, caps, total)


@memo
def _inv_series_on(p, vars_, nvars, caps, total):
    """``_inv_series`` on the canonical demand (caps, total), which is
    its cache key: shapes that read the same exponents share one series."""
    m = len(p) - 1
    if m == 0:
        return TruncatedSeries.constant(1, nvars, H, caps, total).frozen()

    shape = TruncatedSeries(nvars, H, caps, total)
    out = shape
    full_log = expand_log(p[0], p[-1], H)

    # leading sum: inverted head of length j times the regular tail
    for j in range(0, m):
        sgn = (-1) ** (m - 1 + j)
        A = _reshape(_inv_series(p[:j + 1], vars_[:j], shape), caps, total)
        B = _bracket_series(shape, p[j:], [[(v, 1)] for v in vars_[j:]],
                            False, H)
        out = out + A * B * sgn

    # pole pairs: the two sums over j with 1/t_j prefactors cancel exactly
    # at t_j = 0, so each pair is combined first and divided afterwards
    for j in range(1, m + 1):
        sgn = (-1) ** (m - 1 + j)
        tj = vars_[j - 1]
        ncaps = caps[:tj] + (caps[tj] + 1,) + caps[tj + 1:]
        nshape = TruncatedSeries(nvars, H, ncaps, total + 1)
        acaps = tuple(c + ncaps[tj] for c in ncaps)
        A = _inv_series(p[:j], vars_[:j - 1],
                        TruncatedSeries(nvars, H, acaps, total + 1))
        B = _bracket_series(nshape, p[j:],
                            [[(v, 1)] for v in vars_[j:]], False, H)
        N = _reshape(A, ncaps, total + 1) * B
        images = {v: [(v, 1)] for v in range(nvars)}
        for r in range(j - 1):
            images[vars_[r]] = [(vars_[r], 1), (tj, -1)]
        Ap = A.substitute(images, nvars, ncaps, total + 1)
        E = nshape.exp_linear(full_log, [(tj, 1)])
        Bp = _bracket_series(nshape, p[j:],
                             [[(vars_[r], 1), (tj, -1)] for r in range(j, m)],
                             False, H)
        N = N - Ap * E * Bp
        N = N.divide_var(tj)   # raises if the cancellation at t_j=0 failed
        out = out + N * sgn

    return out.frozen()


@memo
def inv_generator(g):
    """Inversion of a single generator: fixes regular ones, rewrites an
    inverted bracket as a plain-sort element."""
    if not g.inverted:
        return gen_elem(g, H).frozen()
    d = g.depth
    n = g.weights
    # the one coefficient read is at t^(n-1)
    target = tuple(w - 1 for w in n)
    shape = TruncatedSeries(d, H, caps=target, total_cap=sum(target))
    val = _inv_series(g.indices, list(range(d)), shape).coefficient(target)
    if sum(target) % 2:
        # the stored-form extraction pairs each t with a minus sign
        val = -val
    return val.frozen()


def _inv_monomial(mon):
    return extend(Element.from_monomial(mon, HBAR), inv_generator,
                  Element.one(H))


def inv_element(e):
    """Inversion applied to a whole Element (multiplicatively)."""
    return extend(e, inv_generator, Element.one(H))


# ---------------------------------------------------------------------------
# the plain-sort coproduct and friends

def coproduct_h(e):
    """Coproduct on the plain sort: the big-algebra coproduct with the
    inversion map applied to every right-hand factor."""
    t = coproduct_bar(e)
    t = t.map_slot(1, _inv_monomial, sort=H)
    t = t.map_slot(0, lambda mon: Element.from_monomial(mon, H), sort=H)
    return t


def coproduct(e):
    """Sort-directed dispatch between the two coproducts."""
    if e.sort == HBAR:
        return coproduct_bar(e)
    return coproduct_h(e)


def reduced_coproduct(e):
    """The coproduct minus its primitive boundary terms."""
    t = coproduct(e)
    one = Element.one(e.sort)
    t = t - Tensor.of(e, one) - Tensor.of(one, e)
    eps = e.constant_term()
    if eps:
        t = t + Tensor.of(one, one) * eps
    return t


def cobracket_rep(e):
    """Representative of the induced cobracket on indecomposables: the
    reduced coproduct itself (weight-homogeneous input of weight >= 2)."""
    parts = e.weight_parts()
    if list(parts) in ([], [0]):
        raise ValueError("cobracket needs positive weight")
    if len(parts) != 1 or min(parts) < 2:
        raise ValueError("cobracket needs homogeneous weight >= 2")
    return reduced_coproduct(e)


# ---------------------------------------------------------------------------
# antipode

@memo
def _antipode_generator(g, sort):
    e = gen_elem(g, sort)
    acc = -e
    for (ml, mr), c in reduced_coproduct(e).terms.items():
        acc = acc - (antipode(Element.from_monomial(ml, sort))
                     * Element.from_monomial(mr, sort)) * c
    return acc.frozen()


def antipode(e):
    """The antipode of the Hopf algebra named by e's sort."""
    return extend(e, lambda g: _antipode_generator(g, e.sort),
                  Element.one(e.sort))

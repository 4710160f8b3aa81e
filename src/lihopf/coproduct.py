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

Both series depend on a bracket's placement (its indices, and whether it
is inverted), not on its weights, which only pick the coefficient read.
Generators needed together are therefore batched by placement: each
group's series is built once, on the join of its members' boxes (caps
the per-slot maximum of their n - 1, total the largest |n - 1|), and
every member reads its own coefficient off it.  The join keeps every
exponent of every member's box, and the series are exact on whatever
shape they keep, so a member reads the value it would read alone.  The two
coproducts and the inversion each have one per-generator store
(``batch_memo``), the one route to their values, which computes only the
generators it does not hold; the plain-sort store fills its misses from the
other two.  ``coproduct_bar``, ``coproduct_h`` and ``inv_element`` ask
theirs for the generators of their argument, ``coproduct_generators`` (and
so ``build_V``) for a whole set, and ``inv_generator`` for one.
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
from .lincomb import batch_memo, collect, extend, memo
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


def _bracket_series(shape, indices, targs, inverted):
    """The generating series of a bracket whose slot u carries the linear
    form targs[u]: sum over all weights m_u >= 1 of
    [indices]_{m} * prod targs[u]^(m_u - 1), truncated like ``shape``.

    The forms have int coefficients, so every product of them is an int
    series over den 1; each weight tuple names its own bracket, so the
    terms of distinct weights are disjoint and are stored, not summed."""
    one = shape.constant(1)
    if not targs:
        return one
    lfs = [one.linear_form(t) for t in targs]
    if any(lf.den != 1 for lf in lfs):
        raise ValueError("bracket series forms need int coefficients")
    terms = {}

    def fill(u, weights, acc):
        if u == len(targs):
            tag = shape._monomial_key((li(indices, weights, inverted),))
            terms.update((k | tag, c) for k, c in acc.terms.items())
            return
        m = 1
        while acc.terms:
            fill(u + 1, weights + (m,), acc)
            acc = acc * lfs[u]
            m += 1

    fill(0, (), one)
    return shape._new(terms, 1)


@memo
def _window_exp(caps, total, sort, window, inverse, v):
    """exp(t_v [x_window]_0), the letter inverted if ``inverse``, as a
    series of shape (caps, total) and sort ``sort``."""
    return TruncatedSeries(sort, caps, total).exp_linear(
        expand_log(*window, sort, inverse=inverse), [(v, 1)]).frozen()


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
# placement batches


def _by_placement(gens, placement):
    """The distinct generators gens grouped by placement(g), groups and
    members in first-seen order (never a set's order: a generator hashes
    its kind string, so that order moves with the hash seed)."""
    groups = {}
    for g in gens:
        groups.setdefault(placement(g), []).append(g)
    return groups.values()


def _join(targets):
    """(caps, total) of the smallest shape that keeps every box
    {e <= target}: the per-slot maximum and the largest |target|."""
    return tuple(map(max, zip(*targets))), max(map(sum, targets))


# ---------------------------------------------------------------------------
# the big-algebra coproduct

@batch_memo
def _coproduct_bar_generators(gens):
    """{g: bar coproduct of g} for every generator of gens.  Brackets are
    batched by placement: each (i, j) choice's series are built once per
    group, on the join of the members' boxes, and every member reads its
    own coefficient t^caps off them."""
    one = Element.one(HBAR)
    zero = Tensor.zero((HBAR, HBAR))
    out = {}
    brackets = []
    for g in gens:
        if g.kind == LOG:
            e = gen_elem(g, HBAR)
            out[g] = Tensor.of(e, one) + Tensor.of(one, e)
        else:
            brackets.append(g)
    for group in _by_placement(brackets, lambda g: (g.indices, g.inverted)):
        letters = _display_letters(group[0])[0]
        targets = [_display_letters(g)[1] for g in group]
        shape = TruncatedSeries(HBAR, *_join(targets))
        accs = [{} for _ in group]
        for pairs in _ij_choices(len(letters)):
            sign, L, R = _bar_choice_series(letters, shape, pairs)
            left, right = L.coefficients(), R.coefficients()
            for target, acc in zip(targets, accs):
                for e, ce in left.items():
                    cf = right.get(tuple(t - x for t, x in zip(target, e)))
                    if cf is not None:
                        collect((Tensor.of(ce, cf) * sign).terms.items(), acc)
        for g, acc in zip(group, accs):
            out[g] = zero._new(acc)
    return out


def _bar_choice_series(letters, shape, pairs):
    """(sign, L, R) for one (i, j) choice of the bracket with these display
    letters: the product L * R, read at t^caps, is what the choice adds
    to the coproduct of the bracket of weights caps + 1."""
    d = len(letters)
    # ---- left tensor factor: merged windows at the marked variables
    left_block = []
    for a, (i, j) in enumerate(pairs):
        i_next = pairs[a + 1][0] if a + 1 < len(pairs) else d + 1
        w, inv = _merge(letters, i, i_next)
        left_block.append((w, inv, [(j - 1, 1)]))
    L = _bracket_series(shape, *_normalize_block(left_block))

    # ---- right tensor factor: one block per marked slot, plus the
    # unmarked prefix (the boundary block always sits at j_0 = 0, since
    # any other choice puts the unit letter inside a bracket)
    sign = 1
    i1 = pairs[0][0] if pairs else d + 1
    pre = [(letters[r - 1][0], letters[r - 1][1], [(r - 1, 1)])
           for r in range(1, i1)]
    R = _bracket_series(shape, *_normalize_block(pre))
    for a, (i, j) in enumerate(pairs):
        i_next = pairs[a + 1][0] if a + 1 < len(pairs) else d + 1
        sign *= (-1) ** (j - i)
        w, inv = _merge(letters, i, i_next)
        R = R * _window_exp(shape.caps, shape.total, HBAR, w, inv, j - 1)
        # letters strictly between i and j, inverted, seen from t_j
        invblock = [(letters[r - 1][0], not letters[r - 1][1],
                     [(j - 1, 1), (r - 1, -1)])
                    for r in range(j - 1, i - 1, -1)]
        nb = _normalize_block(invblock)
        R = R * _bracket_series(shape, *nb)
        # letters strictly between j and the next i, regular, from t_j
        regblock = [(letters[r - 1][0], letters[r - 1][1],
                     [(r - 1, 1), (j - 1, -1)])
                    for r in range(j + 1, i_next)]
        R = R * _bracket_series(shape, *_normalize_block(regblock))
    return sign, L, R


def coproduct_bar(e):
    """The coproduct of the extended algebra, on any Element."""
    one = Element.one(HBAR)
    bars = _coproduct_bar_generators(g for mon in e.terms for g in mon)
    return extend(e, bars.__getitem__, Tensor.of(one, one))


# ---------------------------------------------------------------------------
# inversion

def _inv_series(p, vars_, shape):
    """Series form of the inversion of the bracket with stored windows
    (p_0..p_1, ..., p_{m-1}..p_m), where stored slot u is paired with the
    series variable vars_[u].

    The result is exact on the exponents of ``shape``, {e <= c, |e| <= T};
    a variable outside vars_ has exponent 0 throughout, so its cap is
    zeroed first.  Each sub-series is computed only on the exponents this
    call reads from it:

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
    live = set(vars_)
    demand = TruncatedSeries(H, [c if v in live else 0
                                 for v, c in enumerate(shape.caps)],
                             shape.total)
    return _inv_series_on(p, tuple(vars_), demand.caps, demand.total)


@memo
def _inv_series_on(p, vars_, caps, total):
    """``_inv_series`` on the canonical shape (caps, total), which is its
    cache key: shapes that read the same exponents share one series."""
    shape = TruncatedSeries(H, caps, total)
    m = len(p) - 1
    if m == 0:
        return shape.constant(1).frozen()

    def terms():
        # leading sum: inverted head of length j times the regular tail
        for j in range(0, m):
            sgn = (-1) ** (m - 1 + j)
            A = shape._conform(_inv_series(p[:j + 1], vars_[:j], shape))
            B = _bracket_series(shape, p[j:], [[(v, 1)] for v in vars_[j:]],
                                False)
            yield A * B * sgn

        # pole pairs: the two sums over j with 1/t_j prefactors cancel
        # exactly at t_j = 0, so each pair is combined first and divided
        # afterwards
        for j in range(1, m + 1):
            sgn = (-1) ** (m - 1 + j)
            tj = vars_[j - 1]
            ncaps = caps[:tj] + (caps[tj] + 1,) + caps[tj + 1:]
            nshape = TruncatedSeries(H, ncaps, total + 1)
            acaps = tuple(c + ncaps[tj] for c in ncaps)
            A = _inv_series(p[:j], vars_[:j - 1],
                            TruncatedSeries(H, acaps, total + 1))
            B = _bracket_series(nshape, p[j:],
                                [[(v, 1)] for v in vars_[j:]], False)
            N = nshape._conform(A) * B
            images = {v: [(v, 1)] for v in range(len(caps))}
            for r in range(j - 1):
                images[vars_[r]] = [(vars_[r], 1), (tj, -1)]
            Ap = A.substitute(images, nshape)
            E = _window_exp(nshape.caps, nshape.total, H, (p[0], p[-1]), False,
                            tj)
            Bp = _bracket_series(nshape, p[j:], [[(vars_[r], 1), (tj, -1)]
                                                 for r in range(j, m)], False)
            N = N - Ap * E * Bp
            yield N.divide_var(tj) * sgn  # raises if t_j = 0 left a pole

    return shape.sum(terms()).frozen()


def inv_generator(g):
    """Inversion of a single generator: fixes regular ones, rewrites an
    inverted bracket as a plain-sort element."""
    return _inv_generators((g,))[g]


@batch_memo
def _inv_generators(gens):
    """{g: inversion of g} for every generator of gens.  Inverted brackets
    are batched by placement: each group's series is built once, on the
    join of the members' boxes, and every member reads its one
    coefficient t^(n-1) off it."""
    out = {}
    inverted = []
    for g in gens:
        if g.inverted:
            inverted.append(g)
        else:
            out[g] = gen_elem(g, H)
    for group in _by_placement(inverted, lambda g: g.indices):
        p = group[0].indices
        targets = [tuple(w - 1 for w in g.weights) for g in group]
        shape = TruncatedSeries(H, *_join(targets))
        read = _inv_series(p, list(range(len(p) - 1)), shape).coefficients()
        for g, target in zip(group, targets):
            val = read.get(target) or Element.zero(H)
            if sum(target) % 2:
                # the stored-form extraction pairs each t with a minus sign
                val = -val
            out[g] = val
    return out


def inv_element(e):
    """Inversion applied to a whole Element (multiplicatively)."""
    inv = _inv_generators(g for mon in e.terms for g in mon)
    return extend(e, inv.__getitem__, Element.one(H))


# ---------------------------------------------------------------------------
# the plain-sort coproduct and friends

@batch_memo
def _coproduct_h_generators(gens):
    """{g: plain-sort coproduct of g} for every generator of gens: their
    bar coproducts are one batch, the inversions of all right-hand factors
    another; a left-hand factor is read in H, so an inverted one raises."""
    bars = _coproduct_bar_generators(gens)
    inv = _inv_generators(h for t in bars.values() for _, rmon in t.terms
                          for h in rmon)
    one = Element.one(H)

    def right(mon):
        return extend(Element.from_monomial(mon, HBAR), inv.__getitem__, one)
    return {g: t.map_slot(1, right, sort=H)
            .map_slot(0, lambda mon: Element.from_monomial(mon, H), sort=H)
            for g, t in bars.items()}


def coproduct_h(e):
    """The plain-sort coproduct: the bar coproduct, right factors inverted."""
    one = Element.one(H)
    plain = _coproduct_h_generators(g for mon in e.terms for g in mon)
    return extend(e, plain.__getitem__, Tensor.of(one, one))


def coproduct_generators(gens, sort):
    """{g: coproduct of the generator g in the given sort} for every
    generator of gens, read from that sort's store as one batch."""
    if sort not in (H, HBAR):
        raise ValueError("no bracket coproduct on sort %r" % (sort,))
    return (_coproduct_bar_generators if sort == HBAR
            else _coproduct_h_generators)(gens)


def coproduct(e):
    """Sort-directed dispatch between the two bracket coproducts."""
    if e.sort == HBAR:
        return coproduct_bar(e)
    if e.sort == H:
        return coproduct_h(e)
    raise ValueError("no bracket coproduct on sort %r" % (e.sort,))


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
    return (-e).sum(antipode(Element.from_monomial(ml, sort))
                    * Element.from_monomial(mr, sort) * -c
                    for (ml, mr), c in reduced_coproduct(e).terms.items()
                    ).frozen()


def antipode(e):
    """The antipode of the Hopf algebra named by e's sort."""
    return extend(e, lambda g: _antipode_generator(g, e.sort),
                  Element.one(e.sort))

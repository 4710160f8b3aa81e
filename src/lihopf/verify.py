"""Named verification suites with timed pass/fail reports.

Each suite re-derives a family of exact identities from scratch: frozen
example values, algebraic laws swept over bounded generator sets, and
seeded numeric spot checks.  A failing case is recorded with the
offending input and both sides of the identity; a report passes exactly
when its failure list is empty.  The ``verify`` subcommand of the
command line drives these suites; they intentionally duplicate (rather
than import) the unit-test goldens so either copy can catch a bad edit
of the other.
"""

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import add

from . import expr
from .algebra import (
    H,
    HBAR,
    Element,
    apply_contraction,
    compose,
    expand_log,
    gen_elem,
    li,
    log,
    precede,
)
from .coproduct import (
    antipode,
    coproduct,
    coproduct_bar,
    coproduct_h,
    inv_element,
    inv_generator,
    reduced_coproduct,
)
from .forms import (
    Form,
    Poly,
    eta_tensor,
    point_residual,
    poly_to_element,
    pullback_form,
    sample_point,
    tangent_basis,
    w_element,
    w_tensor,
)
from .iterint import (
    IGenerator,
    InvProduct,
    ONE,
    ZERO,
    canonical_symbol,
    is_polylogarithmic,
    i_coproduct,
    phi,
    phi_morphism_ok,
    subsequence_entry,
    subsequence_keys,
)
from .lincomb import collect
from .tensor import (Tensor, WordSum, grouplike_ok, project_pi, symbol, u_,
                     v_)
from .variation import (
    antipode_ok,
    build_V,
    chain_map_ok,
    corollary_form_ok,
    curvature_identity_ok,
    derivation_ok,
    hat_derivation_ok,
    omega_form_matrix,
    omega_hat,
    omega_matrix,
    recurrence_ok,
    v_hat,
    w_closed_form,
    w_of_V,
)


# ---------------------------------------------------------------------------
# reports

@dataclass
class Report:
    """Outcome of one suite: case count, failures, wall time."""

    suite: str
    cases: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self):
        return not self.failures

    def check(self, label, ok):
        self.cases += 1
        if not ok:
            self.failures.append("%s: law violated" % label)

    def check_eq(self, label, got, want):
        self.cases += 1
        if got != want:
            self.failures.append(
                "%s: %s != %s" % (label, expr.render(got, "text"),
                                   expr.render(want, "text")))

    def summary(self):
        word = "pass" if self.passed else "FAIL"
        return "%-12s %s  (%d cases, %d failures, %.2fs)" % (
            self.suite, word, self.cases, len(self.failures), self.seconds)


_SUITES = {}


def suite(name, description):
    def wrap(fn):
        _SUITES[name] = (fn, description)
        return fn
    return wrap


def suite_names():
    return list(_SUITES)


def suite_description(name):
    return _SUITES[name][1]


def run_suite(name, max_weight=None, max_depth=None, seed=0):
    """Run one suite; failures come back sorted for stable output."""
    if name not in _SUITES:
        raise KeyError("unknown suite %r (known: %s)"
                       % (name, ", ".join(_SUITES)))
    fn, _ = _SUITES[name]
    rep = Report(suite=name)
    start = time.perf_counter()
    fn(rep, max_weight=max_weight, max_depth=max_depth, seed=seed)
    rep.seconds = time.perf_counter() - start
    rep.failures.sort()
    return rep


def run_all(max_weight=None, max_depth=None, seed=0):
    return [run_suite(name, max_weight, max_depth, seed) for name in _SUITES]


# ---------------------------------------------------------------------------
# bounded generator sweeps.  A depth-d bracket takes d+1 strictly increasing
# indices; drawing them from {1..d+2} exhausts every window pattern up to
# relabeling while keeping the sweep small.

def weight_tuples(max_total, depth):
    for wts in itertools.product(range(1, max_total + 1), repeat=depth):
        if sum(wts) <= max_total:
            yield wts


def bracket_generators(max_weight, max_depth, include_inverted=True):
    out = []
    for d in range(1, max_depth + 1):
        if d > max_weight:
            break
        for idx in itertools.combinations(range(1, d + 3), d + 1):
            for wts in weight_tuples(max_weight, d):
                out.append(li(idx, wts))
                if include_inverted:
                    out.append(li(idx, wts, inverted=True))
    return out


def _tensor_pairs(sort, *pairs):
    return Tensor.zero((sort, sort)).sum(Tensor.of(a, b) for a, b in pairs)


def _differences(M, table):
    """The keys (v, w) where the matrix M and the table differ, a pair
    missing from either standing for zero; only the nonzero entries of M
    and the pairs of the table are visited."""
    return [k for k in dict.fromkeys([*M.entries, *table])
            if M.entry(*k) != table.get(k, M.zero)]


def _block(keys, block):
    """The table of a 3 x 3 block at rows 3-5, columns 0-2 of keys."""
    return {(keys[3 + i], keys[j]): x for i, row in enumerate(block)
            for j, x in enumerate(row)}


# ---------------------------------------------------------------------------
# suite 1: frozen example values

@suite("golden", "frozen example values, exact equality")
def _suite_golden(rep, max_weight=None, max_depth=None, seed=0):
    half = Fraction(1, 2)

    def x1(n, sort=H):
        return gen_elem(li((1, 2), (n,)), sort)

    def x2(n, sort=H):
        return gen_elem(li((2, 3), (n,)), sort)

    def x12(n, sort=H):
        return gen_elem(li((1, 3), (n,)), sort)

    # -- extended coproduct at weights (3, 1)
    one_b = Element.one(HBAR)
    u1_b = gen_elem(log(1), HBAR)
    w0_b = gen_elem(log(1), HBAR) + gen_elem(log(2), HBAR)
    G = gen_elem(li((1, 2, 3), (3, 1)), HBAR)
    G21 = gen_elem(li((1, 2, 3), (2, 1)), HBAR)
    G11 = gen_elem(li((1, 2, 3), (1, 1)), HBAR)
    inv3 = gen_elem(li((1, 2), (3,), inverted=True), HBAR)
    want = (_tensor_pairs(HBAR, (G, one_b), (G21, u1_b),
                          (G11, u1_b * u1_b * half))
            + _tensor_pairs(
                HBAR,
                (x12(3, HBAR), x2(1, HBAR)),
                (x12(2, HBAR), -x2(2, HBAR) + x2(1, HBAR) * w0_b),
                (x12(1, HBAR), x2(3, HBAR) - x2(2, HBAR) * w0_b
                 + x2(1, HBAR) * w0_b * w0_b * half))
            - _tensor_pairs(HBAR, (x12(1, HBAR), inv3))
            + _tensor_pairs(HBAR, (x2(1, HBAR), x1(3, HBAR)), (one_b, G)))
    rep.check_eq("extended coproduct of Li[3,1](1,2,3)",
                 coproduct_bar(G), want)

    # -- plain coproduct at weights (3, 1)
    one_h = Element.one(H)
    u1_h = gen_elem(log(1), H)
    w0_h = gen_elem(log(1), H) + gen_elem(log(2), H)
    Gh = gen_elem(li((1, 2, 3), (3, 1)), H)
    G21h = gen_elem(li((1, 2, 3), (2, 1)), H)
    G11h = gen_elem(li((1, 2, 3), (1, 1)), H)
    want = (_tensor_pairs(H, (Gh, one_h), (G21h, u1_h),
                          (G11h, u1_h * u1_h * half))
            + _tensor_pairs(
                H,
                (x12(3), x2(1)),
                (x12(2), -x2(2) + x2(1) * w0_h),
                (x12(1), x2(3) - x2(2) * w0_h + x2(1) * w0_h * w0_h * half))
            - _tensor_pairs(H, (x12(1), x1(3) + u1_h ** 3 * Fraction(1, 6)))
            + _tensor_pairs(H, (x2(1), x1(3)), (one_h, Gh)))
    rep.check_eq("plain coproduct of Li[2,1](1,2,3) at weights (3,1)",
                 coproduct_h(Gh), want)

    # -- inversion of the stored (3, 1) inverted bracket
    got = inv_generator(li((1, 2, 3), (3, 1), inverted=True))
    x13, x14 = x1(3), x1(4)
    want = (-Gh
            + (x13 + u1_h ** 3 * Fraction(1, 6)) * x2(1)
            - (x2(1) * w0_h ** 3 * Fraction(1, 6)
               - x2(2) * w0_h ** 2 * half
               + x2(3) * w0_h - x2(4))
            + ((x13 + u1_h ** 3 * Fraction(1, 6)) * w0_h
               - 3 * (x14 + u1_h ** 4 * Fraction(1, 24))))
    rep.check_eq("inversion of ILi[1,3](1,2,3)", got, want)

    # -- symbols: depth one, weight-one letters, and the depth-two pair
    for n in range(1, 5):
        rep.check_eq("symbol of Li[%d](1,2)" % n,
                     symbol(x1(n)),
                     WordSum({(v_(1, 1),) + (u_(1),) * (n - 1): -1}))
    rep.check_eq("symbol of log(2)", symbol(gen_elem(log(2), H)),
                 WordSum({(u_(2),): 1}))
    rep.check_eq("symbol of Li[1](1,3)", symbol(x12(1)),
                 WordSum({(v_(1, 2),): -1}))
    rep.check_eq("symbol of Li[1,1](1,2,3)", symbol(G11h),
                 WordSum({(v_(1, 2), v_(2, 2)): 1,
                          (v_(1, 2), v_(1, 1)): -1,
                          (v_(1, 2), u_(1)): 1,
                          (v_(2, 2), v_(1, 1)): 1}))
    expand = {"w1": {v_(1, 2): Fraction(-1)},
              "w0": {u_(1): Fraction(1), u_(2): Fraction(1)},
              "a1": {v_(2, 2): Fraction(-1)}, "a0": {u_(2): Fraction(1)},
              "b1": {v_(1, 1): Fraction(-1)}, "b0": {u_(1): Fraction(1)}}
    table = [(1, ("w1", "w0", "a1")), (1, ("w1", "a1", "w0")),
             (-1, ("w1", "a1", "a0")), (-1, ("w1", "b1", "b0")),
             (-1, ("w1", "b0", "b0")), (1, ("a1", "b1", "b0"))]
    want = WordSum(collect(
        (tuple(sym for sym, _ in picks), c * math.prod(cl for _, cl in picks))
        for c, slots in table
        for picks in itertools.product(*(expand[s].items() for s in slots))))
    rep.check_eq("symbol of Li[2,1](1,2,3)", symbol(G21h), want)

    # -- one-forms: depth-one family and the depth-two value
    u1, u2 = u_(1), u_(2)
    v11, v22, v12 = v_(1, 1), v_(2, 2), v_(1, 2)
    for n in (2, 3, 4, 5):
        c = Fraction((-1) ** n, math.factorial(n))
        upow = (u1,) * (n - 2)
        want = Form(1, {(v11,): Poly({upow + (u1,): c}),
                        (u1,): Poly({tuple(sorted(upow + (v11,))): -c})})
        rep.check_eq("one-form of Li[%d](1,2)" % n, w_element(x1(n)), want)
    want = Form(1, {
        (u1,): Poly({(v12,): half}),
        (v11,): Poly({(v22,): half, (v12,): -half}),
        (v22,): Poly({(v12,): half, (v11,): -half}),
        (v12,): Poly({(u1,): -half, (v11,): half, (v22,): -half}),
    })
    rep.check_eq("one-form of Li[1,1](1,2,3)", w_element(G11h), want)

    # -- variation matrix at weights (2, 1), every entry
    P = Poly.variable
    zero_h = Element.zero(H)
    V = build_V((2, 1), H)
    table = {
        ((), ()): one_h,
        ((0, 1), ()): x2(1), ((0, 1), (0, 1)): one_h,
        ((1, 0), ()): x12(1), ((1, 0), (1, 0)): one_h,
        ((1, 1), ()): G11h, ((1, 1), (0, 1)): x1(1),
        ((1, 1), (1, 0)): -x1(1) - u1_h + x2(1),
        ((1, 1), (1, 1)): one_h,
        ((2, 0), ()): x12(2), ((2, 0), (1, 0)): w0_h,
        ((2, 0), (2, 0)): one_h,
        ((2, 1), ()): G21h, ((2, 1), (0, 1)): x1(2),
        ((2, 1), (1, 0)): -x1(2) - u1_h * u1_h * half - x2(2) + w0_h * x2(1),
        ((2, 1), (1, 1)): u1_h, ((2, 1), (2, 0)): x2(1),
        ((2, 1), (2, 1)): one_h,
    }
    rep.check_eq("variation matrix at weights (2,1)",
                 _differences(V, table), [])

    # -- connection matrix at weights (2, 1)
    om = omega_matrix(V)
    table = {
        ((0, 1), ()): -P(v22), ((1, 0), ()): -P(v12),
        ((1, 1), (0, 1)): -P(v11),
        ((1, 1), (1, 0)): -P(u1) + P(v11) - P(v22),
        ((2, 0), (1, 0)): P(u1) + P(u2),
        ((2, 1), (1, 1)): P(u1), ((2, 1), (2, 0)): -P(v22),
    }
    rep.check_eq("connection matrix at weights (2,1)",
                 _differences(om, table), [])

    # -- lifted depth-one column: hatted connection and hatted matrix
    V5 = build_V((5,), H)
    table = {((n,), ()): w_element(x1(n)).scale(Fraction(n - 1))
             for n in range(2, 6)}
    rep.check_eq("hatted connection for a depth-one column",
                 _differences(omega_hat(V5), table), [])
    vh = v_hat(V5)
    bad = []
    for k in range(1, 6):
        got = vh.entry((k,), ())
        want = poly_to_element(
            Poly({(u1,) * (k - 1) + (v11,):
                  Fraction(-((-1) ** k), math.factorial(k))}), H).sum(
            x1(k - r) * u1_h ** r * Fraction((-1) ** r, math.factorial(r))
            for r in range(k))
        if got != want:
            bad.append(k)
    rep.check_eq("hatted matrix first column, depth one", bad, [])

    # -- lifted block at weights (2, 1)
    V21 = build_V((2, 1), H)
    w11 = w_element(G11h)
    w21 = w_element(G21h)
    block = [[w11, Form(1), Form(1)],
             [w_element(x12(2)), Form(1), Form(1)],
             [w21.scale(Fraction(2)), w_element(x1(2)),
              (-w_element(x1(2))) - w_element(x2(2))]]
    rep.check_eq("hatted connection block at weights (2,1)",
                 _differences(omega_hat(V21), _block(V21.keys, block)), [])

    def lifted_depth_one(a, b):
        return (gen_elem(li((a, b), (2,)), H)
                - expand_log(a, b) * gen_elem(li((a, b), (1,)), H) * half)

    vh = v_hat(V21)
    L11 = poly_to_element(Poly({(u1, v12): -half, (v11, v12): half,
                                (v11, v22): -half, (v12, v22): -half}),
                          H) + G11h
    L21 = (poly_to_element(Poly({(u1, u1, v12): Fraction(1, 3),
                                 (u1, v11, v12): Fraction(-1, 3),
                                 (u1, v11, v22): Fraction(1, 3),
                                 (u1, v12, v22): Fraction(2, 3),
                                 (u2, v12, v22): Fraction(1, 3)}), H)
           + poly_to_element(P(v22), H) * x12(2)
           - poly_to_element(P(u1), H) * G11h + G21h)
    block = [[L11, zero_h, zero_h],
             [lifted_depth_one(1, 3), zero_h, zero_h],
             [L21, lifted_depth_one(1, 2),
              -lifted_depth_one(1, 2) - lifted_depth_one(2, 3)]]
    table = {(k, k): one_h for k in V21.keys}
    table.update(_block(V21.keys, block))
    rep.check_eq("hatted matrix block at weights (2,1)",
                 _differences(vh, table), [])

    # -- the commutator recurrence, spot instances
    rep.check("commutator recurrence at weights (2,1)",
              recurrence_ok(V21))
    rep.check("closed one-form formula at weights (2,1)",
              corollary_form_ok((2, 1)))

    # -- evaluation of iterated integrals: the three closed-form families
    la = expand_log(1, 3, HBAR, inverse=True)
    for n in range(4):
        g = IGenerator(ZERO, (ZERO,) * n, InvProduct(1, 2))
        want = Element.constant(Fraction(1, math.factorial(n)), HBAR)
        for _ in range(n):
            want = want * la
        rep.check_eq("path of %d zeros into 1/(x1 x2)" % n, phi(g), want)
    for idx, wts in [((1, 2), (1,)), ((1, 2), (3,)), ((2, 3), (2,)),
                     ((1, 3), (2,)), ((1, 2, 3), (1, 1)),
                     ((1, 2, 3), (2, 1)), ((1, 2, 4), (1, 2)),
                     ((1, 2, 3, 4), (1, 1, 1))]:
        g = canonical_symbol(idx, wts)
        want = gen_elem(li(idx, wts), HBAR) * Fraction((-1) ** len(wts))
        rep.check_eq("canonical path for Li%s%s" % (list(wts), list(idx)),
                     phi(g), want)
    for n0, ps, wts, top in [(2, (1, 2), (1,), 2), (3, (1, 2), (1,), 2),
                             (2, (1, 2), (2,), 3), (2, (1, 2, 3), (1, 1), 3),
                             (1, (2, 3), (2,), 4), (3, (1, 3), (1,), 3)]:
        d = len(wts)
        pts = [InvProduct(p, top) for p in ps]
        word = [ZERO] * (n0 - 1)
        for r in range(d):
            word.append(pts[r])
            word.extend([ZERO] * (wts[r] - 1))
        g = IGenerator(ZERO, tuple(word), pts[d])
        la = expand_log(ps[d], top + 1, HBAR, inverse=True)
        # the first split zeros stay in front as powers of la; the rest
        # raise the weights
        want = Element.zero(HBAR).sum(
            la ** i0 * Fraction((-1) ** i0, math.factorial(i0))
            * math.prod(math.comb(m + i - 1, m - 1) for m, i in zip(wts, rest))
            * gen_elem(li(ps, tuple(map(add, wts, rest))), HBAR)
            for i0, *rest in itertools.product(range(n0), repeat=d + 1)
            if i0 + sum(rest) == n0 - 1)
        want = want * Fraction((-1) ** (n0 + d - 1))
        rep.check_eq("leading-zero path (%d zeros) over %s" % (n0 - 1, g),
                     phi(g), want)


# ---------------------------------------------------------------------------
# suite 2: coassociativity

@suite("coassoc", "coassociativity of both coproducts on bounded sweeps")
def _suite_coassoc(rep, max_weight=None, max_depth=None, seed=0):
    mw = 4 if max_weight is None else max_weight
    md = 3 if max_depth is None else max_depth

    def coassociative(t):
        def split(mon):
            return coproduct(Element.from_monomial(mon, t.sorts[0]))
        return t.expand_slot(0, split) == t.expand_slot(1, split)

    for g in bracket_generators(mw, md, include_inverted=True):
        rep.check("extended coproduct coassociative at %s" % (g,),
                  coassociative(coproduct_bar(gen_elem(g, HBAR))))
    for g in bracket_generators(mw, min(md, 2), include_inverted=False):
        rep.check("plain coproduct coassociative at %s" % (g,),
                  coassociative(coproduct_h(gen_elem(g, H))))


# ---------------------------------------------------------------------------
# suite 3: the inversion morphism

@suite("inv-morphism", "inversion intertwines the two coproducts")
def _suite_inv_morphism(rep, max_weight=None, max_depth=None, seed=0):
    mw = 4 if max_weight is None else max_weight
    md = 2 if max_depth is None else max_depth

    def inv_mon(mon):
        return inv_element(Element.from_monomial(mon, HBAR))

    for g in bracket_generators(mw, md, include_inverted=True):
        if not g.inverted:
            continue
        e = gen_elem(g, HBAR)
        lhs = (coproduct_bar(e)
               .map_slot(0, inv_mon, sort=H)
               .map_slot(1, inv_mon, sort=H))
        rhs = coproduct_h(inv_element(e))
        rep.check_eq("inversion morphism at %s" % (g,), lhs, rhs)


# ---------------------------------------------------------------------------
# suite 4: variation-matrix laws

VARIATION_SHAPES = [(2,), (3,), (1, 1), (2, 1), (1, 2), (1, 1, 1)]


@suite("variation", "comultiplicativity, antipode, and derivation of V")
def _suite_variation(rep, max_weight=None, max_depth=None, seed=0):
    for nvec in VARIATION_SHAPES:
        for sort in (H, HBAR):
            V = build_V(nvec, sort)
            rep.check("transpose of V%s is grouplike [%s]" % (nvec, sort),
                      grouplike_ok(V.keys, V.entry, coproduct))
            rep.check("antipode inverts V%s [%s]" % (nvec, sort),
                      antipode_ok(V))
            if sort == H:
                rep.check("dV = Omega V at %s" % (nvec,), derivation_ok(V))


# ---------------------------------------------------------------------------
# suite 5: one-form laws

@suite("forms", "one-form laws: projection route, products, pullbacks, "
               "matrix identities")
def _suite_forms(rep, max_weight=None, max_depth=None, seed=0):
    rng = random.Random(20260819 + seed)
    alphabet = [u_(1), v_(1, 1), u_(2), v_(1, 2), v_(2, 2), u_(3)]

    for length in range(1, 6):
        for _ in range(10):
            word = tuple(rng.choice(alphabet) for _ in range(length))
            rep.check_eq("projection route on the word %s" % (word,),
                         w_tensor(word),
                         eta_tensor(project_pi(WordSum({word: 1}))))

    pool = [log(1), log(2), li((1, 2), (1,)), li((1, 2), (2,)),
            li((1, 3), (1,)), li((2, 3), (2,)), li((1, 2, 3), (1, 1))]
    for _ in range(50):
        a = gen_elem(rng.choice(pool))
        b = gen_elem(rng.choice(pool))
        rep.check("w kills the product (%s)(%s)" % (a, b),
                  w_element(a * b).is_zero())

    for c, g in [((1, 3), li((1, 2), (2,))),
                 ((1, 3), li((1, 2), (3,))),
                 ((2, 4), li((1, 2), (2,))),
                 ((1, 3, 4), li((1, 2, 3), (1, 1))),
                 ((1, 2, 4), li((1, 2, 3), (2, 1))),
                 ((2, 3, 5), li((1, 2, 3), (1, 2))),
                 ((1, 3, 4, 5), li((1, 2, 3, 4), (1, 1, 1)))]:
        rep.check_eq("pullback naturality of %s along %s" % (g, c),
                     w_element(apply_contraction(c, gen_elem(g))),
                     pullback_form(c, w_element(gen_elem(g))))

    for nvec in [(3,), (4,), (2, 1), (1, 2), (1, 1, 1)]:
        V = build_V(nvec, H)
        for n in range(1, sum(nvec) + 1):
            rep.check("one-form of V%s at weight %d, both routes" % (nvec, n),
                      w_of_V(V, n) == w_closed_form(V, n))
        rep.check("matrix chain map for V%s" % (nvec,), chain_map_ok(V))

    for nvec in [(3,), (2, 1)]:
        V = build_V(nvec, H)
        rep.check("hatted derivation law at %s" % (nvec,),
                  hat_derivation_ok(V))
        rep.check("hatted curvature identity at %s" % (nvec,),
                  curvature_identity_ok(V))
    for nvec in [(3,), (2, 1), (1, 2)]:
        rep.check("commutator recurrence at %s" % (nvec,),
                  recurrence_ok(build_V(nvec, H)))
    for nvec in VARIATION_SHAPES:
        rep.check("closed one-form formula at %s" % (nvec,),
                  corollary_form_ok(nvec))

    mw = 4 if max_weight is None else max_weight
    cases = bracket_generators(mw, 2, include_inverted=False)
    if mw >= 3:
        cases += [li(idx, (1, 1, 1))
                  for idx in itertools.combinations(range(1, 6), 4)]
    for g in cases:
        e = gen_elem(g, H)
        lhs = w_element(e).exterior_d()
        rhs = Form(2).sum(w_element(Element.from_monomial(lm, H)).wedge(
            w_element(Element.from_monomial(rm, H))).scale(c)
            for (lm, rm), c in reduced_coproduct(e).terms.items())
        rep.check_eq("generator chain map at %s" % (g,), lhs, rhs)


# ---------------------------------------------------------------------------
# suite 6: iterated integrals

@suite("iterint", "subsequence matrices and the evaluation morphism")
def _suite_iterint(rep, max_weight=None, max_depth=None, seed=0):
    bases = [
        [ZERO, InvProduct(1, 2), ONE],
        [ZERO, InvProduct(1, 2), InvProduct(2, 2), ONE],
        [ZERO, InvProduct(1, 3), ZERO, InvProduct(3, 3), ONE],
        [InvProduct(1, 2), ZERO, InvProduct(2, 2), ZERO, ONE],
        [ZERO, ONE, InvProduct(1, 1), InvProduct(1, 2), ONE],
    ]
    for points in bases:
        rep.check("subsequence matrix is grouplike on %d points"
                  % len(points),
                  grouplike_ok(subsequence_keys(len(points)),
                               partial(subsequence_entry, points),
                               i_coproduct))

    mw = 3 if max_weight is None else max_weight
    md = 2 if max_depth is None else max_depth
    points = [ZERO, ONE] + [InvProduct(i, j)
                            for i in range(1, 4) for j in range(i, 4)]
    for wlen in range(1, mw + 1):
        for word in itertools.product(points, repeat=wlen):
            if sum(1 for p in word if p != ZERO) > md:
                continue
            for a0 in points:
                for end in points:
                    g = IGenerator(a0, word, end)
                    if not is_polylogarithmic(g):
                        continue
                    rep.check("evaluation morphism at %s" % (g,),
                              phi_morphism_ok(g))


# ---------------------------------------------------------------------------
# suite 7: numeric flatness

@suite("numeric", "seeded numeric flatness of the curvature")
def _suite_numeric(rep, max_weight=None, max_depth=None, seed=0):
    for nvec in [(2,), (3,), (1, 1), (2, 1), (1, 2), (1, 1, 1)]:
        omf = omega_form_matrix(build_V(nvec, H))
        wedge = omf * omf
        dim = len(nvec)
        for k in range(20):
            vals = sample_point(dim, seed=seed + k)
            ok = point_residual(vals, dim) < 1e-12
            rep.check("point residual, %d-variable sample %d" % (dim, k), ok)
            if dim < 2:
                continue
            tb = tangent_basis(vals, dim)
            worst = 0.0
            for f in wedge.entries.values():
                for a, b in itertools.combinations(range(dim), 2):
                    worst = max(worst, abs(f.evaluate(vals, (tb[a], tb[b]))))
            rep.check("curvature flat at %s, sample %d (max %.2e)"
                      % (nvec, k, worst), worst < 1e-9)


# ---------------------------------------------------------------------------
# suite 8: structural properties

@suite("structural", "projection, symbol, ordering, contraction, antipode")
def _suite_structural(rep, max_weight=None, max_depth=None, seed=0):
    rng = random.Random(7 + seed)
    alphabet = [u_(1), v_(1, 1), u_(2), v_(1, 2), v_(2, 2)]

    for length in range(1, 6):
        for _ in range(8):
            word = tuple(rng.choice(alphabet) for _ in range(length))
            ws = WordSum({word: 1})
            rep.check_eq("projection idempotent on %s" % (word,),
                         project_pi(project_pi(ws)), project_pi(ws))
    for _ in range(20):
        w1 = tuple(rng.choice(alphabet)
                   for _ in range(rng.randint(1, 3)))
        w2 = tuple(rng.choice(alphabet)
                   for _ in range(rng.randint(1, 2)))
        prod = WordSum({w1: 1}) * WordSum({w2: 1})
        rep.check("projection kills the shuffle %s * %s" % (w1, w2),
                  project_pi(prod).is_zero())

    pool = [gen_elem(log(1), H), gen_elem(li((1, 2), (1,)), H),
            gen_elem(li((1, 2), (2,)), H), gen_elem(li((1, 3), (1,)), H),
            gen_elem(li((1, 2, 3), (1, 1)), H)]
    for a, b in itertools.combinations_with_replacement(pool, 2):
        rep.check_eq("symbol is multiplicative on (%s)(%s)" % (a, b),
                     symbol(a * b), symbol(a) * symbol(b))

    vectors = [v for d in (1, 2, 3)
               for v in itertools.product(range(3), repeat=d)]
    total_ok, trans_ok = True, True
    for a, b in itertools.combinations(vectors, 2):
        if precede(a, b) == precede(b, a):
            total_ok = False
    for a, b, c in itertools.permutations(vectors[:12], 3):
        if precede(a, b) and precede(b, c) and not precede(a, c):
            trans_ok = False
    rep.check("weight-vector order is total on %d vectors" % len(vectors),
              total_ok)
    rep.check("weight-vector order is transitive", trans_ok)

    seqs = [(1, 2), (1, 3), (2, 3), (1, 2, 3), (1, 2, 4), (1, 3, 4),
            (2, 3, 5), (1, 2, 3, 4), (1, 3, 4, 5)]
    for c1 in seqs:
        for c2 in seqs:
            if c2[-1] > len(c1):
                continue
            for c3 in seqs:
                if c3[-1] > len(c2):
                    continue
                rep.check_eq(
                    "contraction composition associative %s,%s,%s"
                    % (c1, c2, c3),
                    compose(compose(c1, c2), c3),
                    compose(c1, compose(c2, c3)))
    gens = [log(1), li((1, 2), (2,)), li((1, 2, 3), (1, 1))]
    for c1, c2 in [((1, 3, 4), (1, 2, 3)), ((1, 2, 4, 5), (1, 3, 4)),
                   ((1, 2, 3, 5, 6), (2, 3, 5))]:
        for g in gens:
            e = gen_elem(g, H)
            rep.check_eq(
                "contraction functorial: %s after %s on %s" % (c1, c2, g),
                apply_contraction(c1, apply_contraction(c2, e)),
                apply_contraction(compose(c1, c2), e))

    def antipode_law_holds(e):
        t = coproduct(e)
        s = t.map_slot(
            0, lambda mon: antipode(Element.from_monomial(mon, e.sort)))
        return s.contract(e.sort) == Element.constant(e.constant_term(),
                                                      e.sort)

    for g in bracket_generators(3, 2, include_inverted=False):
        rep.check("antipode law at %s [H]" % (g,),
                  antipode_law_holds(gen_elem(g, H)))
    for g in bracket_generators(3, 2, include_inverted=True):
        rep.check("antipode law at %s [Hbar]" % (g,),
                  antipode_law_holds(gen_elem(g, HBAR)))
    prod = gen_elem(li((1, 2), (2,)), H) * gen_elem(li((2, 3), (1,)), H)
    rep.check("antipode law on a product", antipode_law_holds(prod))

import random
from fractions import Fraction
from itertools import accumulate, combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import lihopf
from lihopf.algebra import (
    H,
    HBAR,
    LI,
    LOG,
    ZERO_VECTOR,
    Element,
    Generator,
    apply_contraction,
    compose,
    expand_log,
    gen_elem,
    generator_to_vector,
    li,
    log,
    monomial_weight,
    mul_monomials,
    precede,
    precede_key,
    vector_to_generator,
)
from lihopf.lincomb import extend, linear
from lihopf.tensor import Tensor


# ---------------------------------------------------------------- generators

def test_log_generator_basics():
    g = log(3)
    assert g.weight == 1 and g.depth == 0
    assert str(g) == "log(3)"


def test_li_generator_basics():
    g = li((1, 2, 4), (3, 1))
    assert g.weight == 4 and g.depth == 2
    assert str(g) == "Li[3,1](1,2,4)"


def test_inverted_display_reverses_weights():
    g = li((1, 2, 3), (3, 1), inverted=True)
    # letters are displayed inverse-and-descending, so weights print reversed
    assert str(g) == "ILi[1,3](1,2,3)"
    assert g.weight == 4


def test_generator_validation():
    with pytest.raises(ValueError):
        li((2, 1), (1,))          # indices must increase
    with pytest.raises(ValueError):
        li((1, 2), (1, 1))        # weight/index length mismatch
    with pytest.raises(ValueError):
        li((1, 2), (0,))          # weights are positive
    with pytest.raises(ValueError):
        log(0)


def test_generator_is_immutable_and_hashable():
    g = log(1)
    with pytest.raises(AttributeError):
        g.indices = (2,)
    assert len({log(1), log(1), li((1, 2), (2,))}) == 2


def test_generators_are_tuples():
    assert li((1, 2), (1,)) == li([1, 2], [1])
    assert Generator(LI, (1, 2), (1,), 1) == li((1, 2), (1,), inverted=True)
    assert Generator(LI, (1, 2), (1,), 0) == li((1, 2), (1,))
    assert log(3) == Generator(LOG, [3])
    assert li((1, 2), (1,), inverted=True) != li((1, 2), (1,))
    for g in (log(3), li((1, 2, 4), (3, 1)), li((1, 2), (1,), True)):
        assert isinstance(g, tuple)
        assert hash(g) == hash(tuple(g))


def test_interned_generator_survives_clear_caches():
    held = li((1, 3, 7), (2, 5), inverted=True)
    lihopf.clear_caches()
    again = li((1, 3, 7), (2, 5), inverted=True)
    assert held == again and hash(held) == hash(again)
    assert {held: 1}[again] == 1


def test_invalid_generator_raises():
    bad = [(LI, (2, 1), (1,), False), (LI, (1, 2), (1, 1), False),
           (LI, (1, 2), (0,), False), (LI, (0, 2), (1,), False),
           (LOG, (0,), (), False), (LOG, (1,), (), True),
           (LOG, (1, 2), (), False), ("nope", (1, 2), (1,), False)]
    for args in bad:
        with pytest.raises(ValueError):
            Generator(*args)


@st.composite
def generators(draw):
    if draw(st.booleans()):
        return log(draw(st.integers(1, 6)))
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(weights) + 1,
                         max_size=len(weights) + 1))
    return li(tuple(accumulate(gaps)), weights, draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(st.lists(generators(), max_size=8))
def test_generator_order_is_the_order_of_its_data(gens):
    assert sorted(gens) == sorted(gens, key=tuple)
    assert [tuple(g) for g in sorted(gens)] == sorted(tuple(g) for g in gens)


# ------------------------------------------------------------------ elements

def test_element_ring_ops():
    x = gen_elem(log(1))
    y = gen_elem(log(2))
    assert (x + y) - y == x
    assert x * Element.zero(H) == Element.zero(H)
    assert (x + y) * (x + y) == x * x + 2 * x * y + y * y
    assert x ** 3 == x * x * x
    assert x ** 0 == Element.one(H)


def test_element_sort_rules():
    x = gen_elem(log(1), H)
    with pytest.raises(ValueError):
        x + gen_elem(log(1), HBAR)
    # a constant has a sort like any other element; a rational is lifted
    # to the other operand's sort
    with pytest.raises(ValueError):
        x + Element.constant(2, HBAR)
    with pytest.raises(ValueError):
        Element.one(HBAR) * x
    assert (x + 2).sort == H and (2 * x).sort == H
    inv = li((1, 2), (2,), inverted=True)
    with pytest.raises(ValueError):
        gen_elem(inv, H)  # inverted letters only live in the big algebra
    assert gen_elem(inv, HBAR).sort == HBAR


def test_h_check_runs_where_a_sort_is_named():
    inv = li((1, 2, 4), (2, 1), inverted=True)
    big = gen_elem(inv, HBAR) * gen_elem(log(1), HBAR) + 3
    with pytest.raises(ValueError):
        Element(H, {(inv,): 1})
    with pytest.raises(ValueError):
        Element.from_monomial((log(1), inv), H)
    with pytest.raises(ValueError):
        big.as_sort(H)
    with pytest.raises(ValueError):
        linear(big, lambda mon: Element(HBAR, {mon: 2}), Element.zero(H))
    with pytest.raises(ValueError):
        extend(big, lambda g: gen_elem(g, HBAR), Element.one(H))
    with pytest.raises(ValueError):
        Tensor.of(big, Element.one(HBAR)).contract(H)
    # the same routes into the sort that admits inverted letters succeed
    assert big.as_sort(HBAR) == big
    assert extend(big, lambda g: gen_elem(g, HBAR), Element.one(HBAR)) == big
    assert Tensor.of(big, Element.one(HBAR)).contract(HBAR) == big


H_GENS = [log(1), log(2), li((1, 2), (1,)), li((1, 2, 3), (2, 1)),
          li((2, 4), (3,))]
H_ELEMENTS = st.dictionaries(
    st.lists(st.sampled_from(H_GENS), max_size=3).map(
        lambda gs: tuple(sorted(gs))),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    max_size=4).map(lambda t: Element(H, t))
SCALARS = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-2, max_value=2,
                                 max_denominator=3))


@settings(max_examples=80, deadline=None)
@given(H_ELEMENTS, H_ELEMENTS, SCALARS)
def test_h_is_closed_under_same_sort_arithmetic(a, b, c):
    # arithmetic results skip the H-sort check; this closure is why
    for x in (a + b, a - b, a * b, a.scale(c), -a, a * c, c * a, a + c,
              a ** 2):
        assert x.sort == H
        assert not any(g.inverted for mon in x.terms for g in mon)


def test_element_weight_split():
    x = gen_elem(log(1))
    e = x * x + 3 * x + Element.constant(Fraction(1, 2), H)
    parts = e.weight_parts()
    assert set(parts) == {0, 1, 2}
    assert parts[1] == 3 * x
    assert sum(parts.values(), Element.zero(H)) == e
    assert e.weight_part(5).is_zero()


def test_monomial_helpers():
    a = (log(2), log(1))
    b = (log(1),)
    m = mul_monomials(tuple(sorted(a)), b)
    assert m == tuple(sorted((log(1), log(1), log(2))))
    assert monomial_weight(m) == 3


# ---------------------------------------------------------------- expand_log

def test_expand_log_is_additive_over_concatenation():
    # splitting the window [i, k) at any j must not change the sum
    for i in range(1, 5):
        for k in range(i, 8):
            whole = expand_log(i, k)
            for j in range(i, k + 1):
                assert expand_log(i, j) + expand_log(j, k) == whole


def test_expand_log_edges():
    assert expand_log(2, 2).is_zero()                # empty window -> log 1 = 0
    assert expand_log(1, 2) == gen_elem(log(1))
    assert expand_log(1, 3) == gen_elem(log(1)) + gen_elem(log(2))
    assert expand_log(1, 3, inverse=True) == -expand_log(1, 3)
    with pytest.raises(ValueError):
        expand_log(3, 2)


# ------------------------------------------------------------ weight vectors

def random_regular_generator(rng, max_depth=4, max_weight_each=4, max_gap=3):
    d = rng.randint(1, max_depth)
    idx = [rng.randint(1, max_gap)]
    for _ in range(d):
        idx.append(idx[-1] + rng.randint(1, max_gap))
    weights = tuple(rng.randint(1, max_weight_each) for _ in range(d))
    return li(tuple(idx), weights)


def test_vector_bijection_round_trip():
    rng = random.Random(20260819)
    for _ in range(1000):
        g = random_regular_generator(rng)
        v = generator_to_vector(g)
        assert len(v) == g.indices[-1] - 1
        assert sum(v) == g.weight
        assert vector_to_generator(v) == g


def test_vector_bijection_edges():
    assert generator_to_vector(None) == ZERO_VECTOR
    assert vector_to_generator(ZERO_VECTOR) is None
    assert generator_to_vector(li((1, 3), (2,))) == (2, 0)
    assert vector_to_generator((2, 0)) == li((1, 3), (2,))
    assert vector_to_generator((0, 1, 2)) == li((2, 3, 4), (1, 2))
    with pytest.raises(ValueError):
        vector_to_generator((0, 0))
    with pytest.raises(ValueError):
        generator_to_vector(li((1, 2), (1,), inverted=True))


# -------------------------------------------------------------- the ordering

def all_vectors(max_norm, max_dim):
    out = [ZERO_VECTOR]
    for d in range(1, max_dim + 1):
        for combo in product(range(max_norm + 1), repeat=d):
            if sum(combo) <= max_norm:
                out.append(combo)
    return out


def test_precede_chain():
    chain = [ZERO_VECTOR, (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2)]
    for a, b in zip(chain, chain[1:]):
        assert precede(a, b)
        assert not precede(b, a)


def test_precede_is_a_strict_total_order():
    vs = all_vectors(4, 3)
    for a in vs:
        assert not precede(a, a)
    for a, b in combinations(vs, 2):
        assert precede(a, b) != precede(b, a)  # trichotomy (a != b here)
    ordered = sorted(vs, key=precede_key)
    for a, b in zip(ordered, ordered[1:]):
        assert precede(a, b)
    # transitivity on a sample
    rng = random.Random(7)
    for _ in range(500):
        a, b, c = rng.sample(vs, 3)
        if precede(a, b) and precede(b, c):
            assert precede(a, c)


def test_precede_zero_first():
    for v in all_vectors(3, 3):
        if v != ZERO_VECTOR:
            assert precede(ZERO_VECTOR, v)


# ---------------------------------------------------------------- contractions

def test_contract_windows():
    g = gen_elem(li((1, 2, 3), (2, 1)))
    with pytest.raises(ValueError):
        compose((3, 1), (1, 2))                 # not increasing
    with pytest.raises(ValueError):
        compose((1, 3, 4), (2, 1))
    with pytest.raises(ValueError):
        apply_contraction((3, 1), g)
    with pytest.raises(ValueError):
        compose((1, 3), (1, 3))                 # inner exceeds outer length
    with pytest.raises(ValueError):
        apply_contraction((1, 5), g)            # g is outside its range


def test_compose_example():
    assert compose((1, 3, 4), (1, 3)) == (1, 4)


@given(st.data())
def test_compose_matches_apply_and_is_associative(data):
    # random chain small enough to enumerate
    def seq(n, lo, hi):
        picks = data.draw(st.sets(st.integers(lo, hi), min_size=n, max_size=n))
        return tuple(sorted(picks))
    c3 = seq(2, 1, 3)          # entries select positions of c2
    c2 = seq(3, 1, 6)          # entries select positions of c1
    c1 = seq(6, 1, 9)
    # compose contracts: c2 picks entries of c1, c3 picks entries of c2
    c2c = tuple(c1[i - 1] for i in c2)
    c3c = tuple(c2c[i - 1] for i in c3)
    assert compose(c1, c2) == c2c
    assert compose(compose(c1, c2), c3) == c3c
    assert compose(c1, compose(c2, c3)) == c3c


def test_apply_contraction_on_generators():
    c = (1, 3, 4)
    g = li((1, 2, 3), (2, 1))       # depth 2, fits target depth of c
    assert apply_contraction(c, gen_elem(g)) == gen_elem(li((1, 3, 4), (2, 1)))
    # log letters expand through the contracted window
    e = apply_contraction(c, gen_elem(log(1)))
    assert e == expand_log(1, 3)
    assert apply_contraction(c, gen_elem(log(2))) == expand_log(3, 4)


def test_apply_contraction_functorial():
    inner = (1, 3)
    outer = (1, 3, 4)
    g = gen_elem(li((1, 2), (2,)))
    lhs = apply_contraction(outer, apply_contraction(inner, g))
    rhs = apply_contraction(compose(outer, inner), g)
    assert lhs == rhs


def test_apply_contraction_is_multiplicative():
    c = (2, 4, 5)
    a = gen_elem(li((1, 2, 3), (1, 1)))
    b = gen_elem(log(1)) + 2 * gen_elem(log(2))
    assert (apply_contraction(c, a * b)
            == apply_contraction(c, a) * apply_contraction(c, b))


# -------------------------------------------------------------------- printing

def test_element_str_examples():
    x = gen_elem(li((1,2),(2,)))
    e = 2 * x - Element.constant(Fraction(1, 2), H)
    s = str(e)
    assert "Li[2](1,2)" in s and "1/2" in s

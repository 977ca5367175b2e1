"""Skew polynomial arithmetic: normal forms, oracles, algebraic laws."""

import random
from itertools import product as iproduct

import pytest

from spbw import corpus, skewpbw
from spbw.cli import parse_instance
from spbw.errors import EngineInvariantError, ValidationError
from spbw.finring import (
    dual_z2,
    dual_z2_derivation,
    identity_map,
    is_two_sided_invertible,
    upper_triangular,
    validate_endomorphism,
    validate_sigma_derivation,
    zero_map,
    zmod,
    zmod_product,
    swap_endomorphism,
)
from spbw.monomial import degree, enumerate_upto
from spbw.skewpbw import (
    add,
    alpha_commute,
    check_consistency,
    mul,
    neg,
    validate_presentation,
)

import oracles
from conftest import LIE_Z3, OSP_Z3, PERTURBED_Z3, WEYL_A1_Z5, random_poly


def quantum_plane():
    ring = zmod(5)
    ident = identity_map(ring)
    zed = zero_map(ring)
    return validate_presentation(
        ring, [ident, ident], [zed, zed], {(0, 1): 2}, label="quantum")


def weyl_like():
    ring = dual_z2()
    ident = identity_map(ring)
    return validate_presentation(
        ring, [ident], [dual_z2_derivation(ring)], {}, label="weyl")


def commutative_z6():
    ring = zmod(6)
    ident = identity_map(ring)
    zed = zero_map(ring)
    return validate_presentation(
        ring, [ident, ident], [zed, zed], {(0, 1): 1}, label="z6")


def poly_dict(f):
    return dict(f.terms)


def test_quantum_plane_normal_form():
    P = quantum_plane()
    x1, x2 = P.variable(0), P.variable(1)
    f = mul(x2, x1)
    assert poly_dict(f) == {(1, 1): 2}
    assert f.to_string() == "2*x1*x2"
    # and the relation iterates: x2^2 x1 = 4 x1 x2^2
    assert poly_dict(mul(mul(x2, x2), x1)) == {(1, 2): 4}


def test_weyl_normal_form():
    P = weyl_like()
    ring = P.ring
    y = ring.element_index("y")
    x = P.variable(0)
    # x * y = y*x + 1
    f = mul(x, P.constant(y))
    assert poly_dict(f) == {(1,): y, (0,): ring.one}
    # x * y^2 = y^2 x + 2y dy = 0 here since y^2 = 0
    assert mul(x, P.constant(ring.mul(y, y))).is_zero()


def test_constant_embedding_is_multiplicative(rng):
    P = weyl_like()
    ring = P.ring
    for a in ring.elements():
        for b in ring.elements():
            assert mul(P.constant(a), P.constant(b)) == P.constant(ring.mul(a, b))
            assert add(P.constant(a), P.constant(b)) == P.constant(ring.add(a, b))


def test_commutative_mul_matches_oracle(rng):
    P = commutative_z6()
    for _ in range(500):
        f = random_poly(rng, P, 4, 6)
        g = random_poly(rng, P, 4, 6)
        want = oracles.commutative_mul(6, poly_dict(f), poly_dict(g))
        assert poly_dict(mul(f, g)) == want


def test_single_variable_push_matches_oracle():
    P = weyl_like()
    ring = P.ring
    sig = tuple(range(ring.order))
    dlt = (0, 0, 1, 1)
    for a in range(5):
        for r in ring.elements():
            want = oracles.closed_form_push(ring, sig, dlt, a, r)
            got = {alpha[0]: v for alpha, v in P.push((a,), r)}
            assert got == want, (a, r)


def test_push_cache_consistency_on_swap():
    ring = zmod_product(2, 2)
    sw = swap_endomorphism(ring)
    P = validate_presentation(ring, [sw], [zero_map(ring, sw)], {}, label="swap")
    sig = tuple(sw.table)
    dlt = (ring.zero,) * ring.order
    for a in range(4):
        for r in ring.elements():
            want = oracles.closed_form_push(ring, sig, dlt, a, r)
            got = {alpha[0]: v for alpha, v in P.push((a,), r)}
            assert got == want


@pytest.mark.parametrize("factory", [quantum_plane, weyl_like],
                         ids=["quantum", "weyl"])
def test_alpha_commute_contract(factory):
    P = factory()
    R = P.ring
    for alpha in enumerate_upto(P.n, 3, P.order):
        for r in R.elements():
            s, p = alpha_commute(P, alpha, r)
            assert s == P.sigma_power(alpha, r)
            if not p.is_zero():
                assert p.deg() < degree(alpha)
            # recombination: x^alpha * r == s * x^alpha + p
            lhs = mul(P.monomial_poly(alpha), P.constant(r))
            rhs = add(P.monomial_poly(alpha, s), p)
            assert lhs == rhs


def split_product(P, alpha, beta):
    """x^alpha * x^beta read off `P.mono_prod` as (c, top, p), with
    x^alpha x^beta = c x^top + p and top = alpha + beta."""
    top = tuple(a + b for a, b in zip(alpha, beta))
    nf = dict(P.mono_prod(alpha, beta))
    c = nf.pop(top, P.ring.zero)
    return c, top, P.from_terms(nf.items())


@pytest.mark.parametrize("factory", [quantum_plane, weyl_like],
                         ids=["quantum", "weyl"])
def test_monomial_product_contract(factory):
    P = factory()
    assert P.bijective
    basis = enumerate_upto(P.n, 3, P.order)
    for alpha in basis:
        for beta in basis:
            c, top, p = split_product(P, alpha, beta)
            # the leading scalar of a bijective presentation is a unit
            assert is_two_sided_invertible(P.ring, c)
            if not p.is_zero():
                assert p.deg() < degree(top)
            lhs = mul(P.monomial_poly(alpha), P.monomial_poly(beta))
            rhs = add(P.monomial_poly(top, c), p)
            assert lhs == rhs


def test_leading_coefficient_formula(rng):
    # lc(fg) = lc(f) * sigma^deg(f)(lc(g)) * c-factor; checked in the
    # robust coefficient-at-exponent form to dodge cancellation
    P = quantum_plane()
    for _ in range(200):
        f = random_poly(rng, P, 3, 4)
        g = random_poly(rng, P, 3, 4)
        if f.is_zero() or g.is_zero():
            continue
        fa, ga = f.exp(), g.exp()
        c, _, _ = split_product(P, fa, ga)
        expect = P.ring.mul(P.ring.mul(f.lc(), P.sigma_power(fa, g.lc())), c)
        top = tuple(a + b for a, b in zip(fa, ga))
        assert mul(f, g).coefficient(top) == expect


def test_ring_laws_random(rng):
    for P in (quantum_plane(), weyl_like()):
        one = P.one_poly()
        for _ in range(120):
            f = random_poly(rng, P, 3, 4)
            g = random_poly(rng, P, 3, 4)
            h = random_poly(rng, P, 3, 4)
            assert mul(mul(f, g), h) == mul(f, mul(g, h))
            assert mul(f, add(g, h)) == add(mul(f, g), mul(f, h))
            assert mul(add(f, g), h) == add(mul(f, h), mul(g, h))
            assert add(f, neg(f)).is_zero()
            assert mul(one, f) == f == mul(f, one)
            # a constant on the left scales each coefficient
            r = rng.randrange(P.ring.order)
            assert mul(P.constant(r), f) == P.from_terms(
                (a, P.ring.mul(r, v)) for a, v in f.terms.items())


def test_operator_sugar_matches_functions(rng):
    P = quantum_plane()
    f = random_poly(rng, P, 3, 4)
    g = random_poly(rng, P, 3, 4)
    assert f + g == add(f, g)
    assert f * g == mul(f, g)
    assert f - g == add(f, neg(g))
    assert -(-f) == f


def test_left_module_structure_over_coefficients(rng):
    # A is free as a LEFT R-module on the monomials: r acts on coefficients
    P = weyl_like()
    R = P.ring
    for r, s in iproduct(R.elements(), R.elements()):
        f = random_poly(rng, P, 3, 4)
        lhs = mul(P.constant(R.add(r, s)), f)
        rhs = add(mul(P.constant(r), f), mul(P.constant(s), f))
        assert lhs == rhs
        assert mul(P.constant(R.mul(r, s)), f) == \
            mul(P.constant(r), mul(P.constant(s), f))


def test_right_scalar_product_differs_in_skew_case():
    P = weyl_like()
    y = P.ring.element_index("y")
    x = P.variable(0)
    left = mul(P.constant(y), x)   # y*x stays y*x
    right = mul(x, P.constant(y))  # x*y = y*x + 1
    assert left != right
    assert poly_dict(left) == {(1,): y}


def test_validate_presentation_rejections():
    ring = zmod(3)
    ident = identity_map(ring)
    zed = zero_map(ring)
    with pytest.raises(ValidationError):
        validate_presentation(ring, [], [])
    with pytest.raises(ValidationError):
        validate_presentation(ring, [ident], [zed, zed])
    # missing relation for the pair (0, 1)
    with pytest.raises(ValidationError):
        validate_presentation(ring, [ident, ident], [zed, zed], {})
    # c must be nonzero
    with pytest.raises(ValidationError):
        validate_presentation(ring, [ident, ident], [zed, zed], {(0, 1): 0})
    # relation key outside the triangle
    with pytest.raises(ValidationError):
        validate_presentation(ring, [ident, ident], [zed, zed],
                              {(0, 1): 1, (1, 0): 1})


def test_inconsistent_presentation_rejected():
    # c_{1,2} = 1 + e12 in UT(2, Z2) is invertible but not central, so
    # (x2 x1) r and x2 (x1 r) disagree for some r and the rewrite
    # system cannot be confluent
    ring = upper_triangular(2, 2)
    ident = identity_map(ring)
    zed = zero_map(ring)
    u = ring.element_index("111")
    with pytest.raises(ValidationError) as err:
        validate_presentation(ring, [ident, ident], [zed, zed], {(0, 1): u})
    assert err.value.kind == "inconsistent_presentation"
    assert err.value.witness == {"word": [["v", 1], ["v", 0], ["c", 1]],
                                 "first": [((1, 1), 3)],
                                 "second": [((1, 1), 1)]}


def test_consistency_certificate_recorded():
    P = quantum_plane()
    assert P.consistency_certificate == 4
    report = check_consistency(P, bound=3, samples=5, seed=7)
    assert report.certified


def test_quasi_commutative_and_bijective_flags():
    assert quantum_plane().quasi_commutative
    assert quantum_plane().bijective
    assert not weyl_like().quasi_commutative
    assert weyl_like().bijective


def test_to_string_round_trip_shapes():
    P = quantum_plane()
    f = P.from_terms({(0, 0): 3, (2, 1): 1, (0, 1): 4})
    s = f.to_string()
    assert "3" in s and "x1^2" in s and "x2" in s
    assert P.zero_poly().to_string() == "0"
    assert P.one_poly().to_string() == "1"


def test_from_terms_merges_and_validates():
    P = quantum_plane()
    f = P.from_terms([((1, 0), 2), ((1, 0), 3)])
    assert poly_dict(f) == {(1, 0): P.ring.zero} or poly_dict(f) == {}
    assert f.is_zero() == (2 + 3 == 5)
    with pytest.raises(ValidationError):
        P.from_terms({(1,): 1})
    with pytest.raises(ValidationError):
        P.from_terms({(1, 0): 9})
    with pytest.raises(ValidationError):
        P.monomial_poly((0, -1))


def ut2_inner():
    """UT(2,Z2) with sigma_1 conjugation by u = 1 + e12, the inner
    sigma_1-derivation r -> e12 r - sigma_1(r) e12, and x2 x1 = x1 x2 + x1
    + e12: nontrivial sigma and delta with linear and constant terms."""
    R = upper_triangular(2, 2)
    u, a = R.element_index("111"), R.element_index("010")
    sigma = validate_endomorphism(R, [R.mul(R.mul(u, r), u)
                                      for r in R.elements()])
    delta = validate_sigma_derivation(
        R, sigma, [R.add(R.mul(a, r), R.neg(R.mul(sigma.table[r], a)))
                   for r in R.elements()])
    return validate_presentation(
        R, [sigma, identity_map(R)], [delta, zero_map(R)],
        {(0, 1): (R.one, a, (R.one, R.zero))}, label="ut2-inner")


# name -> fresh presentation.  The word rewriter is exponential in the
# degree on A1(Z5) and U(sl2), so alpha and beta stay at degree <= 4.
TABLE_CASES = {name: (lambda name=name: parse_instance(
    corpus.load(name)).presentation) for name in corpus.names()}
TABLE_CASES.update({
    "weyl-a1-z5": lambda: parse_instance(WEYL_A1_Z5).presentation,
    "u-sl2-z3": lambda: parse_instance(LIE_Z3).presentation,
    "u-osp12-z3": lambda: parse_instance(OSP_Z3).presentation,
    "ut2-z2-inner": ut2_inner,
})
TABLE_DEGREE = 4


def _word(alpha, r=None, beta=()):
    """The generator word x^alpha [r] x^beta."""
    w = [("v", i) for i, e in enumerate(alpha) for _ in range(e)]
    if r is not None:
        w.append(("c", r))
    return w + [("v", i) for i, e in enumerate(beta) for _ in range(e)]


def test_table_cases_cover_every_rule_branch():
    branches = set()
    for factory in TABLE_CASES.values():
        P = factory()
        R = P.ring
        if any(any(v != R.zero for v in t) for t in P.delta_tables):
            branches.add("delta")
        if any(any(v != R.zero for v in lin) for lin in P.d_linear.values()):
            branches.add("linear")
        if any(v != R.zero for v in P.d_const.values()):
            branches.add("constant")
    assert branches == {"delta", "linear", "constant"}


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_tables_match_the_word_rewriter(case):
    P = TABLE_CASES[case]()
    basis = enumerate_upto(P.n, TABLE_DEGREE, P.order)
    for alpha in basis:
        for r in P.ring.elements():
            assert dict(P.push(alpha, r)) == \
                oracles.word_normal_form(P, _word(alpha, r)), (alpha, r)
        for beta in basis:
            assert dict(P.mono_prod(alpha, beta)) == \
                oracles.word_normal_form(P, _word(alpha, None, beta)), \
                (alpha, beta)
    small = enumerate_upto(P.n, TABLE_DEGREE - 1, P.order)
    for alpha in small:
        for beta in small:
            for r in P.ring.elements():
                assert dict(P.triple(alpha, r, beta)) == \
                    oracles.word_normal_form(P, _word(alpha, r, beta))


# Degree of the factors in the product read-path test: the word rewriter
# sees words up to twice this degree.
PRODUCT_DEGREE = 3


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_products_read_the_triple_table_cold_and_warm(case):
    # mul reads each term pair's x^alpha b x^beta entry itself and calls
    # `triple` only to fill a missing one: every read misses on an emptied
    # triple table and hits on the second product
    P = TABLE_CASES[case]()
    R = P.ring
    rng = random.Random(case)
    basis = enumerate_upto(P.n, PRODUCT_DEGREE, P.order)
    nonzero = [r for r in R.elements() if r != R.zero]
    fill, fills = P.triple, []
    P.triple = lambda *key: fills.append(key) or fill(*key)

    def draw():
        return P.from_terms({alpha: rng.choice(nonzero)
                             for alpha in rng.sample(basis, 3)})

    for _ in range(8):
        f, g = draw(), draw()
        expect = {}
        for (alpha, a), (beta, b) in iproduct(f.terms.items(),
                                              g.terms.items()):
            word = [("c", a)] + _word(alpha, b, beta)
            for gamma, w in oracles.word_normal_form(P, word).items():
                expect[gamma] = R.add(expect.get(gamma, R.zero), w)
        expect = {gamma: w for gamma, w in expect.items() if w != R.zero}
        P._triple_cache.clear()
        fills.clear()
        assert mul(f, g).terms == expect
        assert len(fills) == len(f.terms) * len(g.terms)
        assert mul(f, g).terms == expect
        assert len(fills) == len(f.terms) * len(g.terms)


def normalize(P, word):
    """Normal form of a single generator word, folded token by token
    through the presentation's tables."""
    return skewpbw.SkewPoly(P, dict(skewpbw._fold(P, (0,) * P.n, [word])))


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_normalize_matches_the_word_rewriter(case):
    P = TABLE_CASES[case]()
    rng = random.Random(case)
    tokens = [("v", i) for i in range(P.n)] + [("c", r)
                                               for r in P.ring.elements()]
    for _ in range(60):
        length = rng.randrange(2 * TABLE_DEGREE + 1)
        word = [rng.choice(tokens) for _ in range(length)]
        assert normalize(P, word).terms == \
            oracles.word_normal_form(P, word), word


# Far past the default recursion limit of 1000, were each letter of x^alpha
# to cost nested calls.
DEEP_DEGREE = 2000


def test_high_degree_products_stay_within_the_recursion_limit():
    # z3-trivial: sigma = id, delta = 0 and x2 x1 = x1 x2, so x1^N r =
    # r x1^N and x2^N x1 = x1 x2^N, through chains of N push and N
    # one-letter entries
    P = parse_instance(corpus.load("z3-trivial")).presentation
    R = P.ring
    assert P.quasi_commutative and P.c[(0, 1)] == R.one
    assert all(list(t) == list(R.elements()) for t in P.sigma_tables)
    for r in R.elements():
        got = mul(P.monomial_poly((DEEP_DEGREE, 0)), P.constant(r)).terms
        assert got == ({(DEEP_DEGREE, 0): r} if r != R.zero else {})
    assert mul(P.monomial_poly((0, DEEP_DEGREE)), P.variable(0)).terms == \
        {(1, DEEP_DEGREE): R.one}


def test_high_degree_push_matches_oracle():
    # weyl-dual-quotient has a nonzero delta: x^N r has up to N + 1 terms
    P = parse_instance(corpus.load("weyl-dual-quotient")).presentation
    R = P.ring
    for r in R.elements():
        want = oracles.closed_form_push(R, P.sigma_tables[0],
                                        P.delta_tables[0], DEEP_DEGREE, r)
        got = mul(P.monomial_poly((DEEP_DEGREE,)), P.constant(r)).terms
        assert {alpha[0]: v for alpha, v in got.items()} == want, r


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_fills_cut_into_pieces_keep_the_tables(case, monkeypatch):
    # with nested fills capped at 2, chains are filled in pieces and the
    # unfinished folds run again; the tables hold the same entries, kept in
    # the same order, as under the default cap
    def fill_tables(P):
        basis = enumerate_upto(P.n, 5, P.order)
        for alpha in basis:
            for r in P.ring.elements():
                mul(P.monomial_poly(alpha), P.constant(r))
            for beta in basis[:10]:
                mul(P.monomial_poly(alpha), P.monomial_poly(beta))
        return [list(cache.items()) for cache in
                (P._push_cache, P._prod_cache, P._triple_cache)]

    want = fill_tables(TABLE_CASES[case]())
    monkeypatch.setattr(skewpbw._TooDeep, "limit", 2)
    P = TABLE_CASES[case]()
    assert fill_tables(P) == want
    assert P._depth == 0


def test_perturbed_lie_presentation_refused():
    with pytest.raises(ValidationError) as err:
        parse_instance(PERTURBED_Z3)
    assert err.value.kind == "inconsistent_presentation"
    assert err.value.witness == {
        "word": [["v", 2], ["v", 1], ["v", 0]],
        "first": [((0, 0, 2), 2), ((1, 1, 1), 2)],
        "second": [((0, 0, 2), 1), ((1, 1, 1), 2)]}


@pytest.mark.parametrize("text", [LIE_Z3, OSP_Z3], ids=["u-sl2", "u-osp12"])
def test_lie_type_presentations_validate(text):
    P = parse_instance(text).presentation
    assert P.consistency_certificate == 4
    assert not P.quasi_commutative

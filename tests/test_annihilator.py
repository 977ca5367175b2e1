"""Annihilator ideals downstairs and degree-bounded annihilators upstairs."""

import random
from collections import Counter
from itertools import product

import pytest

from spbw.annihilator import (
    ann_in_a_bounded,
    ann_in_r,
    annihilates,
    idempotent_generator,
    is_idempotent_generated,
    principal_right_ideal,
    RightIdeal,
)
from spbw import bounded, corpus
from spbw.bounded import PackedVectors, context, cyclic_factors
from spbw.cli import parse_instance
from spbw.errors import (EngineInvariantError, SearchSpaceTooLarge,
                         ValidationError)
from spbw.finring import (dual_z2, dual_z2_derivation, identity_map,
                          upper_triangular, validate_ring,
                          validate_sigma_derivation, zero_map, zmod)
from spbw.polymodule import (module_constant, module_poly, quotient_module,
                             regular_module, validate_module, zero_module)
from spbw.skewpbw import validate_presentation

import oracles


def test_ann_in_r_matches_oracle():
    for ring in (zmod(4), zmod(6), dual_z2()):
        M = regular_module(ring)
        singles = [[m] for m in M.elements()]
        for X in [[]] + singles + [list(M.elements())]:
            assert ann_in_r(M, X).elements == oracles.brute_annihilator(M, X)


def test_ann_in_r_of_two_in_z4():
    M = regular_module(zmod(4))
    ideal = ann_in_r(M, [2])
    assert ideal.elements == frozenset({0, 2})
    assert 2 in ideal
    assert len(ideal) == 2
    assert ideal.sorted_elements() == [0, 2]


def test_right_ideal_validation():
    ring = zmod(4)
    with pytest.raises(ValidationError):
        RightIdeal(ring, frozenset({1, 2}))      # no zero
    with pytest.raises(ValidationError):
        RightIdeal(ring, frozenset({0, 1}))      # 1*3 = 3 escapes
    RightIdeal(ring, frozenset({0, 2}))          # fine


def test_principal_ideal_matches_oracle():
    for ring in (zmod(6), dual_z2()):
        for e in ring.elements():
            assert principal_right_ideal(ring, e) == \
                oracles.brute_principal_ideal(ring, e)


def test_idempotent_generator():
    ring = zmod(6)
    # 3Z6 = {0, 3} with 3 idempotent, 2Z6 = {0, 2, 4} with 4 idempotent
    assert idempotent_generator(ring, frozenset({0, 3})) == 3
    assert idempotent_generator(ring, frozenset({0, 2, 4})) == 4
    assert idempotent_generator(ring, frozenset({0})) == 0
    assert idempotent_generator(ring, frozenset(range(6))) == 1

    # in Z4 the ideal {0, 2} has no idempotent generator
    z4 = zmod(4)
    assert idempotent_generator(z4, frozenset({0, 2})) is None
    assert not is_idempotent_generated(z4, frozenset({0, 2}))

    # oracle cross-check over every right ideal arising as an annihilator
    for ring in (zmod(6), dual_z2()):
        M = regular_module(ring)
        for m in M.elements():
            ideal = ann_in_r(M, [m])
            assert is_idempotent_generated(ring, ideal) == \
                oracles.brute_idempotent_generated(ring, ideal.elements)


def weyl_setup():
    ring = dual_z2()
    P = validate_presentation(ring, [identity_map(ring)],
                              [dual_z2_derivation(ring)], {}, label="weyl")
    M = quotient_module(ring, [ring.element_index("y")])
    return ring, P, M


def test_annihilates_predicate():
    ring, P, M = weyl_setup()
    one = M.element_index("[1]")
    u = module_constant(M, P, one)
    y = ring.element_index("y")
    assert annihilates(u, P.constant(y))
    assert not annihilates(u, P.one_poly())
    assert annihilates(u, P.zero_poly())


def test_ann_in_a_bounded_against_kernel_context():
    # independent cross-check: the dense kernel enumeration of the bounded
    # context must list exactly the same annihilating polynomials
    ring, P, M = weyl_setup()
    one = M.element_index("[1]")
    u = module_poly(M, P, {(1,): one})
    anns = ann_in_a_bounded([u], 1)
    got = {tuple(sorted(f.terms.items())) for f in anns}

    ctx = context(M, P, 1)
    vec = [M.zero] * ctx.k
    for alpha, m in u.terms.items():
        vec[ctx.slot[alpha]] = m
    row = ctx.kernel()[ctx.m_index(vec)]
    want = {tuple(sorted(ctx.f_poly(f_idx).terms.items())) for f_idx in row}
    assert got == want
    # sanity: x1*y has the constant y in its annihilator? ([1]x)*y = [1] != 0
    y = ring.element_index("y")
    assert not any(f == P.constant(y) for f in anns)
    # but x1*(y*x1) = ([1]x)(y x) = [1]sigma(y)xx + [1]d(y)x = [1]x != 0,
    # while (y + y*x1) kills it? ([1]x)y + ([1]x)yx = [1] + [1]x: no.
    # the zero polynomial is always present
    assert any(f.is_zero() for f in anns)


def test_ann_in_a_bounded_zero_mpoly_matches_everything():
    ring, P, M = weyl_setup()
    z = module_poly(M, P, {})
    anns = ann_in_a_bounded([z], 1)
    # every candidate annihilates: q^(basis size) = 4^2
    assert len(anns) == 16


def test_ann_in_a_bounded_guard_and_validation():
    ring, P, M = weyl_setup()
    one = M.element_index("[1]")
    u = module_constant(M, P, one)
    with pytest.raises(SearchSpaceTooLarge):
        ann_in_a_bounded([u], 12, max_candidates=100)
    with pytest.raises(ValidationError):
        ann_in_a_bounded([], 1)
    other = validate_presentation(ring, [identity_map(ring)],
                                  [zero_map(ring)], {}, label="other")
    v = module_constant(M, other, one)
    with pytest.raises(ValidationError):
        ann_in_a_bounded([u, v], 1)


def test_ann_in_a_bounded_intersection():
    # annihilator of a set is the meet of the singleton annihilators
    ring, P, M = weyl_setup()
    one = M.element_index("[1]")
    u = module_constant(M, P, one)
    v = module_poly(M, P, {(1,): one})
    both = {tuple(sorted(f.terms.items())) for f in ann_in_a_bounded([u, v], 1)}
    au = {tuple(sorted(f.terms.items())) for f in ann_in_a_bounded([u], 1)}
    av = {tuple(sorted(f.terms.items())) for f in ann_in_a_bounded([v], 1)}
    assert both == au & av


def _assert_kernel_matches_reference(ctx):
    # every kernel row, as a set of polynomials, against the independent
    # per-module-polynomial enumeration through polymodule.act
    kern = ctx.kernel()
    assert sorted(kern) == list(range(ctx.m_space))
    for m_idx in range(ctx.m_space):
        row = kern[m_idx]
        assert list(row) == sorted(set(row))
        got = {tuple(sorted(ctx.f_poly(f).terms.items())) for f in row}
        want = {tuple(sorted(f.terms.items()))
                for f in ann_in_a_bounded([ctx.m_poly(m_idx)], ctx.degree)}
        assert got == want, ctx.m_poly(m_idx).to_string()


@pytest.mark.parametrize("name", corpus.names())
def test_kernel_rows_match_reference_on_the_corpus(name):
    # every degree whose polynomial space has at most 729 elements
    inst = parse_instance(corpus.load(name))
    d = 0
    while (ctx := context(inst.module, inst.presentation, d)).f_space <= 729:
        _assert_kernel_matches_reference(ctx)
        d += 1
    assert d > 0


def _assert_ann_am_matches_reference(ctx):
    # every row of ann(mA) against acting on m with every (r x^gamma) * f
    assert ctx.ann_am_rows() == oracles.ann_am_reference(ctx)


@pytest.mark.parametrize("name", corpus.names())
def test_ann_am_rows_match_reference_on_the_corpus(name):
    # degrees 1 and 2, wherever the pair space is at most 10^5
    inst = parse_instance(corpus.load(name))
    checked = 0
    for d in (1, 2):
        ctx = context(inst.module, inst.presentation, d)
        if ctx.pair_space <= 10 ** 5:
            _assert_ann_am_matches_reference(ctx)
            checked += 1
    assert checked > 0


def test_kernel_rows_with_an_inner_derivation():
    # UT(2, Z2) is noncommutative, and delta(r) = a*r - r*a for the
    # non-central a = e12 is a nonzero inner derivation
    ut = upper_triangular(2, 2)
    a = ut.element_index("010")
    assert any(ut.mul(a, x) != ut.mul(x, a) for x in ut.elements())
    table = tuple(ut.sub(ut.mul(a, x), ut.mul(x, a)) for x in ut.elements())
    delta = validate_sigma_derivation(ut, identity_map(ut), table)
    assert not delta.is_zero()
    P = validate_presentation(ut, [identity_map(ut)], [delta], {},
                              label="ut-inner")
    M = regular_module(ut)
    for d in (0, 1):
        _assert_kernel_matches_reference(context(M, P, d))
        _assert_ann_am_matches_reference(context(M, P, d))


def test_kernel_rows_when_the_module_outgrows_the_ring():
    # M = Z2^2 over Z2 has more bounded module polynomials than the ring has
    # bounded polynomials (16 against 4 at d = 1); every row must still
    # match the independent reference
    ring = zmod(2)
    add = [[a ^ b for b in range(4)] for a in range(4)]
    action = [[0, m] for m in range(4)]
    M = validate_module(ring, add, action, label="Z2^2")
    P = validate_presentation(ring, [identity_map(ring)], [zero_map(ring)],
                              {}, label="Z2[x]")
    for d in (0, 1, 2):
        ctx = context(M, P, d)
        assert ctx.m_space > ctx.f_space
        _assert_kernel_matches_reference(ctx)
        _assert_ann_am_matches_reference(ctx)


def _zero_last_z3():
    # Z3 tabulated as [1, 2, 0]: element 0 is a unit, the zero is element 2
    labels = [1, 2, 0]
    index = {v: i for i, v in enumerate(labels)}
    return validate_ring([[index[(a + b) % 3] for b in labels] for a in labels],
                         [[index[a * b % 3] for b in labels] for a in labels],
                         names=["1", "2", "0"])


def test_kernel_rows_when_zero_is_not_element_0():
    # a coefficient index of 0 must not be read as a zero coefficient
    ring = _zero_last_z3()
    assert ring.zero == 2
    P = validate_presentation(ring, [identity_map(ring)], [zero_map(ring)],
                              {}, label="Z3'[x]")
    for d in (0, 1):
        _assert_kernel_matches_reference(context(regular_module(ring), P, d))
        _assert_ann_am_matches_reference(context(regular_module(ring), P, d))


def test_kernel_tabulates_instead_of_acting_per_pair(monkeypatch):
    # the kernel reads each normal form x^a * b * x^c once per slot pair
    # and coefficient, and never evaluates act pair by pair
    inst = parse_instance(corpus.load("z3-trivial"))
    P = inst.presentation
    ctx = context(inst.module, P, 2)
    assert ctx._kernel is None
    calls = {"triple": 0, "act_is_zero": 0}
    triple, act_is_zero = P.triple, ctx.act_is_zero

    def counted_triple(*args):
        calls["triple"] += 1
        return triple(*args)

    def counted_act_is_zero(*args):
        calls["act_is_zero"] += 1
        return act_is_zero(*args)

    monkeypatch.setattr(P, "triple", counted_triple)
    monkeypatch.setattr(ctx, "act_is_zero", counted_act_is_zero)
    rows = ctx.kernel()
    assert len(rows) == ctx.m_space == 729
    assert 0 < calls["triple"] <= ctx.k ** 2 * ctx.ring_size
    assert calls["act_is_zero"] == 0


def test_kernel_and_ann_am_rows_count_their_work(monkeypatch):
    # the kernel calls half_sums only to build its per-slot tables, never
    # once per m, and ann(mA) forms each product (r x^gamma) * f at most
    # once, for non-constant middles with r an additive generator of R
    # only, however many rows hold f
    inst = parse_instance(corpus.load("z4-regular"))
    P, M = inst.presentation, inst.module
    ctx = context(M, P, 3)
    calls = {"half_sums": 0, "act_is_zero": 0}
    products = Counter()
    acting = [False]
    half_sums, term_products = bounded.half_sums, bounded.term_products
    act_is_zero = ctx.act_is_zero

    def counted_half_sums(*args):
        calls["half_sums"] += 1
        return half_sums(*args)

    def counted_term_products(pres, left, right, *rest):
        if not acting[0]:
            products[left, right] += 1
        return term_products(pres, left, right, *rest)

    def counted_act_is_zero(*args):
        calls["act_is_zero"] += 1
        acting[0] = True
        try:
            return act_is_zero(*args)
        finally:
            acting[0] = False

    monkeypatch.setattr(bounded, "half_sums", counted_half_sums)
    monkeypatch.setattr(bounded, "term_products", counted_term_products)
    monkeypatch.setattr(ctx, "act_is_zero", counted_act_is_zero)
    kern = ctx.kernel()
    assert len(kern) == ctx.m_space > 2 * ctx.k * M.order
    assert 0 < calls["half_sums"] <= 2 * ctx.k * M.order
    assert not products
    rows = ctx.ann_am_rows()
    assert products and max(products.values()) == 1
    lefts = {left for left, _ in products}
    assert all(len(left) == 1 and left[0][0] != ctx.basis[0]
               and left[0][1] != P.ring.zero for left in lefts)
    in_rows = {f for m_idx, row in kern.items() if ctx.mterms(m_idx)
               for f in row}
    # only the additive generators of (R, +) are middles: for Z4, r = 1
    gens = {g for g, _ in cyclic_factors(P.ring)[0]}
    assert gens == {P.ring.one}
    assert {left[0][1] for left in lefts} == gens
    assert len(products) <= len(lefts) * len(in_rows)
    # several m act on the same product
    assert calls["act_is_zero"] > len(products)
    assert rows == oracles.ann_am_reference(ctx)


def _first_mixed_failure(ctx, alpha, m, beta, b):
    # the mixed-product scan of the quasi-Armendariz decider, unmemoised
    for r in ctx.presentation.ring.elements():
        for t in ctx.basis:
            if not ctx.act_is_zero(((alpha, m),),
                                   ctx.scaled_triple(r, t, b, beta)):
                return r, t
    return None


def test_mixed_failure_matches_the_direct_scan():
    failing_from_kernel = 0
    for name, d in product(corpus.names(), (0, 1, 2)):
        inst = parse_instance(corpus.load(name))
        ctx = context(inst.module, inst.presentation, d)
        M, R = ctx.module, ctx.presentation.ring
        keys = [(alpha, m, beta, b) for alpha in ctx.basis
                for m in M.elements() if m != M.zero
                for beta in ctx.basis
                for b in R.elements() if b != R.zero]
        for key in keys:
            assert ctx.mixed_failure(*key) == _first_mixed_failure(ctx, *key), \
                (name, d, key)
        if ctx.pair_space > 10 ** 6:
            continue
        # keys met while scanning the kernel rows, which (unlike the rows
        # of ann(mA)) include products that do not vanish
        kern = ctx.kernel()
        for m_idx in range(ctx.m_space):
            for f_idx in kern[m_idx]:
                for alpha, m in ctx.mterms(m_idx):
                    for beta, b in ctx.fterms(f_idx):
                        hit = ctx.mixed_failure(alpha, m, beta, b)
                        failing_from_kernel += hit is not None
    assert failing_from_kernel > 0


def _z4_plus_z2():
    # Z4 + Z4/(2) over Z4, element 2a + b for (a, b): factors of orders 4, 2
    ring = zmod(4)
    add = [[2 * ((x // 2 + y // 2) % 4) + (x + y) % 2 for y in range(8)]
           for x in range(8)]
    action = [[2 * (x // 2 * r % 4) + x % 2 * r % 2 for r in range(4)]
              for x in range(8)]
    return validate_module(ring, add, action, label="Z4+Z2")


def _packed_modules():
    return [(name, parse_instance(corpus.load(name)).module)
            for name in corpus.names()] + [
        ("UT(2,Z2)", regular_module(upper_triangular(2, 2))),
        ("Z3 zero last", regular_module(_zero_last_z3())),
        ("zero", zero_module(zmod(2))),
        ("Z4+Z2", _z4_plus_z2())]


@pytest.mark.parametrize("name,M", _packed_modules(),
                         ids=[name for name, _ in _packed_modules()])
def test_packed_vectors_agree_with_the_tables(name, M):
    # pack/unpack round trips, and add and neg agree with the add table
    # entry by entry: every pair at length 1, seeded vectors at length 5
    orders = [n for _, n in cyclic_factors(M)[0]]
    size = 1
    for n in orders:
        size *= n
    assert size == M.order
    rng = random.Random(11)
    for length, pairs in ((1, [((a,), (b,)) for a in M.elements()
                                for b in M.elements()]),
                          (5, [tuple(tuple(rng.randrange(M.order)
                                           for _ in range(5))
                                     for _ in range(2)) for _ in range(200)])):
        vecs = PackedVectors(M, length)
        for u, v in pairs:
            x, y = vecs.pack(enumerate(u)), vecs.pack(enumerate(v))
            assert vecs.unpack(x) == u
            assert vecs.unpack(vecs.add(x, y)) == tuple(
                M.add(a, b) for a, b in zip(u, v))
            assert vecs.unpack(vecs.neg(x)) == tuple(M.neg(a) for a in u)
    assert vecs.unpack(0) == (M.zero,) * 5
    assert PackedVectors(M, 2).code is vecs.code   # built once per module


def test_packed_code_is_checked_against_the_add_table(monkeypatch):
    # a code that swaps two elements is refused when it is built, and is
    # not kept on the module
    M = _z4_plus_z2()
    gens, coords = cyclic_factors(M)
    coords[2], coords[4] = coords[4], coords[2]
    monkeypatch.setattr(bounded, "cyclic_factors", lambda _: (gens, coords))
    with pytest.raises(EngineInvariantError):
        PackedVectors(M, 1)
    assert M._packing is None


def test_kernel_rows_with_mixed_moduli():
    # (M, +) = Z4 + Z2 has factors of unequal order, which no corpus module
    # has: kernel, ann(mA) and scalar action rows against the references
    M = _z4_plus_z2()
    assert [n for _, n in cyclic_factors(M)[0]] == [4, 2]
    ring = M.ring
    P = validate_presentation(ring, [identity_map(ring)], [zero_map(ring)],
                              {}, label="Z4[x]")
    for d in (0, 1, 2):
        ctx = context(M, P, d)
        _assert_kernel_matches_reference(ctx)
        _assert_ann_am_matches_reference(ctx)
        assert {m: ctx.scalar_action()[m] for m in range(ctx.m_space)} == \
            oracles.slice_scalar_action(ctx, range(ctx.m_space))


def test_kernel_rows_over_the_zero_ring():
    # no normal form has a term, yet every f annihilates the one m
    ring = validate_ring([[0]], [[0]])
    P = validate_presentation(ring, [identity_map(ring)], [zero_map(ring)],
                              {}, label="0[x]")
    for d in (0, 2):
        ctx = context(regular_module(ring), P, d)
        assert ctx.kernel() == ctx.ann_am_rows() == {0: (0,)}

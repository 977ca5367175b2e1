"""Annihilator ideals downstairs and degree-bounded annihilators upstairs."""

import random
from collections import Counter, defaultdict
from functools import reduce
from itertools import product

import pytest

from spbw.annihilator import (
    ann_in_r,
    idempotent_generator,
    principal_right_ideal,
    RightIdeal,
)
from spbw import bounded, corpus
from spbw.bounded import PackedVectors, context, cyclic_factors
from spbw.cli import parse_instance
from spbw.errors import (EngineInvariantError, PresentationMismatch,
                         ValidationError)
from spbw.finring import (dual_z2, dual_z2_derivation, identity_map,
                          upper_triangular, validate_ring,
                          validate_sigma_derivation, zero_map, zmod)
from spbw.polymodule import (module_poly, quotient_module, regular_module,
                             validate_module)
from spbw.properties import (_first_outside, _pp_family,
                             _pq_baer_family, _quasi_armendariz_failure)
from spbw.skewpbw import validate_presentation

import oracles
from conftest import (INSTANCES, module_constant, packed_rows, slice_products,
                      zero_module)
from oracles import ann_in_a_bounded, annihilates


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

    # oracle cross-check over every right ideal arising as an annihilator
    for ring in (zmod(6), dual_z2()):
        M = regular_module(ring)
        for m in M.elements():
            ideal = ann_in_r(M, [m])
            assert (idempotent_generator(ring, ideal) is not None) == \
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
    zero = ctx.m_index([ctx.module.zero] * ctx.k)
    assert kern[zero] == frozenset(range(ctx.f_space))
    for m_idx in range(ctx.m_space):
        row = kern[m_idx]
        assert isinstance(row, frozenset)
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


@pytest.mark.parametrize("path", sorted(INSTANCES.glob("*.json")),
                         ids=lambda path: path.stem)
def test_kernel_rows_match_reference_on_the_test_instances(path):
    # every degree whose polynomial space has at most 729 elements; the
    # additive groups of ut2-z2 (Z2^3) and z2xz2-swap-3var (Z2^2) have
    # several cyclic factors, so their slot tables are summed from several
    # generators
    inst = parse_instance(path.read_text(encoding="utf-8"))
    factors = {"ut2-z2": 3, "z2xz2-swap-3var": 2}.get(path.stem, 1)
    assert len(cyclic_factors(inst.module)[0]) == factors
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
    assert set(delta.table) != {ut.zero}
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


def _z4_quantum_plane():
    return parse_instance('{"ring":"Z4","variables":2,'
                          '"relations":{"1,2":{"c":"3"}}}')


def test_kernel_and_ann_am_rows_count_their_work(monkeypatch):
    # the kernel calls half_sums only to build its per-slot tables at the
    # generators of (M, +), never once per m or module value, and ann(mA)
    # forms no product mu * f and never reads the scalar tables: it forms
    # m * mu over M's action table at most once per orbit minimum m and
    # acting middle mu = r x^gamma, r an additive generator of R.  On the Z4
    # quantum plane x2 x1 = 3 x1 x2 the middles x1 and x2 do not commute
    # with the slice, so `ann_am_rows` keeps them; at d = 1 a constant m
    # has m * x_i in the slice, and m of degree 1 has it outside, where f
    # is acted on
    inst = _z4_quantum_plane()
    P, M = inst.presentation, inst.module
    ctx = context(M, P, 1)
    calls = {"half_sums": 0, "act_is_zero": 0}
    products = Counter()
    acting = [False]
    half_sums, term_products = bounded.half_sums, bounded.term_products
    act_is_zero = ctx.act_is_zero

    def counted_half_sums(*args):
        calls["half_sums"] += 1
        return half_sums(*args)

    def counted_term_products(pres, left, right, scale, *rest):
        if not acting[0]:
            assert scale is M.action_table
            products[left, right] += 1
        return term_products(pres, left, right, scale, *rest)

    def counted_act_is_zero(*args):
        calls["act_is_zero"] += 1
        acting[0] = True
        try:
            return act_is_zero(*args)
        finally:
            acting[0] = False

    def no_scalar_tables():
        raise AssertionError("ann_am_rows read scalar_tables")

    monkeypatch.setattr(bounded, "half_sums", counted_half_sums)
    monkeypatch.setattr(bounded, "term_products", counted_term_products)
    monkeypatch.setattr(ctx, "act_is_zero", counted_act_is_zero)
    monkeypatch.setattr(ctx, "scalar_tables", no_scalar_tables)
    kern = ctx.kernel()
    assert len(kern) == ctx.m_space > 2 * ctx.k * M.order
    # two half_sums calls per slot and cyclic generator of (M, +)
    assert calls["half_sums"] == 2 * ctx.k * len(cyclic_factors(M)[0])
    assert not products
    rows = ctx.ann_am_rows()
    assert products and max(products.values()) == 1
    lefts = {left for left, _ in products}
    assert lefts <= {ctx.mterms(m_idx) for m_idx in ctx.minima()}
    assert {right for _, right in products} == {
        ((gamma, r),) for r, gamma in ctx.acting_middles()}
    # only the additive generators of (R, +) are middles: for Z4, r = 1
    gens = {g for g, _ in cyclic_factors(P.ring)[0]}
    assert gens == {P.ring.one}
    assert {right[0][1] for _, right in products} == gens
    assert any(len(left) == 1 and left[0][0] == ctx.basis[0] for left in lefts)
    assert calls["act_is_zero"] > 0
    assert rows == oracles.ann_am_reference(ctx)


@pytest.mark.parametrize("name,degree", [
    ("z3-trivial", 2), ("z4-regular", 4), ("z6-commutative", 1)])
def test_commuting_middles_leave_the_kernel_rows(monkeypatch, name, degree):
    # over a commutative slice every middle commutes with every f, so the
    # ann(mA) rows are the kernel's own dict: no product is formed, no m
    # is acted on and no scalar action table is built for the meet
    inst = parse_instance(corpus.load(name))
    ctx = context(inst.module, inst.presentation, degree)
    kern = ctx.kernel()
    calls = Counter()
    monkeypatch.setattr(bounded, "term_products",
                        lambda *args: calls.update(["term_products"]))
    monkeypatch.setattr(ctx, "act_is_zero",
                        lambda *args: calls.update(["act_is_zero"]))
    assert ctx.acting_middles() == []
    assert ctx.ann_am_rows() is kern
    assert not calls and ctx._scalar is None


def _middle_contexts():
    """weyl-dual-quotient at d = 2..5, z2xz2-swap at d <= 3, the three
    commutative corpus cases, UT(2,Z2) at d <= 2 and the Z4 quantum plane
    x2 x1 = 3 x1 x2 at d <= 2."""
    for name, degrees in (("weyl-dual-quotient", range(2, 6)),
                          ("z2xz2-swap", range(4)), ("z3-trivial", (2,)),
                          ("z4-regular", (4,)), ("z6-commutative", (1,))):
        inst = parse_instance(corpus.load(name))
        for d in degrees:
            yield f"{name} d={d}", context(inst.module, inst.presentation, d)
    for name, inst in (("UT(2,Z2)",
                        parse_instance('{"ring":"UT(2,Z2)","variables":1}')),
                       ("Z4 quantum plane", _z4_quantum_plane())):
        for d in range(3):
            yield f"{name} d={d}", context(inst.module, inst.presentation, d)


def test_acting_middles_are_those_that_do_not_commute():
    # the middles `ann_am_rows` drops are exactly those commuting, through
    # skewpbw.mul, with every b x^beta of the slice, b over all of R; the
    # rest keep their order.  On z2xz2-swap x commutes with 1 but not with
    # (1,0), and on the quantum plane x1 commutes with R but not with x2
    seen = set()
    for case, ctx in _middle_contexts():
        middles = oracles.middle_candidates(ctx)
        dropped = oracles.commuting_middles(ctx)
        assert ctx.acting_middles() == [mu for mu in middles
                                        if mu not in dropped], case
        if middles:
            seen.add(len(dropped) / len(middles))
    assert {0, 1} < seen


def test_ann_am_rows_with_acting_middles_match_the_reference(monkeypatch):
    # where some middle does not commute the rows still equal the reference,
    # also on UT(2,Z2), whose constants do not commute; at weyl-dual-quotient
    # d=5, where the reference takes seconds, they equal the rows built with
    # every middle acting
    weyl = parse_instance(corpus.load("weyl-dual-quotient"))
    ut = parse_instance('{"ring":"UT(2,Z2)","variables":1}')
    for inst, d in ([(weyl, 2), (weyl, 3), (weyl, 4), (ut, 0), (ut, 1),
                     (ut, 2), (_z4_quantum_plane(), 1)]):
        ctx = context(inst.module, inst.presentation, d)
        assert ctx.acting_middles(), (ctx.presentation, d)
        assert ctx.ann_am_rows() == oracles.ann_am_reference(ctx), \
            (ctx.presentation, d)
    ctx = context(ut.module, ut.presentation, 2)
    assert any(gamma == ctx.basis[0] for _, gamma in ctx.acting_middles())
    ctx = context(weyl.module, weyl.presentation, 5)
    fresh = bounded.BoundedContext(weyl.module, weyl.presentation, 5)
    monkeypatch.setattr(fresh, "acting_middles",
                        lambda: oracles.middle_candidates(fresh))
    assert ctx.ann_am_rows() == fresh.ann_am_rows()


def _mixed_product_contexts():
    """The corpus contexts at d <= 3 with pair_space <= 3 * 10^6, then
    UT(2,Z2), the Z3 whose zero is element 2, the zero module and
    Z4 + Z4/(2) at d <= 2."""
    for name in corpus.names():
        inst = parse_instance(corpus.load(name))
        for d in range(4):
            ctx = context(inst.module, inst.presentation, d)
            if ctx.pair_space > 3 * 10 ** 6:
                break
            yield f"{name} d={d}", ctx
    yield from _other_contexts()


def _other_contexts():
    """UT(2,Z2), the Z3 whose zero is element 2, the zero module and
    Z4 + Z4/(2), the last three over R[x], at d <= 2."""
    ut = parse_instance('{"ring":"UT(2,Z2)","variables":1}')
    others = [("UT(2,Z2)", ut.module, ut.presentation)] + [
        (name, M, validate_presentation(M.ring, [identity_map(M.ring)],
                                        [zero_map(M.ring)], {}, label="[x]"))
        for name, M in (("Z3 zero last", regular_module(_zero_last_z3())),
                        ("zero", zero_module(zmod(2))),
                        ("Z4+Z2", _z4_plus_z2()))]
    for name, M, P in others:
        for d in range(3):
            yield f"{name} d={d}", context(M, P, d)


def test_single_term_lookup_matches_the_mixed_reference():
    # every mixed product (m x^alpha)(r x^t)(b x^beta) vanishes exactly
    # when the single term b x^beta lies in the ann(mA) row of m x^alpha;
    # the reference acts on each (r, t) through polymodule.act.  A failing
    # pair, scanned alone, names the reference's first (r, t), r in ring
    # order first (on z2xz2-swap t in basis order first would differ).  The
    # scan visits orbit minima only, so the pair is keyed at m x^alpha's
    # minimum (m * c) x^alpha, c central and injective on M, whose (r, t)
    # is m's
    seen = set()
    for case, ctx in _mixed_product_contexts():
        M, R = ctx.module, ctx.presentation.ring
        ann = ctx.ann_am_rows()
        for alpha, m, beta, b in product(ctx.basis, M.elements(), ctx.basis,
                                         R.elements()):
            if m == M.zero or b == R.zero:
                continue
            m_idx, f_idx = ctx.m_term_index(alpha, m), ctx.f_term_index(beta, b)
            passes = f_idx in ann[m_idx]
            hit = oracles.mixed_failure(ctx, alpha, m, beta, b)
            assert passes is (hit is None), (case, alpha, m, beta, b)
            seen.add(passes)
            if hit is not None:
                rows = {ctx.orbit_rep()[m_idx]: frozenset({f_idx})}
                wit = _quasi_armendariz_failure(
                    ctx, defaultdict(frozenset, rows), ctx.pair_space)
                assert (wit["r"], wit["t"]) == (R.name(hit[0]), list(hit[1])), \
                    (case, alpha, m, beta, b)
    assert seen == {True, False}


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
    # pack is one-to-one, and add and neg agree with the add table entry
    # by entry: every pair at length 1, seeded vectors at length 5
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
        packed = {}
        for u, v in pairs:
            x, y = vecs.pack(enumerate(u)), vecs.pack(enumerate(v))
            assert packed.setdefault(x, u) == u
            assert vecs.add(x, y) == vecs.pack(enumerate(
                M.add(a, b) for a, b in zip(u, v)))
            assert vecs.neg(x) == vecs.pack(enumerate(M.neg(a) for a in u))
    assert vecs.pack(enumerate((M.zero,) * 5)) == 0
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


def test_packed_independence_matches_brute_force():
    # seeded lists of packed vectors killed by p, over modules with one
    # lane, two lanes of unequal order and three lanes, are independent
    # over F_p exactly when their p^len(xs) combinations are distinct; two
    # entries, so the top nonzero lane moves between entries and factors
    rng = random.Random(31)
    seen = Counter()
    for M in (regular_module(zmod(6)), regular_module(zmod(9)),
              _z4_plus_z2(), regular_module(upper_triangular(2, 2))):
        vecs = PackedVectors(M, 2)
        for p in (2, 3):
            torsion = [v for v in M.elements()
                       if reduce(M.add, [v] * p) == M.zero]
            for _ in range(60 * (len(torsion) > 1)):
                xs = [vecs.pack(enumerate(rng.choices(torsion, k=2)))
                      for _ in range(rng.randrange(1, 5))]
                multiples = [[0] for _ in xs]
                for ms, x in zip(multiples, xs):
                    while len(ms) < p:
                        ms.append(vecs.add(ms[-1], x))
                want = (len(set(bounded.half_sums(multiples, vecs)))
                        == p ** len(xs))
                assert vecs.independent(xs, p) == want, (M.label, p, xs)
                seen[want] += 1
    assert seen[True] and seen[False]


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
        assert dict(enumerate(slice_products(ctx))) == packed_rows(
            ctx, oracles.slice_scalar_action(ctx, range(ctx.m_space)))


def _orbit_contexts():
    """Every corpus context with m_space <= 10^4, then `_other_contexts`,
    then Z3xZ3[x1, x2] with the swap at d <= 1, where the torus x_i -> -x_i
    moves some kernel rows (every corpus row is a coefficient set, which it
    fixes) and two of its generators compose."""
    for name in corpus.names():
        inst = parse_instance(corpus.load(name))
        d = 0
        while (ctx := context(inst.module, inst.presentation,
                              d)).m_space <= 10 ** 4:
            yield f"{name} d={d}", ctx
            d += 1
    yield from _other_contexts()
    swap = parse_instance('{"ring":"Z3xZ3","variables":2,'
                          '"sigma":["swap","swap"],"relations":{"1,2":"(1,1)"}}')
    for d in range(2):
        yield f"Z3xZ3 swap d={d}", context(swap.module, swap.presentation, d)


def test_orbit_rep_is_the_least_index_of_each_orbit():
    # rep[m] is the least index of {g * m} over every (n, lam) of the group
    # of integer units and, over a quasi-commutative presentation, the torus
    # x_i -> lam_i x_i, listed by brute force; where the pair space is
    # within the default budget, the rows equal those a fresh context builds
    # with an identity orbit_rep, which splits a row out for every m
    seen, torus = set(), set()
    for case, ctx in _orbit_contexts():
        rep = ctx.orbit_rep()
        assert rep == oracles.orbit_minima(ctx), case
        seen.add(len(set(rep)) < ctx.m_space)
        torus.add(any(ctx._lam))
        if ctx.pair_space > bounded.DEFAULT_MAX_SPACE:
            continue
        kern, ann = ctx.kernel(), ctx.ann_am_rows()
        fresh = bounded.BoundedContext(ctx.module, ctx.presentation,
                                       ctx.degree)
        fresh._rep, fresh._lam = list(range(ctx.m_space)), [None] * ctx.m_space
        assert fresh.kernel() == kern and fresh.ann_am_rows() == ann, case
    assert seen == {True, False} and torus == {True, False}


def test_rows_move_with_the_group():
    # K_{g * m} = phi_lam(K_m) and A_{g * m} = phi_lam(A_m) for every m and
    # every (n, lam) of the group, on every context of the orbit test within
    # the default budget
    moved = set()
    for case, ctx in _orbit_contexts():
        if ctx.pair_space > bounded.DEFAULT_MAX_SPACE:
            continue
        kern, ann = ctx.kernel(), ctx.ann_am_rows()
        for g in oracles.orbit_group(ctx):
            phi = {f: oracles.torus_image(ctx, g[1], f)
                   for f in range(ctx.f_space)}
            for m_idx in range(ctx.m_space):
                gm = oracles.group_image(ctx, g, m_idx)
                assert kern[gm] == {phi[f] for f in kern[m_idx]}, (case, g)
                assert ann[gm] == {phi[f] for f in ann[m_idx]}, (case, g)
                moved.add(kern[gm] != kern[m_idx])
    assert moved == {True, False}


def test_pp_and_pq_baer_families_at_the_minima_match_every_m():
    # the first m whose kernel or ann(mA) row is no coeff_set(eR) is an
    # orbit minimum, with the row a scan of every m finds, on every context
    # of the orbit test within the default budget
    found, moved = set(), set()
    for case, ctx in _orbit_contexts():
        if ctx.pair_space > bounded.DEFAULT_MAX_SPACE:
            continue
        for family, rows in ((_pp_family, ctx.kernel()),
                             (_pq_baer_family, ctx.ann_am_rows())):
            want = _first_outside(ctx, bounded.DEFAULT_MAX_SPACE, rows.items())
            assert family(ctx, bounded.DEFAULT_MAX_SPACE) == want, case
            found.add(want is not None)
            moved.add(want is not None and any(ctx._lam))
    assert found == {True, False} and True in moved


def test_torus_is_trivial_without_quasi_commutativity_or_units():
    # weyl-dual-quotient has delta != 0, so x -> t x is no automorphism;
    # Z2 x Z2 has one unit, so z2xz2-swap has no torus but the identity
    for name, degree in (("weyl-dual-quotient", 3), ("z2xz2-swap", 3)):
        inst = parse_instance(corpus.load(name))
        ctx = context(inst.module, inst.presentation, degree)
        ones = (inst.presentation.ring.one,) * inst.presentation.n
        assert {lam for _, lam in oracles.orbit_group(ctx)} == {ones}
        ctx.orbit_rep()
        assert not any(ctx._lam), name


@pytest.mark.parametrize("name,degree,built", [
    ("z4-regular", 4, 360), ("z3-trivial", 2, 125), ("z2xz2-swap", 4, 1024)])
def test_kernel_builds_one_row_per_orbit(monkeypatch, name, degree, built):
    # a fresh context finds one kernel row per orbit, splitting out only
    # those whose leading term does not certify the row {0} or the whole
    # slice, and builds ann(mA) rows at the orbit minima only; an m with
    # lam = 1 shares its minimum's frozenset.  (Z2 x Z2, +) has exponent 2
    # and Z2 x Z2 one unit, so z2xz2-swap has no group element but 1 and
    # builds every row
    splits, acted = [], set()

    class Counted(bounded.Struct):
        def unpack(self, buffer):
            splits.append(1)
            return super().unpack(buffer)

    monkeypatch.setattr(bounded, "Struct", Counted)
    inst = parse_instance(corpus.load(name))
    ctx = context(inst.module, inst.presentation, degree)
    mterms = ctx.mterms
    monkeypatch.setattr(ctx, "mterms", lambda m_idx: acted.add(m_idx) or
                        mterms(m_idx))
    kern, ann = ctx.kernel(), ctx.ann_am_rows()
    rep = ctx.orbit_rep()
    split = {"z4-regular": 143, "z3-trivial": 0, "z2xz2-swap": 682}[name]
    assert len(splits) == split and len(set(rep)) == built
    assert acted <= set(rep)
    for m_idx, r in enumerate(rep):
        if ctx._lam[m_idx] is None:
            assert kern[m_idx] is kern[r] and ann[m_idx] is ann[r]


def _certificate_contexts():
    """Every corpus and `tests/instances` context with pair space <= 10^6,
    under deglex and under lex, then the contexts of `_other_contexts`."""
    texts = [(name, corpus.load(name)) for name in corpus.names()] + [
        (path.stem, path.read_text(encoding="utf-8"))
        for path in sorted(INSTANCES.glob("*.json"))]
    for name, text in texts:
        for order in ("deglex", "lex"):
            inst = parse_instance(text, order_override=order)
            d = 0
            while (ctx := context(inst.module, inst.presentation,
                                  d)).pair_space <= 10 ** 6:
                yield f"{name} {order} d={d}", ctx
                d += 1
    yield from _other_contexts()


def test_leading_units_certify_only_rows_the_split_finds():
    # every orbit minimum the kernel sorts out by its leading term, m = 0
    # and each m whose last nonzero term v x^basis[s] has trivial[s][v],
    # gets the row that the split finds for it; on U(sl2) under lex,
    # x2 x1 = x1 x2 + 2 x3 has the term x3 above x1 x2, so nothing is
    # certified at d = 1
    certified, lie_lex = Counter(), []
    for case, ctx in _certificate_contexts():
        tensor, monos = ctx.structure_tensor()
        trivial = ctx.leading_units(tensor, monos)
        lead = [ctx.mterms(m_idx)[-1:] for m_idx in ctx.minima()]
        sorted_out = [m_idx for m_idx, mt in zip(ctx.minima(), lead)
                      if not mt or trivial[ctx.slot[mt[0][0]]][mt[0][1]]]
        split = ctx._split_rows(tensor, len(monos), sorted_out)
        kern = ctx.kernel()
        for m_idx in sorted_out:
            assert kern[m_idx] == split[m_idx], (case, m_idx)
            certified[" lex " in case] += len(kern[m_idx]) == 1
        if case == "lie-sl2-z3 lex d=1":
            lie_lex.append(trivial)
    assert certified[False] and certified[True]
    assert lie_lex and not any(map(any, lie_lex[0]))


def test_kernel_rows_are_the_contexts_coeff_sets():
    # the whole slice and {0} are listed once per context: the m = 0 row is
    # coeff_set(R) and every certified row, at a minimum or spread from one,
    # is coeff_set({0}), the objects the Baer-family scans read
    inst = parse_instance(corpus.load("z3-trivial"))
    M, R = inst.module, inst.ring
    ctx = context(M, inst.presentation, 2)
    kern, rep = ctx.kernel(), ctx.orbit_rep()
    trivial = ctx.leading_units(*ctx.structure_tensor())
    certified = {m_idx for m_idx in ctx.minima() if (mt := ctx.mterms(m_idx))
                 and trivial[ctx.slot[mt[-1][0]]][mt[-1][1]]}
    assert len(certified) > len(ctx.minima()) / 2
    assert kern[ctx.m_term_index(ctx.basis[0], M.zero)] is ctx.coeff_set(
        R.elements())
    zero_row = ctx.coeff_set([R.zero])
    assert all(kern[m_idx] is zero_row for m_idx in range(ctx.m_space)
               if rep[m_idx] in certified)


def test_degree_zero_action_is_the_modules_own():
    # at degree 0 the slice is M, so the products read off the scalar
    # tables are M's own action table, packed
    for name in corpus.names():
        inst = parse_instance(corpus.load(name))
        M = inst.module
        for ctx in (context(M, None, 0), context(M, inst.presentation, 0)):
            pack = ctx.vectors.pack
            assert slice_products(ctx) == [
                tuple(pack([(0, x)]) for x in row) for row in M.action_table]


def test_context_refuses_a_module_over_another_ring():
    # a second zmod(4) has equal tables but is another ring: polymodule.act
    # refuses its products, so no row is built for it
    ring = zmod(4)
    P = validate_presentation(ring, [identity_map(ring)], [zero_map(ring)],
                              {}, label="Z4[x]")
    M = regular_module(zmod(4))
    with pytest.raises(PresentationMismatch, match="different ring"):
        context(M, P, 1)
    assert not M._contexts
    assert context(M, None, 0).kernel()
    assert context(regular_module(ring), P, 1).kernel()


def test_kernel_rows_over_the_zero_ring():
    # no normal form has a term, yet every f annihilates the one m
    ring = validate_ring([[0]], [[0]])
    P = validate_presentation(ring, [identity_map(ring)], [zero_map(ring)],
                              {}, label="0[x]")
    for d in (0, 2):
        ctx = context(regular_module(ring), P, d)
        assert ctx.kernel() == ctx.ann_am_rows() == {0: frozenset({0})}

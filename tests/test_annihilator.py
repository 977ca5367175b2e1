"""Annihilator ideals downstairs and degree-bounded annihilators upstairs."""

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
from spbw.bounded import context
from spbw.errors import SearchSpaceTooLarge, ValidationError
from spbw.finring import dual_z2, dual_z2_derivation, identity_map, zero_map, zmod
from spbw.polymodule import (module_constant, module_poly, quotient_module,
                             regular_module, validate_module)
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


def test_kernel_rows_when_the_module_outgrows_the_ring():
    # M = Z2^2 over Z2 has more bounded module polynomials than the ring has
    # bounded polynomials (16 against 4 at d = 1), so kernel() takes its
    # branch that caches the polynomial side; every row must still match
    # the independent reference
    ring = zmod(2)
    add = [[a ^ b for b in range(4)] for a in range(4)]
    action = [[0, m] for m in range(4)]
    M = validate_module(ring, add, action, label="Z2^2")
    P = validate_presentation(ring, [identity_map(ring)], [zero_map(ring)],
                              {}, label="Z2[x]")
    ctx = context(M, P, 1)
    assert ctx.m_space > ctx.f_space
    kern = ctx.kernel()
    for m_idx in range(ctx.m_space):
        got = {tuple(sorted(ctx.f_poly(f).terms.items()))
               for f in kern[m_idx]}
        want = {tuple(sorted(f.terms.items()))
                for f in ann_in_a_bounded([ctx.m_poly(m_idx)], 1)}
        assert got == want, ctx.m_poly(m_idx).to_string()

"""Right modules, quotients, submodule lattices, and M<X> polynomials."""

import pytest

from spbw.errors import PresentationMismatch, TooLarge, ValidationError
from spbw.finring import (
    dual_z2,
    dual_z2_derivation,
    identity_map,
    upper_triangular,
    zero_map,
    zmod,
    zmod_product,
)
from spbw.polymodule import (
    ModulePoly,
    act,
    act_scalar,
    all_submodules,
    cyclic_submodule,
    embedding_from_generator,
    module_poly,
    quotient_module,
    regular_module,
    right_ideal_closure,
    submodule_closure,
    validate_embedding,
    validate_module,
)
from spbw.skewpbw import mul, validate_presentation

import oracles
from conftest import module_constant, random_mpoly, random_poly, zero_module


def weyl_setup():
    ring = dual_z2()
    P = validate_presentation(ring, [identity_map(ring)],
                              [dual_z2_derivation(ring)], {}, label="weyl")
    M = quotient_module(ring, [ring.element_index("y")])
    return ring, P, M


def test_regular_module_mirrors_ring():
    ring = zmod(6)
    M = regular_module(ring)
    assert M.order == 6
    for a in ring.elements():
        for r in ring.elements():
            assert M.action_table[a][r] == ring.mul(a, r)
            assert M.add(a, r) == ring.add(a, r)


def test_zero_module():
    M = zero_module(zmod(4))
    assert M.order == 1
    assert M.action_table[0][3] == 0


def test_validate_module_rejections():
    ring = zmod(2)
    # additive group fine, but action not linear in the scalar:
    # m * 1 = 0 breaks unitality
    with pytest.raises(ValidationError):
        validate_module(ring, [[0, 1], [1, 0]], [[0, 0], [0, 0]])
    # action table with wrong column count
    with pytest.raises(ValidationError):
        validate_module(ring, [[0, 1], [1, 0]], [[0], [0]])
    # non-commutative "addition"
    with pytest.raises(ValidationError):
        validate_module(ring, [[0, 1], [0, 1]], [[0, 0], [0, 1]])


def test_right_ideal_closure():
    ring = zmod(6)
    assert right_ideal_closure(ring, [2]) == frozenset({0, 2, 4})
    assert right_ideal_closure(ring, [2, 3]) == frozenset(range(6))
    assert right_ideal_closure(ring, []) == frozenset({0})


def test_quotient_module_structure():
    ring, P, M = weyl_setup()
    # R/(y) has two cosets: {0, y} and {1, 1+y}
    assert M.order == 2
    assert M.names[0] == "[0]" and M.names[1] == "[1]"
    one = M.element_index("[1]")
    y = ring.element_index("y")
    # [1] * y = [y] = [0]: the ideal kills y
    assert M.action_table[one][y] == M.zero
    assert M.action_table[one][ring.one] == one


def test_quotient_by_unit_is_zero():
    ring = zmod(5)
    M = quotient_module(ring, [2])
    assert M.order == 1


def test_submodule_closure_and_cyclic_match_oracle():
    for ring in (zmod(4), zmod(6), zmod_product(2, 2)):
        M = regular_module(ring)
        for m in M.elements():
            assert cyclic_submodule(M, m).elements == oracles.brute_cyclic(M, m)
        assert submodule_closure(M, ()) == frozenset({M.zero})


def test_all_submodules_of_z2xz2():
    # exactly 4: the diagonal {(0,0),(1,1)} is NOT a submodule because
    # (1,1)*(1,0) = (1,0) escapes it
    ring = zmod_product(2, 2)
    M = regular_module(ring)
    subs = all_submodules(M)
    carriers = [s.elements for s in subs]
    assert len(carriers) == 4
    assert frozenset({0}) in carriers
    assert frozenset({0, 1}) in carriers      # 0 x Z2
    assert frozenset({0, 2}) in carriers      # Z2 x 0
    assert frozenset(range(4)) in carriers
    assert frozenset({0, 3}) not in carriers
    assert set(carriers) == set(oracles.brute_submodules(M))


def test_all_submodules_sorted_and_capped():
    M = regular_module(zmod(6))
    subs = all_submodules(M)
    sizes = [len(s) for s in subs]
    assert sizes == sorted(sizes)
    assert len(subs) == 4  # {0}, 2Z6, 3Z6, Z6
    with pytest.raises(TooLarge):
        all_submodules(M, max_order=4)


@pytest.mark.filterwarnings("ignore:ring of order 64")
@pytest.mark.parametrize("ring", [
    lambda: zmod(16), lambda: zmod(64), lambda: zmod(12),
    lambda: zmod_product(2, 4), lambda: zmod_product(4, 4),
    lambda: zmod_product(2, 8), lambda: upper_triangular(2, 2)],
    ids=["Z16", "Z64", "Z12", "Z2xZ4", "Z4xZ4", "Z2xZ8", "UT(2,Z2)"])
def test_all_submodules_match_the_closure_lattice(ring):
    M = regular_module(ring())
    got = [s.elements for s in all_submodules(M, max_order=64)]
    assert got == oracles.closure_lattice(M)


def test_embeddings():
    ring = zmod(4)
    M = regular_module(ring)
    emb = validate_embedding(ring, M, tuple(range(4)))
    assert emb == tuple(range(4))
    assert embedding_from_generator(ring, M, 1) == emb
    # r -> 3r is also injective and right linear
    emb3 = embedding_from_generator(ring, M, 3)
    assert emb3 == (0, 3, 2, 1)
    # r -> 2r collapses
    with pytest.raises(ValidationError):
        embedding_from_generator(ring, M, 2)


def test_weyl_quotient_admits_no_embedding():
    # |R| = 4 > 2 = |M|: no injective map exists at all
    ring, P, M = weyl_setup()
    for u in M.elements():
        with pytest.raises(ValidationError):
            embedding_from_generator(ring, M, u)


def test_module_poly_basics():
    ring, P, M = weyl_setup()
    one = M.element_index("[1]")
    u = module_poly(M, P, {(0,): one, (2,): one})
    assert u.deg() == 2
    assert u.lm() == (2,)
    assert u.lc() == one
    assert u.constant_coefficient() == one
    assert u.coefficient((1,)) == M.zero
    assert u.coefficients() == {one}
    assert module_constant(M, P, M.zero).is_zero()
    assert (u - u).is_zero()
    assert u + u == module_poly(M, P, {})  # char 2


def test_module_poly_merges_duplicate_terms():
    ring, P, M = weyl_setup()
    one = M.element_index("[1]")
    assert module_poly(M, P, [((1,), one), ((1,), one)]).is_zero()


def test_act_unfolds_weyl_derivation():
    ring, P, M = weyl_setup()
    one = M.element_index("[1]")
    y = ring.element_index("y")
    u = module_poly(M, P, {(1,): one})     # [1] x
    # ([1] x) * y = [1] sigma(y) x + [1] delta(y) = [0] x + [1]
    got = act(u, P.constant(y))
    assert got == module_constant(M, P, one)
    # constants are killed by y
    assert act_scalar(module_constant(M, P, one), y).is_zero()


def test_act_is_module_action(rng):
    # (m * f) * g == m * (f g) and additivity both ways
    ring, P, M = weyl_setup()
    for _ in range(200):
        u = random_mpoly(rng, M, P, 3, 4)
        f = random_poly(rng, P, 3, 4)
        g = random_poly(rng, P, 3, 4)
        assert act(act(u, f), g) == act(u, mul(f, g))
        assert act(u, f + g) == act(u, f) + act(u, g)
        v = random_mpoly(rng, M, P, 3, 4)
        assert act(u + v, f) == act(u, f) + act(v, f)
        assert act(u, P.one_poly()) == u


def test_act_scalar_matches_tables(rng):
    ring, P, M = weyl_setup()
    for m in M.elements():
        for r in ring.elements():
            got = act_scalar(module_constant(M, P, m), r)
            want = module_constant(M, P, M.action_table[m][r])
            assert got == want


def test_mismatched_operands_rejected():
    ring, P, M = weyl_setup()
    other = validate_presentation(ring, [identity_map(ring)],
                                  [zero_map(ring)], {}, label="other")
    u = module_constant(M, P, M.element_index("[1]"))
    with pytest.raises(PresentationMismatch):
        act(u, other.one_poly())
    v = module_constant(M, other, M.element_index("[1]"))
    with pytest.raises(PresentationMismatch):
        u + v


def test_module_poly_validation():
    ring, P, M = weyl_setup()
    with pytest.raises(ValidationError):
        module_poly(M, P, {(1, 0): 1})
    with pytest.raises(ValidationError):
        module_poly(M, P, {(1,): 9})


def test_module_poly_to_string():
    ring, P, M = weyl_setup()
    one = M.element_index("[1]")
    u = module_poly(M, P, {(0,): one, (1,): one})
    s = u.to_string()
    assert "[1]" in s and "x1" in s
    assert ModulePoly(M, P, {}).to_string() == "0"

"""Ring layer: builders, axiom validation, twist maps, element scans."""

import hashlib
import json
import time

import pytest

from spbw.errors import ValidationError
from spbw.finring import (
    closure_monoid,
    dual_z2,
    dual_z2_derivation,
    idempotents,
    identity_map,
    is_central,
    is_two_sided_invertible,
    left_invertibles,
    swap_endomorphism,
    upper_triangular,
    validate_endomorphism,
    validate_ring,
    validate_sigma_derivation,
    zero_map,
    zmod,
    zmod_product,
)

import oracles


def ring_zoo():
    return [
        zmod(2),
        zmod(3),
        zmod(4),
        zmod(6),
        zmod_product(2, 2),
        zmod_product(2, 3),
        dual_z2(),
        upper_triangular(2, 2),
    ]


@pytest.mark.parametrize("ring", ring_zoo(), ids=lambda r: r.label)
def test_builders_pass_revalidation(ring):
    again = validate_ring(ring.add_table, ring.mul_table,
                          label=ring.label, names=list(ring.names))
    assert again.zero == ring.zero
    assert again.one == ring.one


@pytest.mark.parametrize("ring", ring_zoo(), ids=lambda r: r.label)
def test_basic_identities(ring):
    for a in ring.elements():
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.mul(ring.one, a) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        assert ring.sub(a, a) == ring.zero


def test_zmod_product_indexing():
    ring = zmod_product(2, 3)
    # (1,2) has index 1*3 + 2 = 5
    assert ring.name(5) == "(1,2)"
    assert ring.add(5, 5) == ring.element_index("(0,1)")
    assert ring.mul(5, 5) == ring.element_index("(1,1)")


def test_dual_z2_is_nil_extension():
    ring = dual_z2()
    y = ring.element_index("y")
    assert ring.mul(y, y) == ring.zero
    assert ring.mul(ring.element_index("1+y"), y) == y
    assert ring.is_commutative()


def test_upper_triangular_is_noncommutative():
    ring = upper_triangular(2, 2)
    assert ring.order == 8
    assert not ring.is_commutative()
    e11 = ring.element_index("100")
    e12 = ring.element_index("010")
    assert ring.mul(e11, e12) == e12
    assert ring.mul(e12, e11) == ring.zero


def test_upper_triangular_order_cap():
    with pytest.raises(ValidationError):
        upper_triangular(3, 3)


def test_validate_ring_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        validate_ring([[0, 1], [1]], [[0, 0], [0, 1]])
    with pytest.raises(ValidationError):
        validate_ring([[0, 1], [1, 2]], [[0, 0], [0, 1]])


def test_validate_ring_rejects_missing_zero():
    # a + a = 1 for every a: no additive identity
    with pytest.raises(ValidationError):
        validate_ring([[1, 0], [0, 1]], [[0, 0], [0, 1]])


def test_validate_ring_rejects_broken_distributivity():
    # 0*1 = 1 contradicts left distributivity over 0 = 0 + 0
    with pytest.raises(ValidationError):
        validate_ring([[0, 1], [1, 0]], [[0, 1], [1, 1]])


def test_validate_ring_rejects_missing_one():
    with pytest.raises(ValidationError):
        validate_ring([[0, 1], [1, 0]], [[0, 0], [0, 0]])


def test_endomorphism_validation():
    ring = zmod_product(2, 2)
    sw = swap_endomorphism(ring)
    assert sw(ring.element_index("(1,0)")) == ring.element_index("(0,1)")
    assert validate_endomorphism(ring, tuple(range(4))).table == identity_map(ring).table

    # x -> 2x on Z4 does not fix 1
    with pytest.raises(ValidationError):
        validate_endomorphism(zmod(4), (0, 2, 0, 2))

    # additive but not multiplicative on Z4: x -> 3x sends 1 to 3
    with pytest.raises(ValidationError):
        validate_endomorphism(zmod(4), (0, 3, 2, 1))


def test_endomorphism_must_be_injective():
    # a + by -> a is a unital ring endomorphism of Z2[y]/(y^2) but collapses y
    with pytest.raises(ValidationError) as err:
        validate_endomorphism(dual_z2(), (0, 1, 0, 1))
    assert err.value.kind == "not_injective"


def test_swap_requires_square_product():
    with pytest.raises(ValidationError):
        swap_endomorphism(zmod_product(2, 3))
    with pytest.raises(ValidationError):
        swap_endomorphism(zmod(4))


def test_derivation_validation():
    ring = dual_z2()
    d = dual_z2_derivation(ring)
    y = ring.element_index("y")
    assert d(y) == ring.one
    assert d(ring.one) == ring.zero

    z = zero_map(ring)
    assert all(z(a) == ring.zero for a in ring.elements())

    # delta(1) = 0 is forced by the Leibniz rule
    with pytest.raises(ValidationError):
        validate_sigma_derivation(zmod(3), identity_map(zmod(3)), (0, 1, 2))


def test_derivation_leibniz_cross_term():
    # on Z4 with sigma = id, delta(x) = 2x is additive but fails Leibniz:
    # delta(1) = 2 already breaks it
    with pytest.raises(ValidationError):
        validate_sigma_derivation(zmod(4), identity_map(zmod(4)), (0, 2, 0, 2))


@pytest.mark.parametrize("ring", ring_zoo(), ids=lambda r: r.label)
def test_idempotents_match_oracle(ring):
    assert set(idempotents(ring)) == set(oracles.brute_idempotents(ring))


@pytest.mark.parametrize("ring", ring_zoo(), ids=lambda r: r.label)
def test_left_invertibles_match_oracle(ring):
    assert set(left_invertibles(ring)) == set(oracles.brute_left_invertibles(ring))


def test_two_sided_invertible_agrees_with_brute():
    ring = upper_triangular(2, 2)
    for u in ring.elements():
        brute = any(ring.mul(v, u) == ring.one and ring.mul(u, v) == ring.one
                    for v in ring.elements())
        assert is_two_sided_invertible(ring, u) == brute


def test_centrality_in_upper_triangular():
    ring = upper_triangular(2, 2)
    assert is_central(ring, ring.one)
    assert is_central(ring, ring.zero)
    u = ring.element_index("111")  # 1 + e12: invertible but not central
    assert is_two_sided_invertible(ring, u)
    assert not is_central(ring, u)


def test_closure_monoid_identity_first():
    ring = zmod_product(2, 2)
    pairs = closure_monoid(ring, [swap_endomorphism(ring)], labels=("s1",))
    assert len(pairs) == 2
    assert pairs[0] == ("id", tuple(range(ring.order)))
    label, swap = pairs[1]
    assert label == "s1"
    assert swap[ring.element_index("(1,0)")] == ring.element_index("(0,1)")


def test_closure_monoid_of_nilpotent_derivation():
    ring = dual_z2()
    d = dual_z2_derivation(ring)
    pairs = closure_monoid(ring, [d], labels=("d1",))
    # id, d and d.d (which kills everything but fixes nothing new), then
    # the closure stabilizes
    dd = tuple(d(d(a)) for a in ring.elements())
    assert pairs == [("id", tuple(range(4))), ("d1", tuple(d.table)),
                     ("d1.d1", dd)]


def test_safe_name_fallback():
    ring = zmod_product(2, 2)
    # friendly names contain commas and parens but no grammar characters
    assert ring.safe_name(1) == "(0,1)"
    ut = upper_triangular(2, 2)
    assert ut.safe_name(5) == "101"
    d = dual_z2()
    # "1+y" collides with the polynomial grammar, canonical spelling instead
    assert d.safe_name(3) == "e3"
    assert d.element_index("e3") == 3
    assert d.element_index("1+y") == 3
    with pytest.raises(ValidationError):
        d.element_index("nope")


@pytest.mark.parametrize("build", [lambda: zmod(2000),
                                   lambda: zmod_product(40, 40)],
                         ids=["zmod-2000", "zmod_product-40x40"])
def test_oversized_shorthand_refused_before_building_tables(build):
    t0 = time.monotonic()
    with pytest.raises(ValidationError) as exc:
        build()
    assert exc.value.kind == "bad_table"
    assert time.monotonic() - t0 < 0.1


def _shorthand_rings():
    """Every shorthand ring the table digest below pins, in a fixed order."""
    rings = [zmod(n) for n in [*range(1, 17), 32, 64]]
    rings += [zmod_product(a, b) for a in range(1, 17) for b in range(1, 17)
              if a * b <= 16]
    rings.append(dual_z2())
    rings += [upper_triangular(n, p) for n, p in
              [(0, 2), (1, 5), (2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (5, 1)]]
    return rings


def test_shorthand_tables_are_pinned():
    # sha256 of every shorthand ring's tables, names, zero, one, label and
    # product_factors, and of the swap tables on Z2xZ2 and Z4xZ4, recorded
    # before the shorthand constructors were rebuilt on one table builder
    with pytest.warns(UserWarning) as caught:
        rings = _shorthand_rings()
    assert [str(w.message) for w in caught] == [
        f"ring of order {q}: bounded deciders will be slow"
        for q in (32, 64, 27, 64, 64)]
    data = [[r.add_table, r.mul_table, r.names, r.zero, r.one, r.label,
             r.product_factors] for r in rings]
    data += [swap_endomorphism(zmod_product(a, a)).table for a in (2, 4)]
    blob = json.dumps(data, separators=(",", ":")).encode()
    assert len(rings) == 77
    assert hashlib.sha256(blob).hexdigest() == (
        "fc52dd3d46b1983cd06f0b14b2da9f76d90eef3e835f46437a2e4d68a58ee0bb")

"""Monomial order axioms and bounded enumeration."""

from itertools import combinations_with_replacement
from math import comb

import pytest

from spbw.errors import ValidationError
from spbw.monomial import (
    MAX_BASIS,
    MonomialOrder,
    add,
    compare,
    default_order,
    degree,
    enumerate_upto,
    sort_key,
)


def all_exponents(n, d):
    out = []
    for total in range(d + 1):
        for c in combinations_with_replacement(range(n), total):
            alpha = [0] * n
            for i in c:
                alpha[i] += 1
            out.append(tuple(alpha))
    return out


def test_add_and_degree():
    assert add((1, 2), (0, 3)) == (1, 5)
    assert degree((2, 0, 1)) == 3
    assert degree(()) == 0


@pytest.mark.parametrize("kind", ["deglex", "lex"])
def test_order_is_total_and_antisymmetric(kind):
    order = default_order(3, kind)
    pts = all_exponents(3, 3)
    for a in pts:
        assert compare(order, a, a) == 0
        for b in pts:
            if a != b:
                assert compare(order, a, b) == -compare(order, b, a) != 0


@pytest.mark.parametrize("kind", ["deglex", "lex"])
def test_order_respects_addition(kind):
    # the defining monomial order axiom: a < b implies a+c < b+c
    order = default_order(2, kind)
    pts = all_exponents(2, 3)
    for a in pts:
        for b in pts:
            if compare(order, a, b) < 0:
                for c in pts:
                    assert compare(order, add(a, c), add(b, c)) < 0


def test_constant_is_minimum():
    order = default_order(3, "deglex")
    zero = (0, 0, 0)
    for alpha in all_exponents(3, 3):
        if alpha != zero:
            assert compare(order, zero, alpha) < 0


def test_deglex_sorts_by_degree_first():
    order = default_order(2, "deglex")
    # x1^3 vs x2: degree wins
    assert compare(order, (0, 1), (3, 0)) < 0


def test_lex_ignores_degree():
    order = default_order(2, "lex")
    # precedence (1, 0) means slot 1 (x2) dominates, so x2 > x1^3
    assert compare(order, (3, 0), (0, 1)) < 0


def test_precedence_permutation():
    # reversed precedence makes x1 dominate
    order = MonomialOrder("lex", (0, 1))
    assert compare(order, (1, 0), (0, 5)) > 0


def test_enumerate_upto_counts():
    for n in (1, 2, 3):
        for d in (0, 1, 2, 3):
            basis = enumerate_upto(n, d)
            assert len(basis) == comb(n + d, d)
            assert len(set(basis)) == len(basis)
            assert all(degree(a) <= d for a in basis)


def test_enumerate_upto_refuses_past_the_basis_cap():
    # C(n+d, n) is sized first, so a huge d is refused at once
    assert len(enumerate_upto(1, MAX_BASIS - 1)) == MAX_BASIS
    assert len(enumerate_upto(2, 21)) == comb(23, 2) <= MAX_BASIS
    assert enumerate_upto(0, 10 ** 12) == [()]   # no variables: one monomial
    for n, d in ((1, MAX_BASIS), (2, 22), (64, 2), (1, 10 ** 100), (2, -1)):
        with pytest.raises(ValidationError) as err:
            enumerate_upto(n, d)
        assert err.value.kind == "bad_input"


def test_enumerate_upto_is_ascending():
    order = default_order(2, "deglex")
    basis = enumerate_upto(2, 3, order)
    assert basis[0] == (0, 0)
    for i in range(len(basis) - 1):
        assert compare(order, basis[i], basis[i + 1]) < 0
    assert basis == sorted(basis, key=sort_key(order))


def test_enumerate_upto_lex_order():
    order = default_order(2, "lex")
    basis = enumerate_upto(2, 2, order)
    assert basis[0] == (0, 0)
    for i in range(len(basis) - 1):
        assert compare(order, basis[i], basis[i + 1]) < 0


def test_bad_order_kind_rejected():
    with pytest.raises(ValidationError):
        MonomialOrder("degrevlex", (1, 0))
    with pytest.raises(ValidationError):
        MonomialOrder("deglex", (0, 0))

"""Exponent multi-indices and monomial orders.

A monomial in n variables is its exponent tuple alpha in N^n.  Orders are
degree-lexicographic (default) or lexicographic, with an explicit variable
precedence; the default precedence makes the last variable the most
significant, matching the convention x_n > ... > x_1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import ValidationError

Exponent = tuple
# Most monomials a degree bound may give: every guarded space, at most
# |M|^(2k) * |R|, then has under 4,300 digits for any |M| < 2 * 10^8.
MAX_BASIS = 256


@dataclass(frozen=True)
class MonomialOrder:
    kind: str                 # "deglex" or "lex"
    precedence: tuple         # 0-based variable indices, most significant first

    def __post_init__(self):
        if self.kind not in ("deglex", "lex"):
            raise ValidationError("bad_order", witness=self.kind)
        n = len(self.precedence)
        if sorted(self.precedence) != list(range(n)):
            raise ValidationError("bad_order", witness=self.precedence,
                                  message="precedence must be a permutation of the variables")


def default_order(n: int, kind: str = "deglex") -> MonomialOrder:
    return MonomialOrder(kind, tuple(range(n - 1, -1, -1)))


def add(a: Exponent, b: Exponent) -> Exponent:
    if len(a) != len(b):
        raise ValidationError("length_mismatch", witness=(len(a), len(b)))
    return tuple(x + y for x, y in zip(a, b))


def degree(a: Exponent) -> int:
    return sum(a)


def compare(order: MonomialOrder, a: Exponent, b: Exponent) -> int:
    """-1, 0, or 1 as a < b, a == b, a > b under the order."""
    if len(a) != len(b) or len(a) != len(order.precedence):
        raise ValidationError("length_mismatch", witness=(len(a), len(b)))
    if order.kind == "deglex":
        da, db = sum(a), sum(b)
        if da != db:
            return -1 if da < db else 1
    for v in order.precedence:
        if a[v] != b[v]:
            return -1 if a[v] < b[v] else 1
    return 0


def sort_key(order: MonomialOrder):
    return functools.cmp_to_key(lambda a, b: compare(order, a, b))


def enumerate_upto(n: int, d: int, order: MonomialOrder | None = None):
    """All exponents of total degree <= d, ascending under the order.

    The result has C(n+d, d) entries, refused past MAX_BASIS or d < 0.
    """
    if d < 0 or math.comb(n + d, n) > MAX_BASIS:
        raise ValidationError("bad_input", witness=d, message=(
            f"degree bound {d} in {n} variables: need d >= 0 and at most {MAX_BASIS} monomials"))
    if order is None:
        order = default_order(n)
    out = []
    for total in range(d + 1 if n else 1):
        for c in itertools.combinations_with_replacement(range(n), total):
            alpha = [0] * n
            for i in c:
                alpha[i] += 1
            out.append(tuple(alpha))
    out.sort(key=sort_key(order))
    return out

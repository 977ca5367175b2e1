"""Annihilator ideals in the base ring and bounded annihilators upstairs.

For a set X of module elements, ann(X) = {r in R : x*r = 0 for all x} is a
right ideal; idempotent generation of such ideals is what the Baer family of
properties is about.  Annihilators inside the extension A itself are
infinite objects, so they are only ever computed degree-bounded: all
polynomials with support of degree <= d that kill the given module
polynomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import SearchSpaceTooLarge, ValidationError
from .finring import FiniteRing, idempotents
from .monomial import enumerate_upto
from .polymodule import ModulePoly, RightModule, act, check_closed
from .skewpbw import SkewPoly

ANN_BOUNDED_CANDIDATE_LIMIT = 10 ** 6


@dataclass(frozen=True)
class RightIdeal:
    ring: FiniteRing = field(compare=False)
    elements: frozenset

    def __post_init__(self):
        check_closed(self.ring, self.ring.mul_table, self.elements,
                     "not_right_ideal")

    def __contains__(self, r):
        return r in self.elements

    def __len__(self):
        return len(self.elements)

    def sorted_elements(self):
        return sorted(self.elements)


def ann_in_r(M: RightModule, X) -> RightIdeal:
    """The right ideal {r : x*r = 0 for every x in X}; X may be empty."""
    R = M.ring
    zero = M.zero
    els = frozenset(r for r in R.elements()
                    if all(M.action_table[x][r] == zero for x in X))
    return RightIdeal(R, els)


def principal_right_ideal(R: FiniteRing, e: int) -> frozenset:
    return frozenset(R.mul_table[e][r] for r in R.elements())


def idempotent_generator(R: FiniteRing, ideal) -> int | None:
    """The smallest idempotent e with eR equal to the ideal, if one exists."""
    target = ideal.elements if isinstance(ideal, RightIdeal) else frozenset(ideal)
    for e in idempotents(R):
        if principal_right_ideal(R, e) == target:
            return e
    return None


def is_idempotent_generated(R: FiniteRing, ideal) -> bool:
    return idempotent_generator(R, ideal) is not None


def annihilates(mp: ModulePoly, f: SkewPoly) -> bool:
    return act(mp, f).is_zero()


def ann_in_a_bounded(Ms, d: int,
                     max_candidates: int = ANN_BOUNDED_CANDIDATE_LIMIT) -> list:
    """All polynomials of degree <= d killing every module polynomial in Ms.

    Ms must be a non-empty iterable of ModulePoly over one module and one
    presentation (the zero polynomial is fine and makes every candidate
    match).  Candidates are enumerated in lexicographic coefficient order
    over the ascending monomial basis, so the result order is deterministic.

    Kept on purpose beside `BoundedContext.kernel`: it goes through
    `polymodule.act`, so tests use it as an independent reference.
    """
    Ms = list(Ms)
    if not Ms:
        raise ValidationError("bad_input",
                              message="ann_in_a_bounded needs at least one module polynomial")
    P = Ms[0].presentation
    M = Ms[0].module
    for mp in Ms:
        if mp.presentation is not P or mp.module is not M:
            raise ValidationError("bad_input",
                                  message="module polynomials disagree on module or presentation")
    basis = enumerate_upto(P.n, d, P.order)
    q = P.ring.order
    space = q ** len(basis)
    if space > max_candidates:
        raise SearchSpaceTooLarge(space, max_candidates, what="ann_in_a_bounded")
    out = []
    for coeffs in itertools.product(range(q), repeat=len(basis)):
        f = SkewPoly(P, {a: c for a, c in zip(basis, coeffs) if c != P.ring.zero})
        if all(act(mp, f).is_zero() for mp in Ms):
            out.append(f)
    return out

"""Annihilator ideals in the base ring.

For a set X of module elements, ann(X) = {r in R : x*r = 0 for all x} is a
right ideal; idempotent generation of such ideals is what the Baer family of
properties is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .finring import FiniteRing, idempotents
from .polymodule import RightModule, check_closed


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

"""Right modules over a finite ring and polynomial modules over an extension.

A right module M is given by dense tables, exactly like the rings in
:mod:`spbw.finring`: an abelian group table on {0, .., order-1} and an action
table M x R -> M.  `RightModule` extends the carrier base
`finring.AdditiveCarrier` that `FiniteRing` extends too.  The polynomial
module M<X> over a skew PBW extension A has elements sum m_i x^alpha_i with
module coefficients on the left; `ModulePoly` extends the term-dict base
`skewpbw.TermPoly` that `SkewPoly` extends too.  A acts on
the right through the term-product loop the ring product uses
(`skewpbw.term_products`), with the action table in place of the mul table.
For a term m x^a acted on by b x^b, the ring-level normal form of
x^a * b * x^b is computed first and m is then applied to each of its
coefficients, which is exactly the coefficient expansion the definitions
prescribe, because the action associates over ring products.

R is the right module R_R, so a right ideal is a submodule of R_R: one
closure (`closure`) and one closed-subset check (`check_closed`) serve
submodules and right ideals, given the action or the mul table.  Modules are
validated with the table, group and names checks of :mod:`spbw.finring`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (PresentationMismatch, TooLarge, ValidationError)
from .finring import (AdditiveCarrier, FiniteRing, abelian_group_zero,
                      check_names, check_table)
from .skewpbw import (SkewPbwPresentation, SkewPoly, TermPoly, collect_terms,
                      term_products)


class RightModule(AdditiveCarrier):
    """A finite right R-module given by add and action tables.

    Use :func:`validate_module` (or the shorthand constructors) so the
    module axioms are certified before anything downstream trusts them.
    """

    _prefix = "m"
    _kind = "module"

    def __init__(self, ring, add_table, action_table, zero, names, label=""):
        super().__init__(len(add_table), add_table, zero, names, label)
        self.ring = ring
        self.action_table = action_table
        self._contexts = {}  # (presentation|None, degree) -> BoundedContext
        self._packing = None  # (M, +) as lanes, see bounded.PackedVectors


def validate_module(ring: FiniteRing, add_table, action_table,
                    label="", names=None) -> RightModule:
    """Exhaustively check the right module axioms.

    Kinds raised: bad_table, bad_group, not_unital, action_not_associative,
    not_biadditive.
    """
    order = len(add_table) if isinstance(add_table, (list, tuple)) else 0
    if order == 0:
        raise ValidationError("bad_table", witness="add",
                              message="module add table must be a non-empty list")
    add_table = check_table(add_table, order, "add", order, order)
    action_table = check_table(action_table, order, "action", order, ring.order)
    zero = abelian_group_zero(add_table)

    rng = range(order)
    for m in rng:
        if action_table[m][ring.one] != m:
            raise ValidationError("not_unital", witness=(m,))
        for r in ring.elements():
            mr = action_table[m][r]
            for s in ring.elements():
                if action_table[m][ring.mul_table[r][s]] != action_table[mr][s]:
                    raise ValidationError("action_not_associative", witness=(m, r, s))
                if action_table[m][ring.add_table[r][s]] != \
                        add_table[mr][action_table[m][s]]:
                    raise ValidationError("not_biadditive", witness=(m, r, s))
        for m2 in rng:
            for r in ring.elements():
                if action_table[add_table[m][m2]][r] != \
                        add_table[action_table[m][r]][action_table[m2][r]]:
                    raise ValidationError("not_biadditive", witness=(m, m2, r))

    names = check_names(names, order, RightModule._prefix)
    return RightModule(ring, add_table, action_table, zero, names, label=label)


def regular_module(ring: FiniteRing) -> RightModule:
    """R as a right module over itself."""
    return validate_module(ring, ring.add_table, ring.mul_table,
                           label=f"{ring.label or 'R'} (regular)",
                           names=ring.names)


def zero_module(ring: FiniteRing) -> RightModule:
    return validate_module(ring, ((0,),), ((0,) * ring.order,),
                           label="0", names=("0",))


def right_ideal_closure(ring: FiniteRing, generators) -> frozenset:
    """Smallest right ideal of R containing the generators: the submodule
    of R_R they generate."""
    return closure(ring, ring.mul_table, generators)


def quotient_module(ring: FiniteRing, ideal_generators) -> RightModule:
    """The quotient R/I of the regular module by a right ideal.

    Cosets are ordered by their smallest representative; names are the
    representative's name in brackets.
    """
    ideal = right_ideal_closure(ring, ideal_generators)
    seen = {}
    reps = []
    for a in ring.elements():
        coset = frozenset(ring.add_table[a][i] for i in ideal)
        if coset not in seen:
            seen[coset] = len(reps)
            reps.append(min(coset))
    index_of = {}
    for coset, ci in seen.items():
        for a in coset:
            index_of[a] = ci
    order = len(reps)
    add = [[index_of[ring.add_table[reps[i]][reps[j]]] for j in range(order)]
           for i in range(order)]
    action = [[index_of[ring.mul_table[reps[i]][r]] for r in ring.elements()]
              for i in range(order)]
    names = [f"[{ring.name(reps[i])}]" for i in range(order)]
    gens_txt = ",".join(ring.name(g) for g in sorted(ideal_generators))
    return validate_module(ring, add, action,
                           label=f"{ring.label}/({gens_txt})", names=names)


def validate_embedding(ring: FiniteRing, module: RightModule, table) -> tuple:
    """An injective right R-linear map R -> M, as a table.

    Determined by the image of 1; checked to be additive, injective and
    action compatible, which is what the theorems needing R inside M use.
    """
    table = check_table(table, module.order, "embedding", ring.order)
    if len(set(table)) != ring.order:
        raise ValidationError("not_injective", witness="embedding")
    for r in ring.elements():
        for s in ring.elements():
            if table[ring.add_table[r][s]] != \
                    module.add_table[table[r]][table[s]]:
                raise ValidationError("not_additive", witness=("embedding", r, s))
            if table[ring.mul_table[r][s]] != module.action_table[table[r]][s]:
                raise ValidationError("not_linear", witness=("embedding", r, s))
    return table


def embedding_from_generator(ring: FiniteRing, module: RightModule, u: int) -> tuple:
    """The map r -> u * r, validated as an embedding."""
    return validate_embedding(ring, module,
                              tuple(module.action_table[u][r] for r in ring.elements()))


# ---------------------------------------------------------------------------
# submodules


def closure(carrier: AdditiveCarrier, action_table, generators) -> frozenset:
    """Smallest subset holding 0 and the generators that is closed under
    addition and the right action `action_table` (carrier x R -> carrier):
    a submodule of M, or of R_R (a right ideal) with the mul table."""
    add = carrier.add_table
    cur = {carrier.zero}
    cur.update(generators)
    while True:
        nxt = set(cur)
        for a in cur:
            for b in cur:
                nxt.add(add[a][b])
            nxt.update(action_table[a])
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


def check_closed(carrier: AdditiveCarrier, action_table, elements, kind: str):
    """Refuse, as ValidationError(kind), a subset that misses 0 or is not
    closed under addition and the right action `action_table`."""
    if carrier.zero not in elements:
        raise ValidationError(kind, witness=carrier.zero)
    add = carrier.add_table
    for a in elements:
        for b in elements:
            if add[a][b] not in elements:
                raise ValidationError(kind, witness=(a, b))
        for r, v in enumerate(action_table[a]):
            if v not in elements:
                raise ValidationError(kind, witness=(a, r))


@dataclass(frozen=True)
class Submodule:
    module: RightModule = field(compare=False)
    elements: frozenset

    def __post_init__(self):
        check_closed(self.module, self.module.action_table, self.elements,
                     "not_submodule")

    def __len__(self):
        return len(self.elements)


def submodule_closure(M: RightModule, generators) -> frozenset:
    return closure(M, M.action_table, generators)


def cyclic_submodule(M: RightModule, m: int) -> Submodule:
    """mR: the orbit of m, already closed by biadditivity (m*r + m*s =
    m*(r + s), (m*r)*s = m*(rs))."""
    return Submodule(M, frozenset(M.action_table[m]))


def all_submodules(M: RightModule, max_order: int = 16):
    """The full submodule lattice, for carriers of at most max_order elements.

    Each submodule is a sum of cyclic ones mR and S + mR is a submodule, so
    the lattice grows from 0 by adding each distinct mR to each S found that
    lacks it, with no closure.  Deterministic order: by size, then carrier.
    """
    if M.order > max_order:
        raise TooLarge(M.order, max_order, what="all_submodules")
    cyclics = {frozenset(row) for row in M.action_table}
    found = {frozenset({M.zero})}
    frontier = list(found)
    while frontier:
        fresh = []
        for S in frontier:
            for C in cyclics:
                if not C <= S:
                    T = frozenset(M.add_table[s][c] for s in S for c in C)
                    if T not in found:
                        found.add(T)
                        fresh.append(T)
        frontier = fresh
    ordered = sorted(found, key=lambda s: (len(s), sorted(s)))
    return [Submodule(M, s) for s in ordered]


# ---------------------------------------------------------------------------
# polynomial modules


class ModulePoly(TermPoly):
    """An element of M<X>: module coefficients on sorted monomials."""

    __slots__ = ("module",)

    def __init__(self, module: RightModule, presentation: SkewPbwPresentation,
                 terms: dict):
        self.module = module
        self.presentation = presentation
        self.terms = terms

    @property
    def carrier(self) -> RightModule:
        return self.module

    def _with(self, terms: dict) -> "ModulePoly":
        return ModulePoly(self.module, self.presentation, terms)

    def coefficients(self):
        """The set of nonzero coefficients."""
        return set(self.terms.values())


def module_poly(M: RightModule, P: SkewPbwPresentation, terms) -> ModulePoly:
    return ModulePoly(M, P, collect_terms(M, P.n, terms))


def module_constant(M: RightModule, P: SkewPbwPresentation, m: int) -> ModulePoly:
    if m == M.zero:
        return ModulePoly(M, P, {})
    return ModulePoly(M, P, {(0,) * P.n: m})


def act(mp: ModulePoly, f: SkewPoly) -> ModulePoly:
    """The right action of a polynomial on a module polynomial.

    Bilinear over terms; a term pair (m x^a, b x^b) contributes m applied to
    every coefficient of the ring-level normal form of x^a * b * x^b.
    """
    P = mp.presentation
    if f.presentation is not P:
        raise PresentationMismatch("polynomial from a different presentation")
    if mp.module.ring is not P.ring:
        raise PresentationMismatch("module over a different ring")
    M = mp.module
    out = term_products(P, mp.terms.items(), f.terms.items(),
                        M.action_table, M.add_table, M.zero)
    return ModulePoly(M, P, {k: v for k, v in out.items() if v != M.zero})


def act_scalar(mp: ModulePoly, r: int) -> ModulePoly:
    """The action of a ring scalar, through the same code path as act."""
    return act(mp, mp.presentation.constant(r))

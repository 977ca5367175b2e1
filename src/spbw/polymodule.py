"""Right modules over a finite ring and polynomial modules over an extension.

A right module M is given by dense tables, exactly like the rings in
:mod:`spbw.finring`: an abelian group table on {0, .., order-1} and an action
table M x R -> M.  The polynomial module M<X> over a skew PBW extension A has
elements sum m_i x^alpha_i with module coefficients on the left; A acts on
the right through the same rewriting tables the ring product uses.  For a
term m x^a acted on by b x^b, the ring-level normal form of x^a * b * x^b is
computed first and m is then applied to each of its coefficients, which is
exactly the coefficient expansion the definitions prescribe, because the
action associates over ring products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import monomial
from .errors import (PresentationMismatch, TooLarge, ValidationError)
from .finring import FiniteRing
from .skewpbw import SkewPbwPresentation, SkewPoly, _poly_string


class RightModule:
    """A finite right R-module given by add and action tables.

    Use :func:`validate_module` (or the shorthand constructors) so the
    module axioms are certified before anything downstream trusts them.
    """

    def __init__(self, ring, add_table, action_table, zero, names, label=""):
        self.ring = ring
        self.order = len(add_table)
        self.add_table = add_table
        self.action_table = action_table
        self.zero = zero
        self.names = names
        self.label = label
        neg = [0] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if add_table[a][b] == zero:
                    neg[a] = b
                    break
        self._neg = tuple(neg)
        self._contexts = {}  # (presentation, degree) -> bounded.BoundedContext

    def add(self, a, b):
        return self.add_table[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self.add_table[a][self._neg[b]]

    def elements(self):
        return range(self.order)

    def name(self, m):
        return self.names[m]

    def safe_name(self, m):
        n = self.names[m]
        if any(ch in n for ch in "+*^ \t"):
            return f"m{m}"
        return n

    def element_index(self, name):
        for i, n in enumerate(self.names):
            if n == name:
                return i
        if name.startswith("m") and name[1:].isdigit():
            i = int(name[1:])
            if 0 <= i < self.order:
                return i
        raise ValidationError("unknown_element", witness=name,
                              message=f"unknown module element name {name!r}")

    def __repr__(self):
        return f"RightModule({self.label or 'order ' + str(self.order)})"


def validate_module(ring: FiniteRing, add_table, action_table,
                    label="", names=None) -> RightModule:
    """Exhaustively check the right module axioms.

    Kinds raised: bad_table, bad_group, not_unital, action_not_associative,
    not_biadditive.
    """
    order = len(add_table)
    if order == 0:
        raise ValidationError("bad_table", message="empty module")
    add_table = tuple(tuple(row) for row in add_table)
    action_table = tuple(tuple(row) for row in action_table)
    if any(len(row) != order for row in add_table) or len(action_table) != order \
            or any(len(row) != ring.order for row in action_table):
        raise ValidationError("bad_table", witness="module tables")
    for row in add_table:
        for v in row:
            if not 0 <= v < order:
                raise ValidationError("bad_table", witness=("add", v))
    for row in action_table:
        for v in row:
            if not 0 <= v < order:
                raise ValidationError("bad_table", witness=("action", v))

    rng = range(order)
    zero = None
    for e in rng:
        if all(add_table[e][a] == a and add_table[a][e] == a for a in rng):
            zero = e
            break
    if zero is None:
        raise ValidationError("bad_group", message="no additive identity")
    for a in rng:
        for b in rng:
            if add_table[a][b] != add_table[b][a]:
                raise ValidationError("bad_group", witness=(a, b))
            row_ab = add_table[add_table[a][b]]
            row_a = add_table[a]
            for c_ in rng:
                if row_ab[c_] != row_a[add_table[b][c_]]:
                    raise ValidationError("bad_group", witness=(a, b, c_))
    for a in rng:
        if all(add_table[a][b] != zero for b in rng):
            raise ValidationError("bad_group", witness=(a,))

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

    if names is None:
        names = tuple(f"m{i}" for i in rng)
    else:
        names = tuple(str(n) for n in names)
        if len(names) != order or len(set(names)) != order:
            raise ValidationError("bad_table", witness="names")
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
    """Smallest right ideal of R containing the generators."""
    cur = {ring.zero}
    cur.update(generators)
    while True:
        nxt = set(cur)
        for a in cur:
            for b in cur:
                nxt.add(ring.add_table[a][b])
            for r in ring.elements():
                nxt.add(ring.mul_table[a][r])
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


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
    table = tuple(table)
    if len(table) != ring.order or any(not 0 <= v < module.order for v in table):
        raise ValidationError("bad_table", witness="embedding")
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


@dataclass(frozen=True)
class Submodule:
    module: RightModule = field(compare=False)
    elements: frozenset

    def __post_init__(self):
        M = self.module
        els = self.elements
        if M.zero not in els:
            raise ValidationError("not_submodule", witness=M.zero)
        for a in els:
            for b in els:
                if M.add_table[a][b] not in els:
                    raise ValidationError("not_submodule", witness=(a, b))
            for r in M.ring.elements():
                if M.action_table[a][r] not in els:
                    raise ValidationError("not_submodule", witness=(a, r))

    def __len__(self):
        return len(self.elements)


def submodule_closure(M: RightModule, generators) -> frozenset:
    cur = {M.zero}
    cur.update(generators)
    while True:
        nxt = set(cur)
        for a in cur:
            for b in cur:
                nxt.add(M.add_table[a][b])
            for r in M.ring.elements():
                nxt.add(M.action_table[a][r])
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


def cyclic_submodule(M: RightModule, m: int) -> Submodule:
    """mR: the orbit of m, additively closed by biadditivity."""
    orbit = {M.action_table[m][r] for r in M.ring.elements()}
    return Submodule(M, submodule_closure(M, orbit))


def all_submodules(M: RightModule, max_order: int = 16):
    """The full submodule lattice, for carriers of at most max_order elements.

    Grown incrementally: close every known submodule extended by one element
    until nothing new appears.  Deterministic order: by size, then carrier.
    """
    if M.order > max_order:
        raise TooLarge(M.order, max_order, what="all_submodules")
    found = {submodule_closure(M, ())}
    frontier = list(found)
    while frontier:
        fresh = []
        for S in frontier:
            for m in M.elements():
                if m not in S:
                    T = submodule_closure(M, S | {m})
                    if T not in found:
                        found.add(T)
                        fresh.append(T)
        frontier = fresh
    ordered = sorted(found, key=lambda s: (len(s), sorted(s)))
    return [Submodule(M, s) for s in ordered]


# ---------------------------------------------------------------------------
# polynomial modules


class ModulePoly:
    """An element of M<X>: module coefficients on sorted monomials."""

    __slots__ = ("module", "presentation", "terms")

    def __init__(self, module: RightModule, presentation: SkewPbwPresentation,
                 terms: dict):
        self.module = module
        self.presentation = presentation
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def deg(self):
        if not self.terms:
            return None
        return max(sum(a) for a in self.terms)

    def lm(self):
        if not self.terms:
            return None
        return max(self.terms, key=monomial.sort_key(self.presentation.order))

    def lc(self):
        if not self.terms:
            return self.module.zero
        return self.terms[self.lm()]

    def constant_coefficient(self):
        return self.terms.get((0,) * self.presentation.n, self.module.zero)

    def coefficient(self, alpha):
        return self.terms.get(tuple(alpha), self.module.zero)

    def coefficients(self):
        """The set of nonzero coefficients."""
        return set(self.terms.values())

    def __add__(self, other):
        _same_module(self, other)
        M = self.module
        out = dict(self.terms)
        for a, v in other.terms.items():
            s = M.add_table[out.get(a, M.zero)][v]
            if s == M.zero:
                out.pop(a, None)
            else:
                out[a] = s
        return ModulePoly(M, self.presentation, out)

    def __neg__(self):
        M = self.module
        return ModulePoly(M, self.presentation,
                          {a: M.neg(v) for a, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (isinstance(other, ModulePoly)
                and self.module is other.module
                and self.presentation is other.presentation
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.module), id(self.presentation),
                     tuple(sorted(self.terms.items()))))

    def to_string(self) -> str:
        return _poly_string(self.module.ring, self.presentation.order,
                            self.terms, coeff_name=self.module.safe_name)

    def __repr__(self):
        return f"ModulePoly({self.to_string()})"


def _same_module(a: ModulePoly, b: ModulePoly):
    if a.module is not b.module or a.presentation is not b.presentation:
        raise PresentationMismatch("operands come from different modules")


def module_poly(M: RightModule, P: SkewPbwPresentation, terms) -> ModulePoly:
    out = {}
    items = terms.items() if hasattr(terms, "items") else terms
    for alpha, m in items:
        alpha = tuple(alpha)
        if len(alpha) != P.n or any(e < 0 for e in alpha):
            raise ValidationError("bad_exponent", witness=alpha)
        if not 0 <= m < M.order:
            raise ValidationError("bad_coefficient", witness=m)
        cur = out.get(alpha, M.zero)
        out[alpha] = M.add_table[cur][m]
    return ModulePoly(M, P, {a: v for a, v in out.items() if v != M.zero})


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
    madd, mact, mzero = M.add_table, M.action_table, M.zero
    out = {}
    for alpha, m in mp.terms.items():
        for beta, b in f.terms.items():
            for gamma, w in P.triple(alpha, b, beta):
                out[gamma] = madd[out.get(gamma, mzero)][mact[m][w]]
    return ModulePoly(M, P, {k: v for k, v in out.items() if v != mzero})


def act_scalar(mp: ModulePoly, r: int) -> ModulePoly:
    """The action of a ring scalar, through the same code path as act."""
    return act(mp, mp.presentation.constant(r))

"""Finite unital rings given by dense Cayley tables, plus maps between them.

Elements of a ring of order q are the integers 0..q-1; the additive and
multiplicative structure is read off two q by q tables.  Every constructor in
this module validates the full axiom set by exhaustive scan before returning,
so downstream code never re-checks ring laws.  The intended scale is desk
sized: orders up to 64 are accepted, with a warning above 16 because the
bounded property deciders grow very quickly in |R|.

The module also provides validated ring endomorphisms and sigma-derivations
(the twisting data of a skew PBW extension), finite closure monoids of such
maps (used to quantify over all composite twists exactly), and a handful of
shorthand constructors for the rings the test corpus uses.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

from .errors import ValidationError

_VAR_SHAPE = re.compile(r"x\d+(\^\d+)?")

HARD_ORDER_CAP = 64
WARN_ORDER = 16


class FiniteRing:
    """A finite unital (possibly noncommutative) ring on {0, .., order-1}.

    Do not call the constructor directly unless the tables are already known
    to satisfy the ring axioms; use :func:`validate_ring`.
    """

    def __init__(self, order, add_table, mul_table, zero, one, names, label=""):
        self.order = order
        self.add_table = add_table
        self.mul_table = mul_table
        self.zero = zero
        self.one = one
        self.names = names
        self.label = label
        self.product_factors = None  # set by zmod_product, consumed by swap_endomorphism
        neg = [0] * order
        for a in range(order):
            for b in range(order):
                if add_table[a][b] == zero:
                    neg[a] = b
                    break
        self._neg = tuple(neg)

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self.add_table[a][self._neg[b]]

    def elements(self):
        return range(self.order)

    def name(self, a):
        return self.names[a]

    def safe_name(self, a):
        """Display name usable inside polynomial literals.

        Falls back to the canonical e<i> spelling when the friendly name
        contains grammar characters or looks like a variable token.
        """
        n = self.names[a]
        if any(ch in n for ch in "+*^ \t") or _VAR_SHAPE.fullmatch(n):
            return f"e{a}"
        return n

    def element_index(self, name):
        """Resolve an element from its display name or canonical e<i> form."""
        if name in self._name_index:
            return self._name_index[name]
        if name.startswith("e") and name[1:].isdigit():
            i = int(name[1:])
            if 0 <= i < self.order:
                return i
        raise ValidationError("unknown_element", witness=name,
                              message=f"unknown ring element name {name!r}")

    @property
    def _name_index(self):
        cached = getattr(self, "_name_index_cache", None)
        if cached is None:
            cached = {n: i for i, n in enumerate(self.names)}
            self._name_index_cache = cached
        return cached

    def is_commutative(self):
        q = self.order
        return all(self.mul_table[a][b] == self.mul_table[b][a]
                   for a in range(q) for b in range(q))

    def __repr__(self):
        return f"FiniteRing({self.label or 'order ' + str(self.order)})"


def _check_tables_shape(order, table, what):
    if len(table) != order:
        raise ValidationError("bad_table", witness=what,
                              message=f"{what} table must have {order} rows")
    for row in table:
        if len(row) != order:
            raise ValidationError("bad_table", witness=what)
        for v in row:
            if not isinstance(v, int) or not 0 <= v < order:
                raise ValidationError("bad_table", witness=(what, v))


def _check_order_cap(order: int) -> None:
    if order > HARD_ORDER_CAP:
        raise ValidationError("bad_table", witness=order,
                              message=f"ring order {order} exceeds cap {HARD_ORDER_CAP}")


def validate_ring(add_table, mul_table, label="", names=None) -> FiniteRing:
    """Check the full unital ring axiom set and return the validated ring.

    Raises ValidationError with kinds: bad_table, bad_group, non_associative,
    non_distributive, no_identity.
    """
    order = len(add_table)
    if order == 0:
        raise ValidationError("bad_table", message="empty ring")
    _check_order_cap(order)
    if order > WARN_ORDER:
        warnings.warn(f"ring of order {order}: bounded deciders will be slow",
                      stacklevel=2)
    add_table = tuple(tuple(row) for row in add_table)
    mul_table = tuple(tuple(row) for row in mul_table)
    _check_tables_shape(order, add_table, "add")
    _check_tables_shape(order, mul_table, "mul")

    rng = range(order)
    # additive identity
    zero = None
    for e in rng:
        if all(add_table[e][a] == a and add_table[a][e] == a for a in rng):
            zero = e
            break
    if zero is None:
        raise ValidationError("bad_group", message="no additive identity")
    # abelian group laws
    for a in rng:
        for b in rng:
            if add_table[a][b] != add_table[b][a]:
                raise ValidationError("bad_group", witness=(a, b),
                                      message="addition is not commutative")
    for a in rng:
        for b in rng:
            row_ab = add_table[add_table[a][b]]
            row_a = add_table[a]
            for c in rng:
                if row_ab[c] != row_a[add_table[b][c]]:
                    raise ValidationError("bad_group", witness=(a, b, c),
                                          message="addition is not associative")
    for a in rng:
        if all(add_table[a][b] != zero for b in rng):
            raise ValidationError("bad_group", witness=(a,),
                                  message="element has no additive inverse")
    # multiplication
    for a in rng:
        for b in rng:
            row_ab = mul_table[mul_table[a][b]]
            row_a = mul_table[a]
            for c in rng:
                if row_ab[c] != row_a[mul_table[b][c]]:
                    raise ValidationError("non_associative", witness=(a, b, c))
    for a in rng:
        for b in rng:
            for c in rng:
                s = add_table[b][c]
                if mul_table[a][s] != add_table[mul_table[a][b]][mul_table[a][c]]:
                    raise ValidationError("non_distributive", witness=(a, b, c))
                if mul_table[s][a] != add_table[mul_table[b][a]][mul_table[c][a]]:
                    raise ValidationError("non_distributive", witness=(b, c, a))
    one = None
    for e in rng:
        if all(mul_table[e][a] == a and mul_table[a][e] == a for a in rng):
            one = e
            break
    if one is None:
        raise ValidationError("no_identity")

    if names is None:
        names = tuple(f"e{i}" for i in rng)
    else:
        names = tuple(str(n) for n in names)
        if len(names) != order or len(set(names)) != order:
            raise ValidationError("bad_table", witness="names",
                                  message="names must be distinct, one per element")
    return FiniteRing(order, add_table, mul_table, zero, one, names, label=label)


# ---------------------------------------------------------------------------
# ring maps


@dataclass(frozen=True)
class RingMap:
    """A validated self-map of a finite ring, as a dense value table.

    kind is "endomorphism" or "sigma_derivation"; derivations carry their
    base endomorphism so the Leibniz rule they satisfy is unambiguous.
    Endomorphisms on a finite ring are injective by contract and therefore
    bijective; the inverse table is recorded.
    """

    ring: FiniteRing = field(compare=False)
    table: tuple
    kind: str
    base_table: tuple | None = None
    inverse: tuple | None = None

    def __call__(self, a: int) -> int:
        return self.table[a]

    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(v == z for v in self.table)


def validate_endomorphism(ring: FiniteRing, table) -> RingMap:
    """Unital injective ring endomorphism.  Kinds raised: not_additive,
    not_multiplicative, not_unital, not_injective."""
    q = ring.order
    table = tuple(table)
    if len(table) != q or any(not 0 <= v < q for v in table):
        raise ValidationError("bad_table", witness="endomorphism")
    for a in range(q):
        for b in range(q):
            if table[ring.add_table[a][b]] != ring.add_table[table[a]][table[b]]:
                raise ValidationError("not_additive", witness=(a, b))
            if table[ring.mul_table[a][b]] != ring.mul_table[table[a]][table[b]]:
                raise ValidationError("not_multiplicative", witness=(a, b))
    if table[ring.one] != ring.one:
        raise ValidationError("not_unital", witness=(ring.one,))
    if len(set(table)) != q:
        seen = {}
        for a, v in enumerate(table):
            if v in seen:
                raise ValidationError("not_injective", witness=(seen[v], a))
            seen[v] = a
    inverse = [0] * q
    for a, v in enumerate(table):
        inverse[v] = a
    return RingMap(ring, table, "endomorphism", inverse=tuple(inverse))


def validate_sigma_derivation(ring: FiniteRing, sigma: RingMap, table) -> RingMap:
    """Additive map with the twisted Leibniz rule d(ab) = sigma(a)d(b) + d(a)b.
    Kinds raised: not_additive, leibniz_fail."""
    if sigma.kind != "endomorphism" or sigma.ring is not ring:
        raise ValidationError("not_endomorphism", witness="sigma")
    q = ring.order
    table = tuple(table)
    if len(table) != q or any(not 0 <= v < q for v in table):
        raise ValidationError("bad_table", witness="sigma_derivation")
    for a in range(q):
        for b in range(q):
            if table[ring.add_table[a][b]] != ring.add_table[table[a]][table[b]]:
                raise ValidationError("not_additive", witness=(a, b))
            lhs = table[ring.mul_table[a][b]]
            rhs = ring.add_table[ring.mul_table[sigma.table[a]][table[b]]][
                ring.mul_table[table[a]][b]]
            if lhs != rhs:
                raise ValidationError("leibniz_fail", witness=(a, b))
    return RingMap(ring, table, "sigma_derivation", base_table=sigma.table)


def identity_map(ring: FiniteRing) -> RingMap:
    return validate_endomorphism(ring, tuple(range(ring.order)))


def zero_map(ring: FiniteRing, sigma: RingMap | None = None) -> RingMap:
    """The zero map, a sigma-derivation for every sigma."""
    if sigma is None:
        sigma = identity_map(ring)
    return validate_sigma_derivation(ring, sigma, (ring.zero,) * ring.order)


# ---------------------------------------------------------------------------
# derived element sets


def idempotents(ring: FiniteRing) -> tuple:
    return tuple(e for e in ring.elements() if ring.mul(e, e) == e)


def left_invertibles(ring: FiniteRing) -> tuple:
    """Elements u such that some v satisfies v*u = 1."""
    q = ring.order
    return tuple(u for u in range(q)
                 if any(ring.mul_table[v][u] == ring.one for v in range(q)))


def is_two_sided_invertible(ring: FiniteRing, u: int) -> bool:
    return any(ring.mul_table[v][u] == ring.one and ring.mul_table[u][v] == ring.one
               for v in range(ring.order))


def is_central(ring: FiniteRing, c: int) -> bool:
    return all(ring.mul_table[c][r] == ring.mul_table[r][c] for r in range(ring.order))


# ---------------------------------------------------------------------------
# closure monoids of maps


@dataclass(frozen=True)
class MonoidElement:
    table: tuple
    word: tuple  # indices into the generator list; () is the identity

    def __call__(self, a: int) -> int:
        return self.table[a]


@dataclass(frozen=True)
class MapMonoid:
    """The finite monoid generated by a family of self-maps under composition.

    Elements are discovered breadth first, so each carries a shortest
    generator word; the identity is always element 0.
    """

    ring: FiniteRing = field(compare=False)
    labels: tuple
    elements: tuple

    def __len__(self):
        return len(self.elements)

    def describe(self, el: MonoidElement) -> str:
        if not el.word:
            return "id"
        return ".".join(self.labels[i] for i in el.word)


def closure_monoid(ring: FiniteRing, maps, labels=None) -> MapMonoid:
    """Close the given maps under composition (left map applied last).

    The closure of k maps on a ring of order q has at most q**q elements;
    in practice the twist monoids here stay tiny.
    """
    gens = [tuple(m.table) if isinstance(m, RingMap) else tuple(m) for m in maps]
    if labels is None:
        labels = tuple(f"g{i + 1}" for i in range(len(gens)))
    else:
        labels = tuple(labels)
    ident = tuple(range(ring.order))
    seen = {ident: ()}
    queue = [ident]
    while queue:
        nxt = []
        for tab in queue:
            for gi, g in enumerate(gens):
                # word (gi,) + w  denotes  g applied after tab
                comp = tuple(g[tab[a]] for a in range(ring.order))
                if comp not in seen:
                    seen[comp] = (gi,) + seen[tab]
                    nxt.append(comp)
        queue = nxt
    els = tuple(MonoidElement(t, w)
                for t, w in sorted(seen.items(), key=lambda kv: (len(kv[1]), kv[1])))
    return MapMonoid(ring, labels, els)


# ---------------------------------------------------------------------------
# shorthand constructors


def zmod(n: int) -> FiniteRing:
    """The ring of integers modulo n."""
    _check_order_cap(n)
    rng = range(n)
    add = [[(a + b) % n for b in rng] for a in rng]
    mul = [[(a * b) % n for b in rng] for a in rng]
    return validate_ring(add, mul, label=f"Z{n}", names=[str(a) for a in rng])


def zmod_product(a: int, b: int) -> FiniteRing:
    """The product ring Z_a x Z_b with componentwise operations.

    Element (x, y) has index x*b + y.
    """
    q = a * b
    _check_order_cap(q)
    def idx(x, y):
        return x * b + y
    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    names = [""] * q
    for x in range(a):
        for y in range(b):
            names[idx(x, y)] = f"({x},{y})"
            for u in range(a):
                for v in range(b):
                    add[idx(x, y)][idx(u, v)] = idx((x + u) % a, (y + v) % b)
                    mul[idx(x, y)][idx(u, v)] = idx((x * u) % a, (y * v) % b)
    ring = validate_ring(add, mul, label=f"Z{a}xZ{b}", names=names)
    ring.product_factors = (a, b)
    return ring


def swap_endomorphism(ring: FiniteRing) -> RingMap:
    """Coordinate swap on a product ring Z_a x Z_a built by zmod_product."""
    factors = ring.product_factors
    if factors is None or factors[0] != factors[1]:
        raise ValidationError("bad_table", witness="swap",
                              message="swap needs a product ring Z_a x Z_a")
    a = factors[0]
    table = [0] * ring.order
    for x in range(a):
        for y in range(a):
            table[x * a + y] = y * a + x
    return validate_endomorphism(ring, table)


def dual_z2() -> FiniteRing:
    """Z2[y] modulo y^2: elements a + b*y with a, b in Z2, index a + 2b."""
    def idx(a, b):
        return a + 2 * b
    add = [[0] * 4 for _ in range(4)]
    mul = [[0] * 4 for _ in range(4)]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    add[idx(a, b)][idx(c, d)] = idx((a + c) % 2, (b + d) % 2)
                    # (a+by)(c+dy) = ac + (ad+bc) y   since y^2 = 0
                    mul[idx(a, b)][idx(c, d)] = idx((a * c) % 2, (a * d + b * c) % 2)
    return validate_ring(add, mul, label="Z2[y]/(y^2)",
                         names=["0", "1", "y", "1+y"])


def dual_z2_derivation(ring: FiniteRing) -> RingMap:
    """The formal derivative a + b*y -> b on dual_z2, an id-derivation."""
    return validate_sigma_derivation(ring, identity_map(ring), (0, 0, 1, 1))


def upper_triangular(n: int, p: int) -> FiniteRing:
    """The ring of n x n upper triangular matrices over Z_p.

    Elements are indexed by the row-major tuple of the n(n+1)/2 entries on
    and above the diagonal, most significant first.
    """
    k = n * (n + 1) // 2
    q = p ** k
    if q > HARD_ORDER_CAP:
        raise ValidationError("bad_table", witness=q,
                              message=f"UT({n},Z{p}) has order {q} > {HARD_ORDER_CAP}")
    positions = [(i, j) for i in range(n) for j in range(i, n)]

    def unpack(idx):
        entries = {}
        for pos in reversed(positions):
            entries[pos] = idx % p
            idx //= p
        return entries

    def pack(entries):
        idx = 0
        for pos in positions:
            idx = idx * p + entries[pos] % p
        return idx

    mats = [unpack(i) for i in range(q)]
    add = [[0] * q for _ in range(q)]
    mul = [[0] * q for _ in range(q)]
    for i, A in enumerate(mats):
        for j, B in enumerate(mats):
            add[i][j] = pack({pos: A[pos] + B[pos] for pos in positions})
            C = {}
            for (r, c) in positions:
                C[(r, c)] = sum(A.get((r, t), 0) * B.get((t, c), 0)
                                for t in range(r, c + 1)) % p
            mul[i][j] = pack(C)
    names = ["".join(str(mats[i][pos]) for pos in positions) for i in range(q)]
    return validate_ring(add, mul, label=f"UT({n},Z{p})", names=names)

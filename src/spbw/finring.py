"""Finite unital rings given by dense Cayley tables, plus maps between them.

Elements of a ring of order q are the integers 0..q-1; the additive and
multiplicative structure is read off two q by q tables.  The additive half
(add table, negation, element names) lives in :class:`AdditiveCarrier`, the
base that rings and right modules (:mod:`spbw.polymodule`) share.  Every constructor in
this module validates the full axiom set by exhaustive scan before returning,
so downstream code never re-checks ring laws.  The checks rings, modules,
maps and embeddings share are here too: `check_table` (shape, int entries
in range), `abelian_group_zero` (the group laws of an add table) and
`check_names` (display names).  The intended scale is desk
sized: orders up to 64 are accepted, with a warning above 16 because the
bounded property deciders grow very quickly in |R|.

The module also provides validated ring endomorphisms and sigma-derivations
(the twisting data of a skew PBW extension), finite closure monoids of such
maps (used to quantify over all composite twists exactly), and shorthand
constructors for Z_n, Z_a x Z_b, Z2[y]/(y^2) and UT(n, Z_p).  Each lists its
elements in index order and hands them, with its two operations on them, to
one table builder that validates the ring like any other.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass, field

from .errors import ValidationError, quoted

_VAR_SHAPE = re.compile(r"x\d+(\^\d+)?")
# A canonical spelling e<j> (rings) or m<j> (modules); group 2 is j's
# digits without leading zeros.
_CANONICAL = re.compile(r"([em])0*([0-9]+)")

HARD_ORDER_CAP = 64
WARN_ORDER = 16


class AdditiveCarrier:
    """A finite abelian group on {0, .., order-1} with named elements.

    The part that :class:`FiniteRing` and :class:`spbw.polymodule.RightModule`
    share: the add table, its negation table, and the element names.  The
    canonical spelling of element i is `<prefix>i` (e<i> for rings, m<i>
    for modules); it is what `safe_name` falls back to and what
    `element_index` accepts besides the display names.
    """

    _prefix = "e"
    _kind = "ring"

    def __init__(self, order, add_table, zero, names, label=""):
        self.order = order
        self.add_table = add_table
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
        self._name_index = {n: i for i, n in enumerate(names)}

    def add(self, a, b):
        return self.add_table[a][b]

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

        Falls back to the canonical spelling when the friendly name
        contains grammar characters or looks like a variable token.
        """
        n = self.names[a]
        if any(ch in n for ch in "+*^ \t") or _VAR_SHAPE.fullmatch(n):
            return f"{self._prefix}{a}"
        return n

    def element_index(self, name):
        """Resolve an element from its display name or canonical spelling."""
        if isinstance(name, str):
            if name in self._name_index:
                return self._name_index[name]
            m = _CANONICAL.fullmatch(name)
            if (m and m.group(1) == self._prefix
                    and len(m.group(2)) <= len(str(self.order))
                    and int(m.group(2)) < self.order):
                return int(m.group(2))
        raise ValidationError("unknown_element", witness=name,
                              message=f"unknown {self._kind} element name {quoted(name)}")

    def __repr__(self):
        return f"{type(self).__name__}({self.label or 'order ' + str(self.order)})"


class FiniteRing(AdditiveCarrier):
    """A finite unital (possibly noncommutative) ring on {0, .., order-1}.

    Do not call the constructor directly unless the tables are already known
    to satisfy the ring axioms; use :func:`validate_ring`.
    """

    def __init__(self, order, add_table, mul_table, zero, one, names, label=""):
        super().__init__(order, add_table, zero, names, label)
        self.mul_table = mul_table
        self.one = one
        self.product_factors = None  # set by zmod_product, consumed by swap_endomorphism

    def mul(self, a, b):
        return self.mul_table[a][b]

    def is_commutative(self):
        q = self.order
        return all(self.mul_table[a][b] == self.mul_table[b][a]
                   for a in range(q) for b in range(q))


def check_table(table, bound: int, what: str, *shape):
    """`table` as nested tuples, refused as bad_table unless it is a list of
    shape[0] entries (each a list of shape[1] entries, if given) holding ints
    in range(bound), bools refused: the one check of ring, module, map and
    embedding tables."""
    if not isinstance(table, (list, tuple)) or len(table) != shape[0]:
        raise ValidationError("bad_table", witness=what, message=f"{what} table "
                              f"must be a list of {shape[0]} entries")
    if len(shape) > 1:
        return tuple(check_table(row, bound, what, *shape[1:]) for row in table)
    for v in table:
        if type(v) is not int or not 0 <= v < bound:
            raise ValidationError("bad_table", witness=(what, v))
    return tuple(table)


def abelian_group_zero(add_table) -> int:
    """Scan a checked add table for the abelian group laws; returns its zero.

    Raises ValidationError("bad_group") naming the law that fails.
    """
    rng = range(len(add_table))
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
    return zero


def check_names(names, order: int, prefix: str) -> tuple:
    """Display names as a tuple of strings, `<prefix><i>` when None: a list,
    one per element, distinct.  A canonical spelling e<j> or m<j> may only
    name element j, or a printed canonical spelling would parse back as
    another element; rings reserve m<j> too, for their regular modules.
    """
    if names is None:
        return tuple(f"{prefix}{i}" for i in range(order))
    if not isinstance(names, (list, tuple)) or len(names) != order:
        raise ValidationError("bad_table", witness="names",
                              message=f"names must be a list of {order} entries")
    names = tuple(str(n) for n in names)
    if len(set(names)) != order:
        raise ValidationError("bad_table", witness="names",
                              message="names must be distinct, one per element")
    for i, n in enumerate(names):
        m = _CANONICAL.fullmatch(n)
        if m and m.group(2) != str(i):
            raise ValidationError("bad_table", witness="names",
                                  message=f"name {quoted(n)} on element {i} is the "
                                          f"canonical spelling of another element")
    return names


def _check_order_cap(order: int) -> None:
    if order > HARD_ORDER_CAP:
        raise ValidationError("bad_table", witness=order,
                              message=f"ring order {order} exceeds cap {HARD_ORDER_CAP}")


def validate_ring(add_table, mul_table, label="", names=None) -> FiniteRing:
    """Check the full unital ring axiom set and return the validated ring.

    Raises ValidationError with kinds: bad_table, bad_group, non_associative,
    non_distributive, no_identity.
    """
    order = len(add_table) if isinstance(add_table, (list, tuple)) else 0
    if order == 0:
        raise ValidationError("bad_table", witness="add",
                              message="ring add table must be a non-empty list")
    _check_order_cap(order)
    if order > WARN_ORDER:
        warnings.warn(f"ring of order {order}: bounded deciders will be slow",
                      stacklevel=2)
    add_table = check_table(add_table, order, "add", order, order)
    mul_table = check_table(mul_table, order, "mul", order, order)
    zero = abelian_group_zero(add_table)

    rng = range(order)
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
    names = check_names(names, order, FiniteRing._prefix)
    return FiniteRing(order, add_table, mul_table, zero, one, names, label=label)


# ---------------------------------------------------------------------------
# ring maps


@dataclass(frozen=True)
class RingMap:
    """A validated self-map of a finite ring, as a dense value table.

    kind is "endomorphism" or "sigma_derivation"; derivations carry their
    base endomorphism so the Leibniz rule they satisfy is unambiguous.
    Endomorphisms on a finite ring are injective by contract and therefore
    bijective.
    """

    ring: FiniteRing = field(compare=False)
    table: tuple
    kind: str
    base_table: tuple | None = None

    def __call__(self, a: int) -> int:
        return self.table[a]


def validate_endomorphism(ring: FiniteRing, table) -> RingMap:
    """Unital injective ring endomorphism.  Kinds raised: not_additive,
    not_multiplicative, not_unital, not_injective."""
    q = ring.order
    table = check_table(table, q, "endomorphism", q)
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
    return RingMap(ring, table, "endomorphism")


def validate_sigma_derivation(ring: FiniteRing, sigma: RingMap, table) -> RingMap:
    """Additive map with the twisted Leibniz rule d(ab) = sigma(a)d(b) + d(a)b.
    Kinds raised: not_additive, leibniz_fail."""
    if sigma.kind != "endomorphism" or sigma.ring is not ring:
        raise ValidationError("not_endomorphism", witness="sigma")
    q = ring.order
    table = check_table(table, q, "sigma_derivation", q)
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


def closure_monoid(ring: FiniteRing, maps, labels) -> list:
    """The closure of the given maps, named by `labels` in order, under
    composition, as (label, table) pairs: breadth first, shortest words
    first, ties broken by generator index, the identity first as "id".  A
    composite's label joins its generators' labels by ".", the leftmost map
    applied last.

    The closure of k maps on a ring of order q has at most q**q elements;
    in practice the twist monoids here stay tiny.
    """
    gens = [tuple(m.table) if isinstance(m, RingMap) else tuple(m) for m in maps]
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
    return [(".".join(labels[i] for i in w) if w else "id", t)
            for t, w in sorted(seen.items(), key=lambda kv: (len(kv[1]), kv[1]))]


# ---------------------------------------------------------------------------
# shorthand constructors


def _ring_on(elements, add, mul, label: str, names) -> FiniteRing:
    """The validated ring on `elements`, element i being elements[i], under
    the operations add and mul on those elements."""
    index = {e: i for i, e in enumerate(elements)}
    add_table = [[index[add(a, b)] for b in elements] for a in elements]
    mul_table = [[index[mul(a, b)] for b in elements] for a in elements]
    return validate_ring(add_table, mul_table, label=label, names=names)


def zmod(n: int) -> FiniteRing:
    """The ring of integers modulo n."""
    _check_order_cap(n)
    return _ring_on(range(n), lambda a, b: (a + b) % n, lambda a, b: a * b % n,
                    f"Z{n}", [str(a) for a in range(n)])


def zmod_product(a: int, b: int) -> FiniteRing:
    """The product ring Z_a x Z_b with componentwise operations.

    Element (x, y) has index x*b + y.
    """
    _check_order_cap(a * b)
    pairs = [(x, y) for x in range(a) for y in range(b)]
    ring = _ring_on(pairs,
                    lambda s, t: ((s[0] + t[0]) % a, (s[1] + t[1]) % b),
                    lambda s, t: (s[0] * t[0] % a, s[1] * t[1] % b),
                    f"Z{a}xZ{b}", [f"({x},{y})" for x, y in pairs])
    ring.product_factors = (a, b)
    return ring


def swap_endomorphism(ring: FiniteRing) -> RingMap:
    """Coordinate swap on a product ring Z_a x Z_a built by zmod_product."""
    factors = ring.product_factors
    if factors is None or factors[0] != factors[1]:
        raise ValidationError("bad_table", witness="swap",
                              message="swap needs a product ring Z_a x Z_a")
    a = factors[0]
    return validate_endomorphism(ring, [y * a + x for x in range(a)
                                        for y in range(a)])


def dual_z2() -> FiniteRing:
    """Z2[y] modulo y^2: elements a + b*y with a, b in Z2, index a + 2b."""
    # (a+by)(c+dy) = ac + (ad+bc) y   since y^2 = 0
    return _ring_on([(0, 0), (1, 0), (0, 1), (1, 1)],
                    lambda s, t: ((s[0] + t[0]) % 2, (s[1] + t[1]) % 2),
                    lambda s, t: (s[0] * t[0] % 2, (s[0] * t[1] + s[1] * t[0]) % 2),
                    "Z2[y]/(y^2)", ["0", "1", "y", "1+y"])


def dual_z2_derivation(ring: FiniteRing) -> RingMap:
    """The formal derivative a + b*y -> b on dual_z2, an id-derivation."""
    return validate_sigma_derivation(ring, identity_map(ring), (0, 0, 1, 1))


def upper_triangular(n: int, p: int) -> FiniteRing:
    """The ring of n x n upper triangular matrices over Z_p.

    Elements are indexed by the row-major tuple of the n(n+1)/2 entries on
    and above the diagonal, most significant first.
    """
    # For p = 1 every n gives the zero ring, so the order cap alone would
    # let n reach 10^9 and the tables below cost O(n^3); the matrix size is
    # capped like the order.
    if n > HARD_ORDER_CAP:
        raise ValidationError("bad_table", witness=(n, p),
                              message=f"UT({n},Z{p}) has size {n} > {HARD_ORDER_CAP}")
    k = n * (n + 1) // 2
    # With t = HARD_ORDER_CAP.bit_length(), p**min(k, t) is p**k when p < 2
    # or k < t and at least 2**t > HARD_ORDER_CAP otherwise, so a huge k is
    # neither raised to nor printed.
    if p ** min(k, HARD_ORDER_CAP.bit_length()) > HARD_ORDER_CAP:
        raise ValidationError("bad_table", witness=(n, p),
                              message=f"UT({n},Z{p}) has order {p}^{k} > {HARD_ORDER_CAP}")
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    at = {pos: s for s, pos in enumerate(positions)}
    products = [[(at[r, t], at[t, c]) for t in range(r, c + 1)]
                for r, c in positions]

    def mul(A, B):
        return tuple(sum(A[s] * B[t] for s, t in terms) % p for terms in products)

    mats = list(itertools.product(range(p), repeat=k))
    return _ring_on(mats, lambda A, B: tuple((x + y) % p for x, y in zip(A, B)),
                    mul, f"UT({n},Z{p})", ["".join(map(str, A)) for A in mats])

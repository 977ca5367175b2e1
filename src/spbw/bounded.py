"""Shared machinery for degree-bounded searches over M<X> and A.

Every decider that quantifies over polynomials works on the same finite
slice: coefficient vectors indexed by the monomials of degree <= d listed
ascending under the presentation's order (slot 0 is always the constant
monomial).  A vector is addressed by a single integer, with slot 0 the most
significant digit, so enumeration by index is the lexicographic order on
coefficient vectors.  Witness minimality in the property deciders relies on
exactly this order, so do not change it casually.

The expensive artifact is the kernel map m -> {f : act(m, f) = 0}.  It is
computed once per (module, presentation, degree) triple and shared by every
check that needs annihilators, via the `context` factory below.  The module
owns its contexts: they are cached on the RightModule and live exactly as
long as it does, so there is no process-wide cache.  Each read of a cached
kernel, ann(mA) or coeff_set is guarded against the caller's budget, as a
fresh one is.  M<X>_{<=0} is M, so the exact Baer-family deciders on M use
the slice `context(M, None, 0)`.

Module values are summed only as `PackedVectors`: (M, +) is coded once
per module as Z/n_1 x .. x Z/n_r, and a vector is one int with an 8-bit
lane per entry and factor, added or negated with a few int operations
(SIMD within a register).  An index is decoded only by `fterms` and
`mterms`, once per context, and the scans test rows against `coeff_set`s.

The kernel never acts pair by pair.  It tabulates the structure tensor
x^basis[s] * b * x^basis[t] once (k^2 * |R| normal forms) and finds each
row by a meet-in-the-middle split of the k slots, whose half sums are
additive in m and so tabulated per slot at the generators of (M, +).  Only
three facts are used: act is the sum over term pairs that `term_products`
computes; (M, +) is an abelian group (`validate_module` checks it); and
P.order is a monomial order, so where the tensor, checked per context,
puts no term of x^basis[s] * b * x^basis[t] above basis[s] + basis[t], the
leading coefficient of act(m, f) is m's last coefficient times one of the
tensor's, and `leading_units` certifies the row {0} from it without a
split.
`ann_am_rows` refines the kernel rows over the middle factors mu = r
x^gamma, r an additive generator of R, by one rule: when A is associative
and M a right R-module, M<X> is a right A-module and act(m, mu f) =
act(m * mu, f), so f passes mu when m * mu annihilates it, a kernel-row
lookup when m * mu lies in the slice.  A middle that commutes with the
slice is dropped, as then act(m, mu f) = act(act(m, f), mu) = 0 for f in
the kernel row; over a commutative slice the ann(mA) rows are the kernel
rows.
Rows are frozensets of f_idx, so the scans ask set questions of them and
take the least index as the witness f; `coeff_set(R)`, the row of m = 0,
is the context's one whole slice.

Rows are built once per orbit of a group G, generated by the integer units
n mod the exponent of (M, +), as act(n * m, f) = n * act(m, f), and, when A
is quasi-commutative, by the torus phi_lam: x_i -> lam_i x_i, lam_i central
units fixed by every sigma_j.  phi_lam maps b x^beta to (b * lam^beta)
x^beta in A and m x^alpha to (m * lam^alpha) x^alpha in M<X>; a product of
terms is one term, so act(phi(m), phi(f)) = phi(act(m, f)), and g = (n,
lam) gives K_{g * m} = phi_lam(K_m) and A_{g * m} = phi_lam(A_m).  A row is
built at its orbit's least index (`orbit_rep`), every other m holds phi_lam
of it (`_spread`), and the row scans of `properties`, whose conditions are
G-invariant (`properties._row_failure`), visit the minima only: the first
failing m in index order is one, so witnesses stay.

The scalar action m * r is additive in m, so H_r = {m in M^k : m * r = 0}
and S_r = ann_M(r)^k are subgroups of M^k, and m * r is the sum over the
slots of the packed images that `scalar_tables` lists.  S_r <= H_r is a
lookup of the single-slot vectors v x^basis[s], v in ann_M(r), that span
S_r; H_r = S_r then holds exactly when, for each prime p dividing the
exponent of (M, +), m -> m * r is one-to-one on the F_p-space B_p^k / S_r,
B_p = {v : p * v in ann_M(r)}: k * dim(B_p / ann_M(r)) images tested for
independence over F_p (`PackedVectors.independent`, called by
`properties._scalar_kernel_is_slotwise`), never a walk over M^k.
The same tables list every packed m * r, the slice's own action table,
which the reduced and twist-compatibility scans of `properties` read as
M's.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import compress, product
from math import gcd, lcm
from struct import Struct

from .errors import (EngineInvariantError, PresentationMismatch,
                     SearchSpaceTooLarge)
from .finring import is_central
from .monomial import add as add_exponents
from .monomial import compare, default_order, enumerate_upto
from .polymodule import ModulePoly, RightModule, module_poly
from .skewpbw import SkewPbwPresentation, SkewPoly, term_products

# Shared ceiling on |M|^k * |R|^k enumerations; the CLI can lower or raise it.
DEFAULT_MAX_SPACE = 10 ** 7


def cyclic_factors(carrier):
    """(gens, coords): (carrier, +) is the direct sum of the <g> of the (g,
    order of g) in gens; coords[x] lists x's multiple of each g.  Each g has
    the largest order of the elements whose multiples meet the sum so far
    only in 0, which spans a summand, so such g exist until the sum is all."""
    add, zero = carrier.add_table, carrier.zero
    cyclic = []  # [0, g, 2g, ..] for each g
    for g in carrier.elements():
        mults, x = [zero], g
        while x != zero:
            mults.append(x)
            x = add[x][g]
        cyclic.append(mults)
    gens, coords = [], {zero: ()}
    while len(coords) < carrier.order:
        best = max((c for c in cyclic if coords.keys().isdisjoint(c[1:])), key=len)
        gens.append((best[1], len(best)))
        coords = {add[x][y]: c + (j,) for x, c in coords.items()
                  for j, y in enumerate(best)}
    return gens, coords


class PackedVectors:
    """Vectors of `length` entries of (M, +), each packed into one int.

    (M, +) is coded once as Z/n_1 x .. x Z/n_r, the n_j in `orders`, by
    `cyclic_factors` (the zero module as one lane of order 1), checked
    against the whole add table and kept on the module.  Entry i is bytes
    i*r .. i*r+r-1, big-endian, one 8-bit lane per factor.  Each n_j divides
    char(R) <= 64 (n * m = m * (n * 1_R)), so a lane sum s < 128, and s +
    128 - n_j sets bit 7 iff s >= n_j."""

    def __init__(self, module: RightModule, length: int):
        packing = module._packing
        if packing is None:
            gens, coords = cyclic_factors(module)
            code = [bytes(coords[m]) or b"\0" for m in module.elements()]
            packing = (code, [n for _, n in gens] or [1])
        self.code, self.orders = packing
        self.width, self.nbytes = len(self.orders), len(self.orders) * length
        self.C, self.H, self.N = (
            int.from_bytes(bytes(lane) * length, "big") for lane in
            ([128 - n for n in self.orders], [128] * self.width, self.orders))
        if module._packing is None:
            ints = [int.from_bytes(c, "big") for c in self.code]
            if len(set(self.code)) != module.order or any(
                    self.add(ints[a], ints[b]) != ints[c]
                    for a, row in enumerate(module.add_table)
                    for b, c in enumerate(row)):
                raise EngineInvariantError("packed code disagrees with add table")
            module._packing = packing

    def add(self, x: int, y: int) -> int:
        return (s := x + y) - (((((s + self.C) & self.H) >> 7) * 255) & self.N)

    def neg(self, x: int) -> int:
        return self.add(self.N - x, 0)

    def independent(self, xs, p: int) -> bool:
        """Whether the packed vectors xs, each killed by the prime p, are
        linearly independent over F_p.  Lane j of order n_j then holds q *
        n_j / p for an F_p coordinate q, or 0 where p does not divide n_j (a
        lane that does not is an engine fault), so lanewise addition is
        addition over F_p.  Each x is reduced by its top nonzero lane with
        packed multiples of the vectors kept so far; one reduced to 0
        depends on them."""
        units = [n // p if n % p == 0 else n for n in self.orders]
        units *= self.nbytes // self.width
        pivots = {}   # top lane of a kept y: {value of t * y there: -t * y}
        for x in xs:
            if any(map(int.__mod__, x.to_bytes(self.nbytes, "big"), units)):
                raise EngineInvariantError("packed vector outside the p-torsion")
            while x and (top := (x.bit_length() - 1) >> 3) in pivots:
                x = self.add(x, pivots[top][x >> 8 * top])
            if not x:
                return False
            kill, y = pivots.setdefault(top, {}), x
            for _ in range(p - 1):
                kill[y >> 8 * top] = self.neg(y)
                y = self.add(y, x)
        return True

    def pack(self, pairs) -> int:
        """Value v at entry i for the (i, v) in `pairs`, i distinct; else 0."""
        top, code = 8 * (self.nbytes - self.width), self.code
        return sum(int.from_bytes(code[v], "big") << (top - 8 * self.width * i)
                   for i, v in pairs)


def _generators(group, mul) -> list:
    """Elements of the finite group `group` (its identity left out) that
    generate it under `mul`, each outside the subgroup of those before."""
    gens, seen = [], set()
    for g in (g for g in group if g not in seen):
        gens.append(g)
        while more := {mul(x, h) for x in seen | {g} for h in gens} - seen:
            seen |= more
    return gens


def _digit_image(maps, size: int) -> list:
    """The index of each vector's image when digit v at slot s goes to
    maps[s][v], in index order."""
    return reduce(lambda image, digits: [x * size + w for x in image
                                         for w in digits], maps, [0])


def half_sums(tables, vecs: PackedVectors):
    """Every sum of one packed vector per table, in product order (the first
    table varies slowest), starting from the zero vector 0."""
    sums = [0]
    for table in tables:
        sums = [vecs.add(x, c) for x in sums for c in table]
    return sums


class BoundedContext:
    """All degree-<=d data for one (module, presentation) pair."""

    def __init__(self, module: RightModule, presentation: SkewPbwPresentation,
                 degree: int):
        self.module = module
        self.presentation = presentation
        self.degree = degree
        self.basis = enumerate_upto(presentation.n, degree, presentation.order)
        if self.basis[0] != (0,) * presentation.n:
            raise EngineInvariantError("monomial basis does not start at 1")
        self.k = len(self.basis)
        self.slot = {alpha: i for i, alpha in enumerate(self.basis)}
        self.ring_size = presentation.ring.order
        self.mod_size = module.order
        self.f_space = self.ring_size ** self.k
        self.m_space = self.mod_size ** self.k
        self.pair_space = self.f_space * self.m_space
        self.vectors = PackedVectors(module, self.k)
        self._kernel = None
        self._rep = self._lam = self._minima = None
        self._ann_am = None
        self._scalar = None
        self._coeff_sets = {}
        self._fterms = {}
        self._mterms = {}

    # ------------------------------------------------------------------
    # vector addressing

    def _vec(self, idx: int, size: int):
        out = [0] * self.k
        for s in range(self.k - 1, -1, -1):
            idx, out[s] = divmod(idx, size)
        return tuple(out)

    def _index(self, vec, size: int) -> int:
        idx = 0
        for v in vec:
            idx = idx * size + v
        return idx

    def m_index(self, vec) -> int:
        return self._index(vec, self.mod_size)

    def _terms(self, memo: dict, idx: int, size: int, zero: int):
        terms = memo.get(idx)
        if terms is None:
            terms = memo[idx] = tuple(
                (self.basis[s], v) for s, v in enumerate(self._vec(idx, size))
                if v != zero)
        return terms

    def fterms(self, f_idx: int):
        """(exponent, nonzero coefficient) pairs of f, decoded once per
        context and kept there, as every scan reads the same rows again."""
        return self._terms(self._fterms, f_idx, self.ring_size,
                           self.presentation.ring.zero)

    def mterms(self, m_idx: int):
        """The same pairs for m, kept the same way."""
        return self._terms(self._mterms, m_idx, self.mod_size, self.module.zero)

    def f_poly(self, f_idx: int) -> SkewPoly:
        return self.presentation.from_terms(self.fterms(f_idx))

    def m_poly(self, m_idx: int) -> ModulePoly:
        return module_poly(self.module, self.presentation, self.mterms(m_idx))

    def m_term_index(self, alpha, m: int) -> int:
        return self._index([m if g == alpha else self.module.zero
                            for g in self.basis], self.mod_size)

    def f_term_index(self, alpha, r: int) -> int:
        return self._index([r if g == alpha else self.presentation.ring.zero
                            for g in self.basis], self.ring_size)

    # ------------------------------------------------------------------
    # raw action on term lists (exponents need not lie in the basis)

    def act_is_zero(self, mterms, fterms) -> bool:
        # The innermost call of `ann_am_rows`, where m * mu leaves the slice.
        M = self.module
        mzero = M.zero
        for v in term_products(self.presentation, mterms, fterms,
                               M.action_table, M.add_table, mzero).values():
            if v != mzero:
                return False
        return True

    def scalar_tables(self):
        """phi[r][s][v]: the packed coefficient k-vector of (v x^basis[s]) * r.

        m * r = sum over s of phi[r][s][m_s], so the images of the
        single-slot vectors decide the scalar check by a rank over F_p per
        prime (module docstring), and `half_sums` over phi[r] lists every
        packed m * r in m's index order: the one table of the slice's
        action, a finite right R-module as x^alpha r = sigma^alpha(r)
        x^alpha + lower terms.  One `triple` call per (r, s); built once per
        context, |R| * k * |M| vectors, each a sum of module elements
        already shifted into their slot's lanes.  The scalar check's guard
        still measures m_space * |R|, the space its witness scan walks, not
        this smaller work, so the same reports are decided and skipped as
        when every (m, r) was acted on.
        """
        if self._scalar is None:
            M, slot = self.module, self.slot
            triple, const = self.presentation.triple, self.basis[0]
            terms = [[triple(alpha, r, const) for alpha in self.basis]
                     for r in range(self.ring_size)]
            if any(g not in slot for per_r in terms for ts in per_r
                   for g, _ in ts):
                raise EngineInvariantError("scalar action left the bounded basis")
            # at[i][x]: module element x as the packed vector x x^basis[i]
            lanes = [int.from_bytes(c, "big") for c in self.vectors.code]
            at = [[x << 8 * self.vectors.width * (self.k - 1 - i)
                   for x in lanes] for i in range(self.k)]

            def images(ts):   # (v x^basis[s]) * r for every v; ts: x^basis[s] r
                cols = [[at[slot[g]][row[w]] for row in M.action_table]
                        for g, w in ts]
                return [sum(c) for c in zip(*cols)] if cols else [0] * M.order

            self._scalar = [list(map(images, per_r)) for per_r in terms]
        return self._scalar

    # ------------------------------------------------------------------
    # the kernel map and its refinements

    def guard(self, space: int, limit: int, what: str):
        if space > limit:
            raise SearchSpaceTooLarge(space, limit, what)

    def structure_tensor(self):
        """(T, monos): T[s][t][b] lists the terms of x^basis[s] * b *
        x^basis[t] as (position, coefficient) pairs, every output monomial
        re-keyed to its position in monos.  One `triple` call per (s, t,
        b)."""
        triple = self.presentation.triple
        pos = {}
        tensor = [[[tuple((pos.setdefault(g, len(pos)), w)
                          for g, w in triple(alpha, b, beta))
                    for b in range(self.ring_size)]
                   for beta in self.basis]
                  for alpha in self.basis]
        return tensor, list(pos)

    def leading_units(self, tensor, monos) -> list:
        """trivial[s][v]: every m whose last nonzero slot s holds v has
        kernel row {0}, certified by the leading term of act(m, f).

        P.order is a monomial order and the basis ascends under it, so when
        no term of T[s][t][b], b != 0, lies above basis[s] + basis[t], every
        term pair of m and f other than their last gives only monomials
        below the sum of their last ones, and the coefficient there is v * c
        for c that of basis[s] + basis[t] in x^basis[s] * f_t * x^basis[t]
        (Gallego & Lezama, Comm. Algebra 39, 2011).  trivial[s][v] holds
        when v != 0 and v * c != 0 for every t and b != 0: then act(m, f) !=
        0 for every f != 0 (as in McCoy, Amer. Math. Monthly 49, 1942).  If
        a term lies above, nothing is certified (U(sl2) under lex)."""
        M, P = self.module, self.presentation
        R = P.ring
        tops = []   # per s: every c at basis[s] + basis[t], t and b != 0
        for s, alpha in enumerate(self.basis):
            cs = set()
            for t, beta in enumerate(self.basis):
                top = add_exponents(alpha, beta)
                for b, terms in enumerate(tensor[s][t]):
                    if b == R.zero:
                        continue
                    if any(compare(P.order, monos[g], top) > 0
                           for g, _ in terms):
                        return [[False] * M.order for _ in self.basis]
                    cs.add(next((w for g, w in terms if monos[g] == top),
                                R.zero))
            tops.append(cs)
        act = M.action_table
        return [[v != M.zero and all(act[v][c] != M.zero for c in cs)
                 for v in M.elements()] for cs in tops]

    def orbit_rep(self) -> list:
        """rep[m_idx]: the least index of m's orbit under G (module
        docstring).  A generator, n or x_i -> t x_i for n and t generators of
        their groups, scales slot s by n * 1 or t^alpha_s[i]: one image list.
        Each unvisited m, in index order, is its orbit's least and is closed
        under those lists; `_lam[m_idx]` gets the slot scalars (lam^alpha_s)
        of a torus element lam (None for 1) with m = n * phi_lam(rep)."""
        if self._rep is None:
            M, P, ring = self.module, self.presentation, self.presentation.ring
            mul, e, one = ring.mul_table, lcm(*self.vectors.orders), ring.one
            gens = [([reduce(ring.add, [one] * n)] * self.k, None) for n in
                    _generators([n for n in range(2, e) if gcd(n, e) == 1],
                                lambda a, b: a * b % e)]
            torus = _generators([t for t in ring.elements() if t != one and (
                P.quasi_commutative and one in mul[t] and is_central(ring, t)
                and all(s[t] == t for s in P.sigma_tables))],
                lambda a, b: mul[a][b])
            gens += [(c, c) for i, t in product(range(P.n), torus) for c in [
                tuple(reduce(lambda x, _: mul[x][t], range(alpha[i]), one)
                      for alpha in self.basis)]]
            gens = [(_digit_image([[M.action_table[v][c] for v in
                                    M.elements()] for c in cs], M.order), t)
                    for cs, t in gens]
            then = cache(lambda lam, t: lam if t is None else t if lam is None
                         else tuple(map(lambda a, b: mul[a][b], lam, t)))
            rep, lams = [None] * self.m_space, [None] * self.m_space
            for m_idx in (m for m in range(self.m_space) if rep[m] is None):
                rep[m_idx], todo = m_idx, [m_idx]
                for x in todo:   # grows while it is walked
                    for image, t in gens:
                        if rep[y := image[x]] is None:
                            rep[y], lams[y] = m_idx, then(lams[x], t)
                            todo.append(y)
            self._rep, self._lam = rep, lams
        return self._rep

    def minima(self) -> list:
        """The orbit minima of `orbit_rep`, in index order, listed once per
        context and kept there."""
        if self._minima is None:
            self._minima = [m for m, r in enumerate(self.orbit_rep()) if m == r]
        return self._minima

    def _spread(self, at: dict) -> dict:
        """{m_idx: row} from `at`, the rows of the orbit minima: m = n *
        phi_lam(rep) holds phi_lam(at[rep]), mapped by one f-index
        permutation per lam, built on first use, and kept per (rep, lam).
        Where phi_lam fixes the row, as it fixes {0}, the row is shared."""
        rows, images, perms, mul = {}, {}, {}, self.presentation.ring.mul_table
        for m_idx, (r, lam) in enumerate(zip(self.orbit_rep(), self._lam)):
            if lam is None or len(at[r]) == 1:
                rows[m_idx] = at[r]
                continue
            if (r, lam) not in images:
                if lam not in perms:
                    perms[lam] = _digit_image([[mul[b][c] for b in range(
                        self.ring_size)] for c in lam], self.ring_size)
                moved = frozenset(map(perms[lam].__getitem__, at[r]))
                images[r, lam] = at[r] if moved == at[r] else moved
            rows[m_idx] = images[r, lam]
        return rows

    def kernel(self, max_space: int = DEFAULT_MAX_SPACE) -> dict:
        """act-annihilator rows: {m_idx: frozenset of f_idx with act(m,f)=0}.

        K_{g * m} = phi_lam(K_m) for g = (n, lam) in G, so rows are found at
        the orbit minima of `orbit_rep` only and `_spread` gives the rest.
        Each minimum is first sorted by its leading term: m = 0 has
        `coeff_set(R)`, the whole slice; an m whose last nonzero slot s holds
        v has `coeff_set({0})` when `leading_units` certifies trivial[s][v];
        the rest go to `_split_rows`.

        act(m, f) is the sum over slot pairs (s, t) of m_s applied to the
        coefficients of x^basis[s] * f_t * x^basis[t], so with L_m[t][b] the
        G-vector sum over s of m_s applied to T[s][t][b] (see
        `structure_tensor`), act(m, f) = sum over t of L_m[t][f_t].  Each
        split row is then found by a meet-in-the-middle split of the slots:
        with h = k // 2, f with prefix index p (slots 0..h-1) and suffix
        index j has index p * q^(k-h) + j and is in the row iff the negated
        sum over its high slots equals the sum over its low slots.

        Both lists of half sums are additive in m, as L_m is, so they are
        tabulated in one packed int per slot s at each generator of (M, +)
        (2 * k * r `half_sums` calls for r generators) and summed for the
        other values.  Walking the split minima in index order re-sums only
        the slots from the first changed digit on.  One `struct` unpack cuts
        a row's int into chunks, and one set intersection and one C-level
        pass per half list the matching pairs.

        The guard still measures the pair space |M|^k * |R|^k the rows
        cover, not the smaller work done here: a guard on the work would
        decide reports that are skipped today, changing reports and the cost
        of the frontier cases, so it is left for a change of its own.
        """
        self.guard(self.pair_space, max_space, "module-poly/poly pair space")
        if self._kernel is not None:
            return self._kernel
        tensor, monos = self.structure_tensor()
        trivial = self.leading_units(tensor, monos)
        whole = self.coeff_set(self.presentation.ring.elements(), max_space)
        certified = self.coeff_set([self.presentation.ring.zero], max_space)
        out, todo = {}, []
        for m_idx in self.minima():
            mt = self.mterms(m_idx)
            if not mt:
                out[m_idx] = whole
            elif trivial[self.slot[mt[-1][0]]][mt[-1][1]]:
                out[m_idx] = certified
            else:
                todo.append(m_idx)
        if todo:
            out.update(self._split_rows(tensor, len(monos), todo))
        self._kernel = self._spread(out)
        return self._kernel

    def _split_rows(self, tensor, G: int, todo: list) -> dict:
        """{m_idx: kernel row} by the split of `kernel` for each m_idx of
        `todo`, in index order; G counts the tensor's monomials, read as 1
        if there are none."""
        M, q, k, G = self.module, self.ring_size, self.k, max(G, 1)
        vec, h = PackedVectors(M, G), k // 2
        high_size, low_size = q ** h, q ** (k - h)
        flat = PackedVectors(M, (high_size + low_size) * G)
        step = vec.width * G
        chunks = Struct(f"{step}s" * (high_size + low_size)).unpack
        gens, coords = cyclic_factors(M)

        def slot_table(s):
            # the negated prefix sums, then the suffix sums, of m = g at s for
            # each generator g; additive in m, so summed for every other value
            mults = []
            for g, n in gens:
                row = M.action_table[g]
                L = [[vec.pack((c, row[w]) for c, w in terms)
                      for terms in per_t] for per_t in tensor[s]]
                L[:h] = [list(map(vec.neg, per_t)) for per_t in L[:h]]
                sums = half_sums(L[:h], vec) + half_sums(L[h:], vec)
                mults.append([0, int.from_bytes(b"".join(
                    [x.to_bytes(step, "big") for x in sums]), "big")])
                while len(mults[-1]) < n:
                    mults[-1].append(flat.add(mults[-1][-1], mults[-1][1]))
            return [reduce(flat.add, map(list.__getitem__, mults, coords[v]),
                           0) for v in M.elements()]

        def split(total):
            # prefix chunk p meets suffix chunk j exactly when they are equal
            parts = chunks(total.to_bytes(flat.nbytes, "big"))
            pre, suf = parts[:high_size], parts[high_size:]
            common = set(pre).intersection(suf).__contains__
            suffixes = {}
            for j in compress(range(low_size), map(common, suf)):
                suffixes.setdefault(suf[j], []).append(j)
            return frozenset([p * low_size + j for p in compress(
                range(high_size), map(common, pre)) for j in suffixes[pre[p]]])

        table = [slot_table(s) for s in range(k)]
        out, last = {}, [None] * k   # last: the digits of the previous m
        partial = [0] * (k + 1)      # partial[s]: the flat sum over slots < s
        for m_idx in todo:
            digits = [M.zero] * k
            for alpha, v in self.mterms(m_idx):
                digits[self.slot[alpha]] = v
            first = next(s for s in range(k) if digits[s] != last[s])
            for s in range(first, k):
                partial[s + 1] = flat.add(partial[s], table[s][digits[s]])
            out[m_idx] = split(partial[k])
            last = digits
        return out

    def acting_middles(self) -> list:
        """The middles mu = r x^gamma, r a generator of (R, +) that
        `cyclic_factors` picks (act(m, mu f) is additive in r) and gamma in
        the basis, that do not commute with the slice: mu * b x^beta != b
        x^beta * mu for some such b and beta.  Both sides are r (resp. b)
        times a normal form of `structure_tensor`, read off the triple cache.
        A middle that commutes with every such b x^beta, as 1 does, commutes
        with every f of the slice, by additivity."""
        ring, triple = self.presentation.ring, self.presentation.triple
        mul, zero = ring.mul_table, ring.zero
        gens = [b for b, _ in cyclic_factors(ring)[0]]

        def scaled(c, terms):
            return {(g, mul[c][w]) for g, w in terms if mul[c][w] != zero}

        return [(r, gamma) for gamma in self.basis for r in gens
                if any(scaled(r, triple(gamma, b, beta))
                       != scaled(b, triple(beta, r, gamma))
                       for b in gens for beta in self.basis)]

    def ann_am_rows(self, max_space: int = DEFAULT_MAX_SPACE) -> dict:
        """Bounded annihilator of m*A: f with act(m, r x^gamma f) = 0 for all
        middle factors.  Always a subset of the kernel row (identity factor).

        M<X> is a right A-module, so act(m, mu f) = act(m * mu, f) for every
        middle mu: this rests on two premises, that A is associative, which
        `check_consistency` certifies, and that M is a right R-module.  So
        each minimum m forms m * mu once per middle mu = r x^gamma, over M's
        action table, and keeps the f of its row that m * mu annihilates:
        the kernel row of m * mu when it lies in the slice, else the f with
        `act_is_zero`.  A row that reaches {0} stops, as no middle shrinks it.

        The middles are r x^gamma over the additive generators r of R only
        (Z4 needs r = 1 alone), and of those only the `acting_middles` act:
        a middle mu that commutes with the slice has mu f = f mu, so for f
        in the kernel row act(m, mu f) = act(act(m, f), mu) = act(0, mu) =
        0.  With no middle left the rows are the kernel's own dict.

        The row of a single term m x^alpha also answers the quasi-Armendariz
        mixed products: (m x^alpha)(r x^t)(b x^beta), additive in r, is 0 for
        all r and t exactly when b x^beta lies in that row.

        A_{g * m} = phi_lam(A_m) for g = (n, lam) in G, as phi_lam maps the
        middles' span A_{<=d} onto itself, so as in `kernel` rows are found
        at the orbit minima only and `_spread` gives the rest.
        """
        kern = self.kernel(max_space)
        if self._ann_am is not None:
            return self._ann_am
        acting = self.acting_middles()
        if not acting:
            self._ann_am = kern
            return kern
        M, P, slot = self.module, self.presentation, self.slot
        rows = {}
        for m_idx in self.minima():
            mt, keep = self.mterms(m_idx), kern[m_idx]
            for r, gamma in acting:
                if len(keep) == 1:   # {0}
                    break
                m_mu = {g: v for g, v in term_products(
                    P, mt, ((gamma, r),), M.action_table, M.add_table,
                    M.zero).items() if v != M.zero}
                if not m_mu:   # m * mu = 0 annihilates every f
                    continue
                if slot.keys() >= m_mu.keys():
                    keep = kern[self.m_index(m_mu.get(g, M.zero) for g in
                                             self.basis)].intersection(keep)
                else:
                    keep = [f_idx for f_idx in keep if self.act_is_zero(
                        m_mu.items(), self.fterms(f_idx))]
            # a row the middles left whole is the kernel row's own object
            whole = len(keep) == len(kern[m_idx])
            rows[m_idx] = kern[m_idx] if whole else frozenset(keep)
        self._ann_am = self._spread(rows)
        return self._ann_am

    def coeff_set(self, allowed, max_space: int = DEFAULT_MAX_SPACE) -> frozenset:
        """All f_idx whose coefficients lie in `allowed` (a set of ring
        elements containing 0); this is (allowed)*A cut to degree <= d when
        allowed is a right ideal.  Listed by `_digit_image` and kept per
        `allowed`, so `kernel`'s whole-slice and {0} rows are these sets;
        the guard measures the polynomial space."""
        self.guard(self.f_space, max_space, "polynomial space")
        key = frozenset(allowed)
        if key not in self._coeff_sets:
            self._coeff_sets[key] = frozenset(
                _digit_image([list(key)] * self.k, self.ring_size))
        return self._coeff_sets[key]


def context(module: RightModule, presentation: SkewPbwPresentation | None,
            degree: int) -> BoundedContext:
    """Shared BoundedContext per (module, presentation, degree).

    The kernel map is the dominant cost of the theorem suite and must be
    computed once, not once per decider, so the context is cached on the
    module under (presentation, degree) and dies with the module.

    A None presentation is R as an extension in no variables, built here as
    `validate_presentation` refuses n = 0.  Its basis is [()] and
    T[0][0][b] = b, so at degree 0 the kernel row of m is ann({m}) in R.
    Any other presentation must be over M's own ring object.
    """
    if presentation is not None and presentation.ring is not module.ring:
        raise PresentationMismatch("module over a different ring")
    key = (presentation, degree)
    ctx = module._contexts.get(key)
    if ctx is None:
        if presentation is None:
            presentation = SkewPbwPresentation(module.ring, [], [], {}, {}, {},
                                               default_order(0))
        ctx = module._contexts[key] = BoundedContext(module, presentation,
                                                     degree)
    return ctx

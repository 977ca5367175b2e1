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
two facts are used: act is the sum over term pairs that `term_products`
computes, and (M, +) is an abelian group (`validate_module` checks it).
`ann_am_rows` refines the kernel rows over the middle factors r x^gamma
with r an additive generator of R; no per-pair answer is kept.  A middle
mu that commutes with the slice is dropped, as act(m, mu f) = act(act(m,
f), mu) = 0 for f in the kernel row when A is associative and M a right
R-module; over a commutative slice the ann(mA) rows are the kernel rows.
Rows are frozensets of f_idx, so the scans ask set questions of them and
take the least index as the witness f.

For n prime to the exponent of (M, +), m -> n * m is an automorphism and
act(n * m, f) = n * act(m, f), so the m of one orbit share their kernel and
ann(mA) rows.  Each row is built once per orbit, at its least index
(`orbit_rep`), and every m of the orbit holds that one row: the row scans
of `properties` rest on this contract.  Their conditions are all
orbit-invariant, so every row scan visits the minima only; the first
failing m in index order is one, so witnesses stay.

The scalar action m * r is additive in m, so H_r = {m in M^k : m * r = 0}
and S_r = ann_M(r)^k are subgroups of M^k.  S_r is spanned by the single-slot
vectors v x^basis[s] with v in ann_M(r), so S_r <= H_r exactly when each of
them has m * r = 0, a lookup in the tables of `scalar_tables`.
`count_zero_sums` over those tables counts |H_r| with the kernel's split,
about |M|^(k/2) vector sums per r instead of |M|^k actions, and then
H_r = S_r exactly when |H_r| = |ann_M(r)|^k.  Summed over all of M, the
same tables give `scalar_action`, the slice's own action table, which the
reduced and twist-compatibility scans of `properties` read as M's.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import compress, product, repeat
from math import gcd, lcm
from struct import Struct

from .errors import (EngineInvariantError, PresentationMismatch,
                     SearchSpaceTooLarge)
from .monomial import default_order, enumerate_upto
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

    (M, +) is coded once as Z/n_1 x .. x Z/n_r by `cyclic_factors` (the zero
    module as one lane of order 1), checked against the whole add table and
    kept on the module.  Entry i is bytes i*r .. i*r+r-1, big-endian, one
    8-bit lane per factor.  Each n_j divides char(R) <= 64 (n * m = m * (n *
    1_R)), so a lane sum s < 128, and s + 128 - n_j sets bit 7 iff s >= n_j."""

    def __init__(self, module: RightModule, length: int):
        packing = module._packing
        if packing is None:
            gens, coords = cyclic_factors(module)
            code = [bytes(coords[m]) or b"\0" for m in module.elements()]
            packing = (code, [n for _, n in gens] or [1])
        self.code, orders = packing
        self.width, self.nbytes = len(orders), len(orders) * length
        self.C, self.H, self.N = (
            int.from_bytes(bytes(lane) * length, "big") for lane in
            ([128 - n for n in orders], [128] * self.width, orders))
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

    def pack(self, pairs) -> int:
        """Value v at entry i for the (i, v) in `pairs`, i distinct; else 0."""
        top, code = 8 * (self.nbytes - self.width), self.code
        return sum(int.from_bytes(code[v], "big") << (top - 8 * self.width * i)
                   for i, v in pairs)


def half_sums(tables, vecs: PackedVectors):
    """Every sum of one packed vector per table, in product order (the first
    table varies slowest), starting from the zero vector 0."""
    sums = [0]
    for table in tables:
        sums = [vecs.add(x, c) for x in sums for c in table]
    return sums


def count_zero_sums(tables, vecs: PackedVectors) -> int:
    """How many choices of one packed vector per table sum to 0, by the
    kernel's meet-in-the-middle split: a Counter of the sums over the low
    tables h.. (h = len(tables) // 2), looked up by the sums over the negated
    high tables, so the work is about the two halves' products."""
    h = len(tables) // 2
    low = Counter(half_sums(tables[h:], vecs))
    return sum(map(low.get, half_sums([list(map(vecs.neg, t)) for t in
                                       tables[:h]], vecs), repeat(0)))


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
        self._rep = None
        self._ann_am = None
        self._middles = None
        self._scalar = None
        self._action = None
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
        # The innermost call of `ann_am_rows` and the scalar witness scan.
        M = self.module
        mzero = M.zero
        for v in term_products(self.presentation, mterms, fterms,
                               M.action_table, M.add_table, mzero).values():
            if v != mzero:
                return False
        return True

    def scalar_tables(self):
        """phi[r][s][v]: the packed coefficient k-vector of (v x^basis[s]) * r.

        m * r = sum over s of phi[r][s][m_s], so `count_zero_sums` over
        phi[r] is |{m : m * r = 0}| and its `half_sums` list every m * r.
        One `triple` call per (r, s); built once per context, |R| * k * |M|
        vectors.  The scalar check's guard still measures m_space * |R|, the
        space it decides, not this smaller work, so the same reports are
        decided and skipped as when every (m, r) was acted on.
        """
        if self._scalar is None:
            M, slot = self.module, self.slot
            triple, const = self.presentation.triple, self.basis[0]
            terms = [[triple(alpha, r, const) for alpha in self.basis]
                     for r in range(self.ring_size)]
            if any(g not in slot for per_r in terms for ts in per_r
                   for g, _ in ts):
                raise EngineInvariantError("scalar action left the bounded basis")
            self._scalar = [[[self.vectors.pack(
                (slot[g], M.action_table[v][w]) for g, w in ts)
                for v in M.elements()] for ts in per_r] for per_r in terms]
        return self._scalar

    def scalar_action(self):
        """action[m_idx][r]: the index of m * r.  x^alpha r = sigma^alpha(r)
        x^alpha + lower terms, so the slice is a finite right R-module; its
        table is read off `half_sums` over each phi[r] of `scalar_tables`,
        which lists m * r for every m in index order.  One dict maps them to
        indices: `half_sums` over the unit tables lists every m in order.  At
        degree 0 the slice is M and its table is M's own."""
        if self._action is None and self.k == 1:
            self._action = list(self.module.action_table)   # M<X>_{<=0} = M
        if self._action is None:
            vecs = self.vectors
            units = [[vecs.pack(((s, v),)) for v in self.module.elements()]
                     for s in range(self.k)]
            index = {x: m_idx for m_idx, x in enumerate(half_sums(units, vecs))}
            cols = [[index[x] for x in half_sums(phi, vecs)]
                    for phi in self.scalar_tables()]
            self._action = list(zip(*cols))
        return self._action

    # ------------------------------------------------------------------
    # the kernel map and its refinements

    def guard(self, space: int, limit: int, what: str):
        if space > limit:
            raise SearchSpaceTooLarge(space, limit, what)

    def structure_tensor(self):
        """(T, G): T[s][t][b] lists the terms of x^basis[s] * b * x^basis[t]
        as (position, coefficient) pairs, every output monomial re-keyed to
        a position in 0..G-1, G >= 1 even if none is output (over the zero
        ring).  One `triple` call per (s, t, b)."""
        triple = self.presentation.triple
        pos = {}
        tensor = [[[tuple((pos.setdefault(g, len(pos)), w)
                          for g, w in triple(alpha, b, beta))
                    for b in range(self.ring_size)]
                   for beta in self.basis]
                  for alpha in self.basis]
        return tensor, max(len(pos), 1)

    def orbit_rep(self) -> list:
        """rep[m_idx]: the least index of the orbit {n * m : gcd(n, e) = 1},
        e the exponent of (M, +), the lcm of the packed factor orders.  Each
        n * v is read off the add table and each image of the slice is listed
        digit by digit, |M|^k indices per n; e <= 2 gives the identity."""
        if self._rep is None:
            M, k = self.module, self.k
            e = lcm(*M._packing[1])
            rep = list(range(self.m_space))
            scaled = list(M.elements())   # n * v, for n = 1, 2, ..
            for n in range(2, e):
                scaled = [M.add_table[x][v] for v, x in enumerate(scaled)]
                if gcd(n, e) == 1:
                    image = [0]
                    for _ in range(k):
                        image = [x * M.order + w for x in image for w in scaled]
                    rep = list(map(min, rep, image))
            self._rep = rep
        return self._rep

    def kernel(self, max_space: int = DEFAULT_MAX_SPACE) -> dict:
        """act-annihilator rows: {m_idx: frozenset of f_idx with act(m,f)=0}.

        act(m, f) is the sum over slot pairs (s, t) of m_s applied to the
        coefficients of x^basis[s] * f_t * x^basis[t], so with L_m[t][b] the
        G-vector sum over s of m_s applied to T[s][t][b] (see
        `structure_tensor`), act(m, f) = sum over t of L_m[t][f_t].  Each
        row is then found by a meet-in-the-middle split of the slots: with
        h = k // 2, f with prefix index p (slots 0..h-1) and suffix index j
        has index p * q^(k-h) + j and is in the row iff the negated sum over
        its high slots equals the sum over its low slots.

        Both lists of half sums are additive in m, as L_m is, so they are
        tabulated in one packed int per slot s at each generator of (M, +)
        (2 * k * r `half_sums` calls for r generators) and summed for the
        other values.  Walking the blocks of m that share all digits but
        the last re-sums only the slots from the first changed digit on.
        One `struct` unpack cuts a row's int into chunks, and one set
        intersection and one C-level pass per half list the matching pairs.
        K_{n * m} = K_m for n prime to the exponent of (M, +), as act(n * m,
        f) = n * act(m, f), so a row is split out only at an orbit minimum
        of `orbit_rep` and every other m shares its minimum's row.

        The guard still measures the pair space |M|^k * |R|^k the rows
        cover, not the smaller work done here: a guard on the work would
        decide reports that are skipped today, changing reports and the cost
        of the frontier cases, so it is left for a change of its own.
        """
        self.guard(self.pair_space, max_space, "module-poly/poly pair space")
        if self._kernel is not None:
            return self._kernel
        M, q, k = self.module, self.ring_size, self.k
        rep = self.orbit_rep()
        tensor, G = self.structure_tensor()
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
        out, partial = {}, [0] * k   # partial[s]: the flat sums of slots < s
        for block, digits in enumerate(product(M.elements(), repeat=k - 1)):
            # from the previous block, every digit after the last nonzero reset
            first = max((s for s in range(k - 1) if digits[s]), default=0)
            for s in range(first, k - 1):
                partial[s + 1] = flat.add(partial[s], table[s][digits[s]])
            base = block * M.order
            for v in M.elements():
                if rep[base + v] == base + v:
                    out[base + v] = split(flat.add(partial[-1], table[-1][v]))
        rows = {m_idx: out[r] for m_idx, r in enumerate(rep)}
        self._kernel = rows
        return rows

    def middle_factors(self):
        """(r, gamma) pairs spanning A up to degree d additively, the
        identity first: r runs over the generators of (R, +) that
        `cyclic_factors` picks, as act(m, (r x^gamma) f) is additive in r."""
        if self._middles is None:
            ring, const = self.presentation.ring, self.basis[0]
            gens = cyclic_factors(ring)[0]
            self._middles = [(ring.one, const)] + [
                (r, gamma) for gamma in self.basis for r, _ in gens
                if (r, gamma) != (ring.one, const)]
        return self._middles

    def acting_middles(self) -> list:
        """The middles mu = r x^gamma of `middle_factors()[1:]` that do not
        commute with the slice: mu * b x^beta != b x^beta * mu for some
        additive generator b of R and some beta in the basis.  Both sides
        are r (resp. b) times a normal form of `structure_tensor`, read off
        the triple cache.  A middle that commutes with every such b x^beta
        commutes with every f of the slice, by additivity."""
        ring, triple = self.presentation.ring, self.presentation.triple
        mul, zero = ring.mul_table, ring.zero
        gens = [b for b, _ in cyclic_factors(ring)[0]]

        def scaled(c, terms):
            return {(g, mul[c][w]) for g, w in terms if mul[c][w] != zero}

        return [(r, gamma) for r, gamma in self.middle_factors()[1:]
                if any(scaled(r, triple(gamma, b, beta))
                       != scaled(b, triple(beta, r, gamma))
                       for b in gens for beta in self.basis)]

    def ann_am_rows(self, max_space: int = DEFAULT_MAX_SPACE) -> dict:
        """Bounded annihilator of m*A: f with act(m, r x^gamma f) = 0 for all
        middle factors.  Always a subset of the kernel row (identity factor).

        The middles are `middle_factors()`, over the additive generators of
        R only (Z4 needs r = 1 alone), and of those only the
        `acting_middles` act: a middle mu that commutes with the slice has
        mu f = f mu, so for f in the kernel row act(m, mu f) = act(act(m,
        f), mu) = act(0, mu) = 0.  That rests on two premises: A is
        associative, which `check_consistency` certifies, and M is a right
        R-module, so M<X> is a right A-module.  With no middle left the rows
        are the kernel's own dict, and no product is formed.

        A constant middle r keeps m * r inside the slice and act(m, r f) =
        act(m * r, f), so f passes it exactly when f lies in the kernel row
        of `scalar_action()[m][r]`: the constant middles meet kernel rows,
        and at degree 0, where every middle is constant, that meet is the
        row.  For the other middles the terms of (r x^gamma) * f are
        computed once per (middle, f), on first use, and acted on by each m
        whose row still holds f.

        The row of a single term m x^alpha also answers the quasi-Armendariz
        mixed products: (m x^alpha)(r x^t)(b x^beta), additive in r, is 0 for
        all r and t exactly when b x^beta lies in that row.

        A_{n * m} = A_m for n prime to the exponent of (M, +), as n is
        injective on M, so as in `kernel` each row is found only at an orbit
        minimum of `orbit_rep` and shared, as one frozenset, by its orbit.
        """
        kern = self.kernel(max_space)
        if self._ann_am is not None:
            return self._ann_am
        rep = self.orbit_rep()
        P, ring = self.presentation, self.presentation.ring
        const = self.basis[0]
        acting = self.acting_middles()
        if not acting:
            self._ann_am = kern
            return kern
        scalars = [r for r, gamma in acting if gamma == const]
        middles = [(gamma, r) for r, gamma in acting if gamma != const]
        action = self.scalar_action() if scalars else None
        products = {}   # (middle, f_idx) -> terms of (r x^gamma) * f
        rows = {}
        for m_idx in range(self.m_space):
            if rep[m_idx] != m_idx:
                rows[m_idx] = rows[rep[m_idx]]
                continue
            mt = self.mterms(m_idx)
            if not mt:
                rows[m_idx] = kern[m_idx]
                continue
            keep = kern[m_idx].intersection(
                *(kern[action[m_idx][r]] for r in scalars))
            for middle in middles:
                passed = []
                for f_idx in keep:
                    terms = products.get((middle, f_idx))
                    if terms is None:
                        acc = term_products(P, (middle,), self.fterms(f_idx),
                                            ring.mul_table, ring.add_table,
                                            ring.zero)
                        terms = products[middle, f_idx] = tuple(
                            (g, w) for g, w in acc.items() if w != ring.zero)
                    if self.act_is_zero(mt, terms):
                        passed.append(f_idx)
                keep = passed
            # a row the middles left whole is the kernel row's own object
            whole = len(keep) == len(kern[m_idx])
            rows[m_idx] = kern[m_idx] if whole else frozenset(keep)
        self._ann_am = rows
        return rows

    def coeff_set(self, allowed, max_space: int = DEFAULT_MAX_SPACE) -> frozenset:
        """All f_idx whose coefficients lie in `allowed` (a set of ring
        elements containing 0); this is (allowed)*A cut to degree <= d when
        allowed is a right ideal.  Built slot by slot, |result| * k indices,
        and kept per `allowed`; the guard measures the polynomial space."""
        self.guard(self.f_space, max_space, "polynomial space")
        key = frozenset(allowed)
        if key not in self._coeff_sets:
            out = [0]   # the indices of the vectors over `allowed`, by slot
            for _ in range(self.k):
                out = [f_idx * self.ring_size + b for f_idx in out for b in key]
            self._coeff_sets[key] = frozenset(out)
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
                                               default_order(0), True, True)
        ctx = module._contexts[key] = BoundedContext(module, presentation,
                                                     degree)
    return ctx

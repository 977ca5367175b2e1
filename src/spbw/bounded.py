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
long as it does, so there is no process-wide cache.  M<X>_{<=0} is M, so
the exact Baer-family deciders on M use the slice `context(M, None, 0)`.

Module values are summed only as `PackedVectors`: (M, +) is coded once
per module as Z/n_1 x .. x Z/n_r, and a vector is one int with an 8-bit
lane per entry and factor, added or negated with a few int operations
(SIMD within a register) and read back through one `unpack`.

The kernel never acts pair by pair.  It tabulates the structure tensor
x^basis[s] * b * x^basis[t] once (k^2 * |R| normal forms) and finds each
row by a meet-in-the-middle split of the k slots, whose half sums are
additive in m and so tabulated once per slot and module value.  Only two
facts are used: act is the sum over term pairs that `term_products`
computes, and (M, +) is an abelian group (`validate_module` checks it).
`ann_am_rows` refines the kernel rows over the middle factors r x^gamma
with r an additive generator of R.

The scalar action m * r is additive in m, so H_r = {m in M^k : m * r = 0}
and S_r = ann_M(r)^k are subgroups of M^k.  `count_zero_sums` over the
tables of `scalar_tables` counts |H_r| and |H_r & S_r| with the kernel's
split, about |M|^(k/2) vector sums per r instead of |M|^k actions, and
H_r = S_r exactly when both equal |ann_M(r)|^k.  Summed over all of M, the
same tables give `scalar_action`, the slice's own action table, which the
reduced and twist-compatibility scans of `properties` read as M's.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .errors import EngineInvariantError, SearchSpaceTooLarge
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
            packing = (code, {c: m for m, c in enumerate(code)},
                       [n for _, n in gens] or [1])
        self.code, self.decode, orders = packing
        self.width, self.nbytes = len(orders), len(orders) * length
        self.C, self.H, self.N = (
            int.from_bytes(bytes(lane) * length, "big") for lane in
            ([128 - n for n in orders], [128] * self.width, orders))
        if module._packing is None:
            ints = [int.from_bytes(c, "big") for c in self.code]
            if len(self.decode) != module.order or any(
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

    def unpack(self, x: int) -> tuple:
        b, w = x.to_bytes(self.nbytes, "big"), self.width
        return tuple([self.decode[b[i:i + w]] for i in range(0, len(b), w)])


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
    tables h.. (h = len(tables) // 2), looked up by the negated sums over
    the high tables, so the work is about the two halves' products."""
    h = len(tables) // 2
    low = Counter(half_sums(tables[h:], vecs))
    return sum(low[vecs.neg(x)] for x in half_sums(tables[:h], vecs))


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
        self._ann_am = None
        self._middles = None
        self._scalar = None
        self._action = None
        self._coeff_sets = {}
        self._mixed = {}

    # ------------------------------------------------------------------
    # vector addressing

    def _vec(self, idx: int, size: int):
        out = [0] * self.k
        for s in range(self.k - 1, -1, -1):
            idx, out[s] = divmod(idx, size)
        return tuple(out)

    def fvec(self, f_idx: int):
        return self._vec(f_idx, self.ring_size)

    def mvec(self, m_idx: int):
        return self._vec(m_idx, self.mod_size)

    def _index(self, vec, size: int) -> int:
        idx = 0
        for v in vec:
            idx = idx * size + v
        return idx

    def m_index(self, vec) -> int:
        return self._index(vec, self.mod_size)

    def fterms(self, f_idx: int):
        vec = self.fvec(f_idx)
        zero = self.presentation.ring.zero
        return tuple((self.basis[s], b) for s, b in enumerate(vec)
                     if b != zero)

    def mterms(self, m_idx: int):
        vec = self.mvec(m_idx)
        return tuple((self.basis[s], m) for s, m in enumerate(vec)
                     if m != self.module.zero)

    def f_poly(self, f_idx: int) -> SkewPoly:
        return self.presentation.from_terms(self.fterms(f_idx))

    def m_poly(self, m_idx: int) -> ModulePoly:
        return module_poly(self.module, self.presentation, self.mterms(m_idx))

    def constant_m_index(self, m: int) -> int:
        return self.m_index((m,) + (self.module.zero,) * (self.k - 1))

    def constant_f_index(self, r: int) -> int:
        return self._index((r,) + (self.presentation.ring.zero,) * (self.k - 1),
                           self.ring_size)

    # ------------------------------------------------------------------
    # raw action on term lists (exponents need not lie in the basis)

    def act_is_zero(self, mterms, fterms) -> bool:
        # The innermost call of `ann_am_rows` and the witness scans.
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
        which lists m * r for every m in index order."""
        if self._action is None:
            vecs = self.vectors
            cols = [[self.m_index(vecs.unpack(x)) for x in half_sums(phi, vecs)]
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

    def kernel(self, max_space: int = DEFAULT_MAX_SPACE) -> dict:
        """act-annihilator rows: {m_idx: tuple of f_idx with act(m,f)=0}.

        Rows are ascending.  act(m, f) is the sum over slot pairs (s, t) of
        m_s applied to the coefficients of x^basis[s] * f_t * x^basis[t], so
        with L_m[t][b] the G-vector sum over s of m_s applied to T[s][t][b]
        (see `structure_tensor`), act(m, f) = sum over t of L_m[t][f_t].
        Each row is then found by a meet-in-the-middle split of the slots:
        the sums over the low slots h..k-1 (h = k // 2), one per suffix, are
        indexed by value, and the negated sums over the high slots 0..h-1,
        one per prefix, look themselves up.  f with prefix index p and
        suffix index j has index p * q^(k-h) + j, so walking the prefixes in
        order, each with its ascending suffix list, emits the row ascending.

        Both lists of half sums are additive in m, as L_m is.  So they are
        tabulated once per slot s and value v, for m = v at slot s alone
        (2 * k * |M| `half_sums` calls), concatenated into one packed int,
        and the lists of each m are the sum of its slots' tables: walking
        the m in index order re-sums, one packed add each, only the slots
        from the first changed digit on; sums compare as `bytes` slices.

        The guard still measures the pair space |M|^k * |R|^k the rows
        cover, not the smaller work done here: a guard on the work would
        decide reports that are skipped today, changing reports and the cost
        of the frontier cases, so it is left for a change of its own.
        """
        if self._kernel is not None:
            return self._kernel
        self.guard(self.pair_space, max_space, "module-poly/poly pair space")
        M, q, k = self.module, self.ring_size, self.k
        tensor, G = self.structure_tensor()
        vec, h = PackedVectors(M, G), k // 2
        high_size, low_size = q ** h, q ** (k - h)
        flat = PackedVectors(M, (high_size + low_size) * G)
        step = vec.width * G

        def sums_table(s, v):
            # the negated prefix sums, then the suffix sums, of m = v at s
            row = M.action_table[v]
            L = [[vec.pack((g, row[w]) for g, w in terms) for terms in per_t]
                 for per_t in tensor[s]]
            sums = ([vec.neg(x) for x in half_sums(L[:h], vec)]
                    + half_sums(L[h:], vec))
            return int.from_bytes(b"".join([x.to_bytes(step, "big")
                                            for x in sums]), "big")

        table = [[sums_table(s, v) for v in M.elements()] for s in range(k)]
        suffix_at = list(enumerate(range(high_size * step, flat.nbytes, step)))
        prefix_at = [(p * low_size, p * step) for p in range(high_size)]
        rows = {}
        # partial[s]: the flat sums of m's slots before s; going from m - 1
        # to m resets every digit after the last nonzero one
        partial = [0] * (k + 1)
        for m_idx, digits in enumerate(product(M.elements(), repeat=k)):
            first = max((s for s in range(k) if digits[s]), default=0)
            for s in range(first, k):
                partial[s + 1] = flat.add(partial[s], table[s][digits[s]])
            b = partial[k].to_bytes(flat.nbytes, "big")
            suffixes = {}
            for j, i in suffix_at:
                suffixes.setdefault(b[i:i + step], []).append(j)
            rows[m_idx] = tuple([base + j for base, i in prefix_at
                                 for j in suffixes.get(b[i:i + step], ())])
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

    def scaled_triple(self, r: int, t, b: int, beta):
        """Terms of (r x^t) * (b x^beta); exponents may leave the basis."""
        ring = self.presentation.ring
        acc = term_products(self.presentation, ((t, r),), ((beta, b),),
                            ring.mul_table, ring.add_table, ring.zero)
        return tuple((g, w) for g, w in acc.items() if w != ring.zero)

    def mixed_failure(self, alpha, m: int, beta, b: int):
        """The first (r, t), r in ring order then t in basis order, with
        (m x^alpha) * (r x^t) * (b x^beta) != 0, or None if all vanish.

        The quasi-Armendariz decider asks this for every term pair of every
        (m, f) it scans, so each answer is kept on the context.
        """
        key = (alpha, m, beta, b)
        if key not in self._mixed:
            single = ((alpha, m),)
            self._mixed[key] = next(
                ((r, t) for r in self.presentation.ring.elements()
                 for t in self.basis
                 if not self.act_is_zero(single,
                                         self.scaled_triple(r, t, b, beta))),
                None)
        return self._mixed[key]

    def ann_am_rows(self, max_space: int = DEFAULT_MAX_SPACE) -> dict:
        """Bounded annihilator of m*A: f with act(m, r x^gamma f) = 0 for all
        middle factors.  Always a subset of the kernel row (identity factor).

        The middles are `middle_factors()`, over the additive generators of
        R only (Z4 needs r = 1 alone).  A constant middle r keeps m * r
        inside the slice and act(m, r f) = act(m * r, f), so f passes it
        exactly when f lies in the kernel row of `scalar_action()[m][r]`: a
        set lookup, and at degree 0, where every middle is constant, each
        row is a meet of kernel rows.  For the other middles the terms of
        (r x^gamma) * f are computed once per (middle, f), on first use, and
        acted on by each m whose row still holds f.
        """
        if self._ann_am is not None:
            return self._ann_am
        kern = self.kernel(max_space)
        P, ring = self.presentation, self.presentation.ring
        const = self.basis[0]
        scalars = [r for r, gamma in self.middle_factors()[1:] if gamma == const]
        middles = [(gamma, r) for r, gamma in self.middle_factors()[1:]
                   if gamma != const]
        action = self.scalar_action() if scalars else None
        zero_m = self.constant_m_index(self.module.zero)
        kern_sets = {}
        products = {}   # (middle, f_idx) -> terms of (r x^gamma) * f
        rows = {}
        for m_idx in range(self.m_space):
            mt = self.mterms(m_idx)
            if not mt:
                rows[m_idx] = kern[m_idx]
                continue
            keep = kern[m_idx]
            for m_r in {action[m_idx][r] for r in scalars} - {m_idx, zero_m}:
                row = kern_sets.get(m_r)
                if row is None:
                    row = kern_sets[m_r] = frozenset(kern[m_r])
                keep = [f_idx for f_idx in keep if f_idx in row]
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
            rows[m_idx] = tuple(keep)
        self._ann_am = rows
        return rows

    def coeff_set(self, allowed, max_space: int = DEFAULT_MAX_SPACE) -> frozenset:
        """All f_idx whose coefficients lie in `allowed` (a set of ring
        elements containing 0); this is (allowed)*A cut to degree <= d when
        allowed is a right ideal."""
        key = frozenset(allowed)
        cached = self._coeff_sets.get(key)
        if cached is not None:
            return cached
        self.guard(self.f_space, max_space, "polynomial space")
        out = []
        f_idx = 0
        for fv in product(range(self.ring_size), repeat=self.k):
            if all(b in key for b in fv):
                out.append(f_idx)
            f_idx += 1
        result = frozenset(out)
        self._coeff_sets[key] = result
        return result


def context(module: RightModule, presentation: SkewPbwPresentation | None,
            degree: int) -> BoundedContext:
    """Shared BoundedContext per (module, presentation, degree).

    The kernel map is the dominant cost of the theorem suite and must be
    computed once, not once per decider, so the context is cached on the
    module under (presentation, degree) and dies with the module.

    A None presentation is R as an extension in no variables, built here as
    `validate_presentation` refuses n = 0.  Its basis is [()] and
    T[0][0][b] = b, so at degree 0 the kernel row of m is ann({m}) in R.
    """
    key = (presentation, degree)
    ctx = module._contexts.get(key)
    if ctx is None:
        if presentation is None:
            presentation = SkewPbwPresentation(module.ring, [], [], {}, {}, {},
                                               default_order(0), True, True)
        ctx = module._contexts[key] = BoundedContext(module, presentation,
                                                     degree)
    return ctx

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

The kernel never evaluates act pair by pair.  It tabulates the structure
tensor x^basis[s] * b * x^basis[t] once (k^2 * |R| normal forms), turns
each m into k * |R| vectors L_m[t][b] with act(m, f) = sum_t L_m[t][f_t],
and finds the zero sums by a meet-in-the-middle split of the k slots.  The
two lists of half sums that split compares are additive in m, so they are
tabulated once per slot and module value, and each m's lists are a sum of
its slots' tables.  Only two facts are used: act is the sum over term pairs
that `term_products` computes, and (M, +) is an abelian group
(`validate_module` checks it).  Its budget guard still measures the pair
space |M|^k * |R|^k it decides.  `ann_am_rows` refines the kernel rows:
a constant middle factor r needs only the kernel row of m * r, and every
other product (r x^gamma) * f is formed once however many m act on it.

The scalar action m * r is additive in m, so for each r its zero set
H_r = {m in M^k : m * r = 0} is a subgroup of M^k, and so is
S_r = ann_M(r)^k.  `scalar_tables` tabulates the slot contributions
phi[r][s][v] = (v x^basis[s]) * r once, and `count_zero_sums` counts the
m with sum_s phi[r][s][m_s] = 0 by the kernel's meet-in-the-middle split,
over all of M per slot (|H_r|) or over ann_M(r) per slot (|H_r & S_r|).
H_r = S_r exactly when both counts equal |ann_M(r)|^k, so the scalar
decider certifies equality with about |M|^(k/2) vector sums per r instead
of acting on each of the |M|^k module polynomials.  Summed over all of M,
the same tables give `scalar_action`, the slice's own action table, which
the reduced and twist-compatibility scans of `properties` read as M's.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .errors import EngineInvariantError, SearchSpaceTooLarge, ValidationError
from .monomial import default_order, enumerate_upto
from .polymodule import ModulePoly, RightModule, module_poly
from .skewpbw import SkewPbwPresentation, SkewPoly, term_products

# Shared ceiling on |M|^k * |R|^k enumerations; the CLI can lower or raise it.
DEFAULT_MAX_SPACE = 10 ** 7


def half_sums(tables, zero, add):
    """Every sum of one vector per table, in product order (the first table
    varies slowest), starting from the vector `zero`; `add` is the add table
    the vectors are summed entrywise in."""
    sums = [zero]
    for table in tables:
        sums = [tuple([add[a][b] for a, b in zip(x, c)])
                for x in sums for c in table]
    return sums


def count_zero_sums(tables, zero, add, neg) -> int:
    """How many choices of one vector per table sum to `zero`.

    The meet-in-the-middle split of `BoundedContext.kernel`: a Counter of
    the sums over the low tables h.. (h = len(tables) // 2), then a lookup
    of the negation of each sum over the high tables ..h-1, so the work is
    about the sizes of the two halves' products, not of all of them.  `neg`
    maps each element to its additive inverse.
    """
    h = len(tables) // 2
    low = Counter(half_sums(tables[h:], zero, add))
    return sum(low[tuple([neg[v] for v in x])]
               for x in half_sums(tables[:h], zero, add))


class BoundedContext:
    """All degree-<=d data for one (module, presentation) pair."""

    def __init__(self, module: RightModule, presentation: SkewPbwPresentation,
                 degree: int):
        if degree < 0:
            raise ValidationError("bad_input",
                                  message="degree bound must be >= 0")
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

    def _scalar_vec(self, items):
        """The k-vector of (gamma, module coefficient) pairs of a scalar
        product, gammas distinct; it must stay inside the basis."""
        out = [self.module.zero] * self.k
        for gamma, v in items:
            s = self.slot.get(gamma)
            if s is not None:
                out[s] = v
            elif v != self.module.zero:
                raise EngineInvariantError(
                    "scalar action left the bounded basis")
        return tuple(out)

    def scalar_tables(self):
        """phi[r][s][v]: the coefficient k-vector of (v x^basis[s]) * r.

        m * r = sum over s of phi[r][s][m_s], so `count_zero_sums` over
        phi[r] is |{m : m * r = 0}| and its `half_sums` list every m * r.
        One `triple` call per (r, s); built once per context, |R| * k * |M|
        vectors.  The scalar check's guard still measures m_space * |R|, the
        space it decides, not this smaller work, so the same reports are
        decided and skipped as when every (m, r) was acted on.
        """
        if self._scalar is None:
            M = self.module
            triple, const = self.presentation.triple, self.basis[0]
            tables = []
            for r in range(self.ring_size):
                terms = [triple(alpha, r, const) for alpha in self.basis]
                tables.append(
                    [[self._scalar_vec((g, M.action_table[v][w]) for g, w in ts)
                      for v in M.elements()] for ts in terms])
            self._scalar = tables
        return self._scalar

    def scalar_action(self):
        """action[m_idx][r]: the index of m * r.  x^alpha r = sigma^alpha(r)
        x^alpha + lower terms, so the slice is a finite right R-module; its
        table is read off `half_sums` over each phi[r] of `scalar_tables`,
        which lists m * r for every m in index order."""
        if self._action is None:
            zero, add = (self.module.zero,) * self.k, self.module.add_table
            cols = [[self.m_index(v) for v in half_sums(phi, zero, add)]
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
        a position in 0..G-1.  One `triple` call per (s, t, b)."""
        triple = self.presentation.triple
        pos = {}
        tensor = [[[tuple((pos.setdefault(g, len(pos)), w)
                          for g, w in triple(alpha, b, beta))
                    for b in range(self.ring_size)]
                   for beta in self.basis]
                  for alpha in self.basis]
        return tensor, len(pos)

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
        (2 * k * |M| `half_sums` calls), flattened into one tuple, and the
        lists of each m are the sum of its slots' tables: walking the m in
        index order re-sums only the slots from the first changed digit on.

        The guard still measures the pair space |M|^k * |R|^k the rows
        cover, not the smaller work done here: a guard on the work would
        decide reports that are skipped today, changing reports and the cost
        of the frontier cases, so it is left for a change of its own.
        """
        if self._kernel is not None:
            return self._kernel
        self.guard(self.pair_space, max_space, "module-poly/poly pair space")
        M = self.module
        add, action = M.add_table, M.action_table
        neg = [M.neg(v) for v in M.elements()]
        q, k = self.ring_size, self.k
        tensor, G = self.structure_tensor()
        zero = (M.zero,) * G

        def scaled(v, terms):
            out = list(zero)
            row = action[v]
            for g, w in terms:
                out[g] = add[out[g]][row[w]]
            return tuple(out)

        h = k // 2
        high_size, low_size = q ** h, q ** (k - h)
        split = high_size * G

        def sums_table(s, v):
            # the negated prefix sums, then the suffix sums, of m = v at s
            L = [[scaled(v, terms) for terms in per_t] for per_t in tensor[s]]
            high = half_sums(L[:h], zero, add)
            return (tuple(neg[x] for c in high for x in c)
                    + tuple(x for c in half_sums(L[h:], zero, add) for x in c))

        table = [[sums_table(s, v) for v in M.elements()] for s in range(k)]
        rows = {}
        # partial[s]: the flat sums table of m's slots before s
        partial = [(M.zero,) * (split + low_size * G)] + [None] * k
        prev = (None,) * k
        for m_idx, digits in enumerate(product(M.elements(), repeat=k)):
            first = next(s for s in range(k) if digits[s] != prev[s])
            for s in range(first, k):
                partial[s + 1] = tuple([
                    add[x][y] for x, y in zip(partial[s], table[s][digits[s]])])
            prev = digits
            flat = partial[k]
            suffixes = {}
            for j in range(low_size):
                i = split + j * G
                suffixes.setdefault(flat[i:i + G], []).append(j)
            row = []
            for p in range(high_size):
                js = suffixes.get(flat[p * G:(p + 1) * G])
                if js is not None:
                    base = p * low_size
                    row.extend([base + j for j in js])
            rows[m_idx] = tuple(row)
        self._kernel = rows
        return rows

    def middle_factors(self):
        """(r, gamma) pairs spanning A up to degree d, the identity first."""
        if self._middles is None:
            one = self.presentation.ring.one
            rest = [(r, gamma) for gamma in self.basis
                    for r in self.presentation.ring.elements()
                    if not (r == one and gamma == self.basis[0])]
            self._middles = [(one, self.basis[0])] + rest
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

        Middles with r = 0 are dropped, as r x^gamma f = 0.  A constant
        middle r keeps m * r inside the slice and act(m, r f) =
        act(m * r, f), so f passes it exactly when f lies in the kernel row
        of `scalar_action()[m][r]`: a set lookup, and at degree 0, where
        every middle is constant, each row is a meet of kernel rows.  For
        the other middles the terms of (r x^gamma) * f are computed once
        per (middle, f), on first use, and acted on by each m whose row
        still holds f.
        """
        if self._ann_am is not None:
            return self._ann_am
        kern = self.kernel(max_space)
        P, ring = self.presentation, self.presentation.ring
        const = self.basis[0]
        scalars = [r for r, gamma in self.middle_factors()[1:]
                   if gamma == const and r != ring.zero]
        middles = [(gamma, r) for r, gamma in self.middle_factors()[1:]
                   if gamma != const and r != ring.zero]
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

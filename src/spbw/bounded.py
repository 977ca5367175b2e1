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
long as it does, so there is no process-wide cache.

The kernel never evaluates act pair by pair.  It tabulates the structure
tensor x^basis[s] * b * x^basis[t] once (k^2 * |R| normal forms), turns
each m into k * |R| vectors L_m[t][b] with act(m, f) = sum_t L_m[t][f_t],
and finds the zero sums by a meet-in-the-middle split of the k slots.  Only
two facts are used: act is the sum over term pairs that `term_products`
computes, and (M, +) is an abelian group (`validate_module` checks it).
Its budget guard still measures the pair space |M|^k * |R|^k it decides.

The scalar action m * r is additive in m, so for each r its zero set
H_r = {m in M^k : m * r = 0} is a subgroup of M^k, and so is
S_r = ann_M(r)^k.  `scalar_tables` tabulates the slot contributions
phi[r][s][v] = (v x^basis[s]) * r once, and `count_zero_sums` counts the
m with sum_s phi[r][s][m_s] = 0 by the kernel's meet-in-the-middle split,
over all of M per slot (|H_r|) or over ann_M(r) per slot (|H_r & S_r|).
H_r = S_r exactly when both counts equal |ann_M(r)|^k, so the scalar
decider certifies equality with about |M|^(k/2) vector sums per r instead
of acting on each of the |M|^k module polynomials.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .errors import EngineInvariantError, SearchSpaceTooLarge, ValidationError
from .monomial import enumerate_upto
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

    def act_terms(self, mterms, fterms) -> dict:
        M = self.module
        return term_products(self.presentation, mterms, fterms,
                             M.action_table, M.add_table, M.zero)

    def act_is_zero(self, mterms, fterms) -> bool:
        # The innermost call of `ann_am_rows` and the scans: the loop is
        # called directly, not through act_terms, to keep one call per pair.
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

    def act_scalar_vec(self, mterms, r: int):
        """Coefficient vector of (m * r); the result stays inside the basis."""
        return self._scalar_vec(
            self.act_terms(mterms, ((self.basis[0], r),)).items())

    def scalar_tables(self):
        """phi[r][s][v]: the coefficient k-vector of (v x^basis[s]) * r.

        m * r = sum over s of phi[r][s][m_s], so `count_zero_sums` over
        phi[r] is |{m : m * r = 0}|.  One `triple` call per (r, s); built
        once per context, |R| * k * |M| vectors, nothing of size |M|^k.
        The caller's guard still measures m_space * |R|, the space the
        scalar check decides, not this smaller work, so the same reports
        are decided and skipped as when every (m, r) was acted on.
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
        the sums over the low slots h..k-1 (h = k // 2) are indexed by value,
        and every sum over the high slots 0..h-1 looks up its negation.  f
        with prefix index p and suffix index j has index p * q^(k-h) + j, so
        walking the prefixes in order, each with its ascending suffix list,
        emits the row ascending.  L_m is additive in m, so walking the m in
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

        def vadd(u, v):
            return tuple([add[x][y] for x, y in zip(u, v)])

        def scaled(v, terms):
            out = list(zero)
            row = action[v]
            for g, w in terms:
                out[g] = add[out[g]][row[w]]
            return out

        # shift[s][v]: the cells (t, b) of L_m for m = v at slot s, flattened
        shift = [[tuple(x for per_t in tensor[s] for terms in per_t
                        for x in scaled(v, terms))
                  for v in M.elements()] for s in range(k)]
        width = q * G
        h = k // 2
        low_size = q ** (k - h)
        rows = {}
        # partial[s]: the flattened L of m's slots before s
        partial = [(M.zero,) * (k * width)] + [None] * k
        prev = (None,) * k
        for m_idx, digits in enumerate(product(M.elements(), repeat=k)):
            first = next(s for s in range(k) if digits[s] != prev[s])
            for s in range(first, k):
                partial[s + 1] = vadd(partial[s], shift[s][digits[s]])
            prev = digits
            flat = partial[k]
            L = [[flat[i:i + G] for i in range(t * width, (t + 1) * width, G)]
                 for t in range(k)]
            suffixes = {}
            for j, x in enumerate(half_sums(L[h:], zero, add)):
                suffixes.setdefault(x, []).append(j)
            row = []
            for p, x in enumerate(half_sums(
                    [[tuple([neg[v] for v in c]) for c in cells]
                     for cells in L[:h]], zero, add)):
                js = suffixes.get(x)
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
        """
        if self._ann_am is not None:
            return self._ann_am
        kern = self.kernel(max_space)
        middles = self.middle_factors()[1:]
        P, ring = self.presentation, self.presentation.ring
        rows = {}
        for m_idx in range(self.m_space):
            mt = self.mterms(m_idx)
            if not mt:
                rows[m_idx] = kern[m_idx]
                continue
            keep = []
            for f_idx in kern[m_idx]:
                ft = self.fterms(f_idx)
                ok = True
                for r, gamma in middles:
                    # (r x^gamma) * f, summed before acting: act is additive
                    h = term_products(P, ((gamma, r),), ft, ring.mul_table,
                                      ring.add_table, ring.zero)
                    if not self.act_is_zero(mt, tuple(
                            (g, w) for g, w in h.items() if w != ring.zero)):
                        ok = False
                        break
                if ok:
                    keep.append(f_idx)
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


def context(module: RightModule, presentation: SkewPbwPresentation,
            degree: int) -> BoundedContext:
    """Shared BoundedContext per (module, presentation, degree).

    The kernel map is the dominant cost of the theorem suite and must be
    computed once, not once per decider, so the context is cached on the
    module under (presentation, degree) and dies with the module.
    """
    key = (presentation, degree)
    ctx = module._contexts.get(key)
    if ctx is None:
        ctx = module._contexts[key] = BoundedContext(module, presentation,
                                                     degree)
    return ctx

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
"""

from __future__ import annotations

from itertools import product

from .errors import EngineInvariantError, SearchSpaceTooLarge, ValidationError
from .monomial import enumerate_upto
from .polymodule import ModulePoly, RightModule, module_poly
from .skewpbw import SkewPbwPresentation, SkewPoly

# Shared ceiling on |M|^k * |R|^k enumerations; the CLI can lower or raise it.
DEFAULT_MAX_SPACE = 10 ** 7


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
        self._coeff_sets = {}

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

    def m_index(self, vec) -> int:
        idx = 0
        for v in vec:
            idx = idx * self.mod_size + v
        return idx

    def fterms(self, f_idx: int):
        vec = self.fvec(f_idx)
        return tuple((self.basis[s], b) for s, b in enumerate(vec) if b)

    def mterms(self, m_idx: int):
        vec = self.mvec(m_idx)
        return tuple((self.basis[s], m) for s, m in enumerate(vec)
                     if m != self.module.zero)

    def f_poly(self, f_idx: int) -> SkewPoly:
        return self.presentation.from_terms(self.fterms(f_idx))

    def m_poly(self, m_idx: int) -> ModulePoly:
        return module_poly(self.module, self.presentation, self.mterms(m_idx))

    def constant_m_index(self, m: int) -> int:
        return m * self.mod_size ** (self.k - 1)

    # ------------------------------------------------------------------
    # raw action on term lists (exponents need not lie in the basis)

    def act_terms(self, mterms, fterms) -> dict:
        out = {}
        if not mterms or not fterms:
            return out
        madd = self.module.add_table
        mact = self.module.action_table
        mzero = self.module.zero
        triple = self.presentation.triple
        for alpha, mc in mterms:
            row = mact[mc]
            for beta, b in fterms:
                for gamma, w in triple(alpha, b, beta):
                    out[gamma] = madd[out.get(gamma, mzero)][row[w]]
        return out

    def act_is_zero(self, mterms, fterms) -> bool:
        mzero = self.module.zero
        for v in self.act_terms(mterms, fterms).values():
            if v != mzero:
                return False
        return True

    def act_scalar_vec(self, mterms, r: int):
        """Coefficient vector of (m * r); the result stays inside the basis."""
        out = [self.module.zero] * self.k
        for gamma, v in self.act_terms(mterms, ((self.basis[0], r),)).items():
            s = self.slot.get(gamma)
            if s is None:
                if v != self.module.zero:
                    raise EngineInvariantError(
                        "scalar action left the bounded basis")
                continue
            out[s] = v
        return tuple(out)

    # ------------------------------------------------------------------
    # the kernel map and its refinements

    def guard(self, space: int, limit: int, what: str):
        if space > limit:
            raise SearchSpaceTooLarge(space, limit, what)

    def kernel(self, max_space: int = DEFAULT_MAX_SPACE) -> dict:
        """act-annihilator rows: {m_idx: tuple of f_idx with act(m,f)=0}.

        Rows are ascending, so row[0] == 0 always (f = 0 kills everything).
        """
        if self._kernel is not None:
            return self._kernel
        self.guard(self.pair_space, max_space, "module-poly/poly pair space")
        rows = {m_idx: [] for m_idx in range(self.m_space)}
        # Stream the larger side, cache term lists for the smaller one.
        if self.m_space <= self.f_space:
            mts = [self.mterms(m_idx) for m_idx in range(self.m_space)]
            f_idx = 0
            for fv in product(range(self.ring_size), repeat=self.k):
                ft = tuple((self.basis[s], b) for s, b in enumerate(fv) if b)
                for m_idx, mt in enumerate(mts):
                    if self.act_is_zero(mt, ft):
                        rows[m_idx].append(f_idx)
                f_idx += 1
        else:
            fts = [self.fterms(f_idx) for f_idx in range(self.f_space)]
            for m_idx in range(self.m_space):
                mt = self.mterms(m_idx)
                row = rows[m_idx]
                for f_idx, ft in enumerate(fts):
                    if self.act_is_zero(mt, ft):
                        row.append(f_idx)
        self._kernel = {m_idx: tuple(r) for m_idx, r in rows.items()}
        return self._kernel

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
        acc = {}
        for gamma, w in self.presentation.triple(t, b, beta):
            acc[gamma] = ring.add(acc.get(gamma, ring.zero), ring.mul(r, w))
        return tuple((g, w) for g, w in acc.items() if w != ring.zero)

    def ann_am_rows(self, max_space: int = DEFAULT_MAX_SPACE) -> dict:
        """Bounded annihilator of m*A: f with act(m, r x^gamma f) = 0 for all
        middle factors.  Always a subset of the kernel row (identity factor).
        """
        if self._ann_am is not None:
            return self._ann_am
        kern = self.kernel(max_space)
        middles = self.middle_factors()[1:]
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
                    h = []
                    for beta, b in ft:
                        h.extend(self.scaled_triple(r, gamma, b, beta))
                    if not self.act_is_zero(mt, tuple(h)):
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

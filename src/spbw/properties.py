"""Module-property deciders and the executable transfer-theorem suite.

Verdict semantics
-----------------
Properties quantifying over finite data (the module, the ring, its
idempotents) are decided exactly: Holds or Fails.  Properties quantifying
over all polynomials are decided on the degree <= d slice and report
HoldsUpToBound(d); refutations are still exact.  A Fails verdict always
carries a replayable witness, found in enumeration order (ascending
coefficient vectors, constant slot most significant), so reruns return the
same witness.

Theorem reports
---------------
Each proved implication becomes a report with one of four statuses:

* confirmed          - hypotheses met and conclusion verified (or both
                       hypothesis and conclusion fail, which is the
                       contrapositive reading of the implication);
* hypothesis_not_met - some hypothesis fails and the conclusion gives no
                       contrapositive information;
* violation          - hypotheses met, conclusion refuted.  On a validated,
                       consistency-certified instance this always means an
                       engine bug, never new mathematics;
* skipped_search_space - a bounded side exceeded the search budget.

`theorem_suite` holds the implications in one ordered table of (theorem,
hypotheses, conclusion, bound) rows.  A conclusion is built by one of three
builders: `_verdict` (a decider verdict), `_claim` (an (ok, witness) check of
a fixed statement) or `_agreement` (a verdict compared with a bounded side).
A decider that a budget or size cap refuses yields None; a conclusion that
needs it reads "<name> not evaluated", and its side is not run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import product

from .annihilator import ann_in_r, idempotent_generator, principal_right_ideal
from .bounded import (DEFAULT_MAX_SPACE, BoundedContext, context,
                      count_zero_sums)
from .errors import (EngineInvariantError, SearchSpaceTooLarge, TooLarge,
                     ValidationError)
from .finring import closure_monoid, idempotents, is_central
from .polymodule import (ModulePoly, RightModule, act, act_scalar,
                         all_submodules, cyclic_submodule, module_poly,
                         submodule_closure)
from .skewpbw import SkewPbwPresentation, SkewPoly

HOLDS = "holds"
FAILS = "fails"
HOLDS_UP_TO_BOUND = "holds_up_to_bound"

CONFIRMED = "confirmed"
HYPOTHESIS_NOT_MET = "hypothesis_not_met"
VIOLATION = "violation"
SKIPPED = "skipped_search_space"

DEFAULT_DEGREE = 2
DEFAULT_MAX_SUBMODULE_ORDER = 16


@dataclass(frozen=True)
class PropertyVerdict:
    prop: str
    status: str
    witness: dict | None = None
    bound: int | None = None

    @property
    def holds(self) -> bool:
        return self.status != FAILS

    def to_json(self) -> dict:
        return {"property": self.prop, "status": self.status,
                "witness": self.witness, "bound": self.bound}


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    status: str
    hypotheses: tuple
    conclusion: str
    witness: dict | None = None
    bound: int | None = None

    def to_json(self) -> dict:
        return {"theorem": self.theorem, "status": self.status,
                "hypotheses": [{"name": n, "state": s}
                               for n, s in self.hypotheses],
                "conclusion": self.conclusion, "witness": self.witness,
                "bound": self.bound}


# ---------------------------------------------------------------------------
# witness plumbing


def _poly_from_struct(P: SkewPbwPresentation, struct: dict) -> SkewPoly:
    ring = P.ring
    return P.from_terms([(tuple(a), ring.element_index(c))
                         for a, c in struct["terms"]])


def _mpoly_from_struct(M: RightModule, P: SkewPbwPresentation,
                       struct: dict) -> ModulePoly:
    return module_poly(M, P, [(tuple(a), M.element_index(c))
                              for a, c in struct["terms"]])


def _apply_map_word(tables: dict, word: str, a: int) -> int:
    # word is "id" or a dotted label chain, leftmost applied last
    if word == "id":
        return a
    for lab in reversed(word.split(".")):
        a = tables[lab][a]
    return a


def _twist_tables(P: SkewPbwPresentation) -> dict:
    tables = {}
    for i in range(P.n):
        tables[f"s{i + 1}"] = P.sigma_tables[i]
        tables[f"d{i + 1}"] = P.delta_tables[i]
    return tables


# ---------------------------------------------------------------------------
# exact deciders


def _twist_monoid(P: SkewPbwPresentation, kinds: str):
    """The closure monoid of the sigma ("s") then/or delta ("d") maps that
    `kinds` names, labelled s<i> and d<i>."""
    tables = {"s": P.sigma_tables, "d": P.delta_tables}
    return closure_monoid(P.ring, [t for k in kinds for t in tables[k]],
                          [f"{k}{i + 1}" for k in kinds for i in range(P.n)])


def _reduced_failure(action, zero):
    """The first (m, a, x), m then a in index order, with m * a = 0 and x a
    nonzero element of both the orbit mR and the image Ma, or None: the
    reduced condition on a module given by its action table action[m][a].
    x is m' * a for the first m' in index order that gives one."""
    images = [{} for _ in action[0]]  # per a: {nonzero m' * a: first m'}
    for mp, row in enumerate(action):
        for a, x in enumerate(row):
            if x != zero:
                images[a].setdefault(x, mp)
    for m, row in enumerate(action):
        orbit = frozenset(row)  # mR, closed by biadditivity
        for a, v in enumerate(row):
            if v != zero:
                continue
            image = images[a]
            hits = [(image[x], x) for x in orbit if x in image]
            if hits:
                return m, a, min(hits)[1]
    return None


def _twist_failure(action, zero, monoid, forward_only: bool):
    """The first (m, r, g, base), m then r in index order and g in monoid
    order, where base = (m * r = 0) and m * g(r) = 0 disagree, or None.
    forward_only looks only where m * r = 0: that g keeps annihilation."""
    for m, row in enumerate(action):
        for r, v in enumerate(row):
            base = v == zero
            if forward_only and not base:
                continue
            for g in monoid.elements:
                if (row[g.table[r]] == zero) != base:
                    return m, r, g, base
    return None


def is_reduced(M: RightModule) -> PropertyVerdict:
    """m a = 0 must force cyclic(m) and M a to meet only in 0."""
    found = _reduced_failure(M.action_table, M.zero)
    if found is None:
        return PropertyVerdict("reduced", HOLDS)
    m, a, x = found
    return PropertyVerdict("reduced", FAILS, {
        "m": M.name(m), "a": M.ring.name(a), "common": M.name(x)})


def is_sigma_compatible(M: RightModule, P: SkewPbwPresentation) -> PropertyVerdict:
    monoid = _twist_monoid(P, "s")
    found = _twist_failure(M.action_table, M.zero, monoid, False)
    if found is None:
        return PropertyVerdict("sigma_compatible", HOLDS)
    m, r, g, base = found
    return PropertyVerdict("sigma_compatible", FAILS, {
        "m": M.name(m), "r": P.ring.name(r), "map": monoid.describe(g),
        "direction": "forward" if base else "backward"})


def is_delta_compatible(M: RightModule, P: SkewPbwPresentation) -> PropertyVerdict:
    monoid = _twist_monoid(P, "d")
    found = _twist_failure(M.action_table, M.zero, monoid, True)
    if found is None:
        return PropertyVerdict("delta_compatible", HOLDS)
    m, r, g, _ = found
    return PropertyVerdict("delta_compatible", FAILS, {
        "m": M.name(m), "r": P.ring.name(r), "map": monoid.describe(g)})


def is_abelian(M: RightModule) -> PropertyVerdict:
    R = M.ring
    act_t = M.action_table
    for m in M.elements():
        row = act_t[m]
        for r in R.elements():
            for e in idempotents(R):
                if act_t[row[r]][e] != act_t[row[e]][r]:
                    witness = {"m": M.name(m), "r": R.name(r), "e": R.name(e)}
                    return PropertyVerdict("abelian", FAILS, witness)
    return PropertyVerdict("abelian", HOLDS)


def idempotent_stability(P: SkewPbwPresentation) -> PropertyVerdict:
    R = P.ring
    for e in idempotents(R):
        for i in range(P.n):
            if P.sigma_tables[i][e] != e:
                witness = {"e": R.name(e), "i": i + 1, "kind": "sigma"}
                return PropertyVerdict("idempotent_stability", FAILS, witness)
            if P.delta_tables[i][e] != R.zero:
                witness = {"e": R.name(e), "i": i + 1, "kind": "delta"}
                return PropertyVerdict("idempotent_stability", FAILS, witness)
    return PropertyVerdict("idempotent_stability", HOLDS)


# ---------------------------------------------------------------------------
# Baer family: one annihilator lattice per property, for M and for M<X>


def _first_outside(ctx: BoundedContext, max_space: int, family):
    """The first (key, frozenset row) of `family`, (key, row) pairs, whose
    row is no e A_{<=d}, or None.  The family is consumed after those sets
    are built, so its guards (lattice, submodule cap) refuse after theirs."""
    R = ctx.presentation.ring
    inv = {ctx.coeff_set(principal_right_ideal(R, e), max_space)
           for e in idempotents(R)}
    return next(((key, frozenset(row)) for key, row in family
                 if frozenset(row) not in inv), None)


def _meet_closure(seeds: dict, meet, limit: int | None = None) -> dict:
    """Close `seeds` (annihilator -> witness frozenset) under pairwise meets.

    Each round meets every pair of known annihilators in insertion order and
    records a new meet with the union of the two witnesses; rounds repeat
    until nothing new appears.  A round that would grow the lattice past a
    `limit` raises SearchSpaceTooLarge first.  Baer's 4096 never fires at
    degree 0: annihilators in R are additive subgroups, at most 2,825 for
    |R| <= 64 (those of (Z/2)^6).
    """
    cands = dict(seeds)
    while True:
        fresh = {}
        items = list(cands.items())
        for key1, w1 in items:
            for key2, w2 in items:
                key = meet(key1, key2)
                if key not in cands and key not in fresh:
                    fresh[key] = w1 | w2
        if not fresh:
            return cands
        if limit is not None and len(cands) + len(fresh) > limit:
            raise SearchSpaceTooLarge(len(cands) + len(fresh), limit,
                                      "bounded annihilator lattice")
        cands.update(fresh)


def _pp_family(ctx: BoundedContext, max_space: int):
    """Kernel rows {f : act(m, f) = 0}, keyed by m_idx."""
    return _first_outside(ctx, max_space, ctx.kernel(max_space).items())


def _pq_baer_family(ctx: BoundedContext, max_space: int):
    """`ann_am_rows` rows, the bounded ann(mA), keyed by m_idx."""
    return _first_outside(ctx, max_space, ctx.ann_am_rows(max_space).items())


def _quasi_baer_family(ctx: BoundedContext, max_space: int,
                       max_order: int = DEFAULT_MAX_SUBMODULE_ORDER):
    """The meet of the kernel rows over N^k, keyed by the submodule N."""
    kern = ctx.kernel(max_space)

    def family():
        for sub in all_submodules(ctx.module, max_order):
            yield sub, frozenset.intersection(*(
                frozenset(kern[ctx.m_index(vec)])
                for vec in product(sorted(sub.elements), repeat=ctx.k)))

    return _first_outside(ctx, max_space, family())


def _baer_family(ctx: BoundedContext, max_space: int):
    """The meet closure of the kernel rows (the whole annihilator lattice),
    keyed by the frozenset of m_idx whose rows meet in it."""
    kern = ctx.kernel(max_space)

    def family():
        seeds: dict = {}
        for m_idx in range(ctx.m_space):
            seeds.setdefault(frozenset(kern[m_idx]), frozenset({m_idx}))
        cands = _meet_closure(seeds, operator.and_, limit=4096)
        for s in sorted(cands, key=lambda x: (len(x), sorted(x))):
            yield cands[s], s

    return _first_outside(ctx, max_space, family())


def _exact_verdict(prop: str, M: RightModule, family, witness,
                   *args) -> PropertyVerdict:
    """family(ctx, budget, *args) on context(M, None, 0), where m_idx and
    f_idx are elements of M and R; the budget is its pair space, so no guard
    refuses.  Fails with witness(ctx, key) and the annihilator."""
    ctx = context(M, None, 0)
    found = family(ctx, ctx.pair_space, *args)
    if found is None:
        return PropertyVerdict(prop, HOLDS)
    return PropertyVerdict(prop, FAILS, {
        **witness(ctx, found[0]),
        "annihilator": [M.ring.name(r) for r in sorted(found[1])]})


def is_pp(M: RightModule) -> PropertyVerdict:
    return _exact_verdict("pp", M, _pp_family,
                          lambda ctx, m: {"m": M.name(m)})


def is_pq_baer(M: RightModule) -> PropertyVerdict:
    return _exact_verdict("pq_baer", M, _pq_baer_family,
                          lambda ctx, m: {"m": M.name(m)})


def is_quasi_baer(M: RightModule,
                  max_order: int = DEFAULT_MAX_SUBMODULE_ORDER) -> PropertyVerdict:
    return _exact_verdict("quasi_baer", M, _quasi_baer_family,
                          _submodule_json, max_order)


def is_baer(M: RightModule) -> PropertyVerdict:
    return _exact_verdict(
        "baer", M, _baer_family,
        lambda ctx, subset: {"subset": sorted(M.name(x) for x in subset)})


def _submodule_json(ctx: BoundedContext, sub) -> dict:
    return {"submodule": sorted(ctx.module.name(x) for x in sub.elements)}


# ---------------------------------------------------------------------------
# bounded deciders


def _armendariz_scan(ctx: BoundedContext, prop: str, exact: bool,
                     max_space: int) -> PropertyVerdict:
    M = ctx.module
    R = ctx.presentation.ring
    kern = ctx.kernel(max_space)
    mz = M.zero
    for m_idx in range(ctx.m_space):
        m0 = ctx.mvec(m_idx)[0]
        if m0 == mz:
            continue
        row = M.action_table[m0]
        for f_idx in kern[m_idx]:
            for beta, b in ctx.fterms(f_idx):
                if row[b] != mz:
                    witness = {"m": ctx.m_poly(m_idx).to_json(M.name),
                               "f": ctx.f_poly(f_idx).to_json(R.name),
                               "exp": list(beta), "m0": M.name(m0),
                               "coeff": R.name(b)}
                    return PropertyVerdict(prop, FAILS, witness,
                                           bound=ctx.degree)
    status = HOLDS if exact else HOLDS_UP_TO_BOUND
    return PropertyVerdict(prop, status, bound=ctx.degree)


def is_skew_armendariz_bounded(M: RightModule, P: SkewPbwPresentation,
                               d: int = DEFAULT_DEGREE,
                               max_space: int = DEFAULT_MAX_SPACE) -> PropertyVerdict:
    """act(m, f) = 0 must force m's constant coefficient to kill every
    coefficient of f; enumerated over supports of degree <= d."""
    return _armendariz_scan(context(M, P, d), "skew_armendariz", False,
                            max_space)


def is_linearly_skew_armendariz(M: RightModule, P: SkewPbwPresentation,
                                max_space: int = DEFAULT_MAX_SPACE) -> PropertyVerdict:
    """The same condition restricted to the definition's exact linear shape
    m0 + m1 x1 + ... + mn xn; this quantifier is finite, so the verdict is
    exact rather than bounded."""
    return _armendariz_scan(context(M, P, 1), "linearly_skew_armendariz",
                            True, max_space)


def is_skew_quasi_armendariz_bounded(M: RightModule, P: SkewPbwPresentation,
                                     d: int = DEFAULT_DEGREE,
                                     max_space: int = DEFAULT_MAX_SPACE) -> PropertyVerdict:
    """m·A·f = 0 (middle factors r x^gamma, |gamma| <= d) must force every
    mixed product m_i x^alpha_i · r x^t · b_j x^beta_j to vanish."""
    ctx = context(M, P, d)
    R = P.ring
    rows = ctx.ann_am_rows(max_space)
    for m_idx in range(ctx.m_space):
        mts = ctx.mterms(m_idx)
        if not mts:
            continue
        for f_idx in rows[m_idx]:
            fts = ctx.fterms(f_idx)
            for alpha_i, mi in mts:
                for beta_j, bj in fts:
                    hit = ctx.mixed_failure(alpha_i, mi, beta_j, bj)
                    if hit is not None:
                        r, t = hit
                        witness = {"m": ctx.m_poly(m_idx).to_json(M.name),
                                   "f": ctx.f_poly(f_idx).to_json(R.name),
                                   "i_exp": list(alpha_i),
                                   "j_exp": list(beta_j),
                                   "r": R.name(r), "t": list(t)}
                        return PropertyVerdict("skew_quasi_armendariz", FAILS,
                                               witness, bound=ctx.degree)
    return PropertyVerdict("skew_quasi_armendariz", HOLDS_UP_TO_BOUND,
                           bound=ctx.degree)


# Every property the CLI can check, in the order it lists them, mapped to a
# decider taking (M, P, degree, max_space).  The lambdas look the deciders up
# at call time, so a rebound module attribute is what runs.
DECIDERS = {
    "reduced": lambda M, P, d, space: is_reduced(M),
    "sigma_compatible": lambda M, P, d, space: is_sigma_compatible(M, P),
    "delta_compatible": lambda M, P, d, space: is_delta_compatible(M, P),
    "abelian": lambda M, P, d, space: is_abelian(M),
    "idempotent_stability": lambda M, P, d, space: idempotent_stability(P),
    "pp": lambda M, P, d, space: is_pp(M),
    "pq_baer": lambda M, P, d, space: is_pq_baer(M),
    "quasi_baer": lambda M, P, d, space: is_quasi_baer(M),
    "baer": lambda M, P, d, space: is_baer(M),
    "skew_armendariz":
        lambda M, P, d, space: is_skew_armendariz_bounded(M, P, d, space),
    "linearly_skew_armendariz":
        lambda M, P, d, space: is_linearly_skew_armendariz(M, P, space),
    "skew_quasi_armendariz":
        lambda M, P, d, space: is_skew_quasi_armendariz_bounded(M, P, d, space),
}


def torsion_witness(mp: ModulePoly, h: SkewPoly) -> int:
    """For a bounded torsion pair (act(mp, h) = 0, h != 0) over a reduced
    compatible module, return the constant annihilator lc(h).

    The guarantee act_scalar(mp, lc(h)) = 0 is re-verified before returning;
    its failure is an engine bug, not a property of the instance.
    """
    M, P = mp.module, mp.presentation
    if h.is_zero():
        raise ValidationError("hypothesis_not_met", None,
                              "torsion witness needs a non-zero polynomial")
    for verdict in (is_reduced(M), is_sigma_compatible(M, P),
                    is_delta_compatible(M, P)):
        if not verdict.holds:
            raise ValidationError(
                "hypothesis_not_met", verdict.witness,
                f"module is not {verdict.prop}, torsion transfer unavailable")
    if not act(mp, h).is_zero():
        raise ValidationError("hypothesis_not_met", None,
                              "act(m, h) != 0: not a torsion pair")
    c = h.lc()
    if not act_scalar(mp, c).is_zero():
        raise EngineInvariantError(
            "torsion witness verification failed: act_scalar(m, lc(h)) != 0")
    return c


# ---------------------------------------------------------------------------
# bounded M<X>-side deciders used by the transfer reports


def _bounded_side(ctx: BoundedContext, max_space: int, family, witness):
    """A transfer report's M<X> side: (False, witness(ctx, key)) at the
    first failure of family(ctx, max_space), else (True, None)."""
    found = family(ctx, max_space)
    return (True, None) if found is None else (False, witness(ctx, found[0]))


def _m_json(ctx: BoundedContext, m_idx: int) -> dict:
    return {"m": ctx.m_poly(m_idx).to_json(ctx.module.name)}


def _generators_json(ctx: BoundedContext, gens) -> dict:
    """The bounded Baer witness: every generator, in index order."""
    return {"subset": [ctx.m_poly(i).to_json(ctx.module.name)
                       for i in sorted(gens)]}


# ---------------------------------------------------------------------------
# conclusion evaluators for the individual theorems


def _map_annihilation(M: RightModule, P: SkewPbwPresentation):
    """Annihilation is stable under the twist maps: closure images of an
    annihilated element stay annihilated, products split, and the per-map
    annihilators agree (equality for sigma, inclusion for delta)."""
    R = P.ring
    mz = M.zero
    act_t = M.action_table
    mixed = _twist_monoid(P, "sd")
    dmon = _twist_monoid(P, "d")
    found = _twist_failure(act_t, mz, mixed, True)
    if found is not None:
        m, a, g, _ = found
        return False, {"part": "closure", "m": M.name(m), "a": R.name(a),
                       "map": mixed.describe(g)}
    for m in M.elements():
        row = act_t[m]
        for a in R.elements():
            ma = row[a]
            for b in R.elements():
                if row[R.mul(a, b)] != mz:
                    continue
                for g in dmon.elements:
                    if act_t[ma][g.table[b]] != mz:
                        return False, {"part": "product-right", "m": M.name(m),
                                       "a": R.name(a), "b": R.name(b),
                                       "map": dmon.describe(g)}
                    if act_t[row[g.table[a]]][b] != mz:
                        return False, {"part": "product-left", "m": M.name(m),
                                       "a": R.name(a), "b": R.name(b),
                                       "map": dmon.describe(g)}
    for m in M.elements():
        row = act_t[m]
        for a in R.elements():
            base = frozenset(r for r in R.elements() if act_t[row[a]][r] == mz)
            for i in range(P.n):
                sig = frozenset(r for r in R.elements()
                                if act_t[row[P.sigma_tables[i][a]]][r] == mz)
                if sig != base:
                    return False, {"part": "annihilator-sigma", "m": M.name(m),
                                   "a": R.name(a), "i": i + 1}
                dla = row[P.delta_tables[i][a]]
                if any(act_t[dla][r] != mz for r in base):
                    return False, {"part": "annihilator-delta", "m": M.name(m),
                                   "a": R.name(a), "i": i + 1}
    return True, None


def _coefficientwise_scalar(ctx: BoundedContext, max_space: int):
    """act_scalar(m, r) = 0 iff every coefficient of m annihilates r.

    For each r this says H_r = S_r, with H_r = {m : m * r = 0} and
    S_r = ann_M(r)^k.  Two `count_zero_sums` counts over
    `ctx.scalar_tables()` decide it: |H_r| over all of M per slot and
    |H_r & S_r| over ann_M(r) per slot; H_r = S_r exactly when both equal
    |ann_M(r)|^k.  Only when some r fails does `_coefficientwise_scalar_scan`
    act on every (m, r), to return the first witness in index order.  The
    guard measures the m_space * |R| pairs decided, as that scan does.
    """
    M = ctx.module
    ctx.guard(ctx.m_space * ctx.ring_size, max_space,
              "module-poly/scalar space")
    for r, phi in enumerate(ctx.scalar_tables()):
        ann = [v for v in M.elements() if M.action_table[v][r] == M.zero]
        kept = [[row[v] for v in ann] for row in phi]
        if not (count_zero_sums(phi, ctx.vectors)
                == count_zero_sums(kept, ctx.vectors)
                == len(ann) ** ctx.k):
            return _coefficientwise_scalar_scan(ctx)
    return True, None


def _coefficientwise_scalar_scan(ctx: BoundedContext):
    """The first (m, r) in index order where m * r = 0 and "every
    coefficient of m kills r" disagree; (True, None) if none does."""
    M = ctx.module
    R = ctx.presentation.ring
    mz = M.zero
    const = (ctx.basis[0],)
    for m_idx in range(ctx.m_space):
        mts = ctx.mterms(m_idx)
        for r in R.elements():
            whole = ctx.act_is_zero(mts, ((const[0], r),))
            slotwise = all(M.action_table[mc][r] == mz for _, mc in mts)
            if whole != slotwise:
                return False, {"m": ctx.m_poly(m_idx).to_json(M.name),
                               "r": R.name(r),
                               "direction": "whole" if whole else "slotwise"}
    return True, None


def _bounded_sigma_reduced(ctx: BoundedContext, max_space: int):
    """Reduced + sigma-compatible for the degree <= d slice of M<X> viewed
    as a module over R via act_scalar: the scans of `is_sigma_compatible`
    and `is_reduced`, run on `ctx.scalar_action()`.

    The guard still measures m_space^2 * |R|, the square the reduced check
    once walked, not the m_space * |R| table read here: a guard on the work
    would decide reports that are skipped today, changing reports and the
    cost of the frontier cases, so it is left for a change of its own.
    """
    M = ctx.module
    R = ctx.presentation.ring
    ctx.guard(ctx.m_space * ctx.m_space * R.order, max_space,
              "bounded module-poly square")
    monoid = _twist_monoid(ctx.presentation, "s")
    action, zero = ctx.scalar_action(), ctx.constant_m_index(M.zero)
    found = _twist_failure(action, zero, monoid, False)
    if found is not None:
        m, r, g, _ = found
        return False, {"side": "sigma_compatible",
                       "m": ctx.m_poly(m).to_json(M.name),
                       "r": R.name(r), "map": monoid.describe(g)}
    found = _reduced_failure(action, zero)
    if found is not None:
        m, a, x = found
        return False, {"side": "reduced", "m": ctx.m_poly(m).to_json(M.name),
                       "a": R.name(a), "common": ctx.m_poly(x).to_json(M.name)}
    return True, None


def _annihilator_correspondence(ctx: BoundedContext, max_space: int):
    """Bounded form of the extension correspondence: the annihilator of any
    bounded module polynomial (or constant subset) in A_{<=d} is exactly the
    coefficientwise annihilator extended over the monomial basis."""
    M = ctx.module
    R = ctx.presentation.ring
    kern = ctx.kernel(max_space)
    for m_idx in range(ctx.m_space):
        coeffs = frozenset(c for _, c in ctx.mterms(m_idx))
        ideal = ann_in_r(M, coeffs)
        pred = ctx.coeff_set(ideal.elements, max_space)
        row = frozenset(kern[m_idx])
        if row != pred:
            return False, {"m": ctx.m_poly(m_idx).to_json(M.name),
                           "f": ctx.f_poly(min(row ^ pred)).to_json(R.name),
                           "side": "single"}
    seeds: dict = {}
    for u in M.elements():
        ideal = frozenset(ann_in_r(M, (u,)).elements)
        row = frozenset(kern[ctx.constant_m_index(u)])
        seeds.setdefault((ideal, row), frozenset({u}))
    cands = _meet_closure(seeds, lambda a, b: (a[0] & b[0], a[1] & b[1]))
    for (ideal, row), subset in cands.items():
        if ctx.coeff_set(ideal, max_space) != row:
            return False, {"subset": sorted(M.name(x) for x in subset),
                           "side": "subset"}
    return True, None


def _torsion_constant(ctx: BoundedContext, max_space: int):
    """Every bounded torsion pair act(m, f) = 0 with f != 0 already has the
    constant annihilator lc(f)."""
    M = ctx.module
    R = ctx.presentation.ring
    kern = ctx.kernel(max_space)
    action, zero = ctx.scalar_action(), ctx.constant_m_index(M.zero)
    for m_idx in range(ctx.m_space):
        if m_idx == zero:
            continue
        for f_idx in kern[m_idx]:
            fts = ctx.fterms(f_idx)
            if not fts:
                continue
            lead = fts[-1][1]
            if action[m_idx][lead] != zero:
                return False, {"m": ctx.m_poly(m_idx).to_json(M.name),
                               "f": ctx.f_poly(f_idx).to_json(R.name),
                               "c": R.name(lead)}
    return True, None


def _quasi_commutative_annihilator(ctx: BoundedContext, max_space: int,
                                   quasi_verdict):
    """Structure of bounded ann(mA): generated by its constants exactly when
    all mixed products m_i R a_j vanish; plus the nonzero-constant guarantee
    for quasi-Armendariz modules."""
    M = ctx.module
    R = ctx.presentation.ring
    mz = M.zero
    rows = ctx.ann_am_rows(max_space)
    a_all, b_all = True, True
    a_wit = b_wit = None
    constant_gap = None
    for m_idx in range(ctx.m_space):
        rowset = frozenset(rows[m_idx])
        consts = frozenset(r for r in R.elements()
                           if ctx.constant_f_index(r) in rowset)
        if a_all and rowset != ctx.coeff_set(consts, max_space):
            a_all = False
            a_wit = {"part": "constants-generate",
                     "m": ctx.m_poly(m_idx).to_json(M.name)}
        mts = ctx.mterms(m_idx)
        if b_all and mts:
            for f_idx in rows[m_idx]:
                for _, mi in mts:
                    rowm = M.action_table[mi]
                    for _, aj in ctx.fterms(f_idx):
                        for r in R.elements():
                            if M.action_table[rowm[r]][aj] != mz:
                                b_all = False
                                b_wit = {"part": "mixed-products",
                                         "m": ctx.m_poly(m_idx).to_json(M.name),
                                         "f": ctx.f_poly(f_idx).to_json(R.name),
                                         "r": R.name(r)}
                                break
                        if not b_all:
                            break
                    if not b_all:
                        break
                if not b_all:
                    break
        if constant_gap is None and len(rowset) > 1 and consts == {R.zero}:
            constant_gap = {"part": "nonzero-constant",
                            "m": ctx.m_poly(m_idx).to_json(M.name)}
    if a_all != b_all:
        return False, (a_wit or b_wit)
    if quasi_verdict is None:
        return None, None
    if quasi_verdict.holds and constant_gap is not None:
        return False, constant_gap
    return True, None


# ---------------------------------------------------------------------------
# report assembly


def _state(v) -> str:
    if v is None:
        return SKIPPED
    if isinstance(v, PropertyVerdict):
        return v.status
    if isinstance(v, bool):
        return HOLDS if v else FAILS
    return str(v)


def _implication(theorem: str, hyps, conclude, bound=None) -> TheoremReport:
    entries = tuple((name, _state(v)) for name, v in hyps)
    states = [s for _, s in entries]
    hyp_failed = any(s in (FAILS, "absent") for s in states)
    hyp_unknown = any(s == SKIPPED for s in states)
    try:
        ok, desc, witness = conclude()
    except (SearchSpaceTooLarge, TooLarge) as exc:
        ok, desc, witness = None, f"not evaluated ({exc})", None
    if hyp_failed:
        if ok is False:
            return TheoremReport(
                theorem, CONFIRMED, entries,
                desc + "; conclusion fails alongside the hypotheses",
                None, bound)
        return TheoremReport(theorem, HYPOTHESIS_NOT_MET, entries, desc,
                             None, bound)
    if hyp_unknown or ok is None:
        return TheoremReport(theorem, SKIPPED, entries, desc, None, bound)
    if ok:
        return TheoremReport(theorem, CONFIRMED, entries, desc, None, bound)
    return TheoremReport(theorem, VIOLATION, entries, desc, witness, bound)


def reduced_compatible_equivalence(M: RightModule,
                                   P: SkewPbwPresentation) -> TheoremReport:
    """The four elementwise annihilation conditions hold together exactly
    when the module is reduced and compatible; evaluated on both sides and
    compared, so the report is always confirmed or violation."""
    return _equivalence(M, P, is_reduced(M), is_sigma_compatible(M, P),
                        is_delta_compatible(M, P))


def _equivalence(M: RightModule, P: SkewPbwPresentation, red: PropertyVerdict,
                 sig: PropertyVerdict, dlt: PropertyVerdict) -> TheoremReport:
    """reduced_compatible_equivalence on the three verdicts already decided."""
    R = P.ring
    mz = M.zero
    act_t = M.action_table
    lhs = red.holds and sig.holds and dlt.holds

    def cond_a():
        for m in M.elements():
            row = act_t[m]
            for r in R.elements():
                if row[r] != mz:
                    continue
                for s in R.elements():
                    if act_t[act_t[m][s]][r] != mz:
                        return {"m": M.name(m), "r": R.name(r), "s": R.name(s)}
        return None

    def cond_d():
        for m in M.elements():
            row = act_t[m]
            for r in R.elements():
                if row[R.mul(r, r)] == mz and row[r] != mz:
                    return {"m": M.name(m), "r": R.name(r)}
        return None

    wa, wd = cond_a(), cond_d()
    rhs_parts = {"middle-factors": wa is None, "delta-closure": dlt.holds,
                 "sigma-equivalence": sig.holds, "squares": wd is None}
    rhs = all(rhs_parts.values())
    desc = (f"reduced+compatible {'holds' if lhs else 'fails'}; "
            f"elementwise conditions {'hold' if rhs else 'fail'}")
    if lhs == rhs:
        return TheoremReport("reduced_compatible_equivalence", CONFIRMED,
                             (), desc)
    witness = {"reduced": red.status, "sigma_compatible": sig.status,
               "delta_compatible": dlt.status,
               "parts": {k: ("holds" if v else "fails")
                         for k, v in rhs_parts.items()},
               "middle_factor_witness": wa, "square_witness": wd}
    return TheoremReport("reduced_compatible_equivalence", VIOLATION, (),
                         desc, witness)


def _verdict(v, name: str):
    """Conclusion: the decider verdict `v` itself (None when refused)."""
    def run():
        if v is None:
            return None, f"{name} not evaluated", None
        return v.holds, f"{name} {v.status}", v.witness
    return run


def _claim(desc: str, check, *args):
    """Conclusion: the claim `desc`, decided by check(*args) -> (ok,
    witness) with ok None when the check could not decide it."""
    def run():
        ok, wit = check(*args)
        if ok is None:
            return None, desc + " not fully evaluated", None
        return ok, desc if ok else desc + " refuted", wit
    return run


def _agreement(left, lname: str, rname: str, side, *args):
    """Conclusion: `left` (a verdict or a bool, None when refused) agrees
    with side(*args) -> (verdict or bool, witness).  The side runs only when
    `left` was evaluated; a disagreement carries the side's witness, else the
    left verdict's."""
    def run():
        if left is None:
            return None, f"{lname} not evaluated", None
        right, wit = side(*args)
        lv = left.holds if isinstance(left, PropertyVerdict) else left
        rv = right.holds if isinstance(right, PropertyVerdict) else right
        desc = (f"{lname} {'holds' if lv else 'fails'}; "
                f"{rname} {'holds' if rv else 'fails'}")
        if not wit and isinstance(left, PropertyVerdict):
            wit = left.witness
        return lv == rv, desc, wit
    return run


def _unless_refused(decide, *args):
    """decide(*args), or None when a search budget or size cap refuses it."""
    try:
        return decide(*args)
    except (SearchSpaceTooLarge, TooLarge):
        return None


def theorem_suite(M: RightModule, P: SkewPbwPresentation,
                  degree: int = DEFAULT_DEGREE, embedding=None,
                  max_space: int = DEFAULT_MAX_SPACE) -> list:
    """Run every transfer theorem as an executable check.

    `embedding` is the designated R -> M table witnessing that M contains
    the regular module (None when the instance supplies none); theorems
    whose statement needs it report hypothesis_not_met in its absence.
    """
    R = P.ring
    ctx = context(M, P, degree)

    red = is_reduced(M)
    sig = is_sigma_compatible(M, P)
    dlt = is_delta_compatible(M, P)
    abel = is_abelian(M)
    stab = idempotent_stability(P)
    pp = is_pp(M)
    pqb = is_pq_baer(M)
    baer = is_baer(M)
    qb = _unless_refused(is_quasi_baer, M)
    arm = _unless_refused(is_skew_armendariz_bounded, M, P, degree, max_space)
    lin = _unless_refused(is_linearly_skew_armendariz, M, P, max_space)
    quasi = _unless_refused(is_skew_quasi_armendariz_bounded, M, P, degree,
                            max_space)

    central = all(is_central(R, cv) for cv in P.c.values())
    emb = "present" if embedding is not None else "absent"
    compatible = [("sigma_compatible", sig), ("delta_compatible", dlt)]
    reduced_central = compatible + [
        ("reduced", red), ("presentation_bijective", P.bijective),
        ("constants_central", central)]
    armendariz_embeds = compatible + [
        ("skew_armendariz", arm), ("ring_embeds_in_module", emb)]
    linear_embeds = [("linearly_skew_armendariz", lin),
                     ("ring_embeds_in_module", emb)]

    # (theorem, hypotheses, conclusion, bound), in report order
    table = [
        ("compatible_map_annihilation", compatible,
         _claim("twist maps preserve annihilation", _map_annihilation, M, P),
         None),
        ("coefficientwise_scalar_annihilation", compatible,
         _claim("scalar annihilation is coefficientwise",
                _coefficientwise_scalar, ctx, max_space),
         degree),
        ("reduced_module_polynomial_transfer", compatible,
         _agreement(red.holds and sig.holds, "module sigma-reduced",
                    "bounded polynomial module sigma-reduced",
                    _bounded_sigma_reduced, ctx, max_space),
         degree),
        ("reduced_compatible_armendariz", reduced_central,
         _verdict(arm, "skew_armendariz"), degree),
        ("armendariz_annihilator_extension", compatible,
         _agreement(arm, "skew_armendariz", "annihilator correspondence",
                    _annihilator_correspondence, ctx, max_space),
         degree),
        ("linear_armendariz_idempotent_stability", linear_embeds,
         _verdict(stab, "idempotent_stability"), None),
        ("linear_armendariz_abelian", linear_embeds,
         _verdict(abel, "abelian"), None),
        ("armendariz_abelian",
         [("skew_armendariz", arm), ("ring_embeds_in_module", emb)],
         _verdict(abel, "abelian"), degree),
        ("reduced_pp_iff_pq_baer", [("reduced", red)],
         _agreement(pp, "is_pp", "is_pq_baer", lambda: (pqb, pqb.witness)),
         None),
        ("pp_polynomial_transfer", armendariz_embeds,
         _agreement(pp, "is_pp", "bounded polynomial-module pp",
                    _bounded_side, ctx, max_space, _pp_family, _m_json),
         degree),
        ("baer_polynomial_transfer", armendariz_embeds,
         _agreement(baer, "is_baer", "bounded polynomial-module baer",
                    _bounded_side, ctx, max_space, _baer_family,
                    _generators_json),
         degree),
        ("compatible_torsion_constant", reduced_central,
         _claim("torsion pairs admit a constant annihilator",
                _torsion_constant, ctx, max_space),
         degree),
        ("quasi_commutative_annihilator_structure",
         [("quasi_commutative", P.quasi_commutative),
          ("sigma_compatible", sig)],
         _claim("bounded ann(mA) is generated by its constants",
                _quasi_commutative_annihilator, ctx, max_space, quasi),
         degree),
        ("quasi_baer_polynomial_transfer", compatible,
         _agreement(qb, "is_quasi_baer",
                    "bounded polynomial-module quasi-baer",
                    _bounded_side, ctx, max_space, _quasi_baer_family,
                    _submodule_json),
         degree),
        ("pq_baer_polynomial_transfer", compatible,
         _agreement(pqb, "is_pq_baer", "bounded polynomial-module pq-baer",
                    _bounded_side, ctx, max_space, _pq_baer_family, _m_json),
         degree),
        ("quasi_baer_quasi_armendariz", compatible + [("quasi_baer", qb)],
         _verdict(quasi, "skew_quasi_armendariz"), degree),
    ]
    return [_equivalence(M, P, red, sig, dlt)] + [
        _implication(theorem, hyps, conclude, bound)
        for theorem, hyps, conclude, bound in table]


# ---------------------------------------------------------------------------
# witness replay


def replay(M: RightModule, P: SkewPbwPresentation, verdict: PropertyVerdict) -> bool:
    """Re-evaluate a Fails witness from its serialized form.

    Returns True when the witness still demonstrates the failure; a False
    return means the serialized report does not match the instance.
    """
    if verdict.status != FAILS or verdict.witness is None:
        raise ValidationError("bad_witness", None,
                              "only Fails verdicts carry a witness to replay")
    w = verdict.witness
    R = M.ring
    mz = M.zero
    act_t = M.action_table
    prop = verdict.prop
    if prop == "reduced":
        m = M.element_index(w["m"])
        a = R.element_index(w["a"])
        x = M.element_index(w["common"])
        if act_t[m][a] != mz or x == mz:
            return False
        in_cyclic = x in cyclic_submodule(M, m).elements
        in_image = any(act_t[mp][a] == x for mp in M.elements())
        return in_cyclic and in_image
    if prop in ("sigma_compatible", "delta_compatible"):
        m = M.element_index(w["m"])
        r = R.element_index(w["r"])
        tables = _twist_tables(P)
        img = _apply_map_word(tables, w["map"], r)
        base = act_t[m][r] == mz
        other = act_t[m][img] == mz
        if prop == "delta_compatible":
            return base and not other
        return base != other
    if prop == "abelian":
        m = M.element_index(w["m"])
        r = R.element_index(w["r"])
        e = R.element_index(w["e"])
        return act_t[act_t[m][r]][e] != act_t[act_t[m][e]][r]
    if prop == "idempotent_stability":
        e = R.element_index(w["e"])
        i = w["i"] - 1
        if w["kind"] == "sigma":
            return P.sigma_tables[i][e] != e
        return P.delta_tables[i][e] != R.zero
    if prop in ("skew_armendariz", "linearly_skew_armendariz"):
        mp = _mpoly_from_struct(M, P, w["m"])
        f = _poly_from_struct(P, w["f"])
        if not act(mp, f).is_zero():
            return False
        m0 = mp.constant_coefficient()
        b = f.coefficient(tuple(w["exp"]))
        return act_t[m0][b] != mz
    if prop == "skew_quasi_armendariz":
        mp = _mpoly_from_struct(M, P, w["m"])
        f = _poly_from_struct(P, w["f"])
        ctx = context(M, P, verdict.bound)
        for r, gamma in ctx.middle_factors():
            middle = P.monomial_poly(gamma, r)
            if not act(mp, middle * f).is_zero():
                return False
        alpha_i = tuple(w["i_exp"])
        beta_j = tuple(w["j_exp"])
        mi = mp.coefficient(alpha_i)
        bj = f.coefficient(beta_j)
        r = R.element_index(w["r"])
        t = tuple(w["t"])
        single = module_poly(M, P, [(alpha_i, mi)])
        mid = P.monomial_poly(t, r) * P.monomial_poly(beta_j, bj)
        return not act(single, mid).is_zero()
    if prop in ("pp", "pq_baer", "quasi_baer", "baer"):
        # ann(X) must not be eR, for the module subset X the witness names
        if prop in ("pp", "pq_baer"):
            m = M.element_index(w["m"])
            X = (m,) if prop == "pp" else cyclic_submodule(M, m).elements
        else:
            X = frozenset(M.element_index(x) for x in
                          w["submodule" if prop == "quasi_baer" else "subset"])
            if prop == "quasi_baer" and submodule_closure(M, X) != X:
                return False
        return idempotent_generator(R, ann_in_r(M, X).elements) is None
    raise ValidationError("bad_witness", prop,
                          f"no replay rule for property {prop!r}")

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
                       contrapositive information, or a bounded verdict
                       it reads (hypothesis, conclusion or agreement side)
                       holds only up to bound 0, a vacuous scan;
* violation          - hypotheses met, conclusion refuted.  On a validated,
                       consistency-certified instance this always means an
                       engine bug, never new mathematics;
* skipped_search_space - a bounded side exceeded the search budget.

`theorem_suite` holds the implications in one ordered table of (theorem,
hypotheses, conclusion, bound) rows.  A conclusion is `_equivalence` (the
first row) or built by `_verdict` (a decider verdict), `_claim` (an (ok,
witness) check of a fixed statement) or `_agreement` (a verdict compared
with a bounded side).
A decider that a budget or size cap refuses yields None; a conclusion that
needs it reads "<name> not evaluated", and its side is not run.  One that
is vacuous reads "<name> vacuous", and its side is not run either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from math import lcm

from .annihilator import ann_in_r, idempotent_generator, principal_right_ideal
from .bounded import DEFAULT_MAX_SPACE, BoundedContext, context, half_sums
from .errors import SearchSpaceTooLarge, TooLarge, ValidationError
from .finring import closure_monoid, idempotents, is_central
from .monomial import enumerate_upto
from .polymodule import (ModulePoly, RightModule, act, all_submodules,
                         cyclic_submodule, module_poly, submodule_closure)
from .skewpbw import SkewPbwPresentation, SkewPoly

HOLDS = "holds"
FAILS = "fails"
HOLDS_UP_TO_BOUND = "holds_up_to_bound"
# State of a bound-0 HOLDS_UP_TO_BOUND verdict: a scan of constants only.
VACUOUS = "vacuous"

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


def _twist_tables(P: SkewPbwPresentation, kinds: str) -> dict:
    """The sigma ("s") then/or delta ("d") tables, labelled <kind><i>."""
    return {f"{k}{i + 1}": t for k in kinds for i, t in enumerate(
        P.sigma_tables if k == "s" else P.delta_tables)}


# ---------------------------------------------------------------------------
# exact deciders


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


def _twist_failure(action, zero, P: SkewPbwPresentation, kinds: str,
                   forward_only: bool):
    """The first (m, r, label, base), m then r in index order and the map g
    in `closure_monoid` order over the `_twist_tables` maps of `kinds`, where
    base = (m * r = 0) and m * g(r) = 0 disagree, or None.  forward_only
    looks only where m * r = 0: that g keeps annihilation.  The identity,
    first in closure order, never disagrees, so it is skipped."""
    tables = _twist_tables(P, kinds)
    maps = closure_monoid(P.ring, tables.values(), tables)[1:]
    if not maps:
        return None
    for m, row in enumerate(action):
        for r, v in enumerate(row):
            base = v == zero
            if forward_only and not base:
                continue
            for label, g in maps:
                if (row[g[r]] == zero) != base:
                    return m, r, label, base
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
    found = _twist_failure(M.action_table, M.zero, P, "s", False)
    if found is None:
        return PropertyVerdict("sigma_compatible", HOLDS)
    m, r, g, base = found
    return PropertyVerdict("sigma_compatible", FAILS, {
        "m": M.name(m), "r": P.ring.name(r), "map": g,
        "direction": "forward" if base else "backward"})


def is_delta_compatible(M: RightModule, P: SkewPbwPresentation) -> PropertyVerdict:
    found = _twist_failure(M.action_table, M.zero, P, "d", True)
    if found is None:
        return PropertyVerdict("delta_compatible", HOLDS)
    m, r, g, _ = found
    return PropertyVerdict("delta_compatible", FAILS, {
        "m": M.name(m), "r": P.ring.name(r), "map": g})


def is_abelian(M: RightModule) -> PropertyVerdict:
    R = M.ring
    act_t = M.action_table
    idem = idempotents(R)
    for m in M.elements():
        row = act_t[m]
        for r in R.elements():
            for e in idem:
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
    """The first (key, row) of `family`, (key, frozenset row) pairs, whose
    row is no e A_{<=d}, or None.  The family is consumed after those sets
    are built, so its guards (lattice, submodule cap) refuse after theirs."""
    R = ctx.presentation.ring
    inv = {ctx.coeff_set(principal_right_ideal(R, e), max_space)
           for e in idempotents(R)}
    return next(((key, row) for key, row in family if row not in inv), None)


def _meet_closure(seeds: dict, limit: int) -> dict:
    """Close `seeds` (annihilator -> witness frozenset) under pairwise meets.

    Each round meets each pair i < j of known annihilators in insertion
    order (i with i is known, and (j, i) repeats (i, j)) and records a new
    meet with the union of the two witnesses; rounds repeat until nothing
    new appears.  A round that would pass `limit` raises SearchSpaceTooLarge
    first.  Baer's 4096 never fires at degree 0: annihilators in R are
    additive subgroups, at most 2,825 for |R| <= 64 (those of (Z/2)^6).
    """
    cands = dict(seeds)
    while True:
        fresh = {}
        for (key1, w1), (key2, w2) in combinations(cands.items(), 2):
            key = key1 & key2
            if key not in cands and key not in fresh:
                fresh[key] = w1 | w2
        if not fresh:
            return cands
        if len(cands) + len(fresh) > limit:
            raise SearchSpaceTooLarge(len(cands) + len(fresh), limit,
                                      "bounded annihilator lattice")
        cands.update(fresh)


def _pp_family(ctx: BoundedContext, max_space: int):
    """Kernel rows {f : act(m, f) = 0}, keyed by m_idx, at the orbit minima
    only: phi_lam maps each coeff_set(eR) onto itself (eR a right ideal,
    lam^beta a unit) and n * m has m's row, so the first m whose row is no
    e A_{<=d} is a minimum."""
    kern = ctx.kernel(max_space)
    return _first_outside(ctx, max_space, ((m, kern[m]) for m in ctx.minima()))


def _pq_baer_family(ctx: BoundedContext, max_space: int):
    """`ann_am_rows` rows, the bounded ann(mA), keyed by m_idx, at the orbit
    minima only, as the first m outside is one: phi_lam maps each
    coeff_set(eR) onto itself and n * m has m's row, as in `_pp_family`."""
    rows = ctx.ann_am_rows(max_space)
    return _first_outside(ctx, max_space, ((m, rows[m]) for m in ctx.minima()))


def _quasi_baer_family(ctx: BoundedContext, max_space: int):
    """The meet of the kernel rows over N^k, keyed by the submodule N, for
    the submodules of M up to DEFAULT_MAX_SUBMODULE_ORDER elements.  Each
    {m : act(m, f) = 0} is a subgroup of M^k, so the meet runs over the v
    x^alpha, v != 0, that span N^k, from the row of 0: the whole slice."""
    M, kern = ctx.module, ctx.kernel(max_space)
    whole = kern[ctx.m_term_index(ctx.basis[0], M.zero)]

    def family():
        for sub in all_submodules(M, DEFAULT_MAX_SUBMODULE_ORDER):
            yield sub, reduce(frozenset.__and__, (
                kern[ctx.m_term_index(alpha, v)] for alpha in ctx.basis
                for v in sorted(sub.elements) if v != M.zero), whole)

    return _first_outside(ctx, max_space, family())


def _baer_family(ctx: BoundedContext, max_space: int):
    """The meet closure of the kernel rows (the whole annihilator lattice),
    keyed by the frozenset of m_idx whose rows meet in it."""
    kern = ctx.kernel(max_space)

    def family():
        seeds: dict = {}
        for m_idx in range(ctx.m_space):
            seeds.setdefault(kern[m_idx], frozenset({m_idx}))
        cands = _meet_closure(seeds, 4096)
        for s in sorted(cands, key=lambda x: (len(x), sorted(x))):
            yield cands[s], s

    return _first_outside(ctx, max_space, family())


def _exact_verdict(prop: str, M: RightModule, family, witness) -> PropertyVerdict:
    """family(ctx, budget) on context(M, None, 0), where m_idx and f_idx
    are elements of M and R; the budget is its pair space, so no guard
    refuses.  Fails with witness(ctx, key) and the annihilator."""
    ctx = context(M, None, 0)
    found = family(ctx, ctx.pair_space)
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


def is_quasi_baer(M: RightModule) -> PropertyVerdict:
    return _exact_verdict("quasi_baer", M, _quasi_baer_family, _submodule_json)


def is_baer(M: RightModule) -> PropertyVerdict:
    return _exact_verdict(
        "baer", M, _baer_family,
        lambda ctx, subset: {"subset": sorted(M.name(x) for x in subset)})


def _submodule_json(ctx: BoundedContext, sub) -> dict:
    return {"submodule": sorted(ctx.module.name(x) for x in sub.elements)}


# ---------------------------------------------------------------------------
# bounded deciders


def _row_failure(ctx: BoundedContext, rows: dict, key, allowed,
                 max_space: int, exact: bool = False):
    """(m_idx, least f) at the first orbit minimum m (`orbit_rep`), in index
    order, whose row is not inside coeff_set(allowed(key(m))), or not equal
    to it when `exact`; None if there is none.  An m with key(m) None is
    skipped, and each distinct key's set is built once.

    Visiting the minima only rests on two premises: rows[g * m] =
    phi_lam(rows[m]) for g = (n, lam) in G (`orbit_rep`), as `kernel()` and
    `ann_am_rows()` give, and a G-invariant condition.  Then the first
    failing m is a minimum, with the witness a scan of every m would find.
    Invariance: Armendariz, m0 is in the constant slot, which lam^0 = 1
    fixes; correspondence and mixed products, ann_R of a coefficient set is
    kept by n and central units; constants, phi_lam fixes them;
    quasi-Armendariz, term by term; torsion, lc(phi_lam f) is lc(f) times
    a unit; ann(mA), phi_lam maps the middles' span onto itself; pp and
    pq-Baer, phi_lam maps each coeff_set(eR) onto itself."""
    sets = {}   # key -> coeff_set(allowed(key))
    for m_idx in ctx.minima():
        k = key(m_idx)
        if k is None:
            continue
        if k not in sets:
            sets[k] = ctx.coeff_set(allowed(k), max_space)
        row, target = rows[m_idx], sets[k]
        if (row != target) if exact else not (row <= target):
            return m_idx, min(row ^ target if exact else row - target)
    return None


def _armendariz_scan(ctx: BoundedContext, prop: str, exact: bool,
                     max_space: int) -> PropertyVerdict:
    """Each kernel row must lie in coeff_set(ann_R(m0)), m0 the constant
    coefficient of m, nonzero: `_row_failure` keyed by m0, which g = (n,
    lam) sends to n * m0 (lam^0 = 1), and ann_R(n * m0) = ann_R(m0).  The
    witness is the least f outside it and its first term
    b with m0 * b != 0."""
    M = ctx.module
    R = ctx.presentation.ring
    stride = ctx.m_space // ctx.mod_size   # the m_idx with one m0
    keys = [None if m0 == M.zero else m0 for m0 in M.elements()]
    found = _row_failure(
        ctx, ctx.kernel(max_space), lambda m_idx: keys[m_idx // stride],
        lambda m0: [b for b in R.elements() if M.action_table[m0][b] == M.zero],
        max_space)
    if found is None:
        status = HOLDS if exact else HOLDS_UP_TO_BOUND
        return PropertyVerdict(prop, status, bound=ctx.degree)
    m_idx, f_idx = found
    m0 = m_idx // stride
    beta, b = next((beta, b) for beta, b in ctx.fterms(f_idx)
                   if M.action_table[m0][b] != M.zero)
    witness = {"m": ctx.m_poly(m_idx).to_json(M.name),
               "f": ctx.f_poly(f_idx).to_json(R.name),
               "exp": list(beta), "m0": M.name(m0), "coeff": R.name(b)}
    return PropertyVerdict(prop, FAILS, witness, bound=ctx.degree)


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


def _quasi_armendariz_failure(ctx: BoundedContext, rows: dict, max_space: int):
    """The witness of the first m, the least f in rows[m], then the first
    term of m and of f with a mixed product m_i x^alpha_i · r x^t · b_j
    x^beta_j != 0, or None: b_j x^beta_j outside the `ann_am_rows` row of
    m_i x^alpha_i (see there).  Only that pair is acted on, for its first r,
    then t in basis order.  Only orbit minima are visited, as in
    `_row_failure`: g = (n, lam) maps the terms of m and f and their mixed
    products term by term, injectively (`bounded` module docstring)."""
    M, P, R = ctx.module, ctx.presentation, ctx.presentation.ring
    ann = ctx.ann_am_rows(max_space)
    vanish = {}   # term of m -> the terms b x^beta in its ann(mA) row
    for m_idx in ctx.minima():
        mts = ctx.mterms(m_idx)
        failing = []   # (f_idx, its first failing term pair)
        for f_idx in rows[m_idx] if mts else ():
            fts = ctx.fterms(f_idx)
            for term in mts if fts else ():
                if term not in vanish:
                    row = ann[ctx.m_term_index(*term)]
                    vanish[term] = {
                        g for g in product(ctx.basis, R.elements())
                        if ctx.f_term_index(*g) in row}
                bad = [g for g in fts if g not in vanish[term]]
                if bad:
                    failing.append((f_idx, term, bad[0]))
                    break
        if failing:
            f_idx, term, (beta, b) = min(failing)
            single = module_poly(M, P, [term])
            r, t = next((r, t) for r, t in product(R.elements(), ctx.basis)
                        if not act(single, P.monomial_poly(t, r)
                                   * P.monomial_poly(beta, b)).is_zero())
            return {"m": ctx.m_poly(m_idx).to_json(M.name),
                    "f": ctx.f_poly(f_idx).to_json(R.name),
                    "i_exp": list(term[0]), "j_exp": list(beta),
                    "r": R.name(r), "t": list(t)}
    return None


def is_skew_quasi_armendariz_bounded(M: RightModule, P: SkewPbwPresentation,
                                     d: int = DEFAULT_DEGREE,
                                     max_space: int = DEFAULT_MAX_SPACE) -> PropertyVerdict:
    """m·A·f = 0 (middles r x^gamma, |gamma| <= d) must force each mixed
    product m_i x^alpha_i · r x^t · b_j x^beta_j to 0: single-term lookups."""
    ctx = context(M, P, d)
    wit = _quasi_armendariz_failure(ctx, ctx.ann_am_rows(max_space), max_space)
    return PropertyVerdict("skew_quasi_armendariz",
                           FAILS if wit else HOLDS_UP_TO_BOUND, wit,
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
    """Annihilation is stable under the twist maps, decided by the closure
    scan C alone: m a = 0 must force m g(a) = 0 for every g in the monoid
    of the sigma_i and delta_i.  C holds exactly when sigma- and
    delta-compatibility both hold (each generator forward, then words), so
    on a validated instance this conclusion fails only with its hypotheses.

    C implies the product and per-map annihilator statements, so they are
    not scanned:
    (i) sigma_i is injective on a finite ring, so a permutation of some
        order k; m sigma_i(a) = 0 gives m a = m sigma_i^k(a) = 0 by C with
        sigma_i^(k-1).
    (ii) m(ab) = 0 gives (ma) g(b) = 0 for g in the delta monoid, by C at
        ma, as (ma)b = m(ab) = 0.
    (iii) m(ab) = 0 gives (m delta_i(a)) b = 0: C at ma gives
        (ma) delta_i(b) = 0, then C at m gives m sigma_i(a) sigma_i(delta_i
        (b)) = 0, so (m sigma_i(a)) delta_i(b) = 0 by (i).  C also gives
        m delta_i(ab) = 0, and delta_i(ab) = sigma_i(a) delta_i(b) +
        delta_i(a) b.  Induct on delta words.
    (iv) (ma) r = 0 iff (m sigma_i(a)) sigma_i(r) = 0 (C and (i)) iff
        (m sigma_i(a)) r = 0 ((i) at m sigma_i(a)).
    (v) (ma) r = 0 gives (m delta_i(a)) r = 0: (iii) with b = r."""
    found = _twist_failure(M.action_table, M.zero, P, "sd", True)
    if found is None:
        return True, None
    m, a, g, _ = found
    return False, {"part": "closure", "m": M.name(m), "a": P.ring.name(a),
                   "map": g}


def _coefficientwise_scalar(ctx: BoundedContext, max_space: int):
    """act_scalar(m, r) = 0 iff every coefficient of m annihilates r.

    For each r this says H_r = S_r, with H_r = {m : m * r = 0} and
    S_r = ann_M(r)^k, decided by `_scalar_kernel_is_slotwise` from the
    tables of `ctx.scalar_tables()` in time polynomial in k and |M|.  Only
    when some r fails does `_coefficientwise_scalar_scan` test every (m, r),
    to return the first witness in index order.  The guard measures the
    m_space * |R| pairs decided, as that scan does.
    """
    ctx.guard(ctx.m_space * ctx.ring_size, max_space,
              "module-poly/scalar space")
    for r, phi in enumerate(ctx.scalar_tables()):
        if not _scalar_kernel_is_slotwise(ctx, r, phi):
            return _coefficientwise_scalar_scan(ctx)
    return True, None


def _scalar_kernel_is_slotwise(ctx: BoundedContext, r: int, phi) -> bool:
    """H_r = S_r, for H_r = {m in M^k : m * r = 0}, S_r = ann_M(r)^k and
    phi = `ctx.scalar_tables()`[r], by a rank over F_p for each prime p
    dividing the exponent of (M, +).

    m -> m * r is additive, so H_r and S_r are subgroups of M^k.  S_r is
    spanned by the single-slot vectors v x^basis[s], v in ann_M(r), so S_r
    <= H_r exactly when each maps to the packed 0.  Then take h in H_r
    outside S_r: an integer multiple of h has prime order p modulo S_r, so
    it lies in B_p^k outside S_r, B_p = {v : p * v in ann_M(r)}.  B_p^k /
    S_r is an F_p-space with basis the b x^basis[s], b over an F_p-basis of
    B_p / ann_M(r) chosen greedily, and m -> m * r maps it F_p-linearly
    into the p-torsion of M^k.  So H_r = S_r exactly when, for every p,
    those k * e images are independent over F_p, as `vecs.independent`
    decides (Annin, Comm. Algebra 30, 2002, for the statement; Storjohann
    & Mulders, ESA 1998, for linear algebra over the cyclic factors)."""
    M, vecs = ctx.module, ctx.vectors
    add, act, zero = M.add_table, M.action_table, M.zero
    ann = {v for v in M.elements() if act[v][r] == zero}
    if any(row[v] for row in phi for v in ann):
        return False
    exponent = lcm(*vecs.orders)
    for p in (p for p in range(2, exponent + 1)
              if exponent % p == 0 and all(p % q for q in range(2, p))):
        basis, span = [], ann
        for v in M.elements():
            mults = [zero]   # c * v for c < p
            for _ in range(p - 1):
                mults.append(add[mults[-1]][v])
            if v not in span and add[mults[-1]][v] in ann:
                basis.append(v)
                span = {add[x][y] for x in span for y in mults}
        if not vecs.independent((row[b] for row in phi for b in basis), p):
            return False
    return True


def _coefficientwise_scalar_scan(ctx: BoundedContext):
    """The first (m, r) in index order where m * r = 0 and "every
    coefficient of m kills r" disagree; (True, None) if none does.  m * r
    is the sum of phi[r][s][m_s] over m's digits (`ctx.scalar_tables()`)."""
    M, R, slot = ctx.module, ctx.presentation.ring, ctx.slot
    add, tables = ctx.vectors.add, ctx.scalar_tables()
    for m_idx in range(ctx.m_space):
        mts = ctx.mterms(m_idx)
        for r, phi in enumerate(tables):
            whole = reduce(add, [phi[slot[g]][v] for g, v in mts], 0) == 0
            slotwise = all(M.action_table[v][r] == M.zero for _, v in mts)
            if whole != slotwise:
                return False, {"m": ctx.m_poly(m_idx).to_json(M.name),
                               "r": R.name(r),
                               "direction": "whole" if whole else "slotwise"}
    return True, None


def _bounded_sigma_reduced(ctx: BoundedContext, max_space: int):
    """Reduced + sigma-compatible for the degree <= d slice of M<X> viewed
    as a module over R via act_scalar: the scans of `is_sigma_compatible`
    and `is_reduced`, run on the packed m * r of `ctx.scalar_tables()`, 0
    the zero: the code is one-to-one and both scans only compare entries,
    so only the reduced witness's common value is decoded to an index.

    The guard still measures m_space^2 * |R|, the square the reduced check
    once walked, not the m_space * |R| table read here: a guard on the work
    would decide reports that are skipped today, changing reports and the
    cost of the frontier cases, so it is left for a change of its own.
    """
    M = ctx.module
    R = ctx.presentation.ring
    ctx.guard(ctx.m_space * ctx.m_space * R.order, max_space,
              "bounded module-poly square")
    vecs = ctx.vectors
    action = list(zip(*[half_sums(phi, vecs) for phi in ctx.scalar_tables()]))
    found = _twist_failure(action, 0, ctx.presentation, "s", False)
    if found is not None:
        m, r, g, _ = found
        return False, {"side": "sigma_compatible",
                       "m": ctx.m_poly(m).to_json(M.name),
                       "r": R.name(r), "map": g}
    found = _reduced_failure(action, 0)
    if found is not None:
        m, a, x = found
        x, w = x.to_bytes(vecs.nbytes, "big"), vecs.width
        x = ctx.m_index(vecs.code.index(x[i:i + w]) for i in range(0, len(x), w))
        return False, {"side": "reduced", "m": ctx.m_poly(m).to_json(M.name),
                       "a": R.name(a), "common": ctx.m_poly(x).to_json(M.name)}
    return True, None


def _annihilator_correspondence(ctx: BoundedContext, max_space: int):
    """Bounded form of the extension correspondence: the annihilator of any
    bounded module polynomial in A_{<=d} is exactly the coefficientwise
    annihilator extended over the monomial basis.  `_row_failure` keyed by
    the coefficient set C of m compares each kernel row with the coeff_set
    of ann_R(C), which scaling each c in C by n and a central unit keeps,
    and which phi_lam fixes.  Constant subsets follow, as
    coeff_set(I & J) = coeff_set(I) & coeff_set(J)."""
    M = ctx.module
    found = _row_failure(
        ctx, ctx.kernel(max_space),
        lambda m_idx: frozenset(c for _, c in ctx.mterms(m_idx)),
        lambda C: ann_in_r(M, C).elements, max_space, exact=True)
    if found is None:
        return True, None
    m_idx, f_idx = found
    return False, {"m": ctx.m_poly(m_idx).to_json(M.name),
                   "f": ctx.f_poly(f_idx).to_json(ctx.presentation.ring.name),
                   "side": "single"}


def _torsion_constant(ctx: BoundedContext, max_space: int):
    """Every bounded torsion pair act(m, f) = 0 with f != 0 already has the
    constant annihilator lc(f), read off f's terms (decoded once per
    context): m * lc(f) = 0 iff the constant lc(f) is in m's kernel row.
    The witness is the first failing m and its least failing f.  Only orbit
    minima are visited: lc(phi_lam f) = lc(f) * u for a central unit u, and
    (n * phi_lam(m)) * (c * u) = n * phi_lam(m * c) * u is 0 iff m * c is."""
    M = ctx.module
    R = ctx.presentation.ring
    kern = ctx.kernel(max_space)
    const = [ctx.f_term_index(ctx.basis[0], c) for c in R.elements()]
    zero = ctx.m_term_index(ctx.basis[0], M.zero)
    for m_idx in (m for m in ctx.minima() if m != zero):
        row, failing = kern[m_idx], []   # failing: (f_idx, lc(f))
        for f_idx in row:
            fts = ctx.fterms(f_idx)
            if fts and const[fts[-1][1]] not in row:
                failing.append((f_idx, fts[-1][1]))
        if failing:
            f_idx, lead = min(failing)
            return False, {"m": ctx.m_poly(m_idx).to_json(M.name),
                           "f": ctx.f_poly(f_idx).to_json(R.name),
                           "c": R.name(lead)}
    return True, None


def _mixed_annihilator(M: RightModule, coeffs) -> frozenset:
    """good(C) = {a : (c * r) * a = 0 for every c in C and r in R}: every
    mixed product m_i r a_j of (m, f) vanishes exactly when f's coefficients
    lie in good(C), C the coefficients of m."""
    return ann_in_r(M, {M.action_table[c][r] for c in coeffs
                        for r in M.ring.elements()}).elements


def _mixed_products_failure(ctx: BoundedContext, rows: dict, max_space: int):
    """The witness of the first m, and the least f in its row, with a mixed
    product (m_i * r) * a_j != 0, or None: `_row_failure` keyed by the
    coefficient set C of m != 0, f outside coeff_set(good(C)), and r the
    first over m's terms, then f's, then R.  Scaling each c in C by n and a
    central unit keeps good(C)."""
    M = ctx.module
    R = ctx.presentation.ring
    act_t = M.action_table
    found = _row_failure(
        ctx, rows,
        lambda m_idx: frozenset(c for _, c in ctx.mterms(m_idx)) or None,
        lambda C: _mixed_annihilator(M, C), max_space)
    if found is None:
        return None
    m_idx, f_idx = found
    r = next(r for _, mi in ctx.mterms(m_idx) for _, aj in ctx.fterms(f_idx)
             for r in R.elements() if act_t[act_t[mi][r]][aj] != M.zero)
    return {"part": "mixed-products", "m": ctx.m_poly(m_idx).to_json(M.name),
            "f": ctx.f_poly(f_idx).to_json(R.name), "r": R.name(r)}


def _quasi_commutative_annihilator(ctx: BoundedContext, max_space: int,
                                   quasi_verdict):
    """Structure of bounded ann(mA): generated by its constants exactly when
    all mixed products m_i R a_j vanish (`_mixed_products_failure`); plus
    the nonzero-constant guarantee for quasi-Armendariz modules.  The first
    is `_row_failure` keyed by the row's constants, which phi_lam fixes,
    the second the first orbit minimum whose row holds a nonzero f and no
    nonzero constant, as phi_lam is a bijection fixing constants.  The
    second can fire only after the first has: a row equal to the span of
    the constant 0 alone is {0}.  `quasi_verdict` is never None here: it is
    None only where the `ann_am_rows` read above refuses first."""
    R = ctx.presentation.ring
    rows = ctx.ann_am_rows(max_space)
    constants = [(r, ctx.f_term_index(ctx.basis[0], r)) for r in R.elements()]

    def consts(m_idx):
        return frozenset(r for r, f_idx in constants if f_idx in rows[m_idx])

    found = _row_failure(ctx, rows, consts, lambda c: c, max_space, exact=True)
    a_wit = found and {"part": "constants-generate", **_m_json(ctx, found[0])}
    b_wit = _mixed_products_failure(ctx, rows, max_space)
    if (a_wit is None) != (b_wit is None):
        return False, (a_wit or b_wit)
    for m_idx in ctx.minima() if quasi_verdict.holds and a_wit else ():
        if len(rows[m_idx]) > 1 and consts(m_idx) == {R.zero}:
            return False, {"part": "nonzero-constant", **_m_json(ctx, m_idx)}
    return True, None


# ---------------------------------------------------------------------------
# report assembly


def _state(v) -> str:
    if v is None:
        return SKIPPED
    if isinstance(v, PropertyVerdict):
        if v.status == HOLDS_UP_TO_BOUND and v.bound == 0:
            return VACUOUS
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
    if hyp_failed and ok is False:
        return TheoremReport(
            theorem, CONFIRMED, entries,
            desc + "; conclusion fails alongside the hypotheses", None, bound)
    if hyp_failed or VACUOUS in states or ok == VACUOUS:
        return TheoremReport(theorem, HYPOTHESIS_NOT_MET, entries, desc,
                             None, bound)
    if hyp_unknown or ok is None:
        return TheoremReport(theorem, SKIPPED, entries, desc, None, bound)
    if ok:
        return TheoremReport(theorem, CONFIRMED, entries, desc, None, bound)
    return TheoremReport(theorem, VIOLATION, entries, desc, witness, bound)


def _equivalence(M: RightModule, P: SkewPbwPresentation, red: PropertyVerdict,
                 sig: PropertyVerdict, dlt: PropertyVerdict):
    """(ok, description, witness) of reduced_compatible_equivalence, a row
    with no hypotheses: reduced and compatible, read off the three verdicts
    already decided, iff the four elementwise annihilation conditions hold."""
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
    return lhs == rhs, desc, {
        "reduced": red.status, "sigma_compatible": sig.status,
        "delta_compatible": dlt.status, "parts": {
            k: ("holds" if v else "fails") for k, v in rhs_parts.items()},
        "middle_factor_witness": wa, "square_witness": wd}


def _verdict(v, name: str):
    """Conclusion: the decider verdict `v` itself (None when refused), or
    VACUOUS when it holds only up to bound 0."""
    def run():
        if v is None:
            return None, f"{name} not evaluated", None
        ok = VACUOUS if _state(v) == VACUOUS else v.holds
        return ok, f"{name} {_state(v)}", v.witness
    return run


def _claim(desc: str, check, *args):
    """Conclusion: the claim `desc`, decided by check(*args) -> (ok,
    witness), which raises SearchSpaceTooLarge or TooLarge if it cannot."""
    def run():
        ok, wit = check(*args)
        return ok, desc if ok else desc + " refuted", wit
    return run


def _agreement(left, lname: str, rname: str, side, *args):
    """Conclusion: `left` (a verdict or a bool, None when refused) agrees
    with side(*args) -> (verdict or bool, witness).  The side runs only when
    `left` was evaluated and is not vacuous; a disagreement carries the
    side's witness, else the left verdict's."""
    def run():
        if left is None:
            return None, f"{lname} not evaluated", None
        if _state(left) == VACUOUS:
            return VACUOUS, f"{lname} {VACUOUS}", None
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
    ctx = context(M, P, degree)
    # the twelve verdicts (None when refused; no cap refuses the exact ones
    # read by .holds below), then the facts that other hypotheses name
    v = {name: _unless_refused(decide, M, P, degree, max_space)
         for name, decide in DECIDERS.items()}
    v["presentation_bijective"] = P.bijective
    v["constants_central"] = all(is_central(P.ring, c) for c in P.c.values())
    v["ring_embeds_in_module"] = "absent" if embedding is None else "present"
    v["quasi_commutative"] = P.quasi_commutative
    compatible = ("sigma_compatible", "delta_compatible")
    reduced_central = compatible + ("reduced", "presentation_bijective",
                                    "constants_central")
    armendariz_embeds = ("skew_armendariz", "ring_embeds_in_module")
    linear_embeds = ("linearly_skew_armendariz", "ring_embeds_in_module")
    arm, pp, pqb = v["skew_armendariz"], v["pp"], v["pq_baer"]

    # (theorem, hypothesis names, conclusion, bound), in report order
    table = [
        ("reduced_compatible_equivalence", (), lambda: _equivalence(
            M, P, v["reduced"], v["sigma_compatible"], v["delta_compatible"]),
         None),
        ("compatible_map_annihilation", compatible,
         _claim("twist maps preserve annihilation", _map_annihilation, M, P),
         None),
        ("coefficientwise_scalar_annihilation", compatible,
         _claim("scalar annihilation is coefficientwise",
                _coefficientwise_scalar, ctx, max_space),
         degree),
        ("reduced_module_polynomial_transfer", compatible,
         _agreement(v["reduced"].holds and v["sigma_compatible"].holds,
                    "module sigma-reduced",
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
         _verdict(v["idempotent_stability"], "idempotent_stability"), None),
        ("linear_armendariz_abelian", linear_embeds,
         _verdict(v["abelian"], "abelian"), None),
        ("armendariz_abelian", armendariz_embeds,
         _verdict(v["abelian"], "abelian"), degree),
        ("reduced_pp_iff_pq_baer", ("reduced",),
         _agreement(pp, "is_pp", "is_pq_baer", lambda: (pqb, pqb.witness)),
         None),
        ("pp_polynomial_transfer", compatible + armendariz_embeds,
         _agreement(pp, "is_pp", "bounded polynomial-module pp",
                    _bounded_side, ctx, max_space, _pp_family, _m_json),
         degree),
        ("baer_polynomial_transfer", compatible + armendariz_embeds,
         _agreement(v["baer"], "is_baer", "bounded polynomial-module baer",
                    _bounded_side, ctx, max_space, _baer_family,
                    _generators_json),
         degree),
        ("compatible_torsion_constant", reduced_central,
         _claim("torsion pairs admit a constant annihilator",
                _torsion_constant, ctx, max_space),
         degree),
        ("quasi_commutative_annihilator_structure",
         ("quasi_commutative", "sigma_compatible"),
         _claim("bounded ann(mA) is generated by its constants",
                _quasi_commutative_annihilator, ctx, max_space,
                v["skew_quasi_armendariz"]),
         degree),
        ("quasi_baer_polynomial_transfer", compatible,
         _agreement(v["quasi_baer"], "is_quasi_baer",
                    "bounded polynomial-module quasi-baer",
                    _bounded_side, ctx, max_space, _quasi_baer_family,
                    _submodule_json),
         degree),
        ("pq_baer_polynomial_transfer", compatible,
         _agreement(pqb, "is_pq_baer", "bounded polynomial-module pq-baer",
                    _bounded_side, ctx, max_space, _pq_baer_family, _m_json),
         degree),
        ("quasi_baer_quasi_armendariz", compatible + ("quasi_baer",),
         _verdict(v["skew_quasi_armendariz"], "skew_quasi_armendariz"),
         degree),
    ]
    return [_implication(theorem, [(n, v[n]) for n in names], conclude, bound)
            for theorem, names, conclude, bound in table]


# ---------------------------------------------------------------------------
# witness replay


def replay(M: RightModule, P: SkewPbwPresentation, verdict: PropertyVerdict) -> bool:
    """Re-evaluate a Fails witness from its serialized form.

    Returns True when the witness still demonstrates the failure; a False
    return means the serialized report does not match the instance.  A
    witness field or a bound the rule reads that is of the wrong kind, out
    of range or names no element is refused as bad_witness, with the cause
    chained.
    """
    if verdict.status != FAILS or verdict.witness is None:
        raise ValidationError("bad_witness", None,
                              "only Fails verdicts carry a witness to replay")
    try:
        return _replay_rule(M, P, verdict)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ValidationError) as exc:
        raise ValidationError("bad_witness", verdict.prop,
                              f"malformed witness: {exc!r}") from exc


def _replay_rule(M: RightModule, P: SkewPbwPresentation,
                 verdict: PropertyVerdict) -> bool:
    """`replay` past its checks: a malformed field raises what reading it
    raises."""
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
        tables = _twist_tables(P, "s" if prop == "sigma_compatible" else "d")
        img = _apply_map_word(tables, w["map"], r)
        base = act_t[m][r] == mz
        other = act_t[m][img] == mz
        if prop == "delta_compatible":
            return base and not other
        forward = {"forward": True, "backward": False}[w["direction"]]
        return base == forward and base != other
    if prop == "abelian":
        m = M.element_index(w["m"])
        r = R.element_index(w["r"])
        e = R.element_index(w["e"])
        return act_t[act_t[m][r]][e] != act_t[act_t[m][e]][r]
    if prop == "idempotent_stability":
        e = R.element_index(w["e"])
        i = range(1, P.n + 1).index(w["i"])  # ValueError outside 1..n
        tables, fixed = {"sigma": (P.sigma_tables, e),
                         "delta": (P.delta_tables, R.zero)}[w["kind"]]
        return tables[i][e] != fixed
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
        for r, gamma in product(R.elements(), enumerate_upto(
                P.n, verdict.bound, P.order)):
            if not act(mp, P.monomial_poly(gamma, r) * f).is_zero():
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

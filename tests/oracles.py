"""Independent reference implementations used as test oracles.

Everything here recomputes results from raw Cayley tables with naive
algorithms, deliberately sharing no code with the engine under test.  The
exceptions are `ann_in_a_bounded`, `slice_scalar_action`,
`ann_am_reference`, `mixed_failure` and `torsion_failure`, which act on
bounded module polynomials through `polymodule.act`, the generic action
path, so they share nothing with the tables the bounded context builds,
`commuting_middles`, which multiplies through `skewpbw.mul`, and
`middle_candidates`, which lists the additive generators of R that
`bounded.cyclic_factors` picks; the row-scan references read only a
context's sizes, basis, middles and given rows, and the orbit references
only its sizes, basis and raw tables.
"""

from __future__ import annotations

from itertools import product
from math import gcd


def commutative_mul(q: int, f: dict, g: dict) -> dict:
    """Ordinary multivariate polynomial product over Z_q.

    Polynomials are {exponent tuple: coefficient} dicts; zero coefficients
    are dropped from the result.
    """
    out: dict = {}
    for a, ca in f.items():
        for b, cb in g.items():
            e = tuple(x + y for x, y in zip(a, b))
            out[e] = (out.get(e, 0) + ca * cb) % q
    return {e: c for e, c in out.items() if c}


def push_variable(ring, sigma_table, delta_table, poly: dict) -> dict:
    """x_i * (sum r_alpha x^alpha) for a single variable, from the defining
    relation x r = sigma(r) x + delta(r); exponents here are bare integers
    counting powers of that one variable."""
    out: dict = {}

    def bump(k, r):
        if r:
            out[k] = ring.add_table[out.get(k, 0)][r]

    for k, r in poly.items():
        bump(k + 1, sigma_table[r])
        bump(k, delta_table[r])
    return {k: r for k, r in out.items() if r}


def closed_form_push(ring, sigma_table, delta_table, a: int, r: int) -> dict:
    """x^a * r in one variable, computed by iterating single steps."""
    poly = {0: r} if r != ring.zero else {}
    for _ in range(a):
        poly = push_variable(ring, sigma_table, delta_table, poly)
    return poly


def word_normal_form(P, word) -> dict:
    """Normal form {exponent: coeff} of a generator word of ("c", r) and
    ("v", i) tokens, by rewriting whole words leftmost redex first with the
    presentation's raw tables: merge two coefficients, push a coefficient
    left through a variable (sigma branch plus delta branch), or swap an
    out-of-order variable pair (c_ij branch plus linear and constant
    branches).  Every branch is split off as a separate word, so the cost
    grows exponentially with the degree."""
    R = P.ring
    zero, add_t, mul_t = R.zero, R.add_table, R.mul_table
    terms: dict = {}
    stack = [(list(word), 0)]
    while stack:
        w, i = stack.pop()
        i = max(i - 1, 0)
        dead = False
        while i < len(w) - 1:
            (k1, v1), (k2, v2) = w[i], w[i + 1]
            if k1 == "c" and k2 == "c":
                m = mul_t[v1][v2]
                if m == zero:
                    dead = True
                    break
                w[i:i + 2] = [("c", m)]
            elif k1 == "c" or (k2 == "v" and v1 <= v2):
                i += 1
                continue
            elif k2 == "c":
                d = P.delta_tables[v1][v2]
                if d != zero:
                    stack.append((w[:i] + [("c", d)] + w[i + 2:], i))
                w[i:i + 2] = [("c", P.sigma_tables[v1][v2]), ("v", v1)]
            else:
                pair = (v2, v1)
                for k, rk in enumerate(P.d_linear[pair]):
                    if rk != zero:
                        stack.append((w[:i] + [("c", rk), ("v", k)]
                                      + w[i + 2:], i))
                if P.d_const[pair] != zero:
                    stack.append((w[:i] + [("c", P.d_const[pair])]
                                  + w[i + 2:], i))
                w[i:i + 2] = [("c", P.c[pair]), ("v", v2), ("v", v1)]
            i = max(i - 1, 0)
        if dead:
            continue
        a, vs = (w[0][1], w[1:]) if w and w[0][0] == "c" else (R.one, w)
        alpha = [0] * P.n
        for _, v in vs:
            alpha[v] += 1
        key = tuple(alpha)
        terms[key] = add_t[terms.get(key, zero)][a]
    return {e: c for e, c in terms.items() if c != zero}


def brute_idempotents(ring) -> list:
    return [e for e in range(ring.order) if ring.mul_table[e][e] == e]


def brute_left_invertibles(ring) -> list:
    one = ring.one
    return [u for u in range(ring.order)
            if any(ring.mul_table[v][u] == one for v in range(ring.order))]


def brute_annihilator(M, subset) -> frozenset:
    return frozenset(r for r in range(M.ring.order)
                     if all(M.action_table[m][r] == M.zero for m in subset))


def brute_principal_ideal(ring, e) -> frozenset:
    return frozenset(ring.mul_table[e][r] for r in range(ring.order))


def brute_idempotent_generated(ring, ideal: frozenset) -> bool:
    return any(brute_principal_ideal(ring, e) == ideal
               for e in brute_idempotents(ring))


def brute_submodules(M) -> list:
    """All subsets closed under addition and the ring action."""
    els = list(range(M.order))
    out = []
    for bits in product((0, 1), repeat=M.order):
        sub = {m for m, b in zip(els, bits) if b}
        if M.zero not in sub:
            continue
        closed = all(M.add_table[a][b] in sub for a in sub for b in sub) and \
            all(M.action_table[a][r] in sub
                for a in sub for r in range(M.ring.order))
        if closed:
            out.append(frozenset(sub))
    return out


def brute_cyclic(M, m) -> frozenset:
    """Additive closure of the orbit m*R."""
    orbit = {M.action_table[m][r] for r in range(M.ring.order)}
    orbit.add(M.zero)
    while True:
        nxt = set(orbit)
        for a in orbit:
            for b in orbit:
                nxt.add(M.add_table[a][b])
        if nxt == orbit:
            return frozenset(orbit)
        orbit = nxt


def brute_baer_family(M) -> dict:
    """Definitional pp / p.q.-Baer / quasi-Baer / Baer verdicts.

    Enumerates every subset of M for Baer (so keep |M| small), cyclic
    submodules for p.q.-Baer, and all submodules for quasi-Baer.  Returns
    {"pp": (bool, witness), ...} with the witness the first failing carrier.
    """
    ring = M.ring
    els = list(range(M.order))

    def generated(ideal):
        return brute_idempotent_generated(ring, ideal)

    pp = (True, None)
    for m in els:
        if not generated(brute_annihilator(M, (m,))):
            pp = (False, m)
            break
    pq = (True, None)
    for m in els:
        if not generated(brute_annihilator(M, brute_cyclic(M, m))):
            pq = (False, m)
            break
    qb = (True, None)
    for sub in brute_submodules(M):
        if not generated(brute_annihilator(M, sub)):
            qb = (False, sub)
            break
    baer = (True, None)
    for bits in product((0, 1), repeat=M.order):
        subset = {m for m, b in zip(els, bits) if b}
        if not generated(brute_annihilator(M, subset)):
            baer = (False, frozenset(subset))
            break
    return {"pp": pp, "pq_baer": pq, "quasi_baer": qb, "baer": baer}


def closure_lattice(M) -> list:
    """Every submodule, grown by closing S and one more element for each
    submodule S found, sorted by size then carrier."""
    def close(gens):
        cur = set(gens) | {M.zero}
        while True:
            nxt = set(cur)
            for a in cur:
                nxt.update(M.add_table[a][b] for b in cur)
                nxt.update(M.action_table[a])
            if nxt == cur:
                return frozenset(cur)
            cur = nxt

    found = {close(())}
    frontier = list(found)
    while frontier:
        grown = {close(S | {m}) for S in frontier for m in range(M.order)}
        frontier = list(grown - found)
        found |= grown
    return sorted(found, key=lambda s: (len(s), sorted(s)))


ANN_BOUNDED_CANDIDATE_LIMIT = 10 ** 6


def annihilates(mp, f) -> bool:
    from spbw.polymodule import act

    return act(mp, f).is_zero()


def ann_in_a_bounded(Ms, d: int,
                     max_candidates: int = ANN_BOUNDED_CANDIDATE_LIMIT) -> list:
    """All polynomials of degree <= d killing every module polynomial in Ms.

    Ms must be a non-empty iterable of ModulePoly over one module and one
    presentation (the zero polynomial is fine and makes every candidate
    match).  Candidates are enumerated in lexicographic coefficient order
    over the ascending monomial basis, so the result order is deterministic.
    The reference for `BoundedContext.kernel`: it goes through
    `polymodule.act`.
    """
    from spbw.errors import SearchSpaceTooLarge, ValidationError
    from spbw.monomial import enumerate_upto
    from spbw.polymodule import act
    from spbw.skewpbw import SkewPoly

    Ms = list(Ms)
    if not Ms:
        raise ValidationError("bad_input",
                              message="ann_in_a_bounded needs at least one module polynomial")
    P = Ms[0].presentation
    M = Ms[0].module
    for mp in Ms:
        if mp.presentation is not P or mp.module is not M:
            raise ValidationError("bad_input",
                                  message="module polynomials disagree on module or presentation")
    basis = enumerate_upto(P.n, d, P.order)
    q = P.ring.order
    space = q ** len(basis)
    if space > max_candidates:
        raise SearchSpaceTooLarge(space, max_candidates, what="ann_in_a_bounded")
    out = []
    for coeffs in product(range(q), repeat=len(basis)):
        f = SkewPoly(P, {a: c for a, c in zip(basis, coeffs) if c != P.ring.zero})
        if all(act(mp, f).is_zero() for mp in Ms):
            out.append(f)
    return out


def slice_scalar_action(ctx, rows) -> dict:
    """{m_idx: (index of m * r for each r)} for each m_idx in `rows`, on
    the degree <= d slice of `ctx`: act_scalar on ctx.m_poly(m_idx), read
    back slot by slot, most significant slot first."""
    from spbw.polymodule import act_scalar

    M = ctx.module
    out = {}
    for m_idx in rows:
        mp = ctx.m_poly(m_idx)
        row = []
        for r in range(M.ring.order):
            prod = act_scalar(mp, r)
            assert set(prod.terms) <= set(ctx.basis)
            idx = 0
            for alpha in ctx.basis:
                idx = idx * M.order + prod.coefficient(alpha)
            row.append(idx)
        out[m_idx] = tuple(row)
    return out


def ann_am_reference(ctx) -> dict:
    """{m_idx: frozenset of f_idx with act(m, (r x^gamma) f) = 0 for every r
    in R and gamma in the basis}, on the degree <= d slice of `ctx`, through
    `polymodule.act` and `skewpbw.mul`; the identity middle goes first, so
    an f outside the kernel row costs one act."""
    from spbw.polymodule import act
    from spbw.skewpbw import mul

    P = ctx.presentation
    middles = [P.constant(P.ring.one)] + [
        P.from_terms(((gamma, r),)) for gamma in ctx.basis
        for r in P.ring.elements()]
    products = [[mul(a, ctx.f_poly(f_idx)) for a in middles]
                for f_idx in range(ctx.f_space)]
    out = {}
    for m_idx in range(ctx.m_space):
        mp = ctx.m_poly(m_idx)
        out[m_idx] = frozenset(
            f_idx for f_idx, prods in enumerate(products)
            if all(act(mp, g).is_zero() for g in prods))
    return out


def middle_candidates(ctx) -> list:
    """Every middle (r, gamma) but the identity (1, x^0), in the order of
    `acting_middles`: gamma over the basis, then r over the generators of
    (R, +) that `bounded.cyclic_factors` picks."""
    from spbw.bounded import cyclic_factors

    ring = ctx.presentation.ring
    return [(r, gamma) for gamma in ctx.basis
            for r, _ in cyclic_factors(ring)[0]
            if (r, gamma) != (ring.one, ctx.basis[0])]


def commuting_middles(ctx) -> set:
    """The middles (r, gamma) of `middle_candidates(ctx)` with r x^gamma
    * b x^beta == b x^beta * r x^gamma for every b in R, not only the
    additive generators, and every beta in the basis, through
    `skewpbw.mul`."""
    from spbw.skewpbw import mul

    P = ctx.presentation
    slice_terms = [P.from_terms(((beta, b),)) for beta in ctx.basis
                   for b in P.ring.elements()]
    out = set()
    for r, gamma in middle_candidates(ctx):
        mu = P.from_terms(((gamma, r),))
        if all(mul(mu, g).terms == mul(g, mu).terms for g in slice_terms):
            out.add((r, gamma))
    return out


def sigma_reduced_failure(ring, sigma_tables, action, zero):
    """The first failure of a module given by its action table action[m][r]:
    ("sigma_compatible", m, r) where m * r = 0 and m * s(r) = 0 disagree
    for some s(r) in the orbit of r under the sigma maps, else
    ("reduced", m, a) where m * a = 0 and mR meets Ma outside 0; None if
    neither fails."""
    q = ring.order
    for m, row in enumerate(action):
        for r in range(q):
            orbit = {r}
            while True:
                more = orbit | {t[x] for t in sigma_tables for x in orbit}
                if more == orbit:
                    break
                orbit = more
            if any((row[x] == zero) != (row[r] == zero) for x in orbit):
                return "sigma_compatible", m, r
    images = [{row[a] for row in action} - {zero} for a in range(q)]
    for m, row in enumerate(action):
        for a in range(q):
            if row[a] == zero and set(row) & images[a]:
                return "reduced", m, a
    return None


def map_words(q: int, tables, labels) -> list:
    """(table, name) for every composite of the given maps on range(q),
    the identity "id" first: each map new at length L is named by the first
    of its length-L words found extending, in discovery order, the maps new
    at length L - 1 by one more map applied last; listed by (length, word
    of generator positions), names dot-joined, leftmost applied last."""
    found = {tuple(range(q)): ()}
    layer = [tuple(range(q))]
    while layer:
        fresh = []
        for tab in layer:
            for gi, g in enumerate(tables):
                comp = tuple(g[tab[a]] for a in range(q))
                if comp not in found:
                    found[comp] = (gi,) + found[tab]
                    fresh.append(comp)
        layer = fresh
    return [(tab, ".".join(labels[i] for i in word) or "id")
            for tab, word in sorted(found.items(),
                                    key=lambda kv: (len(kv[1]), kv[1]))]


def map_annihilation_reference(M, P):
    """(ok, witness) of the four-part twist-map annihilation check, in scan
    order: "closure", m a = 0 forces m g(a) = 0 for g composed of the sigma
    and delta maps; "product-right" and "product-left", m (ab) = 0 forces
    (m a) g(b) = 0 and (m g(a)) b = 0 for g composed of the delta maps;
    "annihilator-sigma", ann(m a) = ann(m sigma_i(a)); "annihilator-delta",
    ann(m a) lies in ann(m delta_i(a))."""
    R = P.ring
    q, mul, zero = R.order, R.mul_table, M.zero
    act_t = M.action_table
    n = len(P.sigma_tables)
    mixed = map_words(q, list(P.sigma_tables) + list(P.delta_tables),
                      [f"s{i + 1}" for i in range(n)]
                      + [f"d{i + 1}" for i in range(n)])
    deltas = map_words(q, list(P.delta_tables),
                       [f"d{i + 1}" for i in range(n)])
    for m in range(M.order):
        for a in range(q):
            for g, name in mixed:
                if act_t[m][a] == zero and act_t[m][g[a]] != zero:
                    return False, {"part": "closure", "m": M.name(m),
                                   "a": R.name(a), "map": name}
    for m, a, b in product(range(M.order), range(q), range(q)):
        if act_t[m][mul[a][b]] != zero:
            continue
        for g, name in deltas:
            for part, x, y in (("product-right", act_t[m][a], g[b]),
                               ("product-left", act_t[m][g[a]], b)):
                if act_t[x][y] != zero:
                    return False, {"part": part, "m": M.name(m),
                                   "a": R.name(a), "b": R.name(b),
                                   "map": name}

    def ann(x):
        return {r for r in range(q) if act_t[x][r] == zero}

    for m, a in product(range(M.order), range(q)):
        for i in range(n):
            if ann(act_t[m][P.sigma_tables[i][a]]) != ann(act_t[m][a]):
                return False, {"part": "annihilator-sigma", "m": M.name(m),
                               "a": R.name(a), "i": i + 1}
            if not ann(act_t[m][a]) <= ann(act_t[m][P.delta_tables[i][a]]):
                return False, {"part": "annihilator-delta", "m": M.name(m),
                               "a": R.name(a), "i": i + 1}
    return True, None


# References for the row scans of `properties`: per-f loops that their set
# tests must agree with.  Indices are decoded here, digit by digit, slot 0
# most significant.


def _digits(idx: int, size: int, k: int) -> list:
    out = []
    for _ in range(k):
        idx, d = divmod(idx, size)
        out.append(d)
    return out[::-1]


def _coefficients(ctx, idx: int, size: int, zero: int) -> list:
    """(exponent, coefficient) pairs of the vector at idx, zeros dropped."""
    return [(alpha, v) for alpha, v in zip(ctx.basis, _digits(idx, size, ctx.k))
            if v != zero]


def armendariz_failure(ctx, rows):
    """The first (m_idx, f_idx, m0, beta, b), m then f in index order and
    then f's terms, with f in rows[m_idx] and m0 * b != 0 for m0 the
    constant coefficient of m; None if there is none."""
    M, R = ctx.module, ctx.presentation.ring
    for m_idx in range(ctx.m_space):
        m0 = _digits(m_idx, M.order, ctx.k)[0]
        if m0 == M.zero:
            continue
        for f_idx in sorted(rows[m_idx]):
            for beta, b in _coefficients(ctx, f_idx, R.order, R.zero):
                if M.action_table[m0][b] != M.zero:
                    return m_idx, f_idx, m0, beta, b
    return None


def mixed_products_failure(ctx, rows):
    """The first (m_idx, f_idx, r), m then f in index order, then m's
    terms, f's terms and r in R, with f in rows[m_idx] and a mixed product
    (m_i * r) * a_j != 0; None if there is none."""
    M, R = ctx.module, ctx.presentation.ring
    act_t = M.action_table
    for m_idx in range(ctx.m_space):
        mts = _coefficients(ctx, m_idx, M.order, M.zero)
        for f_idx in sorted(rows[m_idx]):
            for _, mi in mts:
                for _, aj in _coefficients(ctx, f_idx, R.order, R.zero):
                    for r in range(R.order):
                        if act_t[act_t[mi][r]][aj] != M.zero:
                            return m_idx, f_idx, r
    return None


def mixed_failure(ctx, alpha, m, beta, b):
    """The first (r, t), r in R then t in the basis, with the mixed product
    (m x^alpha)(r x^t)(b x^beta) != 0, through `polymodule.act` and
    `skewpbw.mul`; None if every one vanishes."""
    from spbw.polymodule import act, module_poly
    from spbw.skewpbw import mul

    P = ctx.presentation
    single = module_poly(ctx.module, P, [(alpha, m)])
    right = P.from_terms(((beta, b),))
    for r in range(P.ring.order):
        for t in ctx.basis:
            if not act(single, mul(P.from_terms(((t, r),)), right)).is_zero():
                return r, t
    return None


def quasi_armendariz_failure(ctx, rows):
    """The first (m_idx, f_idx, alpha, beta, r, t), m then f in index
    order, then m's terms and f's terms, with f in rows[m_idx] and (r, t)
    the `mixed_failure` of the term pair; None if there is none.  Each term
    pair's answer is kept, as many (m, f) share it."""
    M, R = ctx.module, ctx.presentation.ring
    memo = {}
    for m_idx in range(ctx.m_space):
        mts = _coefficients(ctx, m_idx, M.order, M.zero)
        for f_idx in sorted(rows[m_idx]):
            for alpha, m in mts:
                for beta, b in _coefficients(ctx, f_idx, R.order, R.zero):
                    key = alpha, m, beta, b
                    if key not in memo:
                        memo[key] = mixed_failure(ctx, *key)
                    if memo[key] is not None:
                        return (m_idx, f_idx, alpha, beta, *memo[key])
    return None


def torsion_failure(ctx, rows):
    """The first (m_idx, f_idx, c), m then f in index order, with m != 0,
    f != 0 in rows[m_idx] and m * c != 0 for c the coefficient of f's last
    nonzero slot, through `polymodule.act_scalar`; None if there is none."""
    from spbw.polymodule import act_scalar

    M, R = ctx.module, ctx.presentation.ring
    for m_idx in range(ctx.m_space):
        mp = ctx.m_poly(m_idx)
        if mp.is_zero():
            continue
        kills = {c: act_scalar(mp, c).is_zero() for c in range(R.order)}
        for f_idx in sorted(rows[m_idx]):
            coeffs = _coefficients(ctx, f_idx, R.order, R.zero)
            if coeffs and not kills[coeffs[-1][1]]:
                return m_idx, f_idx, coeffs[-1][1]
    return None


def mixed_annihilator(M, coeffs) -> frozenset:
    """{a : (c * r) * a = 0 for every c in coeffs and r in R}, one
    (c, a, r) at a time."""
    act_t = M.action_table
    return frozenset(a for a in range(M.ring.order)
                     if all(act_t[act_t[c][r]][a] == M.zero
                            for c in coeffs for r in range(M.ring.order)))


def correspondence_failure(ctx, rows):
    """The first (m_idx, f_idx) with rows[m_idx] unequal to the f whose
    every coefficient annihilates every coefficient of m, f_idx the least
    index in the difference; None if there is none."""
    M, R = ctx.module, ctx.presentation.ring
    for m_idx in range(ctx.m_space):
        coeffs = [v for _, v in _coefficients(ctx, m_idx, M.order, M.zero)]
        ann = brute_annihilator(M, coeffs)
        pred = {f_idx for f_idx in range(ctx.f_space)
                if all(b in ann for b in _digits(f_idx, R.order, ctx.k))}
        diff = pred ^ rows[m_idx]
        if diff:
            return m_idx, min(diff)
    return None


def _row_constants(ctx, row) -> set:
    """The r with the constant polynomial r in `row`: digit r in slot 0 and
    the ring's zero in every other slot."""
    R = ctx.presentation.ring
    rest = sum(R.zero * R.order ** s for s in range(ctx.k - 1))
    return {r for r in range(R.order)
            if r * R.order ** (ctx.k - 1) + rest in row}


def constants_generate_failure(ctx, rows):
    """The first m_idx, in index order, whose row is not the set of f with
    every coefficient among that row's constants; None if there is none."""
    R = ctx.presentation.ring
    for m_idx in range(ctx.m_space):
        consts = _row_constants(ctx, rows[m_idx])
        span = {f_idx for f_idx in range(ctx.f_space)
                if set(_digits(f_idx, R.order, ctx.k)) <= consts}
        if span != rows[m_idx]:
            return m_idx
    return None


def nonzero_constant_failure(ctx, rows):
    """The first m_idx, in index order, whose row holds a nonzero f but no
    nonzero constant; None if there is none."""
    R = ctx.presentation.ring
    for m_idx in range(ctx.m_space):
        row = rows[m_idx]
        nonzero = [f_idx for f_idx in row
                   if set(_digits(f_idx, R.order, ctx.k)) != {R.zero}]
        if nonzero and _row_constants(ctx, row) <= {R.zero}:
            return m_idx
    return None


# The symmetry group of the slice, listed element by element from the raw
# tables: the integer units n mod the exponent e of (M, +) and, over a
# quasi-commutative presentation, the torus x_i -> lam_i x_i with each lam_i
# a central unit of R fixed by every sigma_j.  (n, lam) sends m_s x^alpha_s
# to n * (m_s * lam^alpha_s) x^alpha_s and b x^beta in A to (b * lam^beta)
# x^beta.


def _times(M, n: int, v: int) -> int:
    out = M.zero
    for _ in range(n):
        out = M.add_table[out][v]
    return out


def orbit_group(ctx) -> list:
    """Every (n, lam) of the group, n in 1..e prime to e, lam a tuple with
    one torus unit per variable (only the ones without the torus)."""
    M, P = ctx.module, ctx.presentation
    R = P.ring
    mul = R.mul_table
    e = next(n for n in range(1, M.order + 1)
             if all(_times(M, n, v) == M.zero for v in M.elements()))
    quasi = (all(v == R.zero for t in P.delta_tables for v in t)
             and all(v == R.zero for v in P.d_const.values())
             and all(x == R.zero for lin in P.d_linear.values() for x in lin))
    torus = [t for t in R.elements()
             if any(mul[t][u] == R.one == mul[u][t] for u in R.elements())
             and all(mul[t][r] == mul[r][t] for r in R.elements())
             and all(s[t] == t for s in P.sigma_tables)] if quasi else [R.one]
    return [(n, lam) for n in range(1, e + 1) if gcd(n, e) == 1
            for lam in product(torus, repeat=P.n)]


def _power(R, lam, alpha) -> int:
    out = R.one
    for t, a in zip(lam, alpha):
        for _ in range(a):
            out = R.mul_table[out][t]
    return out


def _index(digits, size: int) -> int:
    idx = 0
    for v in digits:
        idx = idx * size + v
    return idx


def group_image(ctx, g, m_idx: int) -> int:
    """The index of (n, lam) applied to the module vector at m_idx."""
    (n, lam), M = g, ctx.module
    return _index([_times(M, n, M.action_table[v][_power(M.ring, lam, alpha)])
                   for alpha, v in zip(ctx.basis,
                                       _digits(m_idx, M.order, ctx.k))],
                  M.order)


def torus_image(ctx, lam, f_idx: int) -> int:
    """The index of phi_lam applied to the polynomial at f_idx."""
    R = ctx.presentation.ring
    return _index([R.mul_table[b][_power(R, lam, alpha)]
                   for alpha, b in zip(ctx.basis, _digits(f_idx, R.order, ctx.k))],
                  R.order)


def orbit_minima(ctx) -> list:
    """For every m_idx, the least index of g * m over the whole group."""
    group = orbit_group(ctx)
    return [min(group_image(ctx, g, m_idx) for g in group)
            for m_idx in range(ctx.m_space)]

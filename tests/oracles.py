"""Independent reference implementations used as test oracles.

Everything here recomputes results from raw Cayley tables with naive
algorithms, deliberately sharing no code with the engine under test.  The
one exception is `slice_scalar_action`, which acts on each bounded module
polynomial through `polymodule.act_scalar`, the generic action path, so it
shares nothing with the tables the bounded context builds.
"""

from __future__ import annotations

from itertools import product


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

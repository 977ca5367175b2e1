"""Skew PBW extension presentations and exact polynomial arithmetic.

A presentation over a finite ring R consists of n variables x_1..x_n, one
endomorphism sigma_i and one sigma_i-derivation delta_i per variable, and for
each pair i < j a quadratic relation

    x_j x_i  =  c_ij x_i x_j  +  sum_k r^k_ij x_k  +  r^0_ij        (c_ij != 0)

together with the coefficient commutation law

    x_i r  =  sigma_i(r) x_i  +  delta_i(r)                         (r in R).

Every element of the extension has a unique normal form: a left R-linear
combination of sorted monomials x_1^a1 .. x_n^an.  Normal forms are computed
by a rewriting pass over generator words.  Each rewrite step either merges
two adjacent coefficients, pushes a coefficient left through a variable
(splitting into a sigma branch of equal degree and a delta branch of lower
degree), or swaps an out-of-order variable pair (one equal-degree branch plus
lower-degree branches).  The lexicographic measure (degree, inversion count,
coefficient displacement, word length) strictly decreases at each step, so
the pass terminates; validated presentations are checked for confluence by
:func:`check_consistency`, so the result is independent of strategy.  The
strategy itself is fixed (leftmost redex first) and deterministic.

Variables are 0-based in this API; the textual syntax x1..xn used by the
command line layer is 1-based.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import monomial
from .errors import (EngineInvariantError, PresentationMismatch,
                     ValidationError)
from .finring import FiniteRing, RingMap, is_two_sided_invertible
from .monomial import MonomialOrder, default_order


def word_of_term(coefficient: int, alpha) -> list:
    """Generator word for the term coefficient * x^alpha."""
    w = [("c", coefficient)]
    for i, e in enumerate(alpha):
        w.extend([("v", i)] * e)
    return w


class SkewPbwPresentation:
    """Validated presentation data plus memoized rewriting tables.

    Use :func:`validate_presentation` to construct one.  The three caches
    (push, mono_prod, triple) hold normal forms of x^a * r, x^a * x^b and
    x^a * r * x^b respectively; every product in the package funnels through
    them, which is what makes the exhaustive deciders affordable.
    """

    def __init__(self, ring, sigmas, deltas, c, d_const, d_linear, order,
                 quasi_commutative, bijective, label=""):
        self.ring = ring
        self.n = len(sigmas)
        self.sigmas = tuple(sigmas)
        self.deltas = tuple(deltas)
        self.sigma_tables = tuple(s.table for s in sigmas)
        self.delta_tables = tuple(d.table for d in deltas)
        self.c = dict(c)
        self.d_const = dict(d_const)
        self.d_linear = dict(d_linear)
        self.order = order
        self.quasi_commutative = quasi_commutative
        self.bijective = bijective
        self.label = label
        self.consistency_certificate = 0
        self._push_cache = {}
        self._prod_cache = {}
        self._triple_cache = {}

    # -- polynomial constructors ------------------------------------------

    def zero_poly(self) -> "SkewPoly":
        return SkewPoly(self, {})

    def one_poly(self) -> "SkewPoly":
        return self.constant(self.ring.one)

    def constant(self, r: int) -> "SkewPoly":
        if r == self.ring.zero:
            return SkewPoly(self, {})
        return SkewPoly(self, {(0,) * self.n: r})

    def variable(self, i: int) -> "SkewPoly":
        alpha = tuple(1 if k == i else 0 for k in range(self.n))
        return SkewPoly(self, {alpha: self.ring.one})

    def monomial_poly(self, alpha, coefficient=None) -> "SkewPoly":
        alpha = tuple(alpha)
        if len(alpha) != self.n or any(e < 0 for e in alpha):
            raise ValidationError("bad_exponent", witness=alpha)
        if coefficient is None:
            coefficient = self.ring.one
        if coefficient == self.ring.zero:
            return SkewPoly(self, {})
        return SkewPoly(self, {alpha: coefficient})

    def from_terms(self, terms) -> "SkewPoly":
        out = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for alpha, r in items:
            alpha = tuple(alpha)
            if len(alpha) != self.n or any(e < 0 for e in alpha):
                raise ValidationError("bad_exponent", witness=alpha)
            if not 0 <= r < self.ring.order:
                raise ValidationError("bad_coefficient", witness=r)
            cur = out.get(alpha, self.ring.zero)
            out[alpha] = self.ring.add_table[cur][r]
        return SkewPoly(self, {a: v for a, v in out.items() if v != self.ring.zero})

    # -- memoized normal form tables --------------------------------------

    def sigma_power(self, alpha, r: int) -> int:
        """sigma^alpha(r): sigma_n applied first, sigma_1 last."""
        for i in range(self.n - 1, -1, -1):
            t = self.sigma_tables[i]
            for _ in range(alpha[i]):
                r = t[r]
        return r

    def push(self, alpha, r: int):
        """Normal form of x^alpha * r as a sorted tuple of (exponent, coeff)."""
        key = (alpha, r)
        hit = self._push_cache.get(key)
        if hit is None:
            word = word_of_term(self.ring.one, alpha)[1:] + [("c", r)]
            hit = tuple(sorted(_normalize_terms(self, word).items()))
            self._push_cache[key] = hit
        return hit

    def mono_prod(self, alpha, beta):
        """Normal form of x^alpha * x^beta, same shape as :meth:`push`."""
        key = (alpha, beta)
        hit = self._prod_cache.get(key)
        if hit is None:
            word = word_of_term(self.ring.one, alpha)[1:] + \
                word_of_term(self.ring.one, beta)[1:]
            hit = tuple(sorted(_normalize_terms(self, word).items()))
            self._prod_cache[key] = hit
        return hit

    def triple(self, alpha, r: int, beta):
        """Normal form of x^alpha * r * x^beta, composed from the caches."""
        key = (alpha, r, beta)
        hit = self._triple_cache.get(key)
        if hit is None:
            R = self.ring
            add_t, mul_t, zero = R.add_table, R.mul_table, R.zero
            out = {}
            for theta, t in self.push(alpha, r):
                for gamma, u in self.mono_prod(theta, beta):
                    prev = out.get(gamma, zero)
                    out[gamma] = add_t[prev][mul_t[t][u]]
            hit = tuple(sorted((g, v) for g, v in out.items() if v != zero))
            self._triple_cache[key] = hit
        return hit

    def __repr__(self):
        return f"SkewPbwPresentation({self.label or self.ring.label}, n={self.n})"


# ---------------------------------------------------------------------------
# the rewriting pass


def _normalize_terms(P: SkewPbwPresentation, word) -> dict:
    """Rewrite a generator word to normal form; returns exponent -> coeff.

    The worklist holds (tokens, scan_start) pairs; rewriting a redex at
    position p cannot create a new redex left of p - 1, so scanning resumes
    there.  Words acquiring a zero coefficient are dropped immediately.
    """
    R = P.ring
    zero = R.zero
    add_t = R.add_table
    mul_t = R.mul_table
    sig = P.sigma_tables
    dlt = P.delta_tables
    n = P.n
    terms = {}

    first = list(word)
    for kind, v in first:
        if kind == "c":
            if not 0 <= v < R.order:
                raise ValidationError("bad_coefficient", witness=v)
        elif kind == "v":
            if not 0 <= v < n:
                raise ValidationError("bad_variable", witness=v)
        else:
            raise ValidationError("bad_word", witness=(kind, v))
    if any(kind == "c" and v == zero for kind, v in first):
        return terms

    stack = [(first, 0)]
    while stack:
        w, i = stack.pop()
        if i:
            i -= 1
        dead = False
        while i < len(w) - 1:
            k1, v1 = w[i]
            k2, v2 = w[i + 1]
            if k1 == "c":
                if k2 == "c":
                    m = mul_t[v1][v2]
                    if m == zero:
                        dead = True
                        break
                    w[i:i + 2] = [("c", m)]
                    if i:
                        i -= 1
                    continue
                i += 1
                continue
            if k2 == "c":
                # x_v1 * r  ->  sigma(r) x_v1  +  delta(r)
                d = dlt[v1][v2]
                if d != zero:
                    stack.append((w[:i] + [("c", d)] + w[i + 2:], i))
                w[i:i + 2] = [("c", sig[v1][v2]), ("v", v1)]
                if i:
                    i -= 1
                continue
            j, lo = v1, v2
            if j <= lo:
                i += 1
                continue
            # x_j x_lo  ->  c x_lo x_j  +  sum_k r^k x_k  +  r^0   (lo < j)
            pair = (lo, j)
            lin = P.d_linear[pair]
            for k in range(n):
                rk = lin[k]
                if rk != zero:
                    stack.append((w[:i] + [("c", rk), ("v", k)] + w[i + 2:], i))
            r0 = P.d_const[pair]
            if r0 != zero:
                stack.append((w[:i] + [("c", r0)] + w[i + 2:], i))
            w[i:i + 2] = [("c", P.c[pair]), ("v", lo), ("v", j)]
            if i:
                i -= 1
        if dead:
            continue
        # irreducible: at most one coefficient, at the front, then sorted vars
        if w and w[0][0] == "c":
            a = w[0][1]
            vs = w[1:]
        else:
            a = R.one
            vs = w
        alpha = [0] * n
        for _, v in vs:
            alpha[v] += 1
        key = tuple(alpha)
        s = add_t[terms.get(key, zero)][a]
        if s == zero:
            terms.pop(key, None)
        else:
            terms[key] = s
    return terms


def normalize(P: SkewPbwPresentation, word) -> "SkewPoly":
    """Normal form of a single generator word as a polynomial."""
    return SkewPoly(P, _normalize_terms(P, word))


def _rewrite_once(P: SkewPbwPresentation, word, pos: int) -> list:
    """Apply the single applicable rewrite rule at pos; returns summand words."""
    R = P.ring
    zero = R.zero
    w = list(word)
    k1, v1 = w[pos]
    k2, v2 = w[pos + 1]
    out = []
    if k1 == "c" and k2 == "c":
        m = R.mul_table[v1][v2]
        if m != zero:
            out.append(w[:pos] + [("c", m)] + w[pos + 2:])
        return out
    if k1 == "v" and k2 == "c":
        s = P.sigma_tables[v1][v2]
        d = P.delta_tables[v1][v2]
        if s != zero:
            out.append(w[:pos] + [("c", s), ("v", v1)] + w[pos + 2:])
        if d != zero:
            out.append(w[:pos] + [("c", d)] + w[pos + 2:])
        return out
    if k1 == "v" and k2 == "v" and v1 > v2:
        pair = (v2, v1)
        out.append(w[:pos] + [("c", P.c[pair]), ("v", v2), ("v", v1)] + w[pos + 2:])
        lin = P.d_linear[pair]
        for k in range(P.n):
            if lin[k] != zero:
                out.append(w[:pos] + [("c", lin[k]), ("v", k)] + w[pos + 2:])
        if P.d_const[pair] != zero:
            out.append(w[:pos] + [("c", P.d_const[pair])] + w[pos + 2:])
        return out
    raise EngineInvariantError(f"no redex at position {pos}")


# ---------------------------------------------------------------------------
# polynomials


class SkewPoly:
    """A normal-form element: a left R-combination of sorted monomials.

    Instances are immutable by convention; arithmetic returns new objects.
    """

    __slots__ = ("presentation", "terms")

    def __init__(self, presentation: SkewPbwPresentation, terms: dict):
        self.presentation = presentation
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def items_descending(self):
        key = monomial.sort_key(self.presentation.order)
        return [(a, self.terms[a]) for a in sorted(self.terms, key=key, reverse=True)]

    def lm(self):
        """Leading exponent, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.terms, key=monomial.sort_key(self.presentation.order))

    def lc(self) -> int:
        if not self.terms:
            return self.presentation.ring.zero
        return self.terms[self.lm()]

    def exp(self):
        return self.lm()

    def deg(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(a) for a in self.terms)

    def constant_coefficient(self) -> int:
        return self.terms.get((0,) * self.presentation.n, self.presentation.ring.zero)

    def coefficient(self, alpha) -> int:
        return self.terms.get(tuple(alpha), self.presentation.ring.zero)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(other))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    def __eq__(self, other):
        return (isinstance(other, SkewPoly)
                and self.presentation is other.presentation
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.presentation), tuple(sorted(self.terms.items()))))

    def to_string(self) -> str:
        return _poly_string(self.presentation.ring, self.presentation.order,
                            self.terms, coeff_name=self.presentation.ring.safe_name)

    def __repr__(self):
        return f"SkewPoly({self.to_string()})"


def _poly_string(ring, order, terms, coeff_name) -> str:
    if not terms:
        return "0"
    key = monomial.sort_key(order)
    parts = []
    for alpha in sorted(terms, key=key, reverse=True):
        c = terms[alpha]
        vs = "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                      for i, e in enumerate(alpha) if e)
        if not vs:
            parts.append(coeff_name(c))
        elif c == ring.one:
            parts.append(vs)
        else:
            parts.append(f"{coeff_name(c)}*{vs}")
    return " + ".join(parts)


def _same_presentation(f: SkewPoly, g: SkewPoly):
    if f.presentation is not g.presentation:
        raise PresentationMismatch("operands come from different presentations")


def add(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    _same_presentation(f, g)
    R = f.presentation.ring
    out = dict(f.terms)
    for a, v in g.terms.items():
        s = R.add_table[out.get(a, R.zero)][v]
        if s == R.zero:
            out.pop(a, None)
        else:
            out[a] = s
    return SkewPoly(f.presentation, out)


def neg(f: SkewPoly) -> SkewPoly:
    R = f.presentation.ring
    return SkewPoly(f.presentation, {a: R.neg(v) for a, v in f.terms.items()})


def scalar_mul_left(r: int, f: SkewPoly) -> SkewPoly:
    R = f.presentation.ring
    out = {}
    for a, v in f.terms.items():
        s = R.mul_table[r][v]
        if s != R.zero:
            out[a] = s
    return SkewPoly(f.presentation, out)


def mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Product via the memoized x^a * r * x^b tables; bilinear over terms."""
    _same_presentation(f, g)
    P = f.presentation
    R = P.ring
    add_t, mul_t, zero = R.add_table, R.mul_table, R.zero
    out = {}
    for alpha, a in f.terms.items():
        for beta, b in g.terms.items():
            for gamma, w in P.triple(alpha, b, beta):
                out[gamma] = add_t[out.get(gamma, zero)][mul_t[a][w]]
    return SkewPoly(P, {k: v for k, v in out.items() if v != zero})


def alpha_commute(P: SkewPbwPresentation, alpha, r: int):
    """Split x^alpha * r into (sigma^alpha(r), p) with x^a r = s(r) x^a + p.

    deg p < |alpha| always holds; the split is cross-checked against the
    directly composed sigma power and violations raise EngineInvariantError.
    """
    alpha = tuple(alpha)
    nf = dict(P.push(alpha, r))
    r_alpha = P.sigma_power(alpha, r)
    got = nf.pop(alpha, P.ring.zero)
    if got != r_alpha:
        raise EngineInvariantError(
            f"x^{alpha} * {r}: normal form disagrees with sigma^alpha")
    p = SkewPoly(P, nf)
    d = p.deg()
    if d is not None and d >= monomial.degree(alpha):
        raise EngineInvariantError("remainder of alpha_commute has full degree")
    return r_alpha, p


def monomial_product(P: SkewPbwPresentation, alpha, beta):
    """Split x^alpha * x^beta into (c, p) with x^a x^b = c x^(a+b) + p.

    For bijective presentations c is two-sided invertible (checked).
    """
    alpha, beta = tuple(alpha), tuple(beta)
    nf = dict(P.mono_prod(alpha, beta))
    top = monomial.add(alpha, beta)
    c = nf.pop(top, P.ring.zero)
    if P.bijective and not is_two_sided_invertible(P.ring, c):
        raise EngineInvariantError(
            f"x^{alpha} * x^{beta}: leading scalar not invertible on a "
            "bijective presentation")
    p = SkewPoly(P, nf)
    d = p.deg()
    if d is not None and d >= monomial.degree(top):
        raise EngineInvariantError("remainder of monomial_product has full degree")
    return c, p


# ---------------------------------------------------------------------------
# presentation validation and consistency


@dataclass(frozen=True)
class ConsistencyReport:
    certified: bool
    bound: int
    witness: dict | None = None


def _sum_normal_forms(P, words) -> SkewPoly:
    total = P.zero_poly()
    for w in words:
        total = add(total, normalize(P, w))
    return total


def check_consistency(P: SkewPbwPresentation, bound: int = 4,
                      samples: int = 20, seed: int = 0) -> ConsistencyReport:
    """Confluence scan for the rewriting system of a presentation.

    Exhaustively compares the two one-step evaluations of every overlap word
    x_k x_j x_i (k > j > i) and x_j x_i r (j > i, all r in R), then fuzzes
    associativity of multiplication on random triples of degree <= bound.
    Returns a certificate or a witness word with its two distinct values.
    """
    n = P.n
    R = P.ring

    def word_repr(w):
        return [list(t) for t in w]

    for k in range(n):
        for j in range(k):
            for i in range(j):
                w = [("v", k), ("v", j), ("v", i)]
                a = _sum_normal_forms(P, _rewrite_once(P, w, 0))
                b = _sum_normal_forms(P, _rewrite_once(P, w, 1))
                if a != b:
                    return ConsistencyReport(False, bound, {
                        "word": word_repr(w),
                        "first": sorted(a.terms.items()),
                        "second": sorted(b.terms.items())})
    for j in range(n):
        for i in range(j):
            for r in R.elements():
                w = [("v", j), ("v", i), ("c", r)]
                a = _sum_normal_forms(P, _rewrite_once(P, w, 0))
                b = _sum_normal_forms(P, _rewrite_once(P, w, 1))
                if a != b:
                    return ConsistencyReport(False, bound, {
                        "word": word_repr(w),
                        "first": sorted(a.terms.items()),
                        "second": sorted(b.terms.items())})

    rng = random.Random(seed)

    def random_poly():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            alpha = [0] * n
            for _ in range(rng.randrange(0, bound + 1)):
                alpha[rng.randrange(n)] += 1
            if sum(alpha) > bound:
                continue
            terms[tuple(alpha)] = rng.randrange(R.order)
        return P.from_terms(terms)

    for _ in range(samples):
        f, g, h = random_poly(), random_poly(), random_poly()
        lhs = mul(mul(f, g), h)
        rhs = mul(f, mul(g, h))
        if lhs != rhs:
            return ConsistencyReport(False, bound, {
                "assoc_triple": [sorted(f.terms.items()),
                                 sorted(g.terms.items()),
                                 sorted(h.terms.items())],
                "first": sorted(lhs.terms.items()),
                "second": sorted(rhs.terms.items())})
    return ConsistencyReport(True, bound, None)


def validate_presentation(ring: FiniteRing, sigmas, deltas, relations=None,
                          order: MonomialOrder | None = None, label: str = "",
                          expect_quasi_commutative: bool | None = None,
                          expect_bijective: bool | None = None,
                          consistency_bound: int = 4,
                          consistency_samples: int = 20,
                          seed: int = 0) -> SkewPbwPresentation:
    """Cross-validate presentation data and certify rewriting consistency.

    sigmas and deltas are validated RingMaps (see finring); relations maps
    each 0-based pair (i, j) with i < j to either the scalar c_ij or a tuple
    (c_ij, r0_ij, linear) where linear is a length-n tuple of coefficients.
    """
    n = len(sigmas)
    if n == 0 or len(deltas) != n:
        raise ValidationError("bad_presentation",
                              message="need one sigma and one delta per variable")
    for i, s in enumerate(sigmas):
        if not isinstance(s, RingMap) or s.kind != "endomorphism" or s.ring is not ring:
            raise ValidationError("not_endomorphism", witness=i)
    for i, d in enumerate(deltas):
        if (not isinstance(d, RingMap) or d.kind != "sigma_derivation"
                or d.ring is not ring or d.base_table != sigmas[i].table):
            raise ValidationError("not_sigma_derivation", witness=i)

    relations = dict(relations or {})
    c, d_const, d_linear = {}, {}, {}
    expected_pairs = {(i, j) for j in range(n) for i in range(j)}
    for pair in relations:
        if pair not in expected_pairs:
            raise ValidationError("bad_relation", witness=pair)
    for pair in sorted(expected_pairs):
        if pair not in relations:
            raise ValidationError("missing_relation", witness=pair)
        val = relations[pair]
        if isinstance(val, int):
            cij, r0, lin = val, ring.zero, (ring.zero,) * n
        else:
            cij, r0, lin = val
            lin = tuple(lin)
        if not 0 <= cij < ring.order or cij == ring.zero:
            raise ValidationError("zero_cij", witness=pair)
        if not 0 <= r0 < ring.order or len(lin) != n or \
                any(not 0 <= v < ring.order for v in lin):
            raise ValidationError("bad_relation", witness=pair)
        c[pair], d_const[pair], d_linear[pair] = cij, r0, lin

    if order is None:
        order = default_order(n)
    if len(order.precedence) != n:
        raise ValidationError("bad_order", witness=order.precedence)

    quasi_commutative = (all(d.is_zero() for d in deltas)
                         and all(v == ring.zero for v in d_const.values())
                         and all(all(x == ring.zero for x in lin)
                                 for lin in d_linear.values()))
    bijective = all(is_two_sided_invertible(ring, v) for v in c.values())
    if expect_quasi_commutative is not None and \
            expect_quasi_commutative != quasi_commutative:
        raise ValidationError("quasi_commutative_violation",
                              witness=quasi_commutative)
    if expect_bijective is not None and expect_bijective != bijective:
        raise ValidationError("bijective_violation", witness=bijective)

    P = SkewPbwPresentation(ring, sigmas, deltas, c, d_const, d_linear, order,
                            quasi_commutative, bijective, label=label)
    report = check_consistency(P, bound=consistency_bound,
                               samples=consistency_samples, seed=seed)
    if not report.certified:
        raise ValidationError("inconsistent_presentation", witness=report.witness)
    P.consistency_certificate = report.bound
    return P

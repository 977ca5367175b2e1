"""Skew PBW extension presentations and exact polynomial arithmetic.

A presentation over a finite ring R consists of n variables x_1..x_n, one
endomorphism sigma_i and one sigma_i-derivation delta_i per variable, and for
each pair i < j a quadratic relation

    x_j x_i  =  c_ij x_i x_j  +  sum_k r^k_ij x_k  +  r^0_ij        (c_ij != 0)

together with the coefficient commutation law

    x_i r  =  sigma_i(r) x_i  +  delta_i(r)                         (r in R).

Every element of the extension has a unique normal form: a left R-linear
combination of sorted monomials x_1^a1 .. x_n^an.  The two rules above are
stated once, by :func:`_rewrite`: given a redex pair x_i r, or x_j x_i with
j > i, it returns the nonzero summand words of the rule's right side.
Normal forms come from memoized tables filled one rule at a time.  With j
the last variable of x^alpha, :meth:`SkewPbwPresentation.push` rewrites
x^alpha r as x^(alpha - e_j) (sigma_j(r) x_j + delta_j(r)).  The one-letter
entries of :meth:`SkewPbwPresentation.mono_prod` rewrite x^gamma x_j, for a
last variable l > j of gamma, as x^(gamma - e_l) (c_jl x_j x_l + sum_k
r^k_jl x_k + r^0_jl).  Each summand word is then folded left to right, one
token at a time, through smaller entries (:func:`_fold`); longer monomial
products are the same fold.  A push entry of degree d reads push entries of
degree d - 1 and one-letter entries of product degree at most d; a
one-letter entry of product degree d reads push entries of degree d - 2,
one-letter entries of product degree at most d - 1, and sorted
concatenations, which are their own normal forms.  So the tables fill on
every presentation, with fills nested to a bounded depth (:func:`_fill`).
Each step rewrites one subword by one rule, so on a presentation that
:func:`check_consistency` certifies confluent the tables give the unique
normal form, whatever the order of the steps; that check rewrites each
overlap word at its first and at its second letter through the same
:func:`_rewrite`.

Polynomials are term dicts on sorted monomials; :class:`TermPoly` holds
what ring and module polynomials share (comparison, addition, degree and
leading data, printing), and :class:`SkewPoly` adds the product.  Products
expand term pairs through one loop, :func:`term_products`, which the ring
product, the module action (:func:`spbw.polymodule.act`) and the bounded
searches (:mod:`spbw.bounded`) all call with their own scale and add tables.
It reads the triple table itself, one lookup per term pair, and calls
:meth:`SkewPbwPresentation.triple` only to fill a missing entry.

Variables are 0-based in this API; the textual syntax x1..xn used by the
command line layer is 1-based.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import monomial
from .errors import (EngineInvariantError, PresentationMismatch,
                     ValidationError)
from .finring import FiniteRing, RingMap, is_two_sided_invertible
from .monomial import MonomialOrder, default_order

# Most variables a presentation may have.  Validation scans O(n^3) overlap
# words and O(n^2) relations, which stays within seconds up to this cap.
HARD_VARIABLE_CAP = 64


class SkewPbwPresentation:
    """Validated presentation data plus memoized rewriting tables.

    Use :func:`validate_presentation` to construct one.  The three caches
    (push, mono_prod, triple) hold normal forms of x^a * r, x^a * x^b and
    x^a * r * x^b respectively; every product in the package funnels through
    them, which is what makes the exhaustive deciders affordable.
    """

    def __init__(self, ring, sigmas, deltas, c, d_const, d_linear, order,
                 label=""):
        self.ring = ring
        self.n = len(sigmas)
        self.sigma_tables = tuple(s.table for s in sigmas)
        self.delta_tables = tuple(d.table for d in deltas)
        self.c = dict(c)
        self.d_const = dict(d_const)
        self.d_linear = dict(d_linear)
        self.order = order
        # every delta_i and every relation's d_ij is zero
        self.quasi_commutative = all(
            v == ring.zero for row in (*self.delta_tables, self.d_const.values(),
                                       *self.d_linear.values()) for v in row)
        self.bijective = all(is_two_sided_invertible(ring, v) for v in self.c.values())
        self.label = label
        self.consistency_certificate = 0
        self._push_cache = {}
        self._prod_cache = {}
        self._triple_cache = {}
        self._depth = 0   # nested fills running, see _fill
        self.units = tuple(tuple(int(i == k) for k in range(self.n))
                           for i in range(self.n))

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
        return SkewPoly(self, collect_terms(self.ring, self.n, terms))

    # -- memoized normal form tables --------------------------------------

    def sigma_power(self, alpha, r: int) -> int:
        """sigma^alpha(r): sigma_n applied first, sigma_1 last."""
        for i in range(self.n - 1, -1, -1):
            t = self.sigma_tables[i]
            for _ in range(alpha[i]):
                r = t[r]
        return r

    def push(self, alpha, r: int):
        """Normal form of x^alpha * r as a sorted tuple of (exponent, coeff).

        With j the last variable of alpha, one rule application gives
        x^alpha r = x^(alpha - e_j) (sigma_j(r) x_j + delta_j(r)), and
        :func:`_fold` reads both summands off shorter entries."""
        key = (alpha, r)
        hit = self._push_cache.get(key)
        if hit is None:
            j = _last_variable(alpha)
            if r == self.ring.zero:
                hit = ()
            elif j < 0:
                hit = ((alpha, r),)
            else:
                hit = _fill(self, self._push_cache, key, _drop(alpha, j),
                            _rewrite(self, ("v", j), ("c", r)))
            self._push_cache[key] = hit
        return hit

    def mono_prod(self, alpha, beta):
        """Normal form of x^alpha * x^beta, same shape as :meth:`push`.

        A sorted concatenation is its own normal form.  For one letter x_j
        after a last variable l > j of alpha, one rule application gives
        x^alpha x_j = x^(alpha - e_l) (c_jl x_j x_l + sum_k r^k_jl x_k +
        r^0_jl).  A longer beta is folded letter by letter, in one loop, from
        the one-letter entries."""
        key = (alpha, beta)
        hit = self._prod_cache.get(key)
        if hit is None:
            l = _last_variable(alpha)
            first = next(filter(None, beta), 0)   # first nonzero exponent
            j = beta.index(first) if first else self.n
            if l <= j:
                hit = ((monomial.add(alpha, beta), self.ring.one),)
            elif sum(beta) == 1:
                hit = _fill(self, self._prod_cache, key, _drop(alpha, l),
                            _rewrite(self, ("v", l), ("v", j)))
            else:
                hit = _fill(self, self._prod_cache, key, alpha,
                            [[("v", i) for i, e in enumerate(beta)
                              for _ in range(e)]])
            self._prod_cache[key] = hit
        return hit

    def triple(self, alpha, r: int, beta):
        """Normal form of x^alpha * r * x^beta, from the push row of x^alpha
        r and the mono_prod rows of its terms.  :func:`term_products` reads
        this table itself and calls here only to fill an entry."""
        key = (alpha, r, beta)
        hit = self._triple_cache.get(key)
        if hit is None:
            R = self.ring
            add_t, mul_t, zero = R.add_table, R.mul_table, R.zero
            row = self.push(alpha, r)
            if len(row) == 1:   # a sorted row, scaled, keeps its order
                (theta, t), = row
                scale = mul_t[t]
                hit = tuple((g, scale[u]) for g, u in self.mono_prod(theta, beta)
                            if scale[u] != zero)
            else:
                out = {}
                for theta, t in row:
                    for gamma, u in self.mono_prod(theta, beta):
                        out[gamma] = add_t[out.get(gamma, zero)][mul_t[t][u]]
                hit = tuple(sorted((g, v) for g, v in out.items()
                                   if v != zero))
            self._triple_cache[key] = hit
        return hit

    def __repr__(self):
        return f"SkewPbwPresentation({self.label or self.ring.label}, n={self.n})"


# ---------------------------------------------------------------------------
# one-letter rewriting


def _last_variable(alpha) -> int:
    """Index of the last variable of x^alpha; -1 for alpha = 0."""
    j = len(alpha) - 1
    while j >= 0 and not alpha[j]:
        j -= 1
    return j


def _drop(alpha, j: int) -> tuple:
    """alpha - e_j."""
    return alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]


class _TooDeep(Exception):
    """Raised by a fill nested `limit` deep, three Python frames each;
    args: its (cache, key, head, words)."""
    limit = 100


def _fill(P: SkewPbwPresentation, cache: dict, key, head, words) -> tuple:
    """Entry `key` of `cache`, the fold of (head, words); the caller keeps
    it.  The fold fills missing entries by nested calls.  One nested too
    deep is handed to the outermost fill, which keeps it and runs the
    unfinished folds again: the call depth stays bounded, and the entries
    are kept in the order of plain nested calls."""
    if P._depth:
        if P._depth == _TooDeep.limit:
            raise _TooDeep(cache, key, head, words)
        P._depth += 1
        try:
            return _fold(P, head, words)
        finally:
            P._depth -= 1
    todo = []
    while True:
        P._depth = 1
        try:
            value = _fold(P, head, words)
        except _TooDeep as deep:
            todo.append((cache, key, head, words))
            cache, key, head, words = deep.args
            continue
        finally:
            P._depth = 0
        if not todo:
            return value
        cache[key] = value
        cache, key, head, words = todo.pop()


def _fold(P: SkewPbwPresentation, head, words) -> tuple:
    """Normal form of the sum of x^head * w over the generator words w, as
    sorted (exponent, coeff) pairs.  Each word is a left fold over its
    tokens: ("c", r) right-multiplies every term through :meth:`push`,
    ("v", i) through the one-letter entries of :meth:`mono_prod`."""
    R = P.ring
    add_t, mul_t, zero = R.add_table, R.mul_table, R.zero
    total = {}
    for word in words:
        terms = {head: R.one}
        for kind, v in word:
            if kind == "c":
                table, arg = P.push, v
            else:
                table, arg = P.mono_prod, P.units[v]
            out = {}
            for theta, t in terms.items():
                if t != zero:
                    row = mul_t[t]
                    for eta, u in table(theta, arg):
                        out[eta] = add_t[out.get(eta, zero)][row[u]]
            terms = out
        for eta, t in terms.items():
            total[eta] = add_t[total.get(eta, zero)][t]
    return tuple(sorted((g, v) for g, v in total.items() if v != zero))


def _rewrite(P: SkewPbwPresentation, a, b) -> list:
    """The nonzero summand words of the one rule for the redex a b:
    x_i r = sigma_i(r) x_i + delta_i(r) for a = ("v", i), b = ("c", r), and
    x_j x_i = c_ij x_i x_j + sum_k r^k_ij x_k + r^0_ij for a = ("v", j),
    b = ("v", i), j > i."""
    j, v = a[1], b[1]
    if b[0] == "c":
        out = [[("c", P.sigma_tables[j][v]), a], [("c", P.delta_tables[j][v])]]
    else:
        pair = (v, j)
        out = [[("c", P.c[pair]), b, a]]
        out += [[("c", r), ("v", k)] for k, r in enumerate(P.d_linear[pair])]
        out.append([("c", P.d_const[pair])])
    return [w for w in out if w[0][1] != P.ring.zero]


# ---------------------------------------------------------------------------
# polynomials


class TermPoly:
    """A term dict {exponent: nonzero coefficient} on sorted monomials.

    The part that :class:`SkewPoly` (coefficients in the ring R) and
    :class:`spbw.polymodule.ModulePoly` (coefficients in a module M) share.
    A subclass names its coefficient carrier (an
    :class:`spbw.finring.AdditiveCarrier`) and how to rebuild itself from a
    term dict.  Instances are immutable by convention; arithmetic returns
    new objects.
    """

    __slots__ = ("presentation", "terms")
    # The coefficient a printed term may leave out: the ring's 1 for ring
    # coefficients; none for module coefficients, whose terms must start
    # with a module element.
    _implicit_coefficient = None

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
            return self.carrier.zero
        return self.terms[self.lm()]

    def deg(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(a) for a in self.terms)

    def constant_coefficient(self) -> int:
        return self.terms.get((0,) * self.presentation.n, self.carrier.zero)

    def coefficient(self, alpha) -> int:
        return self.terms.get(tuple(alpha), self.carrier.zero)

    def __add__(self, other):
        if (self.presentation is not other.presentation
                or self.carrier is not other.carrier):
            raise PresentationMismatch(
                "operands come from different presentations or modules")
        C = self.carrier
        out = dict(self.terms)
        for a, v in other.terms.items():
            s = C.add_table[out.get(a, C.zero)][v]
            if s == C.zero:
                out.pop(a, None)
            else:
                out[a] = s
        return self._with(out)

    def __neg__(self):
        C = self.carrier
        return self._with({a: C.neg(v) for a, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (isinstance(other, TermPoly)
                and self.presentation is other.presentation
                and self.carrier is other.carrier
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.carrier), id(self.presentation),
                     tuple(sorted(self.terms.items()))))

    def to_string(self) -> str:
        """Polynomial-literal text, coefficients spelled by `safe_name`."""
        if not self.terms:
            return "0"
        coeff_name = self.carrier.safe_name
        parts = []
        for alpha, c in self.items_descending():
            vs = "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                          for i, e in enumerate(alpha) if e)
            if not vs:
                parts.append(coeff_name(c))
            elif c == self._implicit_coefficient:
                parts.append(vs)
            else:
                parts.append(f"{coeff_name(c)}*{vs}")
        return " + ".join(parts)

    def to_json(self, coeff_name) -> dict:
        """{"text": to_string(), "terms": [[exponent, coeff_name(c)], ...]},
        terms in descending monomial order."""
        return {"text": self.to_string(),
                "terms": [[list(a), coeff_name(c)]
                          for a, c in self.items_descending()]}

    def __repr__(self):
        return f"{type(self).__name__}({self.to_string()})"


def collect_terms(carrier, n: int, terms) -> dict:
    """Validate (exponent, coefficient) pairs, given as a dict or a pair
    list, into a term dict: repeated exponents are summed, zeros dropped."""
    out = {}
    items = terms.items() if hasattr(terms, "items") else terms
    for alpha, c in items:
        alpha = tuple(alpha)
        if len(alpha) != n or any(e < 0 for e in alpha):
            raise ValidationError("bad_exponent", witness=alpha)
        if not 0 <= c < carrier.order:
            raise ValidationError("bad_coefficient", witness=c)
        out[alpha] = carrier.add_table[out.get(alpha, carrier.zero)][c]
    return {a: v for a, v in out.items() if v != carrier.zero}


class SkewPoly(TermPoly):
    """A normal-form element: a left R-combination of sorted monomials."""

    __slots__ = ()

    def __init__(self, presentation: SkewPbwPresentation, terms: dict):
        self.presentation = presentation
        self.terms = terms

    @property
    def carrier(self) -> FiniteRing:
        return self.presentation.ring

    @property
    def _implicit_coefficient(self) -> int:
        return self.presentation.ring.one

    def _with(self, terms: dict) -> "SkewPoly":
        return SkewPoly(self.presentation, terms)

    def exp(self):
        return self.lm()

    def __mul__(self, other):
        return mul(self, other)


def _same_presentation(f: SkewPoly, g: SkewPoly):
    if f.presentation is not g.presentation:
        raise PresentationMismatch("operands come from different presentations")


def add(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    return f + g


def neg(f: SkewPoly) -> SkewPoly:
    return -f


def term_products(P: SkewPbwPresentation, left, right, scale, add,
                  zero) -> dict:
    """The one term-product loop: sum of a * (x^alpha b x^beta) over the
    term pairs (alpha, a) of `left` and (beta, b) of `right`, as {gamma:
    sum} (zero sums kept).  a times a coefficient w is scale[a][w]: the
    ring's mul table gives the product in A, a module's action table the
    action on M<X>.  Each pair reads the triple table with one lookup and
    calls :meth:`SkewPbwPresentation.triple` only to fill a missing entry."""
    read, fill = P._triple_cache.get, P.triple
    out = {}
    for alpha, a in left:
        row = scale[a]
        for beta, b in right:
            terms = read((alpha, b, beta))
            if terms is None:
                terms = fill(alpha, b, beta)
            for gamma, w in terms:
                out[gamma] = add[out.get(gamma, zero)][row[w]]
    return out


def mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Product via the memoized x^a * r * x^b tables; bilinear over terms."""
    _same_presentation(f, g)
    P = f.presentation
    R = P.ring
    out = term_products(P, f.terms.items(), g.terms.items(), R.mul_table,
                        R.add_table, R.zero)
    return SkewPoly(P, {k: v for k, v in out.items() if v != R.zero})


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


# ---------------------------------------------------------------------------
# presentation validation and consistency


@dataclass(frozen=True)
class ConsistencyReport:
    certified: bool
    bound: int
    witness: dict | None = None


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

    overlaps = [[("v", k), ("v", j), ("v", i)]
                for k in range(n) for j in range(k) for i in range(j)]
    overlaps += [[("v", j), ("v", i), ("c", r)]
                 for j in range(n) for i in range(j) for r in R.elements()]
    origin = (0,) * n
    for w in overlaps:
        a = list(_fold(P, origin, [s + w[2:] for s in _rewrite(P, *w[:2])]))
        b = list(_fold(P, origin, [w[:1] + s for s in _rewrite(P, *w[1:])]))
        if a != b:
            return ConsistencyReport(False, bound, {
                "word": word_repr(w), "first": a, "second": b})

    rng = random.Random(seed)

    def random_poly():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            alpha = [0] * n
            for _ in range(rng.randrange(0, bound + 1)):
                alpha[rng.randrange(n)] += 1
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


def check_variable_cap(n: int) -> None:
    """Refuse more than HARD_VARIABLE_CAP variables, before any
    per-variable data is built."""
    if n > HARD_VARIABLE_CAP:
        raise ValidationError("bad_presentation", witness=n,
                              message=f"{n} variables exceed cap {HARD_VARIABLE_CAP}")


def validate_presentation(ring: FiniteRing, sigmas, deltas, relations=None,
                          order: MonomialOrder | None = None, label: str = "",
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
    check_variable_cap(n)
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

    P = SkewPbwPresentation(ring, sigmas, deltas, c, d_const, d_linear, order,
                            label=label)
    report = check_consistency(P, seed=seed)
    if not report.certified:
        raise ValidationError("inconsistent_presentation", witness=report.witness)
    P.consistency_certificate = report.bound
    return P

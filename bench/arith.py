"""The `arith` workload: seeded products and actions, checked by closed forms.

Ops are drawn from the seed as plain data (exponent tuples and element
indices) before any presentation exists; each pass parses fresh instances
and turns the data into polynomials, so the program receives only the
generated inputs.
"""

from __future__ import annotations

import random
from math import comb, factorial

# The first Weyl algebra A1(Z5): x2 x1 = x1 x2 + 1.  Owned by the benchmark
# because no corpus instance has a nonzero constant relation term.
WEYL_A1_Z5 = """{
  "label": "weyl-a1-z5",
  "ring": "Z5",
  "variables": 2,
  "relations": {"1,2": {"c": "1", "const": "1"}},
  "module": "regular"
}
"""

# name -> (max total degree of a random polynomial, products, actions).
# A1(Z5) rewriting cost grows exponentially with degree, so it stays low.
SIZES = {
    "full": {"quantum-plane-z5": (4, 240, 120),
             "weyl-dual-quotient": (6, 240, 120),
             "weyl-a1-z5": (4, 240, 120)},
    "smoke": {"quantum-plane-z5": (2, 6, 3),
              "weyl-dual-quotient": (2, 6, 3),
              "weyl-a1-z5": (2, 6, 3)},
}
# Every random polynomial has this many terms, so op costs vary little
# from seed to seed.
TERMS = 5
# Every monomial product x2^a * x1^b with a, b <= this is an op checked
# against its closed form.  The set is fixed, not drawn, because the large
# exponents dominate the cold pass.
CLOSED_FORM_EXP = 5
ASSOC_SAMPLES = 6
ASSOC_DEGREE = 2


def instance_texts(corpus) -> dict:
    return {"quantum-plane-z5": corpus.load("quantum-plane-z5"),
            "weyl-dual-quotient": corpus.load("weyl-dual-quotient"),
            "weyl-a1-z5": WEYL_A1_Z5}


def monomials(n: int, d: int) -> list:
    out = [()]
    for _ in range(n):
        out = [a + (e,) for a in out for e in range(d + 1)]
    return sorted(a for a in out if sum(a) <= d)


def closed_form(name: str, a: int, b: int) -> dict | None:
    """Normal form of x2^a * x1^b as {exponent: Z5 value}, or None."""
    if name == "quantum-plane-z5":
        # x2 x1 = 2 x1 x2, so x2^a x1^b = 2^(ab) x1^b x2^a.
        return {(b, a): pow(2, a * b, 5)}
    if name == "weyl-a1-z5":
        # Normal ordering in the Weyl algebra with x2 acting as d/dx1.
        out = {}
        for k in range(min(a, b) + 1):
            c = factorial(k) * comb(a, k) * comb(b, k) % 5
            if c:
                out[(b - k, a - k)] = c
        return out
    return None


class OpList:
    """Seeded ops for one instance, as data independent of any parse."""

    def __init__(self, name: str, n: int, ring_order: int, module_order: int,
                 size: str, rng: random.Random):
        d, n_mul, n_act = SIZES[size][name]
        basis = monomials(n, d)
        k = min(TERMS, len(basis))

        def terms(order):
            return tuple((alpha, rng.randrange(1, order))
                         for alpha in rng.sample(basis, k))

        # (kind, left terms, right terms, closed form or None)
        self.ops = []
        if closed_form(name, 0, 0) is not None:
            for a in range(CLOSED_FORM_EXP + 1):
                for b in range(CLOSED_FORM_EXP + 1):
                    self.ops.append(("mul", (((0, a), 1),), (((b, 0), 1),),
                                     closed_form(name, a, b)))
        self.ops += [("mul", terms(ring_order), terms(ring_order), None)
                     for _ in range(n_mul)]
        self.ops += [("act", terms(module_order), terms(ring_order), None)
                     for _ in range(n_act)]
        rng.shuffle(self.ops)
        # Associativity triples draw from a low-degree basis (`terms` reads
        # `basis` and `k` when called): products of products on A1(Z5) get
        # expensive.
        basis = monomials(n, ASSOC_DEGREE)
        k = min(TERMS, len(basis))
        self.assoc = [tuple(terms(ring_order) for _ in range(3))
                      for _ in range(ASSOC_SAMPLES)]
        self.assoc_act = [(terms(module_order), terms(ring_order),
                           terms(ring_order)) for _ in range(ASSOC_SAMPLES)]

    def calls(self, spbw, inst) -> list:
        """(function, left, right) triples bound to a freshly parsed instance."""
        P, M = inst.presentation, inst.module
        out = []
        for kind, left, right, _ in self.ops:
            if kind == "mul":
                out.append((spbw.mul, P.from_terms(left), P.from_terms(right)))
            else:
                out.append((spbw.act, spbw.module_poly(M, P, left),
                            P.from_terms(right)))
        return out

    def check(self, spbw, inst, cold: list, warm: list) -> int:
        """Number of failed outputs: closed forms, cold == warm, and the
        associativity laws on sampled triples."""
        P, M = inst.presentation, inst.module
        failed = 0
        for (_, _, _, expect), c, w in zip(self.ops, cold, warm):
            if c.terms != w.terms or (expect is not None and c.terms != expect):
                failed += 1
        for f, g, h in self.assoc:
            f, g, h = P.from_terms(f), P.from_terms(g), P.from_terms(h)
            if (spbw.mul(spbw.mul(f, g), h).terms
                    != spbw.mul(f, spbw.mul(g, h)).terms):
                failed += 1
        for m, f, g in self.assoc_act:
            m = spbw.module_poly(M, P, m)
            f, g = P.from_terms(f), P.from_terms(g)
            if (spbw.act(spbw.act(m, f), g).terms
                    != spbw.act(m, spbw.mul(f, g)).terms):
                failed += 1
        return failed

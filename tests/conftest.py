"""Shared fixtures: parsed corpus instances and the acceptance result ledger."""

import random
from pathlib import Path

import pytest

from spbw import corpus
from spbw.cli import parse_instance
from spbw.polymodule import module_poly, validate_module

# Presentations beyond the corpus, as instance text: the first Weyl algebra
# A1(Z5) (constant relation term), U(sl2) and U(osp(1,2)) over Z3 (linear
# relation terms; Lezama & Reyes, Comm. Algebra 42, 2014), read from their
# instance files under tests/instances, and the Z3 perturbation of U(sl2)'s
# shape that is not a skew PBW extension.
INSTANCES = Path(__file__).parent / "instances"
WEYL_A1_Z5 = """{"ring": "Z5", "variables": 2,
  "relations": {"1,2": {"c": "1", "const": "1"}}}"""
LIE_Z3 = (INSTANCES / "lie-sl2-z3.json").read_text(encoding="utf-8")
OSP_Z3 = (INSTANCES / "lie-osp12-z3.json").read_text(encoding="utf-8")
PERTURBED_Z3 = """{"ring": "Z3", "variables": 3, "relations": {
  "1,2": {"c": "1", "linear": ["0", "0", "1"]},
  "1,3": {"c": "2"}, "2,3": {"c": "1"}}}"""
# A Z8 presentation with the zero divisor c_12 = 4 and linear and constant
# relation terms, found by random search: it fails skew_quasi_armendariz at
# d=1, which no corpus instance does.
Z8_QUASI_ARMENDARIZ_FAILS = """{"ring": "Z8", "variables": 2,
  "relations": {"1,2": {"c": "4", "const": "2", "linear": ["6", "7"]}}}"""


# (number, description, passed, detail) tuples, printed in the terminal summary
ACCEPTANCE_RESULTS = []


@pytest.fixture(scope="session")
def acceptance_record():
    def record(num, description, passed, detail=""):
        ACCEPTANCE_RESULTS.append((num, description, bool(passed), detail))
        assert passed, f"criterion {num}: {description} [{detail}]"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, ok, detail in sorted(ACCEPTANCE_RESULTS):
        line = "criterion %2d: %s - %s" % (num, "PASS" if ok else "FAIL", desc)
        if detail:
            line += " (%s)" % detail
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def instances():
    return {name: parse_instance(corpus.load(name)) for name in corpus.names()}


@pytest.fixture(scope="session")
def z3(instances):
    return instances["z3-trivial"]


@pytest.fixture(scope="session")
def z4(instances):
    return instances["z4-regular"]


@pytest.fixture(scope="session")
def z6(instances):
    return instances["z6-commutative"]


@pytest.fixture(scope="session")
def swap(instances):
    return instances["z2xz2-swap"]


@pytest.fixture(scope="session")
def weyl(instances):
    return instances["weyl-dual-quotient"]


@pytest.fixture(scope="session")
def quantum(instances):
    return instances["quantum-plane-z5"]


def zero_module(ring):
    """The zero right module over `ring`: the edge case with one element."""
    return validate_module(ring, ((0,),), ((0,) * ring.order,),
                           label="0", names=("0",))


def module_constant(M, P, m):
    """The constant module polynomial m of M<X> over P."""
    return module_poly(M, P, [((0,) * P.n, m)])


def slice_products(ctx) -> list:
    """products[m_idx][r]: the packed m * r that `half_sums` lists over each
    phi[r] of `ctx.scalar_tables()`, the slice's action as its scans read it."""
    from spbw.bounded import half_sums

    return list(zip(*[half_sums(phi, ctx.vectors)
                      for phi in ctx.scalar_tables()]))


def packed_rows(ctx, rows: dict) -> dict:
    """`rows`, {m_idx: tuple of m-indices}, with every index packed as the
    slice's products are, so `oracles.slice_scalar_action` compares with
    `slice_products`."""
    def pack(idx):
        return ctx.vectors.pack((ctx.slot[g], v) for g, v in ctx.mterms(idx))

    return {m: tuple(map(pack, row)) for m, row in rows.items()}


def random_exponent(rng, n, max_deg):
    total = rng.randrange(max_deg + 1)
    alpha = [0] * n
    for _ in range(total):
        alpha[rng.randrange(n)] += 1
    return tuple(alpha)


def random_poly(rng, presentation, max_deg, max_terms):
    terms = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        alpha = random_exponent(rng, presentation.n, max_deg)
        terms.append((alpha, rng.randrange(presentation.ring.order)))
    return presentation.from_terms(terms)


def random_mpoly(rng, module, presentation, max_deg, max_terms):
    terms = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        alpha = random_exponent(rng, presentation.n, max_deg)
        terms.append((alpha, rng.randrange(module.order)))
    return module_poly(module, presentation, terms)


@pytest.fixture
def rng():
    return random.Random(0x5B77)

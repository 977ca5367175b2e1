"""Property deciders, theorem reports, and witness replay."""

import gc
import hashlib
import json
import random
import weakref
from collections import Counter
from functools import reduce
from itertools import combinations, product

import pytest

from spbw import corpus, properties
from spbw.annihilator import ann_in_r, principal_right_ideal
from spbw.bounded import (DEFAULT_MAX_SPACE, BoundedContext, context,
                          cyclic_factors, half_sums)
from spbw.cli import parse_instance
from spbw.errors import (EngineInvariantError, SearchSpaceTooLarge, TooLarge,
                         ValidationError)
from spbw.finring import (dual_z2, identity_map, idempotents,
                          upper_triangular, validate_endomorphism,
                          validate_sigma_derivation, zero_map, zmod,
                          zmod_product)
from spbw.polymodule import (act, cyclic_submodule, module_poly,
                             quotient_module, regular_module,
                             right_ideal_closure)
from spbw.properties import (
    CONFIRMED,
    DECIDERS,
    FAILS,
    HOLDS,
    HOLDS_UP_TO_BOUND,
    HYPOTHESIS_NOT_MET,
    SKIPPED,
    VACUOUS,
    VIOLATION,
    PropertyVerdict,
    _annihilator_correspondence,
    _armendariz_scan,
    _baer_family,
    _bounded_side,
    _bounded_sigma_reduced,
    _coefficientwise_scalar,
    _coefficientwise_scalar_scan,
    _generators_json,
    _map_annihilation,
    _meet_closure,
    _mixed_annihilator,
    _mixed_products_failure,
    _mpoly_from_struct,
    _poly_from_struct,
    _quasi_armendariz_failure,
    _quasi_commutative_annihilator,
    _reduced_failure,
    _torsion_constant,
    idempotent_stability,
    is_abelian,
    is_baer,
    is_delta_compatible,
    is_linearly_skew_armendariz,
    is_pp,
    is_pq_baer,
    is_quasi_baer,
    is_reduced,
    is_sigma_compatible,
    is_skew_armendariz_bounded,
    is_skew_quasi_armendariz_bounded,
    replay,
    theorem_suite,
)
from spbw.skewpbw import validate_presentation

import oracles
from conftest import (INSTANCES, Z8_QUASI_ARMENDARIZ_FAILS, packed_rows,
                      slice_products)
from test_annihilator import _z4_plus_z2

SUITE_ORDER = [
    "reduced_compatible_equivalence",
    "compatible_map_annihilation",
    "coefficientwise_scalar_annihilation",
    "reduced_module_polynomial_transfer",
    "reduced_compatible_armendariz",
    "armendariz_annihilator_extension",
    "linear_armendariz_idempotent_stability",
    "linear_armendariz_abelian",
    "armendariz_abelian",
    "reduced_pp_iff_pq_baer",
    "pp_polynomial_transfer",
    "baer_polynomial_transfer",
    "compatible_torsion_constant",
    "quasi_commutative_annihilator_structure",
    "quasi_baer_polynomial_transfer",
    "pq_baer_polynomial_transfer",
    "quasi_baer_quasi_armendariz",
]


# -- elementwise deciders ---------------------------------------------------


def test_reduced(z3, z4):
    assert is_reduced(z3.module).status == HOLDS
    v = is_reduced(z4.module)
    assert v.status == FAILS
    assert not v.holds
    assert v.witness == {"m": "2", "a": "2", "common": "2"}
    assert replay(z4.module, z4.presentation, v)


def test_sigma_compatible(swap, z3):
    assert is_sigma_compatible(z3.module, z3.presentation).holds
    v = is_sigma_compatible(swap.module, swap.presentation)
    assert v.status == FAILS
    assert set(v.witness) == {"m", "r", "map", "direction"}
    assert replay(swap.module, swap.presentation, v)
    # the other direction is not what the map does; an unknown one is refused
    flip = {"forward": "backward", "backward": "forward"}
    flipped = {**v.witness, "direction": flip[v.witness["direction"]]}
    assert replay(swap.module, swap.presentation,
                  PropertyVerdict(v.prop, FAILS, flipped, v.bound)) is False
    sideways = PropertyVerdict(v.prop, FAILS,
                               {**v.witness, "direction": "sideways"}, v.bound)
    with pytest.raises(ValidationError) as err:
        replay(swap.module, swap.presentation, sideways)
    assert err.value.kind == "bad_witness"


def test_delta_compatible(weyl, z4):
    assert is_delta_compatible(z4.module, z4.presentation).holds
    v = is_delta_compatible(weyl.module, weyl.presentation)
    assert v.status == FAILS
    # [1] y = 0 in R/(y) but [1] delta(y) = [1] 1 = [1]
    assert v.witness["m"] == "[1]" and v.witness["r"] == "y"
    assert replay(weyl.module, weyl.presentation, v)


def test_abelian(z6, swap):
    assert is_abelian(z6.module).holds
    # all idempotents of a commutative ring act centrally
    assert is_abelian(swap.module).holds
    ut = regular_module(upper_triangular(2, 2))
    v = is_abelian(ut)
    assert v.status == FAILS
    # abelian replay needs only the module, no presentation
    assert replay(ut, None, v) is True
    m = ut.element_index(v.witness["m"])
    r = ut.ring.element_index(v.witness["r"])
    e = ut.ring.element_index(v.witness["e"])
    assert ut.action_table[ut.action_table[m][r]][e] != \
        ut.action_table[ut.action_table[m][e]][r]


def test_idempotent_stability(z3, swap, weyl):
    assert idempotent_stability(z3.presentation).holds
    # delta(0) = 0 and delta(1) = 0 are forced, and the dual numbers have no
    # other idempotents, so the weyl presentation is stable
    assert idempotent_stability(weyl.presentation).holds
    v = idempotent_stability(swap.presentation)
    assert v.status == FAILS
    assert v.witness["kind"] == "sigma"
    assert replay(swap.module, swap.presentation, v)
    # the criterion's canonical witness: sigma swaps (1,0)
    ring = swap.presentation.ring
    e = ring.element_index("(1,0)")
    assert ring.mul(e, e) == e
    assert swap.presentation.sigma_tables[0][e] != e


def test_idempotent_stability_delta_kind():
    # an inner derivation [e12, -] on UT(2, Z2) fixes sigma = id but moves
    # the idempotent e22
    from spbw.finring import identity_map, validate_sigma_derivation
    from spbw.skewpbw import validate_presentation

    ut = upper_triangular(2, 2)
    e12 = ut.element_index("010")
    table = tuple(ut.sub(ut.mul(e12, x), ut.mul(x, e12)) for x in ut.elements())
    d = validate_sigma_derivation(ut, identity_map(ut), table)
    P = validate_presentation(ut, [identity_map(ut)], [d], {}, label="ut-inner")
    v = idempotent_stability(P)
    assert v.status == FAILS
    assert v.witness["kind"] == "delta"
    assert replay(regular_module(ut), P, v)


def _ut_quotient():
    ut = upper_triangular(2, 2)
    return quotient_module(ut, [ut.element_index("010")])


# (id, module maker): regular modules and quotients R/I beyond Z3, Z4, Z6
BAER_MODULES = [
    ("Z8", lambda: regular_module(zmod(8))),
    ("Z9", lambda: regular_module(zmod(9))),
    ("Z12", lambda: regular_module(zmod(12))),
    ("UT(2,Z2)", lambda: regular_module(upper_triangular(2, 2))),
    ("Z2xZ4", lambda: regular_module(zmod_product(2, 4))),
    ("Z8/(4)", lambda: quotient_module(zmod(8), [4])),
    ("UT(2,Z2)/e12R", _ut_quotient),
]


@pytest.mark.parametrize(
    "modmaker",
    [lambda: regular_module(zmod(3)), lambda: regular_module(zmod(4)),
     lambda: regular_module(zmod(6))] + [make for _, make in BAER_MODULES],
    ids=["Z3", "Z4", "Z6"] + [name for name, _ in BAER_MODULES])
def test_baer_family_matches_oracle(modmaker):
    M = modmaker()
    want = oracles.brute_baer_family(M)
    got = {"pp": is_pp(M), "pq_baer": is_pq_baer(M),
           "quasi_baer": is_quasi_baer(M), "baer": is_baer(M)}
    for prop, verdict in got.items():
        w_holds, _ = want[prop]
        assert verdict.holds == w_holds, prop
        if verdict.status == FAILS:
            assert replay(M, None, verdict) is True


def test_baer_family_product_ring(swap):
    M = swap.module
    want = oracles.brute_baer_family(M)
    assert is_pp(M).holds == want["pp"][0]
    assert is_baer(M).holds == want["baer"][0]
    assert is_quasi_baer(M).holds == want["quasi_baer"][0]
    assert is_pq_baer(M).holds == want["pq_baer"][0]


def test_pp_fails_on_z4_with_witness(z4):
    v = is_pp(z4.module)
    assert v.status == FAILS
    assert v.witness == {"m": "2", "annihilator": ["0", "2"]}
    assert replay(z4.module, z4.presentation, v)
    v2 = is_pq_baer(z4.module)
    assert v2.status == FAILS
    assert replay(z4.module, z4.presentation, v2)
    v3 = is_baer(z4.module)
    assert v3.status == FAILS
    assert replay(z4.module, z4.presentation, v3)
    v4 = is_quasi_baer(z4.module)
    assert v4.status == FAILS
    assert replay(z4.module, z4.presentation, v4)


def test_quasi_baer_order_guard(z6, monkeypatch):
    monkeypatch.setattr(properties, "DEFAULT_MAX_SUBMODULE_ORDER", 4)
    with pytest.raises(TooLarge):
        is_quasi_baer(z6.module)


# sha256 of json.dumps([v.to_json() for v in (pp, pq_baer, quasi_baer, baer)])
# per module, recorded before the exact deciders became the degree-0 case of
# the bounded annihilator families
EXACT_BAER_DIGESTS = {
    "Z8": "3815cd484b1ff8ffc2c65c1b7ef07f1c71b0395290f92e4d9f10290decb7080b",
    "Z9": "a5b2742dc678668cc6e7c7843faefd59bd7d2c4acdba00aa4a4844a5ba3ed3dd",
    "Z12": "e6fb2ac97fcdf702bc5f3d258a29ee0bb4473365682ec9a610ff0cdd8a227d79",
    "UT(2,Z2)":
        "5c300b12b62da75f9ab11f4786908b9f570fda3b191ff79a350bd1ec06aec893",
    "Z2xZ4":
        "a342d43db2f252a32a27b7a50da91e0e84796ca8faa916c030f3e6ec7f8fbd6b",
    "Z8/(4)":
        "6034d8325f275084cfd28ab5fcf2905adb7cc68918515baa225561e68b1688e4",
    "UT(2,Z2)/e12R":
        "70fe02bb4bf4a37c59dbf2550f860353fecf6d6ca3f5e39884be107a9c30f330",
    "quantum-plane-z5":
        "5c300b12b62da75f9ab11f4786908b9f570fda3b191ff79a350bd1ec06aec893",
    "weyl-dual-quotient":
        "685d906830ba4b02324778424d982232fc964936004a42d7c96c64dfcfc17398",
    "z2xz2-swap":
        "5c300b12b62da75f9ab11f4786908b9f570fda3b191ff79a350bd1ec06aec893",
    "z3-trivial":
        "5c300b12b62da75f9ab11f4786908b9f570fda3b191ff79a350bd1ec06aec893",
    "z4-regular":
        "91a8d96751a539482d4f34a0d300b5c6c8aa3aee30c0d57837470bab28763deb",
    "z6-commutative":
        "5c300b12b62da75f9ab11f4786908b9f570fda3b191ff79a350bd1ec06aec893",
}


def _baer_modules():
    """(id, module) for BAER_MODULES and the corpus modules."""
    return [(name, make()) for name, make in BAER_MODULES] + [
        (name, parse_instance(corpus.load(name)).module)
        for name in corpus.names()]


def _exact_baer_digest(M):
    verdicts = (is_pp(M), is_pq_baer(M), is_quasi_baer(M), is_baer(M))
    text = json.dumps([v.to_json() for v in verdicts])
    return hashlib.sha256(text.encode()).hexdigest()


def test_exact_baer_family_verdicts_are_pinned():
    got = {name: _exact_baer_digest(M) for name, M in _baer_modules()}
    assert got == EXACT_BAER_DIGESTS


def test_degree_zero_rows_are_annihilators_in_r():
    # context(M, None, 0) views R as an extension in no variables, so each
    # f_idx is a ring element and the rows are annihilators in R
    for name, M in _baer_modules():
        ctx = context(M, None, 0)
        kern, ann_am = ctx.kernel(), ctx.ann_am_rows()
        for m in M.elements():
            assert kern[m] == ann_in_r(M, {m}).elements, (name, m)
            cyc = cyclic_submodule(M, m).elements
            assert ann_am[m] == ann_in_r(M, cyc).elements, (name, m)


@pytest.mark.filterwarnings("ignore:ring of order 64")
def test_exact_baer_family_decides_z64_without_a_budget(monkeypatch):
    # no guard of the degree-0 families refuses an exact verdict; the
    # submodule cap is a separate constant, raised here
    monkeypatch.setattr(properties, "DEFAULT_MAX_SUBMODULE_ORDER", 64)
    M = regular_module(zmod(64))
    verdicts = [is_pp(M), is_pq_baer(M), is_quasi_baer(M), is_baer(M)]
    assert [v.status for v in verdicts] == [FAILS] * 4
    assert verdicts[0].witness == {"m": "2", "annihilator": ["0", "32"]}
    assert all(replay(M, None, v) for v in verdicts)


def test_exact_baer_family_shares_one_degree_zero_kernel(monkeypatch):
    calls = []
    tensor = BoundedContext.structure_tensor

    def counted(ctx):
        calls.append(ctx)
        return tensor(ctx)

    monkeypatch.setattr(BoundedContext, "structure_tensor", counted)
    M = regular_module(zmod(12))
    for decide in (is_pp, is_pq_baer, is_quasi_baer, is_baer):
        decide(M)
    assert len(calls) == 1 and calls[0] is context(M, None, 0)


def test_meet_closure_joins_witnesses_by_union():
    seeds = {frozenset({1, 2}): frozenset({"a"}),
             frozenset({2, 3}): frozenset({"b"})}
    got = _meet_closure(seeds, 4096)
    assert got == {**seeds, frozenset({2}): frozenset({"a", "b"})}
    with pytest.raises(SearchSpaceTooLarge):
        _meet_closure(seeds, 2)
    # {3} is the meet of all three seeds and of no two, so it appears only
    # in the second round
    seeds = {frozenset({1, 2, 3}): frozenset({"a"}),
             frozenset({2, 3, 4}): frozenset({"b"}),
             frozenset({1, 3, 4}): frozenset({"c"})}
    assert _meet_closure(seeds, 4096)[frozenset({3})] == {"a", "b", "c"}
    # against brute force: the keys are the meets of the nonempty subsets
    # of the seeds, and each witness names seeds that meet in its key
    rng = random.Random(3)
    for _ in range(10):
        seeds = {}
        for i in range(rng.randint(3, 6)):
            seeds.setdefault(frozenset(x for x in range(8) if rng.random() < 0.7),
                             frozenset({i}))
        named = {i: key for key, w in seeds.items() for i in w}
        got = _meet_closure(seeds, 4096)
        assert set(got) == {frozenset.intersection(*c)
                            for n in range(1, len(seeds) + 1)
                            for c in combinations(seeds, n)}
        for key, w in got.items():
            assert frozenset.intersection(*(named[i] for i in w)) == key


class _CountedMeets(frozenset):
    """A frozenset that records each pair it meets with `&`."""

    meets: list = []

    def __and__(self, other):
        _CountedMeets.meets.append((self, other))
        return _CountedMeets(frozenset(self) & other)


def test_meet_closure_meets_each_unordered_pair_once(monkeypatch):
    # a chain is closed under meets, so the first round is the only one:
    # n distinct seeds take n(n-1)/2 meets, none of a key with itself
    monkeypatch.setattr(_CountedMeets, "meets", [])
    n = 6
    seeds = {_CountedMeets(range(i + 1)): frozenset({i}) for i in range(n)}
    assert _meet_closure(seeds, 4096) == seeds
    assert len(_CountedMeets.meets) == n * (n - 1) // 2
    assert not any(a is b for a, b in _CountedMeets.meets)
    assert {frozenset([a, b]) for a, b in _CountedMeets.meets} == {
        frozenset(pair) for pair in combinations(seeds, 2)}


def test_quasi_baer_meet_starts_from_the_whole_slice(monkeypatch):
    # the zero vector's row is the whole slice, the meet's identity: each
    # submodule's meet is that of all its single-slot rows, and {0} gets
    # the m = 0 row object itself, also where M's zero is not element 0
    family = []
    monkeypatch.setattr(properties, "_first_outside",
                        lambda ctx, max_space, rows: family.extend(rows))
    for inst, d in ((parse_instance(corpus.load("z3-trivial")), 2),
                    (_z3_zero_last(), 1)):
        M, ctx = inst.module, context(inst.module, inst.presentation, d)
        kern = ctx.kernel()
        family.clear()
        properties._quasi_baer_family(ctx, DEFAULT_MAX_SPACE)
        assert len(family) > 1
        for sub, row in family:
            assert row == frozenset.intersection(*(
                kern[ctx.m_term_index(alpha, v)]
                for alpha in ctx.basis for v in sub.elements))
        [row] = [row for sub, row in family if set(sub.elements) == {M.zero}]
        assert row is kern[ctx.m_term_index(ctx.basis[0], M.zero)]
        assert row is ctx.coeff_set(inst.ring.elements())


@pytest.mark.parametrize("name", ["weyl-dual-quotient", "z2xz2-swap"])
def test_bounded_baer_witness_lists_every_generator(name):
    inst = parse_instance(corpus.load(name))
    M, P = inst.module, inst.presentation
    ctx = context(M, P, 1)
    ok, wit = _bounded_side(ctx, DEFAULT_MAX_SPACE, _baer_family,
                            _generators_json)
    assert ok is False and set(wit) == {"subset"} and wit["subset"]
    kern = ctx.kernel()
    rows = []
    for struct in wit["subset"]:
        mp = _mpoly_from_struct(M, P, struct)
        vec = tuple(mp.coefficient(alpha) for alpha in ctx.basis)
        rows.append(kern[ctx.m_index(vec)])
    meet = frozenset.intersection(*rows)
    assert meet == _baer_family(ctx, DEFAULT_MAX_SPACE)[1]
    R = P.ring
    assert all(meet != ctx.coeff_set(principal_right_ideal(R, e))
               for e in idempotents(R))


@pytest.mark.parametrize("name", ["weyl-dual-quotient", "z2xz2-swap"])
def test_annihilator_correspondence_witness_names_an_f(name):
    inst = parse_instance(corpus.load(name))
    M, P = inst.module, inst.presentation
    ok, wit = _annihilator_correspondence(context(M, P, 1), DEFAULT_MAX_SPACE)
    assert ok is False and wit["side"] == "single"
    mp = _mpoly_from_struct(M, P, wit["m"])
    f = _poly_from_struct(P, wit["f"])
    allowed = ann_in_r(M, set(mp.terms.values())).elements
    killed = act(mp, f).is_zero()
    assert killed != all(c in allowed for c in f.terms.values())


# -- bounded deciders -------------------------------------------------------


def test_skew_armendariz_bounded(z3):
    v = is_skew_armendariz_bounded(z3.module, z3.presentation, 2)
    assert v.status == HOLDS_UP_TO_BOUND
    assert v.bound == 2
    assert v.holds
    # monotone in the bound: degree 1 can only be at least as permissive
    v1 = is_skew_armendariz_bounded(z3.module, z3.presentation, 1)
    assert v1.status == HOLDS_UP_TO_BOUND


def test_linear_armendariz_fails_on_swap(swap):
    M, P = swap.module, swap.presentation
    v = is_linearly_skew_armendariz(M, P)
    assert v.status == FAILS
    assert v.bound == 1
    assert replay(M, P, v)

    # the canonical failing pair: u = (0,1) + (0,1)x1, v = (1,0) + (0,1)x1
    from spbw.polymodule import act
    a = M.element_index("(0,1)")
    b = M.element_index("(1,0)")
    u = module_poly(M, P, {(0,): a, (1,): a})
    f = P.from_terms({(0,): b, (1,): a})
    assert act(u, f).is_zero()
    assert M.action_table[a][a] != M.zero  # constant term cannot kill a
    hand = PropertyVerdict("linearly_skew_armendariz", FAILS,
                           {"m": {"text": u.to_string(),
                                  "terms": [[list(al), M.name(mv)]
                                            for al, mv in u.terms.items()]},
                            "f": {"text": f.to_string(),
                                  "terms": [[list(al), P.ring.name(c)]
                                            for al, c in f.terms.items()]},
                            "exp": [1], "m0": M.name(a),
                            "coeff": P.ring.name(a)},
                           bound=1)
    assert replay(M, P, hand)


def test_skew_armendariz_fails_on_swap_too(swap):
    v = is_skew_armendariz_bounded(swap.module, swap.presentation, 2)
    assert v.status == FAILS
    assert replay(swap.module, swap.presentation, v)


def test_skew_quasi_armendariz(z4, z3):
    v = is_skew_quasi_armendariz_bounded(z4.module, z4.presentation, 2)
    assert v.status == HOLDS_UP_TO_BOUND
    v3 = is_skew_quasi_armendariz_bounded(z3.module, z3.presentation, 1)
    assert v3.status == HOLDS_UP_TO_BOUND


# -- theorem reports --------------------------------------------------------


def test_reduced_compatible_equivalence_statuses(z3, z4, weyl):
    for inst in (z3, z4, weyl):
        rep = theorem_suite(inst.module, inst.presentation, degree=0)[0]
        assert rep.theorem == "reduced_compatible_equivalence"
        assert rep.status == CONFIRMED, inst.label


def test_theorem_suite_shape_and_statuses(z4):
    reports = theorem_suite(z4.module, z4.presentation, degree=2,
                            embedding=z4.embedding)
    assert [r.theorem for r in reports] == SUITE_ORDER
    allowed = {CONFIRMED, HYPOTHESIS_NOT_MET, SKIPPED}
    for r in reports:
        assert r.status in allowed | {VIOLATION}
        assert r.status != VIOLATION, (r.theorem, r.witness)
        d = r.to_json()
        assert d["theorem"] == r.theorem
        assert isinstance(d["hypotheses"], list)
        for h in d["hypotheses"]:
            assert set(h) == {"name", "state"}


def test_theorem_suite_contrapositive_confirmations(swap):
    reports = {r.theorem: r
               for r in theorem_suite(swap.module, swap.presentation,
                                      degree=2, embedding=swap.embedding)}
    # linear armendariz fails on the swap instance and so does idempotent
    # stability: the implication confirms via the contrapositive
    rep = reports["linear_armendariz_idempotent_stability"]
    states = dict(rep.hypotheses)
    assert states["linearly_skew_armendariz"] == FAILS
    assert rep.status == CONFIRMED
    assert "alongside" in rep.conclusion


def test_theorem_suite_hypothesis_not_met(z4):
    reports = {r.theorem: r
               for r in theorem_suite(z4.module, z4.presentation, degree=2,
                                      embedding=z4.embedding)}
    # Z4 is not reduced yet IS skew-armendariz, so the implication is
    # vacuous here and must not claim a confirmation
    rep = reports["reduced_compatible_armendariz"]
    states = dict(rep.hypotheses)
    assert states["reduced"] == FAILS
    assert rep.status == HYPOTHESIS_NOT_MET


def test_theorem_suite_absent_embedding(weyl):
    reports = {r.theorem: r
               for r in theorem_suite(weyl.module, weyl.presentation,
                                      degree=2, embedding=None)}
    rep = reports["armendariz_abelian"]
    states = dict(rep.hypotheses)
    assert states["ring_embeds_in_module"] == "absent"
    assert rep.status in (CONFIRMED, HYPOTHESIS_NOT_MET)


def test_theorem_suite_decides_reduced_and_compatibility_once(weyl,
                                                               monkeypatch):
    calls = {}
    for name in ("is_reduced", "is_sigma_compatible", "is_delta_compatible"):
        def counted(*args, decide=getattr(properties, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return decide(*args)
        monkeypatch.setattr(properties, name, counted)
    theorem_suite(weyl.module, weyl.presentation, degree=1)
    assert calls == {"is_reduced": 1, "is_sigma_compatible": 1,
                     "is_delta_compatible": 1}


@pytest.mark.filterwarnings("ignore:ring of order 17")
def test_theorem_suite_refused_decider_is_not_evaluated():
    # Z17 has 17 elements, above the submodule cap of 16: is_quasi_baer is
    # refused, so the quasi-Baer transfer reports it unevaluated and does
    # not run its bounded side
    inst = parse_instance('{"ring":"Z17","variables":1}')
    reports = {r.theorem: r
               for r in theorem_suite(inst.module, inst.presentation,
                                      degree=0, embedding=inst.embedding)}
    rep = reports["quasi_baer_polynomial_transfer"]
    assert rep.status == SKIPPED
    assert rep.conclusion == "is_quasi_baer not evaluated"


def test_degree_zero_armendariz_hypothesis_is_vacuous():
    # UT(2,Z2) is not abelian, but at degree 0 every polynomial is a
    # constant and the skew-Armendariz scan holds vacuously: it is no
    # evidence for a hypothesis, so the reports that assume it are not met
    text = (INSTANCES / "ut2-z2.json").read_text(encoding="utf-8")
    inst = parse_instance(text)
    reports = theorem_suite(inst.module, inst.presentation, degree=0,
                            embedding=inst.embedding)
    assumes = {r.theorem for r in reports
               if ("skew_armendariz", VACUOUS) in r.hypotheses}
    assert assumes == {"armendariz_abelian", "pp_polynomial_transfer",
                       "baer_polynomial_transfer"}
    by_name = {r.theorem: r for r in reports}
    assert all(by_name[t].status == HYPOTHESIS_NOT_MET for t in assumes)
    assert by_name["armendariz_abelian"].conclusion == "abelian fails"
    # the two bound-0 scans are no evidence as conclusions or agreement
    # sides either, so 3 more reports are not met than when only hypotheses
    # were read that way
    concludes = {r.theorem for r in reports if r.conclusion.endswith(VACUOUS)}
    assert concludes == {"reduced_compatible_armendariz",
                         "armendariz_annihilator_extension",
                         "quasi_baer_quasi_armendariz"}
    assert all(by_name[t].status == HYPOTHESIS_NOT_MET for t in concludes)
    assert Counter(r.status for r in reports) == {CONFIRMED: 8,
                                                  HYPOTHESIS_NOT_MET: 9}
    # a bound-1 verdict still counts: the d=1 run fails skew_armendariz
    d1 = {r.theorem: r for r in theorem_suite(
        inst.module, inst.presentation, degree=1, embedding=inst.embedding)}
    assert ("skew_armendariz", FAILS) in d1["armendariz_abelian"].hypotheses
    assert not any(r.conclusion.endswith(VACUOUS) for r in d1.values())


@pytest.mark.parametrize("name", ["z3-trivial", "quantum-plane-z5",
                                  "z4-regular"])
def test_degree_zero_conclusions_are_vacuous(monkeypatch, name):
    # at degree 0 the skew (quasi-)Armendariz scans see constants only: as a
    # conclusion or an agreement side they confirm nothing, and the
    # correspondence side is not run; at degree 1 the same reports read
    # the scans' verdicts
    inst = parse_instance(corpus.load(name))
    with monkeypatch.context() as patch:
        patch.setattr(properties, "_annihilator_correspondence", None)
        d0 = {r.theorem: r for r in theorem_suite(
            inst.module, inst.presentation, degree=0,
            embedding=inst.embedding)}
    d1 = {r.theorem: r for r in theorem_suite(
        inst.module, inst.presentation, degree=1, embedding=inst.embedding)}
    for theorem, scan in (("reduced_compatible_armendariz", "skew_armendariz"),
                          ("armendariz_annihilator_extension",
                           "skew_armendariz"),
                          ("quasi_baer_quasi_armendariz",
                           "skew_quasi_armendariz")):
        assert d0[theorem].conclusion == f"{scan} {VACUOUS}", theorem
        assert d0[theorem].status == HYPOTHESIS_NOT_MET, theorem
        assert VACUOUS not in d1[theorem].conclusion, theorem
    assert d1["armendariz_annihilator_extension"].status == CONFIRMED


def test_theorem_suite_no_violations_across_corpus(instances):
    # the whole corpus at degree 1 (cheap); degree 2 is the acceptance run
    for name, inst in instances.items():
        for rep in theorem_suite(inst.module, inst.presentation, degree=1,
                                 embedding=inst.embedding):
            assert rep.status != VIOLATION, (name, rep.theorem, rep.witness)


def test_verdict_serialization(z4):
    v = is_pp(z4.module)
    d = v.to_json()
    assert d["property"] == "pp"
    assert d["status"] == FAILS
    assert d["witness"] == v.witness
    h = is_reduced(z3_module_for_json())
    assert h.to_json().get("witness") is None


def z3_module_for_json():
    return regular_module(zmod(3))


def test_replay_rejects_non_failures(z3):
    v = is_reduced(z3.module)
    assert v.status == HOLDS
    with pytest.raises(ValidationError):
        replay(z3.module, z3.presentation, v)
    with pytest.raises(ValidationError):
        replay(z3.module, z3.presentation,
               PropertyVerdict("no_such_prop", FAILS, {"m": "0"}))


def test_replay_detects_mismatched_witness(z4):
    # a witness that does not demonstrate the failure replays to False
    fake = PropertyVerdict("reduced", FAILS,
                           {"m": "1", "a": "1", "common": "1"})
    assert replay(z4.module, z4.presentation, fake) is False


def test_every_property_replays_a_fails_witness(instances):
    # one Fails witness per DECIDERS name, so a property added without a
    # replay rule fails here; UT(2,Z2) supplies the non-abelian module the
    # corpus lacks, and a Z8 instance with a zero-divisor c_12 and linear
    # and constant terms fails skew_quasi_armendariz at d=1
    sources = list(instances.values()) + [
        parse_instance('{"ring":"UT(2,Z2)","variables":1}'),
        parse_instance(Z8_QUASI_ARMENDARIZ_FAILS)]
    for prop, decide in DECIDERS.items():
        for inst in sources:
            M, P = inst.module, inst.presentation
            v = decide(M, P, 1, DEFAULT_MAX_SPACE)
            if v.status == FAILS:
                break
        else:
            pytest.fail(f"no source instance fails {prop}")
        assert replay(M, P, v) is True, prop
    # a forged witness: m = f = 1 over Z4 has m*1*f = 1 != 0
    M, P = instances["z4-regular"].module, instances["z4-regular"].presentation
    one = {"text": "1", "terms": [[[0], "1"]]}
    forged = PropertyVerdict("skew_quasi_armendariz", FAILS,
                             {"m": one, "f": one, "i_exp": [0], "j_exp": [0],
                              "r": "1", "t": [0]}, bound=1)
    assert replay(M, P, forged) is False


def test_replay_refuses_malformed_witnesses(instances):
    # every witness field of every Fails verdict at d=1 on four instances,
    # set to None and to a string of the wrong kind, under the verdict's
    # bound, no bound and a string bound: replay answers a bool or refuses
    # with bad_witness, never a raw exception or another kind
    sources = [instances[name] for name in
               ("z2xz2-swap", "z4-regular", "weyl-dual-quotient")] + [
        parse_instance(Z8_QUASI_ARMENDARIZ_FAILS)]
    refused = Counter()
    for inst in sources:
        M, P = inst.module, inst.presentation
        for decide in DECIDERS.values():
            v = decide(M, P, 1, DEFAULT_MAX_SPACE)
            if v.status != FAILS:
                continue
            for key, bad, bound in product(v.witness, (None, "zz"),
                                           (v.bound, None, "1")):
                forged = PropertyVerdict(v.prop, FAILS,
                                         {**v.witness, key: bad}, bound)
                try:
                    assert isinstance(replay(M, P, forged), bool)
                except ValidationError as exc:
                    refused[exc.kind] += 1
    assert set(refused) == {"bad_witness"}
    # the examples: a map word, an index, a module polynomial, an exponent,
    # a subset, and the bound the quasi scan reads; a map of the other
    # kind, variable 0 and an unknown kind are refused too
    swap, z4, weyl, z8 = sources
    cases = [(swap, "sigma_compatible", {"map": None}, None),
             (swap, "sigma_compatible", {"map": "zz"}, None),
             (swap, "sigma_compatible", {"map": "d1"}, None),
             (weyl, "delta_compatible", {"map": "zz"}, None),
             (weyl, "delta_compatible", {"map": "s1"}, None),
             (swap, "idempotent_stability", {"i": None}, None),
             (swap, "idempotent_stability", {"i": 0}, None),
             (swap, "idempotent_stability", {"kind": "zz"}, None),
             (z8, "skew_armendariz", {"m": None}, 1),
             (z8, "skew_armendariz", {"exp": None}, 1),
             (z4, "baer", {"subset": None}, None),
             (z8, "skew_quasi_armendariz", {}, None)]
    for inst, prop, tamper, bound in cases:
        M, P = inst.module, inst.presentation
        v = DECIDERS[prop](M, P, 1, DEFAULT_MAX_SPACE)
        assert v.status == FAILS and set(tamper) <= set(v.witness), prop
        forged = PropertyVerdict(prop, FAILS, {**v.witness, **tamper}, bound)
        with pytest.raises(ValidationError) as err:
            replay(M, P, forged)
        assert err.value.kind == "bad_witness", (prop, tamper)


def test_replay_of_a_tampered_well_formed_witness_is_false(swap, z4):
    # each forged witness is well formed and fails one check that the true
    # witness passes: the identity map keeps annihilation, m does not kill
    # f = 1, and {2} in Z4 is no submodule (yet ann({2}) = 2Z4, which no
    # idempotent generates, so only the submodule check refuses it)
    z8 = parse_instance(Z8_QUASI_ARMENDARIZ_FAILS)
    one = {"text": "1", "terms": [[[0, 0], "1"]]}
    cases = [(swap, "sigma_compatible", {"map": "id"}),
             (z8, "skew_armendariz", {"f": one}),
             (z4, "quasi_baer", {"submodule": ["2"]})]
    for inst, prop, tamper in cases:
        M, P = inst.module, inst.presentation
        v = DECIDERS[prop](M, P, 1, DEFAULT_MAX_SPACE)
        assert v.status == FAILS and set(tamper) <= set(v.witness), prop
        assert replay(M, P, v) is True, prop
        forged = PropertyVerdict(prop, FAILS, {**v.witness, **tamper}, v.bound)
        assert replay(M, P, forged) is False, prop


def test_skew_quasi_armendariz_witness_replays_and_tampering_fails():
    inst = parse_instance(Z8_QUASI_ARMENDARIZ_FAILS)
    M, P = inst.module, inst.presentation
    v = is_skew_quasi_armendariz_bounded(M, P, 1)
    assert v.to_json() == {
        "property": "skew_quasi_armendariz", "status": FAILS, "bound": 1,
        "witness": {"m": {"text": "1*x2", "terms": [[[0, 1], "1"]]},
                    "f": {"text": "4*x1 + 4",
                          "terms": [[[1, 0], "4"], [[0, 0], "4"]]},
                    "i_exp": [0, 1], "j_exp": [0, 0], "r": "1", "t": [0, 0]}}
    assert replay(M, P, v) is True
    # r = 0 kills the single-term product; f = 1 is not annihilated by m
    one = {"text": "1", "terms": [[[0, 0], "1"]]}
    forgeries = [PropertyVerdict(v.prop, FAILS, {**v.witness, **tamper},
                                 bound=1) for tamper in ({"r": "0"}, {"f": one})]
    for forged in forgeries:
        assert replay(M, P, forged) is False, forged.witness
    # replay reads its middles off the definition, not a bounded context:
    # on a fresh instance it gives the same answers and builds no context
    fresh = parse_instance(Z8_QUASI_ARMENDARIZ_FAILS)
    assert [replay(fresh.module, fresh.presentation, u)
            for u in [v] + forgeries] == [True, False, False]
    assert fresh.module._contexts == {}


def _z3_zero_last():
    # Z3 tabulated as [1, 2, 0], so the zero is element 2
    labels = [1, 2, 0]
    index = {v: i for i, v in enumerate(labels)}
    return parse_instance(json.dumps({
        "ring": {"add": [[index[(a + b) % 3] for b in labels] for a in labels],
                 "mul": [[index[a * b % 3] for b in labels] for a in labels],
                 "names": ["1", "2", "0"]},
        "variables": 2, "relations": {"1,2": "1"}}))


def _act_scalar_scan(ctx):
    """The scan's (ok, witness) with m * r found by acting: the first (m,
    r) in index order where act(m, r) = 0 and "every coefficient of m kills
    r" disagree."""
    M, R = ctx.module, ctx.presentation.ring
    for m_idx in range(ctx.m_space):
        mts = ctx.mterms(m_idx)
        for r in R.elements():
            whole = ctx.act_is_zero(mts, ((ctx.basis[0], r),))
            if whole != all(M.action_table[v][r] == M.zero for _, v in mts):
                return False, {"m": ctx.m_poly(m_idx).to_json(M.name),
                               "r": R.name(r),
                               "direction": "whole" if whole else "slotwise"}
    return True, None


def test_scalar_certificate_matches_the_scan():
    # the rank certificate gives the (ok, witness) of the per-(m, r)
    # scan, and the scan, which sums the scalar tables, that of acting on
    # each (m, r), on every corpus context with m_space * |R| <= 10^6
    # (z2xz2-swap and weyl-dual-quotient fail), on UT(2,Z2) and on a zero
    # that is not element 0
    # (name, instance text, top degree); the corpus runs until the size cap
    sources = [(name, corpus.load(name), 99) for name in corpus.names()] + [
        ("UT(2,Z2)", '{"ring":"UT(2,Z2)","variables":1}', 2),
        ("Z3 zero last", None, 2)]
    seen = {True: 0, False: 0}
    for name, text, top in sources:
        for d in range(top + 1):
            inst = parse_instance(text) if text else _z3_zero_last()
            ctx = context(inst.module, inst.presentation, d)
            if ctx.m_space * ctx.ring_size > 10 ** 6:
                break
            got = _coefficientwise_scalar(ctx, DEFAULT_MAX_SPACE)
            assert got == _coefficientwise_scalar_scan(ctx), (name, d)
            assert got == _act_scalar_scan(ctx), (name, d)
            seen[got[0]] += 1
    assert seen[True] and seen[False]


def test_scalar_certificate_ranks_instead_of_acting(monkeypatch):
    inst = parse_instance(corpus.load("quantum-plane-z5"))
    P = inst.presentation
    ctx = context(inst.module, P, 2)
    calls = {"triple": 0, "act_is_zero": 0}
    triple, act_is_zero = P.triple, ctx.act_is_zero

    def counted_triple(*args):
        calls["triple"] += 1
        return triple(*args)

    def counted_act_is_zero(*args):
        calls["act_is_zero"] += 1
        return act_is_zero(*args)

    monkeypatch.setattr(P, "triple", counted_triple)
    monkeypatch.setattr(ctx, "act_is_zero", counted_act_is_zero)
    assert _coefficientwise_scalar(ctx, DEFAULT_MAX_SPACE) == (True, None)
    assert calls["act_is_zero"] == 0
    assert calls["triple"] <= ctx.k * ctx.ring_size


def _endomorphisms(R):
    """Every endomorphism of R: each generator of (R, +) that
    `cyclic_factors` picks goes to any element, the table is extended
    additively, and those tables that validate_endomorphism accepts."""
    gens, coords = cyclic_factors(R)
    out = []
    for images in product(R.elements(), repeat=len(gens)):
        mults = [[R.zero] for _ in gens]   # multiples of each image
        for ms, y, (_, n) in zip(mults, images, gens):
            while len(ms) < n:
                ms.append(R.add(ms[-1], y))
        table = [reduce(R.add, map(list.__getitem__, mults, coords[x]), R.zero)
                 for x in R.elements()]
        try:
            out.append(validate_endomorphism(R, table))
        except ValidationError:
            pass
    return out


def _inner_presentations(R):
    """One variable over R for each endomorphism sigma and each distinct
    inner sigma-derivation r -> a r - sigma(r) a."""
    out = []
    for sigma in _endomorphisms(R):
        for table in dict.fromkeys(
                tuple(R.sub(R.mul(a, r), R.mul(sigma(r), a))
                      for r in R.elements()) for a in R.elements()):
            delta = validate_sigma_derivation(R, sigma, table)
            out.append(validate_presentation(R, [sigma], [delta], {}))
    return out


def test_scalar_rank_matches_brute_force():
    # the per-r rank verdict against H_r = S_r found by listing every packed
    # m * r, and the scalar tables against packing each entry's terms, on a
    # seeded sweep: one variable over Z2..Z9, Z2xZ2, Z2xZ3, Z3xZ3,
    # Z2[y]/(y^2) and UT(2,Z2), up to three (sigma, inner derivation)
    # pairs each, the regular module, every proper nonzero quotient R/aR and Z4 +
    # Z2 (lanes of orders 4 and 2), d <= 3 while m_space <= 10^4.  Pairs
    # with S_r <= H_r != S_r arise over Z2xZ2 (p = 2) and Z3xZ3 (p = 3);
    # none changes a report, as each of their contexts also has an r with
    # S_r outside H_r, so the verdict is compared per r
    rng = random.Random(31)
    z4_plus_z2 = _z4_plus_z2()
    rings = [z4_plus_z2.ring if n == 4 else zmod(n) for n in range(2, 10)] + [
        zmod_product(2, 2), zmod_product(2, 3), zmod_product(3, 3), dual_z2(),
        upper_triangular(2, 2)]
    strict = Counter()
    for R in rings:
        ideals = {}   # each principal right ideal aR: its first a
        for a in R.elements():
            ideals.setdefault(right_ideal_closure(R, [a]), a)
        modules = [regular_module(R)] + [
            quotient_module(R, [a]) for I, a in ideals.items()
            if 1 < len(I) < R.order] + [z4_plus_z2] * (R is z4_plus_z2.ring)
        presentations = _inner_presentations(R)
        for P in rng.sample(presentations, min(3, len(presentations))):
            for M, d in product(modules, range(4)):
                ctx = context(M, P, d)
                if ctx.m_space > 10 ** 4:
                    continue
                vecs, act = ctx.vectors, M.action_table
                for r, phi in enumerate(ctx.scalar_tables()):
                    assert phi == [[vecs.pack(
                        (ctx.slot[g], row[w])
                        for g, w in P.triple(alpha, r, ctx.basis[0]))
                        for row in act] for alpha in ctx.basis]
                    ann = [v for v in M.elements() if act[v][r] == M.zero]
                    inside = not any(half_sums(
                        [[row[v] for v in ann] for row in phi], vecs))
                    equal = inside and (half_sums(phi, vecs).count(0)
                                        == len(ann) ** ctx.k)
                    got = properties._scalar_kernel_is_slotwise(ctx, r, phi)
                    assert got == equal, (R.label, M.label, d, r)
                    if inside and not equal:
                        strict[R.label] += 1
    assert strict.keys() == {"Z2xZ2", "Z3xZ3"}
    # Z2xZ2/(0,1) under the swap at d = 1: (m0 + m1 x) * (1,0) = m0, so
    # H_r = {0, x} holds two vectors and S_r = {0} one
    inst = parse_instance('{"ring": "Z2xZ2", "variables": 1, "sigma": '
                          '["swap"], "module": {"quotient": ["(0,1)"]}}')
    ctx = context(inst.module, inst.presentation, 1)
    r = inst.presentation.ring.element_index("(1,0)")
    phi = ctx.scalar_tables()[r]
    assert half_sums(phi, ctx.vectors).count(0) == 2
    assert [v for v in inst.module.elements()
            if inst.module.action_table[v][r] == inst.module.zero] == [0]
    assert not properties._scalar_kernel_is_slotwise(ctx, r, phi)
    # over Z4, v * 2 is 0 or 2; a table giving 1 * 2 = 1 leaves the
    # 2-torsion, an engine fault and never a verdict
    ctx = context(regular_module(zmod(4)), None, 0)
    assert ctx.scalar_tables()[2] == [[0, 2, 0, 2]]
    with pytest.raises(EngineInvariantError):
        properties._scalar_kernel_is_slotwise(ctx, 2, [[0, 1, 0, 3]])


def _twisted(R):
    """One variable over R: on UT(2,Z2), sigma is conjugation by 111 and
    delta the inner sigma-derivation r -> 100 r - sigma(r) 100; on the
    other rings, which have no other automorphism or derivation, the
    identity and zero."""
    if R.label != "UT(2,Z2)":
        sigma = identity_map(R)
        return validate_presentation(R, [sigma], [zero_map(R, sigma)], {})
    u, a = R.element_index("111"), R.element_index("100")
    conj = [R.mul(R.mul(u, r), u) for r in R.elements()]
    sigma = validate_endomorphism(R, conj)
    delta = validate_sigma_derivation(
        R, sigma, [R.sub(R.mul(a, r), R.mul(conj[r], a)) for r in R.elements()])
    return validate_presentation(R, [sigma], [delta], {})


# sha256 of json.dumps([reduced, sigma_compatible, delta_compatible verdict
# to_json, list(_map_annihilation)]) per module, under `_twisted` for Z3, Z4,
# Z6 and BAER_MODULES and under their own presentation for the corpus;
# recorded before the scans ran on one action-table routine for M and M<X>
TWIST_DIGESTS = {
    "Z3": "4d59057435a58ecf1d59f90101be74d2b288bd13ec93745c6ba0c6a74e99794d",
    "Z4": "2b24c815fce9dad0bdb91c5f29de4b4fffe784c92dc524fd3011ff43b47c42e7",
    "Z6": "4d59057435a58ecf1d59f90101be74d2b288bd13ec93745c6ba0c6a74e99794d",
    "Z8": "b797a99b19224ec295ba129acb4306eeff9e5b6d155687878921b5859967f636",
    "Z9": "217d918a5de4ead895afb178ad0f65e03721798d4980cfa9c95520896d9a492b",
    "Z12": "060b9d09ff1fe12fbe27a7e153e45254f44dda48c52d3887019ce646639a5497",
    "UT(2,Z2)":
        "7ce66a4c034766ab37ef03833c719eb93e7796ec367c473e6e61f7e1c8fb12ea",
    "Z2xZ4":
        "2e21a389942cd532476c805e7ef698db3d1fbe2c6cbb957fcd63b81637f5198f",
    "Z8/(4)":
        "8fda4c44c2edb725e99a31f09a65e4cdad0a6f7d46d820f223252d80e00994aa",
    "UT(2,Z2)/e12R":
        "4d59057435a58ecf1d59f90101be74d2b288bd13ec93745c6ba0c6a74e99794d",
    "quantum-plane-z5":
        "4d59057435a58ecf1d59f90101be74d2b288bd13ec93745c6ba0c6a74e99794d",
    "weyl-dual-quotient":
        "09bac8d6b1eec8490877394a7ac38c7a798ed625b026ead4f70cde4f245094ff",
    "z2xz2-swap":
        "92e49b74795b294193b947cc1e21e16217bceb9419b05436bb36485e71c84b83",
    "z3-trivial":
        "4d59057435a58ecf1d59f90101be74d2b288bd13ec93745c6ba0c6a74e99794d",
    "z4-regular":
        "2b24c815fce9dad0bdb91c5f29de4b4fffe784c92dc524fd3011ff43b47c42e7",
    "z6-commutative":
        "4d59057435a58ecf1d59f90101be74d2b288bd13ec93745c6ba0c6a74e99794d",
}


def test_reduced_and_twist_verdicts_are_pinned():
    small = [("Z3", lambda: regular_module(zmod(3))),
             ("Z4", lambda: regular_module(zmod(4))),
             ("Z6", lambda: regular_module(zmod(6)))] + BAER_MODULES
    pairs = [(name, make()) for name, make in small]
    pairs = [(name, (M, _twisted(M.ring))) for name, M in pairs] + [
        (name, (inst.module, inst.presentation)) for name, inst in
        ((n, parse_instance(corpus.load(n))) for n in corpus.names())]
    got = {}
    for name, (M, P) in pairs:
        text = json.dumps([is_reduced(M).to_json(),
                           is_sigma_compatible(M, P).to_json(),
                           is_delta_compatible(M, P).to_json(),
                           list(_map_annihilation(M, P))])
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == TWIST_DIGESTS


def _twist_pairs(R):
    """Every (sigma, delta) over R: each unital injective endomorphism and
    each of its sigma-derivations, found by trying every table."""
    tables = list(product(R.elements(), repeat=R.order))
    out = []
    for s in tables:
        try:
            sigma = validate_endomorphism(R, s)
        except ValidationError:
            continue
        for d in tables:
            try:
                out.append((sigma, validate_sigma_derivation(R, sigma, d)))
            except ValidationError:
                pass
    return out


def test_map_annihilation_is_the_four_part_check():
    """The closure scan alone gives the verdict and witness of the four-part
    check (closure, product right and left, per-map annihilators), over Z2,
    Z3, Z4, Z2xZ2 and Z2[y]/(y^2): every one-variable presentation and
    every certified two-variable one with c12 = 1, from every sigma and
    sigma-derivation, on the regular module and each R/rR, r != 0."""
    cases, failing = 0, 0
    for R in (zmod(2), zmod(3), zmod(4), zmod_product(2, 2), dual_z2()):
        pairs = _twist_pairs(R)
        presentations = [validate_presentation(R, [s], [d], {})
                         for s, d in pairs]
        for (s1, d1), (s2, d2) in product(pairs, pairs):
            try:
                presentations.append(validate_presentation(
                    R, [s1, s2], [d1, d2], {(0, 1): R.one}))
            except ValidationError as exc:
                assert exc.kind == "inconsistent_presentation"
        ideals = {}
        for r in R.elements():
            if r != R.zero:
                ideals.setdefault(right_ideal_closure(R, [r]), r)
        modules = [regular_module(R)] + [quotient_module(R, [r])
                                         for r in ideals.values()]
        for P, M in product(presentations, modules):
            want = oracles.map_annihilation_reference(M, P)
            assert _map_annihilation(M, P) == want, (P.label, M.label)
            cases += 1
            failing += not want[0]
    assert (cases, failing) == (128, 64)


def _slice_sources():
    """(name, fresh instance) for the corpus, UT(2,Z2) and a Z3 whose zero
    is not element 0."""
    return [(name, parse_instance(corpus.load(name)))
            for name in corpus.names()] + [
        ("UT(2,Z2)", parse_instance('{"ring":"UT(2,Z2)","variables":1}')),
        ("Z3 zero last", _z3_zero_last())]


def test_bounded_sigma_reduced_matches_the_act_scalar_oracle(monkeypatch):
    # the slice's packed products and the first failure of the M<X> side
    # agree with act_scalar on every module polynomial; where the square
    # guard refuses, the products are checked on every 97th row
    def no_act(*args):
        raise AssertionError("act_is_zero called")

    seen = set()
    for name, inst in _slice_sources():
        M, P = inst.module, inst.presentation
        for d in (0, 1, 2):
            ctx = context(M, P, d)
            monkeypatch.setattr(ctx, "act_is_zero", no_act)
            products = slice_products(ctx)
            square = ctx.m_space * ctx.m_space * ctx.ring_size
            rows = range(0, ctx.m_space, 1 if square <= DEFAULT_MAX_SPACE
                         else 97)
            want = oracles.slice_scalar_action(ctx, rows)
            assert {m: products[m] for m in rows} == packed_rows(ctx, want), \
                (name, d)
            if square > DEFAULT_MAX_SPACE:
                with pytest.raises(SearchSpaceTooLarge):
                    _bounded_sigma_reduced(ctx, DEFAULT_MAX_SPACE)
                seen.add("refused")
                continue
            zero = ctx.m_term_index(ctx.basis[0], M.zero)
            table = [want[m] for m in rows]
            fail = oracles.sigma_reduced_failure(P.ring, P.sigma_tables,
                                                 table, zero)
            ok, wit = _bounded_sigma_reduced(ctx, DEFAULT_MAX_SPACE)
            assert ok is (fail is None), (name, d)
            if fail is not None:
                side, m, x = fail
                key = "r" if side == "sigma_compatible" else "a"
                assert (wit["side"], wit["m"], wit[key]) == (
                    side, ctx.m_poly(m).to_json(M.name), P.ring.name(x)), \
                    (name, d)
                if side == "reduced":   # the one value decoded from packed
                    common = _reduced_failure(table, zero)[2]
                    assert wit["common"] == \
                        ctx.m_poly(common).to_json(M.name), (name, d)
                seen.add(side)
            if ctx.pair_space <= DEFAULT_MAX_SPACE:  # acts on no pair either
                _torsion_constant(ctx, DEFAULT_MAX_SPACE)
    assert seen == {"refused", "sigma_compatible", "reduced"}


def test_cached_rows_are_guarded_on_every_read():
    # the kernel, ann(mA) and coeff_set caches of a context guard each read:
    # after a lifted run on one module, a default-budget run gives the
    # reports of a fresh module, refusals included (z4-regular at d = 5)
    def reports(inst, **budget):
        return [r.to_json() for r in theorem_suite(
            inst.module, inst.presentation, 5, inst.embedding, **budget)]

    want = reports(parse_instance(corpus.load("z4-regular")))
    assert Counter(r["status"] for r in want) == {
        CONFIRMED: 5, SKIPPED: 8, HYPOTHESIS_NOT_MET: 4}
    inst = parse_instance(corpus.load("z4-regular"))
    lifted = reports(inst, max_space=10 ** 12)
    assert Counter(r["status"] for r in lifted) == {
        CONFIRMED: 13, HYPOTHESIS_NOT_MET: 4}
    assert reports(inst) == want


def test_context_lives_exactly_as_long_as_its_module():
    inst = parse_instance(corpus.load("z4-regular"))
    M, P = inst.module, inst.presentation
    ctx = context(M, P, 1)
    assert context(M, P, 1) is ctx
    ref = weakref.ref(ctx)
    del inst, M, P, ctx
    gc.collect()
    assert ref() is None


# -- the row scans against their per-f references ----------------------------


def _scan_contexts():
    """Every corpus context with pair_space <= 10^5 at d = 0..3, then the
    same on UT(2,Z2), a Z3 whose zero is element 2 and Z4 + Z4/(2)."""
    z4z2 = _z4_plus_z2()
    sources = [(name, parse_instance(corpus.load(name)))
               for name in corpus.names()] + [
        ("UT(2,Z2)", parse_instance('{"ring":"UT(2,Z2)","variables":1}')),
        ("Z3 zero last", _z3_zero_last())]
    modules = [(name, inst.module, inst.presentation) for name, inst in sources]
    ring = z4z2.ring
    modules.append(("Z4+Z2", z4z2, validate_presentation(
        ring, [identity_map(ring)], [zero_map(ring)], {}, label="Z4[x]")))
    for name, M, P in modules:
        for d in range(4):
            ctx = context(M, P, d)
            if ctx.pair_space > 10 ** 5:
                break
            yield f"{name} d={d}", ctx


def test_row_scans_match_the_per_f_references(monkeypatch):
    # the set tests give the (verdict, witness) of the per-f loops; the
    # mixed-products scan fails on no ann(mA) row here, so it also runs on
    # the kernel rows, where it does
    seen = set()
    for case, ctx in _scan_contexts():
        M, R = ctx.module, ctx.presentation.ring
        kern = ctx.kernel()

        def poly(m_idx, f_idx):
            return {"m": ctx.m_poly(m_idx).to_json(M.name),
                    "f": ctx.f_poly(f_idx).to_json(R.name)}

        verdict = _armendariz_scan(ctx, "skew_armendariz", False,
                                   DEFAULT_MAX_SPACE)
        hit = oracles.armendariz_failure(ctx, kern)
        if hit is None:
            assert verdict.status == HOLDS_UP_TO_BOUND, case
        else:
            m_idx, f_idx, m0, beta, b = hit
            assert verdict.witness == {**poly(m_idx, f_idx), "exp": list(beta),
                                       "m0": M.name(m0), "coeff": R.name(b)}, \
                case
        seen.add(("armendariz", hit is None))

        # a row one short of its set must fail too
        shrunk = {m_idx: row - {max(row)} for m_idx, row in kern.items()}
        for rows in (kern, shrunk):
            with monkeypatch.context() as patch:
                patch.setattr(ctx, "kernel", lambda *args: rows)
                ok, wit = _annihilator_correspondence(ctx, DEFAULT_MAX_SPACE)
                torsion = _torsion_constant(ctx, DEFAULT_MAX_SPACE)
            hit = oracles.correspondence_failure(ctx, rows)
            if hit is None:
                assert ok, case
            else:
                assert (ok, wit) == (False, {**poly(*hit), "side": "single"}), \
                    case
            seen.add(("correspondence", rows is shrunk, hit is None))
            hit = oracles.torsion_failure(ctx, rows)
            if hit is None:
                assert torsion == (True, None), case
            else:
                m_idx, f_idx, c = hit
                assert torsion == (False, {**poly(m_idx, f_idx),
                                           "c": R.name(c)}), case
            seen.add(("torsion", hit is None))

        for rows in (ctx.ann_am_rows(), kern):
            hit = oracles.mixed_products_failure(ctx, rows)
            got = _mixed_products_failure(ctx, rows, DEFAULT_MAX_SPACE)
            if hit is None:
                assert got is None, case
            else:
                m_idx, f_idx, r = hit
                assert got == {"part": "mixed-products", **poly(m_idx, f_idx),
                               "r": R.name(r)}, case
            seen.add(("mixed", rows is kern, hit is None))
        for C in {frozenset(c for _, c in ctx.mterms(m_idx))
                  for m_idx in range(ctx.m_space)}:
            assert _mixed_annihilator(M, C) == \
                oracles.mixed_annihilator(M, C), (case, C)
    assert seen >= {("armendariz", True), ("armendariz", False),
                    ("torsion", True), ("torsion", False),
                    ("correspondence", False, True),
                    ("correspondence", False, False),
                    ("correspondence", True, False),
                    ("mixed", False, True), ("mixed", True, True),
                    ("mixed", True, False)}


def test_quasi_commutative_parts_match_the_row_references(monkeypatch):
    # the constants-generate and nonzero-constant parts, each against its
    # per-m reference, with the mixed-products side patched to pass or to
    # fail: the claim fails where the two sides disagree, at the first row
    # that is not the span of its constants; where they agree and
    # quasi-Armendariz is given as holding, at the first row with a nonzero
    # f and no nonzero constant.  Such a row is never the span of its
    # constants, so that part shows only beside a mixed-products failure.
    # On the ann(mA) rows, on those rows less their largest non-constant f
    # (strictly inside the span of their constants, so only the equality
    # test fails them), and on the kernel rows, each patched in
    holds = PropertyVerdict("skew_quasi_armendariz", HOLDS_UP_TO_BOUND)
    mixed_wit = {"part": "mixed-products"}
    seen = set()
    for case, ctx in _scan_contexts():
        ann, kern = ctx.ann_am_rows(), ctx.kernel()
        constants = {ctx.f_term_index(ctx.basis[0], r)
                     for r in ctx.presentation.ring.elements()}
        shrunk = {m_idx: row - {max(row - constants, default=None)}
                  for m_idx, row in ann.items()}

        def wit(part, m_idx):
            return {"part": part,
                    "m": ctx.m_poly(m_idx).to_json(ctx.module.name)}

        for (kind, rows), mixed in product(
                (("ann", ann), ("shrunk", shrunk), ("kernel", kern)),
                (None, mixed_wit)):
            gen = oracles.constants_generate_failure(ctx, rows)
            gap = oracles.nonzero_constant_failure(ctx, rows)
            with monkeypatch.context() as patch:
                patch.setattr(ctx, "ann_am_rows", lambda *args: rows)
                patch.setattr(properties, "_mixed_products_failure",
                              lambda *args: mixed)
                got = _quasi_commutative_annihilator(ctx, DEFAULT_MAX_SPACE,
                                                     holds)
            gen_wit = None if gen is None else wit("constants-generate", gen)
            if (gen is None) != (mixed is None):
                want = (False, gen_wit or mixed)
            elif gap is not None:
                want = (False, wit("nonzero-constant", gap))
            else:
                want = (True, None)
            assert got == want, case
            seen.add((kind, gen is None, gap is None))
    assert seen >= {("ann", True, True), ("shrunk", False, True),
                    ("kernel", False, False)}


def test_refused_quasi_armendariz_refuses_the_annihilator_structure():
    # the annihilator-structure claim reads the skew_quasi_armendariz
    # verdict, None where it is refused, and has no branch for None: it
    # must refuse under the same guard before it reads that verdict
    texts = [corpus.load(name) for name in corpus.names()] + [
        path.read_text(encoding="utf-8")
        for path in sorted(INSTANCES.glob("*.json"))]
    refused = 0
    for text, order in product(texts, ("deglex", "lex")):
        inst = parse_instance(text, order)
        M, P = inst.module, inst.presentation
        for d in range(5):
            try:
                is_skew_quasi_armendariz_bounded(M, P, d)
            except (SearchSpaceTooLarge, TooLarge):
                refused += 1
                with pytest.raises(SearchSpaceTooLarge):
                    _quasi_commutative_annihilator(
                        context(M, P, d), DEFAULT_MAX_SPACE, None)
    assert refused


def test_quasi_armendariz_scan_matches_the_reference():
    # the single-term lookups give the (verdict, witness) of the reference,
    # which acts on each (r, t) of each term pair; on the ann(mA) rows the
    # decider runs on, where it fails nowhere here, and on the kernel rows,
    # whose products need not vanish
    seen = set()
    for case, ctx in _scan_contexts():
        M, R = ctx.module, ctx.presentation.ring
        kern = ctx.kernel()
        verdict = is_skew_quasi_armendariz_bounded(M, ctx.presentation,
                                                   ctx.degree)
        for rows in (ctx.ann_am_rows(), kern):
            hit = oracles.quasi_armendariz_failure(ctx, rows)
            got = _quasi_armendariz_failure(ctx, rows, DEFAULT_MAX_SPACE)
            if hit is None:
                assert got is None, case
            else:
                m_idx, f_idx, alpha, beta, r, t = hit
                assert got == {"m": ctx.m_poly(m_idx).to_json(M.name),
                               "f": ctx.f_poly(f_idx).to_json(R.name),
                               "i_exp": list(alpha), "j_exp": list(beta),
                               "r": R.name(r), "t": list(t)}, case
            if rows is not kern:
                assert verdict.witness == got, case
            seen.add((rows is kern, hit is None))
    assert seen == {(False, True), (True, True), (True, False)}


def test_theorem_suite_decodes_each_index_once(monkeypatch):
    # on z4-regular at d = 4 each context decodes every f and every m at
    # most once, each decode kept in its memo, and the correspondence finds
    # ann_R(C) once per distinct coefficient set C
    inst = parse_instance(corpus.load("z4-regular"))
    M, P = inst.module, inst.presentation
    decoded = Counter()
    vec = BoundedContext._vec

    def counted_vec(ctx, idx, size):
        decoded[ctx, idx, size] += 1
        return vec(ctx, idx, size)

    inside, anns = [], Counter()
    correspondence = properties._annihilator_correspondence

    def counted_correspondence(*args):
        inside.append(True)
        try:
            return correspondence(*args)
        finally:
            inside.pop()

    def counted_ann_in_r(module, X):
        if inside:
            anns[frozenset(X)] += 1
        return ann_in_r(module, X)

    monkeypatch.setattr(BoundedContext, "_vec", counted_vec)
    monkeypatch.setattr(properties, "_annihilator_correspondence",
                        counted_correspondence)
    monkeypatch.setattr(properties, "ann_in_r", counted_ann_in_r)
    theorem_suite(M, P, 4, inst.embedding)
    ctx = context(M, P, 4)
    # |R| = |M| = 4 here, so an f and an m of one index share a size
    assert decoded and max(decoded.values()) <= 2
    for ctx_seen, n in Counter(key[0] for key in decoded.elements()).items():
        assert n == len(ctx_seen._fterms) + len(ctx_seen._mterms)
    coefficient_sets = {frozenset(c for _, c in ctx.mterms(m_idx))
                        for m_idx in range(ctx.m_space)}
    assert anns and max(anns.values()) == 1
    assert set(anns) <= coefficient_sets

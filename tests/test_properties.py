"""Property deciders, theorem reports, and witness replay."""

import gc
import hashlib
import json
import operator
import weakref

import pytest

from spbw import corpus, properties
from spbw.annihilator import ann_in_r, principal_right_ideal
from spbw.bounded import DEFAULT_MAX_SPACE, BoundedContext, context
from spbw.cli import parse_instance
from spbw.errors import SearchSpaceTooLarge, TooLarge, ValidationError
from spbw.finring import (identity_map, idempotents, upper_triangular,
                          validate_endomorphism, validate_sigma_derivation,
                          zero_map, zmod, zmod_product)
from spbw.polymodule import (act, cyclic_submodule, module_constant,
                             module_poly, quotient_module, regular_module)
from spbw.properties import (
    CONFIRMED,
    DECIDERS,
    FAILS,
    HOLDS,
    HOLDS_UP_TO_BOUND,
    HYPOTHESIS_NOT_MET,
    SKIPPED,
    VIOLATION,
    PropertyVerdict,
    _annihilator_correspondence,
    _baer_family,
    _bounded_side,
    _bounded_sigma_reduced,
    _coefficientwise_scalar,
    _coefficientwise_scalar_scan,
    _generators_json,
    _map_annihilation,
    _meet_closure,
    _mpoly_from_struct,
    _poly_from_struct,
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
    reduced_compatible_equivalence,
    replay,
    theorem_suite,
    torsion_witness,
)
from spbw.skewpbw import validate_presentation

import oracles

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


def test_quasi_baer_order_guard(z6):
    with pytest.raises(TooLarge):
        is_quasi_baer(z6.module, max_order=4)


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
            assert frozenset(kern[m]) == ann_in_r(M, {m}).elements, (name, m)
            cyc = cyclic_submodule(M, m).elements
            assert frozenset(ann_am[m]) == ann_in_r(M, cyc).elements, (name, m)


@pytest.mark.filterwarnings("ignore:ring of order 64")
def test_exact_baer_family_decides_z64_without_a_budget():
    # no guard of the degree-0 families refuses an exact verdict; the
    # submodule cap is a separate, explicit parameter
    M = regular_module(zmod(64))
    verdicts = [is_pp(M), is_pq_baer(M), is_quasi_baer(M, max_order=64),
                is_baer(M)]
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
    got = _meet_closure(seeds, operator.and_)
    assert got == {**seeds, frozenset({2}): frozenset({"a", "b"})}
    with pytest.raises(SearchSpaceTooLarge):
        _meet_closure(seeds, operator.and_, limit=2)


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
        rows.append(frozenset(kern[ctx.m_index(vec)]))
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


def test_torsion_witness(z6, z4, weyl):
    M, P = z6.module, z6.presentation
    mp = module_constant(M, P, 2)
    h = P.from_terms({(0, 0): 3, (1, 0): 3})
    c = torsion_witness(mp, h)
    assert c == 3
    assert M.action_table[2][c] == M.zero

    with pytest.raises(ValidationError) as err:
        torsion_witness(mp, P.zero_poly())
    assert err.value.kind == "hypothesis_not_met"

    # not a torsion pair
    with pytest.raises(ValidationError):
        torsion_witness(mp, P.one_poly())

    # hypotheses fail: Z4 is not reduced
    m4 = module_constant(z4.module, z4.presentation, 2)
    with pytest.raises(ValidationError):
        torsion_witness(m4, z4.presentation.constant(2))

    # hypotheses fail: the weyl quotient is not delta-compatible
    mw = module_constant(weyl.module, weyl.presentation,
                         weyl.module.element_index("[1]"))
    with pytest.raises(ValidationError):
        torsion_witness(mw, weyl.presentation.constant(
            weyl.presentation.ring.element_index("y")))


# -- theorem reports --------------------------------------------------------


def test_reduced_compatible_equivalence_statuses(z3, z4, weyl):
    for inst in (z3, z4, weyl):
        rep = reduced_compatible_equivalence(inst.module, inst.presentation)
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
    # corpus lacks
    sources = list(instances.values()) + [
        parse_instance('{"ring":"UT(2,Z2)","variables":1}')]
    for prop, decide in DECIDERS.items():
        if prop == "skew_quasi_armendariz":
            continue
        for inst in sources:
            M, P = inst.module, inst.presentation
            v = decide(M, P, 1, DEFAULT_MAX_SPACE)
            if v.status == FAILS:
                break
        else:
            pytest.fail(f"no source instance fails {prop}")
        assert replay(M, P, v) is True, prop
    # no instance tried fails skew_quasi_armendariz, so its rule gets a
    # forged witness: m = f = 1 over Z4 has m*1*f = 1 != 0
    M, P = instances["z4-regular"].module, instances["z4-regular"].presentation
    one = {"text": "1", "terms": [[[0], "1"]]}
    forged = PropertyVerdict("skew_quasi_armendariz", FAILS,
                             {"m": one, "f": one, "i_exp": [0], "j_exp": [0],
                              "r": "1", "t": [0]}, bound=1)
    assert replay(M, P, forged) is False


def _z3_zero_last():
    # Z3 tabulated as [1, 2, 0], so the zero is element 2
    labels = [1, 2, 0]
    index = {v: i for i, v in enumerate(labels)}
    return parse_instance(json.dumps({
        "ring": {"add": [[index[(a + b) % 3] for b in labels] for a in labels],
                 "mul": [[index[a * b % 3] for b in labels] for a in labels],
                 "names": ["1", "2", "0"]},
        "variables": 2, "relations": {"1,2": "1"}}))


def test_scalar_certificate_matches_the_scan():
    # the counting certificate gives the (ok, witness) of the per-(m, r)
    # scan on every corpus context with m_space * |R| <= 10^6 (z2xz2-swap
    # and weyl-dual-quotient fail), on UT(2,Z2) and on a zero that is not
    # element 0
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
            seen[got[0]] += 1
    assert seen[True] and seen[False]


def test_scalar_certificate_counts_instead_of_acting(monkeypatch):
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


def _slice_sources():
    """(name, fresh instance) for the corpus, UT(2,Z2) and a Z3 whose zero
    is not element 0."""
    return [(name, parse_instance(corpus.load(name)))
            for name in corpus.names()] + [
        ("UT(2,Z2)", parse_instance('{"ring":"UT(2,Z2)","variables":1}')),
        ("Z3 zero last", _z3_zero_last())]


def test_bounded_sigma_reduced_matches_the_act_scalar_oracle(monkeypatch):
    # the slice's action table and the first failure of the M<X> side agree
    # with act_scalar on every module polynomial; where the square guard
    # refuses, the table is checked on every 97th row
    def no_act(*args):
        raise AssertionError("act_is_zero called")

    seen = set()
    for name, inst in _slice_sources():
        M, P = inst.module, inst.presentation
        for d in (0, 1, 2):
            ctx = context(M, P, d)
            monkeypatch.setattr(ctx, "act_is_zero", no_act)
            action = ctx.scalar_action()
            square = ctx.m_space * ctx.m_space * ctx.ring_size
            rows = range(0, ctx.m_space, 1 if square <= DEFAULT_MAX_SPACE
                         else 97)
            want = oracles.slice_scalar_action(ctx, rows)
            assert {m: action[m] for m in rows} == want, (name, d)
            if square > DEFAULT_MAX_SPACE:
                with pytest.raises(SearchSpaceTooLarge):
                    _bounded_sigma_reduced(ctx, DEFAULT_MAX_SPACE)
                seen.add("refused")
                continue
            zero = ctx.constant_m_index(M.zero)
            fail = oracles.sigma_reduced_failure(P.ring, P.sigma_tables,
                                                 action, zero)
            ok, wit = _bounded_sigma_reduced(ctx, DEFAULT_MAX_SPACE)
            assert ok is (fail is None), (name, d)
            if fail is not None:
                side, m, x = fail
                key = "r" if side == "sigma_compatible" else "a"
                assert (wit["side"], wit["m"], wit[key]) == (
                    side, ctx.m_poly(m).to_json(M.name), P.ring.name(x)), \
                    (name, d)
                seen.add(side)
            if ctx.pair_space <= DEFAULT_MAX_SPACE:  # reads the table too
                _torsion_constant(ctx, DEFAULT_MAX_SPACE)
    assert seen == {"refused", "sigma_compatible", "reduced"}


def test_context_lives_exactly_as_long_as_its_module():
    inst = parse_instance(corpus.load("z4-regular"))
    M, P = inst.module, inst.presentation
    ctx = context(M, P, 1)
    assert context(M, P, 1) is ctx
    ref = weakref.ref(ctx)
    del inst, M, P, ctx
    gc.collect()
    assert ref() is None

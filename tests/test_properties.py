"""Property deciders, theorem reports, and witness replay."""

import gc
import json
import weakref

import pytest

from spbw import corpus, properties
from spbw.bounded import DEFAULT_MAX_SPACE, context
from spbw.cli import parse_instance
from spbw.errors import TooLarge, ValidationError
from spbw.finring import upper_triangular, zmod
from spbw.polymodule import module_constant, module_poly, regular_module
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
    _coefficientwise_scalar,
    _coefficientwise_scalar_scan,
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


@pytest.mark.parametrize("ringmaker", [lambda: zmod(3), lambda: zmod(4),
                                       lambda: zmod(6)],
                         ids=["Z3", "Z4", "Z6"])
def test_baer_family_matches_oracle(ringmaker):
    M = regular_module(ringmaker())
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


def test_context_lives_exactly_as_long_as_its_module():
    inst = parse_instance(corpus.load("z4-regular"))
    M, P = inst.module, inst.presentation
    ctx = context(M, P, 1)
    assert context(M, P, 1) is ctx
    ref = weakref.ref(ctx)
    del inst, M, P, ctx
    gc.collect()
    assert ref() is None

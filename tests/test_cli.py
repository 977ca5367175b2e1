"""Instance files, polynomial literals, command reports, exit codes."""

import json

import pytest

from spbw import corpus
from spbw.bounded import BoundedContext
from spbw.errors import ParseError, ValidationError
from spbw.monomial import MAX_BASIS
from spbw.cli import (
    main,
    parse_instance,
    parse_mpoly,
    parse_poly,
    run_command,
    serialize_instance,
)
from spbw.properties import TheoremReport, VIOLATION


# -- instance parsing -------------------------------------------------------


def test_corpus_listing():
    names = corpus.names()
    assert len(names) == 6
    assert names == tuple(sorted(names))
    with pytest.raises(KeyError):
        corpus.load("no-such-instance")


def test_round_trip_is_canonical(instances):
    for name, inst in instances.items():
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again.canonical == inst.canonical, name
        assert again.digest == inst.digest, name


def test_ring_shorthands():
    base = {"variables": 1, "sigma": ["id"], "delta": ["zero"],
            "module": "regular"}
    for ring, order in [("Z7", 7), ("Z2xZ3", 6), ("Z2[y]/(y^2)", 4)]:
        inst = parse_instance(json.dumps(dict(base, ring=ring)))
        assert inst.ring.order == order
    with pytest.warns(UserWarning, match="ring of order 27"):
        inst = parse_instance(json.dumps(dict(base, ring="UT(2,Z3)")))
    assert inst.ring.order == 27


def test_ring_table_form():
    add = [[0, 1], [1, 0]]
    mul = [[0, 0], [0, 1]]
    text = json.dumps({"ring": {"add": add, "mul": mul, "label": "F2"},
                       "variables": 1, "sigma": ["id"], "delta": ["zero"],
                       "module": "regular"})
    inst = parse_instance(text)
    assert inst.ring.order == 2
    assert inst.ring.label == "F2"


def test_parse_rejects_unknown_keys():
    with pytest.raises(ParseError):
        parse_instance(json.dumps({"ring": "Z3", "variables": 1,
                                   "sigma": ["id"], "delta": ["zero"],
                                   "module": "regular", "extra": 1}))


def test_parse_rejects_bad_json_with_position():
    with pytest.raises(ParseError) as err:
        parse_instance("{\n  \"ring\": }")
    assert err.value.line == 2
    assert err.value.col is not None


def test_parse_rejects_bad_relations():
    base = {"ring": "Z3", "variables": 2, "sigma": ["id", "id"],
            "delta": ["zero", "zero"], "module": "regular"}
    with pytest.raises(ParseError):
        parse_instance(json.dumps(dict(base, relations={"2,1": {"c": "1"}})))
    with pytest.raises(ParseError):
        parse_instance(json.dumps(dict(base, relations={"1,3": {"c": "1"}})))
    with pytest.raises(ParseError):
        parse_instance(json.dumps(dict(base, relations={"nonsense": "1"})))
    # missing relation surfaces as a validation error from the engine
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(base))


def test_parse_sigma_delta_forms(swap):
    # a table spelling of the swap map builds the same presentation; the
    # canonical form keeps the author's spelling, so digests differ
    table_form = dict(json.loads(serialize_instance(swap)))
    table_form["sigma"] = [[0, 2, 1, 3]]
    inst = parse_instance(json.dumps(table_form))
    assert inst.presentation.sigma_tables == swap.presentation.sigma_tables
    assert inst.canonical["sigma"] == [[0, 2, 1, 3]]
    assert inst.digest != swap.digest


def test_order_override_changes_digest(z3):
    text = serialize_instance(z3)
    lex = parse_instance(text, order_override="lex")
    assert lex.presentation.order.kind == "lex"
    assert lex.digest != z3.digest
    # the canonical form spells the full order object
    assert lex.canonical["order"]["kind"] == "lex"


def test_embedding_forms(z4):
    text = json.loads(serialize_instance(z4))
    assert z4.embedding == tuple(range(4))
    text["embedding"] = {"generator": "3"}
    inst = parse_instance(json.dumps(text))
    assert inst.embedding == (0, 3, 2, 1)
    text["embedding"] = [0, 3, 2, 1]
    inst2 = parse_instance(json.dumps(text))
    assert inst2.embedding == (0, 3, 2, 1)
    del text["embedding"]
    inst3 = parse_instance(json.dumps(text))
    assert inst3.embedding is None


def test_quotient_module_form(weyl):
    assert weyl.module.order == 2
    assert weyl.embedding is None
    assert weyl.canonical["module"] == {"quotient": ["y"]}


# -- polynomial literals ------------------------------------------------------


def test_parse_poly_shapes(quantum):
    P = quantum.presentation
    f = parse_poly(P, "2*x1^2*x2 + 3")
    assert f.terms == {(2, 1): 2, (0, 0): 3}
    assert parse_poly(P, "0").is_zero()
    # whitespace tolerated
    g = parse_poly(P, " x1 * x2 ")
    assert g.terms == {(1, 1): 1}


def test_parse_poly_respects_skew_order(swap):
    P = swap.presentation
    left = parse_poly(P, "(0,1)*x1")
    right = parse_poly(P, "x1*(0,1)")
    # x1 r = sigma(r) x1: the swap moves the coefficient
    assert left.terms == {(1,): P.ring.element_index("(0,1)")}
    assert right.terms == {(1,): P.ring.element_index("(1,0)")}


def test_parse_poly_commutative_coincidence(z6):
    P = z6.presentation
    assert parse_poly(P, "2*x1") == parse_poly(P, "x1*2")


def test_parse_poly_errors(quantum):
    P = quantum.presentation
    for bad in ("", "x1**x2", "x3", "x0", "7", "x1^0*junk", "+", "x1^-2"):
        with pytest.raises((ParseError, ValidationError)):
            parse_poly(P, bad)


def test_parse_mpoly(weyl):
    M, P = weyl.module, weyl.presentation
    u = parse_mpoly(M, P, "[1]*x1 + [1]")
    assert u.terms == {(1,): 1, (0,): 1}
    # module element must come first
    with pytest.raises(ParseError):
        parse_mpoly(M, P, "x1*[1]")
    # ring elements cannot appear after the module coefficient
    with pytest.raises(ParseError):
        parse_mpoly(M, P, "[1]*y")
    with pytest.raises((ParseError, ValidationError)):
        parse_mpoly(M, P, "nope*x1")


def test_printed_polynomials_parse_back(instances):
    # every polynomial and module polynomial of degree <= 1 parses back from
    # its printed text, also when a module element is named like a variable
    named_x1 = parse_instance(json.dumps({
        "ring": "Z2", "variables": 1,
        "module": {"add": [[0, 1], [1, 0]], "action": [[0, 0], [0, 1]],
                   "names": ["0", "x1"]}}))
    for inst in [*instances.values(), named_x1]:
        M, P = inst.module, inst.presentation
        ctx = BoundedContext(M, P, 1)
        for f_idx in range(ctx.f_space):
            f = ctx.f_poly(f_idx)
            assert parse_poly(P, f.to_string()) == f, f.to_string()
        for m_idx in range(ctx.m_space):
            mp = ctx.m_poly(m_idx)
            assert parse_mpoly(M, P, mp.to_string()) == mp, mp.to_string()
    report, _ = run_command(named_x1, "act", ["m1*x1", "1"], {})
    assert report["result"]["m"] == "m1*x1"


# -- commands through run_command ---------------------------------------------


def test_mul_command_quantum(quantum):
    report, code = run_command(quantum, "mul", ["x2", "x1"], {})
    assert code == 0
    assert report["result"]["product"]["text"] == "2*x1*x2"
    assert report["schema"] == 1
    assert report["instance"]["digest"] == quantum.digest


def test_act_command_weyl(weyl):
    report, code = run_command(weyl, "act", ["[1]*x1", "y"], {})
    assert code == 0
    assert report["result"]["value"]["text"] == "[1]"


def test_ann_command_z4(z4):
    report, code = run_command(z4, "ann", ["2"], {})
    assert code == 0
    res = report["result"]
    assert res["annihilator"] == ["0", "2"]
    assert res["idempotent"] is None


def test_check_command_exit_code(z4, z3):
    report, code = run_command(z4, "check", ["pp"], {})
    assert code == 1
    assert report["result"]["status"] == "fails"
    assert report["result"]["witness"]["m"] == "2"

    report, code = run_command(z3, "check", ["pp"], {})
    assert code == 0
    assert report["result"]["status"] == "holds"


def test_validate_command(weyl):
    report, code = run_command(weyl, "validate", [], {})
    assert code == 0
    res = report["result"]
    assert res["valid"] is True
    assert res["quasi_commutative"] is False
    assert res["bijective"] is True
    assert res["consistency_certificate"] == 4
    assert res["canonical"] == weyl.canonical


def test_theorems_command_counts(z4):
    report, code = run_command(z4, "theorems", [], {"degree": 2})
    assert code == 0
    res = report["result"]
    assert len(res["reports"]) == 17
    assert sum(res["summary"].values()) == 17
    assert "violation" not in res["summary"]


def test_unknown_property_and_command(z3):
    from spbw.errors import UnknownProperty
    with pytest.raises(UnknownProperty):
        run_command(z3, "check", ["frobenius"], {})
    with pytest.raises(ParseError):
        run_command(z3, "mul", ["x1"], {})
    with pytest.raises(ParseError):
        run_command(z3, "frobnicate", [], {})


# -- the executable surface ---------------------------------------------------


def test_main_validate_exit_zero(capsys):
    assert main(["z4-regular", "validate", "--json-only"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["result"]["valid"] is True


def test_main_check_exit_one(capsys):
    assert main(["z4-regular", "check", "pp", "--json-only"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["status"] == "fails"


def test_main_missing_file_exit_two(capsys):
    assert main(["./does-not-exist.json", "validate", "--json-only"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "ParseError"


@pytest.mark.parametrize("case", ["directory", "not-utf8", "nul-byte"])
def test_main_unreadable_instance_path_exit_two(case, tmp_path, capsys):
    # a directory, a file that is not UTF-8 and a path with a NUL byte each
    # get a structured error, not a traceback
    path = tmp_path / "bad.json"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"\xff\xfe{}")
    arg = str(path) + ("\0.json" if case == "nul-byte" else "")
    assert main([arg, "validate", "--json-only"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "ParseError"
    assert repr(arg) in payload["error"]["message"]


def test_main_unknown_property_exit_two(capsys):
    assert main(["z3-trivial", "check", "frobenius", "--json-only"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "UnknownProperty"
    assert "frobenius" in payload["error"]["message"]


def test_main_byte_identical_reruns(capsys):
    first = main(["z4-regular", "theorems", "--json-only"])
    out1 = capsys.readouterr().out
    second = main(["z4-regular", "theorems", "--json-only"])
    out2 = capsys.readouterr().out
    assert first == second == 0
    assert out1 == out2


def test_main_human_summary_on_stderr(capsys):
    main(["z4-regular", "check", "reduced"])
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout stays pure JSON
    assert "spbw check" in captured.err
    assert "reduced" in captured.err


def test_main_violation_exit_three(monkeypatch, capsys):
    import spbw.cli as cli_mod

    def fake_suite(M, P, degree=2, embedding=None, max_space=0):
        return [TheoremReport("synthetic", VIOLATION, (), "forced", None)]

    monkeypatch.setattr(cli_mod, "theorem_suite", fake_suite)
    assert main(["z4-regular", "theorems", "--json-only"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["summary"] == {"violation": 1}


def test_main_search_space_error(capsys):
    code = main(["z3-trivial", "check", "skew_armendariz",
                 "--degree", "3", "--max-space", "10", "--json-only"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "SearchSpaceTooLarge"
    assert payload["error"]["limit"] == 10


@pytest.mark.parametrize("argv", [
    ["z3-trivial", "theorems", "--degree", "-1"],
    ["z3-trivial", "check", "skew_armendariz", "--degree", "-1"],
])
def test_main_negative_degree_exit_two(argv, capsys):
    assert main(argv + ["--json-only"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("argv", [
    ["z4-regular", "theorems", "--degree", "5000"],
    ["z4-regular", "theorems", "--degree", "200000"],
    ["z6-commutative", "theorems", "--degree", "64"],
], ids=["z4-d5000", "z4-d200000", "z6-d64"])
def test_main_oversize_degree_exit_two(argv, capsys):
    # refused from C(n+d, n) before any basis is built: at the first the
    # refusal's space had over 4,300 digits, the second did not return
    assert main(argv + ["--json-only"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["type"], error["kind"]) == ("ValidationError", "bad_input")
    assert f"at most {MAX_BASIS} monomials" in error["message"]


_Z2_MODULE = {"add": [[0, 1], [1, 0]], "action": [[0, 0], [0, 1]]}
_Z2_RING = {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}


@pytest.mark.parametrize("instance", [
    {"module": dict(_Z2_MODULE, add=[[0.0, 1], [1, 0]])},
    {"module": dict(_Z2_MODULE, add=[["0", 1], [1, 0]])},
    {"module": dict(_Z2_MODULE, add=5)},
    {"module": dict(_Z2_MODULE, names=4)},
    {"ring": dict(_Z2_RING, add=5)},
    {"ring": dict(_Z2_RING, names=7)},
    {"sigma": [[0, 1.0]]},
    {"delta": [[0, 1.0]]},
    {"embedding": [0, 1.0]},
    {"embedding": {"generator": 1}},
    {"module": {"quotient": [1.5]}},
    {"module": {"quotient": 5}},
    {"variables": 2, "relations": {"1,2": {"c": 1}}},
    {"variables": 2, "relations": {"1,2": {"c": "1", "linear": 3}}},
    {"ring": "UT(200,Z2)"},
    {"ring": "Z" + "7" * 5000},
], ids=["module-add-float", "module-add-str", "module-add-int",
        "module-names-int", "ring-add-int", "ring-names-int", "sigma-float",
        "delta-float", "embedding-float", "embedding-generator-int",
        "quotient-float", "quotient-int", "relation-c-int", "relation-linear-int",
        "ut-huge-order", "zmod-5000-digits"])
def test_malformed_instances_exit_two(instance, tmp_path, capsys):
    data = dict({"ring": "Z2", "variables": 1}, **instance)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    assert main([str(path), "validate", "--json-only"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] in ("ParseError", "ValidationError")
    assert error["message"]


def _validate_exit(data, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    code = main([str(path), "validate", "--json-only"])
    return code, json.loads(capsys.readouterr().out)


def test_order_precedence_not_a_list_is_a_parse_error(tmp_path, capsys):
    code, out = _validate_exit({"ring": "Z2", "variables": 1,
                                "order": {"precedence": 5}}, tmp_path, capsys)
    assert code == 2
    assert out["error"]["type"] == "ParseError"


def test_order_precedence_with_a_name_is_a_parse_error(tmp_path, capsys):
    code, out = _validate_exit({"ring": "Z2", "variables": 2,
                                "relations": {"1,2": "1"},
                                "order": {"precedence": ["a", 0]}},
                               tmp_path, capsys)
    assert code == 2
    assert out["error"]["type"] == "ParseError"


@pytest.mark.parametrize("data", [
    {"ring": "UT(3000,Z1)", "variables": 1},
    {"ring": "Z2", "variables": 1000000},
], ids=["ut-3000-z1", "a-million-variables"])
def test_huge_shapes_answer(data, tmp_path, capsys):
    # each is refused by a fixed cap before its tables or per-variable maps
    # are built; without the caps neither returns
    code, out = _validate_exit(data, tmp_path, capsys)
    assert code in (0, 2)
    if code == 2:
        assert out["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("argv", [
    ["mul", "x1^99999999", "x2"],
    ["mul", "x2^40*x1^25", "x1"],
    ["act", "1*x1^65", "x1"],
    ["act", "1*x1", "x1^" + "9" * 5000],
    ["mul", "x" + "1" * 5000, "x2"],
], ids=["mul-huge-exponent", "mul-degree-65-term", "act-module-term",
        "act-5000-digit-exponent", "mul-5000-digit-variable"])
def test_polynomial_literals_past_the_degree_cap_exit_two(argv, capsys):
    # refused before any word is built; without the cap the first argv
    # does not return
    assert main(["z3-trivial", *argv, "--json-only"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"


def test_polynomial_literals_at_the_degree_cap_parse(z3):
    P = z3.presentation
    assert parse_poly(P, "x1^32*x2^32").terms == {(32, 32): 1}
    assert parse_mpoly(z3.module, P, "1*x2^64").terms == {(0, 64): 1}


def test_zero_that_is_not_element_0_decides_like_z3(tmp_path, capsys):
    # Z3 tabulated as [1, 2, 0]: element 0 is a unit, the zero is element 2;
    # every report must read as on the isomorphic z3-trivial
    labels = [1, 2, 0]
    index = {v: i for i, v in enumerate(labels)}
    ring = {"add": [[index[(a + b) % 3] for b in labels] for a in labels],
            "mul": [[index[a * b % 3] for b in labels] for a in labels],
            "names": ["1", "2", "0"]}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(dict(json.loads(corpus.load("z3-trivial")),
                                    label="z3-zero-last", ring=ring)))
    statuses = []
    for source in (str(path), "z3-trivial"):
        assert main([source, "theorems", "--degree", "1", "--json-only"]) == 0
        reports = json.loads(capsys.readouterr().out)["result"]["reports"]
        statuses.append([(r["theorem"], r["status"]) for r in reports])
    assert statuses[0] == statuses[1]


def test_canonical_spellings_are_reserved():
    # m1 on element 0 would make the printed m1*x1 (element 1) parse back
    # as element 0; e<j> is reserved as well, so a ring's names stay valid
    # for its regular module
    for names in (["m1", "x1"], ["e1", "x1"]):
        with pytest.raises(ValidationError) as exc:
            parse_instance(json.dumps({
                "ring": "Z2", "variables": 1,
                "module": dict(_Z2_MODULE, names=names)}))
        assert exc.value.kind == "bad_table"
    with pytest.raises(ValidationError):
        parse_instance(json.dumps({"ring": dict(_Z2_RING, names=["m1", "a"]),
                                   "variables": 1}))
    ok = parse_instance(json.dumps({"ring": "Z2", "variables": 1,
                                    "module": dict(_Z2_MODULE,
                                                   names=["m0", "e1"])}))
    assert ok.module.element_index("m1") == 1


@pytest.mark.parametrize("data", [
    {"ring": "Z٣", "variables": 1},
    {"ring": "Z2xZ٢", "variables": 1},
    {"ring": "UT(٢,Z2)", "variables": 1},
    {"ring": "Z3", "variables": 2, "relations": {"١,2": "1"}},
], ids=["zmod", "zmod-product", "ut", "relation-key"])
def test_non_ascii_digits_in_instances_exit_two(data, tmp_path, capsys):
    # int() reads Arabic-Indic digits, so Z٣ once validated as Z3
    # under another canonical form and digest
    code, out = _validate_exit(data, tmp_path, capsys)
    assert code == 2
    assert out["error"]["type"] == "ParseError"


@pytest.mark.parametrize("argv", [
    ["mul", "x١", "x1"],
    ["mul", "x1^٢", "x1"],
    ["act", "1*x١", "x1"],
], ids=["mul-variable", "mul-exponent", "act-variable"])
def test_non_ascii_digits_in_literals_exit_two(argv, capsys):
    # x١ once parsed as x1; now it is no variable name
    assert main(["z3-trivial", *argv, "--json-only"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] in (
        "ParseError", "ValidationError")

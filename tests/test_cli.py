"""Instance files, polynomial literals, command reports, exit codes."""

import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spbw
from spbw import corpus, properties
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
from spbw.properties import TheoremReport, VIOLATION, theorem_suite

from conftest import LIE_Z3, WEYL_A1_Z5


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


def test_order_given_as_a_string(z3):
    # "order": "lex" in the file builds the order that --order lex does
    data = dict(json.loads(serialize_instance(z3)), order="lex")
    inst = parse_instance(json.dumps(data))
    lex = parse_instance(serialize_instance(z3), order_override="lex")
    assert inst.presentation.order == lex.presentation.order
    assert inst.presentation.order.kind == "lex"


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


def _weyl_closed_form(a, b):
    """x2^a * x1^b in A1(Z5), read from the benchmark's closed form."""
    path = Path(__file__).resolve().parents[1] / "bench" / "arith.py"
    spec = importlib.util.spec_from_file_location("spbw_bench_arith", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.closed_form("weyl-a1-z5", a, b)


@pytest.mark.parametrize("text,left,right", [
    (WEYL_A1_Z5, "x2^64", "x1^64"), (LIE_Z3, "x3^64", "x1^64")],
    ids=["weyl-a1-z5", "u-sl2-z3"])
def test_main_mul_at_the_degree_cap(text, left, right, tmp_path, capsys):
    # whole-word rewriting did not return on either; the one-letter tables
    # fill without deep recursion
    path = tmp_path / "instance.json"
    path.write_text(text, encoding="utf-8")
    start = time.monotonic()
    assert main([str(path), "mul", left, right, "--json-only"]) == 0
    assert time.monotonic() - start < 30
    product = json.loads(capsys.readouterr().out)["result"]["product"]
    terms = {tuple(alpha): int(c) for alpha, c in product["terms"]}
    assert terms
    if text == WEYL_A1_Z5:
        assert terms == _weyl_closed_form(64, 64)


@pytest.mark.parametrize("case", ["directory", "not-utf8", "nul-byte"])
def test_main_unreadable_instance_path_exit_two(case, tmp_path, monkeypatch,
                                                capsys):
    # a directory, a file that is not UTF-8 and a path with a NUL byte each
    # get a structured error, not a traceback; the path is relative, so it
    # is under 80 characters and quoted whole
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.json"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(b"\xff\xfe{}")
    arg = "bad.json" + ("\0.json" if case == "nul-byte" else "")
    assert main([arg, "validate", "--json-only"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "ParseError"
    assert repr(arg) in payload["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["z3-trivial", "validate", "--order", "foo"],
    ["z3-trivial", "validate", "--degree", "abc"],
    ["z3-trivial", "validate", "--max-space", "1e3"],
    ["z3-trivial", "frobnicate"],
    []], ids=["order", "degree", "max-space", "command", "no-arguments"])
def test_main_usage_errors_exit_two(argv, capsys):
    # each once exited 2 with nothing on stdout; the usage stays on stderr
    assert main(argv) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ParseError" and error["message"]
    assert captured.err.startswith("usage: spbw")


def test_main_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spbw")


def test_main_unknown_property_exit_two(capsys):
    assert main(["z3-trivial", "check", "frobenius", "--json-only"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["type"] == "UnknownProperty"
    assert "frobenius" in payload["error"]["message"]


@pytest.mark.parametrize("command", ["validate", "theorems"])
def test_main_stray_arguments_exit_two(command, capsys):
    # both once ignored the extra word and exited 0
    assert main(["z4-regular", command, "extra", "--json-only"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == {"type": "ParseError",
                                "message": f"{command} takes no arguments"}


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


def test_forced_torsion_counterexample_is_a_violation(z3, monkeypatch,
                                                      capsys):
    """z3-trivial at d=1 meets all five hypotheses of
    compatible_torsion_constant, so a refuted conclusion is a violation,
    carrying the conclusion's witness, and the run exits 3."""
    forced = {"m": "forced"}
    monkeypatch.setattr(properties, "_torsion_constant",
                        lambda ctx, max_space: (False, forced))
    [report] = [r for r in theorem_suite(z3.module, z3.presentation, degree=1)
                if r.theorem == "compatible_torsion_constant"]
    assert report.status == VIOLATION
    assert report.witness == forced
    assert report.conclusion.endswith("refuted")
    assert run_command(z3, "theorems", [], {"degree": 1})[1] == 3
    assert main(["z3-trivial", "theorems", "--degree", "1", "--json-only"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv, code", [
    (["z3-trivial", "theorems", "--degree", "1"], 0),
    (["z4-regular", "check", "pp"], 1),
])
def test_main_closed_stdout_keeps_exit_code(argv, code):
    """A reader that closed stdout before the run starts gets nothing: no
    traceback on stderr, and the exit code is the one the run earned."""
    env = dict(os.environ, PYTHONPATH=str(Path(spbw.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spbw.cli", *argv, "--json-only"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == code
    err = proc.stderr.decode()
    assert "Traceback" not in err and "Exception ignored" not in err


def test_main_out_of_memory_exits_two():
    """A run that runs out of memory is refused as a search past the budget
    is, with exit 2 and the structured error: 1 would mean a property
    fails.  The child caps only its own address space, at 400 MB, which
    quantum-plane-z5 d=3's |M|^k = 9.8e6 structures outgrow in a second."""
    resource = pytest.importorskip("resource")
    cap = 400 * 2 ** 20
    env = dict(os.environ, PYTHONPATH=str(Path(spbw.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "spbw.cli", "quantum-plane-z5", "theorems",
         "--degree", "3", "--max-space", str(10 ** 20), "--json-only"],
        capture_output=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {"schema": 1, "error": {
        "type": "MemoryError", "message": "out of memory"}}
    assert "Traceback" not in proc.stderr.decode()


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
    {"variables": 2, "relations": {"1" * 5000 + ",2": "1"}},
    # JSON true and false are no 1 and 0: kept in the canonical form, they
    # would give an instance with the same tables another digest
    {"variables": True},
    {"ring": dict(_Z2_RING, add=[[False, True], [True, False]])},
    {"sigma": [[False, True]]},
    {"embedding": [False, True]},
    {"module": dict(_Z2_MODULE, action=[[0, 0], [0, True]])},
    # 5,000-character inputs are quoted by their head and length only
    {"variables": 2, "relations": {"x" * 5000: "1"}},
    {"ring": "Q" * 5000},
    {"sigma": ["s" * 5000]},
    {"k" * 5000: 1},
    {"ring": dict(_Z2_RING, names=["e" + "5" * 5000, "b"])},
], ids=["module-add-float", "module-add-str", "module-add-int",
        "module-names-int", "ring-add-int", "ring-names-int", "sigma-float",
        "delta-float", "embedding-float", "embedding-generator-int",
        "quotient-float", "quotient-int", "relation-c-int", "relation-linear-int",
        "ut-huge-order", "zmod-5000-digits", "relation-key-5000-digits",
        "variables-bool", "ring-add-bool", "sigma-bool", "embedding-bool",
        "module-action-bool", "relation-key-5000-chars",
        "ring-shorthand-5000-chars", "sigma-spec-5000-chars",
        "instance-key-5000-chars", "canonical-name-5000-chars"])
def test_malformed_instances_exit_two(instance, tmp_path, capsys):
    data = dict({"ring": "Z2", "variables": 1}, **instance)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    assert main([str(path), "validate", "--json-only"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] in ("ParseError", "ValidationError")
    assert 0 < len(error["message"]) < 200


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
    # refused before any monomial is built; without the cap the first argv
    # would exhaust the stack in the normal-form tables
    assert main(["z3-trivial", *argv, "--json-only"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"


def test_polynomial_literals_at_the_degree_cap_parse(z3):
    P = z3.presentation
    assert parse_poly(P, "x1^32*x2^32").terms == {(32, 32): 1}
    assert parse_mpoly(z3.module, P, "1*x2^64").terms == {(0, 64): 1}


def test_digits_past_leading_zeros_are_read_as_their_value(z3, tmp_path,
                                                           capsys):
    # 5,000 leading zeros are no number of 5,000 digits, which int() refuses
    zeros = "0" * 5000
    P = z3.presentation
    assert parse_poly(P, f"x{zeros}2^{zeros}3") == parse_poly(P, "x2^3")
    assert parse_mpoly(z3.module, P, f"1*x{zeros}1") == \
        parse_mpoly(z3.module, P, "1*x1")
    assert main(["z3-trivial", "mul", f"x1^{zeros}65", "1", "--json-only"]) == 2
    assert "degree cap" in json.loads(capsys.readouterr().out)["error"]["message"]
    code, out = _validate_exit({"ring": f"Z{zeros}7", "variables": 2,
                                "relations": {f"{zeros}1,{zeros}2": "1"}},
                               tmp_path, capsys)
    assert code == 0
    assert out["result"]["ring_order"] == 7
    assert out["result"]["canonical"]["relations"] == {
        "1,2": {"c": "1", "const": "0", "linear": ["0", "0"]}}


_LONG = "q" * 3000


@pytest.mark.parametrize("argv", [
    ["z3-trivial", "mul", "x1^" + "9" * 3000, "1"],
    ["z3-trivial", "act", "x1" + "*x1" * 1000, "1"],
    ["z3-trivial", "act", "1*2" + "*1" * 1500, "1"],
    ["z3-trivial", "mul", "1+" * 1500 + "+1", "1"],
    ["z3-trivial", "mul", "x" + "3" * 3000, "1"],
    ["x/" * 1500, "validate"],
    ["./" * 1500 + "latin1.json", "validate"],
    ["./" * 1500, "validate"],
    ["\0" * 3000, "validate"],
    ["z3-trivial", "c" * 3000],
    ["z3-trivial", "check", _LONG],
    ["z3-trivial", "ann", _LONG],
    ["z3-trivial", "mul", _LONG, "1"],
    ["z3-trivial", "act", _LONG, "1"],
    ["z3-trivial", "theorems", "--degree", "9" * 3000],
    ["z3-trivial", "theorems", "--degree", "9" * 5000],
    ["z3-trivial", "theorems", "--order", "o" * 3000],
], ids=["term-past-the-degree-cap", "module-term-led-by-a-variable",
        "module-term-with-a-scalar-factor", "empty-term", "unknown-variable",
        "no-such-instance", "instance-not-utf8", "instance-unreadable",
        "instance-path-nul", "unknown-command", "unknown-property",
        "ann-element", "literal-coefficient", "module-element",
        "degree-past-the-basis-cap", "degree-not-an-int", "order-not-a-choice"])
def test_long_inputs_are_quoted_by_head_and_length(argv, tmp_path,
                                                   monkeypatch, capsys):
    # every site that echoes an input quotes its first 80 characters and
    # its length past 80; the list of choices a refused name is given is
    # fixed, so only the message before it is measured
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.json").write_bytes(b"\xff\xfe")
    assert main(argv + ["--json-only"]) == 2
    out = capsys.readouterr().out
    assert len(out.encode()) < 400
    error = json.loads(out)["error"]
    assert error["type"] in ("ParseError", "ValidationError", "UnknownProperty")
    assert "characters)" in error["message"]
    assert 0 < len(re.split(r";? \(?choose from", error["message"])[0]) < 200


def test_run_command_quotes_an_unknown_command(z3):
    with pytest.raises(ParseError) as exc:
        run_command(z3, "c" * 3000, [], {})
    assert len(str(exc.value)) < 200
    with pytest.raises(ParseError, match=r"^unknown command 'frob'$"):
        run_command(z3, "frob", [], {})


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

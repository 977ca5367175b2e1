"""Every refusal branch of the validators and the CLI parser, one table.

A row the CLI can reach runs through `cli.main`, which must exit 2 with the
structured error and its kind; the rest call the API.  The human summary
each command writes to stderr is checked here too.
"""

import json

import pytest

from spbw import corpus
from spbw.cli import main
from spbw.errors import SpbwError
from spbw.finring import identity_map, zero_map, zmod, zmod_product
from spbw.polymodule import (MODULE_ORDER_CAP, ModulePoly, Submodule, act,
                             regular_module)
from spbw.skewpbw import mul, validate_presentation

_Z2_ADD = [[0, 1], [1, 0]]
_Z2_MUL = [[0, 0], [0, 1]]
_Z3_ADD = [[(a + b) % 3 for b in range(3)] for a in range(3)]
_ZERO3 = [[0] * 3] * 3
_XOR4 = [[a ^ b for b in range(4)] for a in range(4)]
_N = MODULE_ORDER_CAP + 1   # Z/_N, a module table one row past the cap
_ZN_ADD = [[(a + b) % _N for b in range(_N)] for a in range(_N)]


def _presentation(sigmas, deltas, relations=None):
    def build():
        R = zmod(2)
        validate_presentation(R, sigmas(R), deltas(R), relations)
    return build


def _z2x():
    R = zmod(2)
    return validate_presentation(R, [identity_map(R)], [zero_map(R)], {})


def _act_over_another_ring():
    # a second zmod(2) has equal tables but is another ring object
    P = _z2x()
    act(ModulePoly(regular_module(zmod(2)), P, {}), P.one_poly())


# id: (source, error type, kind, message fragment).  A source is an API
# call, or (instance, argv) for `cli.main`: an instance is a corpus name,
# JSON text, or keys over {"ring": "Z2", "variables": 1}.
REFUSALS = {
    "group-not-commutative": (
        ({"ring": {"add": [[0, 1, 2], [1, 0, 1], [2, 2, 0]], "mul": _ZERO3}},
         ["validate"]), "ValidationError", "bad_group", "not commutative"),
    "group-not-associative": (
        ({"ring": {"add": [[0, 1, 2], [1, 0, 0], [2, 0, 0]], "mul": _ZERO3}},
         ["validate"]), "ValidationError", "bad_group", "not associative"),
    "group-no-inverse": (
        ({"ring": {"add": [[0, 1], [1, 1]], "mul": [[0, 0], [0, 0]]}},
         ["validate"]), "ValidationError", "bad_group", "no additive inverse"),
    "names-not-distinct": (
        ({"ring": {"add": _Z2_ADD, "mul": _Z2_MUL, "names": ["a", "a"]}},
         ["validate"]), "ValidationError", "bad_table", "must be distinct"),
    "ring-non-associative": (
        ({"ring": {"add": _Z2_ADD, "mul": [[1, 0], [0, 0]]}}, ["validate"]),
        "ValidationError", "non_associative", ""),
    # a * b = b is associative and left but not right distributive
    "ring-right-non-distributive": (
        ({"ring": {"add": _Z2_ADD, "mul": [[0, 1], [0, 1]]}}, ["validate"]),
        "ValidationError", "non_distributive", "witness=(0, 0, 1)"),
    "sigma-not-additive": (
        ({"ring": "Z3", "sigma": [[0, 1, 1]]}, ["validate"]),
        "ValidationError", "not_additive", ""),
    "sigma-not-unital": (
        ({"ring": "Z3", "sigma": [[0, 0, 0]]}, ["validate"]),
        "ValidationError", "not_unital", ""),
    "delta-not-additive": (
        ({"ring": "Z3", "delta": [[0, 1, 1]]}, ["validate"]),
        "ValidationError", "not_additive", ""),
    "delta-leibniz": (
        ({"ring": "Z3", "delta": [[0, 1, 2]]}, ["validate"]),
        "ValidationError", "leibniz_fail", ""),
    "module-action-not-associative": (
        ({"ring": "Z3", "module": {"add": _Z3_ADD,
                                   "action": [[0, 0, 0], [0, 1, 2], [0, 2, 0]]}},
         ["validate"]), "ValidationError", "action_not_associative", ""),
    # m(r + s) = mr + ms fails at m = r = s = 1
    "module-not-additive-in-r": (
        ({"ring": "Z3", "module": {"add": _Z3_ADD,
                                   "action": [[0, 0, 0], [0, 1, 0], [0, 0, 0]]}},
         ["validate"]), "ValidationError", "not_biadditive", "witness=(1, 1, 1)"),
    # (m + m')r = mr + m'r fails at m = 1, m' = 2, r = (0,1): the action of
    # (1,0) on Z2xZ2 is an idempotent map that is not additive
    "module-not-additive-in-m": (
        ({"ring": "Z2xZ2", "module": {
            "add": _XOR4,
            "action": [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 2, 2], [0, 3, 0, 3]]}},
         ["validate"]), "ValidationError", "not_biadditive", "witness=(1, 2, 1)"),
    # refused by its order alone, before its |M|^3 group-law scan
    "module-order-past-cap": (
        ({"module": {"add": _ZN_ADD, "action": [[0, m] for m in range(_N)]}},
         ["validate"]), "ValidationError", "bad_table",
        f"list of 1 to {MODULE_ORDER_CAP} rows"),
    "embedding-not-additive": (
        ({"ring": "Z3", "embedding": [1, 0, 2]}, ["validate"]),
        "ValidationError", "not_additive", "embedding"),
    # the coordinate swap of Z2xZ2 is additive but not right linear
    "embedding-not-linear": (
        ({"ring": "Z2xZ2", "embedding": [0, 2, 1, 3]}, ["validate"]),
        "ValidationError", "not_linear", "embedding"),
    "presentation-bad-order": (
        ({"variables": 2, "relations": {"1,2": "1"},
          "order": {"precedence": [0]}}, ["validate"]),
        "ValidationError", "bad_order", ""),
    "presentation-not-endomorphism": (
        _presentation(lambda R: [object()], lambda R: [zero_map(R)]),
        "ValidationError", "not_endomorphism", ""),
    "presentation-not-sigma-derivation": (
        _presentation(lambda R: [identity_map(R)], lambda R: [identity_map(R)]),
        "ValidationError", "not_sigma_derivation", ""),
    "presentation-bad-relation": (
        _presentation(lambda R: [identity_map(R)] * 2,
                      lambda R: [zero_map(R)] * 2, {(1, 0): 1}),
        "ValidationError", "bad_relation", ""),
    "presentation-relation-const-out-of-range": (
        _presentation(lambda R: [identity_map(R)] * 2,
                      lambda R: [zero_map(R)] * 2, {(0, 1): (1, 5, (0, 0))}),
        "ValidationError", "bad_relation", "witness=(0, 1)"),
    "presentation-relation-linear-out-of-range": (
        _presentation(lambda R: [identity_map(R)] * 2,
                      lambda R: [zero_map(R)] * 2, {(0, 1): (1, 0, (0, 2))}),
        "ValidationError", "bad_relation", "witness=(0, 1)"),
    # {0, (1,1)} in Z2xZ2 is closed under addition, but (1,1) * (0,1) is
    # (0,1)
    "submodule-not-closed-under-action": (
        lambda: Submodule(regular_module(zmod_product(2, 2)),
                          frozenset({0, 3})),
        "ValidationError", "not_submodule", "witness=(3, 1)"),
    "act-module-over-another-ring": (
        _act_over_another_ring, "PresentationMismatch", None,
        "module over a different ring"),
    "mul-across-presentations": (
        lambda: mul(_z2x().one_poly(), _z2x().one_poly()),
        "PresentationMismatch", None, "different presentations"),
    "ring-table-without-mul": (({"ring": {"add": _Z2_ADD}}, ["validate"]),
                               "ParseError", None, "need both 'add' and 'mul'"),
    "unknown-sigma": (({"sigma": ["twist"]}, ["validate"]),
                      "ParseError", None, "unknown sigma spec"),
    "unknown-delta": (({"delta": ["twist"]}, ["validate"]),
                      "ParseError", None, "unknown delta spec"),
    "relation-without-c": (
        ({"variables": 2, "relations": {"1,2": {"const": "1"}}}, ["validate"]),
        "ParseError", None, "needs at least a 'c' entry"),
    "unknown-relation-key": (
        ({"variables": 2, "relations": {"1,2": {"c": "1", "q": "1"}}},
         ["validate"]), "ParseError", None, "unknown relation keys"),
    "unknown-module-table-key": (
        ({"module": {"add": _Z2_ADD, "action": _Z2_MUL, "q": 1}}, ["validate"]),
        "ParseError", None, "unknown module table keys"),
    "bad-module-spec": (({"module": 5}, ["validate"]),
                        "ParseError", None, "module spec must be"),
    "non-object-instance": (("[1]", ["validate"]),
                            "ParseError", None, "must be a JSON object"),
    "delta-wrong-length": (({"delta": ["zero", "zero"]}, ["validate"]),
                           "ParseError", None, "'delta' must list 1 maps"),
    "empty-module-term": (("z3-trivial", ["act", "1+", "1"]),
                          "ParseError", None, "empty term"),
    # a term led by '*' reads '' as its first factor, in both kinds of literal
    "ring-term-led-by-star": (
        ("z3-trivial", ["mul", "*x1", "1"]), "ValidationError",
        "unknown_element", "unknown ring element name ''"),
    "module-term-led-by-star": (
        ("z3-trivial", ["act", "*x1", "1"]), "ValidationError",
        "unknown_element", "unknown module element name ''"),
    "act-argument-count": (("z3-trivial", ["act", "1"]),
                           "ParseError", None, "act needs"),
    "ann-argument-count": (("z3-trivial", ["ann"]),
                           "ParseError", None, "ann needs"),
    "check-argument-count": (("z3-trivial", ["check"]),
                             "ParseError", None, "check needs"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal(case, tmp_path, capsys):
    source, error_type, kind, fragment = REFUSALS[case]
    if callable(source):
        with pytest.raises(SpbwError) as exc:
            source()
        error = {"type": type(exc.value).__name__, "message": str(exc.value)}
        if hasattr(exc.value, "kind"):
            error["kind"] = exc.value.kind
    else:
        instance, argv = source
        if instance not in corpus.names():
            if isinstance(instance, dict):
                instance = json.dumps(dict({"ring": "Z2", "variables": 1},
                                           **instance))
            path = tmp_path / "instance.json"
            path.write_text(instance)
            instance = str(path)
        assert main([instance, *argv, "--json-only"]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
    assert (error["type"], error.get("kind")) == (error_type, kind)
    assert fragment in error["message"]


@pytest.mark.parametrize("argv, line", [
    (["z3-trivial", "validate"],
     "  valid: ring order 3, module order 3, 2 variable(s), "
     "quasi-commutative=True, bijective=True"),
    (["quantum-plane-z5", "mul", "2*x1", "x2"], "  2*x1 * x2 = 2*x1*x2"),
    (["weyl-dual-quotient", "act", "[1]*x1", "x1+1"],
     "  ([1]*x1) . (x1 + 1) = [1]*x1^2 + [1]*x1"),
    (["z4-regular", "ann", "2"], "  ann(2) = {0, 2} idempotent=None"),
    (["z3-trivial", "theorems", "--degree", "1"],
     "  summary: {'confirmed': 17}"),
    (["z3-trivial", "check", "skew_armendariz", "--degree", "1"],
     "  skew_armendariz: holds_up_to_bound (degree <= 1)"),
], ids=["validate", "mul", "act", "ann", "theorems", "bounded-check"])
def test_human_summary_lines(argv, line, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert line in captured.err.splitlines()
    assert captured.err.startswith(f"spbw {argv[1]} on {argv[0]} (")
    # the summary leaves stdout as it is under --json-only
    assert main(argv + ["--json-only"]) == code == 0
    quiet = capsys.readouterr()
    assert (quiet.out, quiet.err) == (captured.out, "")

"""Property-based fuzzing of the CLI entry point, in-process.

Every input must end in exit 0, 1 or 2 with a JSON report: no exception may
escape `cli.main`.  The literals of `mul` and `act` are drawn from the
characters the grammar uses plus a few that it must refuse; instances are
corpus JSON with one value replaced or one key dropped; element and
property names are known names or any text, and `--seed` and `--max-space`
any integer up to 30 digits; `--order` and the instance path are known
values, any text, a directory or a file that is not UTF-8.  Examples are
derandomized and bounded, so the test is repeatable and short.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spbw import corpus
from spbw.cli import main
from spbw.properties import DECIDERS

FUZZ = settings(max_examples=60, deadline=2000, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.too_slow])

# well-formed sums of products of variables and element names of the two
# instances (some of them unknown to one), module literals that start with
# a module element, or raw text with an Arabic-Indic digit and a no-break
# space, which the grammar must refuse
VARIABLES = ["x1", "x2", "x1^2", "x2^3", "x1^0", "x3", "x1^65"]
ELEMENTS = ["0", "1", "2", "y", "[0]", "[1]"]
raw = st.text(alphabet=list("x0123456789^*+-()[]y,. \u0663\u00a0"),
              max_size=12)
terms = st.lists(st.sampled_from(VARIABLES + ELEMENTS), min_size=1,
                 max_size=3).map("*".join)
mterms = st.tuples(st.sampled_from(ELEMENTS),
                   st.lists(st.sampled_from(VARIABLES), max_size=2)).map(
    lambda t: "*".join([t[0], *t[1]]))
literals = st.lists(terms, min_size=1, max_size=3).map("+".join) | raw
mliterals = st.lists(mterms, min_size=1, max_size=3).map("+".join) | raw

small_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats(-2, 2)
    | st.sampled_from(["", "id", "zero", "swap", "regular", "identity", "Z2",
                       "Z4", "Z2xZ2", "Z٣", "UT(2,Z2)", "Z2[y]/(y^2)", "y",
                       "1,2", "x1"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["add", "mul", "quotient", "names",
                                       "generator", "c", "linear", "1,2",
                                       "precedence"]), inner, max_size=3),
    max_leaves=8)


def _run(argv, *options) -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--json-only", *options, "--", *argv])
    json.loads(out.getvalue())  # a report or a structured error, never empty
    return code


@FUZZ
@given(name=st.sampled_from(["z3-trivial", "weyl-dual-quotient"]),
       left=literals, mleft=mliterals, right=literals)
def test_polynomial_literals_answer(name, left, mleft, right):
    assert _run([name, "mul", left, right]) in (0, 1, 2)
    assert _run([name, "act", mleft, right]) in (0, 1, 2)


@FUZZ
@given(name=st.sampled_from(["z4-regular", "z2xz2-swap",
                             "weyl-dual-quotient"]),
       key=st.sampled_from(["label", "ring", "variables", "sigma", "delta",
                            "relations", "module", "embedding", "order"]),
       value=small_json, drop=st.booleans())
def test_mutated_instances_answer(name, key, value, drop, tmp_path_factory):
    data = json.loads(corpus.load(name))
    if drop:
        data.pop(key, None)
    else:
        data[key] = value
    path = tmp_path_factory.mktemp("fuzz") / "instance.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert _run([str(path), "validate"]) in (0, 1, 2)


# known element and property names, or any text (non-ASCII included); 0,
# negative and 30-digit integers
names = st.sampled_from(ELEMENTS + ["3", "m3", "e1"]) | st.text(max_size=6)
properties = st.sampled_from(list(DECIDERS)) | st.text(max_size=12)
numbers = (st.sampled_from([0, -1, 10 ** 30 - 1, -10 ** 29])
           | st.integers(-10 ** 30, 10 ** 30))


@FUZZ
@given(name=st.sampled_from(["z4-regular", "weyl-dual-quotient"]),
       elements=st.lists(names, min_size=1, max_size=2), prop=properties,
       degree=st.sampled_from([0, 1]), seed=numbers, space=numbers)
def test_names_and_numbers_answer(name, elements, prop, degree, seed, space):
    options = [f"--seed={seed}", f"--max-space={space}"]
    assert _run([name, "validate"], *options) in (0, 1, 2)
    assert _run([name, "ann", *elements], *options) in (0, 1, 2)
    assert _run([name, "check", prop], f"--degree={degree}",
                *options) in (0, 1, 2)


# the two orders or any text; corpus names, any text without a "/" (so no
# device file is read), a directory or a file that is not UTF-8
orders = st.sampled_from(["deglex", "lex"]) | st.text(max_size=8)
paths = (st.sampled_from([*corpus.names(), "", ".", "-", "z4-regular.json"])
         | st.text(alphabet=st.characters(exclude_characters="/"),
                   max_size=12)
         | st.sampled_from(["directory", "not-utf8"]))


@FUZZ
@given(order=orders, path=paths)
def test_orders_and_instance_paths_answer(order, path, tmp_path_factory):
    if path in ("directory", "not-utf8"):
        place = tmp_path_factory.mktemp("fuzz")
        if path == "not-utf8":
            place = place / "instance.json"
            place.write_bytes(b'{"ring": "Z\xff"}')
        path = str(place)
    assert _run([path, "validate"], f"--order={order}") in (0, 1, 2)

"""Instance-file parsing, command dispatch, and report emission.

Instance files are JSON with shorthand strings expanding to tables; the only
custom grammar is the polynomial literal (term := factor (* factor)*,
factor := coefficient name | x<i>[^<k>]; the literal 0 alone is the zero
polynomial).  Reports go to standard output as deterministic JSON (schema 1,
sorted keys); the human-readable table and all timing information go to
standard error so reports stay byte-identical across runs.

Exit codes: 0 everything holds/confirmed, 1 some property Fails, 2 parse or
validation error (including refused search spaces), 3 theorem violation,
which on a validated instance means an engine bug.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from dataclasses import dataclass

from .annihilator import ann_in_r, idempotent_generator
from .bounded import DEFAULT_MAX_SPACE
from .errors import (ParseError, SpbwError, UnknownProperty, ValidationError)
from .finring import (HARD_ORDER_CAP, FiniteRing, RingMap, dual_z2,
                      identity_map, swap_endomorphism, upper_triangular,
                      validate_endomorphism, validate_ring,
                      validate_sigma_derivation, zero_map, zmod, zmod_product)
from .monomial import MonomialOrder, default_order
from .polymodule import (ModulePoly, RightModule, act, embedding_from_generator,
                         module_poly, quotient_module, regular_module,
                         validate_embedding, validate_module)
from .properties import (DECIDERS, DEFAULT_DEGREE, FAILS, VIOLATION,
                         theorem_suite)
from .skewpbw import (SkewPbwPresentation, SkewPoly, check_variable_cap, mul,
                      validate_presentation)

# re.ASCII: \d would match any Unicode digit, which int() reads as well
_ZMOD_RE = re.compile(r"Z(\d+)$", re.ASCII)
_ZPROD_RE = re.compile(r"Z(\d+)xZ(\d+)$", re.ASCII)
_UT_RE = re.compile(r"UT\((\d+),\s*Z(\d+)\)$", re.ASCII)
_VAR_RE = re.compile(r"x(\d+)(?:\^(\d+))?$", re.ASCII)
_PAIR_RE = re.compile(r"(\d+)\s*,\s*(\d+)$", re.ASCII)

# Fixed ceiling on the total degree of one term of a polynomial literal:
# the rewriting pass builds the full word, so x1^99999999 would not return.
HARD_DEGREE_CAP = 64

_INSTANCE_KEYS = {"label", "ring", "variables", "sigma", "delta", "relations",
                  "module", "embedding", "order"}


@dataclass(frozen=True)
class InstanceFile:
    label: str
    ring: FiniteRing
    presentation: SkewPbwPresentation
    module: RightModule
    embedding: tuple | None
    canonical: dict
    digest: str


def _bad(message: str) -> ParseError:
    return ParseError(message)


def _number(digits: str) -> int:
    """A shorthand's number; over nine digits it is refused unread, as int()
    refuses 4,300 digits and more and any such order is past the cap."""
    if len(digits.lstrip("0")) > 9:
        raise ValidationError("bad_table", witness=len(digits), message=(
            f"a {len(digits)}-digit number in a ring shorthand exceeds the "
            f"order cap {HARD_ORDER_CAP}"))
    return int(digits)


def _parse_ring(spec) -> FiniteRing:
    if isinstance(spec, str):
        if spec == "Z2[y]/(y^2)":
            return dual_z2()
        m = _ZPROD_RE.fullmatch(spec)
        if m:
            return zmod_product(_number(m.group(1)), _number(m.group(2)))
        m = _UT_RE.fullmatch(spec)
        if m:
            return upper_triangular(_number(m.group(1)), _number(m.group(2)))
        m = _ZMOD_RE.fullmatch(spec)
        if m:
            return zmod(_number(m.group(1)))
        raise _bad(f"unknown ring shorthand {spec!r}")
    if isinstance(spec, dict):
        extra = set(spec) - {"add", "mul", "names", "label"}
        if extra:
            raise _bad(f"unknown ring table keys {sorted(extra)}")
        if "add" not in spec or "mul" not in spec:
            raise _bad("ring tables need both 'add' and 'mul'")
        return validate_ring(spec["add"], spec["mul"],
                             label=spec.get("label", ""),
                             names=spec.get("names"))
    raise _bad("ring spec must be a shorthand string or a table object")


def _parse_sigma(ring: FiniteRing, spec) -> RingMap:
    if spec == "id":
        return identity_map(ring)
    if spec == "swap":
        return swap_endomorphism(ring)
    if isinstance(spec, list):
        return validate_endomorphism(ring, spec)
    raise _bad(f"unknown sigma spec {spec!r}")


def _parse_delta(ring: FiniteRing, sigma: RingMap, spec) -> RingMap:
    if spec == "zero":
        return zero_map(ring, sigma)
    if isinstance(spec, list):
        return validate_sigma_derivation(ring, sigma, spec)
    raise _bad(f"unknown delta spec {spec!r}")


def _canon_map(m: RingMap, shorthand) -> object:
    if isinstance(shorthand, str):
        return shorthand
    return list(m.table)


def _parse_relations(ring: FiniteRing, n: int, spec) -> tuple[dict, dict]:
    """Returns (0-based relations for the validator, canonical object)."""
    if not isinstance(spec, dict):
        raise _bad("relations must be an object keyed by 'i,j' pairs")
    relations = {}
    canonical = {}
    for key in sorted(spec):
        m = _PAIR_RE.fullmatch(key)
        if not m:
            raise _bad(f"bad relation key {key!r}, expected 'i,j'")
        i, j = int(m.group(1)), int(m.group(2))
        if not 1 <= i < j <= n:
            raise _bad(f"relation key {key!r} needs 1 <= i < j <= {n}")
        val = spec[key]
        if isinstance(val, str):
            val = {"c": val}
        if not isinstance(val, dict) or "c" not in val:
            raise _bad(f"relation {key!r} needs at least a 'c' entry")
        extra = set(val) - {"c", "const", "linear"}
        if extra:
            raise _bad(f"unknown relation keys {sorted(extra)} at {key!r}")
        c = ring.element_index(val["c"])
        const = ring.element_index(val.get("const", ring.name(ring.zero)))
        linear_names = val.get("linear", [ring.name(ring.zero)] * n)
        if not isinstance(linear_names, list) or len(linear_names) != n:
            raise _bad(f"relation {key!r} linear part needs {n} entries")
        linear = tuple(ring.element_index(x) for x in linear_names)
        relations[(i - 1, j - 1)] = (c, const, linear)
        canonical[f"{i},{j}"] = {
            "c": ring.name(c), "const": ring.name(const),
            "linear": [ring.name(x) for x in linear]}
    return relations, canonical


def _parse_module(ring: FiniteRing, spec) -> tuple[RightModule, object]:
    if spec == "regular" or spec is None:
        return regular_module(ring), "regular"
    if isinstance(spec, dict) and "quotient" in spec:
        if set(spec) != {"quotient"} or not isinstance(spec["quotient"], list):
            raise _bad("quotient module spec takes only the generator list")
        gens = [ring.element_index(g) for g in spec["quotient"]]
        canonical = {"quotient": sorted(ring.name(g) for g in set(gens))}
        return quotient_module(ring, tuple(gens)), canonical
    if isinstance(spec, dict):
        extra = set(spec) - {"add", "action", "names", "label"}
        if extra:
            raise _bad(f"unknown module table keys {sorted(extra)}")
        if "add" not in spec or "action" not in spec:
            raise _bad("module tables need both 'add' and 'action'")
        M = validate_module(ring, spec["add"], spec["action"],
                            names=spec.get("names"),
                            label=spec.get("label", ""))
        canonical = {"add": [list(r) for r in M.add_table],
                     "action": [list(r) for r in M.action_table],
                     "names": list(M.names)}
        return M, canonical
    raise _bad("module spec must be 'regular', a quotient, or tables")


def _parse_embedding(ring: FiniteRing, M: RightModule, spec):
    if spec is None:
        return None, None
    if spec == "identity":
        table = validate_embedding(ring, M, tuple(range(ring.order)))
        return table, "identity"
    if isinstance(spec, dict) and set(spec) == {"generator"}:
        u = M.element_index(spec["generator"])
        table = embedding_from_generator(ring, M, u)
        return table, {"generator": M.name(u)}
    if isinstance(spec, list):
        table = validate_embedding(ring, M, spec)
        return table, list(table)
    raise _bad("embedding must be 'identity', {'generator': name}, or a table")


def _parse_order(n: int, spec, override: str | None) -> MonomialOrder:
    if override is not None:
        return default_order(n, override)
    if spec is None:
        return default_order(n)
    if isinstance(spec, str):
        return default_order(n, spec)
    if isinstance(spec, dict) and set(spec) <= {"kind", "precedence"}:
        kind = spec.get("kind", "deglex")
        prec = spec.get("precedence", list(default_order(n).precedence))
        if not isinstance(prec, list) or \
                any(type(v) is not int for v in prec):
            raise _bad("order precedence must be a list of 0-based "
                       "variable indices")
        return MonomialOrder(kind, tuple(prec))
    raise _bad("order must be 'deglex', 'lex', or {kind, precedence}")


def parse_instance(text: str, order_override: str | None = None,
                   seed: int = 0) -> InstanceFile:
    """Parse and fully validate an instance file.

    Raises ParseError with a position for malformed JSON, ParseError without
    one for schema problems, and forwards ValidationError from the validators.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(data, dict):
        raise _bad("instance file must be a JSON object")
    extra = set(data) - _INSTANCE_KEYS
    if extra:
        raise _bad(f"unknown instance keys {sorted(extra)}")
    if "ring" not in data or "variables" not in data:
        raise _bad("instance needs 'ring' and 'variables'")
    n = data["variables"]
    if not isinstance(n, int) or n < 1:
        raise _bad("'variables' must be a positive integer")
    check_variable_cap(n)
    label = data.get("label", "")
    ring = _parse_ring(data["ring"])

    sig_spec = data.get("sigma", ["id"] * n)
    del_spec = data.get("delta", ["zero"] * n)
    if not isinstance(sig_spec, list) or len(sig_spec) != n:
        raise _bad(f"'sigma' must list {n} maps")
    if not isinstance(del_spec, list) or len(del_spec) != n:
        raise _bad(f"'delta' must list {n} maps")
    sigmas = [_parse_sigma(ring, s) for s in sig_spec]
    deltas = [_parse_delta(ring, sigmas[i], d) for i, d in enumerate(del_spec)]

    relations, canon_rel = _parse_relations(ring, n, data.get("relations", {}))
    module, canon_mod = _parse_module(ring, data.get("module"))
    embedding, canon_emb = _parse_embedding(ring, module, data.get("embedding"))
    order = _parse_order(n, data.get("order"), order_override)

    presentation = validate_presentation(ring, sigmas, deltas, relations,
                                         order=order, label=label, seed=seed)

    canonical = {
        "label": label,
        "ring": data["ring"] if isinstance(data["ring"], str) else {
            "add": [list(r) for r in ring.add_table],
            "mul": [list(r) for r in ring.mul_table],
            "names": list(ring.names), "label": ring.label},
        "variables": n,
        "sigma": [_canon_map(m, s) for m, s in zip(sigmas, sig_spec)],
        "delta": [_canon_map(m, s) for m, s in zip(deltas, del_spec)],
        "relations": canon_rel,
        "module": canon_mod,
        "order": {"kind": order.kind, "precedence": list(order.precedence)},
    }
    if canon_emb is not None:
        canonical["embedding"] = canon_emb
    blob = json.dumps(canonical, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256(blob).hexdigest()
    return InstanceFile(label, ring, presentation, module, embedding,
                        canonical, digest)


def serialize_instance(inst: InstanceFile) -> str:
    return json.dumps(inst.canonical, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# polynomial literals


def _small(digits: str) -> int:
    """int(digits), or HARD_DEGREE_CAP + 1 when it has over nine digits: past
    every cap here, and int() refuses 4,300 digits and more."""
    return int(digits) if len(digits.lstrip("0")) <= 9 else HARD_DEGREE_CAP + 1


def _check_degree(term_txt: str, factors) -> None:
    """Refuse a term whose factors x<i>^<k> have total degree over
    HARD_DEGREE_CAP, before any word is built."""
    degree = 0
    for factor in factors:
        mv = _VAR_RE.fullmatch(factor)
        if mv:
            degree += _small(mv.group(2) or "1")
    if degree > HARD_DEGREE_CAP:
        raise ParseError(f"term {term_txt!r} exceeds the degree cap "
                         f"{HARD_DEGREE_CAP}")


def _variable(P: SkewPbwPresentation, factor: str) -> SkewPoly | None:
    """The monomial a factor x<i>[^<k>] stands for; None for any other
    factor.  Its term has passed `_check_degree`."""
    mv = _VAR_RE.fullmatch(factor)
    if not mv:
        return None
    i, k = _small(mv.group(1)), int(mv.group(2) or "1")
    if not 1 <= i <= P.n:
        raise ParseError(f"unknown variable x{mv.group(1).lstrip('0') or 0} "
                         f"(n={P.n})")
    return P.monomial_poly(tuple(k if j == i - 1 else 0 for j in range(P.n)))


def parse_poly(P: SkewPbwPresentation, text: str) -> SkewPoly:
    """term (+ term)*, term = factor (* factor)*; factors multiply in the
    skew ring in their written order, so 'x1*2' and '2*x1' may differ."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty polynomial literal")
    total = P.zero_poly()
    if s == "0":  # the zero polynomial, spelled as to_string prints it
        return total
    for term_txt in s.split("+"):
        if not term_txt:
            raise ParseError(f"empty term in {text!r}")
        factors = term_txt.split("*")
        _check_degree(term_txt, factors)
        acc = P.one_poly()
        for factor in factors:
            var = _variable(P, factor)
            if var is None:
                var = P.constant(P.ring.element_index(factor))
            acc = mul(acc, var)
        total = total + acc
    return total


def parse_mpoly(M: RightModule, P: SkewPbwPresentation, text: str) -> ModulePoly:
    """Module polynomial literal: every term starts with a module element
    name, followed by variable factors acted on from the right."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty module polynomial literal")
    total = module_poly(M, P, ())
    if s == "0":  # the zero polynomial, spelled as to_string prints it
        return total
    for term_txt in s.split("+"):
        factors = term_txt.split("*")
        if not factors or not factors[0]:
            raise ParseError(f"empty term in {text!r}")
        if _VAR_RE.fullmatch(factors[0]):
            raise ParseError(
                f"module term {term_txt!r} must start with a module element")
        _check_degree(term_txt, factors[1:])
        m = M.element_index(factors[0])
        mp = module_poly(M, P, [((0,) * P.n, m)])
        for factor in factors[1:]:
            var = _variable(P, factor)
            if var is None:
                raise ParseError(
                    f"module term {term_txt!r}: only variables may follow "
                    f"the module element")
            mp = act(mp, var)
        total = total + mp
    return total


# ---------------------------------------------------------------------------
# commands


def run_command(inst: InstanceFile, command: str, args: list,
                options: dict) -> tuple[dict, int]:
    """Execute one command; returns (report, exit_code)."""
    from . import __version__
    M, P = inst.module, inst.presentation
    degree = options.get("degree", DEFAULT_DEGREE)
    max_space = options.get("max_space", DEFAULT_MAX_SPACE)
    report = {
        "schema": 1,
        "engine_version": __version__,
        "command": command,
        "instance": {"label": inst.label, "digest": inst.digest},
        "options": {"degree": degree, "max_space": max_space,
                    "order": P.order.kind, "seed": options.get("seed", 0)},
    }
    code = 0

    if command == "validate":
        report["result"] = {
            "valid": True,
            "ring_order": inst.ring.order,
            "module_order": M.order,
            "variables": P.n,
            "quasi_commutative": P.quasi_commutative,
            "bijective": P.bijective,
            "consistency_certificate": P.consistency_certificate,
            "canonical": inst.canonical,
        }
    elif command == "mul":
        if len(args) != 2:
            raise _bad("mul needs exactly two polynomial literals")
        f, g = parse_poly(P, args[0]), parse_poly(P, args[1])
        report["result"] = {"factors": [f.to_string(), g.to_string()],
                            "product": mul(f, g).to_json(P.ring.safe_name)}
    elif command == "act":
        if len(args) != 2:
            raise _bad("act needs a module polynomial and a polynomial")
        mp, f = parse_mpoly(M, P, args[0]), parse_poly(P, args[1])
        report["result"] = {"m": mp.to_string(), "f": f.to_string(),
                            "value": act(mp, f).to_json(M.safe_name)}
    elif command == "ann":
        if not args:
            raise _bad("ann needs at least one module element name")
        xs = [M.element_index(a) for a in args]
        ideal = ann_in_r(M, xs)
        e = idempotent_generator(inst.ring, ideal.elements)
        report["result"] = {
            "elements": [M.name(x) for x in xs],
            "annihilator": [inst.ring.name(r) for r in ideal.sorted_elements()],
            "idempotent": None if e is None else inst.ring.name(e)}
    elif command == "check":
        if len(args) != 1:
            raise _bad("check needs exactly one property name")
        decide = DECIDERS.get(args[0])
        if decide is None:
            raise UnknownProperty(f"unknown property {args[0]!r}; "
                                  f"choose from {', '.join(DECIDERS)}")
        verdict = decide(M, P, degree, max_space)
        report["result"] = verdict.to_json()
        if verdict.status == FAILS:
            code = 1
    elif command == "theorems":
        reports = theorem_suite(M, P, degree=degree, embedding=inst.embedding,
                                max_space=max_space)
        counts: dict = {}
        for r in reports:
            counts[r.status] = counts.get(r.status, 0) + 1
        report["result"] = {"reports": [r.to_json() for r in reports],
                            "summary": dict(sorted(counts.items()))}
        if any(r.status == VIOLATION for r in reports):
            code = 3
    else:
        raise _bad(f"unknown command {command!r}")
    return report, code


# ---------------------------------------------------------------------------
# entry point


def _human_summary(report: dict, elapsed: float, out) -> None:
    cmd = report["command"]
    inst = report["instance"]
    print(f"spbw {cmd} on {inst['label'] or inst['digest'][:12]} "
          f"({elapsed:.3f}s)", file=out)
    res = report.get("result", {})
    if cmd == "theorems":
        for r in res["reports"]:
            print(f"  {r['theorem']:42s} {r['status']:22s} {r['conclusion']}",
                  file=out)
        print(f"  summary: {res['summary']}", file=out)
    elif cmd == "check":
        line = f"  {res['property']}: {res['status']}"
        if res.get("bound") is not None:
            line += f" (degree <= {res['bound']})"
        print(line, file=out)
        if res.get("witness"):
            print(f"  witness: {res['witness']}", file=out)
    elif cmd == "mul":
        print(f"  {res['factors'][0]} * {res['factors'][1]} = "
              f"{res['product']['text']}", file=out)
    elif cmd == "act":
        print(f"  ({res['m']}) . ({res['f']}) = {res['value']['text']}",
              file=out)
    elif cmd == "ann":
        print(f"  ann({', '.join(res['elements'])}) = "
              f"{{{', '.join(res['annihilator'])}}} "
              f"idempotent={res['idempotent']}", file=out)
    elif cmd == "validate":
        print(f"  valid: ring order {res['ring_order']}, module order "
              f"{res['module_order']}, {res['variables']} variable(s), "
              f"quasi-commutative={res['quasi_commutative']}, "
              f"bijective={res['bijective']}", file=out)


def _load_instance_text(arg: str) -> str:
    from . import corpus
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        try:
            return corpus.load(arg)
        except KeyError:
            raise _bad(f"no such file or corpus instance: {arg!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spbw",
        description="Exact arithmetic and module-property checks for skew "
                    "PBW extensions over finite rings.")
    parser.add_argument("instance",
                        help="instance file path or bundled corpus name")
    parser.add_argument("command",
                        choices=["validate", "mul", "act", "ann", "check",
                                 "theorems"])
    parser.add_argument("args", nargs="*",
                        help="command arguments (polynomial literals, "
                             "element names, or a property name)")
    parser.add_argument("--degree", type=int, default=DEFAULT_DEGREE,
                        help="degree bound for bounded checks (default 2)")
    parser.add_argument("--json-only", action="store_true",
                        help="suppress the human-readable table on stderr")
    parser.add_argument("--max-space", type=int, default=DEFAULT_MAX_SPACE,
                        help="candidate budget before bounded searches refuse")
    parser.add_argument("--order", choices=["deglex", "lex"], default=None,
                        help="override the instance's monomial order")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the consistency fuzz certificate")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        text = _load_instance_text(ns.instance)
        inst = parse_instance(text, order_override=ns.order, seed=ns.seed)
        options = {"degree": ns.degree, "max_space": ns.max_space,
                   "seed": ns.seed}
        report, code = run_command(inst, ns.command, ns.args, options)
    except SpbwError as exc:
        err = {"schema": 1, "error": {"type": type(exc).__name__,
                                      "message": str(exc)}}
        for attr in ("kind", "space", "limit", "what", "size", "line", "col"):
            v = getattr(exc, attr, None)
            if v is not None:
                err["error"][attr] = v
        print(json.dumps(err, indent=2, sort_keys=True))
        if not ns.json_only:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, indent=2, sort_keys=True))
    if not ns.json_only:
        _human_summary(report, time.monotonic() - t0, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark tracer still finds every name it patches.

`bench/tracer.py` replaces traced functions and methods by name (module
attributes, and class attributes read through `__dict__`), so a traced name
that moves or is renamed breaks `bench/run.py --trace 1`.  This test installs
the tracer on the package, runs one theorem suite through the CLI layer,
and checks that the spans and counters were recorded and that `uninstall`
puts every original back.
"""

import importlib.util
from pathlib import Path

import spbw
from spbw import corpus

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("spbw_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces(tracer_module):
    owners = [getattr(spbw, m) if m else spbw for m in tracer_module.MODULES]
    owners += [spbw.bounded.BoundedContext, spbw.skewpbw.SkewPbwPresentation]
    return {owner: dict(vars(owner)) for owner in owners}


def test_tracer_installs_runs_and_uninstalls():
    tracer_module = _load_tracer()
    before = _namespaces(tracer_module)
    tracer = tracer_module.Tracer(spbw)
    tracer.install()
    try:
        assert spbw.skewpbw.mul is not before[spbw.skewpbw]["mul"]
        cli = spbw.cli
        inst = cli.parse_instance(corpus.load("weyl-dual-quotient"))
        report, code = cli.run_command(inst, "theorems", [], {"degree": 1})
        metrics = tracer.metrics(1)
        # the scalar scans read tables, and ann(mA) acts only where m * mu
        # leaves the slice, as on z2xz2-swap at d = 1
        swap = cli.parse_instance(corpus.load("z2xz2-swap"))
        cli.run_command(swap, "theorems", [], {"degree": 1})
        acted = tracer.metrics(1)["bounded.act_is_zero.calls"]
    finally:
        tracer.uninstall()
    assert code == 0 and len(report["result"]["reports"]) == 17
    for owner, names in before.items():
        assert {k: v for k, v in vars(owner).items() if k in names} == names
    spans = {"cli.parse_instance", "cli.run_command", "bounded.context",
             "bounded.kernel", "properties.theorem_suite"}
    spans |= {f"properties.{d}" for d in tracer_module.DECIDERS}
    # the normal-form tables fill through the patched method names, so
    # the layer-1 fill metrics do not read 0
    spans |= {"skewpbw.push.fill", "skewpbw.mono_prod.fill"}
    assert {name for name in spans if tracer.calls.get(name)} == spans
    for key in ("skewpbw.triple.calls", "bounded.context.built",
                "bounded.kernel.pairs"):
        assert metrics[key] > 0, key
    assert acted > metrics["bounded.act_is_zero.calls"]

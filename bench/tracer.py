"""Spans and counters for the traced run, recorded from outside the program.

`Tracer.install` replaces each traced function at every name the program
looks it up by (every `spbw` module attribute bound to that function object)
and each traced method on its class; `uninstall` restores the originals, so
untraced passes run the unmodified program.  Spans carry a name, start, end
and parent span, are kept in memory, and are written out when the run ends.
A span's self time is its duration minus the time covered by its children.

The hottest methods (`triple`, `act_is_zero`) only bump counters: a span per
call would hold tens of millions of records.  Their time lands in the self
time of the enclosing span (`bounded.kernel`, `skewpbw.mul`, ...).
"""

from __future__ import annotations

import json
import time
import weakref

# (module, function, span name); the span name is the metric prefix.
FUNCTION_SPANS = [
    ("cli", "parse_instance", "cli.parse_instance"),
    ("cli", "run_command", "cli.run_command"),
    ("properties", "theorem_suite", "properties.theorem_suite"),
    ("annihilator", "ann_in_r", "annihilator.ann_in_r"),
    ("annihilator", "idempotent_generator", "annihilator.idempotent_generator"),
    ("finring", "validate_ring", "finring.validate_ring"),
    ("finring", "closure_monoid", "finring.closure_monoid"),
    ("finring", "idempotents", "finring.idempotents"),
    ("monomial", "enumerate_upto", "monomial.enumerate_upto"),
    ("polymodule", "act", "polymodule.act"),
    ("polymodule", "all_submodules", "polymodule.all_submodules"),
    ("skewpbw", "check_consistency", "skewpbw.check_consistency"),
    ("skewpbw", "mul", "skewpbw.mul"),
    ("bounded", "context", "bounded.context"),
]
DECIDERS = ["is_reduced", "is_sigma_compatible", "is_delta_compatible",
            "is_abelian", "idempotent_stability", "is_pp", "is_pq_baer",
            "is_quasi_baer", "is_baer", "is_skew_armendariz_bounded",
            "is_linearly_skew_armendariz", "is_skew_quasi_armendariz_bounded"]
FUNCTION_SPANS += [("properties", d, f"properties.{d}") for d in DECIDERS]
METHOD_SPANS = [("BoundedContext", "coeff_set", "bounded.coeff_set")]
MODULES = ["", "cli", "properties", "bounded", "annihilator", "polymodule",
           "skewpbw", "finring", "monomial"]


class Tracer:
    def __init__(self, spbw):
        self.spbw = spbw
        self.spans = []     # (name, start, end, parent id or -1), id = index
        self._open = []     # [span id, name, start, child seconds]
        self.total = {}     # name -> inclusive seconds
        self.self_s = {}    # name -> self seconds
        self.calls = {}     # name -> completed spans
        self.counts = {"bounded.act_is_zero.calls": 0,
                       "bounded.context.built": 0,
                       "bounded.kernel.pairs": 0,
                       "bounded.guard.refusals": 0,
                       "bounded.guard.space_over_limit": 0.0,
                       "ann_am.kept": 0, "ann_am.kernel": 0,
                       "skewpbw.triple.calls": 0, "skewpbw.triple.hits": 0}
        self._patches = []
        self._seen = weakref.WeakKeyDictionary()  # presentation -> keys
        self._done = {}     # method name -> WeakSet of computed contexts

    # -- spans -----------------------------------------------------------

    def enter(self, name: str) -> None:
        sid = len(self.spans)
        self.spans.append(None)
        self._open.append([sid, name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._open.pop()
        dur = end - start
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += dur
        self.spans[sid] = (name, start, end, parent[0] if parent else -1)
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return wrapper

    # -- installing wrappers ---------------------------------------------

    def _module(self, name):
        return getattr(self.spbw, name) if name else self.spbw

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, module: str, fn_name: str, name: str) -> None:
        orig = getattr(self._module(module), fn_name)
        new = self.span(name, orig)
        for mod_name in MODULES:
            mod = self._module(mod_name)
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, attr, new)

    def _first_success(self, method: str, ctx) -> bool:
        done = self._done.setdefault(method, weakref.WeakSet())
        if ctx in done:
            return False
        done.add(ctx)
        return True

    def _keys(self, presentation, cache: str) -> set:
        per = self._seen.get(presentation)
        if per is None:
            per = self._seen[presentation] = {}
        return per.setdefault(cache, set())

    def install(self) -> None:
        for module, fn_name, name in FUNCTION_SPANS:
            self._patch_function(module, fn_name, name)
        bounded = self.spbw.bounded
        Ctx = bounded.BoundedContext
        Pres = self.spbw.skewpbw.SkewPbwPresentation
        for cls_name, meth, name in METHOD_SPANS:
            cls = getattr(self.spbw, cls_name)
            self._patch(cls, meth, self.span(name, getattr(cls, meth)))
        counts = self.counts

        init = Ctx.__init__

        def ctx_init(ctx, *args, **kwargs):
            counts["bounded.context.built"] += 1
            init(ctx, *args, **kwargs)

        act_is_zero = Ctx.act_is_zero

        def ctx_act_is_zero(ctx, mterms, fterms):
            counts["bounded.act_is_zero.calls"] += 1
            return act_is_zero(ctx, mterms, fterms)

        guard = Ctx.guard
        refused = self.spbw.SearchSpaceTooLarge

        def ctx_guard(ctx, space, limit, what):
            try:
                return guard(ctx, space, limit, what)
            except refused as exc:
                counts["bounded.guard.refusals"] += 1
                counts["bounded.guard.space_over_limit"] = max(
                    counts["bounded.guard.space_over_limit"],
                    exc.space / exc.limit)
                raise

        kernel = Ctx.kernel
        kernel_span = self.span("bounded.kernel", kernel)

        def ctx_kernel(ctx, *args, **kwargs):
            rows = kernel_span(ctx, *args, **kwargs)
            if self._first_success("kernel", ctx):
                counts["bounded.kernel.pairs"] += ctx.pair_space
            return rows

        ann_am_span = self.span("bounded.ann_am_rows", Ctx.ann_am_rows)

        def ctx_ann_am_rows(ctx, *args, **kwargs):
            rows = ann_am_span(ctx, *args, **kwargs)
            if self._first_success("ann_am_rows", ctx):
                kern = kernel(ctx, *args, **kwargs)  # cached by now
                counts["ann_am.kept"] += sum(map(len, rows.values()))
                counts["ann_am.kernel"] += sum(map(len, kern.values()))
            return rows

        for attr, new in (("__init__", ctx_init), ("act_is_zero", ctx_act_is_zero),
                          ("guard", ctx_guard), ("kernel", ctx_kernel),
                          ("ann_am_rows", ctx_ann_am_rows)):
            self._patch(Ctx, attr, new)

        triple = Pres.triple
        last = [None, None]   # presentation, its seen triple keys

        def pres_triple(P, alpha, r, beta):
            counts["skewpbw.triple.calls"] += 1
            if P is not last[0]:
                last[0], last[1] = P, self._keys(P, "triple")
            key = (alpha, r, beta)
            if key in last[1]:
                counts["skewpbw.triple.hits"] += 1
            else:
                last[1].add(key)
            return triple(P, alpha, r, beta)

        self._patch(Pres, "triple", pres_triple)
        for meth in ("push", "mono_prod"):
            orig = getattr(Pres, meth)
            fill = self.span(f"skewpbw.{meth}.fill", orig)

            def pres_cached(P, alpha, other, orig=orig, fill=fill, meth=meth):
                keys = self._keys(P, meth)
                key = (alpha, other)
                if key in keys:
                    return orig(P, alpha, other)
                keys.add(key)
                return fill(P, alpha, other)

            self._patch(Pres, meth, pres_cached)
        self._last_triple = last

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        self._last_triple[0] = self._last_triple[1] = None

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics as {name: value}, averaged per traced pass."""
        c = self.counts
        out = {}
        for key in ("bounded.act_is_zero.calls", "bounded.context.built",
                    "bounded.kernel.pairs", "bounded.guard.refusals",
                    "skewpbw.triple.calls"):
            out[key] = c[key] / passes
        out["bounded.guard.space_over_limit"] = c["bounded.guard.space_over_limit"]
        out["bounded.ann_am_rows.kept_ratio"] = (
            c["ann_am.kept"] / c["ann_am.kernel"] if c["ann_am.kernel"] else 0.0)
        out["skewpbw.triple.hit_ratio"] = (
            c["skewpbw.triple.hits"] / c["skewpbw.triple.calls"]
            if c["skewpbw.triple.calls"] else 0.0)
        names = {name for _, _, name in FUNCTION_SPANS + METHOD_SPANS}
        names |= {"bounded.kernel", "bounded.ann_am_rows", "cli.emit",
                  "skewpbw.push.fill", "skewpbw.mono_prod.fill"}
        for name in names:
            out[f"{name}.calls"] = self.calls.get(name, 0) / passes
            out[f"{name}.s"] = self.total.get(name, 0.0) / passes
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) / passes
        out["skewpbw.push.fills"] = out["skewpbw.push.fill.calls"]
        out["skewpbw.mono_prod.fills"] = out["skewpbw.mono_prod.fill.calls"]
        out["skewpbw.mono_prod.fill_s"] = out["skewpbw.mono_prod.fill.s"]
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

"""Spans and counters around cmverify's public functions, installed from
outside the package.

Wrappers replace a function at every name a caller looks it up by: each
`cmverify.*` module global bound to the original (so `compute_brackets`
is traced in `cli`, `contact` and `frames` alike, and the recursive
`poly_gcd`/`poly_divexact` calls inside `cmverify.symcore.poly` too) and,
for methods, the class attribute.  Nothing under `src/` changes, and
`uninstall` puts every original back.

A span is (name, start, end, parent, stage).  Spans stay in memory in
typed arrays and are written out by `dump`.  A function's self time is
the total of its spans minus the part covered by their child spans.  The
stage of a span is the innermost enclosing span of a function the CLI
calls directly (`STAGES`), which attributes kernel work to the stage
that asked for it.

`Poly.__mul__`, `RationalFunction.__init__`, `metric_inverse`,
`solve_two_unknowns` and `eval_rational` are counted, not spanned.  The
metrics need only their calls, and a span there would take their time
out of the self time of the gcd or stage that calls them, and hold a
span for each of the ~10^6 constructions of a Heisenberg pass.
"""
from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# Spanned functions, by defining module.  Metric names use the module's
# name below `cmverify` (`cmverify.symcore.poly` -> `symcore`).
SPANNED = {
    "cmverify.symcore.poly": ("poly_gcd", "poly_divexact"),
    "cmverify.specfile": ("load_spec",),
    "cmverify.frames": ("validate_frame", "compute_brackets",
                        "koszul_connection"),
    "cmverify.curvature": ("riemann", "nabla_riemann_table", "nabla_riemann",
                           "ricci", "covariant_ricci_table"),
    "cmverify.contact": ("build_structure", "compute_h", "h_variants",
                         "axiom_suite"),
    "cmverify.nullity": ("extract_k_mu", "extraction_report",
                         "identity_battery"),
    "cmverify.recurrence": ("solve_recurrence", "recurrence_report",
                            "theorem_checks", "example_pipeline"),
    "cmverify.cli": ("run",),
}
SPANNED_METHODS = {
    ("cmverify.sampling", "Sampler", "max_abs"): "sampling.max_abs",
    ("cmverify.report", "ReportDocument", "to_json"): "report.to_json",
}
COUNTED = {
    "cmverify.frames": ("metric_inverse",),
    "cmverify.linalg": ("solve_two_unknowns",),
}

# The stage functions: the spanned functions `cmverify.cli` calls, plus
# `cli.run` itself, whose self time is the CLI's orchestration.
STAGES = (
    "cli.run", "specfile.load_spec", "frames.validate_frame",
    "frames.compute_brackets", "frames.koszul_connection",
    "curvature.riemann", "curvature.nabla_riemann_table", "curvature.ricci",
    "contact.build_structure", "contact.compute_h", "contact.h_variants",
    "contact.axiom_suite", "nullity.extract_k_mu",
    "nullity.extraction_report", "nullity.identity_battery",
    "recurrence.solve_recurrence", "recurrence.recurrence_report",
    "recurrence.theorem_checks", "recurrence.example_pipeline",
)

GCD = "symcore.poly_gcd"
NO_STAGE = -1


def _short(module: str, name: str) -> str:
    return f"{module.split('.')[1]}.{name}"


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_stage = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self._stages: list = [NO_STAGE]
        # Ranges [lo, hi) of spans from invocations that went over budget:
        # their times count, their counts do not (they depend on how far
        # the invocation got before the budget ran out).
        self.partial: list = []
        self._restore: list = []
        self.counts = {"symcore.poly_mul": 0, "symcore.rational_init": 0,
                       "frames.metric_inverse": 0,
                       "linalg.solve_two_unknowns": 0,
                       "sampling.eval_rational": 0}
        self.eval_ok = 0
        self.gcd_top = 0
        self.gcd_top_coprime = 0
        self._gcd_depth = 0
        self.peak_terms: dict = {}

    # -- installation ---------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _replace_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("cmverify") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper):
        self._restore.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def install(self):
        import cmverify.cli  # noqa: F401  (loads every module to patch)
        from cmverify.symcore.poly import Poly, RationalFunction

        for modname, funcs in SPANNED.items():
            for fname in funcs:
                original = getattr(sys.modules[modname], fname)
                name = _short(modname, fname)
                if name == GCD:
                    wrapper = self._gcd_wrapper(original)
                else:
                    wrapper = self._span_wrapper(original, name)
                self._replace_everywhere(original, wrapper)
        for (modname, clsname, attr), name in SPANNED_METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            self._replace_method(
                cls, attr, self._span_wrapper(getattr(cls, attr), name))
        for modname, funcs in COUNTED.items():
            for fname in funcs:
                original = getattr(sys.modules[modname], fname)
                self._replace_everywhere(original, self._count_wrapper(
                    original, _short(modname, fname)))
        expr = sys.modules["cmverify.symcore.expr"]
        self._replace_everywhere(expr.eval_rational,
                                 self._eval_wrapper(expr.eval_rational))
        self._replace_method(Poly, "__mul__", self._count_wrapper(
            Poly.__mul__, "symcore.poly_mul"))
        self._replace_method(RationalFunction, "__init__",
                             self._init_wrapper(RationalFunction.__init__))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name):
        nid = self._id(name)
        is_stage = name in STAGES
        names, parents, stages = self.span_name, self.span_parent, \
            self.span_stage
        starts, ends = self.span_start, self.span_end
        stack, stage_stack = self._stack, self._stages

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            stages.append(stage_stack[-1])
            starts.append(perf_counter())
            ends.append(0.0)
            stack.append(idx)
            if is_stage:
                stage_stack.append(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if is_stage:
                    stage_stack.pop()

        return wrapper

    def _gcd_wrapper(self, fn):
        span = self._span_wrapper(fn, GCD)

        def wrapper(a, b):
            top = self._gcd_depth == 0
            self._gcd_depth += 1
            try:
                g = span(a, b)
            finally:
                self._gcd_depth -= 1
            if top:
                self.gcd_top += 1
                if g.is_const and g.const_value() == 1:
                    self.gcd_top_coprime += 1
            return g

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _eval_wrapper(self, fn):
        counts = self.counts

        def wrapper(e, bindings):
            counts["sampling.eval_rational"] += 1
            value = fn(e, bindings)
            self.eval_ok += 1
            return value

        return wrapper

    def _init_wrapper(self, fn):
        counts, peak, stage_stack = self.counts, self.peak_terms, self._stages

        def wrapper(rf, *args, **kwargs):
            counts["symcore.rational_init"] += 1
            fn(rf, *args, **kwargs)
            terms = len(rf.num.terms) + len(rf.den.terms)
            stage = stage_stack[-1]
            if terms > peak.get(stage, 0):
                peak[stage] = terms

        return wrapper

    # -- per-invocation bookkeeping --------------------------------------

    def checkpoint(self):
        """State to return to if the coming invocation goes over budget."""
        return (len(self.span_name), dict(self.counts), self.eval_ok,
                self.gcd_top, self.gcd_top_coprime, dict(self.peak_terms))

    def end_invocation(self, checkpoint, finished: bool):
        # An invocation stopped by the budget can leave frames on the
        # stacks; the next one starts clean either way.
        self._stack.clear()
        del self._stages[1:]
        self._gcd_depth = 0
        if finished:
            return
        # The budget's exception can land between the appends that open a
        # span or before the store that closes it: drop a half-opened span
        # and close the rest at the moment the invocation was abandoned.
        now = perf_counter()
        columns = (self.span_name, self.span_parent, self.span_stage,
                   self.span_start, self.span_end)
        n = min(len(c) for c in columns)
        for c in columns:
            del c[n:]
        lo, counts, eval_ok, top, coprime, peak = checkpoint
        for i in range(lo, n):
            if self.span_end[i] == 0.0:
                self.span_end[i] = now
        self.partial.append((lo, n))
        self.counts.update(counts)
        self.eval_ok, self.gcd_top, self.gcd_top_coprime = eval_ok, top, \
            coprime
        self.peak_terms.clear()
        self.peak_terms.update(peak)

    # -- results --------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span."""
        starts, ends, parents = self.span_start, self.span_end, \
            self.span_parent
        out = [0.0] * len(starts)
        for i in range(len(starts)):
            d = ends[i] - starts[i]
            out[i] += d
            p = parents[i]
            if p >= 0:
                out[p] -= d
        return out

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass, over `passes` traced passes."""
        selfs = self.self_times()
        counted = [True] * len(selfs)
        for lo, hi in self.partial:
            counted[lo:hi] = [False] * (hi - lo)
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        stage_gcd = {}
        gcd_id = self._ids.get(GCD)
        for i, nid in enumerate(self.span_name):
            name = self.names[nid]
            self_s[name] += selfs[i]
            if counted[i]:
                calls[name] += 1
            if nid == gcd_id:
                st = self.span_stage[i]
                stage_gcd[st] = stage_gcd.get(st, 0.0) + selfs[i]

        out = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.self_s"] = self_s[name] / passes
        for name, n in self.counts.items():
            out[f"{name}.calls"] = n / passes
        out["symcore.gcd_coprime_ratio"] = (
            self.gcd_top_coprime / self.gcd_top if self.gcd_top else 0.0)
        attempts = self.counts["sampling.eval_rational"]
        out["sampling.admissible_ratio"] = (
            self.eval_ok / attempts if attempts else 0.0)
        out["symcore.peak_terms"] = max(self.peak_terms.values(), default=0)
        for stage in STAGES:
            sid = self._ids[stage]
            out[f"stage.{stage}.peak_terms"] = self.peak_terms.get(sid, 0)
            out[f"stage.{stage}.gcd_self_s"] = stage_gcd.get(sid, 0.0) / passes
        out["trace.spans"] = sum(counted) / passes
        return out

    def dump(self, path):
        """Write every span: a JSON header line, then the arrays' bytes in
        the order and type codes the header lists."""
        columns = [("name", self.span_name), ("start", self.span_start),
                   ("end", self.span_end), ("parent", self.span_parent),
                   ("stage", self.span_stage)]
        header = {"names": self.names, "spans": len(self.span_name),
                  "partial": self.partial,
                  "columns": [[c, a.typecode] for c, a in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(fh)

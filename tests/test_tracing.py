"""The bench's tracer (`bench/tracing.py`) still fits the package: every
name it wraps resolves, its kernel counters count, its metrics name every
per-layer metric of `BENCHMARK.json`, and `uninstall` puts back every
attribute it patched."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

from cmverify import cli

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()


def _bindings() -> dict:
    """Every attribute the tracer can patch: each global of a cmverify
    module, and each attribute of a class that module defines."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("cmverify") or mod is None:
            continue
        for attr, value in vars(mod).items():
            out[modname, attr] = value
            if isinstance(value, type) and value.__module__ == modname:
                for name, member in vars(value).items():
                    out[modname, attr, name] = member
    return out


def test_every_traced_name_resolves():
    for table in (tracing.SPANNED, tracing.COUNTED):
        for modname, funcs in table.items():
            mod = importlib.import_module(modname)
            for fname in funcs:
                assert callable(getattr(mod, fname, None)), \
                    f"{modname}.{fname}"
    for modname, clsname, attr in tracing.SPANNED_METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert callable(getattr(cls, attr, None)), f"{clsname}.{attr}"


def test_tracer_counts_and_uninstalls(capsys):
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert cli.run(["all", "example3d", "--format", "json"]) == 2
    finally:
        tracer.uninstall()
    capsys.readouterr()
    patched = {key for key, value in before.items()
               if during[key] is not value}
    assert {("cmverify.symcore.poly", "RationalFunction", "__init__"),
            ("cmverify.symcore.poly", "Poly", "__mul__"),
            ("cmverify.symcore.poly", "poly_gcd"),
            ("cmverify.sampling", "eval_rational")} <= patched
    after = _bindings()
    assert [key for key in patched if after[key] is not before[key]] == []

    assert tracer.counts["symcore.rational_init"] > 0
    assert tracer.counts["symcore.poly_mul"] > 0
    metrics = tracer.metrics(1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # the trace.* timings other than the span count come from bench/run.py
    missing = [m["name"] for m in declared
               if m["name"] not in metrics
               and not (m["name"].startswith("trace.")
                        and m["name"] != "trace.spans")]
    assert missing == []
    assert metrics["curvature.riemann.calls"] == 1

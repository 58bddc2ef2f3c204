"""The library workspace: byte-identical CLI output against the bench and
test goldens, each tensor built once per invocation, and a first run at
n = 2."""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from cmverify import cli, contact, curvature, frames
from cmverify.recurrence import solve_recurrence
from cmverify.report import ReportDocument
from cmverify.specfile import load_spec
from cmverify.symcore import ZERO
from cmverify.symcore.poly import RationalFunction
from cmverify.workspace import Workspace

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
ASYM3 = TESTS / "specs" / "asym3.cmspec"


def _load_corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus",
                                                  BENCH / "corpus.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


corpus = _load_corpus()
EXIT_CODES = json.loads((corpus.GOLDEN_DIR / "exit_codes.json").read_text())


# Every corpus invocation that reaches a verdict: the bundled workload,
# Heisenberg dims 5 and 7, and the decided polynomial-metric specs.
PINNED = corpus.WORKLOADS["bundled"] + [
    ("all", "heis5"), ("check axioms", "heis5"),
    ("all", "heis7"), ("check axioms", "heis7"),
    ("all", "polymetric3"), ("all", "polyframe3"), ("all", "polyboth3")]


@pytest.mark.parametrize("cmd,spec", PINNED,
                         ids=[corpus.key(c, s) for c, s in PINNED])
def test_bundled_output_matches_golden(capsys, cmd, spec):
    rc = cli.run(corpus.argv(cmd, spec))
    out = capsys.readouterr().out
    golden = (corpus.GOLDEN_DIR / f"{corpus.slug(cmd, spec)}.json")
    assert out.encode() == golden.read_bytes()
    assert rc == EXIT_CODES[corpus.key(cmd, spec)]


@pytest.mark.parametrize("overrides", [[], ["--k", "2", "--mu", "3"]],
                         ids=["extracted", "k=2,mu=3"])
def test_asymmetric_structure_output_matches_golden(capsys, overrides):
    # phi is not g-skew and the declared h is not g-symmetric, so a suite
    # that silently used either symmetry would change these bytes.  The
    # extracted k and mu are 0, which hides every mu- and most k-weighted
    # term; the override run keeps them.
    rc = cli.run(["all", str(ASYM3), "--format", "json"] + overrides)
    out = capsys.readouterr().out
    name = "-".join(["all"] + [w.lstrip("-") for w in overrides])
    golden = TESTS / "goldens" / f"asym3.{name}.json"
    assert out.encode() == golden.read_bytes()
    codes = json.loads((TESTS / "goldens" / "exit_codes.json").read_text())
    assert rc == codes[" ".join(["all", "asym3"] + overrides)]


BUILDERS = {"frames": ("compute_brackets", "metric_inverse"),
            "contact": ("compute_h",),
            "curvature": ("covariant_ricci_table", "riemann",
                          "nabla_riemann_table")}


def _patch_everywhere(monkeypatch, name, original, wrapper):
    """Bind `wrapper` wherever a cmverify module looks `original` up."""
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("cmverify") and mod is not None \
                and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)


@pytest.fixture
def build_counts(monkeypatch):
    """Count calls of each builder, wherever a cmverify module looks it
    up."""
    counts = {}
    for defining, names in BUILDERS.items():
        for name in names:
            original = getattr(sys.modules[f"cmverify.{defining}"], name)
            counts[name] = 0

            def counted(*args, _name=name, _fn=original, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            _patch_everywhere(monkeypatch, name, original, counted)
    return counts


def test_all_builds_each_tensor_once(capsys, build_counts):
    assert cli.run(["all", "example3d"]) == 2
    assert build_counts == dict.fromkeys(build_counts, 1)


def test_all_builds_r_xi_once(capsys, monkeypatch):
    # R(E_i,E_j)xi feeds the k, mu extraction and I3.1 of every h variant;
    # asym3 audits two variants, so a build per use would make four.
    built, contractions = {}, []
    for defining, name in (("curvature", "riemann"),
                           ("contact", "build_structure")):
        original = getattr(sys.modules[f"cmverify.{defining}"], name)

        def kept(*args, _name=name, _fn=original):
            built[_name] = _fn(*args)
            return built[_name]

        _patch_everywhere(monkeypatch, name, original, kept)
    riemann_on = curvature.riemann_on

    def recorded(table, z):
        contractions.append((table, z))
        return riemann_on(table, z)

    _patch_everywhere(monkeypatch, "riemann_on", riemann_on, recorded)
    cli.run(["all", str(ASYM3)])
    capsys.readouterr()
    r_table, xi = built["riemann"], built["build_structure"].xi
    assert sum(t is r_table and z is xi for t, z in contractions) == 1


@pytest.mark.parametrize("spec", ["example3d", str(ASYM3)],
                         ids=["example3d", "asym3"])
def test_all_builds_shared_tables_once(capsys, monkeypatch, spec):
    # Both specs audit a declared and a computed h.  G feeds the full and
    # phi solves and the pipeline; nabla R contracted with xi feeds I3.13
    # of each h; the tables of an h feed the axioms, the identities and
    # the theorem checks.
    calls = {}
    for defining, name in (("curvature", "nabla_riemann_table"),
                           ("curvature", "riemann_on"),
                           ("curvature", "g_tensor_table"),
                           ("contact", "HTables")):
        original = getattr(sys.modules[f"cmverify.{defining}"], name)
        calls[name] = []

        def recorded(*args, _name=name, _fn=original):
            result = _fn(*args)
            calls[_name].append((args, result))
            return result

        _patch_everywhere(monkeypatch, name, original, recorded)
    cli.run(["all", spec])
    capsys.readouterr()
    [(_, nr_table)] = calls["nabla_riemann_table"]
    assert sum(any(table is plane for plane in nr_table)
               for (table, _), _ in calls["riemann_on"]) == len(nr_table)
    assert len(calls["g_tensor_table"]) == 1
    hs = [h for (_, _, h), _ in calls["HTables"]]
    assert len(hs) == len(set(hs)) == 2


@pytest.mark.parametrize("command", [["all"], ["check", "axioms"]],
                         ids=["all", "check-axioms"])
@pytest.mark.parametrize("spec", ["example3d", str(ASYM3)],
                         ids=["example3d", "asym3"])
def test_xi_derivatives_built_once(capsys, monkeypatch, command, spec):
    # Both specs audit a declared and a computed h.  Every derivative of
    # xi, eta and phi comes off the connection: d eta, Lie_xi g, the
    # computed h, and I2.4 and I3.12 of each h read nabla xi, which is one
    # nabla_{E_i} xi per frame direction; h reads nabla_{E_w} phi along
    # xi, and I3.3 of each h reads it in every direction, each built once.
    # No [xi, .] table is built: only Koszul and R read the brackets.
    built, nabla_dirs, phi_dirs, readers, reads = {}, [], [], [], []
    original = contact.build_structure

    def kept(*args):
        built["cs"] = original(*args)
        return built["cs"]

    def recorded(spec, gamma, i, v, _fn=frames.covariant_derivative_vector):
        if "cs" in built and v is built["cs"].xi:
            nabla_dirs.append(i)
        return _fn(spec, gamma, i, v)

    def recorded_phi(spec, gamma, i, t,
                     _fn=frames.covariant_derivative_tensor11):
        if t is built["cs"].phi:
            phi_dirs.append(i)
        return _fn(spec, gamma, i, t)

    class Watched(tuple):
        def __getitem__(self, i):
            reads.append(readers[-1] if readers else None)
            return super().__getitem__(i)

        def __iter__(self):
            reads.append(readers[-1] if readers else None)
            return super().__iter__()

    def reader(name, fn):
        def read(*args):
            readers.append(name)
            try:
                return fn(*args)
            finally:
                readers.pop()
        return read

    _patch_everywhere(monkeypatch, "build_structure", original, kept)
    _patch_everywhere(monkeypatch, "covariant_derivative_vector",
                      frames.covariant_derivative_vector, recorded)
    _patch_everywhere(monkeypatch, "covariant_derivative_tensor11",
                      frames.covariant_derivative_tensor11, recorded_phi)
    _patch_everywhere(monkeypatch, "compute_brackets",
                      frames.compute_brackets,
                      lambda *args, _fn=frames.compute_brackets:
                      Watched(_fn(*args)))
    for name, fn in (("koszul_connection", frames.koszul_connection),
                     ("riemann", curvature.riemann)):
        _patch_everywhere(monkeypatch, name, fn, reader(name, fn))
    cli.run(command + [spec])
    capsys.readouterr()
    assert nabla_dirs == [0, 1, 2]
    assert len(phi_dirs) == len(set(phi_dirs))
    xi_dirs = [w for w, c in enumerate(built["cs"].xi) if not c.is_zero]
    assert sorted(phi_dirs) == (xi_dirs if command == ["check", "axioms"]
                                else [0, 1, 2])
    assert reads and set(reads) <= {"koszul_connection", "riemann"}


def test_ricci_solve_builds_nabla_s_from_nabla_r(capsys, build_counts):
    # nabla S is the trace of nabla R, so the Ricci solve builds nabla R
    built = ("riemann", "nabla_riemann_table", "covariant_ricci_table")
    cli.run(["solve", "recurrence", "--kind", "ricci", "example3d"])
    capsys.readouterr()
    assert {name: build_counts[name] for name in built} \
        == dict.fromkeys(built, 1)


def test_check_axioms_builds_no_curvature(capsys, build_counts):
    assert cli.run(["check", "axioms", "sphere3"]) == 0
    assert build_counts["riemann"] == 0
    assert build_counts["nabla_riemann_table"] == 0


@pytest.mark.parametrize("spec", ["heis5", "heis7"])
def test_structural_zeros_stay_out_of_the_kernel(capsys, monkeypatch, spec):
    # The Heisenberg tables are mostly zeros over constant frame
    # coefficients.  An operator with a zero operand returns ZERO or an
    # operand and builds no value, except 0 - e, which builds only -e;
    # frame_apply never differentiates a constant.
    built, seen, wasted = [0], Counter(), Counter()
    init = RationalFunction.__init__

    def counted_init(*args, **kwargs):
        built[0] += 1
        init(*args, **kwargs)
    monkeypatch.setattr(RationalFunction, "__init__", counted_init)
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
        def counted(*args, _name=name, _op=getattr(RationalFunction, name)):
            before = built[0]
            result = _op(*args)
            if any(a.is_zero for a in args):
                seen[_name] += 1
                new = built[0] - before
                if (_name == "__sub__" and args[0].is_zero
                        and not args[1].is_zero):
                    e = args[1]
                    ok = (new == 1 and result.num == -e.num
                          and result.den == e.den)
                else:
                    ok = new == 0 and any(result is a for a in (*args, ZERO))
                if not ok:
                    wasted[_name] += 1
            return result
        monkeypatch.setattr(RationalFunction, name, counted)
    derivative = RationalFunction.derivative

    def counted_derivative(e, coord):
        seen["derivative"] += 1
        if e.is_const:
            wasted["derivative"] += 1
        return derivative(e, coord)
    monkeypatch.setattr(RationalFunction, "derivative", counted_derivative)
    cli.run(corpus.argv("all", spec))
    capsys.readouterr()
    assert wasted == {}
    assert all(seen[name] for name in ("__add__", "__sub__", "__mul__",
                                       "__neg__", "derivative"))


HEIS5 = """\
manifold heis5
coords x1 x2 y1 y2 z
frame-mode vector
vector E1 = 1 dx1 + 2*y1 dz
vector E2 = 1 dx2 + 2*y2 dz
vector E3 = 1 dy1
vector E4 = 1 dy2
vector E5 = 1 dz
metric identity
contact xi = E5
contact phi : E1 -> -1 E3
contact phi : E2 -> -1 E4
contact phi : E3 -> 1 E1
contact phi : E4 -> 1 E2
contact phi : E5 -> 0
"""


def test_heisenberg_dim5_is_sasakian_with_unit_k(tmp_path):
    # E_i = dx_i + 2 y_i dz, E_{2+i} = dy_i, E_5 = dz with the identity
    # metric: [E_i, E_{2+i}] = -2 xi, so d-eta = g(., phi .), xi is
    # Killing, h = 0 and R(X,Y)xi = eta(Y)X - eta(X)Y, while nabla R != 0.
    path = tmp_path / "heis5.cmspec"
    path.write_text(HEIS5)
    ws = Workspace(load_spec(path))
    assert ws.spec.n == 2
    doc = ReportDocument(str(path), "")
    cli.run_all(ws, doc)
    verdicts = {}
    for c in doc.checks:
        verdicts.setdefault(c.check_id, []).append(c.verdict)
    for cid in ("I2.1", "I2.2", "I2.3", "I2.4", "H1", "H2", "H3", "H4",
                "KILLING"):
        assert verdicts[cid] == ["pass"], cid
    assert doc.solutions["k"] == "1"
    assert doc.solutions["mu"] is None
    assert solve_recurrence("full", ws).classification \
        not in ("symmetric", "degenerate-symmetric")


def test_constant_denominator_pipeline_runs_no_gcd(capsys, monkeypatch):
    # Every heis5 tensor entry is a polynomial, so no sum or product on
    # the way to its verdicts has a denominator to cancel.
    poly = sys.modules["cmverify.symcore.poly"]
    calls = []
    original = poly.poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(poly, "poly_gcd", counted)
    assert cli.run(corpus.argv("all", "heis5")) \
        == EXIT_CODES[corpus.key("all", "heis5")]
    assert calls == []


def _residuals_pulled(argv, patch, lazy=True) -> list:
    """(check id, residuals read) for each list a suite hands to
    `param_check` while `argv` runs; with `lazy` False each list is read
    whole before the check sees it, which gives its full length."""
    seen = []
    mods = [sys.modules[f"cmverify.{m}"] for m in ("nullity", "recurrence")]
    param = mods[0].param_check

    def counted(check_id, params, residuals, *args, **kwargs):
        pulled = [0]

        def pull():
            for item in residuals:
                pulled[0] += 1
                yield item
        rows = pull() if lazy else list(pull())
        report = param(check_id, params, rows, *args, **kwargs)
        seen.append((check_id, pulled[0]))
        return report

    for mod in mods:
        patch(mod, "param_check", counted)
    cli.run(argv)
    return seen


@pytest.mark.parametrize("spec", ["polyframe3", "polymetric3"])
def test_needs_input_checks_stop_at_their_proof(capsys, monkeypatch, spec):
    # k and mu are indeterminate on polyframe3 and mu on polymetric3, so
    # T4.14 and T4.17 are needs-input and need not build every row
    argv = corpus.argv("all", spec)
    with monkeypatch.context() as m:
        full = _residuals_pulled(argv, m.setattr, lazy=False)
    capsys.readouterr()
    got = _residuals_pulled(argv, monkeypatch.setattr)
    out = capsys.readouterr().out
    golden = corpus.GOLDEN_DIR / f"{corpus.slug('all', spec)}.json"
    assert out.encode() == golden.read_bytes()
    assert [c for c, _ in got] == [c for c, _ in full]
    assert all(n <= whole for (_, n), (_, whole) in zip(got, full))
    fewer = {c for (c, n), (_, whole) in zip(got, full) if n < whole}
    assert {"T4.14", "T4.17"} <= fewer


def test_determinate_checks_read_every_residual(capsys, monkeypatch):
    argv = ["all", str(ASYM3), "--k", "2", "--mu", "3", "--format", "json"]
    with monkeypatch.context() as m:
        full = _residuals_pulled(argv, m.setattr, lazy=False)
    capsys.readouterr()
    got = _residuals_pulled(argv, monkeypatch.setattr)
    out = capsys.readouterr().out
    assert out.encode() == (TESTS / "goldens"
                            / "asym3.all-k-2-mu-3.json").read_bytes()
    assert got == full
    assert {"T4.9b", "T4.14", "T4.17"} <= {c for c, _ in got}

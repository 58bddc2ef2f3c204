"""Command-line driver.

Wires the geometry pipeline to four subcommands:

    cmverify check axioms <file>        structure axioms (I2.x, H*, ...)
    cmverify check identities <file>    curvature identities (I3.x)
    cmverify solve recurrence <file>    recurrence 1-form solver (REC-*)
    cmverify pipeline <file>            worked-example audit (PIPE-5.x)
    cmverify all <file>                 everything, plus theorem checks

Exit codes: 0 when no check fails, 2 when at least one check fails,
1 on input or construction errors.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache

from .contact import InconsistentEta, axiom_suite
from .frames import FrameDependent, ShapeError
from .nullity import extraction_report, identity_battery
from .recurrence import (KINDS, classification_phrase, example_pipeline,
                         pipeline_available, recurrence_report,
                         solve_recurrence, theorem_checks)
from .report import ReportDocument, render_oneform
from .sampling import DEFAULT_POINTS, DEFAULT_SEED, DEFAULT_TOL
from .specfile import SpecFileError, load_spec, resolve_spec_path
from .symcore import DivisionByZeroExpr, ExprSyntaxError, UnknownSymbol
from .workspace import BadOverride, FrameInvalid, Workspace

DETA_FACTORS = {"half": Fraction(1, 2), "one": Fraction(1)}


def run_axioms(ws: Workspace, doc: ReportDocument):
    doc.extend(axiom_suite(ws))


def run_identities(ws: Workspace, doc: ReportDocument):
    for label, h, ext, used in ws.params:
        doc.add(extraction_report(ext, used, label))
        doc.extend(identity_battery(ws, h, used, label))
    _attach_solution(ws, doc, None)


def run_solve(ws: Workspace, doc: ReportDocument, kind: str):
    sol = solve_recurrence(kind, ws)
    doc.add(recurrence_report(sol, ws.sampler))
    _attach_solution(ws, doc, sol)


def run_pipeline(ws: Workspace, doc: ReportDocument):
    doc.extend(example_pipeline(ws))


def run_all(ws: Workspace, doc: ReportDocument):
    run_axioms(ws, doc)
    run_identities(ws, doc)
    for kind in KINDS:
        sol = solve_recurrence(kind, ws)
        doc.add(recurrence_report(sol, ws.sampler))
        # only the phi solution is read after its report, so the others
        # are not kept
        if kind == "phi":
            phi_sol = sol
    for label, h, ext, used in ws.params:
        doc.extend(theorem_checks(ws, h, used, phi_sol, label))
    if pipeline_available(ws.spec):
        run_pipeline(ws, doc)
    _attach_solution(ws, doc, phi_sol)


def _jval(v):
    return None if v is None else str(v)


def _attach_solution(ws: Workspace, doc: ReportDocument, sol):
    """Solutions block: A and B from a consistent solve, k and mu from the
    primary h variant.  Without a solve there is no classification."""
    _, _, _, primary = ws.params[0]
    solved = sol is not None and sol.consistent
    doc.solutions = {"A": render_oneform(sol.A) if solved else None,
                     "B": render_oneform(sol.B) if solved else None,
                     "k": _jval(primary.k), "mu": _jval(primary.mu)}
    if sol is not None:
        doc.classification = classification_phrase(sol)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not >= 1")
    return value


def nonnegative_float(text: str) -> float:
    value = float(text)
    if not value >= 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"{text} is not >= 0")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


@cache
def build_parser() -> _Parser:
    """The option parser, built on first use and shared by every `run`:
    it holds only constants, and each parse returns a fresh Namespace."""
    parser = _Parser(prog="cmverify",
                     description="Exact verification of contact metric "
                                 "frame data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("specfile",
                       help="path to a .cmspec file, or the name of a "
                            "bundled example")
        p.add_argument("--k", metavar="EXPR", default=None,
                       help="override the nullity constant k")
        p.add_argument("--mu", metavar="EXPR", default=None,
                       help="override the nullity constant mu")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--points", type=positive_int, default=DEFAULT_POINTS)
        p.add_argument("--tol", type=nonnegative_float, default=DEFAULT_TOL)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--deta-factor", choices=("half", "one"),
                       default="half",
                       help="normalization of the exterior derivative "
                            "in the contact axioms")

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument("suite", choices=("axioms", "identities"))
    common(check)

    solve = sub.add_parser("solve", help="solve for recurrence 1-forms")
    solve.add_argument("target", choices=("recurrence",))
    solve.add_argument("--kind", choices=KINDS, default="full")
    common(solve)

    pipe = sub.add_parser("pipeline", help="audit the worked example chain")
    common(pipe)

    allp = sub.add_parser("all", help="run every suite")
    common(allp)
    return parser


def _fuse_value_flags(argv):
    """Join --k/--mu/--tol with their value so negative values survive
    option parsing: argparse takes "-1/y" or "-1e-9" for an option."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--k", "--mu", "--tol"):
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_fuse_value_flags(argv))
    try:
        path = resolve_spec_path(args.specfile)
        parsed = load_spec(path)
        ws = Workspace(parsed, k=args.k, mu=args.mu,
                       seed=args.seed, points=args.points, tol=args.tol,
                       deta_factor=DETA_FACTORS[args.deta_factor])
        # an invalid frame (such as an even dimension) fails before any suite
        warnings = ws.validation.warnings
        doc = ReportDocument(str(path), parsed.sha256)
        if args.command == "check" and args.suite == "axioms":
            run_axioms(ws, doc)
        elif args.command == "check":
            run_identities(ws, doc)
        elif args.command == "solve":
            run_solve(ws, doc, args.kind)
        elif args.command == "pipeline":
            run_pipeline(ws, doc)
        else:
            run_all(ws, doc)
    except (SpecFileError, FileNotFoundError, FrameInvalid, FrameDependent,
            ShapeError, InconsistentEta, ExprSyntaxError, UnknownSymbol,
            DivisionByZeroExpr, BadOverride) as exc:
        print(f"cmverify: error: {exc}", file=sys.stderr)
        return 1
    for issue in warnings:
        print(f"cmverify: warning: {issue.name}: {issue.detail}",
              file=sys.stderr)
    print(doc.to_json() if args.format == "json" else doc.to_text())
    return doc.exit_code()


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe: point stdout at devnull so that the
        # interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()

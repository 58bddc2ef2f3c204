"""Check reports and the machine-readable output document.

Every check hands its reader a stream of (label, Expr) residuals, each
built only when it is read; see `residual_check` and `nullity.param_check`."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .symcore import lincomb

VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
NEEDS_INPUT = "needs-input"
DEGENERATE = "degenerate"


@dataclass
class CheckReport:
    check_id: str
    verdict: str
    residual_symbolic: str = "0"
    residual_sampled_max: float | None = None
    notes: str = ""

    def line(self) -> str:
        parts = [f"[{self.verdict.upper():>11}] {self.check_id}"]
        if self.residual_symbolic not in ("", "0"):
            parts.append(f"residual = {self.residual_symbolic}")
        if self.residual_sampled_max is not None:
            parts.append(f"max|sampled| = {self.residual_sampled_max:.3e}")
        if self.notes:
            parts.append(self.notes)
        return "  ".join(parts)


def join_notes(*parts) -> str:
    """The nonempty parts, joined with "; "."""
    return "; ".join(p for p in parts if p)


def pair_residuals(dim, terms, first=None):
    """Yields ("(E_i,E_j)", entry [i][j]) of the table whose row i is the
    `lincomb` of the terms `terms(i)`, for j >= i + first, or for every j
    when first is None; row i is built only when it is read."""
    for i in range(dim):
        s = 0 if first is None else i + first
        row = lincomb(dim - s, [(c, r[s:]) for c, r in terms(i)])
        yield from ((f"(E{i + 1},E{j + 1})", x) for j, x in enumerate(row, s))


def residual_check(check_id, residuals, sampler=None, notes="",
                   pass_notes="") -> CheckReport:
    """Verdict from a stream of (label, Expr) residuals, read once: pass
    iff every one is identically zero.  The first nonzero residual is
    rendered, labelled."""
    residuals = list(residuals)
    sampled = None if sampler is None else \
        sampler.max_abs([e for _, e in residuals])
    label, e = next(((label, e) for label, e in residuals if not e.is_zero),
                    ("", None))
    if e is None:
        return CheckReport(check_id, PASS, "0", sampled, pass_notes or notes)
    shown = f"{label}: {e}" if label else str(e)
    return CheckReport(check_id, FAIL, shown, sampled, notes)


@dataclass
class ReportDocument:
    spec_path: str
    spec_hash: str
    checks: list = field(default_factory=list)
    solutions: dict | None = None
    classification: str | None = None

    def add(self, report: CheckReport):
        self.checks.append(report)

    def extend(self, reports):
        self.checks.extend(reports)

    def counts(self):
        out = {PASS: 0, FAIL: 0, NEEDS_INPUT: 0, DEGENERATE: 0}
        for c in self.checks:
            out[c.verdict] = out.get(c.verdict, 0) + 1
        return out

    def exit_code(self) -> int:
        return 2 if any(c.verdict == FAIL for c in self.checks) else 0

    def to_json(self) -> str:
        checks = []
        for c in self.checks:
            worst = c.residual_sampled_max  # JSON has no infinity: "inf"
            checks.append({
                "id": c.check_id,
                "verdict": c.verdict,
                "residual_symbolic": c.residual_symbolic,
                "residual_sampled_max": "inf" if worst == math.inf else worst,
                "notes": c.notes,
            })
        doc = {
            "version": VERSION,
            "spec_hash": self.spec_hash,
            "checks": checks,
            "solutions": self.solutions,
            "classification": self.classification,
        }
        return json.dumps(doc, sort_keys=True, separators=(", ", ": "),
                          indent=2)

    def to_text(self) -> str:
        lines = [f"manifold file: {self.spec_path}  (sha256 {self.spec_hash[:12]})"]
        for c in self.checks:
            lines.append(c.line())
        if self.solutions is not None:
            lines.append("solutions:")
            for key, val in self.solutions.items():
                if isinstance(val, (list, tuple)):
                    val = "(" + ", ".join(val) + ")"
                elif val is None:
                    val = "indeterminate"
                lines.append(f"  {key} = {val}")
        if self.classification is not None:
            lines.append(f"classification: {self.classification}")
        n = self.counts()
        lines.append(
            f"summary: {n[PASS]} pass, {n[FAIL]} fail, "
            f"{n[NEEDS_INPUT]} needs-input, {n[DEGENERATE]} degenerate")
        return "\n".join(lines)


def render_oneform(omega) -> list:
    """The components omega(E_i) of a 1-form, as text."""
    return [str(c) for c in omega]

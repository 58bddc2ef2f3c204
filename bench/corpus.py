"""The benchmark's workloads: fixed lists of (command, spec) invocations.

A workload never changes between runs; the run seed only permutes the
order of its invocations inside each pass, so one golden per invocation
stays valid for every seed.  Why each workload is in the corpus is
recorded in BENCHMARK.json (`why`) and in context.json.
"""
from __future__ import annotations

from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC_DIR = BENCH_DIR / "specs"
GOLDEN_DIR = BENCH_DIR / "goldens"
FACTS_PATH = BENCH_DIR / "facts.json"

# Seconds one invocation may run before it is abandoned and counted as
# over budget (and at the budget in wall_s).  Untraced runs count these
# seconds at the reference host speed (hostspeed.py), so how far an
# abandoned invocation gets, and the memory it holds by then, depends
# little on how busy the host is; traced runs count real seconds.  polyboth3 `all`, the slowest
# decided invocation, takes 11-17 s depending on host load, so this leaves
# it a margin while conf3 costs a bounded 30 s per pass.  It is also about
# the roadmap's target for conf3 after a kernel rebuild (2x the 13 s sympy
# takes for its Riemann table), so reaching that target shows in ok_ratio.
BUDGET_S = 30.0

BUNDLED_SPECS = ("sphere3", "flat3", "example3d", "example3d-vector")
BUNDLED_COMMANDS = (
    "check axioms",
    "check identities",
    "solve recurrence --kind full",
    "solve recurrence --kind ricci",
    "solve recurrence --kind phi",
    "pipeline",
    "all",
)

WORKLOADS = {
    "bundled": [(cmd, spec) for spec in BUNDLED_SPECS
                for cmd in BUNDLED_COMMANDS],
    "heisenberg": [(cmd, spec) for spec in ("heis5", "heis7")
                   for cmd in ("all", "check axioms")],
    "polymetric": [("all", spec) for spec in
                   ("polymetric3", "polyframe3", "polyboth3", "conf3")],
}

# Invocations with no verdict within BUDGET_S at the commit the goldens
# were captured from.  Going over budget is their expected outcome, so it
# counts toward fail_ratio but not as a wrong answer; if one finishes, its
# output is checked against the facts file only, as it has no golden.
UNDECIDED = {("all", "conf3")}


def key(cmd: str, spec: str) -> str:
    """Stable identifier of an invocation, used for goldens and reports."""
    return f"{cmd} {spec}"


def slug(cmd: str, spec: str) -> str:
    """File-name form of an invocation."""
    words = [w for w in cmd.replace("--", "").split() if w]
    return f"{spec}.{'-'.join(words)}"


def argv(cmd: str, spec: str) -> list:
    """Arguments for `cmverify.cli.run`: bundled specs by name, corpus specs
    by their file under specs/."""
    path = SPEC_DIR / f"{spec}.cmspec"
    target = spec if spec in BUNDLED_SPECS else str(path)
    return cmd.split() + [target, "--format", "json"]


def all_invocations():
    """Every distinct invocation over all workloads, in a fixed order."""
    seen = []
    for invs in WORKLOADS.values():
        for inv in invs:
            if inv not in seen:
                seen.append(inv)
    return seen

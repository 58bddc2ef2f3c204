"""Correctness oracle: goldens plus hand-written facts.

Goldens are the exact stdout bytes and exit code of every decided
invocation, captured by `capture.py`.  The facts file states results known
independently of the program (from the geometry of the specs), so a
golden captured from a wrong program cannot vouch for itself.

Fact keys, each optional, applied to every (command, spec) pair listed:
    exit             exact exit code
    stderr           regex that stderr must match
    pass / fail      check ids that must appear, every time with that verdict
    all_pass         every check in the document passes
    solutions        subset of the "solutions" object, compared exactly
    notes            {check id: [regex, ...]} matched against its notes
    not_classified   {check id: [classification, ...]} it must not report
"""
from __future__ import annotations

import json
import re

from corpus import FACTS_PATH, GOLDEN_DIR, UNDECIDED, all_invocations, key, \
    slug

_CLASSIFICATION = re.compile(r"classification: ([^;]*)")


class Oracle:
    def __init__(self):
        self.exit_codes = json.loads(
            (GOLDEN_DIR / "exit_codes.json").read_text())
        self.golden = {}
        for cmd, spec in all_invocations():
            if (cmd, spec) not in UNDECIDED:
                self.golden[(cmd, spec)] = (
                    GOLDEN_DIR / f"{slug(cmd, spec)}.json").read_bytes()
        self.facts = json.loads(FACTS_PATH.read_text())["facts"]

    def problems(self, cmd: str, spec: str, rc: int, out: str,
                 err: str) -> list:
        """Ways a finished invocation contradicts its golden or facts."""
        found = []
        if (cmd, spec) in self.golden:
            if rc != self.exit_codes[key(cmd, spec)]:
                found.append(f"exit code {rc}, golden "
                             f"{self.exit_codes[key(cmd, spec)]}")
            if out.encode() != self.golden[(cmd, spec)]:
                found.append("stdout differs from golden")
        elif rc not in (0, 2):
            found.append(f"exit code {rc} without a golden")
        doc = None
        if out:
            try:
                doc = json.loads(out)
            except ValueError:
                found.append("stdout is not JSON")
        for fact in self.facts:
            if spec in fact["specs"] and cmd in fact["commands"]:
                found.extend(_violations(fact, rc, doc, err))
        return found


def _verdicts(doc, check_id):
    return [c["verdict"] for c in doc["checks"] if c["id"] == check_id]


def _violations(fact, rc, doc, err):
    out = []
    if "exit" in fact and rc != fact["exit"]:
        out.append(f"fact: exit code {rc}, expected {fact['exit']}")
    if "stderr" in fact and not re.search(fact["stderr"], err):
        out.append(f"fact: stderr does not match {fact['stderr']!r}")
    checks = {"pass", "fail", "all_pass", "solutions", "notes",
              "not_classified"} & fact.keys()
    if not checks:
        return out
    if doc is None:
        return out + ["fact: no JSON document to check"]
    for verdict in ("pass", "fail"):
        for cid in fact.get(verdict, ()):
            got = _verdicts(doc, cid)
            if not got or any(v != verdict for v in got):
                out.append(f"fact: {cid} verdicts {got}, expected {verdict}")
    if fact.get("all_pass"):
        bad = [c["id"] for c in doc["checks"] if c["verdict"] != "pass"]
        if bad:
            out.append(f"fact: checks not passing: {bad}")
    for name, want in fact.get("solutions", {}).items():
        if doc["solutions"].get(name) != want:
            out.append(f"fact: solution {name} = "
                       f"{doc['solutions'].get(name)!r}, expected {want!r}")
    notes = {c["id"]: c["notes"] for c in doc["checks"]}
    for cid, patterns in fact.get("notes", {}).items():
        for pat in patterns:
            if not re.search(pat, notes.get(cid, "")):
                out.append(f"fact: {cid} notes do not match {pat!r}")
    for cid, banned in fact.get("not_classified", {}).items():
        m = _CLASSIFICATION.search(notes.get(cid, ""))
        if m is None or m.group(1) in banned:
            out.append(f"fact: {cid} classification "
                       f"{m.group(1) if m else None!r}, must not be {banned}")
    return out

"""Every residual list a suite hands to `residual_check` or `param_check`
keeps its labels, order and exact values.  The CLI output shows only the
first nonzero residual and a sampled maximum per check, so it can miss a
change in the rest of a list; this pins a digest of each full list."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from cmverify import cli

TESTS = Path(__file__).resolve().parent
ASYM3 = str(TESTS / "specs" / "asym3.cmspec")
GOLDEN = TESTS / "goldens" / "residual_digests.json"

INVOCATIONS = {
    "all asym3": ["all", ASYM3],
    "all asym3 --k 2 --mu 3": ["all", ASYM3, "--k", "2", "--mu", "3"],
    "all example3d": ["all", "example3d"],
    "all heis5": ["all", str(TESTS.parent / "bench" / "specs"
                             / "heis5.cmspec")],
    "all heis7": ["all", str(TESTS.parent / "bench" / "specs"
                             / "heis7.cmspec")],
    # k and mu are functions here, so I3.4, I3.9, I3.10 and I3.13 fail;
    # this pins their residuals, and kt3a's under the D-homothety
    "all kt3": ["all", str(TESTS / "specs" / "kt3.cmspec")],
    "all kt3a": ["all", str(TESTS / "specs" / "kt3a.cmspec")],
    # uni3 (xi = E1) is the one spec with eta(E_i) != 0 for some i < j,
    # so it is the one that pins T4.17's extra index term
    "all t1e3": ["all", str(TESTS / "specs" / "t1e3.cmspec")],
    # the D-homothetic deformation of t1e3: a parameter, rational
    # entries and h != 0 in dim 5
    "all t1e3a": ["all", str(TESTS / "specs" / "t1e3a.cmspec")],
    "all uni3": ["all", str(TESTS / "specs" / "uni3.cmspec")],
}


def _digest(residuals) -> str:
    text = "\n".join(f"{label}\t{e}" for label, e in residuals)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def residual_digests(argv, patch) -> list:
    """"check id: digest" for each residual list built while `argv` runs;
    `patch(module, name, value)` installs the recording wrappers."""
    seen = []
    suites = [sys.modules[f"cmverify.{m}"]
              for m in ("contact", "nullity", "recurrence")]
    check = suites[1].residual_check
    param = suites[1].param_check

    # a suite may hand over a generator, so each list is read whole once,
    # digested and passed on
    def residual_check(check_id, residuals, *args, **kwargs):
        residuals = list(residuals)
        seen.append(f"{check_id}: {_digest(residuals)}")
        return check(check_id, residuals, *args, **kwargs)

    def param_check(check_id, params, residuals, *args, **kwargs):
        residuals = list(residuals)
        seen.append(f"{check_id} (k, mu): {_digest(residuals)}")
        return param(check_id, params, residuals, *args, **kwargs)

    for mod in suites:
        patch(mod, "residual_check", residual_check)
        if hasattr(mod, "param_check"):
            patch(mod, "param_check", param_check)
    cli.run(argv)
    return seen


@pytest.mark.parametrize("key", INVOCATIONS)
def test_residual_lists_match_golden(capsys, monkeypatch, key):
    got = residual_digests(INVOCATIONS[key], monkeypatch.setattr)
    capsys.readouterr()
    assert got == json.loads(GOLDEN.read_text())[key]

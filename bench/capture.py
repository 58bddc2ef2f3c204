"""Capture the goldens: exact stdout bytes and exit code of every decided
invocation in the corpus, written to goldens/.

Run from the repository root at the commit whose outputs are the
reference:

    python3 bench/capture.py

An invocation listed in `corpus.UNDECIDED` gets no golden; any other
invocation that goes over budget or raises stops the capture.
"""
from __future__ import annotations

import json
import sys

from corpus import BUDGET_S, GOLDEN_DIR, UNDECIDED, all_invocations, \
    argv, key, slug
from run import import_cli, invoke


def main() -> int:
    cli = import_cli()
    GOLDEN_DIR.mkdir(exist_ok=True)
    exit_codes = {}
    for cmd, spec in all_invocations():
        if (cmd, spec) in UNDECIDED:
            continue
        rc, out, _, seconds, over, error = invoke(cli, argv(cmd, spec),
                                                  BUDGET_S)
        if over or error:
            print(f"{key(cmd, spec)}: {error or 'over budget'}",
                  file=sys.stderr)
            return 1
        (GOLDEN_DIR / f"{slug(cmd, spec)}.json").write_bytes(out.encode())
        exit_codes[key(cmd, spec)] = rc
        print(f"{key(cmd, spec)}: exit {rc}, {len(out)} bytes, "
              f"{seconds:.3f} s")
    (GOLDEN_DIR / "exit_codes.json").write_text(
        json.dumps(exit_codes, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

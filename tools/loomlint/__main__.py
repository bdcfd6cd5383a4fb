"""CLI entry point: ``python -m tools.loomlint`` (or ``loomlint``).

Usage, from the repository root::

    loomlint [paths...]        # run LOOM101-116 and LOOM201-208 (default: src/)
    loomlint mutants           # self-test: seeded view escapes must be caught
    loomlint --list-rules

Exit status (stable, scripts may rely on it):

* ``0`` — clean: every finding carries an inline suppression; for
  ``mutants``, every seeded escape was caught at its expected location.
* ``1`` — unsuppressed findings exist (or a mutant escaped).
* ``2`` — usage error: unknown paths, an unparsable file, or a name in
  ``tools/loomlint/config.py`` that the analyzed tree does not define.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .config import RULES
from .linter import ConfigError, run
from .mutants import run_mutants


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="loomlint",
        description=(
            "Loom static analysis: concurrency invariants (LOOM101-116) "
            "and zero-copy view lifetimes (LOOM201-208)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/"],
        help="files or directories to lint (default: src/), or the verb "
        "`mutants` to run the seeded-escape self-test",
    )
    parser.add_argument("--out", help="write findings as JSON to this path")
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also show suppressed findings (mutants: show each catch)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, (slug, description) in sorted(RULES.items()):
            print(f"{code} [{slug}]")
            print(f"    {description}")
        return 0

    try:
        if args.paths == ["mutants"]:
            return run_mutants(os.getcwd(), verbose=args.verbose)
        missing = [p for p in args.paths if not os.path.exists(p)]
        if missing:
            print(f"loomlint: no such path(s): {', '.join(missing)}", file=sys.stderr)
            return 2
        result = run(args.paths)
    except (ConfigError, OSError, SyntaxError) as exc:
        print(f"loomlint: {exc}", file=sys.stderr)
        return 2

    for finding in result.findings:
        print(finding.render())
    if args.verbose:
        for finding in result.suppressed:
            print(f"[suppressed] {finding.render()}")
    if args.out:
        payload = {
            "findings": [f.to_json() for f in result.findings],
            "suppressed": [f.to_json() for f in result.suppressed],
        }
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")

    if result.findings:
        print(
            f"loomlint: {len(result.findings)} finding(s) "
            f"({len(result.suppressed)} suppressed)",
            file=sys.stderr,
        )
        return 1
    print(f"loomlint: clean ({len(result.suppressed)} suppressed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

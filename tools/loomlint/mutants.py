"""Seeded-escape self-test for the view-lifetime rules (LOOM201-208).

Each mutant appends a small, realistic view-lifetime bug to a *real*
source file (in memory, via the index's source-override hook — the tree
on disk is never touched), re-runs the analysis, and asserts the
expected rule fires at the expected ``file:line`` with a borrow-site
trace.  This is the analysis's own regression net: if a refactor of the
taint engine silently stops catching one of these shapes, the CI mutant
step fails.

The catalog deliberately covers every rule at least once, both daemon
rules, both LOOM208 shapes (malformed and stale contracts), ndarray
propagation through ``np.frombuffer``, and one interprocedural escape
(the borrow is minted two frames below the public return).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import List, Optional

from .borrows import rule_borrows
from .index import Finding, ProjectIndex


@dataclass(frozen=True)
class Mutant:
    name: str
    #: Repo-relative path of the file the bug is seeded into.
    path: str
    #: Source appended to the end of the file (module level).
    snippet: str
    #: Rule expected to fire.
    rule: str
    #: 1-based line of the expected finding *within the snippet*.
    offset: int
    #: 1-based line of the expected borrow site within the snippet, or
    #: None when the borrow site is the finding line itself.
    borrow_offset: Optional[int] = None


MUTANTS: List[Mutant] = [
    Mutant(
        name="operators-region-cache",
        path="src/repro/core/operators.py",
        snippet=(
            "_REGION_CACHE = {}\n"
            "\n"
            "\n"
            "def cache_region_view(storage, address, length):\n"
            "    view = storage.read_view(address, length)\n"
            "    _REGION_CACHE[(address, length)] = view\n"
            "    return bytes(view)\n"
        ),
        rule="LOOM203",
        offset=6,
        borrow_offset=5,
    ),
    Mutant(
        name="record-log-self-store",
        path="src/repro/core/record_log.py",
        snippet=(
            "def cache_hot_region(self, storage):\n"
            "    self._hot_region = storage.read_view(0, 64)\n"
        ),
        rule="LOOM202",
        offset=2,
        borrow_offset=2,
    ),
    Mutant(
        name="server-view-across-await",
        path="src/repro/daemon/server.py",
        snippet=(
            "async def stream_region(storage, writer):\n"
            "    view = storage.read_view(0, 128)\n"
            "    await writer.drain()\n"
            "    return len(view)\n"
        ),
        rule="LOOM204",
        offset=4,
        borrow_offset=2,
    ),
    Mutant(
        name="server-queue-handoff",
        path="src/repro/daemon/server.py",
        snippet=(
            "def enqueue_region(storage, out_queue):\n"
            "    view = storage.read_view(0, 128)\n"
            "    out_queue.put_nowait(view)\n"
        ),
        rule="LOOM205",
        offset=3,
        borrow_offset=2,
    ),
    Mutant(
        name="public-uncopied-return",
        path="src/repro/core/record_log.py",
        snippet=(
            "def peek_payload(self, address, length):\n"
            "    return self.read_view(address, length)\n"
        ),
        rule="LOOM206",
        offset=2,
        borrow_offset=2,
    ),
    Mutant(
        name="hybridlog-bracket-escape",
        path="src/repro/core/hybridlog.py",
        snippet=(
            "def racy_read(log, address, length):\n"
            "    try:\n"
            "        view = log.read_view(address, length)\n"
            "    except SnapshotRetry:\n"
            "        raise\n"
            "    return bytes(view)\n"
        ),
        rule="LOOM201",
        offset=6,
        borrow_offset=3,
    ),
    Mutant(
        name="storage-write-through",
        path="src/repro/core/storage.py",
        snippet=(
            "def scrub_record(storage, address, length):\n"
            "    view = storage.read_view(address, length)\n"
            "    view[0:1] = b'\\x00'\n"
        ),
        rule="LOOM207",
        offset=3,
        borrow_offset=2,
    ),
    Mutant(
        name="bad-contract-token",
        path="src/repro/core/record_log.py",
        snippet=(
            "def leak_forever(self, address, length):"
            "  # loomflow: borrows=forever\n"
            "    return self.read_view(address, length)\n"
        ),
        rule="LOOM208",
        offset=1,
        borrow_offset=1,
    ),
    Mutant(
        name="stale-contract",
        path="src/repro/core/record_log.py",
        snippet=(
            "def copy_record(self, address, length):"
            "  # loomflow: borrows=scan\n"
            "    return bytes(self.read_view(address, length))\n"
        ),
        rule="LOOM208",
        offset=1,
        borrow_offset=1,
    ),
    Mutant(
        name="interprocedural-return",
        path="src/repro/core/storage.py",
        snippet=(
            "def _borrow_helper(storage, address, length):\n"
            "    return storage.read_view(address, length)\n"
            "\n"
            "\n"
            "def fetch_region(storage, address, length):\n"
            "    return _borrow_helper(storage, address, length)\n"
        ),
        rule="LOOM206",
        offset=6,
        borrow_offset=6,
    ),
    Mutant(
        name="frombuffer-ndarray-cache",
        path="src/repro/core/record_log.py",
        snippet=(
            "_COLUMN_CACHE = {}\n"
            "\n"
            "\n"
            "def cache_columns(storage, address, length):\n"
            "    view = storage.read_view(address, length)\n"
            "    arr = np.frombuffer(view, np.uint8)\n"
            "    _COLUMN_CACHE[address] = arr\n"
        ),
        rule="LOOM203",
        offset=7,
        borrow_offset=5,
    ),
]


def _apply(root: str, mutant: Mutant) -> "tuple[str, int]":
    """Return (mutated source, base line count) for the mutant's file."""
    abs_path = os.path.join(root, mutant.path)
    with open(abs_path, "r", encoding="utf-8") as f:
        original = f.read()
    if not original.endswith("\n"):
        original += "\n"
    base = original.count("\n")
    return original + "\n\n" + mutant.snippet, base + 2


def check_mutant(root: str, mutant: Mutant) -> "tuple[bool, str, Optional[Finding]]":
    """Run the analysis with the mutant applied; verify the catch.

    Returns ``(ok, detail, finding)``.
    """
    mutated, base = _apply(root, mutant)
    index = ProjectIndex.build(
        [os.path.join(root, "src")], root, overrides={mutant.path: mutated}
    )
    findings = rule_borrows(index)
    expected_line = base + mutant.offset
    hit = next(
        (
            f
            for f in findings
            if f.rule == mutant.rule
            and f.path == mutant.path
            and f.line == expected_line
        ),
        None,
    )
    if hit is None:
        near = [
            f.render()
            for f in findings
            if f.path == mutant.path and f.line > base
        ]
        return (
            False,
            f"expected {mutant.rule} at {mutant.path}:{expected_line}; "
            f"got in-snippet findings: {near or 'none'}",
            None,
        )
    if mutant.borrow_offset is not None:
        expected_site = f"{mutant.path}:{base + mutant.borrow_offset}"
        if hit.borrow_site != expected_site:
            return (
                False,
                f"expected borrow site {expected_site}, got "
                f"{hit.borrow_site}",
                hit,
            )
    return True, hit.render(), hit


def run_mutants(root: str, verbose: bool = False) -> int:
    """Run the whole catalog; exit 0 only if every mutant is caught."""
    failures = 0
    for mutant in MUTANTS:
        ok, detail, _ = check_mutant(root, mutant)
        status = "caught" if ok else "MISSED"
        line = f"[{status}] {mutant.name} ({mutant.rule})"
        if verbose or not ok:
            line += f": {detail}"
        print(line, file=sys.stderr if not ok else sys.stdout)
        if not ok:
            failures += 1
    print(
        f"loomlint mutants: {len(MUTANTS) - failures}/{len(MUTANTS)} caught",
        file=sys.stderr,
    )
    return 1 if failures else 0

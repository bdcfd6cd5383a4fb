"""loomlint driver: index the tree, resolve the config, run every rule.

Plain-``ast`` implementation, no plugin framework: one
:class:`~tools.loomlint.index.ProjectIndex`, two rule modules over it
(:mod:`~tools.loomlint.concurrency` for LOOM101-116,
:mod:`~tools.loomlint.borrows` for LOOM201-208), one
:class:`~tools.loomlint.index.Finding` type.

Suppression: append ``# loomlint: disable=LOOM101`` (or the rule slug,
``# loomlint: disable=reader-blocking``) to the offending line, or to the
``def`` line to suppress for a whole function.  That comment is the only
way to accept a finding.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import borrows, concurrency
from .config import (
    ATTR_TYPES,
    ENGINE_PATHS,
    FUZZ_SCHEDULE_QUALNAME,
    LOCAL_TYPES,
    READER_ROOTS,
    RECORD_LOG_QUALNAME,
    SHADOW_LOG_QUALNAME,
    SHADOW_SURFACE,
)
from .index import Finding, ProjectIndex

ALL_RULES = (*concurrency.ALL_RULES, borrows.rule_borrows)


class ConfigError(Exception):
    """A name in :mod:`tools.loomlint.config` does not exist in the tree."""


@dataclass
class LintResult:
    findings: List[Finding]
    suppressed: List[Finding]

    @property
    def clean(self) -> bool:
        return not self.findings


def check_config(index: ProjectIndex) -> None:
    """Raise :class:`ConfigError` unless every configured function and
    class resolves in ``index``.

    A reader root, typed attribute or shadow-surface entry that names
    something a refactor renamed would otherwise drop out of its rule
    without a finding; loomlint analyses the project, not a subtree, so
    an unresolved entry means the config (or the path list) is wrong.
    """
    unresolved: List[str] = []
    for path in ENGINE_PATHS:
        if path not in index.files:
            unresolved.append(f"ENGINE_PATHS: {path}")
    for pattern in READER_ROOTS:
        if not index.match_functions(pattern):
            unresolved.append(f"READER_ROOTS: {pattern}")
    for constant, qualname in (
        ("RECORD_LOG_QUALNAME", RECORD_LOG_QUALNAME),
        ("SHADOW_LOG_QUALNAME", SHADOW_LOG_QUALNAME),
        ("FUZZ_SCHEDULE_QUALNAME", FUZZ_SCHEDULE_QUALNAME),
    ):
        if qualname not in index.classes:
            unresolved.append(f"{constant}: {qualname}")
    record_log = index.classes.get(RECORD_LOG_QUALNAME)
    for name in SHADOW_SURFACE:
        if record_log is not None and name not in record_log.methods:
            unresolved.append(f"SHADOW_SURFACE: {RECORD_LOG_QUALNAME}.{name}")
    for constant, types in (("ATTR_TYPES", ATTR_TYPES), ("LOCAL_TYPES", LOCAL_TYPES)):
        for class_name in sorted({c for names in types.values() for c in names}):
            if class_name not in index.classes_by_name:
                unresolved.append(f"{constant}: class {class_name}")
    if unresolved:
        raise ConfigError(
            "tools/loomlint/config.py names code the analyzed tree does not "
            "define (lint the whole project from the repository root, or fix "
            "the entry):\n  " + "\n  ".join(unresolved)
        )


def lint(index: ProjectIndex) -> LintResult:
    """Run every rule over ``index`` and split off suppressed findings."""
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for rule in ALL_RULES:
        for finding in rule(index):
            (suppressed if index.suppressed(finding) else findings).append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return LintResult(findings=findings, suppressed=suppressed)


def run(paths: Sequence[str], root: Optional[str] = None) -> LintResult:
    """Analyze the project under ``paths`` (relative to ``root``, default
    the working directory); raises :class:`ConfigError` when the lint
    config no longer matches the tree."""
    index = ProjectIndex.build(paths, root or os.getcwd())
    check_config(index)
    return lint(index)

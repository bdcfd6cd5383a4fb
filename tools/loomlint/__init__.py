"""loomlint: Loom-specific static analysis.

Run as ``python -m tools.loomlint src/`` from the repository root.
See :mod:`tools.loomlint.config` for the rule registry,
:mod:`tools.loomlint.index` for the project index every rule shares, and
:mod:`tools.loomlint.concurrency` / :mod:`tools.loomlint.borrows` for the
two rule modules.
"""

from .index import Finding, ProjectIndex
from .linter import ConfigError, LintResult, lint, run

__all__ = ["ConfigError", "Finding", "LintResult", "ProjectIndex", "lint", "run"]

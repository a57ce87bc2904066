"""Static invariant linter for the reproduction (``repro.analysis.lint``).

The repository's correctness rests on invariants that ordinary linters do not
know about: message fates and RNG fork labels must be order- and
composition-independent, and ``RoundMetrics`` may only move through the
accounting layer.  This package enforces them *statically* -- at review
time, on every PR -- with an AST-based checker framework
(:mod:`repro.analysis.lint.framework`), inline reviewed waivers that fail the
build when they go stale or name no rule
(:mod:`repro.analysis.lint.waivers`), and five project-specific rules:

========  ==================================================================
RL001     nondeterminism sources (``random.*``, wall clocks, ``os.urandom``,
          global ``numpy.random``, ``id()``-keyed ordering)
RL002     unordered-iteration hazards (set iteration without ``sorted``)
RL004     metrics accounting (no direct ``RoundMetrics`` field writes
          outside the accounting layer)
RL005     RNG fork-label discipline (literal, canonical ``area:purpose``,
          globally unique)
RL009     docstring discipline (public serving/session surface documented,
          query methods cross-referencing their DESIGN.md section)
RL090/91  malformed or orphan / stale waiver comments
RL000     unreadable / unparsable file (syntax error)
========  ==================================================================

Cache invalidation and worker-state independence are tested on behaviour,
not linted (DESIGN.md §10).

Run it as ``python -m repro.cli lint [--format json|github] [--select
CODES] [--waiver-report]``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.lint.checkers import default_checkers
from repro.analysis.lint.diagnostics import Diagnostic, LintReport
from repro.analysis.lint.framework import (
    Checker,
    SourceFile,
    iter_source_files,
    load_source,
    run_lint,
)
from repro.analysis.lint.waivers import Waiver, collect_waivers

#: The default target of a bare ``repro.cli lint`` invocation.
DEFAULT_PATHS = ("src/repro",)


def lint_paths(
    paths: Sequence[str] | None = None,
    select: Sequence[str] | None = None,
) -> LintReport:
    """Run every registered checker (or the ``select`` subset) over ``paths``."""
    return run_lint(list(paths or DEFAULT_PATHS), default_checkers(), select=select)


def waiver_inventory(paths: Sequence[str] | None = None) -> list[Waiver]:
    """Every well-formed waiver comment under ``paths``, in file/line order.

    The audit view behind ``repro.cli lint --waiver-report``: as the rule set
    grows, the reviewed exceptions stay enumerable in one place (malformed
    waivers are RL090 findings of a normal lint run, not listed here).
    """
    waivers: list[Waiver] = []
    for path in iter_source_files(list(paths or DEFAULT_PATHS)):
        source, _parse_error = load_source(path)
        if source is None:
            continue
        file_waivers, _malformed = collect_waivers(source.path, source.text)
        waivers.extend(file_waivers)
    return waivers


__all__ = [
    "DEFAULT_PATHS",
    "Checker",
    "Diagnostic",
    "LintReport",
    "SourceFile",
    "Waiver",
    "collect_waivers",
    "default_checkers",
    "iter_source_files",
    "lint_paths",
    "load_source",
    "run_lint",
    "waiver_inventory",
]

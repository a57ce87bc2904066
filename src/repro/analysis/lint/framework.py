"""Checker framework: source loading, AST visiting, and run orchestration.

The linter is deliberately *static*: every checker reads the AST (plus the
raw text for waiver comments) and nothing ever imports or executes the code
under analysis, so a lint run is safe on broken branches and costs
milliseconds per file.  Checkers come in two granularities:

* **per-file** -- override :meth:`Checker.check`; called once per parsed
  source file (RL001, RL002, RL004), and
* **cross-module** -- override :meth:`Checker.check_project`; called once
  with every parsed file, for invariants no single file can witness (RL005
  global fork-label uniqueness, the whole-program rules RL006 and RL008).

:func:`run_lint` wires it together: discover files, parse, run the selected
checkers, then fold in the waiver layer (:mod:`repro.analysis.lint.waivers`)
so suppressed findings stay recorded and stale waivers fail the run.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.analysis.lint.diagnostics import Diagnostic, LintReport
from repro.analysis.lint.waivers import apply_waivers, collect_waivers

#: Reported when a file cannot be read or parsed at all.
PARSE_ERROR = "RL000"


@dataclass
class SourceFile:
    """One parsed source file handed to the checkers."""

    path: str  # Display path (as discovered, normalized to forward slashes).
    text: str
    tree: ast.Module

    def suffix_matches(self, suffix: str) -> bool:
        """Whether the display path ends with ``suffix`` (segment-aligned)."""
        normalized = self.path.replace(os.sep, "/")
        return normalized == suffix or normalized.endswith("/" + suffix)


class Checker:
    """Base class: one rule code, checked per file and/or across the project."""

    code: str = "RLXXX"
    name: str = "unnamed"
    description: str = ""

    def check(self, source: SourceFile) -> Iterable[Diagnostic]:
        """Per-file findings (default: none)."""
        return ()

    def check_project(self, sources: Sequence[SourceFile]) -> Iterable[Diagnostic]:
        """Cross-module findings over every linted file (default: none)."""
        return ()

    def diagnostic(self, source: SourceFile, node: ast.AST, message: str) -> Diagnostic:
        """A finding anchored at an AST node (1-based line, 1-based column)."""
        return Diagnostic(source.path, node.lineno, node.col_offset + 1, self.code, message)


def iter_source_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` file paths."""
    found: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                found.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        elif path.endswith(".py"):
            found.append(path)
    return sorted(dict.fromkeys(name.replace(os.sep, "/") for name in found))


def load_source(path: str) -> tuple[SourceFile | None, Diagnostic | None]:
    """Read and parse one file; any failure becomes an RL000 diagnostic.

    A broken file must never take the whole run down with a traceback: a
    syntax error, an undecodable byte sequence, a null byte, or an unreadable
    path each produce one ``RL000 path:line:col syntax error`` finding (exit
    1) and the run continues over the remaining files.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        tree = ast.parse(text, filename=path)
    except SyntaxError as error:
        return None, Diagnostic(
            path,
            error.lineno or 1,
            error.offset or 1,
            PARSE_ERROR,
            f"syntax error: {error.msg}",
        )
    except (UnicodeDecodeError, ValueError, OSError) as error:
        # ValueError covers null bytes, which ast.parse rejects pre-parse.
        return None, Diagnostic(path, 1, 1, PARSE_ERROR, f"syntax error: {error}")
    return SourceFile(path=path, text=text, tree=tree), None


def run_lint(
    paths: Sequence[str],
    checkers: Sequence[Checker],
    select: Sequence[str] | None = None,
) -> LintReport:
    """Run ``checkers`` (optionally filtered to ``select`` codes) over ``paths``."""
    if select:
        selected = tuple(code.strip().upper() for code in select if code.strip())
        active_checkers = [checker for checker in checkers if checker.code in selected]
        unknown = sorted(set(selected) - {checker.code for checker in checkers})
        if unknown:
            raise ValueError(f"unknown checker code(s): {', '.join(unknown)}")
    else:
        active_checkers = list(checkers)
        selected = tuple(checker.code for checker in checkers)

    report = LintReport(selected=selected)
    diagnostics: list[Diagnostic] = []
    waivers = []
    sources: list[SourceFile] = []
    for path in iter_source_files(paths):
        source, parse_error = load_source(path)
        report.files_checked += 1
        if parse_error is not None:
            diagnostics.append(parse_error)
            continue
        sources.append(source)
        file_waivers, malformed = collect_waivers(source.path, source.text)
        waivers.extend(file_waivers)
        diagnostics.extend(malformed)
        for checker in active_checkers:
            diagnostics.extend(checker.check(source))
    for checker in active_checkers:
        diagnostics.extend(checker.check_project(sources))

    validated = {checker.code for checker in active_checkers}
    report.diagnostics = apply_waivers(diagnostics, waivers, validated)
    return report.finalize()

"""Inline waivers: reviewed, reasoned suppressions that cannot go stale.

A waiver is a comment of the form::

    risky_call()  # repro-lint: waive[RL001] -- wall-clock display only

or, standing alone on the line *above* the finding it suppresses::

    # repro-lint: waive[RL001,RL002] -- seeded entropy fallback
    risky_call()

Four properties keep waivers honest, all enforced here:

* **A reason is mandatory.**  ``waive[RL001]`` with no ``-- reason`` is a
  malformed waiver (``RL090``): the comment exists to record a reviewed
  decision, and a decision without a rationale is not reviewable.
* **A waiver names registered rules.**  ``waive[RL077]`` when no checker
  has the code ``RL077`` is malformed too (``RL090``), whatever ``--select``
  says: such a waiver can never be used, and it would otherwise never be
  judged stale either.
* **Waivers are validated as still-needed.**  A waiver whose codes match no
  diagnostic on its target line is *stale* (``RL091``) and fails the run:
  when the underlying finding is fixed, the waiver must be deleted with it,
  so suppressions never outlive their reason.
* **Waivers are per-line and per-code.**  A waiver only suppresses the codes
  it names, only on the line it targets -- there is no file-wide or blanket
  waiver form, by design.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.analysis.lint.diagnostics import Diagnostic

#: Matches the waiver comment body.  The codes group is parsed leniently so a
#: malformed list can be reported as RL090 rather than silently ignored.
WAIVER_RE = re.compile(
    r"#\s*repro-lint:\s*waive\[(?P<codes>[^\]]*)\]\s*(?:--\s*(?P<reason>.*\S)\s*)?$"
)

#: Anything that merely *mentions* the marker, used to catch typo'd waivers
#: (e.g. ``waive(RL001)``) that WAIVER_RE would not match.
MARKER_RE = re.compile(r"#\s*repro-lint:")

CODE_RE = re.compile(r"^RL\d{3}$")

MALFORMED_WAIVER = "RL090"
STALE_WAIVER = "RL091"


@dataclass
class Waiver:
    """One parsed waiver comment."""

    path: str
    comment_line: int
    target_line: int
    col: int
    codes: tuple[str, ...]
    reason: str
    #: Codes that suppressed at least one diagnostic (filled during matching).
    used_codes: set = field(default_factory=set)


def collect_waivers(path: str, source: str) -> tuple[list[Waiver], list[Diagnostic]]:
    """Parse every waiver comment in ``source``.

    Returns the well-formed waivers plus RL090 diagnostics for malformed
    ones.  A comment that has code before it on its line targets that line; a
    comment alone on its line targets the next line.
    """
    waivers: list[Waiver] = []
    malformed: list[Diagnostic] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return [], []  # The framework reports unparsable files separately.
    for token in tokens:
        if token.type != tokenize.COMMENT or not MARKER_RE.search(token.string):
            continue
        line_number, col = token.start
        standalone = not token.line[: col].strip()
        target_line = line_number + 1 if standalone else line_number
        match = WAIVER_RE.search(token.string)
        if match is None:
            malformed.append(
                Diagnostic(
                    path,
                    line_number,
                    col + 1,
                    MALFORMED_WAIVER,
                    "malformed repro-lint comment: expected "
                    "'# repro-lint: waive[CODE] -- reason'",
                )
            )
            continue
        codes = tuple(code.strip() for code in match.group("codes").split(",") if code.strip())
        reason = match.group("reason")
        bad_codes = [code for code in codes if not CODE_RE.match(code)]
        if not codes or bad_codes:
            malformed.append(
                Diagnostic(
                    path,
                    line_number,
                    col + 1,
                    MALFORMED_WAIVER,
                    f"waiver names no valid RLxxx codes: {match.group('codes')!r}",
                )
            )
            continue
        if not reason:
            malformed.append(
                Diagnostic(
                    path,
                    line_number,
                    col + 1,
                    MALFORMED_WAIVER,
                    f"waiver for {', '.join(codes)} is missing its '-- reason'",
                )
            )
            continue
        waivers.append(Waiver(path, line_number, target_line, col + 1, codes, reason))
    return waivers, malformed


def apply_waivers(
    diagnostics: list[Diagnostic],
    waivers: list[Waiver],
    validated_codes: set,
    registered_codes: set,
) -> list[Diagnostic]:
    """Suppress waived diagnostics and report stale and orphan waivers.

    ``validated_codes`` is the set of checker codes that actually ran (the
    ``--select`` filter): a waiver naming only codes outside it cannot be
    judged stale, because its checker never looked.  ``registered_codes``
    is every checker's code: a waiver naming a code outside it is an RL090
    finding whichever checkers ran.
    """
    by_location: dict[tuple[str, int], list[Waiver]] = {}
    for waiver in waivers:
        by_location.setdefault((waiver.path, waiver.target_line), []).append(waiver)

    result: list[Diagnostic] = []
    for diagnostic in diagnostics:
        matched = None
        for waiver in by_location.get((diagnostic.path, diagnostic.line), []):
            if diagnostic.code in waiver.codes:
                matched = waiver
                break
        if matched is not None:
            matched.used_codes.add(diagnostic.code)
            result.append(
                Diagnostic(
                    diagnostic.path,
                    diagnostic.line,
                    diagnostic.col,
                    diagnostic.code,
                    diagnostic.message,
                    waived=True,
                    waiver_reason=matched.reason,
                )
            )
        else:
            result.append(diagnostic)

    for waiver in waivers:
        orphans = [code for code in waiver.codes if code not in registered_codes]
        if orphans:
            result.append(
                Diagnostic(
                    waiver.path,
                    waiver.comment_line,
                    waiver.col,
                    MALFORMED_WAIVER,
                    f"waiver names no registered rule: {', '.join(orphans)}",
                )
            )
        judged = [code for code in waiver.codes if code in validated_codes]
        unused = [code for code in judged if code not in waiver.used_codes]
        if judged and unused:
            result.append(
                Diagnostic(
                    waiver.path,
                    waiver.comment_line,
                    waiver.col,
                    STALE_WAIVER,
                    f"stale waiver: no {', '.join(unused)} finding on line "
                    f"{waiver.target_line}; delete the waiver or the code it excused",
                )
            )
    return result

"""RL004: metrics-accounting discipline.

``RoundMetrics`` counters are the *results* of this reproduction -- every
theorem check and every regression gate reads them -- and their integrity
rests on one rule: all mutation flows through the accounting layer
(``charge_local`` / ``charge_global`` / ``record_global_traffic`` / ...), so
that scoped observers, ambient observers, and per-phase breakdowns see every
charge exactly once.  A direct field write (``metrics.global_rounds += 2``)
bypasses the scope mirroring: the top-level totals move while every open
scope silently misses the charge -- the worst kind of accounting bug, because
nothing crashes.

RL004 flags any assignment or augmented assignment to an attribute named
like a ``RoundMetrics`` counter field outside the accounting layer itself:
``hybrid/metrics.py`` (where the mutation methods live) and the engine
(``hybrid/network.py``), the owner of round/traffic accounting.  Subscript writes through
the ``phases`` / ``cut_bits`` mapping fields are flagged the same way.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.framework import Checker, SourceFile

#: Scalar counter fields of RoundMetrics (and PhaseBreakdown's two).
COUNTER_FIELDS = frozenset(
    {
        "local_rounds",
        "global_rounds",
        "global_messages",
        "global_bits",
        "max_sent_per_round",
        "max_received_per_round",
        "receive_cap_violations",
        "global_dropped",
        "global_retried",
    }
)

#: Mapping fields whose entries may only be written by the accounting layer.
MAPPING_FIELDS = frozenset({"phases", "cut_bits"})

#: The accounting layer: the only files allowed to mutate counter fields.
ALLOWED_SUFFIXES = (
    "repro/hybrid/metrics.py",
    "repro/hybrid/network.py",
)


class MetricsAccountingChecker(Checker):
    code = "RL004"
    name = "metrics-accounting"
    description = "RoundMetrics counters mutated outside the accounting layer"

    def check(self, source: SourceFile) -> Iterable[Diagnostic]:
        if any(source.suffix_matches(suffix) for suffix in ALLOWED_SUFFIXES):
            return
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    diagnostic = self._check_target(source, target)
                    if diagnostic is not None:
                        yield diagnostic

    def _check_target(self, source: SourceFile, target: ast.AST) -> Diagnostic | None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                diagnostic = self._check_target(source, element)
                if diagnostic is not None:
                    return diagnostic
            return None
        if isinstance(target, ast.Attribute) and target.attr in COUNTER_FIELDS:
            return self.diagnostic(
                source,
                target,
                f"direct write to RoundMetrics field {target.attr!r}; route the "
                "charge through the accounting layer (charge_local/charge_global/"
                "record_global_traffic/merge) so scoped observers see it",
            )
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr in MAPPING_FIELDS
        ):
            return self.diagnostic(
                source,
                target,
                f"direct write into RoundMetrics.{target.value.attr}; phase and "
                "cut-bit entries are owned by the accounting layer",
            )
        return None

"""The benchmark regression gate: diff fresh records against baselines.

``BENCH_core.json`` (one record per benchmark: wall time plus the simulated
round counts and traffic the paper is about) and the sweep engine's
``manifest.json`` are both machine-readable; this module turns them from logs
into enforceable contracts:

* **Round counts are exact.**  Every simulation is deterministic at fixed
  seeds, so any change in a ``*rounds*`` metric is a real behavioural change
  and fails the gate outright.
* **Wall-clock is judged against the parent commit on the same machine**
  with a relative tolerance (default ±25%).  The committed baseline was
  recorded on another machine, so its wall times say nothing about this
  one.  Instead the caller runs the benchmarks on the parent commit and on
  the change, several times each and alternating which goes first, and
  each record's median wall time over the change's runs must stay within
  the tolerance of its median over the parent's runs (:func:`median_walls`).
  Without parent runs no wall time is gated.  Normalising by the median
  ratio across records instead would let a change that speeds up most
  records fail records whose own time did not move.  Records whose parent
  wall time is below ``min_wall_seconds`` (default 50ms) are exempt from the
  wall-clock check only: timer jitter at that scale routinely exceeds any
  honest tolerance, and such micro-benchmarks remain fully gated through
  their exact round counts.
* **Everything else deterministic** (message counts, skeleton sizes, ...) is
  reported as drift but does not fail the gate, keeping the contract exactly
  "round counts exact against the baseline, wall-clock within tolerance of
  the parent".

Sweep manifests are fully deterministic, so their comparison is exact on the
per-shard payload hashes.

``python -m repro.cli regress`` is the command-line entry point; CI's
``bench-regression`` job runs ``pytest benchmarks/`` three times on the
merge-base and three times on the head, alternating which goes first
(parent, head, head, parent, parent, head), and fails the build when
:attr:`RegressionReport.status` is ``"fail"``.
"""

from __future__ import annotations

import json
import statistics
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

#: Metric keys ignored entirely (identity / free-form, not measurements).
_IDENTITY_KEYS = {"name", "group", "note", "notes"}


def is_wall_clock_metric(key: str) -> bool:
    """Wall-clock metrics get the relative tolerance."""
    return "wall" in key or key.endswith("seconds")


def is_round_count_metric(key: str) -> bool:
    """Round-count metrics must match exactly."""
    return "rounds" in key


@dataclass
class Violation:
    """One tolerance violation (the machine-readable failure unit)."""

    record: str
    metric: str
    kind: str  # "round-count" | "wall-clock" | "missing-record" | "missing-metric" | "shard"
    baseline: object = None
    current: object = None
    message: str = ""

    def as_dict(self) -> dict[str, object]:
        return {
            "record": self.record,
            "metric": self.metric,
            "kind": self.kind,
            "baseline": self.baseline,
            "current": self.current,
            "message": self.message,
        }


@dataclass
class RegressionReport:
    """Machine-readable pass/fail verdict of one baseline comparison."""

    kind: str  # "benchmarks" | "manifest"
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    checked_records: int = 0
    checked_metrics: int = 0
    wall_tolerance: float = 0.25
    min_wall_seconds: float = 0.05

    @property
    def status(self) -> str:
        return "fail" if self.violations else "pass"

    def as_dict(self) -> dict[str, object]:
        return {
            "status": self.status,
            "kind": self.kind,
            "checked_records": self.checked_records,
            "checked_metrics": self.checked_metrics,
            "wall_tolerance": self.wall_tolerance,
            "min_wall_seconds": self.min_wall_seconds,
            "violations": [violation.as_dict() for violation in self.violations],
            "notes": self.notes,
        }

    def format_text(self) -> str:
        """Human-readable report (the CLI prints this)."""
        lines = [
            f"regression gate [{self.kind}]: {self.status.upper()} "
            f"({self.checked_records} records, {self.checked_metrics} metrics checked)"
        ]
        for violation in self.violations:
            lines.append(
                f"  VIOLATION [{violation.kind}] {violation.record} :: {violation.metric}: "
                f"baseline={violation.baseline!r} current={violation.current!r} "
                f"{violation.message}"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _numeric(value: object) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def median_walls(runs: Sequence[Sequence[dict[str, object]]]) -> list[dict[str, object]]:
    """Several runs of the same benchmarks as one record list.

    Every wall-clock metric becomes its median over the runs that recorded
    it; every other field is the first run's (they are deterministic).
    """
    merged: dict[str, dict[str, object]] = {}
    walls: dict[tuple[str, str], list[float]] = {}
    for records in runs:
        for record in records:
            name = str(record["name"])
            merged.setdefault(name, dict(record))
            for key, seconds in _wall_metrics(record):
                walls.setdefault((name, key), []).append(seconds)
    for (name, key), values in walls.items():
        merged[name][key] = statistics.median(values)
    return list(merged.values())


def _wall_metrics(record: dict[str, object]) -> Iterable[tuple[str, float]]:
    """A record's positive wall-clock metrics (smoke runs record null)."""
    for key, value in record.items():
        seconds = _numeric(value)
        if is_wall_clock_metric(key) and seconds and seconds > 0:
            yield key, seconds


def compare_benchmarks(
    baseline_records: Sequence[dict[str, object]],
    current_records: Sequence[dict[str, object]],
    wall_tolerance: float = 0.25,
    min_wall_seconds: float = 0.05,
    parent_records: Sequence[dict[str, object]] | None = None,
) -> RegressionReport:
    """Diff fresh records against the baseline and, for wall time, the parent.

    Round counts (and the drift notes) compare ``current_records`` with the
    committed ``baseline_records``.  Wall-clock metrics compare them with
    ``parent_records``, the same benchmarks run on the parent commit on the
    same machine (pass :func:`median_walls` of several runs on each side);
    with no parent records, wall time is not gated.
    """
    report = RegressionReport(
        kind="benchmarks", wall_tolerance=wall_tolerance, min_wall_seconds=min_wall_seconds
    )
    baseline = {record["name"]: record for record in baseline_records}
    current = {record["name"]: record for record in current_records}

    for name in sorted(set(current) - set(baseline)):
        report.notes.append(f"new record (not in baseline, unchecked): {name}")
    for name in sorted(set(baseline) - set(current)):
        report.violations.append(
            Violation(name, "-", "missing-record", message="record absent from current run")
        )

    for name in sorted(set(baseline) & set(current)):
        report.checked_records += 1
        base_record, current_record = baseline[name], current[name]
        for key, base_value in base_record.items():
            if key in _IDENTITY_KEYS or is_wall_clock_metric(key):
                continue
            if key not in current_record:
                report.violations.append(
                    Violation(name, key, "missing-metric", base_value, None,
                              message="metric absent from current record")
                )
                continue
            current_value = current_record[key]
            report.checked_metrics += 1
            if is_round_count_metric(key):
                if base_value != current_value:
                    report.violations.append(
                        Violation(name, key, "round-count", base_value, current_value,
                                  message="round counts must match the baseline exactly")
                    )
            elif base_value != current_value:
                report.notes.append(
                    f"drift (informational): {name} :: {key} "
                    f"{base_value!r} -> {current_value!r}"
                )

    if parent_records is None:
        report.notes.append("wall-clock unchecked: no same-machine parent runs given")
        return report
    parent = {record["name"]: record for record in parent_records}
    for name in sorted(set(parent) & set(current)):
        current_walls = dict(_wall_metrics(current[name]))
        for key, parent_t in _wall_metrics(parent[name]):
            cur_t = current_walls.get(key)
            if cur_t is None or parent_t < min_wall_seconds:
                continue  # micro-benchmark: jitter dominates; rounds still gate it
            report.checked_metrics += 1
            ratio = cur_t / parent_t
            if ratio > 1.0 + wall_tolerance:
                report.violations.append(
                    Violation(
                        name, key, "wall-clock", parent_t, cur_t,
                        message=f"median ratio to the parent {ratio:.2f} exceeds "
                                f"1+{wall_tolerance:.2f}",
                    )
                )
            elif ratio < 1.0 - wall_tolerance:
                report.notes.append(f"improvement: {name} :: {key} median ratio {ratio:.2f}")
    return report


def compare_manifests(
    baseline_manifest: dict[str, object], current_manifest: dict[str, object]
) -> RegressionReport:
    """Diff two sweep-engine manifests: exact on per-shard payload hashes."""
    report = RegressionReport(kind="manifest", wall_tolerance=0.0)
    baseline = dict(baseline_manifest.get("shards", {}))
    current = dict(current_manifest.get("shards", {}))
    for key in sorted(set(current) - set(baseline)):
        report.notes.append(f"new shard (not in baseline, unchecked): {key}")
    for key in sorted(set(baseline) - set(current)):
        report.violations.append(
            Violation(key, "-", "shard", message="shard absent from current manifest")
        )
    for key in sorted(set(baseline) & set(current)):
        report.checked_records += 1
        report.checked_metrics += 1
        base_hash = baseline[key].get("payload_hash")
        current_hash = current[key].get("payload_hash")
        if base_hash != current_hash:
            report.violations.append(
                Violation(key, "payload_hash", "shard", base_hash, current_hash,
                          message="shard payload diverged from the baseline manifest")
            )
    return report


def load_json(path) -> object:
    """Load one baseline/current file (explicit errors beat tracebacks)."""
    return json.loads(Path(path).read_text())


def run_regression(
    baseline_path,
    current_paths: Sequence,
    parent_paths: Sequence = (),
    wall_tolerance: float = 0.25,
    min_wall_seconds: float = 0.05,
) -> RegressionReport:
    """Compare files, auto-detecting benchmark records vs sweep manifests.

    ``current_paths`` are one or more runs of the change and
    ``parent_paths`` zero or more runs of the parent commit on the same
    machine; each side's wall times are its per-record medians.  A sweep
    manifest is deterministic, so it takes exactly one current file and no
    parent.
    """
    baseline = load_json(baseline_path)
    currents = [load_json(path) for path in current_paths]
    parents = [load_json(path) for path in parent_paths]
    if not currents:
        raise ValueError("no current file given")
    baseline_is_manifest = isinstance(baseline, dict) and "shards" in baseline
    if any((isinstance(run, dict) and "shards" in run) != baseline_is_manifest for run in currents):
        raise ValueError(
            "baseline and current files have different formats "
            "(one is a sweep manifest, the other a benchmark record list)"
        )
    if baseline_is_manifest:
        if len(currents) > 1 or parents:
            raise ValueError("a sweep manifest is compared with exactly one current manifest")
        return compare_manifests(baseline, currents[0])
    if not all(isinstance(run, list) for run in [baseline, *currents, *parents]):
        raise ValueError("benchmark records must be JSON lists of objects with a 'name'")
    return compare_benchmarks(
        baseline,
        median_walls(currents),
        wall_tolerance=wall_tolerance,
        min_wall_seconds=min_wall_seconds,
        parent_records=median_walls(parents) if parents else None,
    )

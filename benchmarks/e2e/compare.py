"""Compare two sets of benchmark runs: ``python -m benchmarks.e2e.compare A B``.

``A`` and ``B`` are directories of result files written by
``python -m benchmarks.e2e.run --out DIR`` -- typically the parent commit and
the change, several seeds each.  For every workload and metric it prints each
side's median and quartiles and one verdict:

* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``improved`` -- B wins at least nine tenths of the runs paired by seed and
  its median beats A's by more than A's own quartile spread;
* ``unresolved`` -- either side's quartile spread exceeds the bound, and
  neither side beats every run of the other;
* ``unchanged`` -- none of these.

Bounds are those of ``BENCHMARK.json`` for the gated metrics and
:data:`~benchmarks.e2e.run.DETAIL` for the per-operation ones; a bound of 0
marks an exact count, where any difference decides.  Per-layer metrics of
traced runs are printed without a verdict: they have no bound.  The exit
code is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from benchmarks.e2e.run import DETAIL, load_benchmark


def load(directory: Path) -> tuple[dict, dict]:
    """(untraced, traced) records: workload -> seed -> record."""
    untraced: dict[str, dict[int, dict]] = {}
    traced: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        side = traced if record["trace"] else untraced
        side.setdefault(record["workload"], {})[record["seed"]] = record
    return untraced, traced


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def verdict(a: dict[int, float], b: dict[int, float], better: str, bound: float) -> str:
    """The verdict for one metric given each side's value per seed."""
    sign = 1.0 if better == "lower" else -1.0
    a_values, b_values = list(a.values()), list(b.values())
    qa, qb = quartiles(a_values), quartiles(b_values)
    pairs = [(a[seed], b[seed]) for seed in a if seed in b]
    if bound == 0:
        if pairs and all(x == y for x, y in pairs):
            return "unchanged"
        worse = sign * (qb[1] - qa[1])
        return "regressed" if worse > 0 else "improved" if worse < 0 else "unresolved"
    change = sign * (qb[1] - qa[1]) / (abs(qa[1]) or 1.0)
    spread_a = (qa[2] - qa[0]) / (abs(qa[1]) or 1.0)
    spread_b = (qb[2] - qb[0]) / (abs(qb[1]) or 1.0)
    if max(spread_a, spread_b) > bound:
        if all(sign * (y - x) < 0 for x in a_values for y in b_values):
            return "improved"
        if change > bound and all(sign * (y - x) > 0 for x in a_values for y in b_values):
            return "regressed"
        return "unresolved"
    if change > bound:
        return "regressed"
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and -change > spread_a:
        return "improved"
    return "unchanged"


def _cell(values: list[float]) -> str:
    first, median, third = quartiles(values)
    return f"{median:12.6g} [{first:.4g}, {third:.4g}]"


def compare(a_dir: Path, b_dir: Path) -> tuple[list[str], bool]:
    """The report lines and whether anything regressed."""
    benchmark = load_benchmark()
    specs = {
        entry["name"]: (entry["unit"], entry["better"], entry["bound"])
        for entry in benchmark["end_to_end"]
    }
    specs.update(DETAIL)
    layer_units = {entry["name"]: entry["unit"] for entry in benchmark["per_layer"]}
    a_runs, a_traced = load(a_dir)
    b_runs, b_traced = load(b_dir)
    lines = [
        f"{'workload':16s} {'metric':32s} {'unit':6s} "
        f"{'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} {'change':>8s}  verdict"
    ]
    regressed = False
    for workload in sorted(a_runs.keys() & b_runs.keys()):
        for group in ("end_to_end", "detail"):
            records = [*a_runs[workload].values(), *b_runs[workload].values()]
            names = set.intersection(*(set(record[group]) for record in records))
            for name in sorted(names, key=list(specs).index):
                a = {seed: r[group][name] for seed, r in a_runs[workload].items()}
                b = {seed: r[group][name] for seed, r in b_runs[workload].items()}
                unit, better, bound = specs[name]
                outcome = verdict(a, b, better, bound)
                regressed |= outcome == "regressed"
                lines.append(_row(workload, name, unit, a, b) + f"  {outcome}")
    for workload in sorted(a_traced.keys() & b_traced.keys()):
        for name, unit in layer_units.items():
            a = {seed: r["per_layer"][name] for seed, r in a_traced[workload].items()}
            b = {seed: r["per_layer"][name] for seed, r in b_traced[workload].items()}
            lines.append(_row(workload, name, unit, a, b) + "  (per layer)")
    return lines, regressed


def _row(workload: str, name: str, unit: str, a: dict, b: dict) -> str:
    a_median = quartiles(list(a.values()))[1]
    b_median = quartiles(list(b.values()))[1]
    change = f"{(b_median - a_median) / abs(a_median):+8.1%}" if a_median else f"{'':8s}"
    return (
        f"{workload:16s} {name:32s} {unit:6s} "
        f"{_cell(list(a.values())):>34s} {_cell(list(b.values())):>34s} {change}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="directory of the baseline's result files")
    parser.add_argument("b", type=Path, help="directory of the candidate's result files")
    args = parser.parse_args(argv)
    lines, regressed = compare(args.a, args.b)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

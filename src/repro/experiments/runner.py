"""Experiment registry, shard decomposition and result containers.

An *experiment* is a named, parameterised sweep that reproduces one artefact of
the paper (a theorem's round bound, a lemma's structural property, a lower
bound construction).  Each experiment is registered as a :class:`Sweep`: a
*plan* that decomposes the sweep into independent shards (one graph family /
parameter point each), a *shard runner* that executes one shard and returns a
JSON-serialisable payload, and a *finalizer* that assembles the payloads into
an :class:`ExperimentTable`.  The CLI (``python -m repro.cli``) renders tables
as markdown (the experiment index is DESIGN.md §5), so the whole evaluation
can be regenerated with one command; the process-parallel engine
(:mod:`repro.experiments.engine`) executes the same shards across a worker
pool and persists each one to an artifact store, so serial and parallel runs
are bit-identical by construction.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.analysis.report import format_markdown_table

#: The sweep sizes every experiment supports, in increasing cost order:
#: ``small`` (seconds; the test suite and CI), ``medium`` (the reporting
#: scale of the DESIGN.md §5 experiments) and ``large`` (offline only; used
#: by the E14 multi-query amortization sweep).  Single source of truth --
#: the CLI's ``--scale`` choices and the runner's validation both read it.
SCALES = ("small", "medium", "large")


@dataclass
class ExperimentTable:
    """One experiment's regenerated table.

    Attributes
    ----------
    experiment_id:
        Identifier from the DESIGN.md index (``E1`` ... ``E14``).
    title:
        Human-readable description including the paper artefact it reproduces.
    headers / rows:
        The tabular results.
    notes:
        Free-form remarks (what the paper predicts, how to read the columns).
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence[object]]
    notes: list[str] = field(default_factory=list)

    def to_markdown(self) -> str:
        """Render the experiment as a markdown section."""
        lines = [f"### {self.experiment_id} — {self.title}", ""]
        lines.append(format_markdown_table(self.headers, self.rows))
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"- {note}")
        return "\n".join(lines)


@dataclass
class ShardPlan:
    """One independently executable unit of a sweep.

    Attributes
    ----------
    family:
        Graph family / parameter-point label, e.g. ``"locality-n64"``.  Unique
        within one experiment+scale; the artifact store uses it in file names.
    seed:
        The canonical seed this shard runs under (the built-in seed that
        reproduces the committed tables).  Replica trials (``--trials``)
        replace it with a ``numpy.random.SeedSequence``-spawned seed.
    params:
        JSON-serialisable keyword parameters for the sweep's shard runner.
    """

    family: str
    seed: int
    params: dict[str, object] = field(default_factory=dict)


#: ``run_shard(scale, seed, params) -> payload``.  The payload must be
#: JSON-serialisable (the artifact store round-trips it); by convention the
#: row-parallel sweeps return a list of table rows.
ShardRunner = Callable[[str, int, dict[str, object]], object]
PlanFunction = Callable[[str], list[ShardPlan]]
FinalizeFunction = Callable[[str, list[object]], ExperimentTable]


@dataclass
class Sweep:
    """A registered experiment: shard decomposition + execution + assembly."""

    experiment_id: str
    plan: PlanFunction
    run_shard: ShardRunner
    finalize: FinalizeFunction
    #: Whether replica trials with engine-spawned seeds are meaningful (the
    #: shard runner genuinely derives its randomness from the ``seed`` input).
    reseedable: bool = False

    def shard_plans(self, scale: str) -> list[ShardPlan]:
        """The shard decomposition at the given scale."""
        if scale not in SCALES:
            raise ValueError(f"scale must be one of {', '.join(repr(s) for s in SCALES)}")
        return self.plan(scale)

    def table(self, scale: str) -> ExperimentTable:
        """Run every shard serially, in plan order, and assemble the table.

        This is the serial path the CLI's ``run`` / ``run-all`` use; the
        engine's ``--jobs 1`` executes exactly the same shard functions, so
        the two are bit-identical by construction.
        """
        payloads = [
            self.run_shard(scale, plan.seed, dict(plan.params))
            for plan in self.shard_plans(scale)
        ]
        return self.finalize(scale, payloads)


#: Filled by ``register_sweep`` at import; worker processes only read it.
_REGISTRY: dict[str, Sweep] = {}


def register_sweep(
    experiment_id: str,
    *,
    plan: PlanFunction,
    finalize: FinalizeFunction,
    reseedable: bool = False,
) -> Callable[[ShardRunner], ShardRunner]:
    """Decorator registering a sharded sweep under its DESIGN.md identifier.

    The decorated function is the shard runner; ``plan`` and ``finalize``
    complete the :class:`Sweep`.
    """

    def decorator(run_shard: ShardRunner) -> ShardRunner:
        key = experiment_id.upper()
        if key in _REGISTRY:
            raise ValueError(f"experiment {key} registered twice")
        _REGISTRY[key] = Sweep(key, plan, run_shard, finalize, reseedable)
        return run_shard

    return decorator


def unregister(experiment_id: str) -> None:
    """Remove a registered sweep (test support for temporary registrations)."""
    _REGISTRY.pop(experiment_id.upper(), None)


def available_experiments() -> list[str]:
    """Sorted list of registered experiment identifiers."""
    return sorted(_REGISTRY, key=lambda key: (len(key), key))


def get_sweep(experiment_id: str) -> Sweep:
    """The registered :class:`Sweep` for an identifier (case-insensitive)."""
    key = experiment_id.upper()
    if key not in _REGISTRY:
        # Worker processes started with the ``spawn`` method import this
        # module without going through ``repro.experiments``; pull in the
        # sweep definitions lazily so the registry is populated either way.
        import repro.experiments.sweeps  # noqa: F401

    if key not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(available_experiments())}"
        )
    return _REGISTRY[key]


def run_experiment(experiment_id: str, scale: str = "small") -> ExperimentTable:
    """Run one experiment serially at the given scale (one of :data:`SCALES`)."""
    return get_sweep(experiment_id).table(scale)


def run_all(scale: str = "small") -> list[ExperimentTable]:
    """Run every registered experiment serially."""
    return [run_experiment(key, scale) for key in available_experiments()]


def flatten_rows(payloads: Sequence[object]) -> list[list[object]]:
    """Concatenate per-shard row lists in plan order (the common finalizer step)."""
    rows: list[list[object]] = []
    for payload in payloads:
        rows.extend(payload)
    return rows


def plain_table(
    experiment_id: str,
    title: str,
    headers: Sequence[str],
    notes: Sequence[str],
) -> FinalizeFunction:
    """A finalizer for sweeps whose payloads are row lists and whose headers
    and notes do not depend on the measured rows."""

    def finalize(scale: str, payloads: list[object]) -> ExperimentTable:
        return ExperimentTable(experiment_id, title, headers, flatten_rows(payloads), list(notes))

    return finalize

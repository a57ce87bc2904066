"""The experiment registry: programmatic re-generation of every experiment table.

The experiments are indexed in DESIGN.md §5.

``run_experiment("E2")`` reruns the corresponding sweep serially; ``run_all()``
rebuilds the whole evaluation.  The process-parallel, resumable path is
:mod:`repro.experiments.engine` (``plan_shards`` + ``ExperimentEngine`` +
``ArtifactStore``).  The command-line entry point is ``python -m repro.cli``.
"""

from repro.experiments import sweeps  # noqa: F401  (imports register the experiments)
from repro.experiments.engine import (
    ArtifactStore,
    EngineReport,
    ExperimentEngine,
    Shard,
    assemble_tables,
    execute_shard,
    plan_shards,
)
from repro.experiments.runner import (
    SCALES,
    ExperimentTable,
    ShardPlan,
    Sweep,
    available_experiments,
    get_sweep,
    register_sweep,
    run_all,
    run_experiment,
)

__all__ = [
    "SCALES",
    "ExperimentTable",
    "ShardPlan",
    "Sweep",
    "available_experiments",
    "get_sweep",
    "register_sweep",
    "run_all",
    "run_experiment",
    "ArtifactStore",
    "EngineReport",
    "ExperimentEngine",
    "Shard",
    "assemble_tables",
    "execute_shard",
    "plan_shards",
]

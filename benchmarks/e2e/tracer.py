"""Outside-in span tracer: wraps each layer's entry points without editing them.

:class:`Tracer` replaces the public functions and methods of every layer
module (:data:`LAYERS`) with timing wrappers.  A module function is replaced
under every name that holds it in ``sys.modules`` -- ``from x import f``
copies the reference into the importing module, so patching ``x`` alone
would miss those calls.  Methods are patched on their defining class.
:meth:`Tracer.uninstall` puts every original object back.

A span records its layer, name, parent span, thread, start, duration and
self time.  Self time is the duration minus the time covered by child spans
on the same thread.  Each thread keeps its own span stack, because the
serving layer runs its passes on an executor thread.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

#: Layer name -> the modules that make it up.
LAYERS: dict[str, tuple[str, ...]] = {
    "graphs": (
        "repro.graphs.graph",
        "repro.graphs.csr",
        "repro.graphs.compiled",
        "repro.graphs.skeleton_analysis",
    ),
    "hybrid": ("repro.hybrid.network", "repro.hybrid.batch", "repro.hybrid.compiled"),
    "localnet": (
        "repro.localnet.aggregation",
        "repro.localnet.clustering",
        "repro.localnet.flooding",
        "repro.localnet.ruling_set",
        "repro.localnet.token_dissemination",
    ),
    "core": (
        "repro.core.apsp",
        "repro.core.clique_simulation",
        "repro.core.context",
        "repro.core.diameter",
        "repro.core.helper_sets",
        "repro.core.kssp",
        "repro.core.representatives",
        "repro.core.skeleton",
        "repro.core.sssp",
        "repro.core.token_routing",
    ),
    "clique": (
        "repro.clique.apsp",
        "repro.clique.diameter",
        "repro.clique.model",
        "repro.clique.sssp",
    ),
    "session": ("repro.session",),
    "serving": ("repro.serving.batching", "repro.serving.protocol", "repro.serving.server"),
}

#: Constructors worth a span; every other ``__init__`` is a dataclass or a
#: small value object built thousands of times per query.
TRACED_INITS = {"HybridSession", "HybridNetwork", "HybridCliqueTransport", "TokenRouter"}

#: Private methods that are a layer's real entry point.
TRACED_PRIVATE = {"QueryServer._execute_group"}

#: Per-element accessors and mutators called in inner loops: a span each would
#: cost more than the call and tell nothing a caller's span does not.
UNTRACED = {
    "WeightedGraph.add_edge",
    "WeightedGraph.has_edge",
    "WeightedGraph.weight",
    "WeightedGraph.neighbors",
    "WeightedGraph.neighbor_items",
    "WeightedGraph.degree",
    "WeightedGraph.nodes",
    "HybridNetwork.state",
    "HybridNetwork.states",
    "HybridNetwork.fork_rng",
    "Skeleton.contains",
    "Skeleton.original_id",
}


def _argument(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[position]


def _repair_info(args: tuple, kwargs: dict, result: Any) -> dict:
    if result is None:
        return {"repaired": False, "rows_changed": 0}
    before = args[0].skeleton.knowledge_matrix
    after = result.skeleton.knowledge_matrix
    return {"repaired": True, "rows_changed": int((before != after).any(axis=1).sum())}


#: Span name -> extractor of the counts the per-layer metrics need.  It runs
#: after the span's clock stops, so its cost lands in no span of its own.
INFO: dict[str, Callable[[tuple, dict, Any], dict]] = {
    "WeightedGraph.hop_limited_distance_matrix": lambda args, kwargs, result: {
        "rows": len(_argument(args, kwargs, 1, "sources"))
    },
    "SkeletonContext.repair": _repair_info,
    "QueryServer._execute_group": lambda args, kwargs, result: {
        "ids": [query.id for query in _argument(args, kwargs, 1, "group")]
    },
}


@dataclass(frozen=True)
class Span:
    """One traced call."""

    id: int
    parent: int | None
    op: int
    layer: str
    name: str
    thread: int
    start: float
    duration: float
    self_time: float
    info: dict | None


def _traceable(function: Callable) -> bool:
    # A generator or coroutine returns before its work is done, so a span
    # around the call would time nothing.
    return not (inspect.isgeneratorfunction(function) or inspect.iscoroutinefunction(function))


class Tracer:
    """Installs span wrappers on every layer entry point (see module docs)."""

    def __init__(self, layers: dict[str, tuple[str, ...]] | None = None) -> None:
        self.layers = LAYERS if layers is None else layers
        self.spans: list[Span] = []
        #: Id shared by the spans of the operation the harness is running;
        #: 0 between operations.
        self.op = 0
        self._ops = itertools.count(1)
        self.installed = False
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any, Any]] | None = None

    def begin_op(self) -> None:
        """Tag the spans that follow with a fresh operation id."""
        self.op = next(self._ops)

    def end_op(self) -> None:
        """Tag the spans that follow as outside any operation."""
        self.op = 0

    # ------------------------------------------------------------- patching
    def _targets(self) -> Iterator[tuple[str, str, Any, str, Any]]:
        """(layer, span name, owner, attribute, original) per entry point."""
        for layer, module_names in self.layers.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                for attribute, value in sorted(vars(module).items()):
                    if getattr(value, "__module__", None) != module_name:
                        continue
                    if inspect.isfunction(value):
                        if not attribute.startswith("_") and _traceable(value):
                            yield layer, attribute, module, attribute, value
                    elif inspect.isclass(value):
                        for attribute_name, raw in sorted(vars(value).items()):
                            name = f"{value.__name__}.{attribute_name}"
                            if self._is_entry_point(name, attribute_name, raw):
                                yield layer, name, value, attribute_name, raw

    @staticmethod
    def _is_entry_point(name: str, attribute: str, raw: Any) -> bool:
        if attribute == "__init__":
            if name.split(".")[0] not in TRACED_INITS:
                return False
        elif attribute.startswith("_") and name not in TRACED_PRIVATE:
            return False
        if name in UNTRACED:
            return False
        if isinstance(raw, (staticmethod, classmethod)):
            raw = raw.__func__
        return inspect.isfunction(raw) and _traceable(raw)

    def _plan(self) -> list[tuple[Any, str, Any, Any]]:
        patches: list[tuple[Any, str, Any, Any]] = []
        functions: dict[int, tuple[Any, Any]] = {}
        for layer, name, owner, attribute, raw in self._targets():
            if inspect.ismodule(owner):
                functions[id(raw)] = (raw, self._wrap(raw, layer, name))
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, layer, name))
            else:
                wrapped = self._wrap(raw, layer, name)
            patches.append((owner, attribute, raw, wrapped))
        # Every alias of a module function, found by identity.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attribute, value in list(namespace.items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((module, attribute, value, entry[1]))
        return patches

    def install(self) -> None:
        """Replace every entry point (and alias) with its span wrapper."""
        if self.installed:
            return
        if self._patches is None:
            self._patches = self._plan()
        for owner, attribute, _, wrapped in self._patches:
            setattr(owner, attribute, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        """Restore every original object."""
        if not self.installed:
            return
        for owner, attribute, original, _ in reversed(self._patches):
            setattr(owner, attribute, original)
        self.installed = False

    # --------------------------------------------------------------- spans
    def _wrap(self, function: Callable, layer: str, name: str) -> Callable:
        tracer = self
        local = self._local
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter
        thread_id = threading.get_ident
        info = INFO.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][0] if stack else None
            entry = [next(ids), 0.0]
            stack.append(entry)
            result = None
            failed = True
            start = clock()
            try:
                result = function(*args, **kwargs)
                failed = False
                return result
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                detail = None if failed or info is None else info(args, kwargs, result)
                spans.append(
                    Span(
                        entry[0],
                        parent,
                        tracer.op,
                        layer,
                        name,
                        thread_id(),
                        start,
                        duration,
                        duration - entry[1],
                        detail,
                    )
                )

        return traced


def _total(spans: list[Span], name: str) -> float:
    return sum(span.duration for span in spans if span.name == name)


def _self(spans: list[Span], name: str) -> float:
    return sum(span.self_time for span in spans if span.name == name)


def _count(spans: list[Span], *names: str) -> int:
    return sum(1 for span in spans if span.name in names)


def layer_metrics(spans: list[Span], cycles: int, wall: float) -> dict[str, float]:
    """The span-derived per-layer metrics of ``cycles`` traced cycles.

    Times are shares of ``wall``, the time of the traced operations: a share
    does not depend on the host's speed, and a layer that a workload never
    enters reads as a zero share, not as a constant zero time.  Counts are
    per cycle.
    """
    per = 1.0 / max(1, cycles)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span in spans:
        self_time[span.layer] += span.self_time
        calls[span.layer] += 1
    metrics = {f"{layer}.share": self_time[layer] / wall for layer in LAYERS}
    metrics["graphs.calls"] = calls["graphs"] * per
    metrics["localnet.calls"] = calls["localnet"] * per

    hop_limited = [s for s in spans if s.name == "WeightedGraph.hop_limited_distance_matrix"]
    metrics["graphs.hop_limited_share"] = sum(s.duration for s in hop_limited) / wall
    metrics["graphs.hop_limited_rows"] = sum(s.info["rows"] for s in hop_limited if s.info) * per
    metrics["graphs.eccentricity_share"] = _total(spans, "WeightedGraph.hop_eccentricities") / wall
    metrics["graphs.hop_diameter_calls"] = _count(spans, "WeightedGraph.hop_diameter") * per
    exchanges = _count(
        spans,
        "HybridNetwork.global_round",
        "HybridNetwork.run_global_exchange",
        "HybridNetwork.run_reliable_exchange",
    )
    metrics["hybrid.exchange_calls"] = exchanges * per
    metrics["localnet.disseminate_share"] = _total(spans, "disseminate_tokens") / wall

    metrics["core.token_plan_share"] = _total(spans, "TokenRouter.plan") / wall
    exchange_self = _self(spans, "HybridCliqueTransport.exchange")
    metrics["core.transport_exchange_share"] = exchange_self / wall
    metrics["core.transport_builds"] = _count(spans, "HybridCliqueTransport.__init__") * per
    metrics["core.combine_share"] = _self(spans, "apsp_exact") / wall
    metrics["core.skeleton_share"] = _total(spans, "compute_skeleton") / wall

    repairs = [s for s in spans if s.name == "SkeletonContext.repair" and s.info]
    repair_ids = {s.id for s in repairs}
    rows = sum(s.info["rows"] for s in hop_limited if s.parent in repair_ids and s.info)
    changed = sum(s.info["rows_changed"] for s in repairs)
    metrics["core.repair_share"] = _total(spans, "SkeletonContext.repair") / wall
    metrics["core.repair_rows"] = rows * per
    metrics["core.repair_rows_changed"] = changed * per
    metrics["core.repair_useful_ratio"] = changed / rows if rows else 0.0
    metrics["core.repaired"] = sum(1 for s in repairs if s.info["repaired"]) * per
    metrics["core.rebuilt"] = sum(1 for s in repairs if not s.info["repaired"]) * per

    passes = [s for s in spans if s.name == "QueryServer._execute_group" and s.info]
    metrics["serving.passes"] = len(passes) * per
    sizes = [len(s.info["ids"]) for s in passes]
    metrics["serving.batch_size_mean"] = statistics.fmean(sizes) if sizes else 0.0
    return metrics


def pass_starts(spans: list[Span]) -> dict[str, float]:
    """Request id -> start time of the serving pass that answered it."""
    return {
        request_id: span.start
        for span in spans
        if span.name == "QueryServer._execute_group" and span.info
        for request_id in span.info["ids"]
    }

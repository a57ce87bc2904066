"""LOCAL / CONGEST / NCC primitives the paper builds on.

* :mod:`repro.localnet.flooding` -- bounded-depth local exploration loops.
* :mod:`repro.localnet.ruling_set` -- ``(2µ+1, 2µ⌈log n⌉)``-ruling sets (Lemma 2.1).
* :mod:`repro.localnet.clustering` -- clusters around rulers (Algorithm 1, first half).
* :mod:`repro.localnet.aggregation` -- NCC aggregation and broadcast (Lemma B.2).
* :mod:`repro.localnet.token_dissemination` -- the ``Õ(√k + ℓ)`` broadcast of Lemma B.1.

The ruling set and the clustering are computed once per hop topology and
``µ`` by the graph kernel
:meth:`~repro.graphs.graph.WeightedGraph.ruler_clustering`; these modules
charge the rounds on every call.
"""

from repro.localnet.aggregation import (
    aggregate_max,
    aggregate_sum,
    broadcast_value,
)
from repro.localnet.clustering import Clustering, cluster_around_rulers
from repro.localnet.ruling_set import compute_ruling_set
from repro.localnet.token_dissemination import DisseminationResult, disseminate_tokens

__all__ = [
    "aggregate_max",
    "aggregate_sum",
    "broadcast_value",
    "Clustering",
    "cluster_around_rulers",
    "compute_ruling_set",
    "DisseminationResult",
    "disseminate_tokens",
]

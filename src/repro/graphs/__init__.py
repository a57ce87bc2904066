"""Graph kernel: the local communication graph ``G`` and everything offline about it.

Public surface:

* :class:`~repro.graphs.graph.WeightedGraph` -- the adjacency structure used by
  the whole library, with single-source traversals and batched multi-source
  kernels (DESIGN.md §4).
* :mod:`repro.graphs.csr` -- the frozen numpy CSR view and its kernels.
* :mod:`repro.graphs.generators` -- workload graph families.
* :mod:`repro.graphs.reference` -- sequential ground-truth algorithms.
* :mod:`repro.graphs.skeleton_analysis` -- offline audits of skeleton graphs
  (Appendix C).
"""

from repro.graphs import generators, reference, skeleton_analysis
from repro.graphs.graph import INFINITY, WeightedGraph

__all__ = ["WeightedGraph", "INFINITY", "generators", "reference", "skeleton_analysis"]

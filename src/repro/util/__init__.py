"""Utility substrate shared by the whole library.

This package contains the small, paper-mandated building blocks that are not
graph algorithms themselves:

* :mod:`repro.util.rand` -- seeded random number helpers used everywhere a
  sampling step appears in the paper ("sample each node with probability p").
* :mod:`repro.util.hashing` -- the k-wise independent hash family of
  Definition D.1 / Lemma D.1, used by the token routing protocol (Section 2)
  to pick pseudo-random intermediate nodes.
* :mod:`repro.util.chernoff` -- the Chernoff / union bound calculators of
  Appendix A ("w.h.p." thresholds); only their own unit tests call them.
"""

from repro.util.chernoff import (
    chernoff_upper_tail,
    chernoff_lower_tail,
    whp_threshold_above,
    whp_threshold_below,
    union_bound_failure,
)
from repro.util.hashing import KWiseHashFamily, KWiseHashFunction
from repro.util.rand import RandomSource, sample_nodes, split_evenly

__all__ = [
    "KWiseHashFamily",
    "KWiseHashFunction",
    "RandomSource",
    "sample_nodes",
    "split_evenly",
    "chernoff_upper_tail",
    "chernoff_lower_tail",
    "whp_threshold_above",
    "whp_threshold_below",
    "union_bound_failure",
]

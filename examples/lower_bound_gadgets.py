"""Scenario: reproducing the paper's lower-bound constructions (Sections 6 and 7).

Builds the two worst-case families and verifies their structural claims:

* Figure 1 (Theorem 1.5): the k-SSP gadget whose hidden source split forces
  ``Ω̃(√k)`` rounds -- we report the distance-gap factor ``Θ(n/√k)`` and the
  information-bottleneck round bound.
* Figure 2 (Theorem 1.6, Lemmas 7.1/7.2): the set-disjointness gadget
  ``Γ^{a,b}_{k,ℓ,W}`` whose diameter reveals whether the inputs intersect -- we
  verify the dichotomy for weighted and unweighted instances and check the
  Alice/Bob column-partition property of Lemma 7.3.

Run with:  python examples/lower_bound_gadgets.py
"""

from __future__ import annotations

from repro.graphs import reference
from repro.hybrid import ModelConfig
from repro.hybrid.config import MESSAGE_BITS
from repro.lower_bounds import (
    assignment_entropy_bits,
    build_gamma_gadget,
    build_kssp_gadget,
    classify_disjointness_from_diameter,
    distance_gap_factor,
    implied_round_lower_bound,
    random_disjointness_instance,
    verify_simulation_partition,
)
from repro.lower_bounds.set_disjointness import (
    implied_round_lower_bound as diameter_lower_bound,
)
from repro.util.rand import RandomSource


def kssp_gadget_demo() -> None:
    print("=" * 72)
    print("Figure 1 / Theorem 1.5: k-SSP lower bound gadget")
    config = ModelConfig()
    for k in (16, 64, 256):
        gadget = build_kssp_gadget(path_hops=400, source_count=k, rng=RandomSource(k))
        send_cap = config.send_cap(gadget.graph.node_count)
        print(f"\n  k = {k:4d}  (n = {gadget.graph.node_count}, L = {gadget.bottleneck_distance})")
        print(f"    distance gap factor Θ(n/√k): {distance_gap_factor(gadget):8.1f}")
        print(f"    hidden entropy:              {assignment_entropy_bits(gadget):8.1f} bits")
        print(f"    implied round lower bound:   "
              f"{implied_round_lower_bound(gadget, MESSAGE_BITS, send_cap):8.4f}"
              f"   (√k = {k ** 0.5:.1f})")


def gamma_gadget_demo() -> None:
    print("\n" + "=" * 72)
    print("Figure 2 / Theorem 1.6: set-disjointness diameter gadget")
    config = ModelConfig()
    for weighted in (False, True):
        weight = 40 if weighted else 1
        label = "weighted (W=40)" if weighted else "unweighted (W=1)"
        print(f"\n  {label}, k = 6, l = 10")
        for disjoint in (True, False):
            a, b = random_disjointness_instance(6, RandomSource(5 if disjoint else 6), disjoint)
            gadget = build_gamma_gadget(6, 10, weight, a, b)
            diameter = (
                reference.weighted_diameter(gadget.graph)
                if weighted
                else reference.hop_diameter(gadget.graph)
            )
            verdict = classify_disjointness_from_diameter(gadget, diameter)
            print(f"    inputs {'disjoint   ' if disjoint else 'intersecting'}:"
                  f" diameter = {diameter:5.0f}  ->  classified "
                  f"{'disjoint' if verdict else 'intersecting'}"
                  f"  ({'ok' if verdict == disjoint else 'WRONG'})")
        a, b = random_disjointness_instance(6, RandomSource(9), True)
        gadget = build_gamma_gadget(6, 10, weight, a, b)
        print(f"    Lemma 7.3 partition property: "
              f"{verify_simulation_partition(gadget, gadget.path_hops // 2)}")
        print(f"    implied round lower bound:    "
              f"{diameter_lower_bound(gadget, config):.3g} (n = {gadget.node_count})")


if __name__ == "__main__":
    kssp_gadget_demo()
    gamma_gadget_demo()

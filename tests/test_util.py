"""Unit tests for repro.util (randomness, hashing, Chernoff helpers)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.chernoff import (
    chernoff_lower_tail,
    chernoff_upper_tail,
    union_bound_failure,
    whp_threshold_above,
    whp_threshold_below,
)
from repro.util.hashing import KWiseHashFamily, hash_family_for_network
from repro.util.rand import RandomSource, sample_nodes, split_evenly


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a, b = RandomSource(5), RandomSource(5)
        assert [a.randint(0, 100) for _ in range(10)] == [b.randint(0, 100) for _ in range(10)]

    def test_fork_is_deterministic(self):
        a, b = RandomSource(5), RandomSource(5)
        assert a.fork("phase").randint(0, 1000) == b.fork("phase").randint(0, 1000)

    def test_forks_with_different_labels_differ(self):
        root = RandomSource(5)
        values_a = [root.fork("a").randint(0, 10**9) for _ in range(1)]
        values_b = [root.fork("b").randint(0, 10**9) for _ in range(1)]
        assert values_a != values_b

    def test_bernoulli_extremes(self):
        rng = RandomSource(1)
        assert rng.bernoulli(1.0)
        assert not rng.bernoulli(0.0)

    def test_bernoulli_rate(self):
        rng = RandomSource(2)
        hits = sum(rng.bernoulli(0.3) for _ in range(5000))
        assert 0.25 * 5000 < hits < 0.35 * 5000

    def test_randrange_bounds(self):
        rng = RandomSource(3)
        assert all(0 <= rng.randrange(7) < 7 for _ in range(100))

    def test_choice_and_sample(self):
        rng = RandomSource(4)
        items = list(range(10))
        assert rng.choice(items) in items
        sampled = rng.sample(items, 4)
        assert len(set(sampled)) == 4

    def test_shuffle_preserves_elements(self):
        rng = RandomSource(5)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_sample_nodes_probability_one(self):
        rng = RandomSource(6)
        assert sample_nodes(range(10), 1.0, rng) == list(range(10))

    def test_sample_nodes_probability_zero(self):
        rng = RandomSource(6)
        assert sample_nodes(range(10), 0.0, rng) == []

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.lists(st.integers(min_value=0, max_value=10**6), max_size=80),
        st.one_of(
            st.sampled_from([0.0, 1.0, 1.5, -0.5]),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        ),
    )
    def test_sample_nodes_equals_per_node_bernoulli(self, seed, nodes, probability):
        # One draw of uniforms replays one bernoulli per node, and leaves the
        # source where the per-node loop would (no draw at all outside (0, 1)).
        batched, scalar = RandomSource(seed), RandomSource(seed)
        expected = [node for node in nodes if scalar.bernoulli(probability)]
        assert sample_nodes(iter(nodes), probability, batched) == expected
        assert batched.random() == scalar.random()

    def test_split_evenly_balanced(self):
        buckets = split_evenly(list(range(10)), 3)
        sizes = sorted(len(b) for b in buckets)
        assert sizes == [3, 3, 4]
        assert sorted(x for b in buckets for x in b) == list(range(10))

    def test_split_evenly_more_buckets_than_items(self):
        buckets = split_evenly([1, 2], 5)
        assert sum(len(b) for b in buckets) == 2

    def test_split_evenly_rejects_zero_buckets(self):
        with pytest.raises(ValueError):
            split_evenly([1], 0)


class TestHashing:
    def test_output_range(self):
        function = KWiseHashFamily(4, 50).sample(RandomSource(1))
        assert all(0 <= function((i, i + 1, i + 2)) < 50 for i in range(200))

    def test_deterministic_per_function(self):
        function = KWiseHashFamily(4, 50).sample(RandomSource(1))
        assert function((3, 4, 5)) == function((3, 4, 5))

    def test_different_seeds_differ(self):
        family = KWiseHashFamily(4, 1000)
        f1 = family.sample(RandomSource(1))
        f2 = family.sample(RandomSource(2))
        values1 = [f1((i,)) for i in range(50)]
        values2 = [f2((i,)) for i in range(50)]
        assert values1 != values2

    def test_roughly_uniform(self):
        function = KWiseHashFamily(6, 10).sample(RandomSource(3))
        counts = [0] * 10
        for i in range(5000):
            counts[function((i, 2 * i, 3 * i))] += 1
        assert min(counts) > 300  # expectation 500 per bucket

    def test_independence_parameter(self):
        family = KWiseHashFamily(7, 10)
        assert family.sample(RandomSource(1)).independence == 7

    def test_seed_bits_match_lemma(self):
        # Lemma 2.3: O(log^2 n) bits suffice; our family uses k * 61 bits.
        function = hash_family_for_network(1024, RandomSource(5))
        assert function.seed_bits <= 3 * 10 * 61 + 61

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KWiseHashFamily(0, 10)
        with pytest.raises(ValueError):
            KWiseHashFamily(2, 0).sample(RandomSource(1))

    def test_integer_keys_accepted(self):
        function = KWiseHashFamily(3, 17).sample(RandomSource(9))
        assert 0 <= function(12345) < 17


class TestChernoff:
    def test_upper_tail_decreasing_in_mean(self):
        assert chernoff_upper_tail(100, 1.0) < chernoff_upper_tail(10, 1.0)

    def test_upper_tail_at_most_one(self):
        assert chernoff_upper_tail(0.1, 0.5) <= 1.0

    def test_lower_tail_decreasing_in_mean(self):
        assert chernoff_lower_tail(100, 0.5) < chernoff_lower_tail(10, 0.5)

    def test_lower_tail_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            chernoff_lower_tail(10, 1.5)

    def test_union_bound(self):
        assert union_bound_failure(0.001, 100) == pytest.approx(0.1)
        assert union_bound_failure(0.5, 100) == 1.0

    def test_whp_threshold_above_is_above_mean(self):
        assert whp_threshold_above(10.0, 1000) >= 10.0

    def test_whp_threshold_above_zero_mean_is_logarithmic(self):
        threshold = whp_threshold_above(0.0, 1000)
        assert threshold == pytest.approx(3 * math.log(1000))

    def test_whp_threshold_below_is_below_mean(self):
        assert whp_threshold_below(100.0, 1000) <= 100.0

    def test_whp_threshold_below_degenerates_for_small_mean(self):
        assert whp_threshold_below(1.0, 1000) == 0.0

    def test_thresholds_reject_tiny_n(self):
        with pytest.raises(ValueError):
            whp_threshold_above(1.0, 1)

"""Seeded randomness helpers.

Every randomized step in the paper ("sample each node into ``VS`` with
probability ``1/x``", "each node joins the helper set with probability ``q``",
"randomly seeded hash function") is driven through a :class:`RandomSource` so
that simulations are reproducible given a seed, and so that tests can control
the randomness of individual protocol phases independently.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable, Sequence
from typing import TypeVar

import numpy as np

T = TypeVar("T")


class RandomSource:
    """A named, forkable random source.

    The HYBRID algorithms consist of several independent random phases
    (skeleton sampling, helper-set sampling, hash seeding, ...).  Forking a
    child source per phase keeps the phases statistically independent while
    remaining reproducible from a single root seed.
    """

    def __init__(self, seed: int | None = None) -> None:
        # repro-lint: waive[RL001] -- deliberate entropy for the seed=None convenience path
        self._seed = seed if seed is not None else random.SystemRandom().randrange(2**63)
        self._rng = random.Random(self._seed)

    @property
    def seed(self) -> int:
        """The seed this source was created with."""
        return self._seed

    def fork(self, label: str) -> "RandomSource":
        """Return a child source whose seed is derived from ``label``.

        Forks with distinct labels are independent; forks with the same label
        from the same parent produce identical streams, which is what lets a
        simulation be replayed phase by phase.  The derivation uses a stable
        hash (not Python's randomised ``hash``) so results are reproducible
        across processes and interpreter invocations.
        """
        digest = hashlib.sha256(f"{self._seed}:{label}".encode()).digest()
        child_seed = int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF
        return RandomSource(child_seed)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` (inclusive)."""
        return self._rng.randint(low, high)

    def randrange(self, upper: int) -> int:
        """Uniform integer in ``[0, upper)``."""
        return self._rng.randrange(upper)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly random element of a non-empty sequence."""
        return self._rng.choice(items)

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        """``count`` distinct elements chosen uniformly at random."""
        return self._rng.sample(items, count)

    def shuffle(self, items: list[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        self._rng.shuffle(items)

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` :meth:`random` values in one draw (float64 array).

        ``random()`` turns two consecutive 32-bit MT19937 words ``a, b`` into
        ``((a >> 5) · 2^26 + (b >> 6)) / 2^53``.  ``getrandbits(64 · count)``
        consumes the same ``2 · count`` words from the same state, first word
        least significant, so its little-endian bytes are the word stream and
        the doubles come out bit for bit; the source is left where ``count``
        calls to :meth:`random` would leave it (DESIGN.md §4).
        """
        if count <= 0:
            return np.empty(0)
        words = np.frombuffer(
            self._rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u4"
        )
        return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0

    def bernoulli(self, probability: float) -> bool:
        """Return ``True`` with the given probability."""
        if probability >= 1.0:
            return True
        if probability <= 0.0:
            return False
        return self._rng.random() < probability


def sample_nodes(nodes: Iterable[int], probability: float, rng: RandomSource) -> list[int]:
    """Sample each node independently with the given probability.

    This is the sampling primitive behind skeleton graphs (Lemma C.1) and the
    sender/receiver sets of Theorem 2.2.
    """
    return [node for node in nodes if rng.bernoulli(probability)]


def split_evenly(items: Sequence[T], bucket_count: int) -> list[list[T]]:
    """Deterministically split ``items`` into ``bucket_count`` balanced buckets.

    Used when a sender splits its tokens among its helpers (Fact 2.4): bucket
    sizes differ by at most one, matching the ``⌈k_S / µ_S⌉`` bound.
    """
    if bucket_count <= 0:
        raise ValueError("bucket_count must be positive")
    buckets: list[list[T]] = [[] for _ in range(bucket_count)]
    for index, item in enumerate(items):
        buckets[index % bucket_count].append(item)
    return buckets

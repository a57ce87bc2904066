"""k-wise independent hash functions (Definition D.1 / Lemma D.1).

The token routing protocol of Section 2 routes each token labelled ``(s, r, i)``
via the intermediate node ``h(s, r, i)`` where ``h`` is drawn from a k-wise
independent family for ``k ∈ Θ(log n)``.  Lemma D.2 shows that this keeps the
number of messages any node receives per round at ``O(log n)`` w.h.p.

We implement the classic polynomial construction over a prime field: a degree
``k-1`` polynomial with random coefficients evaluated at the (encoded) key is a
k-wise independent map into the field, which we then reduce onto the target
range.  Selecting a function requires ``k`` field elements, i.e. ``O(k log n)``
= ``O(log^2 n)`` random bits, matching Lemma 2.3.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as _np

from repro.util.rand import RandomSource

# A Mersenne prime comfortably larger than any node-id / token-label encoding
# we use; arithmetic mod a Mersenne prime is exact in Python integers.
_FIELD_PRIME = (1 << 61) - 1

_LIMB_BITS = 31
_LIMB_MASK = (1 << _LIMB_BITS) - 1


def _vec_reduce(values):
    """Reduce uint64 values ``< 2^63`` modulo the Mersenne prime ``2^61 - 1``."""
    values = (values >> 61) + (values & _FIELD_PRIME)
    return _np.where(values >= _FIELD_PRIME, values - _FIELD_PRIME, values)


def _vec_mulmod(a, b):
    """Vectorised ``(a * b) mod (2^61 - 1)`` for uint64 arrays ``< 2^61 - 1``.

    Products of 61-bit operands overflow uint64, so the multiplication is done
    in 31-bit limbs; the Mersenne modulus makes the carries cheap because
    ``2^61 ≡ 1`` and ``2^62 ≡ 2``.
    """
    a_hi, a_lo = a >> _LIMB_BITS, a & _LIMB_MASK
    b_hi, b_lo = b >> _LIMB_BITS, b & _LIMB_MASK
    high = a_hi * b_hi  # contributes high * 2^62 ≡ high * 2
    mid = a_hi * b_lo + a_lo * b_hi  # contributes mid * 2^31
    low = a_lo * b_lo  # < 2^62, fold once
    mid_hi, mid_lo = mid >> 30, mid & ((1 << 30) - 1)  # mid * 2^31 ≡ mid_hi + mid_lo * 2^31
    total = (high << 1) + mid_hi + (mid_lo << _LIMB_BITS) + ((low >> 61) + (low & _FIELD_PRIME))
    return _vec_reduce(total)


def _encode_key(key: tuple[int, ...] | int) -> int:
    """Injectively encode an integer tuple key into a field element.

    Token labels are triples ``(sender, receiver, index)``; we pack them with
    fixed 20-bit lanes which is ample for the network sizes a Python
    simulation can reach, and fold anything larger with a mixing step.
    """
    if isinstance(key, int):
        parts: tuple[int, ...] = (key,)
    else:
        parts = tuple(key)
    encoded = 0
    for part in parts:
        encoded = (encoded * 1048583 + (part + 1)) % _FIELD_PRIME
    return encoded


class KWiseHashFunction:
    """A single member of a k-wise independent family mapping keys to ``[range)``."""

    def __init__(self, coefficients: Sequence[int], output_range: int) -> None:
        if output_range <= 0:
            raise ValueError("output_range must be positive")
        if not coefficients:
            raise ValueError("need at least one coefficient")
        self._coefficients = list(coefficients)
        self._range = output_range

    @property
    def independence(self) -> int:
        """The independence parameter k (the polynomial degree plus one)."""
        return len(self._coefficients)

    @property
    def output_range(self) -> int:
        """Hash values lie in ``[0, output_range)``."""
        return self._range

    @property
    def seed_bits(self) -> int:
        """Number of random bits used to select this function (Lemma 2.3)."""
        return len(self._coefficients) * _FIELD_PRIME.bit_length()

    def __call__(self, key: tuple[int, ...] | int) -> int:
        """Evaluate the hash on an integer or tuple-of-integers key."""
        x = _encode_key(key)
        value = 0
        # Horner evaluation of the random polynomial over the prime field.
        for coefficient in self._coefficients:
            value = (value * x + coefficient) % _FIELD_PRIME
        return value % self._range

    def many(self, lanes: Sequence) -> _np.ndarray:
        """Batched evaluation on tuple keys given as per-lane integer arrays.

        ``lanes`` holds one array-like per tuple position (e.g. the senders,
        receivers and indices of a batch of token labels); element ``i`` of
        the result equals ``self((lanes[0][i], lanes[1][i], ...))`` exactly.
        The whole batch is one vectorised Horner evaluation over the Mersenne
        field (31-bit limb arithmetic, see :func:`_vec_mulmod`).  Returns an
        int64 array (empty when ``lanes`` is).
        """
        if not lanes:
            return _np.empty(0, dtype=_np.int64)
        lanes = [_np.asarray(lane, dtype=_np.uint64) for lane in lanes]
        # Vectorised _encode_key: fixed multiplier fold over the lanes.
        multiplier = _np.uint64(1048583)
        encoded = _np.zeros(lanes[0].shape[0], dtype=_np.uint64)
        for lane in lanes:
            encoded = _vec_reduce(_vec_mulmod(encoded, multiplier) + lane + _np.uint64(1))
        # Vectorised Horner evaluation of the polynomial.
        value = _np.zeros_like(encoded)
        for coefficient in self._coefficients:
            value = _vec_reduce(_vec_mulmod(value, encoded) + _np.uint64(coefficient))
        return (value % _np.uint64(self._range)).astype(_np.int64)


class KWiseHashFamily:
    """Factory for k-wise independent hash functions (Lemma D.1)."""

    def __init__(self, independence: int, output_range: int) -> None:
        if independence < 1:
            raise ValueError("independence must be at least 1")
        self.independence = independence
        self.output_range = output_range

    def sample(self, rng: RandomSource) -> KWiseHashFunction:
        """Draw a random member of the family.

        The leading coefficient is forced non-zero so the polynomial has full
        degree; this does not affect the independence guarantee.
        """
        coefficients = [rng.randrange(_FIELD_PRIME) for _ in range(self.independence)]
        if coefficients[0] == 0:
            coefficients[0] = 1
        return KWiseHashFunction(coefficients, self.output_range)


def hash_family_for_network(n: int, rng: RandomSource) -> KWiseHashFunction:
    """Convenience helper: draw the hash used by Routing-Scheme on an n-node network.

    Lemma D.2 needs independence ``k ∈ Θ(log n)``; we use ``3 * ceil(log2 n)``.
    The output range is the node-id space ``[0, n)``.
    """
    import math

    independence = max(2, 3 * max(1, math.ceil(math.log2(max(n, 2)))))
    return KWiseHashFamily(independence, n).sample(rng)

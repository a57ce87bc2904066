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

The field is the Mersenne prime ``p = 2^61 - 1``, so reducing mod ``p`` is a
shift, a mask and an add.  :meth:`KWiseHashFunction.__call__` evaluates one
key with Python integers (the reference); :meth:`KWiseHashFunction.many`
evaluates a batch with uint64 numpy arrays in 31-bit limbs, by Estrin's
scheme (``O(log k)`` whole-array passes) with lazily reduced intermediates,
and returns the same values bit for bit (DESIGN.md §4).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as _np

from repro.util.rand import RandomSource

# A Mersenne prime comfortably larger than any node-id / token-label encoding
# we use: reducing mod 2^61 - 1 is a shift, a mask and an add (``2^61 ≡ 1``).
_FIELD_PRIME = (1 << 61) - 1
_PRIME = _np.uint64(_FIELD_PRIME)

_LIMB_BITS = _np.uint64(31)
_LIMB_MASK = _np.uint64((1 << 31) - 1)
_HALF_MASK = _np.uint64((1 << 30) - 1)
_ONE = _np.uint64(1)
_THIRTY = _np.uint64(30)
_SIXTY_ONE = _np.uint64(61)

#: The fixed multiplier of the key encoding's fold over the lanes.
_LANE_MULTIPLIER = 1048583

#: Keys per block of :meth:`KWiseHashFunction.many`: the polynomial's
#: ``(k/2) × block`` term arrays stay cache-sized at any batch size.
_BLOCK = 2048


def _fold(values):
    """One Mersenne fold of uint64 values: congruent mod ``p``, and ``< 2^61 + 8``.

    ``values >> 61`` is at most 7 and ``values & p`` at most ``p - 1``, so
    the fold is lazy: it never subtracts ``p``.  :meth:`KWiseHashFunction.many`
    keeps every intermediate in this range and reduces once at the end.
    """
    return (values >> _SIXTY_ONE) + (values & _PRIME)


def _product(a_hi, a_lo, b_hi, b_lo):
    """``a · b`` congruent mod ``p`` and ``< 2^63 + 2^32``, from 31-bit limbs.

    ``a`` and ``b`` are below ``2^61 + 8`` and given split as ``(x >> 31,
    x & (2^31 - 1))``, so the high limbs are at most ``2^30``.  Products of
    61-bit operands overflow uint64, so ``a · b = hi·2^62 + mid·2^31 + lo``
    is folded with ``2^62 ≡ 2`` and ``mid·2^31 ≡ (mid >> 30) + (mid mod
    2^30)·2^31``.  The sum leaves room for one more addend below ``2^62``
    before a :func:`_fold`.
    """
    mid = a_hi * b_lo
    mid += a_lo * b_hi
    total = a_hi * b_hi
    total <<= _ONE
    total += mid >> _THIRTY
    mid &= _HALF_MASK
    mid <<= _LIMB_BITS
    total += mid
    total += a_lo * b_lo
    return total


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
        encoded = (encoded * _LANE_MULTIPLIER + (part + 1)) % _FIELD_PRIME
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
        # Estrin's scheme pairs the ascending coefficients (padded to an even
        # count): ``many`` starts from ``a[2j] + a[2j+1]·x`` per pair.
        ascending = self._coefficients[::-1] + [0] * (len(self._coefficients) % 2)
        column = _np.array(ascending, dtype=_np.uint64).reshape(-1, 1)
        self._even = column[0::2]
        self._odd_hi = column[1::2] >> _LIMB_BITS
        self._odd_lo = column[1::2] & _LIMB_MASK

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
        receivers and indices of a batch of token labels; values below
        ``2^62``); element ``i`` of the result equals ``self((lanes[0][i],
        lanes[1][i], ...))`` exactly.  Keys are evaluated ``_BLOCK`` at a time
        by :meth:`_evaluate`.  Returns an int64 array (empty when ``lanes``
        is).
        """
        if not lanes:
            return _np.empty(0, dtype=_np.int64)
        lanes = [_np.asarray(lane, dtype=_np.uint64) for lane in lanes]
        result = _np.empty(lanes[0].shape[0], dtype=_np.int64)
        for start in range(0, result.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            result[block] = self._evaluate([lane[block] for lane in lanes])
        return result

    def _evaluate(self, lanes: list[_np.ndarray]) -> _np.ndarray:
        """The hash of one block of keys, as uint64 values in ``[0, range)``.

        The key encoding folds the lanes as :func:`_encode_key` does.  The
        polynomial is evaluated by Estrin's scheme: the term rows start as the
        coefficient pairs ``a[2j] + a[2j+1]·x``, and each level combines
        adjacent rows, ``terms[2j] + terms[2j+1]·x²``, after squaring ``x`` --
        ``⌈log2 k⌉`` levels of whole-array passes instead of ``k`` Horner
        steps.  Every intermediate stays congruent mod ``p`` and below
        ``2^61 + 8`` (:func:`_fold`); the polynomial's value mod ``p`` is
        unique, so one final ``% p`` gives the canonical field element and
        the result is the scalar evaluation's bit for bit.
        """
        x = _fold(lanes[0] + _ONE)
        multiplier = _np.uint64(_LANE_MULTIPLIER)
        for lane in lanes[1:]:
            # multiplier < 2^31 has no high limb: x·m = (x_hi·m)·2^31 + x_lo·m.
            mid = (x >> _LIMB_BITS) * multiplier
            x = _fold(
                (mid >> _THIRTY)
                + ((mid & _HALF_MASK) << _LIMB_BITS)
                + (x & _LIMB_MASK) * multiplier
                + lane
                + _ONE
            )
        x_hi, x_lo = x >> _LIMB_BITS, x & _LIMB_MASK
        terms = _product(self._odd_hi, self._odd_lo, x_hi, x_lo)
        terms += self._even
        terms = _fold(terms)
        while terms.shape[0] > 1:
            x = _fold(_product(x_hi, x_lo, x_hi, x_lo))
            x_hi, x_lo = x >> _LIMB_BITS, x & _LIMB_MASK
            pairs = terms.shape[0] // 2
            odd = terms[1 : 2 * pairs : 2]
            combined = _product(odd >> _LIMB_BITS, odd & _LIMB_MASK, x_hi, x_lo)
            combined += terms[0 : 2 * pairs : 2]
            combined = _fold(combined)
            if terms.shape[0] % 2:
                combined = _np.concatenate((combined, terms[-1:]))
            terms = combined
        return terms[0] % _PRIME % _np.uint64(self._range)


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

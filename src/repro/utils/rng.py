"""Deterministic random sources.

The paper notes that Pin runs are not repeatable, which forced the
authors to evaluate every technique in a single run.  Our substitute
traces are fully repeatable instead: every stochastic component draws
from a :class:`DeterministicRNG` derived from a single experiment seed,
so re-running any figure reproduces it bit-for-bit.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional, Sequence, TypeVar
from repro.errors import TypeContractError

T = TypeVar("T")

__all__ = ["derive_seed", "DeterministicRNG"]


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a stable child seed from a root seed and a name path.

    Uses SHA-256 so that unrelated components (e.g. two benchmarks, or
    the address stream vs. the value stream of one benchmark) never see
    correlated randomness even for adjacent seeds.
    """
    payload = repr(root_seed).encode() + b"\x00" + "\x00".join(names).encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class DeterministicRNG:
    """A seeded random source with the handful of draws the library needs.

    Thin wrapper over :mod:`random.Random` that (a) forbids unseeded
    construction and (b) exposes ``fork`` for creating independent child
    streams by name.
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise TypeContractError(f"seed must be int, got {type(seed).__name__}")
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        """The seed this source was created with."""
        return self._seed

    def fork(self, *names: str) -> "DeterministicRNG":
        """Create an independent child stream identified by ``names``."""
        return DeterministicRNG(derive_seed(self._seed, *names))

    def uniform(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly choose one element of a non-empty sequence."""
        return self._random.choice(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choose one element with the given (unnormalised) weights."""
        return self._random.choices(items, weights=weights, k=1)[0]

    def cumulative_choice(self, items: Sequence[T], cum_weights: Sequence[float]) -> T:
        """Choose one element from precomputed cumulative weights.

        Makes exactly the draw :meth:`weighted_choice` makes when
        ``cum_weights == list(itertools.accumulate(weights))``, without
        re-accumulating the weights on every call.
        """
        return self._random.choices(items, cum_weights=cum_weights, k=1)[0]

    def geometric(self, mean: float) -> int:
        """Geometric draw (support >= 1) with the given mean.

        Used for burst lengths; ``mean <= 1`` degenerates to constant 1.
        """
        if mean <= 1.0:
            return 1
        stop_probability = 1.0 / mean
        length = 1
        while self._random.random() >= stop_probability:
            length += 1
        return length

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(items)

    def sample_bits(self, width: int) -> int:
        """Uniform ``width``-bit integer."""
        if width <= 0:
            return 0
        return self._random.getrandbits(width)

    def maybe(self, probability: float) -> bool:
        """Bernoulli draw."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def state_snapshot(self) -> Optional[tuple]:
        """Expose internal state for tests that assert stream independence."""
        return self._random.getstate()

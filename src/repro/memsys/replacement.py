"""Replacement policies for set-associative structures.

Each policy manages one set of ``ways`` slots and is consulted with way
indices only; the cache array owns tag matching. Policies are deliberately
tiny state machines so they can be unit- and property-tested in isolation.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Sequence


class ReplacementPolicy(ABC):
    """Per-set replacement state."""

    def __init__(self, ways: int) -> None:
        if ways < 1:
            raise ValueError("ways must be >= 1")
        self.ways = ways

    @abstractmethod
    def touch(self, way: int) -> None:
        """Record a hit or fill on ``way``."""

    @abstractmethod
    def victim(self, protected: Sequence[int] = ()) -> int:
        """Pick a way to evict, avoiding ``protected`` ways if possible."""

    def reset(self, way: int) -> None:
        """Called when ``way`` is invalidated; default is no-op."""


class LruPolicy(ReplacementPolicy):
    """True LRU via an explicit recency stack (most recent last)."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._stack: List[int] = list(range(ways))

    def touch(self, way: int) -> None:
        stack = self._stack
        if stack[-1] == way:
            return  # already most recent: back-to-back hits on one line
        stack.remove(way)
        stack.append(way)

    def victim(self, protected: Sequence[int] = ()) -> int:
        protected_set = set(protected)
        for way in self._stack:
            if way not in protected_set:
                return way
        # All ways protected: fall back to true LRU.
        return self._stack[0]

    def reset(self, way: int) -> None:
        # Demote an invalidated way to least-recently-used.
        self._stack.remove(way)
        self._stack.insert(0, way)


class FifoPolicy(ReplacementPolicy):
    """First-in first-out; touch on fill only (hits do not update)."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._order: List[int] = list(range(ways))
        self._filled = [False] * ways

    def touch(self, way: int) -> None:
        if not self._filled[way]:
            self._filled[way] = True
            self._order.remove(way)
            self._order.append(way)

    def victim(self, protected: Sequence[int] = ()) -> int:
        protected_set = set(protected)
        for way in self._order:
            if way not in protected_set:
                return way
        return self._order[0]

    def reset(self, way: int) -> None:
        self._filled[way] = False
        self._order.remove(way)
        self._order.insert(0, way)


class TreePlruPolicy(ReplacementPolicy):
    """Tree pseudo-LRU (requires power-of-two ways)."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        if ways & (ways - 1):
            raise ValueError("TreePlruPolicy requires power-of-two ways")
        self._bits = [0] * max(ways - 1, 1)

    def touch(self, way: int) -> None:
        node = 0
        span = self.ways
        while span > 1:
            span //= 2
            go_right = way % (span * 2) >= span
            # Point away from the touched way.
            self._bits[node] = 0 if go_right else 1
            node = 2 * node + (2 if go_right else 1)

    def victim(self, protected: Sequence[int] = ()) -> int:
        protected_set = set(protected)
        way = self._walk()
        if way not in protected_set:
            return way
        for candidate in range(self.ways):
            if candidate not in protected_set:
                return candidate
        return way

    def _walk(self) -> int:
        node = 0
        way = 0
        span = self.ways
        while span > 1:
            span //= 2
            if self._bits[node]:
                way += span
                node = 2 * node + 2
            else:
                node = 2 * node + 1
        return way


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim with a private, seeded RNG (deterministic)."""

    def __init__(self, ways: int, seed: int = 0) -> None:
        super().__init__(ways)
        self._rng = random.Random(seed)

    def touch(self, way: int) -> None:
        pass

    def victim(self, protected: Sequence[int] = ()) -> int:
        protected_set = set(protected)
        candidates = [w for w in range(self.ways) if w not in protected_set]
        if not candidates:
            candidates = list(range(self.ways))
        return self._rng.choice(candidates)


_POLICIES = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "plru": TreePlruPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, ways: int) -> ReplacementPolicy:
    """Construct a replacement policy by name (lru, fifo, plru, random)."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return factory(ways)

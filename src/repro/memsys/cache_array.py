"""A generic set-associative array with LRU replacement.

Used for the L1 data cache, the LLC, and the SAM metadata table — anything
that maps a block address to an entry with bounded associativity. Every set
keeps true LRU state (:class:`LruPolicy`). Entries are user-defined objects
attached to a :class:`CacheEntry` frame that carries the block address and
validity.

Two hot-path properties:

* **Block index** — the array keeps its valid frames in a dict keyed by
  block address, so ``lookup``/``peek``/``in``/``len`` are one dict
  operation instead of a set/tag computation and a scan of the ways.  The
  frames, sets and LRU state still model the hardware: the set
  index decides where a fill goes and which frame it evicts.
* **Lazy sets** — a 16 MB LLC is ~256K entry frames; building them eagerly
  dominated cold-run machine construction.  A set's frames and LRU state
  materialize when a fill first picks a victim there, so untouched
  sets cost nothing.

Callers pass block-aligned addresses; a sliced array (LLC slice, SAM
table) is only ever given blocks of its own slice.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Sequence, TypeVar

T = TypeVar("T")


def _pow2_bits(value: int) -> Optional[int]:
    """``log2(value)`` when ``value`` is a power of two, else None."""
    if value >= 1 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


class LruPolicy:
    """True LRU for one set of ``ways`` slots, via an explicit recency
    stack (most recent last).  Consulted with way indices only; the cache
    array owns block lookup."""

    def __init__(self, ways: int) -> None:
        self._stack: List[int] = list(range(ways))

    def touch(self, way: int) -> None:
        """Record a hit or fill on ``way``."""
        stack = self._stack
        if stack[-1] == way:
            return  # already most recent: back-to-back hits on one line
        stack.remove(way)
        stack.append(way)

    def victim(self, protected: Sequence[int] = ()) -> int:
        """The least recent way not in ``protected`` (true LRU when every
        way is protected)."""
        protected_set = set(protected)
        for way in self._stack:
            if way not in protected_set:
                return way
        return self._stack[0]

    def reset(self, way: int) -> None:
        """Demote an invalidated ``way`` to least recently used."""
        self._stack.remove(way)
        self._stack.insert(0, way)


class CacheEntry(Generic[T]):
    """One way of one set: a frame holding a block address and a payload.

    ``__slots__``: large arrays hold hundreds of thousands of frames.  The
    frame's position comes first so :meth:`CacheArray._materialize` builds
    empty frames from a two-argument positional call.
    """

    __slots__ = ("way", "set_index", "valid", "block_addr", "payload")

    def __init__(self, way: int, set_index: int, valid: bool = False,
                 block_addr: int = -1, payload: Optional[T] = None) -> None:
        self.way = way
        self.set_index = set_index
        self.valid = valid
        self.block_addr = block_addr
        self.payload = payload


class CacheArray(Generic[T]):
    """Set-associative storage indexed by block address.

    The array hashes a block address to a set using the block number modulo
    the set count (after dropping slice-interleaving handled by callers).
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        block_size: int,
        index_divisor: int = 1,
    ) -> None:
        if num_sets < 1:
            raise ValueError("num_sets must be >= 1")
        if ways < 1:
            raise ValueError("ways must be >= 1")
        self.num_sets = num_sets
        self.ways = ways
        self.block_size = block_size
        #: Sliced structures (LLC slices, SAM tables) see only every
        #: ``index_divisor``-th block; indexing by the slice-local block
        #: number keeps all sets usable.
        self.index_divisor = index_divisor
        # local_block = (addr // block_size) // index_divisor
        #             = addr // (block_size * index_divisor); when all three
        # granularities are powers of two the set index is shift+mask.
        local_bits = _pow2_bits(block_size * index_divisor)
        if local_bits is not None and _pow2_bits(num_sets) is not None:
            self._local_shift: Optional[int] = local_bits
            self._set_mask = num_sets - 1
        else:
            self._local_shift = None
            self._set_mask = 0
        #: Sets (and their LRU state) materialize in :meth:`choose_victim`.
        self._sets: List[Optional[List[CacheEntry[T]]]] = [None] * num_sets
        self._policies: List[Optional[LruPolicy]] = [None] * num_sets
        #: Valid frames by block address.
        self._index: Dict[int, CacheEntry[T]] = {}

    # -- indexing -----------------------------------------------------------

    def set_index_of(self, block_addr: int) -> int:
        if self._local_shift is not None:
            return (block_addr >> self._local_shift) & self._set_mask
        return (block_addr // self.block_size) // self.index_divisor \
            % self.num_sets

    def _materialize(self, set_index: int) -> List[CacheEntry[T]]:
        ways = [CacheEntry(w, set_index) for w in range(self.ways)]
        self._sets[set_index] = ways
        self._policies[set_index] = LruPolicy(self.ways)
        return ways

    # -- operations ---------------------------------------------------------

    def lookup(self, block_addr: int) -> Optional[CacheEntry[T]]:
        """Return the entry holding ``block_addr`` or None; a hit touches
        the set's LRU state.  Runs once per memory access."""
        entry = self._index.get(block_addr)
        if entry is not None:
            self._policies[entry.set_index].touch(entry.way)
        return entry

    def peek(self, block_addr: int) -> Optional[CacheEntry[T]]:
        """Like :meth:`lookup` without touching LRU state."""
        return self._index.get(block_addr)

    def choose_victim(
        self, block_addr: int, protected: Sequence[int] = ()
    ) -> CacheEntry[T]:
        """Return the entry (possibly valid) to be replaced for a fill."""
        set_index = self.set_index_of(block_addr)
        ways = self._sets[set_index]
        if ways is None:
            ways = self._materialize(set_index)
        for entry in ways:
            if not entry.valid:
                return entry
        way = self._policies[set_index].victim(protected)
        return ways[way]

    def fill(
        self,
        block_addr: int,
        payload: T,
        protected: Sequence[int] = (),
    ) -> Optional[CacheEntry[T]]:
        """Insert ``block_addr``; return the evicted entry copy (or None).

        The returned object is a detached :class:`CacheEntry` snapshot of the
        victim so the caller can write back its payload; the in-array entry
        is reused for the new block.
        """
        if block_addr in self._index:
            raise ValueError(f"block {block_addr:#x} already present")
        victim = self.choose_victim(block_addr, protected)
        evicted: Optional[CacheEntry[T]] = None
        if victim.valid:
            evicted = CacheEntry(victim.way, victim.set_index, True,
                                 victim.block_addr, victim.payload)
            del self._index[victim.block_addr]
        victim.valid = True
        victim.block_addr = block_addr
        victim.payload = payload
        self._index[block_addr] = victim
        self._policies[victim.set_index].touch(victim.way)
        return evicted

    def invalidate(self, block_addr: int) -> Optional[T]:
        """Remove ``block_addr``; return its payload if it was present."""
        entry = self._index.pop(block_addr, None)
        if entry is None:
            return None
        payload = entry.payload
        entry.valid = False
        entry.block_addr = -1
        entry.payload = None
        self._policies[entry.set_index].reset(entry.way)
        return payload

    def addr_of(self, entry: CacheEntry[T]) -> int:
        """The block address stored in ``entry``."""
        return entry.block_addr

    def __contains__(self, block_addr: int) -> bool:
        return block_addr in self._index

    def __len__(self) -> int:
        return len(self._index)

    def iter_valid(self) -> Iterator[CacheEntry[T]]:
        """Valid frames in set/way order (deterministic for callers that
        walk the array)."""
        for ways in self._sets:
            if ways is None:
                continue
            for entry in ways:
                if entry.valid:
                    yield entry

    def occupancy(self) -> float:
        return len(self) / (self.num_sets * self.ways)

"""A generic set-associative array with LRU replacement.

Used for the L1 data cache, the LLC, and the SAM metadata table — anything
that maps a block address to an entry with bounded associativity. Every set
keeps true LRU state (:class:`LruPolicy`). Entries are user-defined objects
attached to a :class:`CacheEntry` frame that carries the block address and
its set and way.

Two hot-path properties:

* **Block index** — the array keeps its frames in a dict keyed by block
  address, so ``lookup``/``peek``/``in``/``len`` are one dict operation
  instead of a set/tag computation and a scan of the ways.  The sets,
  ways and LRU state still model the hardware: the set index decides
  where a fill goes and which frame it evicts.
* **Resident-only frames** — a 16 MB LLC has ~256K ways.  A set's slot
  list and LRU state appear when a fill first lands there, so untouched
  sets cost nothing, and a frame exists only while its block is
  resident: a free way is a None slot, a fill builds the new block's
  frame, and eviction detaches the victim's frame and hands it back.

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
    """A resident block's frame: its way, set, block address and payload.

    ``__slots__``: large arrays hold hundreds of thousands of frames.  A
    frame lives in its set's slot while the block is resident; the one
    :meth:`CacheArray.fill` returns is the evicted block's record.
    """

    __slots__ = ("way", "set_index", "block_addr", "payload")

    def __init__(self, way: int, set_index: int, block_addr: int,
                 payload: T) -> None:
        self.way = way
        self.set_index = set_index
        self.block_addr = block_addr
        self.payload = payload


class CacheArray(Generic[T]):
    """Set-associative storage indexed by block address.

    The array hashes a block address to a set using the block number modulo
    the set count (after dropping slice-interleaving handled by callers).
    A touched set is a ``ways``-long slot list (None marks a free way).
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
        #: Slot lists (and their LRU state) appear at a set's first fill.
        self._sets: List[Optional[List[Optional[CacheEntry[T]]]]] = \
            [None] * num_sets
        self._policies: List[Optional[LruPolicy]] = [None] * num_sets
        #: Resident frames by block address.
        self._index: Dict[int, CacheEntry[T]] = {}

    # -- indexing -----------------------------------------------------------

    def set_index_of(self, block_addr: int) -> int:
        if self._local_shift is not None:
            return (block_addr >> self._local_shift) & self._set_mask
        return (block_addr // self.block_size) // self.index_divisor \
            % self.num_sets

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
    ) -> Optional[CacheEntry[T]]:
        """The resident frame a fill of ``block_addr`` would evict, or None
        while its set has a free way."""
        set_index = self.set_index_of(block_addr)
        slots = self._sets[set_index]
        if slots is None or None in slots:
            return None
        return slots[self._policies[set_index].victim(protected)]

    def fill(
        self,
        block_addr: int,
        payload: T,
        protected: Sequence[int] = (),
    ) -> Optional[CacheEntry[T]]:
        """Insert ``block_addr`` into the lowest free way of its set, or in
        place of the LRU unprotected block; return the evicted block's
        detached frame (or None)."""
        if block_addr in self._index:
            raise ValueError(f"block {block_addr:#x} already present")
        set_index = self.set_index_of(block_addr)
        slots = self._sets[set_index]
        if slots is None:
            slots = self._sets[set_index] = [None] * self.ways
            self._policies[set_index] = LruPolicy(self.ways)
        policy = self._policies[set_index]
        evicted: Optional[CacheEntry[T]] = None
        if None in slots:
            way = slots.index(None)
        else:
            way = policy.victim(protected)
            evicted = slots[way]
            del self._index[evicted.block_addr]
        entry = slots[way] = CacheEntry(way, set_index, block_addr, payload)
        self._index[block_addr] = entry
        policy.touch(way)
        return evicted

    def invalidate(self, block_addr: int) -> Optional[T]:
        """Remove ``block_addr``; return its payload if it was present."""
        entry = self._index.pop(block_addr, None)
        if entry is None:
            return None
        self._sets[entry.set_index][entry.way] = None
        self._policies[entry.set_index].reset(entry.way)
        return entry.payload

    def addr_of(self, entry: CacheEntry[T]) -> int:
        """The block address stored in ``entry``."""
        return entry.block_addr

    def __contains__(self, block_addr: int) -> bool:
        return block_addr in self._index

    def __len__(self) -> int:
        return len(self._index)

    def iter_valid(self) -> Iterator[CacheEntry[T]]:
        """Resident frames in set/way order (deterministic for callers that
        walk the array)."""
        for slots in self._sets:
            if slots is None:
                continue
            for entry in slots:
                if entry is not None:
                    yield entry

    def occupancy(self) -> float:
        return len(self) / (self.num_sets * self.ways)

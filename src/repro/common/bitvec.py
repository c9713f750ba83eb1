"""Small helpers for integers used as bit vectors.

PAM read/write vectors, SAM granule masks and the directory's core sets
(sharers, PRV sharers, busy-context waits, pending metadata; bit ``c`` =
core ``c``) are plain Python ints treated as bit sets; these helpers keep
that idiom readable.
The helpers stay the single call sites so hot-path representation choices
(native ``int.bit_count``, the byte-indexed set-bit table) live here only.
"""

from __future__ import annotations

from typing import Iterator

#: Set-bit positions for every byte value: iterating a mask walks it a byte
#: at a time through this table instead of shifting bit-by-bit.
_BYTE_SET_BITS = tuple(
    tuple(i for i in range(8) if value >> i & 1) for value in range(256))


def mask_for_range(offset: int, length: int) -> int:
    """Return a mask with ``length`` bits set starting at ``offset``."""
    return ((1 << length) - 1) << offset


def bit_count(value: int) -> int:
    """Count set bits (native ``int.bit_count``; CPython 3.10+)."""
    return value.bit_count()


def bits_set(value: int, mask: int) -> bool:
    """Return True if every bit of ``mask`` is set in ``value``."""
    return (value & mask) == mask


def iter_set_bits(value: int) -> Iterator[int]:
    """Yield the index of each set bit, ascending."""
    base = 0
    while value:
        byte = value & 0xFF
        if byte:
            for offset in _BYTE_SET_BITS[byte]:
                yield base + offset
        value >>= 8
        base += 8

"""Address arithmetic helpers.

Addresses are plain non-negative integers (byte addresses in a flat physical
address space). A *block* is a cache line; throughout the package block
addresses are identified by their base address (``addr & ~(block_size-1)``).
"""

from __future__ import annotations


def block_base(addr: int, block_size: int) -> int:
    """Return the base (aligned) address of the block containing ``addr``."""
    return addr & ~(block_size - 1)


def block_offset(addr: int, block_size: int) -> int:
    """Return the byte offset of ``addr`` within its block."""
    return addr & (block_size - 1)


def block_index(addr: int, block_size: int) -> int:
    """Return the block number (base address divided by block size)."""
    return addr // block_size


def slice_index(block_addr: int, block_size: int, num_slices: int) -> int:
    """Map a block to an LLC/directory slice by low block-number bits."""
    return (block_addr // block_size) % num_slices


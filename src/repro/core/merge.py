"""Byte-level merge of privatized copies — Section V-C/V-D.

When a privatized episode ends (or a single PRV copy is evicted), the LLC
copy of the block is updated at exactly the byte positions whose SAM
last-writer matches the responding core. With tracking granularity g > 1,
a granule's g bytes merge together.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def merge_block(
    llc_data: bytearray,
    incoming: Sequence[int],
    core: int,
    last_writer_map: List[Optional[int]],
    granularity: int = 1,
) -> int:
    """Merge ``incoming`` (core's block copy) into ``llc_data`` in place.

    Returns the number of bytes updated. ``last_writer_map`` has one slot
    per granule; bytes merge iff their granule's last writer == ``core``.
    """
    if len(incoming) != len(llc_data):
        raise ValueError(
            f"block size mismatch: {len(incoming)} vs {len(llc_data)}")
    updated = 0
    for granule, writer in enumerate(last_writer_map):
        if writer == core:
            start = granule * granularity
            end = start + granularity
            llc_data[start:end] = incoming[start:end]
            updated += granularity
    return updated

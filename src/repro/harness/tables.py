"""Result-table formatting shared by the benchmarks and examples."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([
            f"{v:.2f}" if isinstance(v, float) else str(v) for v in row
        ])
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)

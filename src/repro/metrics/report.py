"""Plain-text table rendering for benchmark harness output.

Every experiment prints the same rows/series the paper reports; these
helpers keep the formatting consistent and terminal-friendly, and
:func:`percentile` computes the tail columns the tables quote.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile with linear interpolation (deterministic, numpy-free);
    ``q`` in [0, 100].  Raises ``ValueError`` for no values."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render a table as aligned text."""
    cells = [[_fmt(v) for v in row] for row in rows]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header width {len(headers)}")

    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in cells)) if cells else len(str(headers[i]))
        for i in range(len(headers))
    ]

    def line(items: Sequence[str]) -> str:
        return "  ".join(item.rjust(w) for item, w in zip(items, widths))

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line([str(h) for h in headers]))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in cells)
    return "\n".join(out)

"""SM-allocation timeline rendering.

Turns a Slate scheduler's ``allocation_log`` into a terminal Gantt chart:
one row per time interval, 30 columns of SMs, one letter per kernel — the
paper's Figure 4 scheduling decisions made visible::

    t=  0.00 ms  GGGGGGGGGGGGGGGGGGGGGGGGGGGGGG   GS solo
    t=  2.50 ms  GGGGGGGGGGGGGGGGGGGGGGGGGGGRRR   GS shrinks, RG arrives
    t=  8.50 ms  GGGGGGGGGGGGGGGGGGGGGGGGGGG...   RG finished
    t=  8.80 ms  GGGGGGGGGGGGGGGGGGGGGGGGGGGGGG   GS grows
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.config import DeviceConfig, TITAN_XP

__all__ = ["TimelineRow", "build_timeline", "render_timeline"]


@dataclass(frozen=True)
class TimelineRow:
    """One allocation interval."""

    start: float
    #: kernel name -> inclusive (sm_low, sm_high).
    allocation: dict[str, tuple[int, int]]

    def lane(self, num_sms: int) -> str:
        """The row's SM occupancy string, one char per SM."""
        cells = ["."] * num_sms
        for name, (low, high) in sorted(self.allocation.items()):
            letter = name[0].upper()
            for sm in range(low, high + 1):
                cells[sm] = letter if cells[sm] == "." else "#"  # '#': overlap
        return "".join(cells)


def build_timeline(
    allocation_log: Sequence[tuple[float, dict[str, tuple[int, int]]]],
    coalesce_window: float = 0.0,
) -> list[TimelineRow]:
    """Convert a scheduler allocation log into deduplicated timeline rows.

    Consecutive identical allocations are merged; ``coalesce_window``
    additionally merges rows closer together than the window (the retreat
    and relaunch transients around a resize).
    """
    rows: list[TimelineRow] = []
    for t, allocation in allocation_log:
        if rows and rows[-1].allocation == allocation:
            continue
        if rows and coalesce_window > 0 and t - rows[-1].start < coalesce_window:
            rows[-1] = TimelineRow(start=rows[-1].start, allocation=dict(allocation))
            continue
        rows.append(TimelineRow(start=t, allocation=dict(allocation)))
    return rows


def render_timeline(
    allocation_log: Sequence[tuple[float, dict[str, tuple[int, int]]]],
    device: DeviceConfig = TITAN_XP,
    coalesce_window: float = 0.0,
    max_rows: int = 40,
) -> str:
    """Render the log as a text Gantt chart (see module docstring)."""
    rows = build_timeline(allocation_log, coalesce_window)
    if not rows:
        return "(empty timeline)"
    shown = rows[:max_rows]
    lines = [f"SM allocation timeline ({device.num_sms} SMs, '.'=idle):"]
    for row in shown:
        tenants = ", ".join(
            f"{name}[{low}-{high}]" for name, (low, high) in sorted(row.allocation.items())
        ) or "idle"
        lines.append(f"  t={row.start * 1e3:9.3f} ms  {row.lane(device.num_sms)}  {tenants}")
    if len(rows) > max_rows:
        lines.append(f"  ... {len(rows) - max_rows} more rows")
    return "\n".join(lines)

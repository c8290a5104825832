"""Plain-text charts for benchmark reports.

The paper presents its evaluation as bar charts (Figures 1, 9, 10, 11);
this module renders the reproduced numbers in the same visual shape as
ASCII bars, plus one-line sparklines for time series -- so a
terminal-only environment still gets figure-like artefacts next to the
tables.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

_BAR = "#"
_TICKS = " .:-=+*#%@"


def bar_chart(
    values: Mapping[str, float],
    title: str = "",
    width: int = 48,
    log_scale: bool = False,
    unit: str = "s",
) -> str:
    """Horizontal bars, one per labelled value (NaN rendered as such).

    ``log_scale`` mirrors the paper's log-axis Figures 9 and 10.
    """
    finite = [v for v in values.values() if v is not None and not math.isnan(v)]
    if not finite:
        return f"{title}\n(no data)"
    peak = max(finite)
    floor = min(v for v in finite if v > 0) if any(v > 0 for v in finite) else 1.0
    if log_scale and peak < 10 * floor:
        log_scale = False  # under one decade a log axis just distorts
    label_width = max(len(str(label)) for label in values)
    lines = [title] if title else []
    for label, value in values.items():
        if value is None or math.isnan(value):
            lines.append(f"{str(label):<{label_width}}  (wrong result)")
            continue
        if log_scale and value > 0 and peak > floor:
            fraction = (math.log10(value) - math.log10(floor)) / (
                math.log10(peak) - math.log10(floor)
            )
            fraction = max(fraction, 0.02)
        else:
            fraction = value / peak if peak else 0.0
        bar = _BAR * max(1, round(fraction * width))
        lines.append(f"{str(label):<{label_width}}  {bar} {value:.3g}{unit}")
    return "\n".join(lines)


def grouped_bar_chart(
    rows: Sequence[Mapping],
    group_key: str,
    series: Sequence[str],
    title: str = "",
    width: int = 40,
    log_scale: bool = True,
) -> str:
    """One bar block per row (e.g. per dataset), bars for each series.

    This is the shape of the paper's Figure 9/10 panels: datasets along
    the x axis, one bar per system.
    """
    blocks = [title] if title else []
    for row in rows:
        values = {name: row.get(name) for name in series if row.get(name) is not None}
        blocks.append(
            bar_chart(values, title=str(row[group_key]), width=width, log_scale=log_scale)
        )
    return "\n\n".join(blocks)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A one-line log-scale sparkline."""
    if not values:
        return "(empty)"
    clean = [max(v, 0.0) for v in values]
    if len(clean) > width:
        # downsample by taking the max of each bucket (keeps spikes)
        bucket = len(clean) / width
        clean = [
            max(clean[int(i * bucket) : max(int((i + 1) * bucket), int(i * bucket) + 1)])
            for i in range(width)
        ]
    positives = [v for v in clean if v > 0]
    if not positives:
        return _TICKS[0] * len(clean)
    lo = math.log10(min(positives))
    hi = math.log10(max(positives))
    span = (hi - lo) or 1.0
    out = []
    for value in clean:
        if value <= 0:
            out.append(_TICKS[0])
            continue
        level = (math.log10(value) - lo) / span
        out.append(_TICKS[1 + round(level * (len(_TICKS) - 2))])
    return "".join(out)

"""Text-report helpers: aligned tables and a small ASCII plotter for
the CLI verbs that print a figure or table of the paper."""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned text table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    )
    lines.append("  " + "-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in cells:
        lines.append(
            "  " + "  ".join(c.rjust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)


def ascii_plot(
    xs: Sequence[float],
    series: dict[str, Sequence[float]],
    width: int = 60,
    height: int = 16,
    title: str = "",
    y_label: str = "",
) -> str:
    """A rough ASCII scatter/line plot, one mark character per series."""
    marks = "*o+x#@"
    all_y = [y for ys in series.values() for y in ys]
    if not all_y or not xs:
        return "(no data)"
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = 0.0, max(all_y) * 1.05
    if x_max == x_min:
        x_max = x_min + 1
    if y_max == y_min:
        y_max = y_min + 1
    grid = [[" "] * width for _ in range(height)]
    for si, (name, ys) in enumerate(series.items()):
        mark = marks[si % len(marks)]
        for x, y in zip(xs, ys):
            col = int((x - x_min) / (x_max - x_min) * (width - 1))
            row = int((y - y_min) / (y_max - y_min) * (height - 1))
            grid[height - 1 - row][col] = mark
    lines = []
    if title:
        lines.append(title)
    legend = "   ".join(
        f"{marks[i % len(marks)]} {name}"
        for i, name in enumerate(series.keys())
    )
    lines.append(f"  [{legend}]")
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{y_max:8.1f} |"
        elif i == height - 1:
            label = f"{y_min:8.1f} |"
        else:
            label = "         |"
        lines.append(label + "".join(row))
    lines.append(
        "         +" + "-" * width
    )
    lines.append(
        f"          {x_min:<10.4g}"
        + " " * max(0, width - 22)
        + f"{x_max:>10.4g}"
    )
    if y_label:
        lines.append(f"  (y: {y_label})")
    return "\n".join(lines)

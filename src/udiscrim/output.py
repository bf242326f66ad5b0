"""Deterministic table output: CSV and a dependency-free SVG line chart.

Both writers produce identical bytes for identical tables.  CSV goes
through the standard library's writer with LF line endings: a float cell
is its shortest round-trip representation with '.' decimals, and a cell
holding a comma or a quote is quoted, so every row reads back as one cell
per column.  The SVG contains no timestamps, random ids or external
references.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

from .optics import as_reals
from .sweeps import Table

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_WIDTH = 860
_HEIGHT = 520
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 230
_MARGIN_TOP = 50
_MARGIN_BOTTOM = 60


def csv_bytes(table: Table) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerows(table.rows)
    return buffer.getvalue().encode("ascii")


def write_csv(table: Table, path: str | Path) -> Path:
    path = Path(path)
    path.write_bytes(csv_bytes(table))
    return path


def _line(x1, y1, x2, y2, stroke: str, width: int) -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x, y, size: int, body: str, anchor: str = "") -> str:
    """A sans-serif label; ``body`` is escaped here, so no caller can forget to."""
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-size="{size}" '
            f'font-family="sans-serif">{body}</text>')


def svg_bytes(table: Table, title: str | None = None, x_label: str = "x") -> bytes:
    """Line chart of a sweep table.

    Columns named ``analytic*`` become polylines; measured ``p_*`` columns
    become markers with error bars when a matching ``se_`` column exists.
    The y axis is fixed to [0, 1] since every plotted quantity is a
    fraction.  A non-finite cell in a drawn column is a ``ValueError``
    naming it, such as ``p_plus[0]``.
    """
    if not table.rows:
        raise ValueError("cannot chart an empty table")
    title = title if title is not None else table.name
    # Analytic lines first, then measured markers, each with a legend entry.
    series = [c for c in table.columns[1:] if c.startswith("analytic")] + [
        c for c in table.columns[1:] if c.startswith("p_") and not c.startswith("p_inconclusive")
    ]
    drawn = {table.columns[0], *series, *(f"se_{c}" for c in series if c.startswith("p_"))}
    values = {
        name: as_reals(name, [row[i] for row in table.rows], None, -math.inf)
        for i, name in enumerate(table.columns) if name in drawn
    }
    xs = values[table.columns[0]]
    x_min, x_max = min(xs), max(xs)
    if not math.isfinite(x_max - x_min):
        raise ValueError(f"{table.columns[0]} spans {x_min!r} to {x_max!r}, "
                         "wider than the float range")
    span = x_max - x_min if x_max > x_min else 1.0

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_min) / span * plot_w

    def py(y: float) -> float:
        y = min(max(y, 0.0), 1.0)
        return _MARGIN_TOP + (1.0 - y) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        _text(f"{_WIDTH / 2:.1f}", 28, 18, title, "middle"),
    ]

    for i in range(6):
        y = i / 5.0
        parts.append(_line(_MARGIN_LEFT, f"{py(y):.2f}", _MARGIN_LEFT + plot_w, f"{py(y):.2f}",
                           "#dddddd", 1))
        parts.append(_text(_MARGIN_LEFT - 8, f"{py(y) + 4:.2f}", 12, f"{y:.1f}", "end"))
    bottom = _MARGIN_TOP + plot_h
    for i in range(6):
        x = x_min + span * i / 5.0
        parts.append(_line(f"{px(x):.2f}", bottom, f"{px(x):.2f}", bottom + 5, "#000000", 1))
        parts.append(_text(f"{px(x):.2f}", bottom + 20, 12, f"{x:.3g}", "middle"))
    parts.append(_line(_MARGIN_LEFT, bottom, _MARGIN_LEFT + plot_w, bottom, "#000000", 2))
    parts.append(_line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, bottom, "#000000", 2))
    parts.append(_text(f"{_MARGIN_LEFT + plot_w / 2:.1f}", _HEIGHT - 18, 14, x_label, "middle"))

    legend_x = _MARGIN_LEFT + plot_w + 18
    for i, name in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        legend_y = _MARGIN_TOP + 10 + 20 * i
        ys = values[name]
        if name.startswith("analytic"):
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>'
            )
            parts.append(_line(legend_x, legend_y, legend_x + 22, legend_y, color, 2))
        else:
            ses = values.get(f"se_{name}")
            for k, (x, y) in enumerate(zip(xs, ys)):
                cx = f"{px(x):.2f}"
                if ses is not None:
                    parts.append(_line(cx, f"{py(y + ses[k]):.2f}", cx, f"{py(y - ses[k]):.2f}",
                                       color, 1))
                parts.append(f'<circle cx="{cx}" cy="{py(y):.2f}" r="3" fill="{color}"/>')
            parts.append(
                f'<circle cx="{legend_x + 11}" cy="{legend_y}" r="3" fill="{color}"/>'
            )
        parts.append(_text(legend_x + 28, legend_y + 4, 12, name))

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("ascii")


def write_svg(
    table: Table,
    path: str | Path,
    title: str | None = None,
    x_label: str = "x",
) -> Path:
    path = Path(path)
    path.write_bytes(svg_bytes(table, title, x_label))
    return path


def emit(table: Table, path: str | Path, fmt: str = "csv", x_label: str = "x") -> Path:
    """Write ``table`` to ``path`` as ``csv`` or ``svg``."""
    if fmt == "csv":
        return write_csv(table, path)
    if fmt == "svg":
        return write_svg(table, path, x_label=x_label)
    raise ValueError(f"unknown output format {fmt!r}")

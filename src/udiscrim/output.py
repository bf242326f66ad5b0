"""Deterministic table output: CSV and a dependency-free SVG line chart.

Both writers produce identical bytes for identical tables: CSV cells use
the shortest round-trip float representation with '.' decimals and LF
line endings, and the SVG contains no timestamps, random ids or external
references.
"""

from __future__ import annotations

from pathlib import Path

from .sweeps import Table

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_WIDTH = 860
_HEIGHT = 520
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 230
_MARGIN_TOP = 50
_MARGIN_BOTTOM = 60


def _cell(value: float) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def csv_bytes(table: Table) -> bytes:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def write_csv(table: Table, path: str | Path) -> Path:
    path = Path(path)
    path.write_bytes(csv_bytes(table))
    return path


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_bytes(table: Table, title: str | None = None, x_label: str = "x") -> bytes:
    """Line chart of a sweep table.

    Columns named ``analytic*`` become polylines; measured ``p_*`` columns
    become markers with error bars when a matching ``se_`` column exists.
    The y axis is fixed to [0, 1] since every plotted quantity is a
    fraction.
    """
    if not table.rows:
        raise ValueError("cannot chart an empty table")
    title = title if title is not None else table.name
    cols = {name: i for i, name in enumerate(table.columns)}
    xs = [row[0] for row in table.rows]
    x_min, x_max = min(xs), max(xs)
    span = x_max - x_min if x_max > x_min else 1.0

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_min) / span * plot_w

    def py(y: float) -> float:
        y = min(max(y, 0.0), 1.0)
        return _MARGIN_TOP + (1.0 - y) * plot_h

    # Analytic lines first, then measured markers, each with a legend entry.
    series = [c for c in table.columns[1:] if c.startswith("analytic")] + [
        c for c in table.columns[1:] if c.startswith("p_") and not c.startswith("p_inconclusive")
    ]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="28" text-anchor="middle" font-size="18" '
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]

    for i in range(6):
        y = i / 5.0
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{py(y):.2f}" x2="{_MARGIN_LEFT + plot_w}" '
            f'y2="{py(y):.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{py(y) + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">{y:.1f}</text>'
        )
    for i in range(6):
        x = x_min + span * i / 5.0
        parts.append(
            f'<line x1="{px(x):.2f}" y1="{_MARGIN_TOP + plot_h}" x2="{px(x):.2f}" '
            f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px(x):.2f}" y="{_MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{x:.3g}</text>'
        )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP + plot_h}" '
        f'x2="{_MARGIN_LEFT + plot_w}" y2="{_MARGIN_TOP + plot_h}" '
        'stroke="#000000" stroke-width="2"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{_MARGIN_TOP + plot_h}" stroke="#000000" stroke-width="2"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 18}" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{_escape(x_label)}</text>'
    )

    legend_x = _MARGIN_LEFT + plot_w + 18
    for i, name in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        legend_y = _MARGIN_TOP + 10 + 20 * i
        if name.startswith("analytic"):
            pts = " ".join(
                f"{px(row[0]):.2f},{py(row[cols[name]]):.2f}" for row in table.rows
            )
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>'
            )
            parts.append(
                f'<line x1="{legend_x}" y1="{legend_y}" x2="{legend_x + 22}" y2="{legend_y}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
        else:
            se_name = f"se_{name}"
            for row in table.rows:
                x = px(row[0])
                y = py(row[cols[name]])
                if se_name in cols:
                    se = row[cols[se_name]]
                    y_lo = py(row[cols[name]] - se)
                    y_hi = py(row[cols[name]] + se)
                    parts.append(
                        f'<line x1="{x:.2f}" y1="{y_hi:.2f}" x2="{x:.2f}" y2="{y_lo:.2f}" '
                        f'stroke="{color}" stroke-width="1"/>'
                    )
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>')
            parts.append(
                f'<circle cx="{legend_x + 11}" cy="{legend_y}" r="3" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{legend_x + 28}" y="{legend_y + 4}" font-size="12" '
            f'font-family="sans-serif">{_escape(name)}</text>'
        )

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

"""Standalone SVG frequency histograms.

Reproduction artifacts must be viewable with zero dependencies, so the
plots are plain hand-written SVG: bars, a frequency polygon through the
bin centers, axis lines, ticks and labels.  The module needs only numpy.
"""

from __future__ import annotations

import numpy as np

WIDTH = 640
HEIGHT = 420
MARGIN_LEFT = 64
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 52


def escape(text: str) -> str:
    """text with &, > and < replaced by their XML entities, & first: the
    bytes ``xml.sax.saxutils.escape`` gives, without importing it (and,
    through it, ``urllib.request``, ``http.client``, ``ssl`` and ``email``)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _y_ticks(top: float) -> list[int]:
    if top <= 5:
        return list(range(0, int(top) + 1))
    step = int(np.ceil(top / 5))
    return list(range(0, int(top) + step, step))


def histogram_svg(edges, counts, title: str, xlabel: str) -> str:
    edges = np.asarray(edges, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if edges.size != counts.size + 1:
        raise ValueError("need len(edges) == len(counts) + 1")
    lo, hi = float(edges[0]), float(edges[-1])
    top = float(counts.max()) if counts.size and counts.max() > 0 else 1.0
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    x_axis_y = MARGIN_TOP + plot_h

    def px(x: np.ndarray) -> np.ndarray:
        return MARGIN_LEFT + (x - lo) / (hi - lo) * plot_w

    def py(c: np.ndarray) -> np.ndarray:
        return x_axis_y - c / top * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title)}</text>',
    ]
    xs, ys = px(edges), py(counts)
    bars = zip(xs[:-1].tolist(), np.diff(xs).tolist(), ys.tolist(), (x_axis_y - ys).tolist())
    for x0, width, y, height in bars:
        parts.append(
            f'<rect x="{x0:.2f}" y="{y:.2f}" width="{width:.2f}" '
            f'height="{height:.2f}" fill="#9ecae1" stroke="#4292c6" '
            'stroke-width="0.5"/>'
        )
    centers = px(0.5 * (edges[:-1] + edges[1:]))
    poly = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(centers.tolist(), ys.tolist()))
    parts.append(f'<polyline points="{poly}" fill="none" stroke="#08306b" stroke-width="1.5"/>')
    # axes
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{x_axis_y}" x2="{MARGIN_LEFT + plot_w}" '
        f'y2="{x_axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{x_axis_y}" stroke="black"/>'
    )
    ticks = np.linspace(lo, hi, 5)
    for tick, x in zip(ticks.tolist(), px(ticks).tolist()):
        parts.append(f'<line x1="{x:.2f}" y1="{x_axis_y}" x2="{x:.2f}" y2="{x_axis_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{x_axis_y + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.4g}</text>'
        )
    y_ticks = _y_ticks(top)
    for tick, y in zip(y_ticks, py(np.array(y_ticks, dtype=float)).tolist()):
        parts.append(f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{MARGIN_LEFT}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{MARGIN_LEFT - 9}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {MARGIN_TOP + plot_h / 2:.1f})">frequency</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_histogram_svg(path, edges, counts, title: str, xlabel: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(histogram_svg(edges, counts, title, xlabel))

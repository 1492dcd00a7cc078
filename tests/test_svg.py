from xml.sax.saxutils import escape

import numpy as np
import pytest

from fracmix.experiment import make_histogram
from fracmix.svg import (
    HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    WIDTH,
    _y_ticks,
    histogram_svg,
)


def reference_histogram_svg(edges, counts, title, xlabel):
    """``histogram_svg`` as it was written point by point, one scalar
    pixel position at a time: the oracle for the array version."""
    edges = np.asarray(edges, dtype=float)
    counts = np.asarray(counts, dtype=float)
    lo, hi = float(edges[0]), float(edges[-1])
    top = float(counts.max()) if counts.size and counts.max() > 0 else 1.0
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x):
        return MARGIN_LEFT + (x - lo) / (hi - lo) * plot_w

    def py(c):
        return MARGIN_TOP + plot_h - c / top * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title)}</text>',
    ]
    for i, c in enumerate(counts):
        x0, x1 = px(edges[i]), px(edges[i + 1])
        y = py(c)
        parts.append(
            f'<rect x="{x0:.2f}" y="{y:.2f}" width="{x1 - x0:.2f}" '
            f'height="{MARGIN_TOP + plot_h - y:.2f}" fill="#9ecae1" stroke="#4292c6" '
            'stroke-width="0.5"/>'
        )
    centers = 0.5 * (edges[:-1] + edges[1:])
    poly = " ".join(f"{px(x):.2f},{py(c):.2f}" for x, c in zip(centers, counts))
    parts.append(f'<polyline points="{poly}" fill="none" stroke="#08306b" stroke-width="1.5"/>')
    x_axis_y = MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{x_axis_y}" x2="{MARGIN_LEFT + plot_w}" '
        f'y2="{x_axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{x_axis_y}" stroke="black"/>'
    )
    for tick in np.linspace(lo, hi, 5):
        x = px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{x_axis_y}" x2="{x:.2f}" y2="{x_axis_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{x_axis_y + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.4g}</text>'
        )
    for tick in _y_ticks(top):
        y = py(tick)
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


def fuzzed_histograms(count, seed=17):
    """Histograms of constant, normal, heavy-tailed and one-ulp-spread
    samples at magnitudes from 1e-300 to 1e300, plus hand-made edges and
    counts with empty and one-bin histograms."""
    gen = np.random.default_rng(seed)
    for i in range(count):
        scale = 10.0 ** gen.choice([-300, -150, -5, 0, 3, 150, 300])
        reps = int(gen.choice([1, 2, 5, 32, 400]))
        kind = i % 5
        if kind == 4:
            bins = int(gen.integers(1, 40))
            edges = np.sort(gen.standard_normal(bins + 1)) * scale
            if np.unique(edges).size == bins + 1:
                counts = gen.integers(0, 3, bins) * gen.integers(0, 10**int(gen.integers(1, 7)))
                yield edges, counts
            continue
        center = gen.standard_normal() * scale
        if kind == 0:  # zero spread
            samples = np.full(reps, center)
        elif kind == 1:
            samples = center * gen.choice([0.0, 1.0, 1e6]) + scale * gen.standard_normal(reps)
        elif kind == 2:
            samples = scale * gen.standard_t(2, reps)
        else:  # a spread of one ulp
            samples = np.array([center, np.nextafter(center, np.inf)])
        hist = make_histogram(samples)
        yield hist.edges, hist.counts


def test_array_coordinates_give_the_point_by_point_text():
    histograms = list(fuzzed_histograms(260))
    assert len(histograms) >= 200
    for edges, counts in histograms:
        assert histogram_svg(edges, counts, "mu <&> \"x\"", "mu estimate") == (
            reference_histogram_svg(edges, counts, "mu <&> \"x\"", "mu estimate")
        )


def test_histogram_svg_checks_its_shapes():
    with pytest.raises(ValueError, match="len\\(edges\\) == len\\(counts\\) \\+ 1"):
        histogram_svg([0.0, 1.0], [1, 2], "t", "x")

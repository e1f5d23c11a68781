"""Standalone SVG charts: line series, histograms, and scatter plots.

Every renderer returns a complete SVG document as a string; nothing here
depends on anything beyond the standard library and numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .record import field, record

WIDTH = 640
HEIGHT = 420
MARGIN_LEFT = 70
MARGIN_RIGHT = 24
MARGIN_TOP = 46
MARGIN_BOTTOM = 58

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

FONT = "font-family=\"Helvetica, Arial, sans-serif\""


class ChartStyle(NamedTuple):
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    include_zero_y: bool = False


@record
class DataSeries:
    """One named sequence of points."""

    x: np.ndarray
    y: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.size == 0 or self.x.shape != self.y.shape:
            raise ValueError("series needs matching non-empty x and y")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list:
    """Round tick positions on the 1/2/5 ladder covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * power:
            step = mult * power
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _escape(text: str) -> str:
    """Text as SVG element content: &, < and > become entities; quotes
    only need escaping inside attribute values, which take no text."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    return f"{value:g}"


@record
class _Canvas:
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    parts: list = field(default_factory=list)

    def px(self, x: float) -> float:
        span = self.x_hi - self.x_lo
        frac = (x - self.x_lo) / span
        return MARGIN_LEFT + frac * (WIDTH - MARGIN_LEFT - MARGIN_RIGHT)

    def py(self, y: float) -> float:
        span = self.y_hi - self.y_lo
        frac = (y - self.y_lo) / span
        return HEIGHT - MARGIN_BOTTOM - frac * (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM)


def _pad(lo: float, hi: float) -> tuple:
    if hi > lo:
        pad = 0.04 * (hi - lo)
        return lo - pad, hi + pad
    pad = max(1.0, abs(lo) * 0.05)
    return lo - pad, hi + pad


def _open_canvas(xs, ys, style: ChartStyle) -> _Canvas:
    x_lo, x_hi = _pad(float(np.min(xs)), float(np.max(xs)))
    y_min = float(np.min(ys))
    y_max = float(np.max(ys))
    if style.include_zero_y:
        y_min = min(y_min, 0.0)
        y_max = max(y_max, 0.0)
    y_lo, y_hi = _pad(y_min, y_max)
    canvas = _Canvas(x_lo, x_hi, y_lo, y_hi)
    p = canvas.parts
    p.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
             f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    p.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if style.title:
        p.append(f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
                 f'{FONT} font-size="16">'
                 f'{_escape(style.title)}</text>')

    bottom = HEIGHT - MARGIN_BOTTOM
    right = WIDTH - MARGIN_RIGHT
    for t in _nice_ticks(canvas.x_lo, canvas.x_hi):
        x = canvas.px(t)
        p.append(f'<line x1="{x:.2f}" y1="{MARGIN_TOP}" x2="{x:.2f}" '
                 f'y2="{bottom}" stroke="#dddddd" stroke-width="1"/>')
        p.append(f'<text x="{x:.2f}" y="{bottom + 18}" text-anchor="middle" '
                 f'{FONT} font-size="11">{_fmt(t)}</text>')
    for t in _nice_ticks(canvas.y_lo, canvas.y_hi):
        y = canvas.py(t)
        p.append(f'<line x1="{MARGIN_LEFT}" y1="{y:.2f}" x2="{right}" '
                 f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        p.append(f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" '
                 f'text-anchor="end" {FONT} font-size="11">{_fmt(t)}</text>')
    p.append(f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" '
             f'width="{right - MARGIN_LEFT}" height="{bottom - MARGIN_TOP}" '
             f'fill="none" stroke="#333333" stroke-width="1"/>')
    if style.x_label:
        p.append(f'<text x="{(MARGIN_LEFT + right) / 2}" y="{HEIGHT - 14}" '
                 f'text-anchor="middle" {FONT} font-size="13">'
                 f'{_escape(style.x_label)}</text>')
    if style.y_label:
        y_mid = (MARGIN_TOP + bottom) / 2
        p.append(f'<text x="18" y="{y_mid}" text-anchor="middle" {FONT} '
                 f'font-size="13" transform="rotate(-90 18 {y_mid})">'
                 f'{_escape(style.y_label)}</text>')
    return canvas


def _legend(canvas: _Canvas, labels: list):
    named = [(i, lab) for i, lab in enumerate(labels) if lab]
    if not named:
        return
    x = WIDTH - MARGIN_RIGHT - 150
    y = MARGIN_TOP + 14
    for i, label in named:
        color = PALETTE[i % len(PALETTE)]
        canvas.parts.append(f'<rect x="{x}" y="{y - 9}" width="14" height="9" '
                            f'fill="{color}"/>')
        canvas.parts.append(f'<text x="{x + 20}" y="{y}" {FONT} font-size="12">'
                            f'{_escape(label)}</text>')
        y += 18


def _close(canvas: _Canvas) -> str:
    canvas.parts.append("</svg>")
    return "\n".join(canvas.parts)


# Points formatted per block, so no list of every point's text is held at once.
_BLOCK_POINTS = 32


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """SVG polyline points "x,y x,y ..." at two decimals; px and py come
    from the canvas's px and py on whole arrays, the same IEEE operations
    per point as on scalars."""
    point = "{:.2f},{:.2f}".format
    return " ".join(
        " ".join(map(point, px[k:k + _BLOCK_POINTS].tolist(),
                     py[k:k + _BLOCK_POINTS].tolist()))
        for k in range(0, px.size, _BLOCK_POINTS))


def render_series(series: list, style: ChartStyle = ChartStyle()) -> str:
    """Polyline chart; one polyline per series, legend when labeled."""
    if not series:
        raise ValueError("no series to draw")
    series = [s if isinstance(s, DataSeries) else DataSeries(*s) for s in series]
    xs = np.concatenate([s.x for s in series])
    ys = np.concatenate([s.y for s in series])
    canvas = _open_canvas(xs, ys, style)
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = _points(canvas.px(s.x), canvas.py(s.y))
        canvas.parts.append(f'<polyline points="{pts}" fill="none" '
                            f'stroke="{color}" stroke-width="1.6"/>')
    _legend(canvas, [s.label for s in series])
    return _close(canvas)


def histogram_counts(values, bins: int) -> tuple:
    """Equal-width bin edges and counts; every sample lands in one bin."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("no values to bin")
    if bins <= 0:
        raise ValueError("need a positive bin count")
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    # a bin count and range take numpy's equal-width path, which places
    # each value against these same edges without sorting the values
    counts, _ = np.histogram(values, bins=bins, range=(lo, hi))
    return edges, counts


def render_histogram(values, bins: int = 40,
                     style: ChartStyle = ChartStyle()) -> str:
    """Bar chart of binned counts; one rect per non-empty bin."""
    edges, counts = histogram_counts(values, bins)
    style = ChartStyle(style.title, style.x_label, style.y_label or "count",
                       include_zero_y=True)
    canvas = _open_canvas(edges, counts, style)
    base = canvas.py(0.0)
    for k in range(counts.size):
        if counts[k] == 0:
            continue
        x0 = canvas.px(edges[k])
        x1 = canvas.px(edges[k + 1])
        y = canvas.py(float(counts[k]))
        canvas.parts.append(f'<rect x="{x0:.2f}" y="{y:.2f}" '
                            f'width="{x1 - x0:.2f}" height="{base - y:.2f}" '
                            f'fill="{PALETTE[0]}" stroke="white" '
                            f'stroke-width="0.5"/>')
    return _close(canvas)


def render_scatter(series: list, style: ChartStyle = ChartStyle()) -> str:
    """Marker chart; one circle of radius 2.2 per point, colored per series."""
    if not series:
        raise ValueError("no series to draw")
    series = [s if isinstance(s, DataSeries) else DataSeries(*s) for s in series]
    xs = np.concatenate([s.x for s in series])
    ys = np.concatenate([s.y for s in series])
    canvas = _open_canvas(xs, ys, style)
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        for x, y in zip(s.x, s.y):
            canvas.parts.append(f'<circle cx="{canvas.px(x):.2f}" '
                                f'cy="{canvas.py(y):.2f}" r="2.2" '
                                f'fill="{color}" fill-opacity="0.7"/>')
    _legend(canvas, [s.label for s in series])
    return _close(canvas)


def write_svg(path, svg_text: str):
    with open(path, "w") as fh:
        fh.write(svg_text)
        if not svg_text.endswith("\n"):
            fh.write("\n")

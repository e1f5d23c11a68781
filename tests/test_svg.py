import html
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gridstudies import cli, stability, svg
from gridstudies.svg import (
    ChartStyle,
    DataSeries,
    histogram_counts,
    render_histogram,
    render_scatter,
    render_series,
    write_svg,
)

NS = "{http://www.w3.org/2000/svg}"


def _parse(svg_text):
    return ET.fromstring(svg_text)


def _all(root, tag):
    return root.findall(f".//{NS}{tag}")


class TestSeries:

    def test_two_point_series_is_one_polyline_with_two_vertices(self):
        svg = render_series([DataSeries([0.0, 1.0], [1.0, 3.0])])
        root = _parse(svg)
        lines = _all(root, "polyline")
        assert len(lines) == 1
        points = lines[0].get("points").split()
        assert len(points) == 2

    def test_multiple_series_get_own_polylines_and_legend(self):
        svg = render_series(
            [DataSeries([0, 1, 2], [1, 2, 3], "first"),
             DataSeries([0, 1, 2], [3, 2, 1], "second")],
            ChartStyle(title="pair", x_label="t", y_label="v"))
        root = _parse(svg)
        assert len(_all(root, "polyline")) == 2
        texts = [t.text for t in _all(root, "text")]
        assert "first" in texts and "second" in texts
        assert "pair" in texts and "t" in texts and "v" in texts

    def test_axes_have_tick_labels(self):
        svg = render_series([DataSeries([0.0, 10.0], [0.0, 100.0])])
        root = _parse(svg)
        labels = [t.text for t in _all(root, "text")]
        assert any(lab == "5" for lab in labels)
        assert any(lab == "50" for lab in labels)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            render_series([])
        with pytest.raises(ValueError):
            DataSeries([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DataSeries([1.0, 2.0], [1.0])

    def test_well_formed_with_hostile_labels(self):
        svg = render_series([DataSeries([0, 1], [0, 1], "a<b & c>d")],
                            ChartStyle(title="x < y"))
        root = _parse(svg)   # would raise on malformed XML
        assert root.tag == f"{NS}svg"

    @pytest.mark.parametrize("text", ["", "plain", "a<b & c>d", "&amp;",
                                      "\"q\" and 'p'", "<>&\"'" * 2, "µ > Δ"])
    def test_text_is_escaped_as_html_escape_without_quotes(self, text):
        assert svg._escape(text) == html.escape(text, quote=False)
        doc = render_series([DataSeries([0, 1], [0, 1], text or "x")],
                            ChartStyle(title=text, x_label=text, y_label=text))
        # title, both axis labels and the legend entry
        want = 4 if text else 1
        assert doc.count(f">{html.escape(text or 'x', quote=False)}</text>") == want
        labels = [t.text or "" for t in _all(_parse(doc), "text")]
        assert labels.count(text or "x") == want


class TestHistogram:

    def test_bin_counts_sum_to_sample_size(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(3.5, 0.7, 50_000)
        edges, counts = histogram_counts(values, 40)
        assert counts.sum() == 50_000
        assert edges.size == 41
        assert edges[0] == values.min() and edges[-1] == values.max()

    def test_rect_per_nonempty_bin(self):
        values = [0.5, 0.6, 2.5, 2.6, 2.7]
        edges, counts = histogram_counts(values, 3)
        svg = render_histogram(values, bins=3)
        root = _parse(svg)
        rects = _all(root, "rect")
        # background + frame + one bar per non-empty bin
        bars = len(rects) - 2
        assert bars == int((counts > 0).sum())

    def test_constant_data_still_renders(self):
        svg = render_histogram([5.0, 5.0, 5.0], bins=4)
        assert _parse(svg) is not None

    def test_counts_match_the_array_bins_oracle(self):
        # the equal-width path bins each value as the array-of-edges call
        # does: random sets of several shapes and sizes, plus every edge
        # and the doubles one ulp either side of it
        rng = np.random.default_rng(24)
        for trial in range(3000):
            size = int(rng.integers(1, 60))
            values = [rng.normal(0, 10, size), rng.lognormal(3.5, 0.7, size),
                      rng.integers(-5, 6, size).astype(float),
                      rng.uniform(1e-3, 2e-3, size)][trial % 4]
            bins = int(rng.integers(1, 50))
            lo, hi = values.min(), values.max()
            edges = np.linspace(lo, hi if hi > lo else lo + 1.0, bins + 1)
            near = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                   np.nextafter(edges, np.inf)])
            near = near[(near >= lo) & (near <= hi)]
            values = np.concatenate([values, rng.choice(near, size)])
            got_edges, got = histogram_counts(values, bins)
            want, want_edges = np.histogram(values, bins=edges)
            assert got_edges.tobytes() == want_edges.tobytes() == edges.tobytes()
            assert np.array_equal(got, want), trial

    def test_empty_or_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            histogram_counts([], 10)
        with pytest.raises(ValueError):
            histogram_counts([1.0], 0)


def render_series_oracle(series, style=ChartStyle()):
    """render_series as it formatted one point at a time through the
    canvas's px and py on numpy scalars: the byte oracle of the array path."""
    series = [s if isinstance(s, DataSeries) else DataSeries(*s) for s in series]
    xs = np.concatenate([s.x for s in series])
    ys = np.concatenate([s.y for s in series])
    canvas = svg._open_canvas(xs, ys, style)
    for i, s in enumerate(series):
        color = svg.PALETTE[i % len(svg.PALETTE)]
        pts = " ".join(f"{canvas.px(x):.2f},{canvas.py(y):.2f}"
                       for x, y in zip(s.x, s.y))
        canvas.parts.append(f'<polyline points="{pts}" fill="none" '
                            f'stroke="{color}" stroke-width="1.6"/>')
    svg._legend(canvas, [s.label for s in series])
    return svg._close(canvas)


class TestSeriesMatchesPointOracle:

    def test_stability_trace(self):
        # the 1776 MW / 100 ms chart of `gridstudies stability`
        result = stability.simulate(stability.SmibModel(),
                                    cli._operating_point(1776.0),
                                    stability.FaultEvent(duration=0.1))
        series = [DataSeries(result.trace.times,
                             np.degrees(result.trace.delta_rad), "rotor angle")]
        style = ChartStyle("1776 MW, 100 ms fault", "t (s)", "delta (deg)")
        assert render_series(series, style) == render_series_oracle(series, style)

    def test_zeros_and_negatives(self):
        rng = np.random.default_rng(5)
        n = 2 * svg._BLOCK_POINTS + 1
        x = np.linspace(-3.0, 7.0, n)
        y = rng.normal(0.0, 50.0, n)
        y[::7] = 0.0
        y[1::11] = -0.0
        series = [DataSeries(x, y, "noise"), DataSeries(x[:1], [-2.5], "one"),
                  DataSeries(-x, -y)]
        style = ChartStyle("mixed", include_zero_y=True)
        assert render_series(series, style) == render_series_oracle(series, style)

    @pytest.mark.parametrize("value", [0.0, -4.25, 1776.0])
    def test_constant_series(self, value):
        series = [DataSeries(np.arange(5.0), np.full(5, value))]
        assert render_series(series) == render_series_oracle(series)


class TestScatter:

    def test_one_marker_per_row(self):
        rng = np.random.default_rng(1)
        svg = render_scatter([DataSeries(rng.uniform(0, 1, 137),
                                         rng.uniform(0, 1, 137))])
        root = _parse(svg)
        assert len(_all(root, "circle")) == 137

    def test_groups_use_distinct_colors(self):
        svg = render_scatter([DataSeries([1, 2], [1, 2], "one"),
                              DataSeries([3, 4], [3, 4], "two")])
        root = _parse(svg)
        fills = {c.get("fill") for c in _all(root, "circle")}
        assert len(fills) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_scatter([])


class TestWrite:

    def test_write_svg_round_trip(self, tmp_path):
        path = tmp_path / "chart.svg"
        write_svg(path, render_series([DataSeries([0, 1], [1, 0])]))
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        _parse(text)

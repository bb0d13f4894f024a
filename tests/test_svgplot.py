import math

import pytest

from fraccomp.svgplot import _labelled_ticks, _ticks, _widen, write_svg_plot

BIG = 1.7976931348623157e308


@pytest.mark.parametrize("lo, hi", [
    (0.9999999999999996, 1.0), (1.0, 1.0 + 2.0 ** -52), (-2.5, -2.5 + 1e-15),
    (1e300, 1e300), (-BIG, -BIG), (0.0, 0.0), (5e-324, 1e-323), (1e-320, 2e-320),
    (-1.7e308, 1.7e308), (-BIG, BIG), (0.0, BIG), (-BIG, 0.0), (1e307, BIG),
    (3.0, 1.0), (-3.0, 7.0), (1e-300, 3e-300), (1e-12, 1.0000001e-12),
])
def test_ticks_are_few_and_finite(lo, hi):
    # narrow ranges once stalled the tick loop (v += step below half an ulp
    # of v) and grew the list until the memory ran out; a width that
    # overflows must not raise
    ticks = _ticks(lo, hi)
    assert 2 <= len(ticks) <= 12
    assert all(math.isfinite(v) for v in ticks)
    assert ticks == sorted(ticks)


def test_ticks_of_a_plain_range():
    assert _ticks(0.0, 1.0) == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    assert _ticks(-3.0, 7.0) == [-2.0, 0.0, 2.0, 4.0, 6.0]


def test_near_constant_curve_plots(tmp_path):
    path = tmp_path / "flat.svg"
    write_svg_plot(path, [([0.0, 0.5, 1.0], [0.9999999999999996, 1.0, 1.0], "u")])
    points = path.read_text().split('<polyline points="')[1].split('"')[0]
    coords = [float(c) for p in points.split() for c in p.split(",")]
    assert len(coords) == 6 and all(math.isfinite(c) for c in coords)


@pytest.mark.parametrize("lo, hi", [
    (1.0, 1.0 + 1e-7), (1.0, 1.0 + 2e-9), (-2.5, -2.5 + 1e-8), (123456.0, 123456.001),
    (1e-12, 1.0000001e-12), (1e300, 1.000000002e300), (-7e-200, -6.9999999e-200),
])
def test_labels_tell_adjacent_ticks_apart(lo, hi):
    # six significant digits printed every tick of [1, 1 + 1e-7] as "1"
    assert _widen(lo, hi) == (lo, hi)
    ticks, labels = zip(*_labelled_ticks(lo, hi))
    assert list(ticks) == _ticks(lo, hi) and len(set(labels)) == len(labels)
    step = ticks[1] - ticks[0]
    assert all(abs(float(s) - v) < 0.01 * step for s, v in zip(labels, ticks))


def test_labels_of_a_plain_range_are_unchanged():
    assert [s for _, s in _labelled_ticks(0.0, 1.0)] == ["0", "0.2", "0.4", "0.6", "0.8", "1"]
    assert [s for _, s in _labelled_ticks(-3.0, 7.0)] == ["-2", "0", "2", "4", "6"]

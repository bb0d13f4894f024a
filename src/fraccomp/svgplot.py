"""Minimal dependency-free SVG line plots for run artefacts."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["write_svg_plot"]

_COLORS = ["#1f6fb2", "#d1495b", "#3a9d5d", "#8d6cab", "#c98a2b", "#4f4f4f"]

_W, _H = 760, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _widen(lo, hi):
    """[lo, hi], or [lo, lo + max(1, 1e-9 |lo|)] where it is narrower than 1e-9 of its
    magnitude (or than 1e-299): round ticks cannot resolve it, and plotted it is a point."""
    if hi - lo > 1e-9 * max(abs(lo), abs(hi), 1e-290):
        return lo, hi
    return lo, lo + max(1.0, 1e-9 * abs(lo))


def _ticks(lo, hi, n=5):
    """About n round ticks k step, k an integer, on [lo, hi] (see _widen)."""
    lo, hi = _widen(lo, hi)
    raw = hi / n - lo / n  # hi - lo may overflow
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    return [k * step for k in range(math.ceil(lo / step), math.floor(hi / step + 1e-12) + 1)]


def _labelled_ticks(lo, hi):
    """(tick, label) over _ticks(lo, hi), in enough significant digits to tell adjacent
    ticks apart: max(6, ceil(log10(max |tick| / step)) + 1), at most 17."""
    ticks = _ticks(lo, hi)
    top, step = max(abs(ticks[0]), abs(ticks[-1])), ticks[1] - ticks[0]
    digits = min(17, max(6, math.ceil(math.log10(top / step)) + 1))
    return [(v, f"{v:.{digits}g}") for v in ticks]


def write_svg_plot(path, curves, title="", xlabel="", ylabel="", logy=False):
    """curves: iterable of (xs, ys, label); writes a single polyline plot."""
    prepared = []
    for xs, ys, label in curves:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if logy:
            keep = ys > 0.0
            xs, ys = xs[keep], np.log10(ys[keep])
        if xs.size:
            prepared.append((xs, ys, label))
    if not prepared:
        prepared = [(np.array([0.0, 1.0]), np.array([0.0, 0.0]), "")]
    x_lo = min(float(np.min(c[0])) for c in prepared)
    x_hi = max(float(np.max(c[0])) for c in prepared)
    y_lo = min(float(np.min(c[1])) for c in prepared)
    y_hi = max(float(np.max(c[1])) for c in prepared)
    x_lo, x_hi = _widen(x_lo, x_hi)
    y_lo, y_hi = _widen(y_lo, y_hi)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#999"/>',
    ]
    if title:
        parts.append(f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>')
    for v, label in _labelled_ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(v):.1f}" y1="{_H - _MB}" x2="{px(v):.1f}" y2="{_H - _MB + 5}" stroke="#999"/>')
        parts.append(f'<text x="{px(v):.1f}" y="{_H - _MB + 18}" text-anchor="middle">{label}</text>')
    for v, label in _labelled_ticks(y_lo, y_hi):
        label = f"1e{label}" if logy else label
        parts.append(f'<line x1="{_ML - 5}" y1="{py(v):.1f}" x2="{_ML}" y2="{py(v):.1f}" stroke="#999"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py(v):.1f}" text-anchor="end" dominant-baseline="middle">{label}</text>')
    if xlabel:
        parts.append(f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(
            f'<text x="18" y="{_H / 2}" text-anchor="middle" transform="rotate(-90 18 {_H / 2})">{ylabel}</text>'
        )
    for j, (xs, ys, label) in enumerate(prepared):
        color = _COLORS[j % len(_COLORS)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        if label:
            yl = _MT + 16 + 16 * j
            parts.append(f'<line x1="{_W - _MR - 150}" y1="{yl - 4}" x2="{_W - _MR - 120}" y2="{yl - 4}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{_W - _MR - 114}" y="{yl}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))

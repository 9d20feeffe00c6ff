"""Minimal self-contained SVG line charts for trajectory outputs.

No plotting dependency: charts are plain SVG text, byte-deterministic for a
given dataset, which keeps rerun outputs identical.
"""

from __future__ import annotations

import math

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _escape(text: str) -> str:
    """``text`` as SVG character data: ``&``, ``>`` and ``<`` escaped."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _ticks(lo: float, hi: float, log: bool) -> list[tuple[float, str]]:
    """The ticks of an axis over [lo, hi] that lie in it, with their labels:
    the powers of ten with ``log``, else the multiples of a 1-2-5 step."""
    if log:
        ticks = [10.0**e for e in range(math.ceil(math.log10(lo) - 1e-9),
                                        math.floor(math.log10(hi) + 1e-9) + 1)]
    elif (span := hi - lo) <= 0:
        ticks = [lo]
    else:
        step = 10.0 ** math.floor(math.log10(span / 4))
        for mult in (1, 2, 5, 10):
            if span / (step * mult) <= 6:
                step *= mult
                break
        ticks = []
        t = math.ceil(lo / step) * step
        while t <= hi + 1e-12 * abs(span):
            ticks.append(t)
            t += step
    return [(t, _escape(f"1e{int(round(math.log10(t)))}" if log else f"{t:g}"))
            for t in ticks if lo <= t <= hi]


def _axis(values: np.ndarray, log: bool, start: float, length: float):
    """An axis over ``values``: its range, padded where it is one point, and
    the map of a data value to pixel ``start + f * length``, where f is the
    value's linear, or with ``log`` base-10 logarithmic, fraction of the range."""
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        pad = abs(lo) * 0.1 + 1e-9
        lo, hi = lo - pad, hi + pad
    a, b = (math.log10(lo), math.log10(hi)) if log else (lo, hi)

    def pixel(v):
        return start + ((math.log10(v) if log else v) - a) / (b - a) * length
    return lo, hi, pixel


def write_line_chart(
    path,
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
    loglog: bool = False,
) -> None:
    """Write named (x, y) series as one SVG line chart.

    With ``loglog`` both axes are base-10 logarithmic and nonpositive points
    are dropped from the drawing.
    """
    pts = []
    for _, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if loglog:
            keep &= (x > 0) & (y > 0)
        pts.append((x[keep], y[keep]))
    xs = np.concatenate([p[0] for p in pts]) if pts else np.array([0.0, 1.0])
    ys = np.concatenate([p[1] for p in pts]) if pts else np.array([0.0, 1.0])
    if xs.size == 0:
        xs, ys = np.array([1.0, 10.0]), np.array([1.0, 10.0])

    xlo, xhi, sx = _axis(xs, loglog, _ML, _W - _ML - _MR)
    ylo, yhi, sy = _axis(ys, loglog, _H - _MB, -(_H - _MT - _MB))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="15">{_escape(title)}</text>',
        f'<text x="{_W / 2:.1f}" y="{_H - 10}" text-anchor="middle">{_escape(xlabel)}</text>',
        f'<text x="18" y="{_H / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_H / 2:.1f})">{_escape(ylabel)}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="#333"/>',
    ]
    for t, label in _ticks(xlo, xhi, loglog):
        x = sx(t)
        parts.append(f'<line x1="{x:.1f}" y1="{_MT}" x2="{x:.1f}" y2="{_H - _MB}" '
                     'stroke="#ddd"/>')
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 16}" text-anchor="middle">{label}</text>')
    for t, label in _ticks(ylo, yhi, loglog):
        y = sy(t)
        parts.append(f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
                     'stroke="#ddd"/>')
        parts.append(f'<text x="{_ML - 6}" y="{y + 4:.1f}" text-anchor="end">{label}</text>')
    for idx, ((name, _, _), (px, py)) in enumerate(zip(series, pts)):
        color = _COLORS[idx % len(_COLORS)]
        if px.size:
            d = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(px, py))
            parts.append(f'<polyline points="{d}" fill="none" stroke="{color}" '
                         'stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * idx
        parts.append(f'<line x1="{_W - _MR - 150}" y1="{ly}" x2="{_W - _MR - 125}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 118}" y="{ly + 4}">{_escape(name)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")

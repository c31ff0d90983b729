"""Minimal deterministic SVG emitter for log-log convergence plots.

The output is plain text built with fixed float formatting, so identical
input produces byte-identical files (suitable for golden-file tests).
"""

import math
from dataclasses import dataclass

WIDTH, HEIGHT = 640.0, 480.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 20.0, 40.0, 50.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Series:
    label: str
    x: tuple
    y: tuple


@dataclass(frozen=True)
class PlotSpec:
    title: str = ""
    xlabel: str = "h_max"
    ylabel: str = "error"
    ref_slopes: tuple = ()


def _fmt(v):
    return f"{v:.2f}"


def _decades(lo, hi):
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(first, last + 1)]


class _LogAxis:
    def __init__(self, lo, hi, pix0, pix1):
        pad = (hi / lo) ** 0.05 if hi > lo else 2.0
        self.lo, self.hi = lo / pad, hi * pad
        self.pix0, self.pix1 = pix0, pix1

    def __call__(self, v):
        t = (math.log10(v) - math.log10(self.lo)) / (
            math.log10(self.hi) - math.log10(self.lo))
        return self.pix0 + t * (self.pix1 - self.pix0)


def render_svg(series, spec=PlotSpec()):
    """Render a list of Series to an SVG string (log-log axes)."""
    series = [s for s in series if len(s.x)]
    if not series:
        raise ValueError("nothing to plot: no series with data points")
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    if min(xs) <= 0 or min(ys) <= 0:
        raise ValueError("log-log plot needs positive data")
    ax = _LogAxis(min(xs), max(xs), MARGIN_L, WIDTH - MARGIN_R)
    ay = _LogAxis(min(ys), max(ys), HEIGHT - MARGIN_B, MARGIN_T)

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
               f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">')
    out.append(f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="white"/>')
    out.append(f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" '
               f'width="{_fmt(WIDTH - MARGIN_L - MARGIN_R)}" '
               f'height="{_fmt(HEIGHT - MARGIN_T - MARGIN_B)}" '
               'fill="none" stroke="black" stroke-width="1"/>')
    if spec.title:
        out.append(f'<text x="{_fmt(WIDTH / 2)}" y="25" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="16">{spec.title}</text>')

    for tick in _decades(ax.lo, ax.hi):
        if not ax.lo <= tick <= ax.hi:
            continue
        px = ax(tick)
        out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(HEIGHT - MARGIN_B)}" '
                   f'x2="{_fmt(px)}" y2="{_fmt(MARGIN_T)}" stroke="#dddddd" '
                   'stroke-width="0.5"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_fmt(HEIGHT - MARGIN_B + 18)}" '
                   'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="12">1e{int(round(math.log10(tick)))}</text>')
    for tick in _decades(ay.lo, ay.hi):
        if not ay.lo <= tick <= ay.hi:
            continue
        py = ay(tick)
        out.append(f'<line x1="{_fmt(MARGIN_L)}" y1="{_fmt(py)}" '
                   f'x2="{_fmt(WIDTH - MARGIN_R)}" y2="{_fmt(py)}" '
                   'stroke="#dddddd" stroke-width="0.5"/>')
        out.append(f'<text x="{_fmt(MARGIN_L - 8)}" y="{_fmt(py + 4)}" '
                   'text-anchor="end" font-family="sans-serif" '
                   f'font-size="12">1e{int(round(math.log10(tick)))}</text>')
    out.append(f'<text x="{_fmt(WIDTH / 2)}" y="{_fmt(HEIGHT - 12)}" '
               'text-anchor="middle" font-family="sans-serif" '
               f'font-size="14">{spec.xlabel}</text>')
    out.append(f'<text x="18" y="{_fmt(HEIGHT / 2)}" text-anchor="middle" '
               'font-family="sans-serif" font-size="14" '
               f'transform="rotate(-90 18 {_fmt(HEIGHT / 2)})">{spec.ylabel}</text>')

    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = [(ax(xv), ay(yv)) for xv, yv in zip(s.x, s.y)]
        if len(pts) > 1:
            path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
            out.append(f'<polyline points="{path}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        for px, py in pts:
            out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" '
                       f'fill="{color}"/>')

    # reference-slope triangles anchored near the lower end of the data
    x0 = math.sqrt(min(xs) * max(xs))
    y0 = min(ys)
    for idx, slope in enumerate(spec.ref_slopes):
        base = y0 * (2.0 ** idx)
        x1 = 2.0 * x0
        try:
            y1 = base * (2.0 ** slope)
        except OverflowError:
            y1 = math.inf
        if not 0.0 < y1 < math.inf:
            raise ValueError(f"reference slope {slope:g} has no finite "
                             "triangle")
        p = (f"{_fmt(ax(x0))},{_fmt(ay(base))} {_fmt(ax(x1))},{_fmt(ay(base))} "
             f"{_fmt(ax(x1))},{_fmt(ay(y1))}")
        out.append(f'<polygon points="{p}" fill="none" stroke="#555555" '
                   'stroke-width="1"/>')
        out.append(f'<text x="{_fmt(ax(x1) + 4)}" y="{_fmt(ay(base) - 2)}" '
                   'font-family="sans-serif" font-size="11" '
                   f'fill="#555555">{slope:g}</text>')

    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        ly = MARGIN_T + 16 + 16 * idx
        lx = WIDTH - MARGIN_R - 150
        out.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" '
                   f'x2="{_fmt(lx + 24)}" y2="{_fmt(ly - 4)}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_fmt(lx + 30)}" y="{_fmt(ly)}" '
                   f'font-family="sans-serif" font-size="12">{s.label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_plot(series, spec, path):
    """Write the rendered SVG to a file."""
    svg = render_svg(series, spec)
    with open(path, "w") as fh:
        fh.write(svg)


def table_series(table, column):
    """Series of a ConvergenceTable CSV column versus h_max, over the rows
    where the column has a value."""
    pts = [(r.h_max, r.cell(column)) for r in table.rows
           if r.cell(column) is not None]
    return Series(label=column, x=tuple(p[0] for p in pts),
                  y=tuple(p[1] for p in pts))

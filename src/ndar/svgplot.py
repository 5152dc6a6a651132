"""Minimal self-contained SVG emission for trajectory and histogram figures.

No external plotting dependency: figures are presentation, the CSVs are the data.
Output is deterministic for identical inputs.
"""

from __future__ import annotations

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 46
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
# most bar positions a histogram draws; more distinct centers are summed into this many
# equal-width bins, shared by every group of the chart
MAX_BARS = 256


def _bounds(values, pad_frac=0.06):
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    pad = (hi - lo) * pad_frac
    return lo - pad, hi + pad


class _Canvas:
    def __init__(self, title, xlabel, ylabel, xlim, ylim):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        ]
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        self._axes(xlabel, ylabel)

    def px(self, x):
        return MARGIN_L + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        return HEIGHT - MARGIN_B - (y - self.y0) / (self.y1 - self.y0) * (HEIGHT - MARGIN_T - MARGIN_B)

    def _axes(self, xlabel, ylabel):
        left, right = MARGIN_L, WIDTH - MARGIN_R
        top, bottom = MARGIN_T, HEIGHT - MARGIN_B
        self.parts.append(
            f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
            f'fill="none" stroke="#333"/>')
        for k in range(5):
            fx = self.x0 + (self.x1 - self.x0) * k / 4
            fy = self.y0 + (self.y1 - self.y0) * k / 4
            px, py = self.px(fx), self.py(fy)
            self.parts.append(f'<line x1="{px:.1f}" y1="{bottom}" x2="{px:.1f}" y2="{bottom + 4}" stroke="#333"/>')
            self.parts.append(f'<text x="{px:.1f}" y="{bottom + 17}" text-anchor="middle">{fx:.6g}</text>')
            self.parts.append(f'<line x1="{left - 4}" y1="{py:.1f}" x2="{left}" y2="{py:.1f}" stroke="#333"/>')
            self.parts.append(f'<text x="{left - 7}" y="{py + 4:.1f}" text-anchor="end">{fy:.6g}</text>')
        self.parts.append(
            f'<text x="{(left + right) / 2}" y="{HEIGHT - 8}" text-anchor="middle">{xlabel}</text>')
        self.parts.append(
            f'<text x="16" y="{(top + bottom) / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(top + bottom) / 2})">{ylabel}</text>')

    def legend(self, labels_colors):
        y = MARGIN_T + 14
        for label, color in labels_colors:
            x = WIDTH - MARGIN_R - 150
            self.parts.append(f'<rect x="{x}" y="{y - 9}" width="12" height="9" fill="{color}"/>')
            self.parts.append(f'<text x="{x + 17}" y="{y}">{label}</text>')
            y += 16

    def save(self, path):
        self.parts.append("</svg>")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(self.parts) + "\n")


def line_chart(path, title: str, xlabel: str, ylabel: str, series) -> None:
    """Write a line chart; series is a list of dicts with xs, ys, label, optional yerr."""
    if not series:
        raise ValueError("line chart needs at least one series")
    all_x = [x for s in series for x in s["xs"]]
    all_y = [v for s in series for v in s["ys"]]
    for s in series:
        if s.get("yerr") is not None:
            all_y += [y + e for y, e in zip(s["ys"], s["yerr"])]
            all_y += [y - e for y, e in zip(s["ys"], s["yerr"])]
    cv = _Canvas(title, xlabel, ylabel, _bounds(all_x), _bounds(all_y))
    labels = []
    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{cv.px(x):.1f},{cv.py(y):.1f}" for x, y in zip(s["xs"], s["ys"]))
        cv.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        if s.get("yerr") is not None:
            for x, y, e in zip(s["xs"], s["ys"], s["yerr"]):
                px, y_lo, y_hi = cv.px(x), cv.py(y - e), cv.py(y + e)
                cv.parts.append(
                    f'<line x1="{px:.1f}" y1="{y_lo:.1f}" x2="{px:.1f}" y2="{y_hi:.1f}" '
                    f'stroke="{color}" stroke-width="1"/>')
        for x, y in zip(s["xs"], s["ys"]):
            cv.parts.append(f'<circle cx="{cv.px(x):.1f}" cy="{cv.py(y):.1f}" r="2.4" fill="{color}"/>')
        labels.append((s.get("label", f"series {k}"), color))
    cv.legend(labels)
    cv.save(path)


def _binned(groups, lo: float, hi: float):
    """The groups with their counts summed into MAX_BARS equal-width bins over [lo, hi]."""
    width = (hi - lo) / MAX_BARS
    binned = []
    for g in groups:
        sums: dict[int, float] = {}
        for x, c in zip(g["centers"], g["counts"]):
            k = min(int((x - lo) / width), MAX_BARS - 1)
            sums[k] = sums.get(k, 0) + c
        ks = sorted(sums)
        binned.append({**g, "centers": [lo + (k + 0.5) * width for k in ks],
                       "counts": [sums[k] for k in ks]})
    return binned


def histogram_chart(path, title: str, xlabel: str, ylabel: str, groups) -> None:
    """Write grouped bar histograms; groups hold centers (x), counts (y), label.

    At most MAX_BARS bar positions are drawn: with more distinct centers, the counts are
    summed into MAX_BARS equal-width bins between the smallest and the largest center.
    """
    if not groups:
        raise ValueError("histogram needs at least one group")
    all_x = [x for g in groups for x in g["centers"]]
    xs_sorted = sorted(set(all_x))
    if len(xs_sorted) > MAX_BARS:
        groups = _binned(groups, xs_sorted[0], xs_sorted[-1])
        all_x = [x for g in groups for x in g["centers"]]
        xs_sorted = sorted(set(all_x))
    all_y = [0.0] + [float(c) for g in groups for c in g["counts"]]
    gap = min((b - a for a, b in zip(xs_sorted, xs_sorted[1:])), default=1.0)
    cv = _Canvas(title, xlabel, ylabel, _bounds([min(all_x) - gap, max(all_x) + gap], 0.02),
                 _bounds(all_y, 0.04))
    width = gap * 0.8 / len(groups)
    base = cv.py(0.0)
    labels = []
    for k, g in enumerate(groups):
        color = PALETTE[k % len(PALETTE)]
        for x, c in zip(g["centers"], g["counts"]):
            left = cv.px(x - gap * 0.4 + k * width)
            top = cv.py(float(c))
            w = cv.px(x - gap * 0.4 + (k + 1) * width) - left
            cv.parts.append(
                f'<rect x="{left:.1f}" y="{top:.1f}" width="{w:.1f}" height="{max(base - top, 0):.1f}" '
                f'fill="{color}" fill-opacity="0.75"/>')
        labels.append((g.get("label", f"group {k}"), color))
    cv.legend(labels)
    cv.save(path)

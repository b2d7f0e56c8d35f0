"""Hand-rolled SVG emitters for the report plots.

Plain text output keeps the artifacts diffable and dependency-free; every
coordinate is formatted to two decimals so identical inputs give identical
bytes.
"""

from __future__ import annotations

import numpy as np

PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)

# Canvas sizes in pixels, one per kind of plot.
SCATTER_WIDTH, SCATTER_HEIGHT = 640, 480
BEESWARM_WIDTH = 720
BAR_WIDTH = 520
BEESWARM_MAX_FEATURES = 15  # rows of a beeswarm: the most influential features


def _header(width: int, height: int, title: str) -> list[str]:
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        lines.append(
            f'<text x="{width / 2:.2f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    return lines


def _scaler(values: np.ndarray, out_low: float, out_high: float):
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0

    def to_pixels(v):
        return out_low + (np.asarray(v, dtype=np.float64) - lo) / span * (out_high - out_low)

    return to_pixels


def scatter_svg(points: np.ndarray, labels: np.ndarray, title: str = "") -> str:
    """2-d scatter colored by integer label."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    margin = 30
    sx = _scaler(points[:, 0], margin, SCATTER_WIDTH - margin)
    sy = _scaler(points[:, 1], SCATTER_HEIGHT - margin, margin + 20)
    lines = _header(SCATTER_WIDTH, SCATTER_HEIGHT, title)
    for (x, y), label in zip(points, labels):
        color = PALETTE[int(label) % len(PALETTE)]
        lines.append(f'<circle cx="{float(sx(x)):.2f}" cy="{float(sy(y)):.2f}" r="3" fill="{color}" fill-opacity="0.7"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def beeswarm_svg(
    feature_names: list[str],
    phi_rows: np.ndarray,
    value_rows: np.ndarray,
    order: list[int],
    title: str = "",
) -> str:
    """One row per feature (most influential on top); x is the attribution,
    color encodes the feature value (blue low, red high), vertical jitter is
    a deterministic function of the within-feature attribution rank."""
    phi_rows = np.asarray(phi_rows, dtype=np.float64)
    value_rows = np.asarray(value_rows, dtype=np.float64)
    shown = list(order[:BEESWARM_MAX_FEATURES])
    row_height = 26
    left = 170
    height = 50 + row_height * len(shown)
    span = float(np.abs(phi_rows[:, shown]).max()) if shown else 1.0
    span = span if span > 0 else 1.0

    def x_pixel(phi):
        return left + (phi / span) * (BEESWARM_WIDTH - left - 30) / 2 + (BEESWARM_WIDTH - left - 30) / 2

    lines = _header(BEESWARM_WIDTH, height, title)
    zero_x = x_pixel(0.0)
    lines.append(
        f'<line x1="{zero_x:.2f}" y1="30" x2="{zero_x:.2f}" y2="{height - 18}" stroke="#888" stroke-dasharray="3,3"/>'
    )
    for row, j in enumerate(shown):
        y_base = 46 + row * row_height
        lines.append(
            f'<text x="{left - 8}" y="{y_base + 4}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{feature_names[j]}</text>'
        )
        phis = phi_rows[:, j]
        values = value_rows[:, j]
        value_span = values.max() - values.min()
        heat = (values - values.min()) / value_span if value_span > 0 else np.full_like(values, 0.5)
        ranks = np.argsort(np.argsort(phis, kind="stable"), kind="stable")
        jitter = ((ranks % 9) - 4) * 2.0
        for phi, h, dy in zip(phis, heat, jitter):
            red = int(round(40 + 215 * h))
            blue = int(round(255 - 215 * h))
            lines.append(
                f'<circle cx="{x_pixel(phi):.2f}" cy="{y_base + dy:.2f}" r="2.2" '
                f'fill="rgb({red},70,{blue})" fill-opacity="0.65"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def bar_svg(names: list[str], values: list[float | None], title: str = "") -> str:
    """Horizontal bars for rates in [0, 1]; None renders as 'n/a'."""
    row_height = 26
    left = 130
    height = 50 + row_height * len(names)
    lines = _header(BAR_WIDTH, height, title)
    for row, (name, value) in enumerate(zip(names, values)):
        y = 40 + row * row_height
        lines.append(
            f'<text x="{left - 8}" y="{y + 13}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{name}</text>'
        )
        if value is None:
            lines.append(
                f'<text x="{left + 4}" y="{y + 13}" font-family="sans-serif" font-size="11">n/a</text>'
            )
            continue
        bar = (BAR_WIDTH - left - 60) * float(value)
        lines.append(
            f'<rect x="{left}" y="{y}" width="{bar:.2f}" height="18" fill="{PALETTE[0]}"/>'
        )
        lines.append(
            f'<text x="{left + bar + 6:.2f}" y="{y + 13}" font-family="sans-serif" '
            f'font-size="11">{float(value):.3f}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def pca_2d(points: np.ndarray) -> np.ndarray:
    """Top-2 principal-component projection with a fixed sign convention
    (largest-magnitude loading positive) so output bytes are stable."""
    points = np.asarray(points, dtype=np.float64)
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:2]
    for i in range(components.shape[0]):
        pivot = int(np.argmax(np.abs(components[i])))
        if components[i, pivot] < 0:
            components[i] = -components[i]
    return centered @ components.T

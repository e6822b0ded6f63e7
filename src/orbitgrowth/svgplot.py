"""Deterministic SVG 1.1 figures: ray polylines over a Julia point cloud.

Illustration plumbing only; coordinates are emitted with fixed precision and
the point cloud uses a seeded generator, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

import cmath
import random

from .dynamics import UnicriticalMap, escape_radius
from .rays import RayTrace

_PALETTE = ("#c0392b", "#2471a3", "#229954", "#b7950b", "#7d3c98", "#117a65")
CLOUD_POINTS, CLOUD_BURN, CLOUD_SEED = 4000, 30, 0   # kept points, discarded first steps, seed
SIZE = 640              # figure width and height, in SVG user units


def julia_cloud(m: UnicriticalMap) -> list[complex]:
    """Sample the Julia set by a seeded random inverse-branch walk."""
    rng = random.Random(CLOUD_SEED)
    z = complex(escape_radius(m))
    out: list[complex] = []
    for i in range(CLOUD_POINTS + CLOUD_BURN):
        u = z - m.c
        r = abs(u) ** (1.0 / m.d)
        if r == 0.0:
            z = complex(escape_radius(m))
            continue
        a = cmath.phase(u)
        k = rng.randrange(m.d)
        z = r * cmath.exp(1j * (a + 2 * cmath.pi * k) / m.d)
        if i >= CLOUD_BURN:
            out.append(z)
    return out


def render_ray_figure(traces: list[RayTrace], cloud: list[complex] | None = None) -> str:
    """Render ray polylines (and an optional point cloud) as an SVG document."""
    pts = [z for t in traces for z in t.points] + list(cloud or [])
    if not pts:
        raise ValueError("nothing to draw")
    xs = [z.real for z in pts]
    ys = [z.imag for z in pts]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    pad = 0.05 * span
    x0, y0 = min(xs) - pad, min(ys) - pad
    scale = SIZE / (span + 2 * pad)

    def fx(z: complex) -> str:
        return f"{(z.real - x0) * scale:.2f}"

    def fy(z: complex) -> str:
        # SVG y axis points down
        return f"{SIZE - (z.imag - y0) * scale:.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SIZE}" height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="#ffffff"/>',
    ]
    for z in cloud or []:
        lines.append(f'<circle cx="{fx(z)}" cy="{fy(z)}" r="0.6" fill="#555555"/>')
    for i, trace in enumerate(traces):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{fx(z)},{fy(z)}" for z in trace.points)
        lines.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
        if trace.landing is not None:
            lines.append(
                f'<circle cx="{fx(trace.landing)}" cy="{fy(trace.landing)}" '
                f'r="2.5" fill="{color}"/>'
            )
        label = f"{trace.angle}"
        lines.append(
            f'<text x="{fx(trace.points[0])}" y="{fy(trace.points[0])}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

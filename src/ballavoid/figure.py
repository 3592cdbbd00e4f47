"""SVG rendering of the planar set S_2.

The boundary of each component is one chord segment on x_1 = +-1/2, two
arcs of the dashed small circle, and one arc of the unit circle, meeting
at junction points (1/2, +-w) and (c, +-sqrt(1 - c^2)); at the canonical
offset the two half-widths coincide (the equidistance identity).

Geometry is kept in model coordinates; the y-axis is flipped once at the
root transform, so the junction-point CSV stays in untransformed
mathematical coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .construction import ConstructionParams, _tightened
from .errors import DomainError

# Side of the square canvas, in model units (the unit disk plus a margin).
_CANVAS = 2.2


@dataclass(frozen=True)
class Arc:
    center: tuple[float, float]
    radius: float
    start: tuple[float, float]
    end: tuple[float, float]


@dataclass(frozen=True)
class Segment:
    start: tuple[float, float]
    end: tuple[float, float]


@dataclass(frozen=True)
class FigureSpec:
    """Arcs and segments of both components of S_2 plus canvas styling."""

    small_radius: float
    offset: float
    segment_half_width: float
    chord_half_width: float
    scale: float = 256.0
    arcs: list[Arc] = field(default_factory=list)
    segments: list[Segment] = field(default_factory=list)
    junctions: list[tuple[str, float, float]] = field(default_factory=list)


def build_figure_spec(
    params: ConstructionParams, scale: float = 256.0, epsilon: float = 0.0
) -> FigureSpec:
    """Figure geometry for S_2, optionally for the closed inner
    approximation with every inequality tightened by epsilon."""
    if params.n != 2:
        raise DomainError(f"the figure is planar; got dimension {params.n}")
    if not (scale > 0.0 and math.isfinite(_CANVAS * scale)):
        raise DomainError(f"scale must be positive with a finite canvas, got {scale!r}")
    t, r, outer = _tightened(params, epsilon)
    a = params.a
    # Chord plane of the circles |x| = outer and |x - a e_1| = r.
    c = (outer * outer - r * r + a * a) / (2.0 * a)
    w_seg = math.sqrt(r * r - (t - a) ** 2)
    w_chord = math.sqrt(outer * outer - c * c)

    arcs, segments, junctions = [], [], []
    for s in (1.0, -1.0):
        j1 = (s * t, -s * w_seg)
        j2 = (s * t, s * w_seg)
        j3 = (s * c, s * w_chord)
        j4 = (s * c, -s * w_chord)
        segments.append(Segment(j1, j2))
        arcs.append(Arc((s * a, 0.0), r, j2, j3))
        arcs.append(Arc((0.0, 0.0), outer, j3, j4))
        arcs.append(Arc((s * a, 0.0), r, j4, j1))
        side = "pos" if s > 0 else "neg"
        junctions.extend(
            [
                (f"{side}_chord_lower", j1[0], j1[1]),
                (f"{side}_chord_upper", j2[0], j2[1]),
                (f"{side}_plane_upper", j3[0], j3[1]),
                (f"{side}_plane_lower", j4[0], j4[1]),
            ]
        )
    return FigureSpec(
        small_radius=r,
        offset=a,
        segment_half_width=w_seg,
        chord_half_width=w_chord,
        scale=scale,
        arcs=arcs,
        segments=segments,
        junctions=junctions,
    )


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _component_path(spec: FigureSpec, arcs: list[Arc], segment: Segment) -> str:
    # Boundary runs clockwise in model coordinates; every arc is the minor
    # one, so large-arc and sweep flags are both 0.
    p = [f"M {_fmt(segment.start[0])} {_fmt(segment.start[1])}"]
    p.append(f"L {_fmt(segment.end[0])} {_fmt(segment.end[1])}")
    for arc in arcs:
        p.append(
            f"A {_fmt(arc.radius)} {_fmt(arc.radius)} 0 0 0 "
            f"{_fmt(arc.end[0])} {_fmt(arc.end[1])}"
        )
    p.append("Z")
    return " ".join(p)


def render_svg(spec: FigureSpec) -> str:
    """Standalone SVG for the figure described by `spec`."""
    s = spec.scale
    size = math.ceil(_CANVAS * s)
    half = size / 2
    thin = 1.5 / s
    dash = f"{6.0 / s:.6g} {4.0 / s:.6g}"
    mark = 3.5 / s
    a = spec.offset
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<g transform="translate({half} {half}) scale({_fmt(s)} {_fmt(-s)})">',
        f'<circle cx="0" cy="0" r="1" fill="none" stroke="black" stroke-width="{thin:.6g}"/>',
    ]
    for cx in (a, -a):
        lines.append(
            f'<circle cx="{_fmt(cx)}" cy="0" r="{_fmt(spec.small_radius)}" fill="none" '
            f'stroke="#666666" stroke-width="{thin:.6g}" stroke-dasharray="{dash}"/>'
        )
    for idx, segment in enumerate(spec.segments):
        path = _component_path(spec, spec.arcs[3 * idx : 3 * idx + 3], segment)
        lines.append(
            f'<path d="{path}" fill="#9ecae1" fill-opacity="0.85" '
            f'stroke="black" stroke-width="{thin:.6g}"/>'
        )
    for cx in (a, -a):
        lines.append(f'<circle cx="{_fmt(cx)}" cy="0" r="{mark:.6g}" fill="black"/>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def junction_csv(spec: FigureSpec) -> str:
    """RFC-4180-style CSV of the junction points, in model coordinates."""
    rows = ["label,x,y"]
    for label, x, y in spec.junctions:
        rows.append(f"{label},{x!r},{y!r}")
    return "\n".join(rows) + "\n"

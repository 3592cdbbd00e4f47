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

import collections
import math

from .construction import ConstructionParams, _tightened
from .errors import DomainError

# Side of the square canvas, in model units (the unit disk plus a margin).
_CANVAS = 2.2
_SCALE = 256.0  # pixels per model unit


class FigureSpec(collections.namedtuple(
        "FigureSpec", "small_radius outer_radius offset segment_half_width chord_half_width junctions")):
    """Radii and junction points of both components of S_2.  junctions is
    a list of four (label, x, y) per component, in the order its boundary
    passes them, positive component first."""

    __slots__ = ()


def build_figure_spec(params: ConstructionParams, epsilon: float = 0.0) -> FigureSpec:
    """Figure geometry for S_2, optionally for the closed inner
    approximation with every inequality tightened by epsilon."""
    if params.n != 2:
        raise DomainError(f"the figure is planar; got dimension {params.n}")
    t, r, outer = _tightened(params, epsilon)
    a = params.a
    # Chord plane of the circles |x| = outer and |x - a e_1| = r.
    c = (outer * outer - r * r + a * a) / (2.0 * a)
    w_seg = math.sqrt(r * r - (t - a) ** 2)
    w_chord = math.sqrt(outer * outer - c * c)

    junctions = []
    for s, side in ((1.0, "pos"), (-1.0, "neg")):
        junctions.extend(
            [
                (f"{side}_chord_lower", s * t, -s * w_seg),
                (f"{side}_chord_upper", s * t, s * w_seg),
                (f"{side}_plane_upper", s * c, s * w_chord),
                (f"{side}_plane_lower", s * c, -s * w_chord),
            ]
        )
    return FigureSpec(
        small_radius=r,
        outer_radius=outer,
        offset=a,
        segment_half_width=w_seg,
        chord_half_width=w_chord,
        junctions=junctions,
    )


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _component_path(spec: FigureSpec, junctions) -> str:
    """Chord segment j1 -> j2, then arcs of the small, the outer and the
    small circle through j3, j4 and back to j1: clockwise in model
    coordinates, every arc the minor one (large-arc and sweep flags 0)."""
    p1, p2, p3, p4 = [f"{_fmt(x)} {_fmt(y)}" for _, x, y in junctions]
    r, outer = _fmt(spec.small_radius), _fmt(spec.outer_radius)
    return f"M {p1} L {p2} A {r} {r} 0 0 0 {p3} A {outer} {outer} 0 0 0 {p4} A {r} {r} 0 0 0 {p1} Z"


def render_svg(spec: FigureSpec) -> str:
    """Standalone SVG for the figure described by `spec`."""
    s = _SCALE
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
    for idx in (0, 4):
        path = _component_path(spec, spec.junctions[idx : idx + 4])
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

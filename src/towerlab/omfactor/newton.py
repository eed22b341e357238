"""Newton polygons: lower convex hulls of (index, valuation) point sets.

Sign convention used throughout the package: a segment of slope s in the
polygon of sum c_i y^i corresponds to roots y with valuation -s.  Slopes are
reported in increasing order, left to right along the hull.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import TowerlabError
from ..record import Record

INF = math.inf


class DegeneratePolygon(TowerlabError):
    """Raised when fewer than two finite points are available."""


class NPSegment(Record):
    """One face of the lower hull.

    slope   -- exact rational slope (a Fraction)
    length  -- horizontal projection (right index minus left index)
    """

    __slots__ = ("slope", "length")


def _finite_points(points) -> list[tuple]:
    """The lowest finite value at each index, sorted by index; values stay
    as given (ints, or Fractions where not integral)."""
    best: dict = {}
    for i, v in points:
        if v == INF or v is None:
            continue
        if i not in best or v < best[i]:
            best[i] = v
    return sorted(best.items())


def newton_polygon(points) -> list[NPSegment]:
    """Lower-hull faces of a set of (index, valuation) pairs.

    Points with infinite valuation are ignored (they impose no constraint).
    Raises DegeneratePolygon when fewer than two finite points remain.
    """
    pts = _finite_points(points)
    if len(pts) < 2:
        raise DegeneratePolygon(
            f"need at least two finite points, got {len(pts)}"
        )
    return [NPSegment(slope=Fraction(dy, dx), length=dx) for dy, dx in _faces(pts)]


def _faces(pts: list[tuple]) -> list[tuple]:
    """(rise, run) of each lower-hull face of the sorted finite points pts,
    by Andrew's monotone chain in exact arithmetic."""
    hull: list[tuple] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return [(y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]


def slope_length_pairs(vals: dict, scale: int = 1) -> list[tuple]:
    """The (slope, length) list used by the valuation engine.

    vals maps expansion index -> valuation (exact rational or INF), or
    valuation times scale when scale > 1 (so that ints suffice); entries
    with INF are dropped.  A slope is an int when integral and a Fraction
    otherwise.  If the minimum present index is positive (the constant
    coefficient vanishes), the first returned pair is (-inf, min_index),
    matching the convention that a zero constant term contributes a face of
    slope -infinity.
    """
    pts = _finite_points(vals.items())
    if not pts:
        raise DegeneratePolygon("no finite points")
    out = []
    if pts[0][0] > 0:
        out.append((-INF, pts[0][0]))
    for dy, dx in _faces(pts):
        if type(dy) is int and not dy % (dx * scale):
            out.append((dy // (dx * scale), dx))
        else:
            out.append((Fraction(dy, dx * scale), dx))
    return out

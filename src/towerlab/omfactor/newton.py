"""Newton polygons: lower convex hulls of (index, valuation) point sets.

Sign convention used throughout the package: a segment of slope s in the
polygon of sum c_i y^i corresponds to roots y with valuation -s.  Slopes are
reported in increasing order, left to right along the hull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import TowerlabError

INF = math.inf


class DegeneratePolygon(TowerlabError):
    """Raised when fewer than two finite points are available."""


@dataclass(frozen=True)
class NPSegment:
    """One face of the lower hull.

    slope   -- exact rational slope
    length  -- horizontal projection (right index minus left index)
    """

    slope: Fraction
    length: int


def _finite_points(points) -> list[tuple[int, Fraction]]:
    best: dict[int, Fraction] = {}
    for i, v in points:
        if v == INF or v is None:
            continue
        fv = Fraction(v)
        if i not in best or fv < best[i]:
            best[i] = fv
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
    # Andrew's monotone chain, lower hull only, exact arithmetic.
    hull: list[tuple[int, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return [
        NPSegment(slope=Fraction(y2 - y1, x2 - x1), length=x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    ]


def slope_length_pairs(vals: dict) -> list[tuple]:
    """The (slope, length) list used by the valuation engine.

    vals maps expansion index -> valuation (exact rational or INF); entries
    with INF are dropped.  If the minimum present index is positive (the
    constant coefficient vanishes), the first returned pair is
    (-inf, min_index), matching the convention that a zero constant term
    contributes a face of slope -infinity.
    """
    pts = _finite_points(vals.items())
    if not pts:
        raise DegeneratePolygon("no finite points")
    out = []
    if pts[0][0] > 0:
        out.append((-INF, pts[0][0]))
    if len(pts) >= 2:
        for seg in newton_polygon(pts):
            out.append((seg.slope, seg.length))
    return out

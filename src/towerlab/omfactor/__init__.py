"""Place decomposition of K(x,y)/K(x) by inductive-valuation refinement.

newton      lower convex hulls and slope/length bookkeeping
ypoly       polynomials in y over the rational function field
maclane     inductive valuations: augmentation, graded residues, decompose
places      PlaceExt objects with (e, f), refinement data, different bounds
irreducibility  complete irreducibility test over GF(q)(x)
"""

from .newton import DegeneratePolygon, NPSegment, newton_polygon, slope_length_pairs
from .ypoly import YPoly
from .maclane import DepthExceeded, Inseparable, StageVal, decompose, exact_val
from .places import (
    PlaceExt,
    eisenstein_at,
    monic_integral_model,
    places_above,
)
from .irreducibility import is_irreducible_over_ratfield

__all__ = [
    "DegeneratePolygon",
    "NPSegment",
    "newton_polygon",
    "slope_length_pairs",
    "YPoly",
    "DepthExceeded",
    "Inseparable",
    "StageVal",
    "decompose",
    "exact_val",
    "PlaceExt",
    "eisenstein_at",
    "monic_integral_model",
    "places_above",
    "is_irreducible_over_ratfield",
]

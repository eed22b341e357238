"""towerlab: ramification analysis for recursive towers of function fields
over finite fields.

The package is organized bottom-up:

* ffield     -- exact GF(p^k) arithmetic, polynomial factorization, bivariate
                defining equations F(x, y)
* ratfunc    -- the rational function field K(x), its places and valuations
* omfactor   -- places of K(x, y) above a place of K(x): Newton polygons and
                inductive (key-polynomial) valuations
* basicfield -- ramification tables, genus via Riemann-Hurwitz, and an
                independent zeta-function genus oracle
* pyramid    -- the combinatorial lower-bound climb through a tower's
                ramification pyramid
* checker    -- the infinite-genus criterion for recursive towers and the
                built-in one-parameter family of witnesses
* cli        -- a JSON-emitting command line front end
"""

__version__ = "0.1.0"

from .errors import TowerlabError
from .ffield import (
    FiniteField,
    FFElem,
    FFPoly,
    BivarPoly,
    NotPrime,
    NoEmbedding,
    BudgetExceeded,
    make_field,
    embed,
    qth_root,
    poly_factor,
    roots_in_field,
)
from .ratfunc import RatFunc, RatPlace, PoleAtPlace
from .omfactor import (
    PlaceExt,
    newton_polygon,
    places_above,
    eisenstein_at,
    is_irreducible_over_ratfield,
)
from .basicfield import (
    RamTable,
    GenusResult,
    CapTooSmall,
    PointCountTooLarge,
    InconsistentOracle,
    ramification_locus,
    ram_table,
    genus_basic,
    genus_from_table,
    zeta_genus,
    reconcile_different,
)
from .pyramid import (
    RamHypotheses,
    PyramidReport,
    SeriesReport,
    BothWild,
    InvalidHypotheses,
    abhyankar_e,
    different_transitivity,
    climb,
    walk_bound,
    pyramid_graph,
    series_divergence,
    render_pyramid,
)
from .checker import (
    TowerSpec,
    FamilyParams,
    FamilyReport,
    TheoremVerdict,
    InvalidTower,
    InvalidParams,
    IdentificationFailed,
    build_family,
    verify_family_facts,
    check_theorem,
)

__all__ = [
    "TowerlabError",
    "__version__",
    # ffield
    "FiniteField",
    "FFElem",
    "FFPoly",
    "BivarPoly",
    "NotPrime",
    "NoEmbedding",
    "BudgetExceeded",
    "make_field",
    "embed",
    "qth_root",
    "poly_factor",
    "roots_in_field",
    # ratfunc
    "RatFunc",
    "RatPlace",
    "PoleAtPlace",
    # omfactor
    "PlaceExt",
    "newton_polygon",
    "places_above",
    "eisenstein_at",
    "is_irreducible_over_ratfield",
    # basicfield
    "RamTable",
    "GenusResult",
    "CapTooSmall",
    "PointCountTooLarge",
    "InconsistentOracle",
    "ramification_locus",
    "ram_table",
    "genus_basic",
    "genus_from_table",
    "zeta_genus",
    "reconcile_different",
    # pyramid
    "RamHypotheses",
    "PyramidReport",
    "SeriesReport",
    "BothWild",
    "InvalidHypotheses",
    "abhyankar_e",
    "different_transitivity",
    "climb",
    "walk_bound",
    "pyramid_graph",
    "series_divergence",
    "render_pyramid",
    # checker
    "TowerSpec",
    "FamilyParams",
    "FamilyReport",
    "TheoremVerdict",
    "InvalidTower",
    "InvalidParams",
    "IdentificationFailed",
    "build_family",
    "verify_family_facts",
    "check_theorem",
]

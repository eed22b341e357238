"""Outside-in tracer for towerlab.

Wraps the public entry points of each module from outside the library:
every `towerlab.*` module attribute bound to a wrapped function is re-bound
to the wrapper (so `basicfield.poly_factor`, imported by name, is traced as
well as `ffield.poly_factor`), and wrapped methods are replaced on their
class.  Nothing in the library is edited.

Per entry point it keeps the number of calls, the inclusive time (counted
once per outermost activation, so recursion is not double counted) and the
self time (inclusive time minus the time of directly nested traced calls).
Every traced nanosecond is self time of exactly one entry, so a layer's self
time is the sum of its entries' self times.

Element-level FFElem arithmetic stays unwrapped except `__pow__`: those run
millions of times and their cost lands in the self time of the traced
polynomial-level caller.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("ffield", "ratfunc", "omfactor", "basicfield", "pyramid", "checker", "cli")

# (module, attribute or Class.method, entry name).  Several attributes may
# share one entry name; their counts and times are pooled.
ENTRIES = [
    ("ffield", "make_field", "ffield.make_field"),
    ("ffield", "embed", "ffield.embed"),
    ("ffield", "qth_root", "ffield.qth_root"),
    ("ffield", "poly_gcd", "ffield.poly_gcd"),
    ("ffield", "_pow_mod", "ffield.pow_mod"),
    ("ffield", "is_irreducible", "ffield.is_irreducible"),
    ("ffield", "poly_factor", "ffield.poly_factor"),
    ("ffield", "roots_in_field", "ffield.roots_in_field"),
    ("ffield", "gfp_solve", "ffield.gfp_solve"),
    ("ffield", "resultant_y", "ffield.resultant_y"),
    ("ffield", "FFElem.__pow__", "ffield.elem_pow"),
    ("ffield", "FFPoly.__add__", "ffield.poly_add"),
    ("ffield", "FFPoly.__sub__", "ffield.poly_add"),
    ("ffield", "FFPoly.__neg__", "ffield.poly_add"),
    ("ffield", "FFPoly.__mul__", "ffield.poly_mul"),
    ("ffield", "FFPoly.__pow__", "ffield.poly_pow"),
    ("ffield", "FFPoly.__divmod__", "ffield.poly_divmod"),
    ("ffield", "FFPoly.exact_div", "ffield.poly_exact_div"),
    ("ffield", "FFPoly.monic", "ffield.poly_monic"),
    ("ffield", "FFPoly.eval", "ffield.poly_eval"),
    ("ffield", "FFPoly.derivative", "ffield.poly_derivative"),
    ("ffield", "FFPoly.map_field", "ffield.poly_map_field"),
    ("ffield", "BivarPoly.eval_x", "ffield.eval_x"),
    ("ffield", "BivarPoly.swap_xy", "ffield.bivar_swap_xy"),
    ("ffield", "BivarPoly.derivative_y", "ffield.bivar_derivative_y"),
    ("ffield", "BivarPoly.__mul__", "ffield.bivar_arith"),
    ("ffield", "BivarPoly.__add__", "ffield.bivar_arith"),
    ("ffield", "BivarPoly.__sub__", "ffield.bivar_arith"),
    ("ffield", "BivarPoly.__pow__", "ffield.bivar_arith"),
    ("ratfunc", "RatFunc.__init__", "ratfunc.normalise"),
    ("ratfunc", "RatFunc.__add__", "ratfunc.ops"),
    ("ratfunc", "RatFunc.__sub__", "ratfunc.ops"),
    ("ratfunc", "RatFunc.__mul__", "ratfunc.ops"),
    ("ratfunc", "RatFunc.__truediv__", "ratfunc.ops"),
    ("ratfunc", "RatFunc.__pow__", "ratfunc.pow"),
    ("ratfunc", "RatFunc.inverse", "ratfunc.inverse"),
    ("ratfunc", "RatPlace.valuation", "ratfunc.valuation"),
    ("ratfunc", "RatPlace.residue_field", "ratfunc.residue_field"),
    ("ratfunc", "RatPlace.residue", "ratfunc.residue"),
    ("ratfunc", "RatPlace.unit_residue", "ratfunc.unit_residue"),
    ("ratfunc", "RatPlace.lift", "ratfunc.lift"),
    ("ratfunc", "finite_places_of_degree", "ratfunc.finite_places_of_degree"),
    ("omfactor.places", "places_above", "omfactor.places_above"),
    ("omfactor.places", "monic_integral_model", "omfactor.monic_integral_model"),
    ("omfactor.places", "eisenstein_at", "omfactor.eisenstein_at"),
    ("omfactor.maclane", "decompose", "omfactor.decompose"),
    ("omfactor.maclane", "exact_val", "omfactor.exact_val"),
    ("omfactor.maclane", "StageVal.augment", "omfactor.augment"),
    ("omfactor.maclane", "StageVal.val", "omfactor.stage_val"),
    ("omfactor.maclane", "StageVal.graded_reduction", "omfactor.graded_reduction"),
    ("omfactor.maclane", "StageVal.augmentations", "omfactor.augmentations"),
    ("omfactor.maclane", "StageVal.projection", "omfactor.projection"),
    ("omfactor.newton", "newton_polygon", "omfactor.newton_polygon"),
    ("omfactor.newton", "slope_length_pairs", "omfactor.slope_length_pairs"),
    ("omfactor.irreducibility", "is_irreducible_over_ratfield",
     "omfactor.is_irreducible_over_ratfield"),
    ("omfactor.ypoly", "YPoly.expand_in", "omfactor.expand_in"),
    ("omfactor.ypoly", "YPoly.__add__", "omfactor.ypoly_arith"),
    ("omfactor.ypoly", "YPoly.__sub__", "omfactor.ypoly_arith"),
    ("omfactor.ypoly", "YPoly.__mul__", "omfactor.ypoly_arith"),
    ("omfactor.ypoly", "YPoly.__divmod__", "omfactor.ypoly_divmod"),
    ("omfactor.ypoly", "YPoly.gcd", "omfactor.ypoly_gcd"),
    ("omfactor.ypoly", "YPoly.subst_scaled", "omfactor.ypoly_subst_scaled"),
    ("basicfield", "ramification_locus", "basicfield.ramification_locus"),
    ("basicfield", "ram_table", "basicfield.ram_table"),
    ("basicfield", "genus_basic", "basicfield.genus_basic"),
    ("basicfield", "genus_from_table", "basicfield.genus_from_table"),
    ("basicfield", "zeta_genus", "basicfield.zeta_genus"),
    ("basicfield", "_point_count", "basicfield.point_count"),
    ("basicfield", "_count_roots", "basicfield.count_roots"),
    ("basicfield", "reconcile_different", "basicfield.reconcile_different"),
    ("pyramid", "climb", "pyramid.climb"),
    ("pyramid", "walk_bound", "pyramid.walk_bound"),
    ("pyramid", "pyramid_graph", "pyramid.pyramid_graph"),
    ("pyramid", "series_divergence", "pyramid.series_divergence"),
    ("pyramid", "render_pyramid", "pyramid.render_pyramid"),
    ("checker", "build_family", "checker.build_family"),
    ("checker", "verify_family_facts", "checker.verify_family_facts"),
    ("checker", "check_theorem", "checker.check_theorem"),
    ("checker", "TowerSpec.from_poly", "checker.tower_spec"),
    ("cli", "main", "cli.main"),
    ("cli", "run", "cli.run"),
    ("cli", "parse_poly", "cli.parse"),
    ("cli", "parse_unipoly", "cli.parse"),
    ("cli", "parse_elem", "cli.parse"),
]


def towerlab_modules() -> dict:
    """Every loaded `towerlab` module by name, after loading all layers."""
    import towerlab  # noqa: F401  (loads every layer but cli)
    import towerlab.cli  # noqa: F401

    return {
        name: mod for name, mod in sys.modules.items()
        if mod is not None and (name == "towerlab" or name.startswith("towerlab."))
    }


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Installs wrappers on `install()` and removes them on `uninstall()`.

    Also keeps two derived counters the benchmark reports:
    `refinement_stages` (levels of the chains places_above returns) and
    `fiber_evals` / `fiber_elements` (eval_x calls inside the point count
    over the field elements that count walks).
    """

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.refinement_stages = 0
        self.fiber_evals = 0
        self.fiber_elements = 0

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            stat.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                stat.depth -= 1
                stack.pop()
                dt = clock() - frame[0]
                stat.calls += 1
                stat.self_time += dt - frame[1]
                if not stat.depth:
                    stat.total += dt
                if stack:
                    stack[-1][1] += dt

        return traced

    def _hooked(self, name: str, fn):
        """Entry-specific counters, layered under the timing wrapper."""
        if name == "omfactor.places_above":
            def places_above(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.refinement_stages += sum(len(pl.refinement) for pl in out)
                return out
            return functools.wraps(fn)(places_above)
        if name == "basicfield.point_count":
            def point_count(F, k, *args, **kwargs):
                self.fiber_elements += F.field.order ** k
                return fn(F, k, *args, **kwargs)
            return functools.wraps(fn)(point_count)
        if name == "ffield.eval_x":
            inside = self.stats.setdefault("basicfield.point_count", _Stat())

            def eval_x(*args, **kwargs):
                if inside.depth:
                    self.fiber_evals += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(eval_x)
        return fn

    def install(self) -> "Tracer":
        modules = towerlab_modules()
        for modname, attr, name in ENTRIES:
            home = modules["towerlab." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                orig = owner.__dict__[meth]
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrap(name, self._hooked(name, orig.__func__)))
                else:
                    new = self._wrap(name, self._hooked(name, orig))
                self._set(owner, meth, orig, new)
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(name, self._hooked(name, orig))
            for mod in modules.values():
                if mod.__dict__.get(attr) is orig:
                    self._set(mod, attr, orig, wrapped)
        return self

    def _set(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def dump(self) -> dict:
        """Everything the tracer recorded, as plain JSON data."""
        return {
            "entries": {
                name: {"calls": s.calls, "s": s.total, "self_s": s.self_time}
                for name, s in sorted(self.stats.items())
            },
            "refinement_stages": self.refinement_stages,
            "fiber_evals": self.fiber_evals,
            "fiber_elements": self.fiber_elements,
        }


def merge(dumps: list[dict]) -> dict:
    """Sum several dumps (one per traced process) into one."""
    out = {"entries": {}, "refinement_stages": 0, "fiber_evals": 0, "fiber_elements": 0}
    for d in dumps:
        for name, e in d["entries"].items():
            acc = out["entries"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += e[k]
        for k in ("refinement_stages", "fiber_evals", "fiber_elements"):
            out[k] += d[k]
    return out


def layer_self(dump: dict) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, e in dump["entries"].items():
        out[name.split(".")[0]] += e["self_s"]
    return out

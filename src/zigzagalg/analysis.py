"""The one analysis pipeline: every space of one graph, HH^0, HH^1 and the checks.

:func:`analyze_graph` solves jordan and, if its audit passed each JDer basis
map as a derivation, reads Der and Anti off JDer (:func:`linmaps.derivation_space`,
:func:`linmaps.anti_space`); else, or without JDer (characteristic 2), solves both.
HH^0 = dim center and HH^1 = dim Der - dim Inner, after two invariants whose
failure is a bug in any field: dim Inner = dim A - dim center, Inner inside
Der.  On trees over the rationals it checks the paper's formulas and routes;
only there does the structured route run.  Relations between spaces are
decided in ints: jordan and structured = der on canonical int rows, Inner
in Der by its int generators and the dimension of their span, so over
the rationals only the center's rows hold ``Fraction``s.  The pipeline
builds no reference cycles, so it runs with the cyclic collector paused.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field as dc_field

from .exactlin import RATIONALS, span_dim, span_equal
from .linmaps import InternalInvariantError, ad_map, anti_space, derivation_space, solve, structured_space
from .quiver import Graph
from .zigzag import build_algebra, center, check_associativity

CHECK_KEYS = (
    "dim_algebra_formula",
    "center_formula",
    "der_formula",
    "inner_formula",
    "hh1_is_one",
    "jordan_eq_der",
    "anti_is_zero",
    "structured_eq_solver",
)

PASS = "pass"
FAIL = "fail"
NA = "not-applicable"


@dataclass
class Report:
    """Everything one analysis run produced, JSON-serializable and comparable."""

    n: int
    edges: list
    is_tree: bool
    field: str
    dim_algebra: int
    dim_center: int
    dim_der: int
    dim_jordan: object  # int, or None when the flavor was skipped
    dim_anti: int
    dim_inner: int
    hh0: int
    hh1: int
    formula_checks: dict
    timings_ms: dict = dc_field(default_factory=dict)

    def to_dict(self, include_timings: bool = True) -> dict:
        # shallow: every field but these three is an int, a bool, a str or None
        d = vars(self) | {"edges": [list(e) for e in self.edges], "formula_checks": dict(self.formula_checks)}
        d["timings_ms"] = dict(self.timings_ms)
        if not include_timings:
            del d["timings_ms"]
        return d

    def all_pass(self) -> bool:
        return all(v != FAIL for v in self.formula_checks.values())


def analyze_graph(g: Graph, field=RATIONALS):
    """Full pipeline on an in-memory graph.

    Returns (report, warnings).  Formula checks are asserted over the
    rationals; under gf:p they are recorded not-applicable and tree-formula
    mismatches come back as warnings.  Internal invariants raise
    InternalInvariantError in any field.  Jordan is solved unless the
    characteristic is 2 (see :class:`linmaps.CharacteristicTwoError`).
    The cyclic collector is paused, and left as found on return or raise:
    no object built here is in a cycle, so reference counting frees them all.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        timings: dict = {}
        warnings: list = []
        t_start = time.perf_counter()

        def elapsed_us() -> int:
            return round((time.perf_counter() - t_start) * 1e6)

        # stage bounds are read off one rounded clock, so the stages never sum to
        # more than the total
        def stage(name, fn):
            t0 = elapsed_us()
            out = fn()
            timings[name] = (elapsed_us() - t0) / 1000
            return out

        rational = field.characteristic == 0
        algebra = stage("build", lambda: build_algebra(g, field))
        is_tree = algebra.is_tree
        if not stage("associativity", lambda: check_associativity(algebra)):
            raise InternalInvariantError("the basis products are not associative")
        cen = stage("center", lambda: center(algebra))
        jor = None if field.characteristic == 2 else stage("jordan", lambda: solve(algebra, "jordan"))
        der = stage("derivation", lambda: derivation_space(algebra, jor))
        anti = stage("anti", lambda: anti_space(algebra, jor))
        if rational and is_tree:
            struct = stage("structured", lambda: structured_space(algebra))
        # span_dim, not inner_space: over GF(p) it is the one span_dim call, whose input benchmarks/tracing.py counts
        inner, dim_inner = stage("inner", lambda: (maps := [ad_map(algebra, k) for k in range(algebra.dim)], span_dim(maps, field)))

        t_checks = elapsed_us()
        if dim_inner != algebra.dim - cen.dimension:
            raise InternalInvariantError(
                f"inner dimension {dim_inner} != dim algebra {algebra.dim} - dim center {cen.dimension}"
            )
        if not der.contains(inner):
            raise InternalInvariantError("inner derivations do not sit inside the solved derivation space")
        hh1 = der.dimension - dim_inner

        n = g.n
        n_arrows = len(algebra.arrows)
        checks = {k: NA for k in CHECK_KEYS}

        # the tree formulas: checks over the rationals, warnings over gf:p
        tree_formulas = [
            ("der_formula", "derivation dimension", der.dimension, 3 * n - 2),
            ("inner_formula", "inner dimension", dim_inner, n + n_arrows - 1),
            ("center_formula", "center dimension", cen.dimension, n + 1),
            ("hh1_is_one", "hh1", hh1, 1),
        ] if is_tree else []
        if rational:
            checks["dim_algebra_formula"] = PASS if algebra.dim == 2 * n + n_arrows else FAIL
            for key, _, got, want in tree_formulas:
                checks[key] = PASS if got == want else FAIL
            if is_tree:
                # the center is spanned by the identity and the cycles
                span = [algebra.identity()] + [{c: field.one} for c in algebra.c_at.values()]
                if checks["center_formula"] == PASS and not span_equal(cen.rows, span, field):
                    checks["center_formula"] = FAIL
                if jor is not None:
                    checks["jordan_eq_der"] = PASS if jor.ints == der.ints else FAIL
                checks["anti_is_zero"] = PASS if anti.dimension == 0 else FAIL
                checks["structured_eq_solver"] = PASS if struct.ints == der.ints else FAIL
        else:
            for _, label, got, want in tree_formulas:
                if got != want:
                    warnings.append(
                        f"informational ({field.name}): {label} is {got}, rational-baseline formula gives {want}"
                    )

        timings["checks"] = (elapsed_us() - t_checks) / 1000
        timings["total"] = elapsed_us() / 1000
        report = Report(
            n=n,
            edges=[tuple(e) for e in sorted(g.edges)],
            is_tree=is_tree,
            field=field.name,
            dim_algebra=algebra.dim,
            dim_center=cen.dimension,
            dim_der=der.dimension,
            dim_jordan=None if jor is None else jor.dimension,
            dim_anti=anti.dimension,
            dim_inner=dim_inner,
            hh0=cen.dimension,
            hh1=hh1,
            formula_checks=checks,
            timings_ms=timings,
        )
        return report, warnings
    finally:
        if enabled:
            gc.enable()

"""Command-line front end: analyze one graph, sweep random trees, dump bases.

Exit codes: 0 all applicable checks pass, 1 invalid input (bad file, bad
flags, unusable graph), 2 a formula check or an internal invariant failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .exactlin import RATIONALS, parse_field, span_equal
from .linmaps import (
    InternalInvariantError,
    inner_space,
    materialize,
    solve,
    structured_parameter_basis,
    structured_space,
)
from .quiver import Graph, Xorshift64Star, parse_graph, random_tree, serialize_graph, validate
from .zigzag import build_algebra, center, check_associativity, cycle

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
        d = {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "is_tree": self.is_tree,
            "field": self.field,
            "dim_algebra": self.dim_algebra,
            "dim_center": self.dim_center,
            "dim_der": self.dim_der,
            "dim_jordan": self.dim_jordan,
            "dim_anti": self.dim_anti,
            "dim_inner": self.dim_inner,
            "hh0": self.hh0,
            "hh1": self.hh1,
            "formula_checks": dict(self.formula_checks),
        }
        if include_timings:
            d["timings_ms"] = dict(self.timings_ms)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        return cls(
            n=d["n"],
            edges=[tuple(e) for e in d["edges"]],
            is_tree=d["is_tree"],
            field=d["field"],
            dim_algebra=d["dim_algebra"],
            dim_center=d["dim_center"],
            dim_der=d["dim_der"],
            dim_jordan=d["dim_jordan"],
            dim_anti=d["dim_anti"],
            dim_inner=d["dim_inner"],
            hh0=d["hh0"],
            hh1=d["hh1"],
            formula_checks=dict(d["formula_checks"]),
            timings_ms=dict(d.get("timings_ms", {})),
        )

    def all_pass(self) -> bool:
        return all(v != FAIL for v in self.formula_checks.values())


def analyze_graph(g: Graph, field=RATIONALS, skip_jordan: bool = False):
    """Full pipeline on an in-memory graph.

    Returns (report, warnings).  Formula checks are asserted over the
    rationals; under gf:p they are recorded not-applicable and tree-formula
    mismatches come back as warnings.  Internal invariants raise
    InternalInvariantError in any field.
    """
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

    connected, is_tree = validate(g)
    algebra = stage("build", lambda: build_algebra(g, field))
    if not stage("associativity", lambda: check_associativity(algebra)):
        raise InternalInvariantError("multiplication table is not associative")
    cen = stage("center", lambda: center(algebra))
    der = stage("derivation", lambda: solve(algebra, "derivation"))
    if skip_jordan:
        jor = None
    else:
        jor = stage("jordan", lambda: solve(algebra, "jordan"))
    anti = stage("anti", lambda: solve(algebra, "anti"))
    struct = stage("structured", lambda: structured_space(algebra))
    inner = stage("inner", lambda: inner_space(algebra))

    t_checks = elapsed_us()
    if inner.dimension != algebra.dim - cen.dimension:
        raise InternalInvariantError(
            f"inner dimension {inner.dimension} != dim {algebra.dim} - center {cen.dimension}"
        )
    if not der.contains(inner.rows):
        raise InternalInvariantError("inner span escapes the derivation span")

    n = g.n
    n_arrows = len(algebra.quiver.arrows)
    hh0 = cen.dimension
    hh1 = der.dimension - inner.dimension

    checks = {k: NA for k in CHECK_KEYS}
    rational = field.characteristic == 0

    def expected_center_span():
        vecs = [algebra.identity()]
        vecs.extend(algebra.basis_vector(algebra.index(cycle(i))) for i in range(1, n + 1))
        return vecs

    if rational:
        checks["dim_algebra_formula"] = PASS if algebra.dim == 2 * n + n_arrows else FAIL
        if is_tree:
            center_ok = cen.dimension == n + 1 and span_equal(cen.basis, expected_center_span(), field)
            checks["center_formula"] = PASS if center_ok else FAIL
            checks["der_formula"] = PASS if der.dimension == 3 * n - 2 else FAIL
            checks["inner_formula"] = PASS if inner.dimension == n + n_arrows - 1 else FAIL
            checks["hh1_is_one"] = PASS if hh1 == 1 else FAIL
            if jor is not None:
                checks["jordan_eq_der"] = PASS if jor.rows == der.rows else FAIL
            checks["anti_is_zero"] = PASS if anti.dimension == 0 else FAIL
            checks["structured_eq_solver"] = PASS if struct.rows == der.rows else FAIL
    else:
        if is_tree:
            expected = {
                "derivation dimension": (der.dimension, 3 * n - 2),
                "inner dimension": (inner.dimension, n + n_arrows - 1),
                "center dimension": (cen.dimension, n + 1),
                "hh1": (hh1, 1),
            }
            for label, (got, want) in expected.items():
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
        dim_inner=inner.dimension,
        hh0=hh0,
        hh1=hh1,
        formula_checks=checks,
        timings_ms=timings,
    )
    return report, warnings


def _format_element(algebra, vec) -> str:
    field = algebra.field
    terms = []
    for p, v in enumerate(vec):
        if v == field.zero:
            continue
        name = str(algebra.basis[p])
        if v == field.one:
            terms.append(name)
        elif field.characteristic == 0 and v == -field.one:
            terms.append(f"-{name}")
        else:
            terms.append(f"{v}*{name}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _print_report(report: Report, quiet: bool, out) -> None:
    if not quiet:
        edges = ", ".join(f"({u},{v})" for u, v in report.edges)
        print(f"graph: n={report.n} edges=[{edges}] tree={'yes' if report.is_tree else 'no'} field={report.field}", file=out)
        rows = [
            ("dim algebra", report.dim_algebra),
            ("dim center", report.dim_center),
            ("dim derivations", report.dim_der),
            ("dim jordan", "skipped" if report.dim_jordan is None else report.dim_jordan),
            ("dim anti", report.dim_anti),
            ("dim inner", report.dim_inner),
            ("hh0", report.hh0),
            ("hh1", report.hh1),
        ]
        for label, val in rows:
            print(f"  {label:<18} {val}", file=out)
        for key in CHECK_KEYS:
            print(f"  check {key:<24} {report.formula_checks[key]}", file=out)
        timing = " ".join(f"{k}={v}" for k, v in report.timings_ms.items())
        print(f"  timings_ms: {timing}", file=out)
    verdict = "PASS" if report.all_pass() else "FAIL"
    print(f"result: {verdict}", file=out)


def cmd_analyze(args) -> int:
    try:
        field = parse_field(args.field)
        g = parse_graph(Path(args.graph).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    skip_jordan = args.skip_jordan
    if field.characteristic == 2 and not skip_jordan:
        print("warning: characteristic 2, jordan flavor skipped automatically", file=sys.stderr)
        skip_jordan = True
    try:
        report, warnings = analyze_graph(g, field, skip_jordan)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 2
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(include_timings=True), indent=2))
    else:
        _print_report(report, args.quiet, sys.stdout)
    return 0 if report.all_pass() else 2


def cmd_sweep(args) -> int:
    try:
        field = parse_field(args.field)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.count < 1 or args.n_min < 2 or args.n_max < args.n_min:
        print("error: need count >= 1 and 2 <= n-min <= n-max", file=sys.stderr)
        return 1
    skip_jordan = args.skip_jordan
    if field.characteristic == 2 and not skip_jordan:
        print("warning: characteristic 2, jordan flavor skipped automatically", file=sys.stderr)
        skip_jordan = True

    rng = Xorshift64Star(args.seed)
    span = args.n_max - args.n_min + 1
    results = []
    failures = []
    for k in range(args.count):
        n = args.n_min + k % span
        tree_seed = rng.next_u64()
        g = random_tree(n, tree_seed)
        try:
            report, warnings = analyze_graph(g, field, skip_jordan)
        except InternalInvariantError as exc:
            print(f"internal invariant failed on tree #{k}: {exc}", file=sys.stderr)
            print(serialize_graph(g), file=sys.stderr, end="")
            return 2
        for w in warnings:
            print(f"warning: tree #{k}: {w}", file=sys.stderr)
        ok = report.all_pass()
        results.append((k, tree_seed, report))
        if not ok:
            failures.append((k, g, report))

    if args.json:
        doc = {
            "seed": args.seed,
            "count": args.count,
            "n_min": args.n_min,
            "n_max": args.n_max,
            "field": field.name,
            "results": [
                {"index": k, "tree_seed": seed, **r.to_dict(include_timings=False)}
                for k, seed, r in results
            ],
            "pass_count": sum(1 for _, _, r in results if r.all_pass()),
            "all_pass": not failures,
        }
        print(json.dumps(doc, indent=2))
    else:
        if not args.quiet:
            print(f"{'#':>4} {'n':>3} {'dim_der':>8} {'dim_inner':>10} {'hh1':>4}  verdict")
            for k, _, r in results:
                verdict = "pass" if r.all_pass() else "FAIL"
                print(f"{k:>4} {r.n:>3} {r.dim_der:>8} {r.dim_inner:>10} {r.hh1:>4}  {verdict}")
        passed = sum(1 for _, _, r in results if r.all_pass())
        print(f"sweep: {passed}/{len(results)} pass")
    if failures:
        for k, g, _ in failures:
            print(f"failing tree #{k}:", file=sys.stderr)
            print(serialize_graph(g), file=sys.stderr, end="")
        return 2
    return 0


def cmd_dump(args) -> int:
    try:
        field = parse_field(args.field)
        g = parse_graph(Path(args.graph).read_text(encoding="utf-8"))
        algebra = build_algebra(g, field)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _, is_tree = validate(g)
    try:
        if is_tree:
            params = structured_parameter_basis(algebra)
            maps = [(p, materialize(algebra, p)) for p in params]
        else:
            maps = [(None, m) for m in solve(algebra, "derivation").basis]
    except InternalInvariantError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 2

    if args.json:
        doc = {
            "n": g.n,
            "edges": [list(e) for e in sorted(g.edges)],
            "field": field.name,
            "presentation": "parameters" if is_tree else "solver",
            "maps": [],
        }
        for p, m in maps:
            entry = {
                "params": None
                if p is None
                else {
                    "t": {f"{u}->{v}": str(c) for (u, v), c in sorted(p.t.items())},
                    "d": {f"{u}->{v}": str(c) for (u, v), c in sorted(p.d.items())},
                },
                "matrix": [
                    [str(m.columns[q][p_]) for q in range(algebra.dim)]
                    for p_ in range(algebra.dim)
                ],
            }
            doc["maps"].append(entry)
        print(json.dumps(doc, indent=2))
    else:
        print(f"derivation basis of n={g.n} ({'parameter' if is_tree else 'solver'} presentation), {len(maps)} maps")
        for idx, (p, m) in enumerate(maps):
            if p is not None:
                bits = [f"t[{u}->{v}]={c}" for (u, v), c in sorted(p.t.items())]
                bits += [f"d[{u}->{v}]={c}" for (u, v), c in sorted(p.d.items())]
                print(f"map {idx}: " + (", ".join(bits) if bits else "(zero parameters)"))
            else:
                print(f"map {idx}:")
            if not args.quiet:
                for q, b in enumerate(algebra.basis):
                    col = m.columns[q]
                    if any(v != field.zero for v in col):
                        print(f"  D({b}) = {_format_element(algebra, col)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other invalid input; --help keeps exit 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = _Parser(
        prog="zigzagalg",
        description="Derivations and low-degree Hochschild cohomology of zigzag algebras of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_jordan=True):
        p.add_argument("--field", default="rat", help="coefficient field: rat (default) or gf:<p>")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--quiet", action="store_true", help="suppress the table")
        if with_jordan:
            p.add_argument("--skip-jordan", action="store_true", help="skip the jordan flavor")

    p_an = sub.add_parser("analyze", help="analyze one graph file")
    p_an.add_argument("graph", help="path to a graph file")
    common(p_an)
    p_an.set_defaults(fn=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="analyze a deterministic corpus of random trees")
    p_sw.add_argument("--count", type=int, default=50)
    p_sw.add_argument("--n-min", type=int, default=2)
    p_sw.add_argument("--n-max", type=int, default=12)
    p_sw.add_argument("--seed", type=int, default=0)
    common(p_sw)
    p_sw.set_defaults(fn=cmd_sweep)

    p_du = sub.add_parser("dump-derivations", help="print a derivation basis for one graph file")
    p_du.add_argument("graph", help="path to a graph file")
    common(p_du, with_jordan=False)
    p_du.set_defaults(fn=cmd_dump)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 1
        return int(exc.code or 0)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

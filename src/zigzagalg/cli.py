"""Command-line front end: analyze one graph, sweep random trees, dump bases.

``analyze`` and ``sweep`` print the reports of :mod:`zigzagalg.analysis`.

Exit codes: 0 all applicable checks pass, 1 invalid input (bad file, bad
flags, unusable graph), 2 a formula check or an internal invariant failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import CHECK_KEYS, Report, analyze_graph
from .exactlin import parse_field
from .linmaps import InternalInvariantError, materialize, solve, structured_parameter_basis
from .quiver import Xorshift64Star, parse_graph, random_tree, serialize_graph
from .zigzag import build_algebra


def _format_element(algebra, col: dict) -> str:
    """A sparse element as a signed sum of basis names, in basis order."""
    field = algebra.field
    terms = []
    for p, v in sorted(col.items()):
        name = algebra.basis[p]
        if v == field.one:
            terms.append(name)
        elif field.characteristic == 0 and v == -field.one:
            terms.append(f"-{name}")
        else:
            terms.append(f"{v}*{name}")
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


def _parse_field_flag(args):
    """The field named by --field, or None after printing why it is invalid.
    In characteristic 2 it warns that jordan is skipped (analyze_graph skips it)."""
    try:
        field = parse_field(args.field)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if field.characteristic == 2:
        print("warning: characteristic 2, jordan flavor skipped automatically", file=sys.stderr)
    return field


def cmd_analyze(args) -> int:
    field = _parse_field_flag(args)
    if field is None:
        return 1
    try:
        g = parse_graph(Path(args.graph).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report, warnings = analyze_graph(g, field)
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
    field = _parse_field_flag(args)
    if field is None:
        return 1
    if args.count < 1 or args.n_min < 2 or args.n_max < args.n_min:
        print("error: need count >= 1 and 2 <= n-min <= n-max", file=sys.stderr)
        return 1
    try:
        rng = Xorshift64Star(args.seed)
        # opened only now, so a rejected sweep leaves an existing FILE as it was
        timings = None if args.timings is None else open(args.timings, "w", encoding="utf-8")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _sweep(args, field, rng, timings)
    finally:
        if timings is not None:
            timings.close()


def _sweep(args, field, rng, timings) -> int:
    span = args.n_max - args.n_min + 1
    results = []
    failures = []
    for k in range(args.count):
        n = args.n_min + k % span
        tree_seed = rng.next_u64()
        g = random_tree(n, tree_seed)
        try:
            report, warnings = analyze_graph(g, field)
        except InternalInvariantError as exc:
            print(f"internal invariant failed on tree #{k}: {exc}", file=sys.stderr)
            print(serialize_graph(g), file=sys.stderr, end="")
            return 2
        for w in warnings:
            print(f"warning: tree #{k}: {w}", file=sys.stderr)
        if timings is not None:
            record = {"index": k, "tree_seed": tree_seed, "n": n, "timings_ms": report.timings_ms}
            print(json.dumps(record), file=timings)
        results.append((k, tree_seed, report))
        if not report.all_pass():
            failures.append((k, g, report))
    passed = len(results) - len(failures)

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
            "pass_count": passed,
            "all_pass": not failures,
        }
        print(json.dumps(doc, indent=2))
    else:
        if not args.quiet:
            print(f"{'#':>4} {'n':>3} {'dim_der':>8} {'dim_inner':>10} {'hh1':>4}  verdict")
            for k, _, r in results:
                verdict = "pass" if r.all_pass() else "FAIL"
                print(f"{k:>4} {r.n:>3} {r.dim_der:>8} {r.dim_inner:>10} {r.hh1:>4}  {verdict}")
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
    is_tree = algebra.is_tree
    try:
        if is_tree:
            params = structured_parameter_basis(algebra)
            maps = [(p, materialize(algebra, p)) for p in params]
        else:
            maps = [(None, m) for m in solve(algebra, "derivation").rows]
    except InternalInvariantError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 2

    dim = algebra.dim
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
                    [str(m.get(p_ * dim + q, field.zero)) for q in range(dim)]
                    for p_ in range(dim)
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
                cols: dict = {}  # q -> the nonzero coefficients of D(b_q)
                for j, v in m.items():
                    p_, q = divmod(j, dim)
                    cols.setdefault(q, {})[p_] = v
                for q in sorted(cols):
                    print(f"  D({algebra.basis[q]}) = {_format_element(algebra, cols[q])}")
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

    def common(p):
        p.add_argument("--field", default="rat", help="coefficient field: rat (default) or gf:<p>")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--quiet", action="store_true", help="suppress the table")

    p_an = sub.add_parser("analyze", help="analyze one graph file")
    p_an.add_argument("graph", help="path to a graph file")
    common(p_an)
    p_an.set_defaults(fn=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="analyze a deterministic corpus of random trees")
    p_sw.add_argument("--count", type=int, default=50)
    p_sw.add_argument("--n-min", type=int, default=2)
    p_sw.add_argument("--n-max", type=int, default=12)
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument(
        "--timings", metavar="FILE", help="write each graph's stage timings to FILE, one JSON object per line"
    )
    common(p_sw)
    p_sw.set_defaults(fn=cmd_sweep)

    p_du = sub.add_parser("dump-derivations", help="print a derivation basis for one graph file")
    p_du.add_argument("graph", help="path to a graph file")
    common(p_du)
    p_du.set_defaults(fn=cmd_dump)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, usage errors exit 1
        return int(exc.code or 0)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: analyze one graph, sweep random trees, dump bases.

``analyze`` and ``sweep`` print the reports of :mod:`zigzagalg.analysis`.

Exit codes: 0 all applicable checks pass, 1 invalid input (bad file, bad
flags, unusable graph) or out of memory, 2 a formula check or an internal
invariant failed.  A command returns 0 or 2 for its verdict; :func:`main`
turns every error, for every command, into exit 1 (``error: ...``, and
``error: out of memory ...`` for a MemoryError) or 2 (``internal invariant
failed: ...``), an error while writing output (``--timings``) included.
Only ``sweep`` prints the failing tree, so that it can be replayed.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import cache

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


def _print_report(report: Report, quiet: bool) -> None:
    if not quiet:
        edges = ", ".join(f"({u},{v})" for u, v in report.edges)
        print(f"graph: n={report.n} edges=[{edges}] tree={'yes' if report.is_tree else 'no'} field={report.field}")
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
            print(f"  {label:<18} {val}")
        for key in CHECK_KEYS:
            print(f"  check {key:<24} {report.formula_checks[key]}")
        timing = " ".join(f"{k}={v}" for k, v in report.timings_ms.items())
        print(f"  timings_ms: {timing}")
    verdict = "PASS" if report.all_pass() else "FAIL"
    print(f"result: {verdict}")


def _parse_field_flag(args):
    """The field named by --field. In characteristic 2 it warns that jordan
    is skipped (analyze_graph skips it)."""
    field = parse_field(args.field)
    if field.characteristic == 2:
        print("warning: characteristic 2, jordan flavor skipped automatically", file=sys.stderr)
    return field


def cmd_analyze(args) -> int:
    field = _parse_field_flag(args)
    with open(args.graph, encoding="utf-8") as text:
        g = parse_graph(text.read())
    report, warnings = analyze_graph(g, field)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(include_timings=True), indent=2))
    else:
        _print_report(report, args.quiet)
    return 0 if report.all_pass() else 2


def cmd_sweep(args) -> int:
    field = _parse_field_flag(args)
    if args.count < 1 or args.n_min < 2 or args.n_max < args.n_min:
        raise ValueError("need count >= 1 and 2 <= n-min <= n-max")
    rng = Xorshift64Star(args.seed)
    # opened only now, so a rejected sweep leaves an existing FILE as it was
    with nullcontext() if args.timings is None else open(args.timings, "w", encoding="utf-8") as timings:
        return _sweep(args, field, rng, timings)


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
    field = parse_field(args.field)
    with open(args.graph, encoding="utf-8") as text:
        g = parse_graph(text.read())
    algebra = build_algebra(g, field)
    is_tree = algebra.is_tree
    if is_tree:
        maps = [(p, materialize(algebra, p)) for p in structured_parameter_basis(algebra)]
    else:
        maps = [(None, m) for m in solve(algebra, "derivation").rows]

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


@cache  # built on the first call, not at import
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_an.set_defaults(fn="cmd_analyze")

    p_sw = sub.add_parser("sweep", help="analyze a deterministic corpus of random trees")
    p_sw.add_argument("--count", type=int, default=50)
    p_sw.add_argument("--n-min", type=int, default=2)
    p_sw.add_argument("--n-max", type=int, default=12)
    p_sw.add_argument("--seed", type=int, default=0)
    p_sw.add_argument(
        "--timings", metavar="FILE", help="write each graph's stage timings to FILE, one JSON object per line"
    )
    common(p_sw)
    p_sw.set_defaults(fn="cmd_sweep")

    p_du = sub.add_parser("dump-derivations", help="print a derivation basis for one graph file")
    p_du.add_argument("graph", help="path to a graph file")
    common(p_du)
    p_du.set_defaults(fn="cmd_dump")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error, 2 in argparse, is invalid input
        return 1 if exc.code else 0
    try:
        return globals()[args.fn](args)  # looked up now, so a replaced cmd_* runs
    except InternalInvariantError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # the frames that held the memory are gone by now
        print("error: out of memory: the graph is too large for the memory available", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""A seeded mutation census of the package: which small faults does tier-1 miss?

A mutant is one module of ``src/zigzagalg`` parsed with ``ast`` and written
back with ``ast.unparse`` after one change at one mutation point:

- a comparison swapped: == and !=, < and <=, > and >=, in and not in, is and is not;
- an arithmetic operator changed: + and - swapped, * to +, // to *, % to //;
- an int constant changed: 0 to 1, 1 to 0, any other c to c + 1;
- ``and`` and ``or`` swapped, or a ``not`` dropped.

The census draws ``--count`` of the mutation points of ``MODULES`` with
``random.Random(--seed)``, so one seed picks the same mutants on one commit.
For each mutant it copies what tier-1 reads into a temporary directory (run in
the checkout, pytest's ``pythonpath = ["src"]`` would import the unmutated
``src/``) and runs tier-1 there with ``-x``. A mutant is *killed* when a test
fails, *hung* when a test runs past conftest's per-test limit or the run past
``CAP_S``, and *survived* otherwise. Before the sample, tier-1 runs once on the
unmutated unparse of every module: a failing baseline would kill every mutant.

It prints JSON on stdout: killed, survived and hung per module, each survivor
and hang with its source line and change, and the reason for each survivor on
``ACCEPTED``. On stderr it prints one line per mutant as it goes, then each
hang, each survivor not on ``ACCEPTED`` and each ``ACCEPTED`` entry that does
not name exactly one mutation point. Its exit status is 0 when there are none of those,
1 when there are, and 2 when the baseline fails. It writes nothing in the
checkout. tier-1 does not collect it (its name has no ``test_`` prefix).

    python tests/mutation_census.py --seed 7 --count 60
"""

import argparse
import ast
import collections
import contextlib
import copy
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zigzagalg"
MODULES = ("analysis", "cli", "exactlin", "linmaps", "quiver", "zigzag")
TIER1_INPUTS = ("pyproject.toml", "src", "tests", "benchmarks")  # all that tier-1 reads
CAP_S = 240  # tier-1 takes about 35 s; a test alone is stopped at 60 s by conftest
SWAPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv,
}

# (module, stripped source line, change) -> why no test can fail; each key
# must name exactly one mutation point
ACCEPTED = {
    ("exactlin", "ncols = 1 + max((j for r in rows for j in r), default=-1)", "-1 -> -0"):
        "equivalent: the default is taken only when no row has an entry, and then no column is checked",
    ("exactlin", "if row[lead] < 0:", "row[lead] < 0 -> row[lead] < 1"): "equivalent: a stored entry is a nonzero int",
    ("exactlin", "if row[lead] < 0:", "row[lead] < 0 -> row[lead] <= 0"): "equivalent: a stored entry is a nonzero int",
    ("exactlin", "return row if g == 1 else {j: v // g for j, v in row.items()}", "g == 1 -> g == 0"):
        "equivalent: the content of a nonzero row is never 0, and dividing by 1 gives an equal row",
    ("exactlin", "g = gcd(v, pivot[c]) if pivot[c] > 0 else -gcd(v, pivot[c])", "pivot[c] > 0 -> pivot[c] > 1"):
        "equivalent: at pivot[c] = 1 the reduced row comes out negated, which changes no span, and output rows are normalized",
    ("exactlin", "if a != 1 and (g := gcd(*row.values())) > 1:", "a != 1 -> a != 0"):
        "equivalent: dividing a row by its positive content changes no span or sign, and output rows are normalized",
    ("exactlin", "if a != 1 and (g := gcd(*row.values())) > 1:", "(g := gcd(*row.values())) > 1 -> (g := gcd(*row.values())) >= 1"):
        "equivalent: g is 0 only for an empty row, and dividing by g = 1 changes nothing",
    ("exactlin", "if a != 1 and (g := gcd(*row.values())) > 1:", "(g := gcd(*row.values())) > 1 -> (g := gcd(*row.values())) > 0"):
        "equivalent: g is 0 only for an empty row, and dividing by g = 1 changes nothing",
    ("exactlin", "if len(row := pivots[c]) > 1:", "len((row := pivots[c])) > 1 -> len((row := pivots[c])) >= 1"):
        "equivalent: a one-entry pivot row has no other column to clear",
    ("exactlin", "if D > 1:", "D > 1 -> D > 0"):
        "equivalent: at D = 1 each vector has the entry 1 at its free column, so content 1",
    ("exactlin", "if (L := row[c]) != 1:", "(L := row[c]) != 1 -> (L := row[c]) != 0"):
        "equivalent: scaling by L = 1 changes nothing",
    ("linmaps", "sides = 1 if symmetric else 2", "1 if symmetric else 2 -> 1 if symmetric else 3"):
        "equivalent: indices[-1] is the third table, which takes the left writes, and the second is never read",
    ("linmaps", "key = (y, c, p) if symmetric and y < c else (c, y, p)", "y < c -> y <= c"):
        "equivalent: both keys are (c, c, p) when y == c",
    ("linmaps", "if (t := a.products.get((r, q))) != p and (t is None or q < r) and (p, t) not in done:", "q < r -> q <= r"):
        "equivalent: at q == r, t is p and the first test already fails",
    ("quiver", "adj = {v: [] for v in range(1, g.n + 1)}", "range(1, g.n + 1) -> range(0, g.n + 1)"):
        "equivalent: vertex 0 has no edges, and the walk starts at 1",
    ("quiver", "edges.append((u, v) if u < v else (v, u))", "u < v -> u <= v"):
        "equivalent: the last two leaves differ",
}
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)  # exactlin._MR_BASES
ACCEPTED.update({
    ("exactlin", f"_MR_BASES = {_BASES}", f"{_BASES} -> {(*_BASES[:k], _BASES[k] + 1, *_BASES[k + 1:])}"):
        "no feasible test: the bumped bases still reject OEIS A014233's ψ1..ψ12 and agree with a sieve"
        " below 2·10^5, and PrimeField excludes ψ13 = PRIME_BOUND"
    for k in range(1, len(_BASES))  # 2 -> 3 is killed: it takes 4 for a prime
})


def _points(tree):
    """Each mutation point of ``tree`` as (node, its mutated copy, the node
    whose unparse shows the change), in ``ast.walk`` order."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                new = copy.copy(node)
                new.ops = [*node.ops[:k], SWAPS[type(op)](), *node.ops[k + 1:]]
                yield node, new, node
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            new = copy.copy(node)
            new.op = SWAPS[type(node.op)]()
            yield node, new, node
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            new = copy.copy(node)
            new.value = {0: 1, 1: 0}.get(node.value, node.value + 1)
            yield node, new, parents[node]  # a bare "0 -> 1" would not say which 0
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, node.operand, node


class _Replace(ast.NodeTransformer):
    def __init__(self, old, new):
        self.old, self.new = old, new

    def visit(self, node):
        return self.new if node is self.old else super().visit(node)


def mutation_points():
    """Every mutation point of ``MODULES`` as a dict: module, its index in the
    module's points, line, the stripped source line and the change."""
    points = []
    for module in MODULES:
        text = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        lines = text.splitlines()
        for index, (node, new, shown) in enumerate(_points(ast.parse(text))):
            before = ast.unparse(shown)
            if shown is node:
                after = ast.unparse(new)
            else:  # an int constant, shown in its parent: swapped in and back
                node.value, value = new.value, node.value
                after = ast.unparse(shown)
                node.value = value
            change = f"{before} -> {after}"
            points.append({"module": module, "index": index, "line": node.lineno,
                           "source": lines[node.lineno - 1].strip(), "change": change})
    return points


def mutant_source(point) -> str:
    """The unparse of ``point``'s module with that one change made."""
    tree = ast.parse((PACKAGE / f"{point['module']}.py").read_text(encoding="utf-8"))
    node, new, _ = list(_points(tree))[point["index"]]
    return ast.unparse(_Replace(node, new).visit(tree))


def run_tier1(sources: dict) -> str:
    """'killed', 'survived' or 'hung': tier-1 on a copy of the repository in
    which each module named in ``sources`` is replaced by its text."""
    with tempfile.TemporaryDirectory(prefix="mutation-census-") as tmp:
        repo = Path(tmp) / "repo"
        repo.mkdir()
        for name in TIER1_INPUTS:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, repo / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy2(ROOT / name, repo / name)
        for module, text in sources.items():
            (repo / "src" / "zigzagalg" / f"{module}.py").write_text(text, encoding="utf-8")
        # no bytecode: a cached mutant of equal size and mtime would be taken for the next one
        env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        with open(Path(tmp) / "log", "w+", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, cwd=repo, env=env, stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                proc.wait(timeout=CAP_S)
            except subprocess.TimeoutExpired:
                return "hung"
            finally:
                # tier-1 starts interpreters of its own: none may outlive the run
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            log.seek(0)
            if "TimeLimitExceeded" in log.read():
                return "hung"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", required=True, help="any string, e.g. a commit hash")
    parser.add_argument("--count", type=int, default=60, help="mutants to draw (default 60)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    points = mutation_points()
    matches = collections.Counter((p["module"], p["source"], p["change"]) for p in points)
    baseline = {m: ast.unparse(ast.parse((PACKAGE / f"{m}.py").read_text(encoding="utf-8"))) for m in MODULES}
    if run_tier1(baseline) != "survived":
        print("the unmutated unparse of the modules fails tier-1: no mutant can survive", file=sys.stderr)
        return 2

    counts = {m: {"killed": 0, "survived": 0, "hung": 0} for m in MODULES}
    survivors, hung = [], []
    drawn = random.Random(args.seed).sample(points, min(args.count, len(points)))
    for i, point in enumerate(drawn, 1):
        outcome = run_tier1({point["module"]: mutant_source(point)})
        counts[point["module"]][outcome] += 1
        record = {k: point[k] for k in ("module", "line", "source", "change")}
        if outcome == "survived":
            record["accepted"] = ACCEPTED.get((point["module"], point["source"], point["change"]))
            survivors.append(record)
        elif outcome == "hung":
            hung.append(record)
        print(f"[{i}/{len(drawn)}] {outcome:<8} {point['module']}:{point['line']}: {point['change']}", file=sys.stderr)

    stale = [list(key) for key in ACCEPTED if matches[key] != 1]
    print(json.dumps({
        "seed": args.seed, "count": len(drawn), "points": len(points),
        "seconds": round(time.perf_counter() - t0),
        "modules": counts, "survivors": survivors, "hung": hung, "stale_accepted": stale,
    }, indent=2, ensure_ascii=False))
    gaps = [r for r in survivors if r["accepted"] is None]
    for label, records in (("hung", hung), ("survived, not accepted", gaps)):
        for r in records:
            print(f"{label}: {r['module']}:{r['line']}: {r['source']}  [{r['change']}]", file=sys.stderr)
    for key in stale:
        print(f"accepted, but not exactly one mutation point: {key}", file=sys.stderr)
    return 1 if hung or gaps or stale else 0


if __name__ == "__main__":
    sys.exit(main())

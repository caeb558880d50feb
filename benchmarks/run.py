#!/usr/bin/env python3
"""zigzagalg benchmark: one workload per process, every output checked.

    python3 benchmarks/run.py --workload tree-rat --seed 1 --seconds 40 --trace 0

Workloads (see benchmarks/README.md for why each one is here):

    tree-rat       cli.analyze_graph over rat on seeded random trees, n=10
    tree-gf-large  cli.analyze_graph over gf:101 on seeded random trees, n=20
    sweep-rat      cli.main(["sweep", ..., "--json"]) in-process, n=2..7

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps the package's layer functions (benchmarks/tracing.py) and
reports per-layer self times and exact counters instead.  End-to-end times
are scaled to a nominal host speed by a fixed reference workload timed
between units (see "host speed" below and benchmarks/README.md).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller result file, with run
metadata, goes to ``benchmarks/out/``; traced runs also write their spans
there.  The package is imported from ``src/`` of the checkout the script sits
in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402

PACKAGE = "zigzagalg"

# One set-up sample is the mean time of SETUP_BATCH back-to-back set-ups
# (import plus input generation).  SAMPLES_BEFORE_UNITS samples are taken
# before the units, and one more after each unit of an untraced run, so that
# they span the whole run as the units do; each follows a reference call (see
# "host speed").  The first, cold import (bytecode compile, stdlib loads) is
# timed apart and not among them.
SETUP_BATCH = 3
SAMPLES_BEFORE_UNITS = 3

# Trees drawn per tree workload.  The corpus is the first `corpus` units
# (trees, or sweeps): every run completes it, then goes on through the stream
# (trees) or repeats the sweep while its time lasts.
TREE_STREAM = 64

WORKLOADS = {
    "tree-rat": {"kind": "trees", "n": 10, "field": "rat", "corpus": 4},
    "tree-gf-large": {"kind": "trees", "n": 20, "field": "gf:101", "corpus": 4},
    "sweep-rat": {"kind": "sweep", "n_min": 2, "n_max": 7, "count": 12, "field": "rat", "corpus": 1},
}

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


# ---------------------------------------------------------------- set-up


def import_package():
    """Import zigzagalg afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    return pkg


def make_inputs(zz, spec: dict, seed: int) -> list:
    """The workload's graphs, all derived from ``seed`` through Xorshift64Star.

    Tree workloads: ``TREE_STREAM`` trees of one size.  Sweep: the trees the
    sweep itself will draw, as (index, tree_seed, graph), to check it against.
    """
    rng = zz.Xorshift64Star(seed)
    if spec["kind"] == "trees":
        return [zz.random_tree(spec["n"], rng.next_u64()) for _ in range(TREE_STREAM)]
    span = spec["n_max"] - spec["n_min"] + 1
    out = []
    for k in range(spec["count"]):
        tree_seed = rng.next_u64()
        out.append((k, tree_seed, zz.random_tree(spec["n_min"] + k % span, tree_seed)))
    return out


def timed_setup(spec: dict, seed: int, times: list, batch: int = SETUP_BATCH):
    """Import the package afresh and draw the inputs, ``batch`` times in a row,
    and append the mean time of one set-up to ``times``.  Modules already
    imported are put back afterwards, so a run keeps using the package objects
    it started with."""
    kept = {m: mod for m, mod in sys.modules.items() if m == PACKAGE or m.startswith(PACKAGE + ".")}
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(batch):
        zz = import_package()
        inputs = make_inputs(zz, spec, seed)
    times.append((time.perf_counter() - t0) / batch)
    sys.modules.update(kept)
    return zz, inputs


def first_setup(spec: dict, seed: int):
    """(package, inputs, cold set-up time)."""
    cold = []
    zz, inputs = timed_setup(spec, seed, cold, batch=1)
    where = Path(zz.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported {PACKAGE} from {where}, not from {SRC}")
    return zz, inputs, cold[0]


# ---------------------------------------------------------------- host speed

# Other tenants' load slows this host by up to about 1.7x, in phases from
# seconds to minutes long (README, "Noise").  A fixed pure-Python workload that
# shares no code with the package, reference_work(), is timed before the units
# and after each one.  Every reported time is scaled by REF_NOMINAL_S over the
# time of the reference calls next to it, so it reads as at a host speed where
# one reference call takes REF_NOMINAL_S.  That is a round figure between the
# two speeds of the 2-core machine the bounds were set on, where a call took
# about 0.073 s or 0.125 s.  The unscaled times go to the result file.
REF_NOMINAL_S = 0.1


def reference_work() -> int:
    """Sparse exact elimination of a fixed random system, over Fractions and
    then mod 101: the arithmetic, dict and call mix the package runs on."""
    rng = random.Random(20230301)
    p = 101
    rank = 0
    for conv, inv, red in ((Fraction, lambda x: 1 / x, lambda x: x),
                           (int, lambda x: pow(x, p - 2, p), lambda x: x % p)):
        pivots = {}
        for _ in range(60):
            row = {c: conv(rng.randint(1, 5)) for c in rng.sample(range(70), 6)}
            while row:
                c = min(row)
                if c not in pivots:
                    f = inv(row[c])
                    pivots[c] = {k: red(v * f) for k, v in row.items()}
                    break
                g = row[c]
                for k, v in pivots[c].items():
                    x = red(row.get(k, 0) - g * v)
                    if x:
                        row[k] = x
                    else:
                        row.pop(k, None)
        rank += len(pivots)
    return rank


def time_reference(times: list) -> None:
    gc.collect()
    t0 = time.perf_counter()
    reference_work()
    times.append(time.perf_counter() - t0)


def scaled_unit_walls(run) -> list:
    """Each unit's wall time at the nominal speed, scaled by the mean of the
    reference calls just before and just after it."""
    r = run.ref_walls[SAMPLES_BEFORE_UNITS - 1:]
    return [w * 2 * REF_NOMINAL_S / (r[i] + r[i + 1]) for i, w in enumerate(run.unit_walls)]


def scaled_setup_times(run, setup_times: list) -> list:
    """Each set-up sample at the nominal speed, scaled by the reference call
    just before it."""
    return [t * REF_NOMINAL_S / r for t, r in zip(setup_times, run.ref_walls)]


# ---------------------------------------------------------------- checks


def expected_dims(n: int) -> dict:
    """The paper's closed forms for a tree on n vertices, in any field."""
    return {
        "dim_algebra": 4 * n - 2,
        "dim_center": n + 1,
        "dim_der": 3 * n - 2,
        "dim_jordan": 3 * n - 2,
        "dim_anti": 0,
        "dim_inner": 3 * n - 3,
        "hh0": n + 1,
        "hh1": 1,
    }


def report_problems(d: dict, g, field_name: str) -> list:
    """Mismatches between one report (as a dict) and the expected tree output."""
    problems = []
    want = expected_dims(g.n)
    for key, value in want.items():
        if d.get(key) != value:
            problems.append(f"{key} is {d.get(key)!r}, expected {value}")
    if d.get("n") != g.n or d.get("is_tree") is not True or d.get("field") != field_name:
        problems.append("n, is_tree or field differs from the input")
    if [tuple(e) for e in d.get("edges", [])] != sorted(g.edges):
        problems.append("edges differ from the input graph")
    # over rat every tree check is asserted; over gf:p all are not-applicable
    check = "pass" if field_name == "rat" else "not-applicable"
    checks = d.get("formula_checks", {})
    for key in CHECK_KEYS:
        if checks.get(key) != check:
            problems.append(f"check {key} is {checks.get(key)!r}, expected {check}")
    return problems


def sweep_problems(rc, stdout: str, stderr: str, spec: dict, seed: int, expected: list) -> tuple:
    """(failed tree count, problems) for one sweep run."""
    count = spec["count"]
    if rc != 0:
        return count, [f"sweep exited {rc}: {stderr.strip()[:200]}"]
    if stderr:
        return count, [f"sweep wrote to stderr: {stderr.strip()[:200]}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return count, [f"sweep stdout is not JSON: {exc}"]
    problems = []
    head = {"seed": seed, "count": count, "n_min": spec["n_min"], "n_max": spec["n_max"],
            "field": spec["field"], "pass_count": count, "all_pass": True}
    for key, value in head.items():
        if doc.get(key) != value:
            problems.append(f"sweep {key} is {doc.get(key)!r}, expected {value!r}")
    if '"all_pass": true' not in stdout:
        problems.append("sweep did not print all_pass: true")
    results = doc.get("results", [])
    if len(results) != count:
        return count, problems + [f"sweep has {len(results)} results, expected {count}"]
    failed = 0
    for r, (k, tree_seed, g) in zip(results, expected):
        bad = report_problems(r, g, spec["field"])
        if r.get("index") != k or r.get("tree_seed") != tree_seed:
            bad.append("index or tree_seed differs from the seeded stream")
        if "timings_ms" in r:
            bad.append("sweep result carries timings")
        if bad:
            failed += 1
            problems.extend(f"tree #{k}: {p}" for p in bad)
    if problems and not failed:
        failed = count
    return failed, problems


# ---------------------------------------------------------------- units


@dataclasses.dataclass
class Run:
    """Outcome of the measured units of one run."""

    unit_walls: list = dataclasses.field(default_factory=list)  # per unit, in order
    analyze_walls: list = dataclasses.field(default_factory=list)  # per analyze_graph call
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    digests: list = dataclasses.field(default_factory=list)  # sweep stdout SHA-256s
    ref_walls: list = dataclasses.field(default_factory=list)  # reference_work() calls


def tree_unit(zz, g, field, field_name: str, run: Run) -> None:
    """Analyze one tree and check it; the unit is the analyze_graph call."""
    gc.collect()
    problems = []
    t0 = time.perf_counter()
    try:
        report, warnings = zz.cli.analyze_graph(g, field)
    except Exception as exc:  # a raising analysis is a failed one, not a crash
        wall = time.perf_counter() - t0
        problems.append(f"analyze_graph raised {type(exc).__name__}: {exc}")
    else:
        wall = time.perf_counter() - t0
        problems.extend(report_problems(report.to_dict(include_timings=False), g, field_name))
        problems.extend(f"warning: {w}" for w in warnings)
    run.unit_walls.append(wall)
    run.analyze_walls.append(wall)
    run.attempted += 1
    if problems:
        run.failed += 1
        run.problems.extend(f"n={g.n} edges={sorted(g.edges)}: {p}" for p in problems)


def sweep_unit(zz, spec: dict, seed: int, expected: list, run: Run, time_analyses: bool) -> None:
    """One in-process `sweep --json`, stdout and stderr captured and checked."""
    argv = ["sweep", "--seed", str(seed), "--count", str(spec["count"]),
            "--n-min", str(spec["n_min"]), "--n-max", str(spec["n_max"]),
            "--field", spec["field"], "--json"]
    cli = zz.cli
    inner = cli.analyze_graph
    walls = []

    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            walls.append(time.perf_counter() - t)

    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    if time_analyses:
        cli.analyze_graph = timed
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # counted as a failed sweep
                rc = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
    finally:
        cli.analyze_graph = inner
    stdout = out.getvalue()
    failed, problems = sweep_problems(rc, stdout, err.getvalue(), spec, seed, expected)
    run.unit_walls.append(wall)
    run.analyze_walls.extend(walls)
    run.attempted += spec["count"]
    run.failed += failed
    run.problems.extend(problems)
    run.digests.append(hashlib.sha256(stdout.encode()).hexdigest())


def run_units(zz, spec: dict, seed: int, inputs: list, seconds: float, run: Run, tracer=None,
              after_unit=None) -> None:
    """Run the corpus's units, then more while the next one, at the mean unit
    time so far, still ends within ``seconds``.  ``after_unit()``, if given,
    runs after each unit, outside its timed region."""
    field = zz.parse_field(spec["field"])
    start = time.perf_counter()
    k = 0
    while True:
        if k >= spec["corpus"]:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / k > seconds:
                break
        if spec["kind"] == "trees" and k >= len(inputs):
            break
        if tracer is not None:
            tracer.unit = k
        if spec["kind"] == "trees":
            tree_unit(zz, inputs[k], field, spec["field"], run)
        else:
            sweep_unit(zz, spec, seed, inputs, run, time_analyses=tracer is None)
        if after_unit is not None:
            after_unit()
        k += 1




# ---------------------------------------------------------------- metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def corpus_wall(spec: dict, unit_walls: list) -> float:
    """Time to finish the corpus: its size times the mean unit time.  A mean,
    not a median: unit times cluster at the host's two speeds, and a median of
    them jumps between the clusters where a mean moves in proportion."""
    return spec["corpus"] * statistics.fmean(unit_walls)


def end_to_end(spec: dict, run: Run, setup_times: list) -> dict:
    return {
        "setup_s": (statistics.median(scaled_setup_times(run, setup_times)), "s"),
        "wall_s": (corpus_wall(spec, scaled_unit_walls(run)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def counted_totals(tracer, counted: list) -> Counter:
    """Counters summed over the units in ``counted``, a fixed prefix of the
    seed's inputs, so the same seed gives the same totals."""
    return sum((tracer.counters[u] for u in counted), Counter())


def per_layer(tracer, units: list, c: Counter) -> dict:
    """Median per-unit self time of each layer, and the exact counters ``c``."""
    per_unit = [tracing.self_times(tracer.unit_spans(u)) for u in units]
    metrics = {}
    for name in tracing.SPAN_NAMES:
        if name == "quiver.random_tree":
            value = tracing.self_times(tracer.unit_spans("setup"))[name]
        else:
            value = statistics.median(st[name] for st in per_unit)
        metrics[f"{name}.self_s"] = (value, "s")
    for name in tracing.COUNTER_NAMES:
        metrics[name] = (c[name], "count")
    rows, nnz_in = c["exactlin.rref.rows"], c["exactlin.rref.nnz_in"]
    metrics["exactlin.rref.rank_per_row"] = (c["exactlin.rref.rank"] / rows if rows else 0.0, "ratio")
    metrics["exactlin.rref.fill_ratio"] = (c["exactlin.rref.nnz_out"] / nnz_in if nnz_in else 0.0, "ratio")
    return metrics


def identity_problems(tracer, units: list, run: Run) -> list:
    """Per unit: spans nest, and the self times of its spans add up to the
    unit's wall time up to the harness's own few microseconds outside them."""
    problems = []
    for i, u in enumerate(units):
        spans = tracer.unit_spans(u)
        problems.extend(f"unit {u}: {e}" for e in tracing.nesting_errors(spans))
        total = sum(tracing.self_times(spans).values())
        covered = sum(s.duration for s in spans if s.parent is None)
        wall = run.unit_walls[i]
        if abs(total - covered) > 1e-9 * max(1.0, covered) or not 0 <= wall - covered <= 0.01 * wall + 1e-3:
            problems.append(f"unit {u}: self times {total:.6f} s, root spans {covered:.6f} s, wall {wall:.6f} s")
    return problems


# ---------------------------------------------------------------- metadata


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def metadata(args, spec: dict, run: Run, cold_setup: float, setup_times: list) -> dict:
    return {
        "workload": args.workload,
        "spec": spec,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load": "one process, one thread",
        "git_commit": git_commit(),
        "samples": {
            "setup": len(setup_times),
            "reference": len(run.ref_walls),
            "units": len(run.unit_walls),
            "analyze": len(run.analyze_walls),
        },
        "reference_walls_s": run.ref_walls,
        "unscaled": {
            "setup_s": statistics.median(setup_times) if setup_times else None,
            "wall_s": corpus_wall(spec, run.unit_walls),
            "analyze_p50_s": statistics.median(run.analyze_walls) if run.analyze_walls else None,
        },
        "cold_setup_s": cold_setup,
        "setup_times_s": setup_times,
        "unit_walls_s": run.unit_walls,
        "analyze_walls_s": run.analyze_walls,
        "attempted": run.attempted,
        "failed": run.failed,
        "fail_ratio": run.failed / run.attempted,
        "problems": run.problems[:50],
        "stdout_digests": run.digests,
    }


def write_json(path: Path, doc) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    zz, inputs, cold_setup = first_setup(spec, args.seed)
    run = Run()
    setup_times = []

    def sample():
        """A reference call and, in an untraced run, a set-up sample after it."""
        time_reference(run.ref_walls)
        if not args.trace:
            timed_setup(spec, args.seed, setup_times)

    reference_work()  # warm-up, untimed
    for _ in range(SAMPLES_BEFORE_UNITS):
        sample()

    if not args.trace:
        run_units(zz, spec, args.seed, inputs, args.seconds, run, after_unit=sample)
        metrics = end_to_end(spec, run, setup_times)
        extra = {}
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.unit = "setup"
            make_inputs(zz, spec, args.seed)
            run_units(zz, spec, args.seed, inputs, args.seconds, run, tracer=tracer, after_unit=sample)
        finally:
            tracer.restore()
        units = list(range(len(run.unit_walls)))
        counters = counted_totals(tracer, units[:spec["corpus"]])
        metrics = per_layer(tracer, units, counters)
        metrics["trace.wall_s"] = (corpus_wall(spec, scaled_unit_walls(run)), "s")
        run.problems.extend(identity_problems(tracer, units, run))
        write_json(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json",
                   [dataclasses.asdict(s) for s in tracer.spans])
        extra = {"counters": dict(sorted(counters.items()))}

    if args.workload == "sweep-rat" and len(set(run.digests)) > 1:
        run.problems.append(f"sweep stdout differs between repeats: {sorted(set(run.digests))}")
    correct = run.failed == 0 and not run.problems
    meta = metadata(args, spec, run, cold_setup, setup_times)
    write_json(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
               {**meta, **extra, "correct": correct,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})

    for p in run.problems[:20]:
        print(f"problem: {p}")
    print(f"workload {args.workload} seed {args.seed}: {run.attempted} analyses, {run.failed} failed, "
          f"fail_ratio {run.failed / run.attempted}, {len(run.unit_walls)} units, "
          f"python {meta['python']}, nproc {meta['nproc']}, commit {meta['git_commit']}")
    if run.digests:
        print(f"sweep stdout sha256 {run.digests[0]}")
    raw = meta["unscaled"]
    print(f"  unscaled: setup_s {raw['setup_s']} s, wall_s {raw['wall_s']} s; "
          f"{len(run.ref_walls)} reference calls, mean {statistics.fmean(run.ref_walls)} s")
    if run.analyze_walls:
        # printed, not a JSON metric: see "Noise" in benchmarks/README.md
        print(f"  analyze_p50_s {raw['analyze_p50_s']} s unscaled, over {len(run.analyze_walls)} analyze_graph calls")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<50} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and exact counters for zigzagalg, recorded from outside the package.

A :class:`Tracer` wraps the package's public layer functions in timing shims.
Each call records a span (name, start, end, parent span, unit id) in memory,
and a per-function hook reads exact counters off the call's arguments and
return value.  Nothing inside ``src/`` is changed: the shims are installed by
rebinding module attributes and are removed again by :meth:`Tracer.restore`.

``cli`` and ``linmaps`` bind functions with ``from ... import``, so a shim is
installed under every ``zigzagalg.*`` module attribute that holds the same
function object; patching the defining module alone would miss those calls.
Per-scalar helpers (field operations, ``multiply``) are never wrapped: their
call counts run into the millions and a shim would swamp what they measure.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "zigzagalg"

# module -> public functions wrapped, one layer per module
TARGETS = {
    "exactlin": ("rref", "nullspace_basis", "span_canonical_basis", "span_equal", "span_dim"),
    "linmaps": ("leibniz_system", "solve", "structured_space", "inner_space", "verify_map"),
    "zigzag": ("build_algebra", "check_associativity", "center"),
    "cli": ("analyze_graph", "main"),
    "quiver": ("random_tree",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# Time the hooks spend counting, recorded as a child span of the caller so it
# is excluded from every layer's self time.
HOOK_SPAN = "trace.hook"

FLAVORS = ("derivation", "jordan", "anti")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    unit: object
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nnz(rows) -> int:
    return sum(len(r) for r in rows)


def _dense_entries(vectors) -> int:
    return sum(len(v) for v in vectors)


def _count_rref(c, args, kwargs, out):
    m = args[0]
    c["exactlin.rref.rows"] += m.nrows
    c["exactlin.rref.rank"] += out.rank
    c["exactlin.rref.nnz_in"] += _nnz(m.rows)
    c["exactlin.rref.nnz_out"] += _nnz(out.reduced.rows)


def _count_span_one(c, args, kwargs, out):
    c["exactlin.dense_entries_in"] += _dense_entries(args[0])


def _count_span_equal(c, args, kwargs, out):
    c["exactlin.dense_entries_in"] += _dense_entries(args[0]) + _dense_entries(args[1])


def _count_leibniz(c, args, kwargs, out):
    flavor = args[1] if len(args) > 1 else kwargs["flavor"]
    key = f"linmaps.leibniz_system.{flavor}"
    c[f"{key}.rows"] += out.nrows
    c[f"{key}.nnz"] += _nnz(out.rows)
    c[f"{key}.singleton_rows"] += sum(1 for r in out.rows if len(r) == 1)
    c["linmaps.leibniz_system.unknowns"] += out.ncols


def _count_solve(c, args, kwargs, out):
    c[f"linmaps.solve.{out.flavor}.kernel_dim"] += out.dimension


def _count_verify(c, args, kwargs, out):
    c["linmaps.verify_map.calls"] += 1


HOOKS = {
    "exactlin.rref": _count_rref,
    "exactlin.span_canonical_basis": _count_span_one,
    "exactlin.span_dim": _count_span_one,
    "exactlin.span_equal": _count_span_equal,
    "linmaps.leibniz_system": _count_leibniz,
    "linmaps.solve": _count_solve,
    "linmaps.verify_map": _count_verify,
}

# Counters published as they are; the rref ones are published as ratios.
COUNTER_NAMES = (
    "exactlin.dense_entries_in",
    *(f"linmaps.leibniz_system.{f}.{k}" for f in FLAVORS for k in ("rows", "nnz", "singleton_rows")),
    "linmaps.leibniz_system.unknowns",
    *(f"linmaps.solve.{f}.kernel_dim" for f in FLAVORS),
    "linmaps.verify_map.calls",
)


class Tracer:
    """Records spans and counters for calls into the wrapped functions.

    Set :attr:`unit` before each unit of work; every span and counter is
    tagged with it.  The program is single-threaded, so one span stack
    suffices.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = defaultdict(Counter)
        self.unit = None
        self._stack: list = []
        self._patched: list = []
        self._clock = time.perf_counter

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod, fns in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def restore(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        clock = self._clock
        spans = self.spans
        stack = self._stack

        def shim(*args, **kwargs):
            parent = stack[-1].id if stack else None
            span = Span(len(spans), name, parent, self.unit, 0.0)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                h = Span(len(spans), HOOK_SPAN, parent, self.unit, clock())
                hook(self.counters[self.unit], args, kwargs, out)
                h.end = clock()
                spans.append(h)
            return out

        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", name)
        return shim

    def unit_spans(self, unit) -> list:
        return [s for s in self.spans if s.unit == unit]


def self_times(spans) -> dict:
    """Self time per span name: duration minus the time child spans cover."""
    child_time: Counter = Counter()
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out: Counter = Counter()
    for s in spans:
        out[s.name] += s.duration - child_time[s.id]
    return out


def nesting_errors(spans) -> list:
    """Spans that leave their parent's interval or overlap a sibling."""
    by_id = {s.id: s for s in spans}
    errors = []
    children = defaultdict(list)
    for s in spans:
        if s.end < s.start:
            errors.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            errors.append(f"span {s.id} {s.name} has a parent outside the set")
        elif s.start < p.start or s.end > p.end:
            errors.append(f"span {s.id} {s.name} leaves parent {p.id} {p.name}")
        children[s.parent].append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s.start)
        for a, b in zip(kids, kids[1:]):
            if b.start < a.end:
                errors.append(f"spans {a.id} and {b.id} overlap")
    return errors

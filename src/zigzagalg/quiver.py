"""Simple graphs, their text format, connectivity, and seeded random labeled trees.

A :class:`Graph` checks its own vertex count and edges when built, and
:func:`validate` decides connectivity.  The text format accepted by
:func:`parse_graph` is line-oriented UTF-8:

    # comment
    vertices 4
    edge 1 2
    edge 2 3
    edge 2 4

Vertices are 1..n.  Edges in a file are unordered, loops and duplicates are
rejected, and every parse error carries the offending 1-based line number.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


class GraphParseError(ValueError):
    """Malformed graph text; ``line`` is the 1-based offending line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 1..n, each edge the ordered pair
    (u, v) with u < v.  Construction rejects a negative n, edges that are
    not a frozenset (so hold no duplicate edge, and the graph hashes) and
    any other pair: a loop, a reversed pair or an endpoint out of range."""

    n: int
    edges: frozenset

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count {self.n} is negative")
        if not isinstance(self.edges, frozenset):
            raise TypeError(f"edges is a {type(self.edges).__name__}, not a frozenset of pairs")
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for {self.n} vertices")


def parse_graph(text) -> Graph:
    """Parse the graph file format; see the module docstring."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    text = text.removeprefix("\ufeff")  # a byte-order mark some editors write
    n = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "vertices" or len(tokens) != 2:
                raise GraphParseError(lineno, f"expected 'vertices <n>' header, got {line!r}")
            try:
                n = int(tokens[1])
            except ValueError:
                raise GraphParseError(lineno, f"vertex count {tokens[1]!r} is not an integer") from None
            if n < 0:
                raise GraphParseError(lineno, f"vertex count {n} is negative")
            continue
        if tokens[0] != "edge" or len(tokens) != 3:
            raise GraphParseError(lineno, f"expected 'edge <u> <v>', got {line!r}")
        try:
            u, v = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise GraphParseError(lineno, f"edge endpoints in {line!r} are not integers") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphParseError(lineno, f"edge ({u}, {v}) out of range 1..{n}")
        if u == v:
            raise GraphParseError(lineno, f"loop edge at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise GraphParseError(lineno, f"duplicate edge ({u}, {v})")
        edges.add(e)
    if n is None:
        raise GraphParseError(1, "missing 'vertices <n>' header")
    return Graph(n, frozenset(edges))


def serialize_graph(g: Graph) -> str:
    """Inverse of :func:`parse_graph` up to comments and edge order."""
    lines = [f"vertices {g.n}"]
    lines.extend(f"edge {u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def validate(g: Graph) -> bool:
    """Whether g is connected, by one graph walk; the empty graph is not."""
    if g.n == 0 or len(g.edges) < g.n - 1:  # too few edges to connect
        return False
    adj = {v: [] for v in range(1, g.n + 1)}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    queue = [1]
    while queue:
        x = queue.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == g.n


_MASK64 = (1 << 64) - 1
_SEED_FALLBACK = 0x9E3779B97F4A7C15


class Xorshift64Star:
    """xorshift64* generator, fixed here so corpora are reproducible anywhere.

    The seed is in 0..2**64-1 (else ValueError), and the state is nonzero: a
    zero seed is remapped to the odd constant 0x9E3779B97F4A7C15.  One step is

        x ^= x >> 12;  x ^= (x << 25) & mask64;  x ^= x >> 27
        output = (x * 0x2545F4914F6CDD1D) & mask64
    """

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"need 0 <= seed < 2**64, got {seed}")
        self.state = seed or _SEED_FALLBACK

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, n: int) -> int:
        """Uniform draw from 0..n-1 by rejection (no modulo bias), 1 <= n <= 2**64."""
        if not 1 <= n <= 1 << 64:
            raise ValueError(f"need 1 <= n <= 2**64, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n


def random_tree(n: int, seed: int) -> Graph:
    """Uniformly random labeled tree on vertices 1..n (n >= 2).

    Draws a Pruefer sequence of length n-2 with the documented xorshift64*
    stream and decodes it, so a (n, seed) pair names the same tree in any
    implementation of this recurrence.
    """
    if n < 2:
        raise ValueError(f"need at least 2 vertices for a tree, got {n}")
    rng = Xorshift64Star(seed)
    seq = [1 + rng.below(n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s) if leaf < s else (s, leaf))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return Graph(n, frozenset(edges))


def path_graph(n: int) -> Graph:
    """The path 1 - 2 - ... - n."""
    return Graph(n, frozenset((i, i + 1) for i in range(1, n)))


def star_graph(n: int) -> Graph:
    """The star with center 1 and n - 1 leaves."""
    return Graph(n, frozenset((1, k) for k in range(2, n + 1)))

"""Small simple graphs and the combinatorial quantities the rate formulas need.

Graphs here play the role of the fixed pattern H: a handful of vertices,
parsed from an edge list or a named spec.  Everything is exhaustive
enumeration behind an explicit vertex cap; patterns are small by design.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ParseError, ResourceError

ENUM_CAP = 20  # exhaustive subset enumeration beyond this is refused


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: tuple  # tuple of (u, v) pairs with u < v, sorted

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise DomainError(f"edge {e} out of range for n={self.vertex_count}")
            if u > v:
                raise DomainError(f"edge {e} not normalized (expected u < v)")
            if e in seen:
                raise DomainError(f"duplicate edge {e}")
            seen.add(e)

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_count(self):
        return len(self.edges)

    def degrees(self):
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def max_degree(self):
        if self.vertex_count == 0:
            return 0
        return max(self.degrees(), default=0)

    def min_degree(self):
        if self.vertex_count == 0:
            return 0
        return min(self.degrees(), default=0)

    def is_regular(self):
        deg = self.degrees()
        return self.vertex_count > 0 and min(deg) == max(deg)

    def neighbors(self):
        adj = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def adjacency(self):
        import numpy as np

        a = np.zeros((self.vertex_count, self.vertex_count), dtype=np.int64)
        for u, v in self.edges:
            a[u, v] = 1
            a[v, u] = 1
        return a

    def components(self):
        """The connected components, each as a sorted list of vertices."""
        adj = self.neighbors()
        seen = set()
        out = []
        for root in range(self.vertex_count):
            if root in seen:
                continue
            seen.add(root)
            comp, stack = [root], [root]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        stack.append(w)
            out.append(sorted(comp))
        return out

    def is_connected(self):
        return len(self.components()) <= 1

    def induced(self, vertices):
        """Subgraph induced on `vertices`, relabeled 0..k-1 in sorted order."""
        keep = sorted(vertices)
        index = {v: i for i, v in enumerate(keep)}
        edges = tuple(
            sorted(
                (index[u], index[v])
                for u, v in self.edges
                if u in index and v in index
            )
        )
        return Graph(len(keep), edges)


def _make(n, pairs):
    return Graph(n, tuple(sorted((min(u, v), max(u, v)) for u, v in pairs)))


def cycle(l: int) -> Graph:
    if l < 3:
        raise DomainError("cycle length must be >= 3")
    return _make(l, [(i, (i + 1) % l) for i in range(l)])


def clique(k: int) -> Graph:
    if k < 1:
        raise DomainError("clique size must be >= 1")
    return _make(k, itertools.combinations(range(k), 2))


def star(k: int) -> Graph:
    """K_{1,k}: hub vertex 0 joined to k leaves."""
    if k < 1:
        raise DomainError("star must have >= 1 leaf")
    return _make(k + 1, [(0, i) for i in range(1, k + 1)])


def path(k: int) -> Graph:
    """Path on k vertices (k-1 edges)."""
    if k < 1:
        raise DomainError("path must have >= 1 vertex")
    return _make(k, [(i, i + 1) for i in range(k - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise DomainError("bipartite sides must be >= 1")
    return _make(a + b, [(i, a + j) for i in range(a) for j in range(b)])


_NAMED = {
    "cycle": (cycle, 1),
    "clique": (clique, 1),
    "star": (star, 1),
    "path": (path, 1),
    "complete_bipartite": (complete_bipartite, 2),
}


def parse_graph(text: str) -> Graph:
    """Parse an edge list ("u v" per line, '#' comments) or a named spec.

    Named specs: cycle:l, clique:k, star:k, path:k, complete_bipartite:a:b.
    """
    stripped = text.strip()
    if ":" in stripped and "\n" not in stripped and not stripped[0].isdigit():
        parts = stripped.split(":")
        name = parts[0]
        if name not in _NAMED:
            raise ParseError(f"unknown graph spec '{name}'")
        fn, argc = _NAMED[name]
        if len(parts) - 1 != argc:
            raise ParseError(f"spec '{stripped}': expected {argc} parameter(s)")
        try:
            args = [int(s) for s in parts[1:]]
        except ValueError:
            raise ParseError(f"spec '{stripped}': non-integer parameter")
        return fn(*args)

    pairs = []
    n = 0
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two integers, got '{line}'")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer token in '{line}'")
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex in '{line}'")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop '{line}'")
        key = (min(u, v), max(u, v))
        if key in pairs:
            raise ParseError(f"line {lineno}: duplicate edge '{line}'")
        pairs.append(key)
        n = max(n, u + 1, v + 1)
    return _make(n, pairs)


def two_core(h: Graph):
    """Iteratively strip degree-<=1 vertices.

    Returns (core, kept) where `kept[i]` is the original label of core
    vertex i.  Trees peel down to the empty graph.
    """
    alive = set(range(h.vertex_count))
    adj = h.neighbors()
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            deg = sum(1 for w in adj[v] if w in alive)
            if deg <= 1:
                alive.discard(v)
                changed = True
    kept = sorted(alive)
    return h.induced(kept), kept


def delta_star(h: Graph) -> Fraction:
    """Half the maximum endpoint-degree sum over edges."""
    if h.edge_count == 0:
        raise DomainError("delta_star needs at least one edge")
    deg = h.degrees()
    return Fraction(max(deg[u] + deg[v] for u, v in h.edges), 2)


def h_star(h: Graph) -> Graph:
    """Subgraph induced on the maximum-degree vertices."""
    if h.vertex_count == 0:
        raise DomainError("h_star needs a nonempty graph")
    deg = h.degrees()
    dmax = max(deg)
    return h.induced([v for v in range(h.vertex_count) if deg[v] == dmax])


def _check_cap(h: Graph, what: str):
    if h.vertex_count > ENUM_CAP:
        raise ResourceError(
            f"{what}: vertex count {h.vertex_count} exceeds enumeration cap {ENUM_CAP}"
        )


def _independent_tuples(h: Graph, what: str):
    """Every independent vertex set of h (the empty set first) as an
    increasing tuple, in depth-first order; refused above ENUM_CAP."""
    _check_cap(h, what)
    masks = [0] * h.vertex_count
    for u, v in h.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u

    def extend(current, mask, start):
        yield current
        for v in range(start, h.vertex_count):
            if not mask & (1 << v):
                yield from extend(current + (v,), mask | masks[v], v + 1)

    return extend((), 0, 0)


def independent_sets(h: Graph):
    """All independent vertex sets (the empty set included), size-then-lex order."""
    tuples = _independent_tuples(h, "independent_sets")
    return [frozenset(s) for s in sorted(tuples, key=lambda s: (len(s), s))]


@dataclass(frozen=True)
class IndependencePolynomial:
    """coefficients[k] = number of independent sets of size k."""

    coefficients: tuple

    def __call__(self, x: float) -> float:
        total = 0.0
        for c in reversed(self.coefficients):
            total = total * x + c
        return total


def independence_polynomial(h: Graph) -> IndependencePolynomial:
    counts = [0] * (h.vertex_count + 1)
    for s in _independent_tuples(h, "independence_polynomial"):
        counts[len(s)] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return IndependencePolynomial(tuple(counts))


def f_exponent(h: Graph) -> Fraction:
    """Exponent governing the regular-ensemble upper bound for irregular patterns.

    max over nonempty F of 2 e_F / v_F, joined with the max over disjoint
    nonempty S, S' with |S'| > |S| of 1 + (e_{S u S'} - e_{S'} - |S'|) / |S|,
    where e_A counts edges with both endpoints in A.
    """
    if h.vertex_count == 0 or h.min_degree() < 2:
        raise DomainError("f_exponent expects min degree >= 2 (apply two_core first)")
    _check_cap(h, "f_exponent")
    n = h.vertex_count
    edge_masks = [(1 << u) | (1 << v) for u, v in h.edges]

    def edges_inside(mask):
        return sum(1 for em in edge_masks if em & mask == em)

    best = Fraction(0)
    for mask in range(1, 1 << n):
        vf = mask.bit_count()
        best = max(best, Fraction(2 * edges_inside(mask), vf))

    # disjoint pairs: iterate S, then S' over submasks of the complement
    for s_mask in range(1, 1 << n):
        vs = s_mask.bit_count()
        comp = ((1 << n) - 1) & ~s_mask
        sub = comp
        while sub:
            vs2 = sub.bit_count()
            if vs2 > vs:
                e_union = edges_inside(s_mask | sub)
                e_s2 = edges_inside(sub)
                best = max(best, 1 + Fraction(e_union - e_s2 - vs2, vs))
            sub = (sub - 1) & comp
    return best

"""Exact and weighted homomorphism counting.

Two engines: a flat full-grid reference (broadcast product over all n^v maps)
and an elimination-order dynamic program (greedy min-width, einsum per step).
Both count labeled homomorphisms; the zero diagonal of weight matrices kills
maps that repeat adjacent vertices.  The DP's plan also runs on a leading
batch axis, so single matrices, the gradient's pinned sums and batched 0/1
adjacency stacks all contract in the same elimination order.
"""

from __future__ import annotations

import itertools
import math
import string

import numpy as np

from .errors import DomainError, NumericError, ResourceError
from .graphs import Graph

WIDTH_CAP = 5          # elimination width (treewidth) limit for the DP
BRUTE_CELL_CAP = 30_000_000   # n^v entries for the flat-grid engine
DP_CELL_CAP = 140_000_000     # entries of any single DP intermediate
BATCH_CELLS = 1 << 16         # target intermediate entries per batched sub-batch


def check_weight_matrix(x, tol=1e-9):
    """Validate a symmetric [0,1] matrix with zero diagonal."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DomainError("weight matrix must be square")
    if np.abs(np.diag(x)).max(initial=0.0) > tol:
        raise DomainError("weight matrix must have zero diagonal")
    with np.errstate(invalid="ignore"):
        asym = np.abs(x - x.T).max(initial=0.0)
    # inf - inf and NaN make `asym` NaN; those matrices take allclose's rule
    # (non-finite entries are close only when equal), so messages stay as they were
    if not asym <= tol and not np.allclose(x, x.T, atol=tol, rtol=0):
        raise DomainError("weight matrix must be symmetric")
    if x.min(initial=0.0) < -tol or x.max(initial=0.0) > 1 + tol:
        raise DomainError("weight matrix entries must lie in [0,1]")
    return x


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def _brute_sum(h: Graph, w: np.ndarray):
    """Sum over all maps [v]->[n] of the edge-weight product, by full-grid
    broadcasting.  Reference oracle; no elimination cleverness."""
    v, n = h.vertex_count, w.shape[0]
    if v > 10:
        raise ResourceError(f"brute-force engine capped at 10 pattern vertices, got {v}")
    if n ** v > BRUTE_CELL_CAP:
        raise ResourceError(f"brute-force grid n^v = {n}^{v} exceeds cell cap")
    if v == 0:
        return w.dtype.type(1)
    total = np.ones((n,) * v, dtype=w.dtype)
    idx = np.arange(n)
    for a, b in h.edges:
        sa = [None] * v
        sa[a] = slice(None)
        sb = [None] * v
        sb[b] = slice(None)
        total = total * w[idx[tuple(sa)], idx[tuple(sb)]]
    return total.sum()


def _elimination_order(h: Graph):
    """Greedy min-degree order on the pattern; returns (order, width)."""
    adj = {v: set(ns) for v, ns in enumerate(h.neighbors())}
    order = []
    width = 0
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        order.append(v)
        nbrs = adj.pop(v)
        width = max(width, len(nbrs))
        for u in nbrs:
            adj[u].discard(v)
            adj[u].update(nbrs - {u})
    return order, width


def _build_plan(h: Graph, pinned, batch_prefix):
    """Symbolic contraction plan for the elimination DP (n-independent).

    Steps reference factor slots; slot 'W' is the weight matrix, 'ONES' a
    length-n ones vector.  Every operand's subscript starts with
    `batch_prefix`: '' for a single matrix, '...' for a (..., n, n) stack
    (einsum parses an ellipsis more slowly, so single matrices skip it).
    Each step also records its number of distinct indices, which picks its
    einsum `optimize` setting.
    Cached per (pattern, pinned, prefix) so repeated evaluations skip all the
    plan building.
    """
    order, width = _elimination_order(h)
    if width > WIDTH_CAP:
        raise ResourceError(
            f"pattern elimination width {width} exceeds DP width cap {WIDTH_CAP}"
        )
    letters = string.ascii_letters
    deg = h.degrees()
    factors = []  # (vars tuple, slot) where slot is 'W', 'ONES', or step index
    for a, b in h.edges:
        factors.append(((a, b), "W"))
    for v in range(h.vertex_count):
        if deg[v] == 0:  # pinned too: a removed edge can isolate a pin
            factors.append(((v,), "ONES"))

    def subscript(facs, sym, out_vars):
        sub = ",".join(batch_prefix + "".join(sym[u] for u in f[0]) for f in facs)
        return f"{sub}->{batch_prefix}" + "".join(sym[u] for u in out_vars)

    steps = []  # (subscript, slots, out arity, distinct indices)
    for v in order:
        if v in pinned:
            continue
        touching = [f for f in factors if v in f[0]]
        if not touching:
            continue
        factors = [f for f in factors if v not in f[0]]
        all_vars = sorted(set(itertools.chain.from_iterable(f[0] for f in touching)))
        out_vars = tuple(u for u in all_vars if u != v)
        sym = {u: letters[i] for i, u in enumerate(all_vars)}
        steps.append((subscript(touching, sym, out_vars),
                      tuple(f[1] for f in touching), len(out_vars), len(all_vars)))
        if out_vars:
            factors.append((out_vars, len(steps) - 1))

    # with pins, the factors left over hold only pinned vertices, and every
    # pin keeps at least one factor
    pins = tuple(sorted(pinned))
    final = None
    if pins:
        sym = {u: letters[i] for i, u in enumerate(pins)}
        final = (subscript(factors, sym, pins), tuple(f[1] for f in factors), len(pins))
    return steps, pins, final


_PLAN_CACHE = {}


def _get_plan(h: Graph, pinned, batched=False):
    batch_prefix = "..." if batched else ""
    key = (h.vertex_count, h.edges, tuple(sorted(pinned)), batch_prefix)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _build_plan(h, pinned, batch_prefix)
        _PLAN_CACHE[key] = plan
    return plan


def _dp_sum(h: Graph, w: np.ndarray, pinned=()):
    """Elimination-order DP over w of shape (..., n, n).  Returns one value
    per matrix, or an array over the pinned pattern vertices (trailing axes
    in sorted pin order) when `pinned` is nonempty."""
    n = w.shape[-1]
    batch = w.shape[:-2]
    graphs = math.prod(batch)
    steps, pins, final = _get_plan(h, pinned, batched=bool(batch))
    ones = np.ones(n, dtype=w.dtype)
    results = []

    def contract(sub, slots, indices):
        ops = [w if s == "W" else ones if s == "ONES" else results[s] for s in slots]
        # one operand is a plain axis sum; a single matrix's step on at most 3
        # indices (K4's `ab,ac,abc->bc`) runs faster unoptimized below n = 128
        opt = len(slots) > 1 and (bool(batch) or indices > 3 or n >= 128)
        return np.einsum(sub, *ops, optimize=opt)

    scalar = w.dtype.type(1)
    for sub, slots, out_arity, indices in steps:
        if graphs * n ** out_arity > DP_CELL_CAP:
            raise ResourceError(
                f"DP intermediate of {graphs} x n^{out_arity} entries exceeds memory cap"
            )
        merged = contract(sub, slots, indices)
        results.append(merged)
        if out_arity == 0:
            scalar = scalar * merged

    if not pins:
        return scalar
    return scalar * contract(*final)


def _hom_sum(h: Graph, w: np.ndarray, engine="auto"):
    """The DP for engine "auto" or "dp"; the full-grid reference for "brute"."""
    if engine == "brute":
        return _brute_sum(h, w)
    if engine not in ("auto", "dp"):
        raise DomainError(f"unknown hom engine {engine!r}; expected auto, dp or brute")
    return _dp_sum(h, w)


def _extends_to_automorphism(adj, deg, forced):
    """Whether some automorphism of the pattern (neighbour sets `adj`,
    degrees `deg`) extends the partial vertex map `forced`.

    Backtracks over images in breadth-first order from the forced vertices,
    pruning by degree and by adjacency to every vertex already mapped, and
    stops at the first complete map.
    """
    v = len(adj)
    order, i = list(forced), 0
    while len(order) < v:
        if i == len(order):  # a new component
            order.append(min(set(range(v)) - set(order)))
        order.extend(sorted(adj[order[i]] - set(order)))
        i += 1

    def candidates(u):
        return iter((forced[u],) if u in forced else range(v))

    image, used, tries = {}, set(), [candidates(order[0])]
    while tries:
        u = order[len(tries) - 1]
        if u in image:
            used.discard(image.pop(u))
        for t in tries[-1]:
            if (t not in used and deg[t] == deg[u]
                    and all((w in adj[u]) == (s in adj[t]) for w, s in image.items())):
                image[u] = t
                used.add(t)
                break
        else:
            tries.pop()
            continue
        if len(tries) == v:
            return True
        tries.append(candidates(order[len(tries)]))
    return False


_ORBIT_CACHE = {}


def _edge_orbits(h: Graph):
    """The edge orbits of Aut(h) as [(representative edge, orbit size)], in
    order of each orbit's first edge.  Each remaining edge is compared with
    the representative by searching for one automorphism that maps the
    representative onto it; the group itself is never listed.  Cached per
    pattern, keyed like `_PLAN_CACHE`."""
    key = (h.vertex_count, h.edges)
    orbits = _ORBIT_CACHE.get(key)
    if orbits is None:
        adj, deg = h.neighbors(), h.degrees()
        orbits, rest = [], list(h.edges)
        while rest:
            (a, b), others = rest[0], rest[1:]
            rest = [e for e in others if not any(
                _extends_to_automorphism(adj, deg, {a: c, b: d}) for c, d in (e, e[::-1])
            )]
            orbits.append(((a, b), len(others) - len(rest) + 1))
        _ORBIT_CACHE[key] = orbits
    return orbits


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def hom_count(h: Graph, g: Graph, engine="auto") -> int:
    """Number of adjacency-preserving maps V(h) -> V(g) (not nec. injective)."""
    w = g.adjacency()  # int64: counts stay exact
    return int(_hom_sum(h, w, engine=engine))


def hom_density_t(h: Graph, x, engine="auto") -> float:
    """t(h, X) = n^{-v} sum over maps of the edge-weight product."""
    x = check_weight_matrix(x)
    n = x.shape[0]
    if n == 0:
        raise DomainError("empty weight matrix")
    return float(_hom_sum(h, x, engine=engine)) / float(n) ** h.vertex_count


def hom_normalized(h: Graph, x, p: float, engine="auto") -> float:
    """hom(h, X) = t(h, X) / p^e, computed on X/p to dodge underflow."""
    if not (0 < p < 1):
        raise DomainError(f"p must be in (0,1), got {p}")
    x = check_weight_matrix(x)
    n = x.shape[0]
    return float(_hom_sum(h, x / p, engine=engine)) / float(n) ** h.vertex_count


def cycle_hom_spectral(l: int, x, p: float) -> float:
    """hom(C_l, X) via eigenvalues: (np)^{-l} sum_i lambda_i^l."""
    if l < 3:
        raise DomainError("cycle length must be >= 3")
    x = check_weight_matrix(x)
    n = x.shape[0]
    try:
        lam = np.linalg.eigvalsh(x)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}")
    return float(np.sum((lam / (n * p)) ** l))


def hom_value_and_gradient(h: Graph, x, p: float):
    """hom(h, X) and its gradient in x_uv, treating x_uv = x_vu as one
    variable; p = 1 gives t(h, X) and its gradient.

    Runs on w = X/p under `hom_normalized`'s width cap.  One pinned DP pass
    runs per edge orbit of Aut(h), scaled by the orbit's size: an automorphism
    carrying one edge onto another carries its pinned sum onto the other's or
    its transpose.  The first orbit's pinned sum q with its edge put back,
    sum_uv w_uv q_uv, is the value.
    """
    if not (0 < p <= 1):
        raise DomainError(f"p must be in (0,1], got {p}")
    _get_plan(h, ())  # the whole pattern's width cap, though pinned passes may fit
    x = check_weight_matrix(x)
    n = x.shape[0]
    v = h.vertex_count
    w, value, grad = x / p, 1.0, np.zeros((n, n))
    for i, ((a, b), size) in enumerate(_edge_orbits(h)):
        rest = Graph(v, tuple(e for e in h.edges if e != (a, b)))
        q = _dp_sum(rest, w, pinned=(a, b))
        if i == 0:
            value = float((w * q).sum()) / float(n) ** v
        grad += size * (q + q.T)
    np.fill_diagonal(grad, 0.0)
    return value, grad / (p * float(n) ** v)


def hom_gradient(h: Graph, x, engine="auto") -> np.ndarray:
    """d t(h, X) / d x_uv: the gradient of `hom_value_and_gradient` at p = 1.
    Only the DP engine has a gradient."""
    if engine not in ("auto", "dp"):
        raise DomainError(f"hom_gradient runs only the DP engine (auto or dp), got {engine!r}")
    return hom_value_and_gradient(h, x, 1.0)[1]


def batched_hom_normalized(h: Graph, a_stack: np.ndarray, p: float) -> np.ndarray:
    """hom(h, .) for a batch of 0/1 adjacency matrices, shape (B, n, n).

    Runs the DP plan on sub-batches of BATCH_CELLS intermediate entries; each
    counts on 0/1 floats, so the counts are exact integers before scaling."""
    if not (0 < p < 1):
        raise DomainError(f"p must be in (0,1), got {p}")
    b, n, _ = a_stack.shape
    steps = _get_plan(h, (), batched=True)[0]
    per_graph = n ** max([2] + [arity for _sub, _slots, arity, _indices in steps])
    size = max(1, BATCH_CELLS // per_graph)
    counts = np.empty(b)
    for lo in range(0, b, size):
        counts[lo:lo + size] = _dp_sum(h, a_stack[lo:lo + size].astype(float))
    return counts / (float(n) ** h.vertex_count * p ** h.edge_count)

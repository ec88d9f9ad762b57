"""Exact and weighted homomorphism counting.

Two engines: a flat full-grid reference (broadcast product over all n^v maps)
and an elimination-order dynamic program (greedy min-width, einsum per step).
Both count labeled homomorphisms; the zero diagonal of weight matrices kills
maps that repeat adjacent vertices.  The DP's plan also runs on a leading
batch axis, so single matrices, the gradient's pinned sums and batched 0/1
adjacency stacks all contract in the same elimination order.  On a stack, a
step that is one matrix product per graph (two factors sharing only the
eliminated vertex, as every step along a cycle) runs as a batched `np.matmul`
on BLAS, and the other two-factor steps run einsum unoptimized; single
matrices, and so the dense solver, run einsum on every step.  A stack of
integer or bool 0/1 entries contracts in float32, and each step whose
partial counts may pass 2^24 (the last integer float32 holds exactly) runs
in float64, so its counts are exact either way.
"""

from __future__ import annotations

import functools
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
WEIGHT_TOL = 1e-9             # slack of check_weight_matrix's diagonal, symmetry, range


def check_weight_matrix(x):
    """Validate a symmetric [0,1] matrix with zero diagonal, to WEIGHT_TOL."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DomainError("weight matrix must be square")
    if np.abs(np.diag(x)).max(initial=0.0) > WEIGHT_TOL:
        raise DomainError("weight matrix must have zero diagonal")
    with np.errstate(invalid="ignore"):
        asym = np.abs(x - x.T).max(initial=0.0)
    # inf - inf and NaN make `asym` NaN; those matrices take allclose's rule
    # (non-finite entries are close only when equal), so messages stay as they were
    if not asym <= WEIGHT_TOL and not np.allclose(x, x.T, atol=WEIGHT_TOL, rtol=0):
        raise DomainError("weight matrix must be symmetric")
    if x.min(initial=0.0) < -WEIGHT_TOL or x.max(initial=0.0) > 1 + WEIGHT_TOL:
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


@functools.cache
def _build_plan(h: Graph, pinned, batch_prefix):
    """Symbolic contraction plan for the elimination DP (n-independent).

    Steps reference factor slots; slot 'W' is the weight matrix, 'ONES' a
    length-n ones vector.  Every operand's subscript starts with
    `batch_prefix`: '' for a single matrix, '...' for a (..., n, n) stack
    (einsum parses an ellipsis more slowly, so single matrices skip it).
    Each step also records its number of distinct indices, which picks its
    einsum `optimize` setting; how many pattern vertices it and the steps
    below it eliminate (on 0/1 entries each of its values counts partial
    maps of those vertices, so it is at most n to that power); and the
    operand swaps of a matmul step (None for an einsum step; only batched
    plans have matmul steps, see `_matmul_order`).
    Cached per (pattern, sorted pins, prefix), so repeated evaluations skip
    all the plan building; a width-cap refusal is raised anew each time.
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

    steps = []  # (subscript, slots, out arity, distinct indices, eliminated, matmul swaps)
    for v in order:
        if v in pinned:
            continue
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        all_vars = sorted(set(itertools.chain.from_iterable(f[0] for f in touching)))
        out_vars = tuple(u for u in all_vars if u != v)
        matmul = _matmul_order(touching, v) if batch_prefix else None
        swaps = None
        if matmul is not None:
            touching, swaps = matmul
            out_vars = tuple(u for f in touching for u in f[0] if u != v)
        sym = {u: letters[i] for i, u in enumerate(all_vars)}
        slots = tuple(f[1] for f in touching)
        below = 1 + sum(steps[s][4] for s in slots if isinstance(s, int))
        steps.append((subscript(touching, sym, out_vars), slots, len(out_vars), len(all_vars),
                      below, swaps))
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


def _matmul_order(touching, v):
    """How to eliminate v from the factors `touching` as one matrix product
    per graph, sum_v L[u1, v] R[v, u2]: ((left, right), (swap left, swap
    right)), or None unless there are two factors on two vertices each,
    sharing only v.  W is symmetric, so it is never swapped; an intermediate
    is swapped (read as a strided view, which matmul runs slower) only when v
    sits on the wrong side.  Of L R and R L, the one with fewer swaps wins,
    then the one whose output keeps its vertices in sorted order.
    """
    if len(touching) != 2 or any(len(f[0]) != 2 for f in touching):
        return None
    if len(set(touching[0][0]) | set(touching[1][0])) != 3:
        return None

    def arrange(left, right):
        swaps = (left[1] != "W" and left[0][1] != v, right[1] != "W" and right[0][0] != v)
        kept = [u for f in (left, right) for u in f[0] if u != v]
        return (sum(swaps), kept[0] > kept[1]), ((left, right), swaps)

    return min(arrange(*touching), arrange(*touching[::-1]), key=lambda c: c[0])[1]


def _get_plan(h: Graph, pinned, batched=False):
    return _build_plan(h, tuple(sorted(pinned)), "..." if batched else "")


def _dp_sum(h: Graph, w: np.ndarray, pinned=()):
    """Elimination-order DP over w of shape (..., n, n).  Returns one value
    per matrix, or an array over the pinned pattern vertices (trailing axes
    in sorted pin order) when `pinned` is nonempty.  On a float32 w, a step
    whose values may pass 2^24 (n to the power of the vertices it and the
    steps below it eliminate) casts its operands to float64, and the
    components' values multiply in float64; on 0/1 entries every count then
    stays exact."""
    n = w.shape[-1]
    batch = w.shape[:-2]
    graphs = math.prod(batch)
    steps, pins, final = _get_plan(h, pinned, batched=bool(batch))
    ones = np.ones(n, dtype=w.dtype)
    results = []

    def contract(sub, slots, indices, wide=False, swaps=None):
        ops = [w if s == "W" else ones if s == "ONES" else results[s] for s in slots]
        if wide:
            ops = [x.astype(np.float64, copy=False) for x in ops]
        if swaps is not None:
            return np.matmul(*(x.swapaxes(-1, -2) if s else x for x, s in zip(ops, swaps)))
        # one operand is a plain axis sum; a stack's two-operand step, and a
        # single matrix's step on at most 3 indices (K4's `ab,ac,abc->bc`)
        # below n = 128, run faster unoptimized
        if batch:
            opt = len(slots) > 2
        else:
            opt = len(slots) > 1 and (indices > 3 or n >= 128)
        return np.einsum(sub, *ops, optimize=opt)

    narrow = w.dtype == np.float32
    scalar = np.float64(1) if narrow else w.dtype.type(1)
    for sub, slots, out_arity, indices, below, swaps in steps:
        if graphs * n ** out_arity > DP_CELL_CAP:
            raise ResourceError(
                f"DP intermediate of {graphs} x n^{out_arity} entries exceeds memory cap"
            )
        merged = contract(sub, slots, indices, narrow and n ** below > 1 << 24, swaps)
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


@functools.cache
def _edge_orbits(h: Graph):
    """The edge orbits of Aut(h) as [(representative edge, orbit size)], in
    order of each orbit's first edge.  Each remaining edge is compared with
    the representative by searching for one automorphism that maps the
    representative onto it; the group itself is never listed.  Cached per
    pattern."""
    adj, deg = h.neighbors(), h.degrees()
    orbits, rest = [], list(h.edges)
    while rest:
        (a, b), others = rest[0], rest[1:]
        rest = [e for e in others if not any(
            _extends_to_automorphism(adj, deg, {a: c, b: d}) for c, d in (e, e[::-1])
        )]
        orbits.append(((a, b), len(others) - len(rest) + 1))
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


def hom_gradient(h: Graph, x) -> np.ndarray:
    """d t(h, X) / d x_uv: the gradient of `hom_value_and_gradient` at p = 1."""
    return hom_value_and_gradient(h, x, 1.0)[1]


def dp_cells(h: Graph, n: int) -> int:
    """Entries of the largest array h's DP holds for one n x n matrix: the
    matrix itself or an intermediate, n^2 or n^(out arity).  The batched plan
    eliminates in the same order, so it holds as many per graph."""
    return n ** max([2] + [step[2] for step in _get_plan(h, ())[0]])


def batched_hom_normalized(h: Graph, a_stack: np.ndarray, p: float) -> np.ndarray:
    """hom(h, .) for a batch of 0/1 adjacency matrices, shape (B, n, n).

    Runs the batched DP plan on sub-batches of BATCH_CELLS intermediate
    entries: matrix-product steps as `np.matmul`, the rest as einsum (see
    `_dp_sum`), or graph by graph on the single-matrix plan where one graph
    fills a sub-batch.  BLAS and einsum add in different orders, but on 0/1
    entries every partial sum is a count of partial maps, an integer of at
    most n^v.  A stack of integer or bool dtype contracts in float32, each
    step whose partial counts may pass 2^24 (where float32 stops holding
    every integer) in float64 (`_dp_sum`); any other stack contracts in
    float64.  Both are exact while n^v <= 2^53, so each count is the same in
    any order, and only the final scaling, in float64, rounds."""
    if not (0 < p < 1):
        raise DomainError(f"p must be in (0,1), got {p}")
    b, n, _ = a_stack.shape
    size = max(1, BATCH_CELLS // dp_cells(h, n))
    dtype = np.float32 if a_stack.dtype.kind in "biu" else np.float64
    counts = np.empty(b)
    for lo in range(0, b, size):
        batch = a_stack[lo:lo + size] if size > 1 else a_stack[lo]
        counts[lo:lo + size] = _dp_sum(h, batch.astype(dtype))
    return counts / count_scale(h, n, p)


def count_scale(h: Graph, n: int, p: float) -> float:
    """n^v p^e, the float by which `batched_hom_normalized` divides a count."""
    return float(n) ** h.vertex_count * p ** h.edge_count

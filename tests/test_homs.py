"""Homomorphism engine: counts, densities, spectral identity, gradient."""

import re
import time
import warnings

import numpy as np
import pytest

from uptail import graphs as G
from uptail import homs as H
from uptail.errors import DomainError, ResourceError

K3, C4, K4 = G.clique(3), G.cycle(4), G.clique(4)


def _random_weight(rng, n, lo=0.0, hi=1.0):
    x = rng.uniform(lo, hi, size=(n, n))
    x = np.triu(x, 1)
    x = x + x.T
    np.fill_diagonal(x, 0.0)
    return x


def _random_graph(rng, n, p=0.5):
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    )
    return G.Graph(n, edges)


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

def test_hom_count_examples():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = _random_graph(rng, 7)
        assert H.hom_count(G.clique(2), g) == 2 * g.edge_count
    assert H.hom_count(K3, K4) == 24
    assert H.hom_count(C4, G.clique(3)) == 18


def test_hom_count_single_vertex():
    g = _random_graph(np.random.default_rng(0), 6)
    assert H.hom_count(G.Graph(1, ()), g) == 6


def test_auto_engine_reports_width_cap():
    # "auto" runs the DP and reports its cap; only "brute" runs the full grid
    k6 = G.clique(6)
    with pytest.raises(ResourceError, match="width"):
        H.hom_count(G.clique(7), k6)
    assert H.hom_count(G.clique(7), k6, engine="brute") == 0


def test_trace_identity_cycles():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(4, 13))
        g = _random_graph(rng, n, 0.45)
        a = g.adjacency()
        for l in range(3, 9):
            assert H.hom_count(G.cycle(l), g) == int(
                np.trace(np.linalg.matrix_power(a, l))
            )


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_density_is_normalized_count():
    rng = np.random.default_rng(21)
    g = _random_graph(rng, 8)
    x = g.adjacency().astype(float)
    for h in (K3, C4, G.path(3)):
        t = H.hom_density_t(h, x)
        assert t == pytest.approx(H.hom_count(h, g) / 8.0 ** h.vertex_count, rel=1e-12)


def test_density_constant_matrix():
    n, p = 100, 0.2
    x = np.full((n, n), p)
    np.fill_diagonal(x, 0.0)
    expect = p ** 3 * (1 - 1 / n) * (1 - 2 / n)
    assert H.hom_density_t(K3, x) == pytest.approx(expect, rel=1e-12)
    assert H.hom_normalized(K3, x, p) == pytest.approx(expect / p ** 3, rel=1e-12)


def test_hom_normalized_k2():
    rng = np.random.default_rng(2)
    x = _random_weight(rng, 9)
    n = 9
    expect = x.sum() / (n * n)
    assert H.hom_density_t(G.clique(2), x) == pytest.approx(expect, rel=1e-12)


def test_hom_normalized_p_domain():
    x = _random_weight(np.random.default_rng(0), 5)
    with pytest.raises(DomainError):
        H.hom_normalized(K3, x, 0.0)
    with pytest.raises(DomainError):
        H.hom_normalized(K3, x, 1.5)


def test_monotonicity_in_entries():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(4, 10))
        x = _random_weight(rng, n)
        bump = _random_weight(rng, n) * 0.2
        y = np.clip(x + bump, 0.0, 1.0)
        np.fill_diagonal(y, 0.0)
        for h in (K3, C4):
            assert H.hom_density_t(h, x) <= H.hom_density_t(h, y) + 1e-15


def test_hom_normalized_planted_clique_lower_bound():
    # planting an s-clique on a constant-q background keeps at least the
    # all-in-clique plus all-in-background homomorphism mass
    n, s, q, p = 400, 24, 0.11, 0.1
    x = np.full((n, n), q)
    x[:s, :s] = 1.0
    np.fill_diagonal(x, 0.0)
    for h in (K3, K4):
        v, e = h.vertex_count, h.edge_count
        bound = (s - 1) ** v / (n ** v * p ** e) + (1 - (s + 1) / n) ** v * q ** e / p ** e
        assert H.hom_normalized(h, x, p) >= bound


# ---------------------------------------------------------------------------
# spectral identity
# ---------------------------------------------------------------------------

def test_cycle_spectral_k3_adjacency():
    a = G.clique(3).adjacency().astype(float)
    # eigenvalues 2, -1, -1
    assert H.cycle_hom_spectral(3, a, 1.0) == pytest.approx(6 / 27, rel=1e-12)


def test_cycle_spectral_zero():
    assert H.cycle_hom_spectral(4, np.zeros((6, 6)), 0.3) == 0.0


def test_cycle_spectral_matches_direct():
    rng = np.random.default_rng(17)
    for n in (10, 20, 50):
        x = _random_weight(rng, n)
        for l in (3, 4, 5):
            direct = H.hom_normalized(G.cycle(l), x, 0.37)
            spectral = H.cycle_hom_spectral(l, x, 0.37)
            assert spectral == pytest.approx(direct, rel=1e-9)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def test_gradient_k2_constant():
    x = _random_weight(np.random.default_rng(4), 7)
    g = H.hom_gradient(G.clique(2), x)
    off = ~np.eye(7, dtype=bool)
    assert np.allclose(g[off], 2 / 49.0)
    assert np.allclose(np.diag(g), 0.0)


def test_gradient_zero_matrix():
    g = H.hom_gradient(K3, np.zeros((6, 6)))
    assert np.allclose(g, 0.0)


@pytest.mark.parametrize("h", [K3, C4, K4], ids=["K3", "C4", "K4"])
def test_gradient_finite_differences(h):
    rng = np.random.default_rng(8)
    n, eps = 8, 1e-6
    x = _random_weight(rng, n, 0.05, 0.9)
    grad = H.hom_gradient(h, x)
    assert np.allclose(grad, grad.T)
    for u in range(n):
        for v in range(u + 1, n):
            xp = x.copy()
            xp[u, v] += eps
            xp[v, u] += eps
            xm = x.copy()
            xm[u, v] -= eps
            xm[v, u] -= eps
            fd = (H.hom_density_t(h, xp) - H.hom_density_t(h, xm)) / (2 * eps)
            assert abs(fd - grad[u, v]) <= 1e-5


PENDANT = G.Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))   # triangle plus a pendant edge
TWO_EDGES = G.Graph(4, ((0, 1), (2, 3)))


@pytest.mark.parametrize(
    "h", [G.parse_graph("star:3"), G.parse_graph("path:4"), PENDANT, TWO_EDGES],
    ids=["star3", "path4", "pendant", "two-edges"],
)
def test_gradient_degree_one_vertices(h):
    # removing an edge at a degree-1 vertex leaves that pinned vertex isolated
    rng = np.random.default_rng(21)
    n, eps = 6, 1e-6
    x = _random_weight(rng, n, 0.05, 0.9)
    grad = H.hom_gradient(h, x)
    fd = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            xp, xm = x.copy(), x.copy()
            xp[u, v] = xp[v, u] = x[u, v] + eps
            xm[u, v] = xm[v, u] = x[u, v] - eps
            fd[u, v] = fd[v, u] = (
                H.hom_density_t(h, xp, engine="brute")
                - H.hom_density_t(h, xm, engine="brute")
            ) / (2 * eps)
    assert np.allclose(grad, fd, rtol=0, atol=1e-9)


ORBIT_PATTERNS = {
    "path4": G.parse_graph("path:4"),
    "star3": G.parse_graph("star:3"),
    "pendant": PENDANT,
    "K23": G.parse_graph("complete_bipartite:2:3"),
    "K4": K4,
    "C5": G.cycle(5),
}


@pytest.mark.parametrize("name", sorted(ORBIT_PATTERNS))
def test_orbit_gradient_equals_per_edge_sum(name):
    # the orbit gradient against one pinned DP pass per pattern edge
    h = ORBIT_PATTERNS[name]
    rng = np.random.default_rng(5)
    n, v = 9, h.vertex_count
    x = _random_weight(rng, n, 0.05, 0.9)
    per_edge = np.zeros((n, n))
    for a, b in h.edges:
        rest = G.Graph(v, tuple(e for e in h.edges if e != (a, b)))
        q = H._dp_sum(rest, x, pinned=(a, b))
        per_edge += q + q.T
    np.fill_diagonal(per_edge, 0.0)
    per_edge /= float(n) ** v
    grad = H.hom_gradient(h, x)
    assert np.abs(grad - per_edge).max() <= 1e-13 * np.abs(per_edge).max()


VALUE_GRADIENT_PATTERNS = {
    "K3": K3,
    "C5": G.cycle(5),
    "K4": K4,
    "path3": G.parse_graph("path:3"),
    "star3": G.parse_graph("star:3"),
    "K23": G.parse_graph("complete_bipartite:2:3"),
    "two-edges": TWO_EDGES,                               # disconnected
    "K3-isolated": G.Graph(4, ((0, 1), (0, 2), (1, 2))),  # vertex 3 isolated
}


@pytest.mark.parametrize("name", sorted(VALUE_GRADIENT_PATTERNS))
def test_hom_value_and_gradient(name):
    # the value from the first orbit's pinned sum against both engines' full
    # sums; the gradient against central differences of hom_normalized
    h = VALUE_GRADIENT_PATTERNS[name]
    rng = np.random.default_rng(11)
    n, p, eps = 7, 0.37, 1e-6
    x = _random_weight(rng, n, 0.05, 0.9)
    value, grad = H.hom_value_and_gradient(h, x, p)
    for engine in ("dp", "brute"):
        assert value == pytest.approx(H.hom_normalized(h, x, p, engine=engine), rel=1e-12)
    fd = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            xp, xm = x.copy(), x.copy()
            xp[u, v] = xp[v, u] = x[u, v] + eps
            xm[u, v] = xm[v, u] = x[u, v] - eps
            fd[u, v] = fd[v, u] = (H.hom_normalized(h, xp, p)
                                   - H.hom_normalized(h, xm, p)) / (2 * eps)
    assert np.abs(grad - fd).max() <= 1e-7 * np.abs(fd).max()


@pytest.mark.parametrize("name", sorted(VALUE_GRADIENT_PATTERNS))
def test_hom_gradient_is_the_orbit_loop_on_x(name):
    # p = 1 divides by nothing: the same floats as the orbit loop run on x
    h = VALUE_GRADIENT_PATTERNS[name]
    n, v = 9, h.vertex_count
    x = _random_weight(np.random.default_rng(12), n, 0.05, 0.9)
    ref = np.zeros((n, n))
    for (a, b), size in H._edge_orbits(h):
        rest = G.Graph(v, tuple(e for e in h.edges if e != (a, b)))
        q = H._dp_sum(rest, x, pinned=(a, b))
        ref += size * (q + q.T)
    np.fill_diagonal(ref, 0.0)
    assert np.array_equal(H.hom_gradient(h, x), ref / float(n) ** v)


def test_hom_value_and_gradient_edge_cases():
    x = _random_weight(np.random.default_rng(13), 5)
    value, grad = H.hom_value_and_gradient(G.Graph(3, ()), x, 0.3)
    assert value == 1.0 and np.array_equal(grad, np.zeros((5, 5)))
    for p in (0.0, 1.5, float("nan")):
        with pytest.raises(DomainError, match="p must be in"):
            H.hom_value_and_gradient(K3, x, p)
    with pytest.raises(DomainError, match="symmetric"):
        H.hom_value_and_gradient(K3, np.triu(x), 0.3)
    # K7 minus an edge fits the width cap, K7 does not: neither value is given
    with pytest.raises(ResourceError, match="width"):
        H.hom_value_and_gradient(G.clique(7), x, 0.3)


def test_edge_orbits():
    sizes = {
        "K4": (K4, [6]),
        "C5": (G.cycle(5), [5]),
        "pendant": (PENDANT, [1, 2, 1]),
        "path4": (G.parse_graph("path:4"), [2, 1]),
        "K23": (G.parse_graph("complete_bipartite:2:3"), [6]),
        "two-edges": (TWO_EDGES, [2]),
        "path10": (G.parse_graph("path:10"), [2, 2, 2, 2, 1]),
        "star9": (G.parse_graph("star:9"), [9]),
    }
    H._edge_orbits.cache_clear()
    for name, (h, expect) in sizes.items():
        start = time.perf_counter()
        orbits = H._edge_orbits(h)
        assert time.perf_counter() - start < 0.1, name
        assert [size for _edge, size in orbits] == expect, name
        assert all(edge in h.edges for edge, _size in orbits), name
    assert H._edge_orbits(PENDANT)[1][0] == (0, 2)


def test_engine_names_checked():
    x = _random_weight(np.random.default_rng(6), 6)
    g = _random_graph(np.random.default_rng(6), 6)
    with pytest.raises(DomainError, match="unknown hom engine"):
        H.hom_normalized(K3, x, 0.3, engine="brutte")
    with pytest.raises(DomainError, match="unknown hom engine"):
        H.hom_count(K3, g, engine="")
    with pytest.raises(DomainError, match="unknown hom engine"):
        H.hom_density_t(K3, x, engine="DP")
    for engine in ("auto", "dp", "brute"):
        assert H.hom_count(K3, g, engine=engine) == H.hom_count(K3, g)


# ---------------------------------------------------------------------------
# weight-matrix check
# ---------------------------------------------------------------------------

def test_check_weight_matrix_rejections():
    base = _random_weight(np.random.default_rng(9), 5, 0.1, 0.9)

    def with_entries(*cells):
        x = base.copy()
        for i, j, val in cells:
            x[i, j] = val
        return x

    sym = "weight matrix must be symmetric"
    diag = "weight matrix must have zero diagonal"
    rng01 = "weight matrix entries must lie in [0,1]"
    cases = [
        (with_entries((0, 1, np.nan)), sym),
        (with_entries((0, 1, np.nan), (1, 0, np.nan)), sym),
        (with_entries((2, 2, np.nan)), sym),
        (with_entries((0, 1, np.inf)), sym),
        (with_entries((0, 1, np.inf), (1, 0, np.inf)), rng01),
        (with_entries((0, 1, -np.inf), (1, 0, -np.inf)), rng01),
        (with_entries((0, 1, np.inf), (1, 0, -np.inf)), sym),
        (with_entries((3, 3, np.inf)), diag),
        (with_entries((0, 1, base[0, 1] + 2e-9)), sym),
        (with_entries((1, 1, 1e-6)), diag),
        (with_entries((0, 1, 1.5), (1, 0, 1.5)), rng01),
        (with_entries((0, 1, -0.1), (1, 0, -0.1)), rng01),
        (np.zeros((3, 4)), "weight matrix must be square"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, message in cases:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                H.check_weight_matrix(x)
        # an asymmetry inside the tolerance passes
        ok = with_entries((0, 1, base[0, 1] + 5e-10))
        assert H.check_weight_matrix(ok) is not None
        H.check_weight_matrix(np.zeros((0, 0)))


# ---------------------------------------------------------------------------
# generalized Hoelder bound
# ---------------------------------------------------------------------------

def _signed_symmetric(rng, n):
    u = rng.uniform(-1.0, 1.0, size=(n, n))
    u = np.triu(u, 1)
    u = u + u.T
    return u


def _t_signed(h, u):
    """Density for signed matrices (bypasses the [0,1] entry check)."""
    n = u.shape[0]
    return float(H._hom_sum(h, u, engine="dp")) / float(n) ** h.vertex_count


@pytest.mark.parametrize("h", [K3, C4, G.cycle(5)], ids=["K3", "C4", "C5"])
def test_generalized_hoelder(h):
    rng = np.random.default_rng(55)
    dmax, e = h.max_degree(), h.edge_count
    for _ in range(100):
        n = int(rng.integers(5, 31))
        u = _signed_symmetric(rng, n)
        lhs = abs(_t_signed(h, u))
        rhs = (np.abs(u) ** dmax).sum() / n ** 2
        assert lhs <= rhs ** (e / dmax) + 1e-12


# ---------------------------------------------------------------------------
# batched evaluation
# ---------------------------------------------------------------------------

def _random_stack(rng, b, n, p):
    stack = np.triu((rng.random((b, n, n)) < p).astype(np.int8), 1)
    return stack + stack.transpose(0, 2, 1)


def test_batched_matches_single(monkeypatch):
    dtypes = []  # the dtype of every contraction
    dp_sum = H._dp_sum
    monkeypatch.setattr(H, "_dp_sum", lambda h, w: dtypes.append(w.dtype) or dp_sum(h, w))
    rng = np.random.default_rng(13)
    n = 12
    stack = _random_stack(rng, 100, n, 0.4)
    # K4's DP holds n^3 entries per graph, so this stack spans several sub-batches
    assert len(stack) > H.BATCH_CELLS // n ** 3
    isolated = G.Graph(4, ((0, 1), (1, 2), (0, 2)))
    for h in (K3, C4, K4, G.parse_graph("star:3"), isolated):
        batch = H.batched_hom_normalized(h, stack, 0.35)
        single = np.array(
            [H.hom_normalized(h, a.astype(float), 0.35, engine="brute") for a in stack]
        )
        assert np.allclose(batch, single, rtol=1e-12)
    assert set(dtypes) == {np.dtype(np.float32)}
    # a float stack stays in float64, with the same counts
    dtypes.clear()
    as_float = H.batched_hom_normalized(K4, stack.astype(float), 0.35)
    assert set(dtypes) == {np.dtype(np.float64)}
    assert np.array_equal(as_float, H.batched_hom_normalized(K4, stack, 0.35))

    # a 0/1 stack contracts in float32 on both sides of n^v = 2^24, and its
    # counts stay exact: K3 on the complete graph is n(n-1)(n-2), scaled by
    # n^3 / 8 at p = 1/2 (which steps widen to float64 is checked below)
    for n in (256, 257):
        dtypes.clear()
        complete = (1 - np.eye(n, dtype=np.int8))[None]
        count = H.batched_hom_normalized(K3, complete, 0.5)[0]
        assert count == n * (n - 1) * (n - 2) / (float(n) ** 3 * 0.5 ** 3)
        assert dtypes == [np.dtype(np.float32)]

    # K4 at n = 18 (float32), against the flat grid's count
    stack = _random_stack(rng, 40, 18, 0.35)
    counts = [H._hom_sum(K4, a.astype(float), engine="brute") for a in stack]
    assert np.array_equal(H.batched_hom_normalized(K4, stack, 0.35),
                          np.array(counts) / (18.0 ** 4 * 0.35 ** 6))


# C5 and a triangle: the cycle's last step, in the middle of the plan, counts
# maps of 5 vertices and the triangle's steps at most 3
C5_AND_K3 = G.Graph(8, tuple(G.cycle(5).edges) + ((5, 6), (5, 7), (6, 7)))


@pytest.mark.parametrize("h, n, p, wide, past", [
    (G.cycle(5), 40, 0.9, [4], True),
    (G.cycle(6), 40, 0.9, [4, 5], True),
    (G.clique(5), 30, 0.99, [4], False),
    (C5_AND_K3, 40, 0.9, [4], True),
    (G.Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))), 40, 0.9, [], True),
], ids=["C5-n40", "C6-n40", "K5-n30", "C5+K3-n40", "2K3-n40"])
def test_batched_steps_widen_to_float64_only_past_2_24(h, n, p, wide, past):
    # a step's counts are at most n^(vertices it and the steps below it
    # eliminate): exactly the steps where that passes 2^24 run in float64,
    # the others in float32, and the components multiply in float64 (two
    # triangles: no step widens, but their product passes 2^24).  Each
    # count equals the all-float64 plan's (a float stack) bit for bit; on
    # these dense graphs the counts pass 2^24, except K5's (K5 maps into
    # K30 about 1.7e7 times, so only a complete graph's count would)
    steps = H._get_plan(h, (), batched=True)[0]
    assert [i for i, step in enumerate(steps) if n ** step[4] > 1 << 24] == wide
    stack = _random_stack(np.random.default_rng(5), 12, n, p)
    got = H.batched_hom_normalized(h, stack, 0.5)
    assert (got * float(n) ** h.vertex_count * 0.5 ** h.edge_count > 1 << 24).all() == past
    assert np.array_equal(got, H.batched_hom_normalized(h, stack.astype(float), 0.5))


# a pattern whose batched plan multiplies two stored intermediates that both
# hold the eliminated vertex first, so one of them is read transposed; that
# one is not symmetric, so reading it untransposed changes the counts
SWAPPED = G.Graph(8, ((0, 3), (0, 4), (0, 6), (1, 2), (1, 4), (2, 4), (2, 5), (3, 4),
                      (5, 6), (5, 7)))
EXACT_FAMILIES = {
    "K3": K3, "C4": C4, "C5": G.cycle(5), "C6": G.cycle(6), "K4": K4,
    "star3": G.parse_graph("star:3"), "path4": G.parse_graph("path:4"),
    "K23": G.parse_graph("complete_bipartite:2:3"),
    "K3+isolated": G.Graph(4, ((0, 1), (1, 2), (0, 2))),
    "2K2": G.Graph(4, ((0, 1), (2, 3))),
    "swapped": SWAPPED,
}


@pytest.mark.parametrize("h", list(EXACT_FAMILIES.values()), ids=list(EXACT_FAMILIES))
def test_batched_counts_are_exact_integers(h):
    # with n = 8 and p = 1/2 the scale n^v p^e is a power of two, so scaling
    # back is exact and the batched counts must equal the integer counts bit
    # for bit (brute force; the int64 DP on the 8-vertex pattern, past the
    # brute-force grid); 37 distinct graphs, tiled past every sub-batch
    # boundary, catch a count written to the wrong row
    rng = np.random.default_rng(21)
    n, p = 8, 0.5
    graphs = [_random_graph(rng, n) for _ in range(37)]
    engine = "dp" if h is SWAPPED else "brute"
    want = np.array([H.hom_count(h, g, engine=engine) for g in graphs], dtype=float)
    adj = np.array([g.adjacency() for g in graphs], dtype=np.int8)
    scale = float(n) ** h.vertex_count * p ** h.edge_count
    big = 1 + H.BATCH_CELLS // n ** 2  # more graphs than any sub-batch holds
    for size in (0, 1, big):
        idx = np.arange(size) % len(graphs)
        got = H.batched_hom_normalized(h, adj[idx], p) * scale
        assert got.shape == (size,)
        assert np.array_equal(got, want[idx])


def test_batched_runs_a_lone_graph_on_the_single_matrix_plan(monkeypatch):
    # at n = 41 one graph's n^3 cells of K4 fill a sub-batch, so each graph
    # runs the single-matrix plan; its counts are the exact integer counts
    rng = np.random.default_rng(8)
    n, p = 41, 0.3
    graphs = [_random_graph(rng, n) for _ in range(3)]
    adj = np.array([g.adjacency() for g in graphs], dtype=np.int8)
    assert H.BATCH_CELLS // n ** 3 == 0
    want = np.array([H.hom_count(K4, g) for g in graphs], dtype=float)
    shapes = []
    dp_sum = H._dp_sum
    monkeypatch.setattr(H, "_dp_sum", lambda h, w, *a: shapes.append(w.shape) or dp_sum(h, w, *a))
    got = H.batched_hom_normalized(K4, adj, p)
    assert shapes == [(n, n)] * len(graphs)
    assert np.array_equal(got, want / (float(n) ** 4 * p ** 6))


def test_batched_plan_steps_that_become_matmuls():
    def kinds(h, batched=True):
        return [swaps for *_rest, swaps in H._get_plan(h, (), batched=batched)[0]]

    no_swap = (False, False)
    # C5: three path extensions, then the closing product and the final sum
    assert kinds(G.cycle(5)) == [no_swap] * 3 + [None, None]
    # K2,3: the two `ac,bc->ab` products of W with itself; the three-operand
    # step keeps einsum
    assert kinds(G.parse_graph("complete_bipartite:2:3")) == [no_swap] * 2 + [None] * 3
    assert (True, False) in kinds(SWAPPED)
    # single matrices (the dense solver) keep einsum on every step
    for h in EXACT_FAMILIES.values():
        assert set(kinds(h, batched=False)) == {None}
        # W is symmetric, so it is never read transposed
        for _sub, slots, *_rest, swaps in H._get_plan(h, (), batched=True)[0]:
            if swaps is not None:
                assert not any(s for slot, s in zip(slots, swaps) if slot == "W")

"""Block-matrix constructions: exact membership, planted hom mass, entropy."""

import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from uptail import blocks as B
from uptail import ensembles as E
from uptail import graphs as G
from uptail import homs as H
from uptail import rates as R
from uptail import solver as S
from uptail.errors import ConstructionError, DomainError, ResourceError

K3, C3, K4 = G.clique(3), G.cycle(3), G.clique(4)
DIAMOND = G.Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))


# ---------------------------------------------------------------------------
# BlockSpec basics
# ---------------------------------------------------------------------------

def test_blockspec_validation():
    with pytest.raises(DomainError):
        B.BlockSpec((0, 3), ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))))
    with pytest.raises(DomainError):
        B.BlockSpec((2, 2), ((Fraction(1), Fraction(1, 2)), (Fraction(1, 3), Fraction(0))))
    with pytest.raises(DomainError):
        B.BlockSpec((2,), ((Fraction(3, 2),),))


def test_blockspec_json_roundtrip():
    spec = B.build_cycle_blocks(200, 20, 1.5, 3)
    again = B.BlockSpec.from_json(spec.to_json())
    assert again.sizes == spec.sizes
    assert np.allclose(again.value_matrix(), spec.value_matrix())


def test_block_hom_matches_materialized():
    rng = np.random.default_rng(12)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        sizes = tuple(int(s) for s in rng.integers(2, 40, size=k))
        vals = rng.random((k, k))
        vals = np.round((vals + vals.T) / 2, 6)
        spec = B.BlockSpec(
            sizes,
            tuple(tuple(Fraction(str(v)) for v in row) for row in vals),
        )
        x = spec.materialize()
        for h in (K3, G.cycle(4), G.star(2)):
            closed = spec.hom_density(h)
            direct = H.hom_density_t(h, x)
            assert closed == pytest.approx(direct, rel=1e-9)


def test_block_hom_sums_over_parts_and_multiplies_over_components():
    # whole cliques, a last clique joined to the background, an isolated
    # zero block: five parts, three of them equal; patterns connected or not
    two_triangles = G.Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    one, r, q, z = Fraction(1), Fraction(1, 5), Fraction(1, 7), Fraction(0)
    spec = B.BlockSpec((9, 9, 9, 4, 3, 26), (
        (one, z, z, z, z, z), (z, one, z, z, z, z), (z, z, one, z, z, z),
        (z, z, z, one, z, r), (z, z, z, z, z, z), (z, z, z, r, z, q)))
    assert [part.sizes for part in spec.parts()] == [(9,), (9,), (9,), (4, 26), (3,)]
    x = spec.materialize()
    for h in (K3, K4, G.cycle(5), two_triangles, G.Graph(3, ((0, 1),)), G.Graph(2, ())):
        assert spec.hom_density(h) == pytest.approx(H.hom_density_t(h, x), rel=1e-12)


def test_partition_counts_are_the_enumerated_partitions():
    # a[g] counted vertex by vertex is the number of independent-group
    # partitions with g groups that `_hom_table` lists; P_H(n) from them is
    # the chromatic polynomial ((n - 1)^l + (-1)^l (n - 1) on a cycle), and
    # the placements are those `_hom_table` enumerates on k blocks
    rng = np.random.default_rng(30)
    patterns = [K3, K4, G.cycle(5), G.cycle(8), G.star(3), G.path(5), G.clique(6),
                G.complete_bipartite(3, 3), TRIANGLE_AND_POINT, G.Graph(0, ()), G.Graph(3, ())]
    for _ in range(30):
        v = int(rng.integers(1, 9))
        patterns.append(G.Graph(v, tuple((a, b) for a in range(v) for b in range(a + 1, v)
                                         if rng.random() < 0.4)))
    for h in patterns:
        listed = collections.Counter(len(groups) for groups in B._independent_group_partitions(h))
        assert B._partition_counts(h) == tuple(listed[g] for g in range(h.vertex_count + 1))
        assert B.placements(h, 3) == sum(c * 3 ** g for g, c in listed.items())
        for n in (9, 31):
            chromatic = sum(c * math.perm(n, g) for g, c in listed.items())
            assert B.complete_density(h, n) == chromatic / n ** h.vertex_count
    for l in (10, 12):
        n = 30
        assert B.complete_density(G.cycle(l), n) == ((n - 1) ** l + (-1) ** l * (n - 1)) / n ** l
    assert sum(B._partition_counts(G.cycle(12))) == 580_317
    assert B.placements(G.clique(4), 16) == 16 ** 4 and B.placements(G.cycle(5), 9) == 95_499


def test_whole_cliques_expand_one_part_at_a_time(monkeypatch):
    # up to 49 whole cliques and a last one at n = 100000, d = 1000: each
    # expansion runs on one clique or on the last clique and the background,
    # never on all 51 blocks
    hom_table, blocks_compiled = B._hom_table, []

    def recording(h, k):
        blocks_compiled.append(k)
        return hom_table(h, k)

    monkeypatch.setattr(B, "_hom_table", recording)
    spec = B._whole_cliques(100_000, 1000, 49, 0)
    assert spec.num_blocks == 50
    assert spec.hom_normalized(K4, 0.01) == pytest.approx(
        49 * 1001 * 1000 * 999 * 998 / (100_000 ** 4 * 0.01 ** 6)
        + B.BlockSpec(spec.sizes[-1:], ((spec.values[-1][-1],),)).hom_density(K4)
        * (spec.sizes[-1] / 100_000) ** 4 / 0.01 ** 6, rel=1e-12)
    for h in (K4, G.complete_bipartite(3, 3)):
        B.build_whole_cliques(100_000, 1000, 0.3, h)
    assert max(blocks_compiled) <= 2


def _mobius(h):
    """The quotients of h behind hom on a blow-up, as {classes: mu}: for each
    partition of V(h) into classes connected in h (each vertex's class index,
    numbered in order of first vertex), mu is the sum of (-1)^|F| over the
    edge sets F whose components are those classes; zero sums are dropped."""
    mu = {}
    for size in range(h.edge_count + 1):
        for edges in itertools.combinations(h.edges, size):
            root = list(range(h.vertex_count))

            def find(u):
                while root[u] != u:
                    u = root[u]
                return u

            for a, b in edges:
                root[find(a)] = find(b)
            first = {}
            classes = tuple(first.setdefault(find(u), len(first)) for u in range(h.vertex_count))
            mu[classes] = mu.get(classes, 0) + (-1) ** size
    return {classes: m for classes, m in mu.items() if m}


def _quotient_density(h, sizes, z):
    """t(h, X) for X the blow-up of the k x k values z (..., k, k) on blocks
    of `sizes`, with zero diagonal, never materialized: X is the blow-up of z
    minus its diagonal, so hom(h, X) = sum over the quotients h/pi of
    mu(pi) hom_s(h/pi, z).  hom_s weighs each class by its block's size and
    reads an edge inside a class as z's diagonal (Lovasz, Large Networks and
    Graph Limits, AMS 2012, on homomorphisms and partitions)."""
    s = np.asarray(sizes, dtype=float)
    diagonal = np.diagonal(z, axis1=-2, axis2=-1)
    total = 0.0
    for classes, mu in _mobius(h).items():
        letters = [chr(ord("a") + c) for c in classes]
        subs = sorted(set(letters))
        ops = [s] * len(subs)
        for a, b in h.edges:
            if classes[a] == classes[b]:
                subs.append("..." + letters[a])
                ops.append(diagonal)
            else:
                subs.append("..." + letters[a] + letters[b])
                ops.append(z)
        total = total + mu * np.einsum(",".join(subs) + "->...", *ops, optimize=True)
    return total / s.sum() ** h.vertex_count


TRIANGLE_AND_POINT = G.Graph(4, ((0, 1), (0, 2), (1, 2)))


@pytest.mark.parametrize("h", [K3, G.cycle(4), G.cycle(5), K4, G.star(3), G.path(4),
                               TRIANGLE_AND_POINT], ids=["K3", "C4", "C5", "K4", "star3", "path4",
                                                         "K3+point"])
def test_block_homs_are_their_quotient_sums(h):
    # the compiled expansion, on a stack and through BlockSpec.hom_density,
    # against the quotient form: k = 1, 2, 3 and 8 (K3 also at 40), blocks of
    # 1 to 1e5 vertices, values in [0, 1] with any diagonal
    rng = np.random.default_rng(h.edge_count + h.vertex_count)
    for k in (1, 2, 3, 8) + ((40,) if h is K3 else ()):
        sizes = tuple(int(s) for s in rng.choice([1, 2, 3, 17, 1000, 100_000], k))
        z = rng.random((4, k, k))
        z = np.round(z + np.swapaxes(z, 1, 2), 12) / 2  # symmetric, exactly
        live = B.block_pairs(sizes)
        terms = B.hom_terms(h, sizes)
        stacked = B.terms_value_and_gradient(
            (terms[0] + len(live[0]) * np.arange(4)[:, None, None],
             np.broadcast_to(terms[1], (4,) + terms[1].shape)), z[:, live[0], live[1]])[0]
        oracle = _quotient_density(h, sizes, z)
        assert stacked == pytest.approx(oracle, rel=1e-12, abs=0)
        spec = B.BlockSpec(sizes, tuple(tuple(map(Fraction, row)) for row in z[0]))
        assert spec.hom_density(h) == pytest.approx(oracle[0], rel=1e-12, abs=0)


def _terms_value_and_gradient_reference(terms, values):
    """`terms_value_and_gradient` with its products formed edge column by
    column, written out apart from it: the oracle it matches bit for bit."""
    pairs, weights = terms
    edges = pairs.shape[-1]
    factors = values.ravel().take(pairs)
    f = [factors[..., j] for j in range(edges)]
    before, after = [None] * edges, [None] * edges
    for j in range(1, edges):
        before[j] = f[0] if j == 1 else before[j - 1] * f[j - 1]
        after[-1 - j] = f[-1] if j == 1 else after[-j] * f[-j]
    part = np.empty_like(factors)
    for j in range(edges):
        w = weights if before[j] is None else weights * before[j]
        part[..., j] = w if after[j] is None else w * after[j]
    value = B._rowsum(weights * (f[-1] if edges == 1 else before[-1] * f[-1]))
    grad = np.bincount(pairs.ravel(), part.ravel(), minlength=values.size)
    return value, grad.reshape(values.shape)


def test_rowsum_adds_each_row_in_order():
    # against cumsum's last column, which adds a row's entries one by one:
    # a 1-D row and a one-row stack (where numpy's own reduce sums pairwise),
    # many rows, rows padded with zeros at their end, a 3-D stack, and none
    rng = np.random.default_rng(11)
    pairwise = 0
    for shape in [(300,), (1, 300), (1, 9), (2, 9), (17, 40), (5, 1000), (3, 2, 50), (6, 1)]:
        a = rng.random(shape) * 10.0 ** rng.integers(-8, 9, shape) * rng.choice([-1, 1], shape)
        a[..., -a.shape[-1] // 3:] *= rng.random(shape[:-1] + (1,)) < 0.5  # padded rows
        in_order = a.cumsum(axis=-1)[..., -1]
        assert np.shape(B._rowsum(a)) == in_order.shape
        assert B._rowsum(a).tobytes() == in_order.tobytes(), shape
        pairwise += a.sum(axis=-1).tobytes() != in_order.tobytes()
    assert pairwise  # the test can tell the two orders apart
    assert B._rowsum(np.zeros((4, 0))).tolist() == [0.0] * 4 and B._rowsum(np.zeros(0)) == 0.0


@pytest.mark.parametrize("h, n, seeds", [(K3, 60, None), (K3, 60, 1), (G.cycle(5), 40, None),
                                         (G.cycle(5), 40, 1), (K4, 30, None), (K4, 40, None),
                                         (G.cycle(6), 40, None), (G.clique(5), 30, None)])
def test_term_products_are_the_column_form_bit_for_bit(h, n, seeds):
    # stacks of a solve's seeds, padded to the widest seed (or its first seed
    # alone), at random values with entries at exactly 0 and 1
    prob = S.SolveProblem(((h, 1.3),), n=n, base=0.3)
    specs = [spec for _name, spec in S.default_seeds(prob)][:seeds]
    space = S._BlockSpace(prob, [spec.sizes for spec in specs])
    terms = space.terms[0]
    rng = np.random.default_rng(n + h.edge_count)
    for _ in range(5):
        y = rng.random(space.pairs.shape)
        y[rng.random(y.shape) < 0.2] = 0.0
        y[rng.random(y.shape) < 0.2] = 1.0
        for got, want in zip(B.terms_value_and_gradient(terms, y),
                             _terms_value_and_gradient_reference(terms, y)):
            assert got.tobytes() == want.tobytes()


def test_block_entropy_matches_materialized():
    spec = B.build_cycle_blocks(300, 30, 2.5, 3)
    x = spec.materialize()
    assert spec.entropy(0.1) == pytest.approx(R.entropy_matrix(x, 0.1), rel=1e-9)
    # one base value per block pair: a block-model base on the same blocks
    params = R.BlockModelParams((0.5, 0.5), ((2.0, 1.0), (1.0, 0.5)), 0.1)
    base = B.BlockSpec(tuple(R.block_sizes(params.alpha, 300)), tuple(
        tuple(Fraction(c * 0.1) for c in row) for row in params.kernel)).refined(spec.sizes)
    spec = spec.refined(base.sizes)
    assert spec.entropy(base.value_matrix()) == pytest.approx(
        R.entropy_matrix(x, params.edge_probability_matrix(300)), rel=1e-9)
    assert spec.entropy(np.full((spec.num_blocks,) * 2, 0.1)) == spec.entropy(0.1)


def test_refined_is_the_same_matrix_on_both_cut_points():
    spec = B.build_plant(40, 0.3, 1.0, 1.0, 2)  # blocks of 4, 12 and 24 vertices
    for cuts in ((20, 20), (1, 39), (3, 4, 33), (40,), (4, 12, 24)):
        fine = spec.refined(cuts)
        assert np.array_equal(np.asarray(fine), np.asarray(spec))
        ends = set(np.cumsum(fine.sizes).tolist())
        assert ends == set(np.cumsum(spec.sizes).tolist()) | set(np.cumsum(cuts).tolist())
        assert fine.refined(spec.sizes) == fine.refined(cuts) == fine
    assert spec.refined(spec.sizes) is spec


# ---------------------------------------------------------------------------
# cycle blocks
# ---------------------------------------------------------------------------

def test_cycle_blocks_row_sums_exact():
    spec = B.build_cycle_blocks(n=2000, d=200, delta=1.5, l=3)
    assert spec.sizes == (201, 159, 1640)
    assert all(rs == 200 for rs in spec.row_sums_exact())
    rep = B.validate_membership(spec, E.regular(2000, 200))
    assert rep.passes and rep.deviation == 0.0


def test_cycle_blocks_integer_delta_drops_fractional_block():
    spec = B.build_cycle_blocks(n=2000, d=100, delta=2.0, l=3)
    assert spec.sizes == (101, 101, 1798)
    assert all(rs == 100 for rs in spec.row_sums_exact())


def test_cycle_blocks_background_close_to_p():
    # |q - p| <= C p^2 at the reference point; C frozen from the row-sum algebra
    n, d, l, delta = 10_000, 100, 3, 0.5
    p = d / n
    spec = B.build_cycle_blocks(n, d, delta, l)
    q = float(spec.values[-1][-1])
    assert abs(q - p) <= 2.0 * p ** 2


def test_cycle_blocks_infeasible_parameters():
    with pytest.raises(ConstructionError):
        B.build_cycle_blocks(n=100, d=45, delta=2.0, l=3)  # blocks exceed n/2
    with pytest.raises(ConstructionError):
        B.build_cycle_blocks(n=1000, d=3, delta=0.001, l=3)  # fractional block < 2


def test_cycle_blocks_hom_lower_bound():
    # planted mass dominates: floor(delta) maximal cliques + fractional block
    n, d, delta, l = 2000, 200, 1.5, 3
    p = d / n
    spec = B.build_cycle_blocks(n, d, delta, l)
    hom = spec.hom_normalized(C3, p)
    s1 = spec.sizes[1]
    s = sum(spec.sizes[:-1])
    q = float(spec.values[-1][-1])
    planted = (
        math.floor(delta) * (d / n) ** 3
        + ((s1 - 1) / n) ** 3
        + ((n - s - 1) / n) ** 3 * q ** 3
    ) / p ** 3
    assert hom >= planted - 1e-9
    assert hom >= (1 + delta) * 0.98


def test_whole_cliques_sized_by_exact_hom():
    # the shape of build_cycle_blocks, at the least planted size whose hom
    # reaches 1 + delta: one size smaller falls short
    n, d = 40, 12
    for h, delta in ((K4, 0.3), (K4, 2.4), (K4, 10.0), (K4, 10.5),
                     (G.complete_bipartite(3, 3), 0.5)):
        spec = B.build_whole_cliques(n, d, delta, h)
        assert all(rs == d for rs in spec.row_sums_exact())
        assert spec.hom_normalized(h, d / n) >= 1 + delta
        whole = sum(1 for s in spec.sizes[:-1] if s == d + 1)
        last = sum(spec.sizes[:-1]) - whole * (d + 1)
        smaller = (whole, last - 1) if last > 2 else (whole - 1, 0 if last else d)
        if smaller[0] >= 0 and sum(smaller) > 0:
            below = B._whole_cliques(n, d, *smaller)
            assert below.hom_normalized(h, d / n) < 1 + delta
    # cycles keep their frac^{1/l} sizing in build_cycle_blocks
    assert B.build_cycle_blocks(40, 12, 0.3, 4).sizes == (9, 31)
    with pytest.raises(ConstructionError, match="reaches"):
        B.build_whole_cliques(n, d, 1e6, K4)


# ---------------------------------------------------------------------------
# single clique (Delta >= 3)
# ---------------------------------------------------------------------------

def test_clique_block_reference_point():
    n, d, delta = 100_000, 10_000, 1.0
    p = d / n
    spec = B.build_clique_block(n, d, delta, K4)
    assert spec.sizes[0] == round(delta ** 0.25 * n * p ** 1.5) == 3162
    assert all(rs == d for rs in spec.row_sums_exact())
    hom = spec.hom_normalized(K4, p)
    assert hom >= (1 + delta) * 0.95
    ratio = spec.entropy(p) / (2 * R.scale_anp(n, p, 3))
    # clique branch of the rate: delta^{2/v} / 2 = 1/2 here
    assert abs(ratio - 0.5) <= 0.15 * 0.5


def test_clique_block_border_errors():
    # p - r = O(p^{Delta/2}), q - p = O(p^Delta) at the reference point
    n, d = 100_000, 10_000
    p = d / n
    spec = B.build_clique_block(n, d, 1.0, K4)
    r = float(spec.values[0][1])
    q = float(spec.values[1][1])
    assert 0 < p - r <= 2.0 * p ** 1.5
    assert 0 < q - p <= 2.0 * p ** 3 * math.log(1 / p) * 10


def test_clique_block_requires_regular_high_degree():
    with pytest.raises(DomainError):
        B.build_clique_block(1000, 100, 1.0, C3)  # Delta = 2
    with pytest.raises(DomainError):
        B.build_clique_block(1000, 100, 1.0, DIAMOND)  # irregular


@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0])
def test_builders_need_finite_positive_delta(delta):
    with pytest.raises(DomainError):
        B.build_cycle_blocks(2000, 200, delta, 3)
    with pytest.raises(DomainError):
        B.build_clique_block(2000, 200, delta, K4)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_builders_need_finite_x_y(bad):
    for x, y in ((bad, 0.5), (0.5, bad)):
        with pytest.raises(DomainError, match="finite"):
            B.build_plant(200, 0.1, x, y, 2)
        with pytest.raises(DomainError, match="finite"):
            B.build_clique_hub(200, 2000, x, y, 2)
    with pytest.raises(DomainError, match="finite"):
        B.build_irregular_dreg(2000, 200, G.parse_graph("complete_bipartite:2:3"), bad)


def test_asarray_materializes_block_specs():
    # np.asarray reads a BlockSpec as its n x n matrix, in any dtype, and
    # refuses past MATERIALIZE_CAP as materialize does
    spec = B.build_clique_hub(200, 2000, 0.5, 0.5, 2)
    assert np.array_equal(np.asarray(spec), spec.materialize())
    x = np.asarray(spec, dtype=np.float32)
    assert x.dtype == np.float32 and np.array_equal(x, spec.materialize().astype(np.float32))
    with pytest.raises(ResourceError, match="materialize"):
        np.asarray(B.BlockSpec((B.MATERIALIZE_CAP + 1,), ((Fraction(1, 2),),)))


def test_clique_block_size_window():
    with pytest.raises(ConstructionError):
        B.build_clique_block(100, 30, 1.0, K4)  # s1 > d/2 at this scale


# ---------------------------------------------------------------------------
# clique + hub
# ---------------------------------------------------------------------------

def test_plant_materializes_exact_background():
    # Fraction(p) is exact, so the planted spec materializes to p bit for bit
    n, p, s1, s2 = 30, 0.3, 5, 13
    spec = B.build_plant(n, p, x=2.0, y=1.5, delta=2)
    assert spec.sizes == (s1, s2, n - s1 - s2)
    x = np.full((n, n), p)
    x[:s1, :] = x[:, :s1] = 1.0
    x[s1:s1 + s2, s1:s1 + s2] = 1.0
    np.fill_diagonal(x, 0.0)
    assert np.array_equal(spec.materialize(), x)
    with pytest.raises(ConstructionError, match="hub size"):
        B.build_plant(n, p, x=0.1, y=0.0, delta=2)
    with pytest.raises(ConstructionError, match="clique size"):
        B.build_plant(n, p, x=0.0, y=0.1, delta=2)
    with pytest.raises(ConstructionError, match=r"planted size s=\d+ >= n"):
        B.build_clique_hub(n, 130, x=0.0, y=100.0, delta=2)


def test_clique_hub_total_weight_exact():
    n = 5000
    m = round(0.1 * n * (n - 1) / 2)
    spec = B.build_clique_hub(n, m, x=0.5, y=0.5, delta=2)
    assert spec.total_weight_exact() == m
    rep = B.validate_membership(spec, E.uniform(n, m))
    assert rep.passes and rep.deviation == 0.0


def test_clique_hub_degenerate_blocks():
    n = 5000
    m = round(0.1 * n * (n - 1) / 2)
    hub_only = B.build_clique_hub(n, m, x=1.0, y=0.0, delta=2)
    assert len(hub_only.sizes) == 2  # hub + background
    clique_only = B.build_clique_hub(n, m, x=0.0, y=1.0, delta=2)
    assert len(clique_only.sizes) == 2  # clique + background
    with pytest.raises(DomainError):
        B.build_clique_hub(n, m, x=0.0, y=0.0, delta=2)


def test_fill_total_weight_when_plant_covers_every_pair():
    # a hub of n-1 rows leaves no pair below 1: only m = n(n-1)/2 is reachable
    plant = B.build_plant(10, 40 / 45, 1.14, 0.0, 2)
    assert plant.sizes == (9, 1) and plant.total_weight_exact() == 45
    assert B.fill_total_weight(plant, 45) == plant
    with pytest.raises(ConstructionError):
        B.fill_total_weight(plant, 40)
    with pytest.raises(ConstructionError):
        B.build_clique_hub(10, 40, x=1.14, y=0.0, delta=2)


def test_clique_hub_entropy_near_rate():
    n, p = 10_000, 0.05
    m = round(p * n * (n - 1) / 2)
    x, y = 0.5, 0.5
    spec = B.build_clique_hub(n, m, x=x, y=y, delta=2)
    ratio = spec.entropy(p) / (2 * R.scale_anp(n, p, 2))
    assert abs(ratio - (x + 0.5 * y * y)) <= 0.15 * (x + 0.5 * y * y)


def test_clique_hub_hom_lower_bound():
    # planted contribution: clique block plus hub-rooted homomorphism mass;
    # reference point sparse enough that the 5% slack absorbs the o(1) terms
    n, p = 100_000, 0.01
    m = round(p * n * (n - 1) / 2)
    x, y = 0.5, 0.5
    spec = B.build_clique_hub(n, m, x=x, y=y, delta=2)
    poly = G.independence_polynomial(G.h_star(K3))
    bound = (y * p) ** 3 / p ** 3 + poly(x)
    hom = spec.hom_normalized(K3, p)
    assert hom >= bound * 0.95


def test_clique_hub_fails_regular_membership():
    n = 2000
    m = round(0.1 * n * (n - 1) / 2)
    spec = B.build_clique_hub(n, m, x=1.0, y=1.0, delta=2)
    rep = B.validate_membership(spec, E.regular(n, round(0.1 * n)))
    assert not rep.passes


# ---------------------------------------------------------------------------
# irregular pattern construction
# ---------------------------------------------------------------------------

def test_irregular_dreg_reference():
    n, d = 1_000_000, 10_000
    p = d / n
    spec = B.build_irregular_dreg(n, d, DIAMOND, x=1.0)
    # f(diamond) = 5/2, so the hub scales like n p^{3/2}
    assert spec.sizes[0] == round(n * p ** 1.5) == 1000
    assert all(rs == d for rs in spec.row_sums_exact())


def test_irregular_dreg_rejects_regular():
    with pytest.raises(DomainError):
        B.build_irregular_dreg(10_000, 1000, K4, x=1.0)


# ---------------------------------------------------------------------------
# membership checks on raw matrices
# ---------------------------------------------------------------------------

def test_validate_constant_matrix_regular():
    n, d = 50, 10
    x = np.full((n, n), d / (n - 1))
    np.fill_diagonal(x, 0.0)
    rep = B.validate_membership(x, E.regular(n, d))
    assert rep.passes


def test_validate_er_range_only():
    x = np.full((10, 10), 0.4)
    np.fill_diagonal(x, 0.0)
    assert B.validate_membership(x, E.er(10, 0.4)).passes


def _ladder_specs():
    """Every ladder spec of K3, K4 and C5 over a few excess levels, under row
    sums and under total weight (raw, and filled to the exact weight)."""
    out = []
    for h in (K3, K4, G.cycle(5)):
        rows = S.SolveProblem(((h, 1.3),), n=120, base=0.1, ensemble=("row_sums", 12))
        total = S.SolveProblem(((h, 1.3),), n=30, base=130 / 435,
                               ensemble=("total_weight", 130))
        for delta in (0.3, 0.6, 1.5, 2.4):
            out += [(spec, E.regular(120, 12)) for _t, spec in S.ladder(rows, [delta])[0]]
            for _t, spec in S.ladder(total, [delta])[0]:
                out.append((spec, E.uniform(30, 130)))
                try:
                    out.append((B.fill_total_weight(spec, 130), E.uniform(30, 130)))
                except ConstructionError:
                    pass
    return out


def test_ensemble_residual_exact_on_every_ladder_spec():
    specs = _ladder_specs()
    assert {ens.kind for _spec, ens in specs} == {"regular", "uniform"}
    assert any(B.ensemble_residual(spec, ("total_weight", 130)) > 1.0
               for spec, ens in specs if ens.kind == "uniform")
    for spec, ens in specs:
        constraint = ens.constraint()
        exact = B.ensemble_residual(spec, constraint)
        assert exact == pytest.approx(B.ensemble_residual(spec.materialize(), constraint),
                                      abs=1e-9)
        assert B.validate_membership(spec, ens).deviation == exact


def test_ensemble_residual_rejects_unknown_constraint():
    assert B.ensemble_residual(np.zeros((3, 3)), None) == 0.0
    with pytest.raises(DomainError):
        B.ensemble_residual(np.zeros((3, 3)), ("degree", 2))


def test_entropy_trend_toward_constant():
    # with p = n^{-1/4}, the normalized entropy drifts toward the rate constant
    delta = 1.5
    c = R.c_reg(C3, delta).constant
    devs = []
    for n in (2000, 20_000, 200_000):
        p = n ** -0.25
        d = round(n * p)
        spec = B.build_cycle_blocks(n, d, delta, 3)
        ratio = spec.entropy(d / n) / (2 * R.scale_anp(n, d / n, 2))
        devs.append(abs(ratio - c))
    assert devs[0] > devs[1] > devs[2]


def test_fill_row_sums_is_exact():
    # one 11-clique of row sum 10, then a 4-clique joined to the background
    n, d, s1, planted = 100, 10, 4, 15
    r, q = B._fill_row_sums(n, d, s1, planted)
    assert (s1 - 1) + r * (n - planted) == d
    assert s1 * r + q * (n - planted - 1) == d
    spec = B.build_cycle_blocks(n, d, 1 + (s1 / d) ** 3, 3)
    assert spec.sizes == (11, 4, 85)
    assert (spec.values[1][2], spec.values[2][2]) == (r, q)

"""Samplers, Monte Carlo tails, importance sampling, Pittel comparison."""

import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from uptail import blocks as B
from uptail import ensembles as E
from uptail import graphs as G
from uptail import homs as H
from uptail import rates as R
from uptail.errors import DomainError

K3 = G.clique(3)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(DomainError):
        E.er(10, 0.0)
    with pytest.raises(DomainError):
        E.uniform(5, 11)
    with pytest.raises(DomainError):
        E.regular(5, 3)  # odd n*d
    with pytest.raises(DomainError):
        E.regular(8, 7)  # d > n-2
    assert E.uniform(10, 20).sparsity() == pytest.approx(20 / 45)
    assert E.regular(10, 4).sparsity() == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_er_extreme_p():
    g = E.sample(E.er(6, 1.0), E.rng_stream(0))
    assert g.edge_count == 15


def test_uniform_edge_count_exact():
    rng = E.rng_stream(5)
    for _ in range(50):
        g = E.sample(E.uniform(10, 20), rng)
        assert g.edge_count == 20


def test_regular_degrees_hard():
    for i in range(1000):
        g = E.sample(E.regular(20, 3), E.rng_stream(2, i))
        assert all(d == 3 for d in g.degrees())


def test_regular_five_cycle_uniform():
    # support of 2-regular graphs on 5 vertices: the 12 labeled 5-cycles
    rng = E.rng_stream(31)
    counts = Counter()
    n_samples = 12_000
    for _ in range(n_samples):
        counts[E.sample(E.regular(5, 2), rng).edges] += 1
    assert len(counts) == 12
    _stat, pval = stats.chisquare(list(counts.values()))
    assert pval > 0.01


def test_uniform_pair_marginals():
    rng = E.rng_stream(8)
    n, m, samples = 10, 20, 10_000
    iu = np.triu_indices(n, 1)
    hits = np.zeros(iu[0].size)
    for _ in range(samples):
        g = E.sample(E.uniform(n, m), rng)
        a = g.adjacency()
        hits += a[iu]
    expected = samples * m / iu[0].size
    _stat, pval = stats.chisquare(hits, f_exp=np.full(iu[0].size, expected))
    assert pval > 0.01


def test_block_model_densities():
    params = R.BlockModelParams((0.5, 0.5), ((2.0, 1.0), (1.0, 0.5)), 0.1)
    spec = E.block_model(200, params)
    rng = E.rng_stream(17)
    within1 = within2 = between = 0
    w1_pairs = w2_pairs = b_pairs = 0
    for _ in range(30):
        g = E.sample(spec, rng)
        a = g.adjacency()
        within1 += np.triu(a[:100, :100], 1).sum()
        within2 += np.triu(a[100:, 100:], 1).sum()
        between += a[:100, 100:].sum()
        w1_pairs += 100 * 99 // 2
        w2_pairs += 100 * 99 // 2
        b_pairs += 100 * 100
    for hits, pairs, prob in (
        (within1, w1_pairs, 0.2),
        (within2, w2_pairs, 0.05),
        (between, b_pairs, 0.1),
    ):
        se = math.sqrt(prob * (1 - prob) / pairs)
        assert abs(hits / pairs - prob) <= 3 * se


# ---------------------------------------------------------------------------
# direct Monte Carlo
# ---------------------------------------------------------------------------

def test_mc_trivial_threshold():
    est = E.mc_upper_tail(E.er(12, 0.3), [K3], [0.0], 500, seed=1)
    assert est.point == 1.0


def test_mc_joint_at_mean():
    est = E.mc_upper_tail(E.er(14, 0.4), [K3, G.cycle(4)], [1.0, 1.0], 4000, seed=2)
    assert 0.0 < est.point < 1.0


def test_mc_zero_hits_flag():
    est = E.mc_upper_tail(E.er(10, 0.1), [K3], [50.0], 300, seed=3)
    assert est.zero_hits and est.point == 0.0 and est.ci_high > 0


def test_mc_workers_deterministic_reduction():
    a = E.mc_upper_tail(E.er(12, 0.3), [K3], [1.3], 4000, seed=9, workers=1)
    b = E.mc_upper_tail(E.er(12, 0.3), [K3], [1.3], 4000, seed=9, workers=1)
    assert a.point == b.point


def test_mc_empirical_threshold_mode():
    est = E.mc_upper_tail(E.er(14, 0.4), [K3], [1.4], 3000, seed=4,
                          threshold="empirical")
    assert 0.0 <= est.point < 1.0


def test_mc_regular_base():
    est = E.mc_upper_tail(E.regular(16, 4), [K3], [1.0], 300, seed=5)
    assert 0.0 <= est.point <= 1.0


@pytest.mark.parametrize("spec, thresholds", [
    (E.uniform(12, 20), [0.6, 2.0]),
    (E.regular(12, 4), [0.5, 1.65]),
])
def test_mc_fixed_count_matches_per_sample_loop(spec, thresholds):
    # the stack path must count the same hits as drawing one graph at a time
    # from the same stream and evaluating each with the single-matrix hom
    hs, samples, seed = [K3, G.cycle(4)], 300, 3
    est = E.mc_upper_tail(spec, hs, thresholds, samples, seed=seed, chunk=64)
    rng = E.rng_stream(seed)
    p = spec.sparsity()
    hits = 0
    for _ in range(samples):
        a = E.sample(spec, rng).adjacency().astype(float)
        hits += all(H.hom_normalized(h, a, p) >= t for h, t in zip(hs, thresholds))
    assert 0 < hits < samples
    assert est.hits == hits


# ---------------------------------------------------------------------------
# importance sampling
# ---------------------------------------------------------------------------

def test_is_tilt_equals_base_reproduces_direct():
    n, p = 18, 0.35
    tilt = np.full((n, n), p)
    np.fill_diagonal(tilt, 0.0)
    direct = E.mc_upper_tail(E.er(n, p), [K3], [1.5], 4000, seed=11)
    weighted = E.importance_tail(E.er(n, p), tilt, [K3], [1.5], 4000, seed=11)
    assert weighted.point == pytest.approx(direct.point, abs=1e-12)
    assert weighted.hits == pytest.approx(4000, rel=1e-9)  # all weights one


def test_is_agrees_with_direct():
    n, p = 18, 0.35
    tilt = np.full((n, n), p)
    tilt[:5, :5] = p + 0.5 * (1 - p)
    np.fill_diagonal(tilt, 0.0)
    direct = E.mc_upper_tail(E.er(n, p), [K3], [1.5], 40_000, seed=21)
    weighted = E.importance_tail(E.er(n, p), tilt, [K3], [1.5], 10_000, seed=22)
    assert weighted.overlaps(direct)
    assert weighted.hits >= 100  # effective sample size


def test_is_rejects_mass_losing_tilt():
    n, p = 10, 0.3
    tilt = np.full((n, n), p)
    tilt[0, 1] = tilt[1, 0] = 0.0
    np.fill_diagonal(tilt, 0.0)
    with pytest.raises(DomainError):
        E.importance_tail(E.er(n, p), tilt, [K3], [1.2], 100, seed=1)


def test_is_forced_edges_lower_bound():
    # a hard clique tilt (entries exactly 1) measures the event on the
    # forced-edge slice, so it can only fall below the direct estimate
    n, p = 12, 0.4
    tilt = np.full((n, n), p)
    tilt[:4, :4] = 1.0
    np.fill_diagonal(tilt, 0.0)
    direct = E.mc_upper_tail(E.er(n, p), [K3], [1.3], 20_000, seed=31)
    forced = E.importance_tail(E.er(n, p), tilt, [K3], [1.3], 20_000, seed=32)
    assert forced.point <= direct.point + 3 * (direct.ci_high - direct.point)


# ---------------------------------------------------------------------------
# block-model mean and Pittel
# ---------------------------------------------------------------------------

def test_block_model_mean_matches_b_h():
    # N kept small: the block constant is the n -> infinity mean, and at
    # n=200 the coincidence deficit (~2%) must stay inside the noise band
    params = R.BlockModelParams((0.5, 0.5), ((2.0, 1.0), (1.0, 0.5)), 0.2)
    spec = E.block_model(200, params)
    target = R.b_h(K3, params)
    rng = E.rng_stream(41)
    vals = []
    for _ in range(12):
        g = E.sample(spec, rng)
        vals.append(H.hom_normalized(K3, g.adjacency().astype(float), 0.2))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(mean - target) <= 3 * se


def _has_triangle(g):
    adj = g.neighbors()
    return any(
        len(adj[u] & adj[v]) > 0 for u, v in g.edges
    )


def test_pittel_triangle_event():
    rep = E.pittel_check(20, 40, _has_triangle, 3000, seed=51)
    assert not rep["violated"]
    assert rep["ratio"] is not None and rep["ratio"] <= rep["bound"]


def test_pittel_trivial_events():
    rep = E.pittel_check(12, 20, lambda g: True, 200, seed=52)
    assert rep["ratio"] == pytest.approx(1.0) and not rep["violated"]
    rep = E.pittel_check(12, 20, lambda g: False, 200, seed=53)
    assert rep["vacuous"] and not rep["violated"]

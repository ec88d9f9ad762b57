"""Samplers, Monte Carlo tails, importance sampling, Pittel comparison."""

import copy
import math
import sys
import types
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from uptail import blocks as B
from uptail import ensembles as E
from uptail import graphs as G
from uptail import homs as H
from uptail import rates as R
from uptail.errors import DomainError, SamplingError

K3 = G.clique(3)
K4 = G.clique(4)


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


def test_spec_constraint_per_kind():
    params = R.BlockModelParams((0.5, 0.5), ((1.0, 0.5), (0.5, 1.0)), 0.3)
    assert E.regular(10, 4).constraint() == ("row_sums", 4)
    assert E.uniform(10, 20).constraint() == ("total_weight", 20)
    assert E.er(10, 0.3).constraint() is None
    assert E.block_model(10, params).constraint() is None
    assert E.planted(np.full((4, 4), 0.5)).constraint() is None


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_tail_estimators_reject_nonfinite_thresholds(t):
    spec = E.er(10, 0.3)
    for mode in ("analytic", "empirical"):
        with pytest.raises(DomainError):
            E.mc_upper_tail(spec, [K3], [t], 20, threshold=mode)
    with pytest.raises(DomainError):
        E.importance_tail(spec, spec.probability_matrix(), [K3], [t], 20)


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


def test_regular_six_three_uniform():
    # the full support of 3-regular graphs on 6 labeled vertices has 70
    # members; one 7000-graph stack spans several doubled trial blocks
    a = E._draw_stack(E.regular(6, 3), 7000, E.rng_stream(17))
    iu = np.triu_indices(6, 1)
    counts = Counter(row.tobytes() for row in a[:, iu[0], iu[1]])
    assert len(counts) == 70
    _stat, pval = stats.chisquare(list(counts.values()))
    assert pval > 0.01


def _wide_keys(size, max_tag):
    """Whether `size` tags up to `max_tag` take 64-bit keys."""
    return size * (size - 1) * 2 ** int(max_tag).bit_length() > 2 ** 32


def _trial(tags, rng):
    """One fixed-count trial drawn on its own: the tags in the order of their
    keys' random parts, or None when two keys tie.  The keys are the low and
    high 32-bit halves of (L + 1) // 2 raw words, or L whole words where
    C(L, 2) * 2^(b - 32) > 1/2, with b = bit_length(max tag)."""
    size = tags.size
    bits = int(tags.max(initial=0)).bit_length()
    if _wide_keys(size, tags.max(initial=0)):
        keys = rng.bit_generator.random_raw(size)
    else:
        words = rng.bit_generator.random_raw((size + 1) // 2)
        keys = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).reshape(-1)[:size]
    random = keys >> bits
    if np.unique(random).size < size:
        return None
    return tags[np.argsort(random)]


def _reference_stack(spec, batch, rng):
    """The draw-by-draw loop: one `random() < q` over the pairs of each
    independent-edge graph; one `_trial` of the pairs per uniform graph,
    repeated on a tie, or one `choice` of m pairs where the pairs' keys would
    be 64 bits; `_trial`s of the stubs per regular graph, until one pairs
    them with no loop or repeated pair."""
    n = spec.n
    iu = np.triu_indices(n, 1)
    out = np.zeros((batch, n, n), dtype=np.int8)
    for i in range(batch):
        if spec.kind in ("er", "block", "planted"):
            edge = rng.random(iu[0].size) < spec.probability_matrix()[iu]
            lo, hi = iu[0][edge], iu[1][edge]
        elif spec.kind == "uniform" and _wide_keys(iu[0].size, iu[0].size - 1):
            order = rng.choice(iu[0].size, spec.m, replace=False)
            lo, hi = iu[0][order], iu[1][order]
        elif spec.kind == "uniform":
            order = None
            while order is None:
                order = _trial(np.arange(iu[0].size), rng)
            lo, hi = iu[0][order[:spec.m]], iu[1][order[:spec.m]]
        else:
            stubs = np.repeat(np.arange(n), spec.d)
            while True:
                order = _trial(stubs, rng)
                if order is None:
                    continue
                u, v = order.reshape(-1, 2).T
                lo, hi = np.minimum(u, v), np.maximum(u, v)
                if (u != v).all() and np.unique(lo * n + hi).size == lo.size:
                    break
        out[i, lo, hi] = 1
        out[i, hi, lo] = 1
    return out


def _boundary_tilt(n):
    """A planted tilt on a 0.3 background with entries 1, 0 and 0.5; 0.5 * 2^53
    is an integer, so there u = q is an exact boundary of the word comparison."""
    x = np.full((n, n), 0.3)
    x[:6, :6] = 1.0
    x[6:20, 6:20] = 0.5
    x[30:, :] = x[:, 30:] = 0.0
    np.fill_diagonal(x, 0.0)
    return x


# independent-edge graphs draw their words in pieces of at most BATCH_CELLS:
# 90 graphs of 780 pairs span two pieces, and one graph of 79,800 pairs spans two.
# Fixed-count graphs draw 32-bit keys up to C(L, 2) * 2^(b - 32) = 1/2: uniform(54, 700)
# (0.49) and regular(500, 3) (0.13) inside it; past it uniform(55, 700) draws one
# `choice` per graph and regular(700, 3) (0.53) 64-bit keys
@pytest.mark.parametrize("spec", [
    E.uniform(40, 300), E.regular(40, 4), E.regular(40, 5), E.regular(5, 2),
    E.uniform(54, 700), E.uniform(55, 700), E.regular(500, 3), E.regular(700, 3), E.er(40, 0.3),
    E.block_model(40, R.BlockModelParams((0.5, 0.5), ((2.0, 1.0), (1.0, 0.5)), 0.2)),
    E.planted(_boundary_tilt(40)), E.er(400, 0.01),
], ids=["uniform-40-300", "regular-40-4", "regular-40-5", "regular-5-2", "uniform-54-700",
        "uniform-55-700", "regular-500-3", "regular-700-3", "er-40", "block-40", "planted-40",
        "er-400"])
@pytest.mark.parametrize("batch", [1, 3, 90])
def test_stack_replays_draw_by_draw_stream(spec, batch):
    rng, ref_rng = E.rng_stream(8, 1), E.rng_stream(8, 1)
    stack = E._draw_stack(spec, batch, rng)
    assert stack.dtype == np.int8
    assert np.array_equal(stack, _reference_stack(spec, batch, ref_rng))
    assert np.array_equal(rng.random(4), ref_rng.random(4))


def test_regular_retry_budget(monkeypatch):
    # at d = 6 nearly every trial fails, so a budget of 5 runs out on the
    # first draw, after exactly 5 trials of the stream; so does a budget of
    # 1000, in the tenth block, the run of rejections counted across blocks
    for cap in (5, 1000):
        monkeypatch.setattr(E, "CONFIG_MODEL_RETRY_CAP", cap)
        rng, ref_rng = E.rng_stream(4), E.rng_stream(4)
        with pytest.raises(SamplingError, match=rf"n=40, d=6 .* in {cap} trials"):
            E._draw_stack(E.regular(40, 6), 3, rng)
        stubs = np.repeat(np.arange(40), 6)
        for _ in range(cap):
            _trial(stubs, ref_rng)
        assert np.array_equal(rng.random(4), ref_rng.random(4))


def test_regular_retry_budget_spans_blocks(monkeypatch):
    # at d = 4 about 2.4% of trials are simple: a budget of 150 runs out
    # after 12 of 90 graphs, in a run of rejections that starts in one block
    # and ends in the next; the stream ends where the draw-by-draw loop's
    # run of 150 rejections does
    monkeypatch.setattr(E, "CONFIG_MODEL_RETRY_CAP", 150)
    rng, ref_rng = E.rng_stream(4), E.rng_stream(4)
    with pytest.raises(SamplingError, match=r"n=40, d=4 .* in 150 trials"):
        E._draw_stack(E.regular(40, 4), 90, rng)
    stubs, run, drawn = np.repeat(np.arange(40), 4), 0, 0
    while run < 150:
        order = _trial(stubs, ref_rng)
        u, v = (order if order is not None else stubs).reshape(-1, 2).T
        simple = order is not None and (u != v).all() and \
            np.unique(np.minimum(u, v) * 40 + np.maximum(u, v)).size == u.size
        run, drawn = 0 if simple else run + 1, drawn + simple
    assert drawn == 12
    assert np.array_equal(rng.random(4), ref_rng.random(4))


class _ZeroedWords:
    """A bit generator giving the words of `inner`, except that the first
    `zeroed` words of its stream are 0, so every key drawn from them ties."""

    def __init__(self, inner, zeroed):
        self.inner, self.zeroed, self.pos = inner, zeroed, 0

    @property
    def state(self):
        return self.inner.state, self.pos

    @state.setter
    def state(self, value):
        self.inner.state, self.pos = value

    def random_raw(self, size):
        words = self.inner.random_raw(size)
        words.reshape(-1)[:max(0, self.zeroed - self.pos)] = 0
        self.pos += words.size
        return words


# words per trial: C(5, 2) = 10 pair keys and 5 * 2 = 10 stub keys, two to a word
@pytest.mark.parametrize("spec, failure", [
    (E.uniform(5, 4), r"uniform sampler for n=5, m=4 drew no untied order in 7 trials"),
    (E.regular(5, 2), r"configuration model for n=5, d=2 drew no simple graph in 7 trials"),
], ids=["uniform", "regular"])
def test_tied_keys_are_rejected(spec, failure, monkeypatch):
    # every key ties: the draw fails after the budget, 7 trials into the stream
    bits = _ZeroedWords(E.rng_stream(6).bit_generator, 1 << 62)
    with monkeypatch.context() as patch, pytest.raises(SamplingError, match=failure):
        patch.setattr(E, "CONFIG_MODEL_RETRY_CAP", 7)
        E._draw_stack(spec, 3, types.SimpleNamespace(bit_generator=bits))
    ref = E.rng_stream(6).bit_generator
    ref.random_raw(7 * 5)
    assert np.array_equal(bits.inner.random_raw(4), ref.random_raw(4))
    # only the first trial ties: the stack starts at the second trial
    bits = _ZeroedWords(E.rng_stream(6).bit_generator, 5)
    stack = E._draw_stack(spec, 3, types.SimpleNamespace(bit_generator=bits))
    ref_rng = E.rng_stream(6)
    ref_rng.bit_generator.random_raw(5)
    assert np.array_equal(stack, _reference_stack(spec, 3, ref_rng))
    assert np.array_equal(bits.inner.random_raw(4), ref_rng.bit_generator.random_raw(4))


@pytest.mark.parametrize("m", [0, 15])
def test_uniform_empty_and_complete_stacks(m):
    # no pair and every pair: a trial's order still takes its words
    rng, ref_rng = E.rng_stream(3), E.rng_stream(3)
    stack = E._draw_stack(E.uniform(6, m), 5, rng)
    assert np.array_equal(stack, np.broadcast_to(m // 15 * (1 - np.eye(6, dtype=np.int8)),
                                                 (5, 6, 6)))
    assert np.array_equal(stack, _reference_stack(E.uniform(6, m), 5, ref_rng))
    assert np.array_equal(rng.random(4), ref_rng.random(4))


def test_large_sparse_uniform_draws_one_choice():
    # C(4000, 2) pair keys would tie even at 64 bits; the graph is one
    # `choice` of m pairs, and the stream ends after it
    n, m = 4000, 20_000
    rng, ref_rng = E.rng_stream(5), E.rng_stream(5)
    g = E.sample(E.uniform(n, m), rng)
    u, v = np.array(g.edges).T
    pairs = u * n - u * (u + 1) // 2 + v - u - 1
    assert g.edge_count == m
    assert np.array_equal(np.sort(pairs), np.sort(ref_rng.choice(n * (n - 1) // 2, m, replace=False)))
    assert np.array_equal(rng.random(4), ref_rng.random(4))


def test_regular_past_64_bit_keys_is_refused():
    # 2^22 stubs tagged with 21 bits expect about one tie among 64-bit keys
    rng, ref_rng = E.rng_stream(5), E.rng_stream(5)
    with pytest.raises(SamplingError, match=r"n=2097152, d=2 .* would tie too often even at 64 bits"):
        E._draw_stack(E.regular(2 ** 21, 2), 1, rng)
    assert np.array_equal(rng.random(4), ref_rng.random(4))


def test_large_regular_stacks_are_simple_and_regular():
    # the sampler checks its drawn stubs, not the (batch, n, n) stack; the
    # stack of regular(1000, 3), on 64-bit keys, is simple and 3-regular
    n, d, batch = 1000, 3, 4
    a = E._draw_stack(E.regular(n, d), batch, E.rng_stream(31))
    assert a.shape == (batch, n, n) and a.dtype == np.int8
    assert ((a == 0) | (a == 1)).all() and (a == a.transpose(0, 2, 1)).all()
    assert not a[:, range(n), range(n)].any()
    assert (a.sum(axis=-1) == d).all()


@pytest.mark.parametrize("stubs, regular", [
    ([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0], True),   # a 6-cycle
    ([0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 2], False),  # vertex 2 holds 3 stubs, vertex 0 one
    ([0, 1, 1, 0, 2, 3, 3, 4, 4, 5, 5, 2], False),  # pair {0, 1} joined twice
])
def test_regular_stub_check_refuses_what_a_degree_sum_refuses(monkeypatch, stubs, regular):
    # stubs handed back unchecked: each wrong stack fails the check on its
    # stubs, as its degree sum would
    monkeypatch.setattr(E, "_shuffled_tags", lambda *_a: np.array([stubs], dtype=np.uint32))
    if regular:
        assert (E._draw_stack(E.regular(6, 2), 1, None).sum(axis=-1) == 2).all()
    else:
        with pytest.raises(AssertionError, match="degree violation"):
            E._draw_stack(E.regular(6, 2), 1, None)


def test_regular_seven_two_triangle_law():
    # the 465 labelled 2-regular graphs on 7 vertices are 360 seven-cycles
    # and 105 triangle-plus-square graphs
    a = E._draw_stack(E.regular(7, 2), 20_000, E.rng_stream(23)).astype(np.int64)
    iu = np.triu_indices(7, 1)
    assert len({row.tobytes() for row in a[:, iu[0], iu[1]]}) == 465
    triangles = int((np.einsum("gij,gjk,gki->g", a, a, a) > 0).sum())
    assert stats.binomtest(triangles, a.shape[0], 105 / 465).pvalue > 0.01


def test_uniform_five_four_uniform():
    # uniform(5, 4) is uniform over the C(10, 4) = 210 edge sets
    a = E._draw_stack(E.uniform(5, 4), 21_000, E.rng_stream(29))
    iu = np.triu_indices(5, 1)
    counts = Counter(row.tobytes() for row in a[:, iu[0], iu[1]])
    assert len(counts) == 210
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


def test_mc_wilson_interval(monkeypatch):
    # one hit in 1000 samples: the Wald interval's lower end would be
    # negative; the Wilson score interval stays above zero.  The 1000 graphs
    # are one chunk, drawn in one part on one CPU, and only its first is a hit
    monkeypatch.setattr(E, "_available_cpus", lambda: 1)
    monkeypatch.setattr(E, "_hom_hits_for_batch",
                        lambda a, *rest: np.arange(a.shape[0]) == 0)
    est = E.mc_upper_tail(E.er(10, 0.1), [K3], [5.0], 1000, seed=3)
    n, z, p = 1000, 1.96, 0.001
    center = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    assert est.point == p and est.ci_low > 0
    assert est.ci_low == pytest.approx(center - half, rel=1e-12)
    assert est.ci_high == pytest.approx(center + half, rel=1e-12)
    assert (est.ci_low, est.ci_high) == pytest.approx((1.765e-4, 5.643e-3), rel=1e-3)


def test_mc_workers_deterministic_reduction():
    a = E.mc_upper_tail(E.er(12, 0.3), [K3], [1.3], 4000, seed=9, workers=3)
    b = E.mc_upper_tail(E.er(12, 0.3), [K3], [1.3], 4000, seed=9, workers=3)
    assert a.point == b.point


def test_progress_per_chunk_or_per_worker(monkeypatch):
    # one worker reports after every chunk, several after each worker in order;
    # the last report is the final estimate
    monkeypatch.setattr(E, "CHUNK", 64)
    spec, n = E.er(12, 0.3), 300
    for workers, dones in ((1, [64, 128, 192, 256, 300]), (3, [100, 200, 300])):
        seen = []
        est = E.mc_upper_tail(spec, [K3], [1.3], n, seed=9, workers=workers,
                              progress=lambda done, val: seen.append((done, val)))
        assert [d for d, _ in seen] == dones and seen[-1][1] == est.point
        seen = []
        est = E.importance_tail(spec, spec.probability_matrix(), [K3], [1.3], n, seed=9,
                                workers=workers,
                                progress=lambda done, val: seen.append((done, val)))
        assert [d for d, _ in seen] == dones and seen[-1][1] == est.point


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
def test_mc_fixed_count_matches_per_sample_loop(spec, thresholds, monkeypatch):
    # the stack path must count the same hits as drawing one graph at a time
    # from each worker's stream and evaluating each with the single-matrix hom;
    # three workers run on the thread pool
    hs, samples, seed = [K3, G.cycle(4)], 300, 3
    p = spec.sparsity()
    monkeypatch.setattr(E, "CHUNK", 64)
    for shares in ([300], [100, 100, 100]):
        est = E.mc_upper_tail(spec, hs, thresholds, samples, seed=seed,
                              workers=len(shares))
        hits = 0
        for w, share in enumerate(shares):
            rng = E.rng_stream(seed, w)
            for _ in range(share):
                a = E.sample(spec, rng).adjacency().astype(float)
                hits += all(H.hom_normalized(h, a, p) >= t for h, t in zip(hs, thresholds))
        assert 0 < hits < samples
        assert est.hits == hits


@pytest.mark.parametrize("spec", [E.er(14, 0.4), E.uniform(14, 36), E.regular(14, 4)],
                         ids=["er", "uniform", "regular"])
def test_joint_hits_count_later_patterns_on_survivors_only(spec, monkeypatch):
    a = E._draw_stack(spec, 300, E.rng_stream(3))
    p = spec.sparsity()
    hs = [K3, G.cycle(4), G.cycle(5)]
    vals = [H.batched_hom_normalized(h, a, p) for h in hs]
    ts = [float(np.quantile(v, 0.4)) for v in vals]
    full = [v >= t for v, t in zip(vals, ts)]
    seen = []

    def counting(h, stack, p):
        seen.append(stack.shape[0])
        return H.batched_hom_normalized(h, stack, p)

    monkeypatch.setattr(E, "batched_hom_normalized", counting)
    hits = E._hom_hits_for_batch(a, hs, ts, p)
    assert np.array_equal(hits, full[0] & full[1] & full[2])
    assert seen == [300, full[0].sum(), (full[0] & full[1]).sum()]
    assert 300 > seen[1] >= seen[2] >= hits.sum() > 0
    # no graph meets the first pattern: the later ones are never counted
    seen.clear()
    hits = E._hom_hits_for_batch(a, hs, [vals[0].max() + 1.0] + ts[1:], p)
    assert not hits.any() and hits.shape == (300,)
    assert seen == [300]


# ---------------------------------------------------------------------------
# importance sampling
# ---------------------------------------------------------------------------

def test_is_tilt_equals_base_reproduces_direct():
    n, p = 18, 0.35
    tilt = np.full((n, n), p)
    np.fill_diagonal(tilt, 0.0)
    for workers in (1, 2):
        direct = E.mc_upper_tail(E.er(n, p), [K3], [1.5], 4000, seed=11, workers=workers)
        weighted = E.importance_tail(E.er(n, p), tilt, [K3], [1.5], 4000, seed=11,
                                     workers=workers)
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


def test_is_progress_survives_extreme_log_weights(monkeypatch):
    # a tilt of 1e-3 against a base of 0.9 puts every log-weight near -1800,
    # where the unshifted weights underflow to zero
    n = 40
    tilt = np.full((n, n), 1e-3)
    np.fill_diagonal(tilt, 0.0)
    seen = []
    monkeypatch.setattr(E, "CHUNK", 100)
    est = E.importance_tail(E.er(n, 0.9), tilt, [G.clique(2)], [0.0], 600, seed=2,
                            progress=lambda done, val: seen.append(val))
    assert len(seen) == 6 and all(math.isfinite(v) for v in seen)
    assert seen[-1] == est.point
    # past +709 the unshifted weights overflow: the estimate caps at 1
    logw, hits = np.array([800.0, -800.0, 0.0]), np.array([True, False, True])
    assert E._weighted_point(logw, hits) == 1.0
    logw, hits = np.array([-700.0, -750.0]), np.array([True, True])
    assert E._weighted_point(logw, hits) == pytest.approx(math.exp(-700) / 2, rel=1e-12)


def test_is_block_base_with_zero_kernel_entries(monkeypatch):
    # base and tilt both 0 across the two blocks: those pairs never carry an
    # edge, and their log-weight pieces must not reach any sample's weight
    spec = E.block_model(12, R.BlockModelParams((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0)), 0.4))
    tilt = spec.probability_matrix()
    direct = E.mc_upper_tail(spec, [K3], [0.1], 200, seed=1)
    weighted = E.importance_tail(spec, tilt, [K3], [0.1], 200, seed=1)
    assert direct.point > 0.5
    assert weighted.point == pytest.approx(direct.point, abs=1e-12)
    # forcing a cross-block edge gives every sample base probability 0
    tilt[0, 11] = tilt[11, 0] = 1.0
    seen = []
    monkeypatch.setattr(E, "CHUNK", 50)
    forced = E.importance_tail(spec, tilt, [K3], [0.1], 200, seed=1,
                               progress=lambda done, val: seen.append(val))
    assert forced.point == 0.0 and forced.hits == 0.0
    assert seen == [0.0] * 4


def test_is_rejects_mass_losing_tilt():
    n, p = 10, 0.3
    tilt = np.full((n, n), p)
    tilt[0, 1] = tilt[1, 0] = 0.0
    np.fill_diagonal(tilt, 0.0)
    with pytest.raises(DomainError):
        E.importance_tail(E.er(n, p), tilt, [K3], [1.2], 100, seed=1)


@pytest.mark.parametrize("entry", [math.nan, math.inf, 1.5, -0.2])
def test_is_rejects_tilt_outside_unit_interval(entry):
    n, p = 10, 0.3
    tilt = np.full((n, n), p)
    tilt[0, 1] = tilt[1, 0] = entry
    np.fill_diagonal(tilt, 0.0)
    with pytest.raises(DomainError, match="finite and in"):
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


# ---------------------------------------------------------------------------
# the inputs both tail estimators share
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h_list,t_list,samples,message", [
    ([], [], 10, "at least one pattern"),
    ([K3, G.clique(4)], [1.0], 10, "one threshold per pattern"),
    ([K3], [1.0, 1.2], 10, "one threshold per pattern"),
    ([K3], [1.0], 0, "num_samples"),
])
def test_tail_estimators_check_inputs_alike(h_list, t_list, samples, message):
    spec = E.er(6, 0.3)
    with pytest.raises(DomainError, match=message):
        E.mc_upper_tail(spec, h_list, t_list, samples)
    with pytest.raises(DomainError, match=message):
        E.importance_tail(spec, spec.probability_matrix(), h_list, t_list, samples)


@pytest.mark.parametrize("entry", [math.nan, 1.5, -0.2])
def test_planted_matrix_checked_once(entry):
    x = np.full((6, 6), 0.3)
    x[0, 1] = x[1, 0] = entry
    with pytest.raises(DomainError, match="finite and in"):
        E.planted(x)
    with pytest.raises(DomainError, match="shape"):
        E.EnsembleSpec("planted", 5, planted=np.full((6, 6), 0.3))


@pytest.mark.parametrize("tilt", [0.5, [0.5] * 6, np.full((5, 6), 0.3), np.full((5, 5), 0.3)])
def test_importance_rejects_a_tilt_of_the_wrong_shape(tilt):
    with pytest.raises(DomainError, match="shape"):
        E.importance_tail(E.er(6, 0.3), tilt, [K3], [1.0], 10)


def test_importance_draws_its_tilt_as_a_planted_ensemble():
    # the importance sampler draws the tilt through the planted ensemble's
    # own stack, so its graphs are the planted ensemble's on the same stream
    n, p = 10, 0.3
    tilt = np.full((n, n), p)
    tilt[:4, :4] = 0.9
    np.fill_diagonal(tilt, 0.0)
    est = E.importance_tail(E.er(n, p), tilt, [K3], [-1.0], 50, seed=4)
    a = E._draw_stack(E.planted(tilt), 50, E.rng_stream(4, 0))
    iu = np.triu_indices(n, 1)
    lw = np.where(a[:, iu[0], iu[1]] > 0, np.log(p / tilt[iu]),
                  np.log((1 - p) / (1 - tilt[iu]))).sum(axis=1)
    assert est.point == pytest.approx(float(np.exp(lw).mean()), rel=1e-12)


def _hub_tilt(spec, hub, blend):
    """A planted hub of `hub` rows of 1, blended with the base."""
    base = spec.probability_matrix()
    planted = base.copy()
    planted[:hub, :] = planted[:, :hub] = 1.0
    tilt = blend * planted + (1.0 - blend) * base
    np.fill_diagonal(tilt, 0.0)
    return tilt


_ER18 = E.er(18, 0.35)
_FORCED = np.full((12, 12), 0.4)
_FORCED[:4, :4] = 1.0
np.fill_diagonal(_FORCED, 0.0)
_PINNED_RUNS = {
    "er-k3": lambda w: E.mc_upper_tail(_ER18, [K3], [1.5], 1000, seed=5, workers=w),
    "er-k3k4": lambda w: E.mc_upper_tail(_ER18, [K3, K4], [1.2, 1.3], 300, seed=6,
                                         workers=w),
    "block-k3": lambda w: E.mc_upper_tail(
        E.block_model(16, R.BlockModelParams((0.5, 0.5), ((2.0, 1.0), (1.0, 0.5)), 0.2)),
        [K3], [1.2], 600, seed=7, workers=w),
    "is-hub": lambda w: E.importance_tail(_ER18, _hub_tilt(_ER18, 2, 0.5), [K3], [1.8],
                                          1000, seed=8, workers=w),
    "is-forced": lambda w: E.importance_tail(E.er(12, 0.4), _FORCED, [K3], [1.3], 600,
                                             seed=9, workers=w),
}
# `to_json()` of each run, at chunks of 64 graphs; a change to how stacks are
# drawn or counted must leave every one of them byte-identical.  The hub tilt
# is the mc-batched benchmark's; the forced tilt has entries of 1, so its
# estimate is a lower bound on P and says so.
_PINNED = {
    ("er-k3", 1): {
        "point": 0.03, "ci_low": 0.021093603189697094, "ci_high": 0.04250368148151,
        "samples": 1000, "hits": 30.0, "method": "direct_mc[analytic]",
        "neg_log_point": 3.506557897319982, "neg_log_ci_low": 3.1581645837089765,
        "neg_log_ci_high": 3.8587854508293953, "zero_hits": False,
        "neg_log_normalized": 0.08415582735842328,
    },
    ("er-k3", 2): {
        "point": 0.022, "ci_low": 0.014572598673771597, "ci_high": 0.03308591637481774,
        "samples": 1000, "hits": 22.0, "method": "direct_mc[analytic]",
        "neg_log_point": 3.816712825623821, "neg_log_ci_low": 3.408647574310096,
        "neg_log_ci_high": 4.228612316835956, "zero_hits": False,
        "neg_log_normalized": 0.09159940746318955,
    },
    ("er-k3k4", 1): {
        "point": 0.07666666666666666, "ci_low": 0.05162723750301175,
        "ci_high": 0.11241086656173778, "samples": 300, "hits": 23.0,
        "method": "direct_mc[analytic]", "neg_log_point": 2.5682882587270512,
        "neg_log_ci_low": 2.185594668599992, "neg_log_ci_high": 2.963705887177457,
        "zero_hits": False, "neg_log_normalized": 0.06163777403284561,
    },
    ("er-k3k4", 2): {
        "point": 0.07666666666666666, "ci_low": 0.05162723750301175,
        "ci_high": 0.11241086656173778, "samples": 300, "hits": 23.0,
        "method": "direct_mc[analytic]", "neg_log_point": 2.5682882587270512,
        "neg_log_ci_low": 2.185594668599992, "neg_log_ci_high": 2.963705887177457,
        "zero_hits": False, "neg_log_normalized": 0.06163777403284561,
    },
    ("block-k3", 1): {
        "point": 0.15666666666666668, "ci_low": 0.12977647813148935,
        "ci_high": 0.187925382753882, "samples": 600, "hits": 94.0,
        "method": "direct_mc[analytic]", "neg_log_point": 1.8536348729461425,
        "neg_log_ci_low": 1.671710295183246, "neg_log_ci_high": 2.0419417073780988,
        "zero_hits": False, "neg_log_normalized": 0.11247344750775447,
    },
    ("block-k3", 2): {
        "point": 0.16833333333333333, "ci_low": 0.14052506464395745,
        "ci_high": 0.2003616844637556, "samples": 600, "hits": 101.0,
        "method": "direct_mc[analytic]", "neg_log_point": 1.7818091383748869,
        "neg_log_ci_low": 1.6076311233422178, "neg_log_ci_high": 1.9623694100766165,
        "zero_hits": False, "neg_log_normalized": 0.10811526019432408,
    },
    ("is-hub", 1): {
        "point": 0.0052196109162649836, "ci_low": 0.0, "ci_high": 0.01231289194883234,
        "samples": 1000, "hits": 2.861998178188273, "method": "importance",
        "neg_log_point": 5.2553324169796065, "neg_log_ci_low": 4.397108439582899,
        "neg_log_ci_high": math.inf, "zero_hits": False,
        "neg_log_normalized": 0.12612563674835658,
    },
    ("is-hub", 2): {
        "point": 0.002015635869870924, "ci_low": 0.0008355131025232533,
        "ci_high": 0.003195758637218595, "samples": 1000, "hits": 7.147127979309597,
        "method": "importance", "neg_log_point": 6.206820565190498,
        "neg_log_ci_low": 5.745930774199434, "neg_log_ci_high": 7.0874645277977475,
        "zero_hits": False, "neg_log_normalized": 0.14896092841589778,
    },
    ("is-forced", 1): {
        "point": 0.001761280000000001, "ci_low": 0.0015988843979025758,
        "ci_high": 0.0019236756020974263, "samples": 600, "hits": 600.0,
        "method": "importance", "neg_log_point": 6.341714461539459,
        "neg_log_ci_low": 6.2535175469326765, "neg_log_ci_high": 6.438449144240038,
        "zero_hits": False, "neg_log_normalized": 0.3003937657879963,
        "notes": ["tilt forces 6 pairs: a lower bound on P"],
    },
    ("is-forced", 2): {
        "point": 0.0017476266666666678, "ci_low": 0.0015853894220931052,
        "ci_high": 0.0019098639112402303, "samples": 600, "hits": 600.0,
        "method": "importance", "neg_log_point": 6.349496601981514,
        "neg_log_ci_low": 6.2607232901216125, "neg_log_ci_high": 6.446925209657966,
        "zero_hits": False, "neg_log_normalized": 0.3007623895233375,
        "notes": ["tilt forces 6 pairs: a lower bound on P"],
    },
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", list(_PINNED_RUNS))
def test_estimates_pinned(name, workers, monkeypatch):
    monkeypatch.setattr(E, "CHUNK", 64)
    assert _PINNED_RUNS[name](workers).to_json() == _PINNED[(name, workers)]


def test_direct_mc_counts_a_graph_that_meets_t_exactly():
    # er(20, 0.2) and t = 3 on K3: hom(K3, G) >= 3 * 20^3 * (1/5)^3 = 192,
    # i.e. at least 32 triangles.  Of the 20,000 draws of stream (9, 0), 24
    # have that many, 2 of them exactly 32, whose batched value 192 / 64.00..01
    # rounds below 3; the single-graph count, which scales each entry by 1/p
    # first, returns 3.0 for them.  Both paths decide every graph alike
    spec, samples = E.er(20, 0.2), 20_000
    assert E.mc_upper_tail(spec, [K3], [3.0], samples, seed=9).hits == 24
    rng, threshold = E.rng_stream(9, 0), E._count_threshold(spec, K3, 3.0)
    ties = 0
    for lo in range(0, samples, E.CHUNK):
        stack = E._draw_stack(spec, min(E.CHUNK, samples - lo), rng)
        batched = E._hom_hits_for_batch(stack, [K3], [threshold], 0.2)
        single = [H.hom_normalized(K3, a.astype(float), 0.2) >= 3.0 for a in stack]
        assert batched.tolist() == single
        ties += int((np.einsum("bij,bjk,bki->b", *[stack.astype(float)] * 3) == 192).sum())
    assert ties == 2


def test_count_thresholds_take_the_decimals_typed():
    # uniform and regular take p as m / C(n, 2) and d / n, a float as the
    # shortest decimal that gives it back; past every count or below zero,
    # no graph or every graph meets the threshold
    n = 20
    for spec, p in ((E.er(n, 0.2), 0.2), (E.uniform(n, 38), 0.2), (E.regular(n, 4), 0.2)):
        assert E._count_threshold(spec, K3, 3.0) == 192 / H.count_scale(K3, n, spec.sparsity())
        assert spec.sparsity() == pytest.approx(p)
    spec = E.er(n, 0.2)
    assert E._count_threshold(spec, K3, 3.0000001) == 193 / H.count_scale(K3, n, 0.2)
    assert E._count_threshold(spec, K3, 1e300) == (n ** 3 + 1) / H.count_scale(K3, n, 0.2)
    assert E._count_threshold(spec, K3, -5.0) == 0.0


def test_a_tilt_that_forces_pairs_says_its_estimate_is_a_lower_bound():
    # a hub tilt with rows of 1 counts only the graphs that hold the hub's
    # 2 * 17 - 1 = 33 pairs; blended with the base it forces none
    forced = E.importance_tail(_ER18, _hub_tilt(_ER18, 2, 1.0), [K3], [1.8], 200, seed=8)
    assert forced.notes == ["tilt forces 33 pairs: a lower bound on P"]
    assert forced.to_json()["notes"] == forced.notes
    blended = E.importance_tail(_ER18, _hub_tilt(_ER18, 2, 0.5), [K3], [1.8], 200, seed=8)
    assert blended.notes == [] and "notes" not in blended.to_json()


def test_regular_neg_log_normalized_uses_two_core():
    pendant = G.Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    spec = E.regular(40, 4)
    a = E.mc_upper_tail(spec, [pendant], [0.6], 200, seed=3)
    b = E.mc_upper_tail(spec, [K3], [0.6], 200, seed=3)
    assert a.to_json() == b.to_json()
    assert a.neg_log_normalized == pytest.approx(a.neg_log_point / R.scale_anp(40, 0.1, 2))


# ---------------------------------------------------------------------------
# the unit of a threshold, and the worker cap
# ---------------------------------------------------------------------------

def test_threshold_unit_is_b_h_under_block_only():
    params = R.BlockModelParams((0.5, 0.5), ((2.0, 0.5), (0.5, 2.0)), 0.2)
    assert E.block_model(30, params).threshold_unit(K3) == R.b_h(K3, params) == 2.375
    for spec in (E.er(12, 0.3), E.uniform(12, 20), E.regular(12, 4),
                 E.planted(np.full((6, 6), 0.3))):
        assert spec.threshold_unit(K3) == 1.0


def test_block_analytic_threshold_in_units_of_b_h_empirical_unchanged(monkeypatch):
    spec = E.block_model(20, R.BlockModelParams((0.5, 0.5), ((2.0, 0.5), (0.5, 2.0)), 0.3))

    def both():
        return [E.mc_upper_tail(spec, [K3], [1.0], 300, seed=4, threshold=mode).point
                for mode in ("analytic", "empirical")]
    analytic, empirical = both()
    monkeypatch.setattr(E.EnsembleSpec, "threshold_unit", lambda self, h: 1.0)
    unitless, empirical_unitless = both()
    assert analytic < unitless  # hom >= 2.375 is rarer than hom >= 1
    assert empirical == empirical_unitless  # the sample mean is that mode's unit


def test_worker_count_capped():
    assert len(E._worker_counts(100, E.MAX_WORKERS)) == E.MAX_WORKERS == 64
    for workers in (0, E.MAX_WORKERS + 1):
        with pytest.raises(DomainError, match="--threads"):
            E._worker_counts(100, workers)


# ---------------------------------------------------------------------------
# seeds, positioned streams, and chunks split across CPUs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [-1, -(1 << 63), 1 << 64, 1.0, "7", None])
def test_seed_outside_64_bits_is_refused(seed):
    with pytest.raises(DomainError, match=r"seed must be an integer in \[0, 2\^64\)"):
        E.rng_stream(seed)


def test_each_64_bit_seed_has_its_own_stream():
    # the key is the seed's exact 64-bit word: no two of these share a stream,
    # and seeds below 2^63 keep the streams they always had
    seeds = [0, 5, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, (1 << 64) - 1]
    words = [tuple(E.rng_stream(s, 3).bit_generator.random_raw(4)) for s in seeds]
    assert len(set(words)) == len(seeds)
    for s in seeds[:3]:
        old = np.random.Philox(key=(s, 3)).random_raw(4)
        assert np.array_equal(E.rng_stream(s, 3).bit_generator.random_raw(4), old)
    assert list(E.rng_stream((1 << 64) - 1, 3).bit_generator.state["state"]["key"]) == \
        [(1 << 64) - 1, 3]


def test_positioned_stream_starts_at_its_word():
    words = E.rng_stream(11, 4).bit_generator.random_raw(5 * 153 + 20)
    offsets = [*range(10), *(4 * k + d for k in (1, 2, 25) for d in (-1, 1)),
               *(g * 153 for g in (1, 2, 5))]
    for word in offsets:
        got = E._stream_at(11, 4, word).bit_generator.random_raw(11)
        assert np.array_equal(got, words[word:word + 11]), word


@pytest.mark.parametrize("spec", [E.uniform(40, 300), E.regular(40, 4), E.regular(20, 3)],
                         ids=["uniform-40-300", "regular-40-4", "regular-20-3"])
def test_sample_takes_any_numpy_generator(spec, monkeypatch):
    # fixed-count draws that accept before their block's last trial, or run
    # out of retries (a budget of 5 at d = 6), reposition the stream through
    # the bit generator's own state and raw words, so any numpy generator whose
    # raw words hold 64 random bits serves, not only Philox
    for make in (np.random.default_rng, lambda s: np.random.Generator(np.random.SFC64(s))):
        rng = make(5)
        for _ in range(30):
            deg = Counter(v for e in E.sample(spec, rng).edges for v in e)
            if spec.kind == "regular":
                assert set(deg.values()) == {spec.d} and len(deg) == spec.n
            else:
                assert sum(deg.values()) == 2 * spec.m
        with monkeypatch.context() as patch, pytest.raises(SamplingError, match="in 5 trials"):
            patch.setattr(E, "CONFIG_MODEL_RETRY_CAP", 5)
            E.sample(E.regular(40, 6), rng)


@pytest.mark.parametrize("q", [0.0, 2.0 ** -53, 0.35, 1 - 2.0 ** -53, 1.0])
def test_pair_bits_are_doubles_below_q(q):
    # a 428 x 153 piece against rng.random() < q on the same stream; at the
    # two ends of [0, 1] the word bound is 0 or wraps, and near them a stream
    # has no such word, so the boundary words are also fed in directly
    qs = np.full(153, q)
    bits = E._pair_bits(qs, 428, E.rng_stream(13))
    want = E.rng_stream(13).random((428, 153)) < q
    assert np.array_equal(bits[:, :-1], want) and not bits[:, -1].any()
    edge = np.array([0, (1 << 11) - 1, 1 << 11, (1 << 64) - (1 << 12), (1 << 64) - (1 << 11) - 1,
                     (1 << 64) - (1 << 11), (1 << 64) - 1], dtype=np.uint64)
    fixed = types.SimpleNamespace(bit_generator=types.SimpleNamespace(
        random_raw=lambda size: np.resize(edge, size)))
    got = E._pair_bits(np.full(edge.size, q), 1, fixed)[0, :-1]
    assert list(got) == [(int(w) >> 11) * 2.0 ** -53 < q for w in edge]


def _split_runs():
    er18 = E.er(18, 0.35)
    block = E.block_model(16, R.BlockModelParams((0.5, 0.5), ((2.0, 1.0), (1.0, 0.5)), 0.2))
    hub = _hub_tilt(er18, 2, 0.5)
    mc, imp = E.mc_upper_tail, E.importance_tail
    return {
        "er-k3": lambda w, on: mc(er18, [K3], [1.5], 1001, seed=5, workers=w, progress=on),
        "er-k3k4": lambda w, on: mc(er18, [K3, K4], [1.2, 1.3], 999, seed=6, workers=w,
                                    progress=on),
        "empirical": lambda w, on: mc(er18, [K3, K4], [1.1, 1.1], 1000, seed=6,
                                      threshold="empirical", workers=w, progress=on),
        "block": lambda w, on: mc(block, [K3], [1.2], 700, seed=7, workers=w, progress=on),
        "planted": lambda w, on: mc(E.planted(hub), [K3], [1.2], 700, seed=7, workers=w,
                                    progress=on),
        "is-hub": lambda w, on: imp(er18, hub, [K3], [1.8], 1001, seed=8, workers=w,
                                    progress=on),
        "is-forced": lambda w, on: imp(E.er(12, 0.4), _FORCED, [K3], [1.3], 777, seed=9,
                                       workers=w, progress=on),
    }


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", list(_split_runs()))
def test_split_chunks_give_the_sequential_estimate(name, workers, monkeypatch):
    # chunks of 128 graphs in parts of at least 5: ragged parts, parts that
    # start inside a Philox block, and short last chunks; 1, 2 and 3 parts
    # per chunk give the same estimate and the same progress reports
    monkeypatch.setattr(E, "CHUNK", 128)
    monkeypatch.setattr(E, "MIN_PART", 5)
    run = _split_runs()[name]
    outs = []
    for parts in (1, 2, 3):
        monkeypatch.setattr(E, "_available_cpus", lambda parts=parts: parts * workers)
        seen = []
        est = run(workers, lambda done, val: seen.append((done, val)))
        outs.append((est.to_json(), seen))
    assert outs[1] == outs[0] and outs[2] == outs[0]
    assert len(outs[0][1]) > 1


def test_split_chunks_under_thread_switching_stress(monkeypatch):
    # three workers of four parts each, on more threads than this host has
    # CPUs, switching threads every microsecond: the parts share no state,
    # so the estimate is the one of three sequential workers
    monkeypatch.setattr(E, "CHUNK", 128)
    monkeypatch.setattr(E, "MIN_PART", 5)
    run = _split_runs()["is-hub"]
    monkeypatch.setattr(E, "_available_cpus", lambda: 3)
    want = run(3, None).to_json()
    monkeypatch.setattr(E, "_available_cpus", lambda: 12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [run(3, None).to_json() for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 3


def test_empirical_means_sum_each_chunk_whole(monkeypatch):
    # the mean itself, not only the hits it thresholds: summing each part and
    # adding the sums would round differently
    monkeypatch.setattr(E, "CHUNK", 128)
    monkeypatch.setattr(E, "MIN_PART", 5)
    spec, hs = E.er(18, 0.35), [K3, K4, G.cycle(5)]
    means = []
    for parts in (1, 2, 3):
        monkeypatch.setattr(E, "_available_cpus", lambda parts=parts: parts)
        means.append(E._empirical_hom_means(spec, hs, 0.35, 1000, 6, 1).tolist())
    assert means[1] == means[0] and means[2] == means[0]


def test_one_chunk_in_flight_and_pools_only_where_cpus_idle(monkeypatch):
    # graphs drawn and not yet reduced, counted around the worker loop's draw
    # and reduce: at most one chunk, whatever the part count
    import concurrent.futures

    live, peaks, pools = [0], [], []
    run_workers = E._run_workers

    def counted(spec, num_samples, seed, workers, draw, reduce, *args, **kwargs):
        def draw_counted(b, rng):
            live[0] += b
            peaks[-1] = max(peaks[-1], live[0])
            return draw(b, rng)

        def reduce_counted(out):
            live[0] -= len(out[0])
            return reduce(out)
        return run_workers(spec, num_samples, seed, workers, draw_counted, reduce_counted,
                           *args, **kwargs)

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(E, "_run_workers", counted)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    spec = E.er(18, 0.35)
    for parts in (1, 2, 3):
        monkeypatch.setattr(E, "_available_cpus", lambda parts=parts: parts)
        peaks.append(0)
        E.mc_upper_tail(spec, [K3], [1.5], 8192, seed=1)
        assert peaks[-1] == E.CHUNK and live[0] == 0
        assert pools == ([parts - 1] if parts > 1 else [])
        pools.clear()
    # no pool where the draw is sequential or the workers fill the CPUs
    monkeypatch.setattr(E, "_available_cpus", lambda: 2)
    E.mc_upper_tail(E.uniform(18, 50), [K3], [1.5], 1200, seed=1)
    E.mc_upper_tail(E.regular(18, 4), [K3], [1.5], 1200, seed=1)
    assert pools == []
    E.mc_upper_tail(spec, [K3], [1.5], 1200, seed=1, workers=2)
    assert pools == [2]


# ---------------------------------------------------------------------------
# importance log-weights over the pairs a tilt moves
# ---------------------------------------------------------------------------

def _all_pairs_log_weights(spec, tilt, bits):
    """The oracle: each graph's log-weight over its pair bits, summed over
    every pair in pair order (in Fortran order, so one pair at a time), with
    the pairs the tilt leaves at its base included."""
    iu = np.triu_indices(spec.n, 1)
    bp, tp = spec.probability_matrix()[iu], E.planted(tilt).probability_matrix()[iu]
    with np.errstate(divide="ignore", invalid="ignore"):
        lw_edge = np.log(bp) - np.log(tp)
        lw_noedge = np.where(tp >= 1.0, 0.0, np.log1p(-bp) - np.log1p(-tp))
    return np.where(np.asfortranarray(bits[:, :-1]), lw_edge, lw_noedge).sum(axis=1)


def _oracle_checked(monkeypatch, spec, tilt, logws):
    """Patch `_run_workers` so that every importance chunk's log-weights are
    checked, bit for bit, against the oracle on the chunk's own pair bits, and
    appended to `logws`."""
    tp = E.planted(tilt).probability_matrix()[np.triu_indices(spec.n, 1)]
    run_workers = E._run_workers

    def checked(tilted, num_samples, seed, workers, draw, *args, **kwargs):
        def draw_checked(b, rng):
            want = _all_pairs_log_weights(spec, tilt, E._pair_bits(tp, b, copy.deepcopy(rng)))
            logw, hits = draw(b, rng)
            assert np.array_equal(logw.view(np.uint64), want.view(np.uint64))
            logws.append(logw)
            return logw, hits
        return run_workers(tilted, num_samples, seed, workers, draw_checked, *args, **kwargs)
    monkeypatch.setattr(E, "_run_workers", checked)


def _block_tilt():
    """A block base with zero kernel entries (tp = bp = 0 across the blocks),
    tilted up inside the first block."""
    spec = E.block_model(12, R.BlockModelParams((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0)), 0.4))
    tilt = spec.probability_matrix()
    tilt[:6, :6] = np.where(tilt[:6, :6] > 0, 0.7, 0.0)
    return spec, tilt


# one ulp off the base on every pair, up and down by turns
_ULP = np.nextafter(_ER18.probability_matrix(), np.add.outer(np.arange(18), np.arange(18)) % 2)
np.fill_diagonal(_ULP, 0.0)
_MOVED_TILTS = {  # (base, tilt, pattern threshold, pairs moved)
    "hub": (_ER18, _hub_tilt(_ER18, 2, 0.5), 1.8, 33),
    "forced": (E.er(12, 0.4), _FORCED, 1.3, 6),
    "base": (_ER18, _ER18.probability_matrix(), 1.5, 0),
    "block-zeros": (*_block_tilt(), 0.1, 15),
    "ulp": (_ER18, _ULP, 1.5, 153),
}


@pytest.mark.parametrize("name", list(_MOVED_TILTS))
def test_is_log_weights_over_moved_pairs_are_the_all_pairs_sum(name, monkeypatch):
    # chunks of 128 graphs in parts of at least 5, with a last chunk of one
    # graph at one worker: every chunk's log-weights are the oracle's bit for
    # bit, and 1 and 2 parts give the same estimate at 1 and 2 workers
    spec, tilt, t, _moved = _MOVED_TILTS[name]
    monkeypatch.setattr(E, "CHUNK", 128)
    monkeypatch.setattr(E, "MIN_PART", 5)
    direct = E.mc_upper_tail(spec, [K3], [t], 641, seed=3)  # before the patch below
    logws = []
    _oracle_checked(monkeypatch, spec, tilt, logws)
    for workers in (1, 2):
        outs = []
        for parts in (1, 2):
            monkeypatch.setattr(E, "_available_cpus", lambda parts=parts: parts * workers)
            outs.append(E.importance_tail(spec, tilt, [K3], [t], 641, seed=3,
                                          workers=workers).to_json())
        assert outs[1] == outs[0]
    assert sum(w.size for w in logws) == 4 * 641
    if name == "base":  # no pair moves: every weight is 1, as in direct MC
        assert not np.concatenate(logws).any()
        assert E.importance_tail(spec, tilt, [K3], [t], 641, seed=3).point == direct.point


@pytest.mark.parametrize("name", list(_MOVED_TILTS))
def test_is_tilts_move_the_pairs_they_change(name):
    # the pairs whose tilt differs from the base, as the sampler reads both:
    # the mc-batched hub tilt (2 rows at blend 0.5, n = 18) moves 33 of 153
    spec, tilt, _t, moved = _MOVED_TILTS[name]
    iu = np.triu_indices(spec.n, 1)
    tp = E.planted(tilt).probability_matrix()[iu]
    assert np.count_nonzero(tp != spec.probability_matrix()[iu]) == moved

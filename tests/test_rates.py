"""Rate constants, entropies, and supporting scalar formulas."""

import math

import numpy as np
import pytest

from uptail import graphs as G
from uptail import rates as R
from uptail.errors import DomainError

K3 = G.clique(3)
K12 = G.star(2)
DIAMOND = G.Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_ip_examples():
    assert R.entropy_ip(0.3, 0.3) == 0.0
    assert R.entropy_ip(1.0, 0.1) == pytest.approx(math.log(10), rel=1e-14)
    assert R.entropy_ip(0.0, 0.5) == pytest.approx(math.log(2), rel=1e-14)
    with pytest.raises(DomainError):
        R.entropy_ip(0.5, 0.0)


def test_entropy_nonneg_and_zero_iff_p():
    for p in (0.05, 0.3, 0.7):
        for x in np.linspace(0, 1, 101):
            v = R.entropy_ip(float(x), p)
            if abs(x - p) < 1e-12:
                assert v == pytest.approx(0.0, abs=1e-12)
            else:
                assert v > 0


def test_entropy_convex_midpoint():
    grid = np.linspace(0.0, 1.0, 51)
    for p in (0.1, 0.4):
        for a in grid:
            for b in grid:
                mid = R.entropy_ip((a + b) / 2, p)
                avg = 0.5 * (R.entropy_ip(float(a), p) + R.entropy_ip(float(b), p))
                assert mid <= avg + 1e-12


def test_entropy_symmetry_inequality():
    # I_p(p - x) >= I_p(p + x) for 0 <= x <= p <= 1/2
    for p in np.linspace(0.01, 0.5, 100):
        for x in np.linspace(0.0, p, 100):
            lo = R.entropy_ip(max(float(p - x), 0.0), float(p))
            hi = R.entropy_ip(min(float(p + x), 1.0), float(p))
            assert lo >= hi - 1e-13


def test_entropy_matrix_examples():
    n, p = 6, 0.2
    x = np.full((n, n), p)
    np.fill_diagonal(x, 0.0)
    assert R.entropy_matrix(x, p) == pytest.approx(0.0, abs=1e-14)

    ones = 1.0 - np.eye(n)
    assert R.entropy_matrix(ones, p) == pytest.approx(
        n * (n - 1) * math.log(1 / p), rel=1e-13
    )

    x2 = np.zeros((2, 2))
    x2[0, 1] = x2[1, 0] = 0.3
    assert R.entropy_matrix(x2, 0.1) == pytest.approx(
        2 * R.entropy_ip(0.3, 0.1), rel=1e-13
    )


def test_entropy_matrix_base_matrix():
    x = np.zeros((3, 3))
    x[0, 1] = x[1, 0] = 0.4
    pm = np.full((3, 3), 0.2)
    pm[0, 1] = pm[1, 0] = 0.4  # pair (0,1) sits at its own base: zero entropy
    expect = 4 * R.entropy_ip(0.0, 0.2)
    assert R.entropy_matrix(x, pm) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(DomainError):
        R.entropy_matrix(x, np.full((4, 4), 0.2))


def test_scale_anp():
    assert R.scale_anp(10, 0.1, 2) == pytest.approx(math.log(10), rel=1e-14)
    assert R.scale_anp(100, 0.5, 3) == pytest.approx(10000 * 0.125 * math.log(2), rel=1e-14)
    # p -> 1 limit: log(1/p) kills the scale
    assert R.scale_anp(50, 0.999999, 2) < 0.01


# ---------------------------------------------------------------------------
# theta root
# ---------------------------------------------------------------------------

def test_theta_root_examples():
    assert R.theta_root(K3, 1.0) == pytest.approx(1 / 3, abs=1e-12)
    assert R.theta_root(K12, 0.7) == pytest.approx(0.7, abs=1e-12)
    d = 2.0
    assert R.theta_root(G.cycle(4), d) == pytest.approx(
        (-4 + math.sqrt(16 + 8 * d)) / 4, abs=1e-12
    )


def test_theta_root_random_deltas():
    rng = np.random.default_rng(10)
    for h in (K3, G.cycle(4), G.cycle(5), G.clique(4), K12):
        poly = G.independence_polynomial(G.h_star(h))
        for _ in range(40):
            delta = float(rng.uniform(1e-3, 100.0))
            th = R.theta_root(h, delta)
            assert poly(th) == pytest.approx(1 + delta, abs=1e-10)


def _theta_root_200_steps(poly, delta):
    """The bisection as it ran before it stopped early: always 200 steps."""
    if delta <= 0:
        return 0.0
    target = 1.0 + delta
    lo, hi = 0.0, 1.0
    while poly(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if poly(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def test_theta_root_stops_early_at_the_same_root(monkeypatch):
    # once the midpoint rounds to an end, no further step moves either end,
    # so stopping there returns the 200-step root bit for bit; nor does a
    # bracket narrowed by false-position steps first move it (polynomials of
    # degree 1 to 4 here)
    deltas = [0.0] + list(np.logspace(-6, 3, 37)) + [1.0, 2.5, 10.0]
    for h in (K3, G.clique(4), G.cycle(5), G.star(3), G.cycle(8), G.complete_bipartite(3, 3)):
        poly = G.independence_polynomial(G.h_star(h))
        for delta in deltas:
            evaluations = []
            root = R.theta_root_from_poly(lambda x: evaluations.append(x) or poly(x), delta)
            assert root == _theta_root_200_steps(poly, delta), (h, delta)
            assert len(evaluations) <= 80
    hs, ds = [K3, K12], [10.0, 1.0]
    early = R.c_joint(hs, ds)
    monkeypatch.setattr(R, "theta_root_from_poly", _theta_root_200_steps)
    assert R.c_joint(hs, ds) == early


# ---------------------------------------------------------------------------
# c_er / c_reg
# ---------------------------------------------------------------------------

def test_c_er_examples():
    r = R.c_er(K3, 1.0)
    assert r.constant == pytest.approx(1 / 3, abs=1e-12) and r.branch == "hub"
    tie = R.c_er(K3, 27 / 8)
    assert tie.constant == pytest.approx(9 / 8, abs=1e-12) and tie.branch == "hub"
    r = R.c_er(K12, 0.7)
    assert r.constant == pytest.approx(0.7, abs=1e-12) and r.branch == "hub"


def test_c_er_branch_switch_at_threshold():
    assert R.c_er(K3, 27 / 8 - 1e-6).branch == "hub"
    assert R.c_er(K3, 27 / 8 + 1e-6).branch == "clique"


def test_c_er_delta_zero():
    r = R.c_er(K3, 0.0)
    assert r.constant == 0.0 and r.branch == "hub"


def test_c_reg_examples():
    r = R.c_reg(G.cycle(3), 2.5)
    assert r.constant == pytest.approx(0.5 * (2 + 0.5 ** (2 / 3)), abs=1e-12)
    assert r.branch == "multi_clique" and r.witness == (2.0, 0.5)
    r = R.c_reg(G.clique(4), 1.0)
    assert r.constant == pytest.approx(0.5, abs=1e-12) and r.branch == "clique"
    r = R.c_reg(DIAMOND, 1.0)
    assert math.isinf(r.constant) and r.branch == "infinite"
    with pytest.raises(DomainError):
        R.c_reg(G.path(4), 1.0)  # degree-1 vertices: caller must take the 2-core


# ---------------------------------------------------------------------------
# joint constant
# ---------------------------------------------------------------------------

def _joint_grid_oracle(h_list, deltas, lim=5.0, res=1e-3):
    """Brute-force scan of the hub level x over [0, lim] at the given
    resolution, with the minimal feasible clique level y solved exactly per
    x (the constraints are monotone in y).  Independent of the refinement
    logic inside c_joint."""
    polys = [G.independence_polynomial(G.h_star(h)) for h in h_list]
    regs = [h.is_regular() for h in h_list]
    vs = [h.vertex_count for h in h_list]
    xs = np.arange(0.0, lim + res / 2, res)
    best = math.inf
    best_xy = None
    for x in xs:
        vals = [poly(float(x)) for poly in polys]
        ymin = 0.0
        feasible = True
        for val, reg, v, dl in zip(vals, regs, vs, deltas):
            gap = 1 + dl - val
            if gap <= 0:
                continue
            if not reg:
                feasible = False
                break
            ymin = max(ymin, gap ** (1.0 / v))
        if not feasible or ymin > lim:
            continue
        obj = x + 0.5 * ymin * ymin
        if obj < best:
            best, best_xy = obj, (float(x), float(ymin))
    return best, best_xy


def test_c_joint_mixed_optimum_example():
    rep = R.c_joint([K3, K12], [10.0, 1.0])
    exact = 1 + 0.5 * 7 ** (2 / 3)
    oracle, xy = _joint_grid_oracle([K3, K12], [10.0, 1.0])
    assert rep.constant == pytest.approx(exact, abs=1e-9)
    assert rep.constant == pytest.approx(oracle, abs=1e-4)
    assert rep.branch == "mixed"
    assert rep.witness[0] == pytest.approx(1.0, abs=1e-6)
    assert rep.witness[1] == pytest.approx(7 ** (1 / 3), abs=1e-6)


def test_c_joint_hub_dominance():
    rep = R.c_joint([K3, K12], [3.0, 0.5])
    assert rep.constant == pytest.approx(1.0, abs=1e-9)
    assert rep.branch == "hub"
    assert rep.witness == pytest.approx((1.0, 0.0), abs=1e-9)


@pytest.mark.parametrize("h", [K3, G.cycle(4), G.cycle(5), G.clique(4)],
                         ids=["K3", "C4", "C5", "K4"])
@pytest.mark.parametrize("delta", [0.1, 1.0, 5.0, 10.0])
def test_c_joint_single_matches_c_er(h, delta):
    assert R.c_joint([h], [delta]).constant == pytest.approx(
        R.c_er(h, delta).constant, abs=1e-6
    )


def _joint_feasibility_residuals(h_list, delta_list, x, y):
    """Constraint slacks of `c_joint`'s problem at (x, y); all must be >= -tol
    for feasibility."""
    return [poly(x) + (y ** v if regular else 0.0) - (1.0 + delta)
            for poly, v, regular, delta in R._joint_setup(h_list, delta_list)]


def test_c_joint_witness_feasible():
    for hs, ds in (
        ([K3, K12], [10.0, 1.0]),
        ([K3, K12], [3.0, 0.5]),
        ([K3, G.cycle(4)], [2.0, 3.0]),
        ([G.cycle(5)], [4.2]),
    ):
        rep = R.c_joint(hs, ds)
        slacks = _joint_feasibility_residuals(hs, ds, rep.witness[0], rep.witness[1])
        assert all(s >= -1e-9 for s in slacks)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_nonfinite_delta_rejected(delta):
    for fn in (lambda: R.theta_root(K3, delta), lambda: R.c_er(K3, delta),
               lambda: R.c_reg(K3, delta), lambda: R.c_reg(G.clique(4), delta),
               lambda: R.c_joint([K3, K12], [delta, 1.0])):
        with pytest.raises(DomainError):
            fn()


def test_c_joint_rejects_mixed_degrees():
    with pytest.raises(DomainError):
        R.c_joint([K3, G.clique(4)], [1.0, 1.0])


# ---------------------------------------------------------------------------
# block-model constant
# ---------------------------------------------------------------------------

def _params(alpha, kernel, p=0.2):
    return R.BlockModelParams(tuple(alpha), tuple(tuple(r) for r in kernel), p)


def test_b_h_examples():
    assert R.b_h(K3, _params([1.0], [[1.0]])) == pytest.approx(1.0, abs=1e-14)
    prm = _params([0.3, 0.2, 0.5], [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    assert R.b_h(G.cycle(4), prm) == pytest.approx(1.0, abs=1e-12)
    prm = _params([0.5, 0.5], [[2.0, 1.0], [1.0, 0.5]])
    k2 = G.clique(2)
    expect = 0.25 * 2.0 + 2 * 0.25 * 1.0 + 0.25 * 0.5
    assert R.b_h(k2, prm) == pytest.approx(expect, abs=1e-14)


def test_b_h_relabel_invariance():
    prm = _params([0.3, 0.7], [[2.0, 0.5], [0.5, 1.5]])
    prm_swapped = _params([0.7, 0.3], [[1.5, 0.5], [0.5, 2.0]])
    for h in (K3, G.cycle(4), K12):
        assert R.b_h(h, prm) == pytest.approx(R.b_h(h, prm_swapped), rel=1e-13)


def test_block_params_validation():
    with pytest.raises(DomainError):
        _params([0.5, 0.6], [[1, 1], [1, 1]])
    with pytest.raises(DomainError):
        _params([0.5, 0.5], [[1, 2], [1, 1]])
    with pytest.raises(DomainError):
        _params([0.5, 0.5], [[6.0, 1], [1, 1]], p=0.2)


# ---------------------------------------------------------------------------
# regular-count formula and floor bound
# ---------------------------------------------------------------------------

def two_regular_count(n):
    """Exact labeled 2-regular graph count: partitions into cycles >= 3."""
    from math import comb, factorial

    memo = {0: 1}

    def a(k):
        if k in memo:
            return memo[k]
        total = 0
        for c in range(3, k + 1):
            total += comb(k - 1, c - 1) * factorial(c - 1) // 2 * a(k - c)
        memo[k] = total
        return total

    return a(n)


def test_two_regular_oracle_values():
    assert two_regular_count(3) == 1
    assert two_regular_count(4) == 3
    assert two_regular_count(5) == 12
    assert two_regular_count(6) == 70


def test_log_gn_regular_accuracy():
    exact = two_regular_count(4)
    approx = math.exp(R.log_gn_regular(4, 2))
    assert abs(approx - exact) / exact < 0.15
    exact8 = two_regular_count(8)
    assert abs(math.exp(R.log_gn_regular(8, 2)) - exact8) / exact8 < 0.10


def test_log_gn_parity_error():
    with pytest.raises(DomainError):
        R.log_gn_regular(5, 3)


def test_lemma_floor_bound_examples():
    f1, fb, bound = R.lemma_floor_bound([1, 1, 0.5], 2 / 3)
    assert f1 == pytest.approx(2.5)
    assert fb == pytest.approx(2 + 0.5 ** (2 / 3), rel=1e-13)
    assert fb == pytest.approx(bound, rel=1e-13)

    f1, fb, bound = R.lemma_floor_bound([0.5, 0.5], 0.5)
    assert (f1, bound) == (1.0, 1.0) and fb == pytest.approx(math.sqrt(2), rel=1e-13)

    f1, fb, bound = R.lemma_floor_bound([1.0], 0.3)
    assert fb == bound == 1.0


def test_lemma_floor_bound_random():
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        n = int(rng.integers(1, 51))
        beta = float(rng.uniform(0.01, 0.99))
        xs = rng.uniform(0.0, 1.0, size=n)
        _f1, fb, bound = R.lemma_floor_bound(xs, beta)
        assert fb >= bound - 1e-9


PENDANT_TRIANGLE = G.Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))


def test_rate_scale_takes_the_two_core_under_regular():
    assert R.scale_pattern(PENDANT_TRIANGLE, regular=True) == K3
    assert R.scale_pattern(PENDANT_TRIANGLE, regular=False) is PENDANT_TRIANGLE
    assert R.rate_scale(1000, 0.01, [PENDANT_TRIANGLE], regular=True) == R.scale_anp(1000, 0.01, 2)
    assert R.rate_scale(1000, 0.01, [PENDANT_TRIANGLE]) == R.scale_anp(1000, 0.01, 3)
    # the smallest Delta of the set
    assert R.rate_scale(50, 0.2, [G.clique(4), K3]) == R.scale_anp(50, 0.2, 2)


def test_rate_scale_none_below_delta_2_or_outside_unit_p():
    assert R.rate_scale(50, 0.2, [G.clique(2)]) is None
    assert R.rate_scale(50, 0.2, [G.path(4)], regular=True) is None   # empty 2-core
    assert R.rate_scale(50, 0.2, []) is None
    for p in (0.0, 1.0, math.nan):
        assert R.rate_scale(50, p, [K3]) is None
    # a floor raises a small Delta instead
    assert R.rate_scale(50, 0.2, [G.clique(2)], delta_floor=2) == R.scale_anp(50, 0.2, 2)
    assert R.rate_scale(50, 0.2, [G.clique(4)], delta_floor=2) == R.scale_anp(50, 0.2, 3)


def test_joint_residuals_follow_caller_order():
    hs, ds = [G.path(3), K3], [1.0, 10.0]
    slacks = _joint_feasibility_residuals(hs, ds, 1.0, 2.0)
    assert slacks == _joint_feasibility_residuals(hs[::-1], ds[::-1], 1.0, 2.0)[::-1]
    p3 = G.independence_polynomial(G.h_star(G.path(3)))
    assert slacks[0] == p3(1.0) - 2.0
    assert R.c_joint(hs, ds) == R.c_joint(hs[::-1], ds[::-1])
    assert R.c_joint(hs, ds).to_json() == {
        "constant": 2.8296528550114854, "branch": "mixed",
        "witness_x": 0.9999999999999999, "witness_y": 1.912931182772389}

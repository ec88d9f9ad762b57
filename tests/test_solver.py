"""Variational solver: projections, feasibility contracts, nesting, trends."""

import dataclasses
import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from uptail import blocks as B
from uptail import ensembles as E
from uptail import graphs as G
from uptail import homs as H
from uptail import rates as R
from uptail import solver as S
from uptail.errors import DomainError, ResourceError

K3 = G.clique(3)


def _solve(h, t, n, p, ensemble=None, seeds=()):
    prob = S.SolveProblem(targets=((h, t),), n=n, base=p, ensemble=ensemble,
                          seeds=tuple(seeds))
    return S.solve_phi(prob)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_project_fixed_point():
    n = 15
    x = np.full((n, n), 0.25)
    np.fill_diagonal(x, 0.0)
    y = S.project_ensemble(x.copy(), ("row_sums", 0.25 * (n - 1)))
    assert np.abs(y - x).max() <= 1e-12
    y = S.project_ensemble(x.copy(), ("total_weight", 0.25 * n * (n - 1) / 2))
    assert np.abs(y - x).max() <= 1e-12


def test_project_total_weight_from_ones():
    n, m = 12, 30
    x = 1.0 - np.eye(n)
    y = S.project_ensemble(x, ("total_weight", m))
    off = ~np.eye(n, dtype=bool)
    assert np.allclose(y[off], m / (n * (n - 1) / 2))
    assert abs(np.triu(y, 1).sum() - m) <= 1e-9


def test_project_row_sums_from_zero():
    n, d = 14, 4
    y = S.project_ensemble(np.zeros((n, n)), ("row_sums", d))
    off = ~np.eye(n, dtype=bool)
    assert np.allclose(y[off], d / (n - 1))
    assert np.abs(y.sum(axis=1) - d).max() <= 1e-9


def test_project_total_weight_random_kkt():
    # optimal shift-and-clip: all unclipped entries move by one common shift
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(6, 20))
        x = rng.random((n, n)) * 1.6 - 0.3
        x = np.triu(x, 1)
        x = x + x.T
        m = float(rng.uniform(1, n * (n - 1) / 2 - 1))
        y = S.project_ensemble(x, ("total_weight", m))
        assert abs(np.triu(y, 1).sum() - m) <= 1e-9
        iu = np.triu_indices(n, 1)
        xb = np.clip(x[iu], 0.0, 1.0)
        interior = (y[iu] > 1e-7) & (y[iu] < 1 - 1e-7)
        if interior.sum() > 1:
            shifts = y[iu][interior] - xb[interior]
            assert shifts.max() - shifts.min() <= 1e-6


def test_project_row_sums_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(8, 25))
        d = float(rng.uniform(1.0, n - 2))
        x = rng.random((n, n)) * 2 - 0.5
        y = S.project_ensemble(x, ("row_sums", d))
        assert y.min() >= -1e-12 and y.max() <= 1 + 1e-12
        assert np.abs(y.sum(axis=1) - d).max() <= 1e-9
        assert np.allclose(y, y.T) and np.allclose(np.diag(y), 0.0)


def test_project_ensemble_symmetrizes_before_it_clips():
    # the symmetric matrices' box is projected onto exactly by clipping the
    # symmetrized matrix: (1.6 + 0.2) / 2 = 0.9, where clipping first would
    # give (1 + 0.2) / 2 = 0.6
    x = np.array([[0.0, 1.6, -0.4], [0.2, 0.7, 0.5], [0.6, 0.9, 0.0]])
    expect = np.clip(0.5 * (x + x.T), 0.0, 1.0)
    np.fill_diagonal(expect, 0.0)
    assert np.array_equal(S.project_ensemble(x, None), expect)
    assert S.project_ensemble(x, None)[0, 1] == 0.9


def test_row_sums_of_one_vertex_blocks_stay_accurate_at_n_1000():
    # 999 terms per row sum, and 1000 rows in the affine step's total, are
    # summed in runs: each row sum, and each exact row sum after the affine
    # step, within 1.5e-13 of its exact value (in one run each they were off
    # by up to 3e-13 and 4e-13 here, and by 1.5e-11 at a point of an AL run)
    n, d = 1000, 100
    a, b, pairs = B.block_pairs((1,) * n)
    y = np.random.default_rng(n).uniform(0.0, 0.2, (1, len(a)))
    sums = S._RowSums(n, np.ones((1, n)), a[None], b[None], y > -1)

    def exact_row_sums(values):
        x = np.zeros((n, n))
        x[a, b] = values[0]
        return np.array([math.fsum(row) for row in x + x.T])

    assert np.abs(sums(y)[0] - exact_row_sums(y)).max() <= 1.5e-13
    assert np.abs(exact_row_sums(sums.affine(y, d)) - d).max() <= 1.5e-13


def test_row_sums_of_a_row_are_its_bits_alone_in_any_stack():
    # a padded stack of rows of 70 two-vertex blocks, 100 blocks of which 60
    # have one vertex, 140 one-vertex blocks, and 8 and 2 blocks: each row's
    # sums, deviation and affine step are the bits it takes alone, and its
    # sums lie within 1e-13 of the exact row sums of its blow-up
    n, d = 140, 20.0
    sizes = [(2,) * 70, (1,) * 60 + (2,) * 40, (1,) * 4 + (34,) * 4, (1,) * 140, (70, 70)]
    packs = [B.block_pairs(s) for s in sizes]
    a_rows, b_rows, pair_rows = (S._padded(x) for x in zip(*packs))
    live = pair_rows > 0
    y = np.where(live, np.random.default_rng(14).uniform(0.0, 0.3, live.shape), 0.0)
    stack = S._RowSums(n, S._padded(sizes), a_rows, b_rows, live)
    sums, deviation, affine = stack(y), stack.deviation(y, d), stack.affine(y, d)
    for row, (size, (a, b, pairs)) in enumerate(zip(sizes, packs)):
        k, width = len(size), len(pairs)
        alone = S._RowSums(n, np.array([size]), a[None], b[None], live[row:row + 1, :width])
        one = y[row:row + 1, :width]
        assert _same_bits(alone(one)[0], sums[row, :k])
        assert _same_bits(alone.deviation(one, d), deviation[row:row + 1])
        assert _same_bits(alone.affine(one, d)[0], affine[row, :width])
        z = np.zeros((k, k))
        z[a, b] = z[b, a] = one[0]
        exact = np.array([math.fsum(r) for r in B.blow_up(size, z)])
        assert np.abs(np.repeat(sums[row, :k], size) - exact).max() <= 1e-13


# ---------------------------------------------------------------------------
# solve contracts
# ---------------------------------------------------------------------------

def test_trivial_target_constant_base():
    res = _solve(K3, 1.0, 40, 0.3)
    assert res.value == 0.0
    assert res.seed_provenance == "constant"
    # documented O(1/n) slack at t = 1
    assert res.residuals[0] <= 3.0 / 40 + 1e-9


def test_degenerate_target_below_one():
    res = _solve(K3, 0.5, 30, 0.2)
    assert res.value == 0.0 and res.notes


def test_feasibility_and_seed_dominance():
    res = _solve(K3, 1.3, 60, 0.3)
    assert res.residuals[0] <= 1e-6
    assert res.ensemble_residual == 0.0
    # never worse than the best feasible seed it was given
    seeds = S.default_seeds(
        S.SolveProblem(targets=((K3, 1.3),), n=60, base=0.3)
    )
    p = 0.3
    from uptail.homs import hom_normalized

    mats = [np.asarray(seed, dtype=float) for _name, seed in seeds]
    feas_vals = [
        0.5 * R.entropy_matrix(x, p)
        for x in mats
        if hom_normalized(K3, x, p) >= 1.3 - 1e-6
    ]
    assert feas_vals, "seed ladder must contain a feasible start"
    assert res.value <= min(feas_vals) * (1 + 1e-4)


def test_monotone_in_target():
    v1 = _solve(K3, 1.2, 50, 0.3).value
    v2 = _solve(K3, 1.5, 50, 0.3).value
    assert v2 >= v1 - 1e-4 * (1 + v1)


def test_nesting_of_ensembles(monkeypatch):
    n, p = 60, 0.3
    d = 18
    m = n * d // 2
    spaces = _run_on(monkeypatch, S._BlockSpace)
    res_d = _solve(K3, 1.3, n, p, ensemble=("row_sums", d))
    assert spaces == [S._BlockSpace]
    spaces.clear()
    res_m = _solve(K3, 1.3, n, p, ensemble=("total_weight", m), seeds=[np.asarray(res_d.x)])
    # the ladder runs as one stack of block values, the matrix seed alone, on
    # one-vertex blocks
    assert spaces == [S._BlockSpace, S._BlockSpace]
    res_0 = _solve(K3, 1.3, n, p, seeds=[res_m.x])
    tol_m = 1e-4 * (1 + res_m.value)
    tol_0 = 1e-4 * (1 + res_0.value)
    assert res_d.value >= res_m.value - tol_m
    assert res_m.value >= res_0.value - tol_0


def test_user_seed_provenance():
    n, p = 40, 0.3
    x = np.full((n, n), 0.9)
    np.fill_diagonal(x, 0.0)
    res = _solve(K3, 1.2, n, p, seeds=[x])
    assert res.residuals[0] <= 1e-6


def test_blockspec_user_seed_runs_on_block_values(monkeypatch):
    # a BlockSpec seed runs on its k x k values, and wins as its matrix does
    # on n one-vertex blocks
    n, p = 40, 0.3
    spec = B.BlockSpec((5, 35), ((Fraction(1), Fraction(3, 10)), (Fraction(3, 10), Fraction(3, 10))))
    spaces = _run_on(monkeypatch, S._BlockSpace)
    res = _solve(K3, 1.2, n, p, seeds=[spec])
    assert spaces[-1] is S._BlockSpace
    sizes = _record_calls(monkeypatch, "_al_stack", seen=lambda _pr, sp, *_a: sp.sizes)
    dense = _solve(K3, 1.2, n, p, seeds=[spec.materialize()])
    assert spaces[-1] is S._BlockSpace and sizes[-1] == ((1,) * n,)
    assert res.value == pytest.approx(dense.value, rel=1e-9)
    assert res.seed_provenance == dense.seed_provenance
    # under a block-model base it is refined onto the base's blocks, cut at
    # 20, and runs on block values in the one stack; the target is past the
    # base's own count, 1.759, which would otherwise be the witness
    params = R.BlockModelParams((0.5, 0.5), ((2.0, 1.0), (1.0, 0.5)), p)
    spaces.clear()
    S.solve_phi(S.SolveProblem(((K3, 2.0),), n=n, base=params, seeds=(spec,)))
    assert spaces == [S._BlockSpace] and sizes[-1][-1] == (5, 15, 20)


# a matrix seed per pattern and ensemble at n = 30: a default seed of that
# problem, materialized and moved off its blocks by symmetric noise, which
# ends feasible
MATRIX_SEEDS = [(h, ensemble, name) for h, names in (
    (K3, ("constant", "plant_both_delta_x2", "cycle_blocks_delta_x2")),
    (G.cycle(5), ("constant", "plant_clique_delta_x3", "cycle_blocks_delta_x3")),
    (G.clique(4), ("constant", "plant_clique_delta_x8", "whole_cliques_delta_x1")))
    for ensemble, name in zip((None, ("total_weight", 130), ("row_sums", 9)), names)]


@pytest.mark.parametrize("h, ensemble, name", MATRIX_SEEDS)
def test_matrix_seed_runs_on_one_vertex_blocks_as_on_its_matrix(h, ensemble, name):
    # a matrix seed is the BlockSpec of n one-vertex blocks: its run takes
    # the n x n oracle's iterations and ends at its value and point
    n = 30
    base = 130 / 435 if ensemble and ensemble[0] == "total_weight" else 0.3
    prob = S.SolveProblem(((h, 1.3),), n=n, base=base, ensemble=ensemble)
    noise = np.random.default_rng(11).normal(0.0, 0.02, (n, n))
    x = np.clip(np.asarray(dict(S.default_seeds(prob))[name]) + noise + noise.T, 0.0, 1.0)
    np.fill_diagonal(x, 0.0)
    space, dense = S._BlockSpace(prob, [None]), _DenseSpace(prob)
    assert space.sizes == ((1,) * n,) and space.terms is None
    (value, point, iterations), (oracle, oracle_point, oracle_iterations) = (
        S._al_stack(prob, sp, sp.pack([x])) for sp in (space, dense))
    assert np.isfinite(oracle[0]) and iterations[0] == oracle_iterations[0]
    assert value[0] == pytest.approx(oracle[0], rel=1e-9)
    witness = space.witness(point, 0)
    assert isinstance(witness, np.ndarray) and np.abs(witness - oracle_point[0]).max() <= 1e-9


def test_seed_past_the_compile_cap_keeps_its_blocks(monkeypatch):
    # 10 blocks put C5's placements past COMPILE_CAP (9 already do, 8 do
    # not): the seed runs alone on its own block values, its hom values from
    # the DP on its blow-up, and nothing compiles the expansion on 10 blocks,
    # not even the winner's measure
    n, c5 = 40, G.cycle(5)
    rng = np.random.default_rng(4)
    values = np.triu(rng.integers(1, 9, (10, 10)) / 10)
    values = [[Fraction(v) for v in row] for row in values + np.triu(values, 1).T]
    spec = B.BlockSpec((4,) * 10, tuple(map(tuple, values)))
    prob = S.SolveProblem(((c5, 8.0),), n=n, base=0.3, seeds=(spec,))
    assert not S._fits_blocks(prob, spec.sizes) and not S._fits_blocks(prob, (4,) * 9)
    assert S._fits_blocks(prob, (5,) * 8)
    hom_table = B._hom_table

    def no_compile(h, k):
        assert k < 10, "the expansion compiled on 10 blocks"
        return hom_table(h, k)

    monkeypatch.setattr(B, "_hom_table", no_compile)
    space, dense = S._BlockSpace(prob, [spec.sizes]), _DenseSpace(prob)
    assert space.terms is None
    (value, point, _iterations), (oracle, _x, _it) = (
        S._al_stack(prob, sp, sp.pack([spec])) for sp in (space, dense))
    assert np.isfinite(oracle[0]) and value[0] == pytest.approx(oracle[0], rel=1e-6)
    assert space.witness(point, 0).sizes == spec.sizes
    # in a solve it is a stack of its own, and wins as its BlockSpec,
    # measured by the DP on its matrix
    sizes = _record_calls(monkeypatch, "_al_stack", seen=lambda _pr, sp, *_a: sp.sizes)
    res = S.solve_phi(prob)
    assert sizes[-1] == (spec.sizes,) and len(sizes) == 2
    assert res.seed_provenance == "user_0" and res.x.sizes == spec.sizes
    assert res.value == pytest.approx(value[0], rel=1e-12) and res.residuals[0] <= 1e-6


def test_normalized_scale():
    res = _solve(K3, 1.3, 60, 0.3)
    assert res.normalized == pytest.approx(
        res.value / R.scale_anp(60, 0.3, 2), rel=1e-12
    )
    assert _solve(K3, 1.0, 30, 0.3).normalized == 0.0


def test_problem_validation():
    with pytest.raises(DomainError):
        S.SolveProblem(targets=(), n=10, base=0.3)
    with pytest.raises(DomainError):
        S.SolveProblem(targets=((K3, 1.0),), n=2, base=0.3)
    with pytest.raises(DomainError):
        S.SolveProblem(targets=((K3, 1.0),), n=10, base=0.3, ensemble=("bogus", 1))
    for t in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError, match="finite"):
            S.SolveProblem(targets=((K3, t),), n=10, base=0.3)
    with pytest.raises(DomainError, match="budget"):
        S.SolveProblem(targets=((K3, 1.3),), n=10, base=0.3, budget=-3)


def test_seeds_must_have_n_vertices():
    # a seed of another size would be scored, and could win, as a bound for n
    n = 40
    small = np.full((20, 20), 0.9)
    np.fill_diagonal(small, 0.0)
    spec = B.BlockSpec((5, 15), ((Fraction(1), Fraction(3, 10)), (Fraction(3, 10), Fraction(3, 10))))
    for seed in (small, np.full((n, n - 1), 0.3), spec, [0.3] * n):
        with pytest.raises(DomainError, match="seed"):
            S.SolveProblem(((K3, 1.2),), n=n, base=0.3, seeds=(seed,))
    S.SolveProblem(((K3, 1.2),), n=20, base=0.3, seeds=(small, spec))


def test_block_model_base_takes_its_params():
    params = R.BlockModelParams((0.5, 0.5), ((2.0, 1.0), (1.0, 0.5)), 0.2)
    n = 30
    target = 1.1 * R.b_h(K3, params)
    prob = S.SolveProblem(targets=((K3, target),), n=n, base=params)
    assert prob.hom_p() == 0.2
    # the base BlockSpec is the block model's probability matrix
    assert np.array_equal(np.asarray(prob.base_spec()), params.edge_probability_matrix(n))
    res = S.solve_phi(prob)
    assert res.residuals[0] <= 1e-6
    assert res.value > 0
    assert isinstance(res.x, B.BlockSpec)
    for base in (params.edge_probability_matrix(n), [0.2] * n):
        with pytest.raises(DomainError, match=r"a p in \(0,1\) or a BlockModelParams"):
            S.SolveProblem(targets=((K3, 1.0),), n=n, base=base)
    # a base probability of 0 or 1 has no finite entropy against it
    for kernel in (((1.0, 0.0), (0.0, 1.0)), ((5.0, 1.0), (1.0, 1.0))):
        with pytest.raises(DomainError, match=r"kernel \* p must lie in \(0,1\)"):
            S.SolveProblem(targets=((K3, 1.0),), n=n,
                           base=R.BlockModelParams((0.5, 0.5), kernel, 0.2))


def test_block_base_below_its_targets_is_solved():
    # targets <= 1 in units of p^e: a block base's own hom value is not near
    # 1, so the constant witness must not accept it unmeasured
    params = R.BlockModelParams((0.5, 0.5), ((1.0, 0.5), (0.5, 1.0)), 0.3)
    n = 12
    target = 1.3 * R.b_h(K3, params)
    assert target <= 1
    res = S.solve_phi(S.SolveProblem(targets=((K3, target),), n=n, base=params))
    assert res.residuals[0] <= 1e-6 and res.value > 0 and not res.notes
    # a block base that meets its targets is still accepted as it stands
    low = 0.5 * R.b_h(K3, params)
    res = S.solve_phi(S.SolveProblem(targets=((K3, low),), n=n, base=params))
    assert res.value == 0.0 and res.residuals[0] == 0.0 and res.iterations == 0


def test_dense_cap_directs_to_block_path():
    res = S.solve_phi(S.SolveProblem(targets=((K3, 1.3),), n=5000, base=0.1))
    assert isinstance(res.x, B.BlockSpec) and res.x.n == 5000
    assert res.seed_provenance == "block_search"


def _must_not_run(*_a, **_k):
    raise AssertionError("a step that must not run ran")


def test_dp_cap_directs_to_block_path_before_any_seed(monkeypatch):
    # n <= DENSE_N_CAP, but K4's n x n DP would hold n^3 entries, past
    # DP_CELL_CAP: the seeds past the compile cap are left out before any
    # run, and the rest run on compiled block values, as `uptail solve` does
    monkeypatch.setattr(H, "_dp_sum", _must_not_run)
    prob = S.SolveProblem(((G.clique(4), 1.3),), n=2000, base=0.01, ensemble=("row_sums", 20))
    res = S.solve_phi(prob)
    assert isinstance(res.x, B.BlockSpec) and res.seed_provenance.startswith("whole_cliques")
    assert res.value == 28.571144731629513
    # a block-model base solves alike
    params = R.BlockModelParams((0.5, 0.5), ((1.0, 0.5), (0.5, 1.0)), 0.1)
    res = S.solve_phi(S.SolveProblem(((G.clique(4), 1.3),), n=520, base=params))
    assert isinstance(res.x, B.BlockSpec) and res.residuals[0] <= 1e-6


def test_solve_with_no_seed_that_fits_is_refused_before_any_run(monkeypatch):
    # with no block count within the compile cap, every seed of K4 at n = 520
    # needs the n x n DP, which passes DP_CELL_CAP there
    monkeypatch.setattr(S, "COMPILE_CAP", 0)
    monkeypatch.setattr(S, "_al_stack", _must_not_run)
    with pytest.raises(ResourceError, match="every seed is past"):
        S.solve_phi(S.SolveProblem(((G.clique(4), 1.3),), n=520, base=0.1))


def test_block_base_with_no_feasible_run_is_refused():
    # a block-model base has no level search to fall back on: with no outer
    # iteration, no seed at n = 6 meets t = 1.05
    params = R.BlockModelParams((0.5, 0.5), ((2, 1), (1, 0.5)), 0.2)
    prob = S.SolveProblem(((K3, 1.05),), n=6, base=params, budget=0)
    with pytest.raises(ResourceError, match="no feasible point found within budget from any seed"):
        S.solve_phi(prob)


def test_block_base_that_meets_its_targets_is_the_witness_at_any_t(monkeypatch):
    # the base's own K3 count is 1.945, past t = 1.5: it is the witness, at
    # value 0, before any run, where the AL could end below 0 by roundoff
    monkeypatch.setattr(S, "_al_stack", _must_not_run)
    params = R.BlockModelParams((0.5, 0.5), ((2, 1), (1, 0.5)), 0.05)
    res = S.solve_phi(S.SolveProblem(((K3, 1.5),), n=1000, base=params))
    assert (res.value, res.normalized, res.residuals) == (0.0, 0.0, [0.0])
    assert (res.seed_provenance, res.iterations, res.notes) == ("constant", 0, [S.BASE_NOTE])


def test_result_value_is_never_below_zero():
    # a witness 2 ulps above p: its relative entropy, about 1e-31, rounds to
    # -7.8e-17 a pair by cancellation
    p = 0.1
    x = B.BlockSpec((30,), ((Fraction(p + 2 * np.spacing(p)),),))
    assert x.entropy(p) < 0
    res = S._result(S.SolveProblem(((K3, 0.5),), n=30, base=p), x, "near_p", 0, [])
    assert (res.value, res.normalized) == (0.0, 0.0)


def test_pattern_past_the_dp_width_cap_reaches_the_level_search():
    # K7's elimination width is past the hom DP's WIDTH_CAP; past DENSE_N_CAP
    # no DP plan is built, so the level search answers from its closed forms
    with pytest.raises(ResourceError, match="width"):
        H.dp_cells(G.clique(7), 3000)
    res = S.solve_phi(S.SolveProblem(((G.clique(7), 1.5),), n=3000, base=0.3))
    assert isinstance(res.x, B.BlockSpec) and res.seed_provenance == "block_search"
    assert res.value == 3164.04052976856


def test_pattern_past_the_dp_width_cap_does_not_fit_at_any_n(monkeypatch):
    # at n <= DENSE_N_CAP too, a pattern the DP refuses for its width fits
    # no n x n DP; its seeds all fit the compiled block homs, so the AL
    # answers without asking the DP
    prob = S.SolveProblem(((G.clique(7), 1.3),), n=2000, base=0.3)
    assert not S._dense_witness(prob)
    monkeypatch.setattr(H, "_dp_sum", _must_not_run)
    res = S.solve_phi(prob)
    assert isinstance(res.x, B.BlockSpec) and res.seed_provenance == "constant"
    assert res.value == 73.0921694159664


def test_level_search_measures_specs_past_the_compile_cap_on_the_dp(monkeypatch):
    # with COMPILE_CAP at 0 every ladder spec is past `_fits_blocks`: at
    # n <= DENSE_N_CAP each is measured on the DP of its blow-up, nothing
    # compiles, and the search ends where the compiled one does; past
    # DENSE_N_CAP each is left out, so no rung is feasible
    prob = S.SolveProblem(((G.cycle(5), 4.0),), n=60, base=0.1, ensemble=("row_sums", 6))
    want = S._level_search(prob)
    monkeypatch.setattr(S, "COMPILE_CAP", 0)
    monkeypatch.setattr(B, "_hom_table", _must_not_run)
    got = S._level_search(prob)
    assert got.x == want.x and got.value == want.value == 273.22183956797517
    assert got.iterations == want.iterations == 10 and got.residuals == [0.0]
    monkeypatch.setattr(H, "_dp_sum", _must_not_run)
    with pytest.raises(ResourceError, match="no feasible block construction"):
        S._level_search(S.SolveProblem(((K3, 1.5),), n=3000, base=0.1))


def test_block_solve_row_sums_large_n():
    prob = S.SolveProblem(
        targets=((K3, 2.5),), n=100_000, base=0.01, ensemble=("row_sums", 1000)
    )
    res = S.solve_phi(prob)
    assert res.residuals[0] == 0.0
    assert res.ensemble_residual == 0.0
    # normalized value sits above the asymptotic constant (finite-size excess)
    assert res.normalized >= R.c_reg(K3, 1.5).constant


def test_block_solve_free_matches_theory_scale():
    prob = S.SolveProblem(targets=((K3, 2.0),), n=50_000, base=0.02)
    res = S.solve_phi(prob)
    c = R.c_er(K3, 1.0).constant
    assert res.residuals[0] <= 1e-6
    assert 0.9 * c <= res.normalized <= 2.0 * c


@pytest.mark.parametrize("delta", [0.3, 1.5, 2.4])
def test_ladder_specs_are_exact_members(delta):
    # every construction the ladder plants meets its ensemble with zero
    # deviation: row sums as built, total weight after fill_total_weight
    n, d = 2000, 200
    hs = (K3, G.clique(4), G.cycle(5), G.star(3))
    rows = S.SolveProblem(targets=tuple((h, 2.0) for h in hs), n=n, base=d / n,
                          ensemble=("row_sums", d))
    specs = [spec for _tag, spec in S.ladder(rows, [delta])[0]]
    assert specs
    for spec in specs:
        assert B.validate_membership(spec, E.regular(n, d)).deviation == 0.0
    m = n * d // 2
    total = S.SolveProblem(targets=tuple((h, 2.0) for h in hs), n=n,
                           base=m / (n * (n - 1) / 2), ensemble=("total_weight", m))
    tags = [tag for tag, _spec in S.ladder(total, [delta])[0]]
    assert {"plant_hub_h1", "plant_clique_h1", "plant_both_h1"} <= set(tags)
    for _tag, spec in S.ladder(total, [delta])[0]:
        filled = B.fill_total_weight(spec, m)
        assert B.validate_membership(filled, E.uniform(n, m)).deviation == 0.0


def test_default_seeds_dedupe_by_construction_not_fingerprint():
    # plant_hub_delta_x8, sizes (2, 28), and plant_both_delta_x2, sizes
    # (1, 8, 21), are distinct seeds with equal sums and sums of squares
    # (114 one-entries each)
    prob = S.SolveProblem(((K3, 1.3),), n=30, base=130 / 435,
                          ensemble=("total_weight", 130))
    seeds = S.default_seeds(prob)
    names = [name for name, _x in seeds]
    assert "plant_hub_delta_x8" in names and "plant_both_delta_x2" in names
    mats = [np.asarray(seed, dtype=float) for _name, seed in seeds]
    for i, x in enumerate(mats):
        assert not any(np.array_equal(x, y) for y in mats[i + 1:])
    res = S.solve_phi(prob)
    # the BlockSpec winner is measured by its closed forms, one ulp from
    # the entropy of its materialized matrix
    assert res.value == 37.067585102666534
    assert 0.5 * R.entropy_matrix(np.asarray(res.x), prob.base) == 37.06758510266653
    assert res.seed_provenance == "plant_clique_delta_x3"


@pytest.mark.parametrize("ensemble", [None, ("row_sums", 18)])
def test_dense_never_worse_than_block(ensemble):
    # the dense solve starts from the materialized ladder, so it can only
    # improve on the block search over the same constructions
    n = 40 if ensemble is None else 60
    prob = S.SolveProblem(targets=((K3, 1.3),), n=n, base=0.3, ensemble=ensemble)
    dense = S.solve_phi(prob)
    block = S._level_search(prob)
    assert dense.value <= block.value * (1 + 1e-9)


# ---------------------------------------------------------------------------
# inner loop: spectral projected gradient
# ---------------------------------------------------------------------------

def _record_calls(monkeypatch, name, seen=None, owner=S):
    """Wrap owner.<name> (a solver function by default, or a space's
    method); the list gets seen(*args), or None, per call."""
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None if seen is None else seen(*args))
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# ---------------------------------------------------------------------------
# the n x n oracle: the AL's space on whole matrices, sharing only
# `_shift_clip` with the solver
# ---------------------------------------------------------------------------

def _zero_diagonal(x):
    i = np.arange(x.shape[-1])
    x[..., i, i] = 0.0
    return x


def _box(x):
    y = S._unit(x)
    return _zero_diagonal(0.5 * (y + np.swapaxes(y, -1, -2)))


def _project_total_weight(x, m):
    """Projection of a stack of matrices onto {sum_{i<j} x = m} within the
    box: shift and clip."""
    iu = np.triu_indices(x.shape[-1], 1)
    out, ones, rows = np.zeros_like(x), np.ones((len(x), iu[0].size)), np.arange(len(x))[:, None]
    out[..., iu[0], iu[1]] = S._shift_clip(x[..., iu[0], iu[1]], m, ones, ones > 0, rows)
    return out + np.swapaxes(out, -1, -2)


def _project_rows_affine(x, d):
    """Euclidean projection of a stack of matrices onto {X sym, zero diag,
    row sums = d} (no box)."""
    n = x.shape[-1]
    r = x.sum(axis=-1)
    s = (n * d - r.sum(axis=-1)) / (2.0 * (n - 1))
    mu = (d - r - s[..., None]) / (n - 2.0)
    return _zero_diagonal(x + mu[..., :, None] + mu[..., None, :])


def _row_deviation(x, d):
    return np.abs(x.sum(axis=-1) - d).max(axis=-1)


def _project(x, constraint, on=None):
    """The ensemble projection of a stack of matrices."""
    if constraint is None:
        return _box(x)
    kind, val = constraint
    if kind == "total_weight":
        return _project_total_weight(_box(x), val)
    return _dykstra_reference(x, val, _box, _project_rows_affine, _row_deviation, 1e-10, on)


def _entropy_grad(x, base):
    """d/dx_uv of sum_{u<v} I(x_uv): the log-odds ratio
    log(x (1 - p) / (p (1 - x))), entrywise, x kept off 0 and 1."""
    xc = np.clip(x, S.EPS, 1 - S.EPS)
    pm = np.clip(np.asarray(base, dtype=float), S.EPS, 1 - S.EPS)  # scalar or matrix
    return _zero_diagonal(np.log(xc * (1 - pm)) - np.log(pm * (1 - xc)))


class _DenseSpace:
    """The AL on a stack of n x n matrices: any seed, any base, as its
    matrix.  Gradients are per unordered vertex pair, laid out symmetric, so
    sums run over ordered pairs.  Its witness is a matrix, measured by the
    DP (`terms` None, as for `S._BlockSpace` off the compiled expansion)."""

    terms = None

    def __init__(self, problem):
        self.problem, self.base = problem, np.asarray(problem.base_spec())
        # the certificate tolerance on a kept point's ensemble residual
        kind, bound = problem.ensemble or (None, 0.0)
        self.tol = max(1e-10, 1e-9 * max(1.0, bound)) if kind == "total_weight" else 1e-10

    @staticmethod
    def pack(seeds):
        return np.stack([np.asarray(seed, dtype=float) for seed in seeds])

    def evaluate(self, x):
        problem = self.problem
        p = problem.hom_p()
        vals, grads = zip(*(H.hom_value_and_gradient(h, xi, p)
                            for xi in x for h, _t in problem.targets))
        grads = np.stack(grads).reshape((len(x), len(problem.targets)) + x.shape[1:])
        entropy = [0.5 * R.entropy_matrix(xi, self.base) for xi in x]
        return (np.array(vals).reshape(len(x), -1), grads, np.array(entropy),
                _entropy_grad(x, self.base))

    def project(self, x, on=None):
        return _project(x, self.problem.ensemble, on)

    @staticmethod
    def dot(a, b):
        return (a * b).sum(axis=(-2, -1))

    def residual(self, x):
        return np.array([B.ensemble_residual(xi, self.problem.ensemble) for xi in x])

    @staticmethod
    def witness(x, row):
        return x[row]


SPACES = (S._BlockSpace, _DenseSpace)


def _run_on(mp, space):
    """Make every seed of a scalar-base solve run on `space`: the block
    space takes the seeds as solve_phi picks them, the n x n oracle stands in
    for it in every stack.  Returns the list of each `_al_stack` run's space
    class."""
    if space is _DenseSpace:
        mp.setattr(S, "_BlockSpace", lambda problem, _sizes: _DenseSpace(problem))
    return _record_calls(mp, "_al_stack", seen=lambda _pr, sp, *_a: type(sp))


def _alone(prob, space, seed):
    """A space of `space`'s class holding `seed` alone."""
    return S._BlockSpace(prob, [seed.sizes]) if space is S._BlockSpace else _DenseSpace(prob)


@pytest.mark.parametrize("h, n, ensemble", [
    (K3, 30, None),
    (K3, 30, ("total_weight", 130)),
    (G.clique(4), 20, None),
])
def test_about_one_hom_value_per_gradient(monkeypatch, h, n, ensemble):
    # spectral steps are mostly accepted at t = 1, and an accepted point's
    # evaluation is carried into the next step and the next inner loop, so
    # each accepted step costs about one evaluation.  Every step projects
    # once; an inner loop's last projection may accept nothing, and each run
    # projects its seed once, so a seed run alone, one inner loop per
    # iteration, accepts at least projections - iterations - 1 steps.
    base = 130 / 435 if ensemble else 0.3
    prob = S.SolveProblem(targets=((h, 1.3),), n=n, base=base, ensemble=ensemble)
    for space in SPACES:
        evals = accepted = 0
        for _name, seed in S.default_seeds(prob):
            sp = _alone(prob, space, seed)
            with monkeypatch.context() as mp:
                evaluations = _record_calls(mp, "evaluate", owner=space)
                projections = _record_calls(mp, "project", owner=sp)
                _value, _x, iterations = S._al_stack(prob, sp, sp.pack([seed]))
            evals += len(evaluations)
            accepted += len(projections) - int(iterations[0]) - 1
        assert accepted > 0
        assert evals <= 1.5 * accepted


def test_inner_loop_stops_at_its_own_fixed_point(monkeypatch):
    # once the directional derivative is below f's roundoff, a call returns
    # without searching along a step that cannot decrease f; a second call
    # there takes the carried evaluation and evaluates nothing
    h, n = G.clique(4), 20
    prob = S.SolveProblem(targets=((h, 1.3),), n=n, base=0.3)
    targets = np.array([1.3])
    lam, rho, on = np.array([[10.0]]), np.array([10.0]), np.array([True])
    constant = S.default_seeds(prob)[0][1]
    for space in SPACES:
        sp = _alone(prob, space, constant)
        x = sp.pack([constant])
        ev, step = sp.evaluate(x), np.ones(1)
        with monkeypatch.context() as mp:
            calls = _record_calls(mp, "evaluate", owner=space)
            x, ev, step = S._spg(sp, x, ev, targets, lam, rho, step, on, max_steps=2000)
            assert len(calls) < 100  # converged, not out of steps
            calls.clear()
            S._spg(sp, x, ev, targets, lam, rho, step, on)
            assert len(calls) == 0


class _OnlyItsStart:
    """`space` with row 0's entropy raised by 1e6 at every point but
    `start`."""

    def __init__(self, space, start):
        self.space, self.start = space, start

    def __getattr__(self, name):
        return getattr(self.space, name)

    def evaluate(self, y):
        vals, hom_grads, entropy, grad = self.space.evaluate(y)
        away = np.zeros(len(y))
        away[0] = not np.array_equal(y[0], self.start)
        return vals, hom_grads, entropy + 1e6 * away, grad


def test_inner_loop_row_with_no_decrease_stays_at_its_point():
    # row 0 finds no decrease in 40 halvings, so it leaves the loop at its
    # own point, with its own values and step; row 1, the same seed without
    # the penalty, moves on
    prob = S.SolveProblem(targets=((K3, 1.3),), n=12, base=0.3)
    targets, lam, rho = np.array([1.3]), np.zeros((2, 1)), np.full(2, 10.0)
    constant = S.default_seeds(prob)[0][1]
    block = S._BlockSpace(prob, [constant.sizes] * 2)
    x = block.pack([constant] * 2)
    space = _OnlyItsStart(block, x[0].copy())
    ev = space.evaluate(x)
    x_out, ev_out, step = S._spg(space, x, ev, targets, lam, rho, np.ones(2), np.ones(2, bool))
    assert x_out[0].tobytes() == x[0].tobytes() and step[0] == 1.0
    assert all(new[0].tobytes() == old[0].tobytes() for new, old in zip(ev_out, ev))
    assert not np.array_equal(x_out[1], x[1])


def test_total_weight_iterates_stay_on_the_constraint(monkeypatch):
    # a backtrack moves along the segment between two feasible points, so
    # every point the solver evaluates keeps its total weight
    n, m = 30, 130
    for space in SPACES:
        with monkeypatch.context() as mp:
            runs = _run_on(mp, space)
            residuals = _record_calls(
                mp, "evaluate", owner=space,
                seen=lambda sp, x: max(S.ensemble_residual(np.asarray(sp.witness(x, row)),
                                                           ("total_weight", m))
                                       for row in range(len(x))))
            S.solve_phi(S.SolveProblem(targets=((K3, 1.3),), n=n, base=m / 435,
                                       ensemble=("total_weight", m)))
        assert set(runs) == {space}
        assert residuals
        assert max(residuals) <= 1e-9


# the dense-solve benchmark's five problems, at their central targets
DENSE_SOLVE_PROBLEMS = [
    S.SolveProblem(((K3, 1.3),), n=60, base=0.3),
    S.SolveProblem(((K3, 1.3),), n=60, base=0.3, ensemble=("row_sums", 18)),
    S.SolveProblem(((K3, 1.3),), n=30, base=130 / 435, ensemble=("total_weight", 130)),
    S.SolveProblem(((G.clique(4), 1.3),), n=30, base=0.3),
    S.SolveProblem(((G.cycle(5), 1.3),), n=40, base=0.3),
]


# each problem's (value, iterations, seed_provenance) from the solver on
# k x k block values; a change in how the solver computes, not in what it
# solves, keeps them.  C5's seeds end within 1e-9 of each other, so the
# first of them wins (`TIE_RTOL`)
DENSE_SOLVE_RESULTS = [
    (4.499572893578216, 459, "constant"),
    (229.54985821858654, 150, "cycle_blocks_delta_x2"),
    (37.067585102666534, 390, "plant_clique_delta_x3"),
    (0.6114452942023847, 46, "constant"),
    (1.0778281950009574, 159, "plant_clique_delta_x1"),
]


@pytest.mark.parametrize("prob, pinned", zip(DENSE_SOLVE_PROBLEMS, DENSE_SOLVE_RESULTS))
def test_dense_solve_problems_keep_their_results(prob, pinned):
    # the value bit for bit, every iteration and the winning seed
    res = S.solve_phi(prob)
    value, iterations, provenance = pinned
    assert res.value == value
    assert (res.iterations, res.seed_provenance) == (iterations, provenance)


# each problem's default seeds run as one `_al_stack` stack: every row's
# outer iterations and final value (inf where the row keeps no feasible
# point), and the sha256 of the final points' bytes.  A change in how a step
# is computed, not in what it solves, keeps every row bit for bit, not only
# the sum and the winner
DENSE_SOLVE_ROWS = [
    ([27] * 17, [4.499572893578216, 4.4995728935788435, 4.499572893579089, 4.499572893580476,
                 4.499572893579481, 4.499572893580464, 4.499572893579826, 4.499572893580477,
                 4.4995728935805985, 4.499572893580353, 4.499572893580747, 4.499572893580734,
                 4.499572893580477, 4.499572893580604, 4.499572893580856, 4.499572893580746,
                 4.499572893580722],
     "3942a2198a7c80617a8a3a83636f4b92f4507634316ad36692acafd9b6c77644"),
    ([30] * 5, [math.inf] * 3 + [229.54985821858654, 340.2255108716102],
     "c1775edf2ad70fa522c60516175187a7a9553150f5efa79e07385a2ccb92dea6"),
    ([30] * 13, [math.inf] * 5 + [55.05968429434329, 37.067585102666534, 61.42536881124167,
                                  45.026965407579276, 68.315482978242, 55.05968429434329,
                                  62.20455237299775, 102.2171489130456],
     "9d0739f1b4394e51e84db4bdb9307c0f7000e187947908d5ab8ea10bd5dc2c04"),
    ([13] + [11] * 3, [0.6114452942023847, 0.6114453421411181, 0.6114453443701917,
                       0.6114453442342435],
     "95de8d84fe3b1895c4ed4cd4d05e120c43243d598de2acb5cc7757999ba1a13a"),
    ([19] + [14] * 10, [1.0778294268768538, 1.0778281950009574, 1.0778281949944033,
                        1.0778281950130895, 1.0778281950101956, 1.0778281949676276,
                        1.0778281950151167, 1.0778281949841226, 1.077828195015692,
                        1.0778281950037332, 1.077828195016048],
     "7e6e7990c3dcfda5220731e2520565d0267f4f5163051a6f65a53bcccf6e81ca"),
]


@pytest.mark.parametrize("prob, pinned", zip(DENSE_SOLVE_PROBLEMS, DENSE_SOLVE_ROWS))
def test_dense_solve_problems_keep_every_row(prob, pinned):
    specs = [spec for _name, spec in S.default_seeds(prob)]
    space = S._BlockSpace(prob, [spec.sizes for spec in specs])
    values, points, iterations = S._al_stack(prob, space, space.pack(specs))
    pinned_iterations, pinned_values, pinned_points = pinned
    assert iterations.tolist() == pinned_iterations
    assert values.tolist() == pinned_values
    assert hashlib.sha256(points.tobytes()).hexdigest() == pinned_points


def test_stall_rule_ends_a_row_whose_residual_stops_falling():
    # row-sum K4 at n = 20, t = 2: the clique block's row never becomes
    # feasible, so only the 30-update stall rule can end it before its
    # budget.  Over the 30 updates to its 30th outer iteration its residual
    # falls by between 1% and 2%, which the rule does not call a stall, and
    # by less than 1% to its 31st, which it does
    prob = S.SolveProblem(((G.clique(4), 2.0),), n=20, base=6 / 20, ensemble=("row_sums", 6))
    names, specs = zip(*S.default_seeds(prob))
    assert names[1] == "clique_block_delta_x1"
    space = S._BlockSpace(prob, [spec.sizes for spec in specs])
    values, _points, iterations = S._al_stack(prob, space, space.pack(specs))
    assert iterations.tolist() == [30, 31, 30, 30, 30]
    assert np.isinf(values[:2]).all() and np.isfinite(values[2:]).all()


@pytest.mark.parametrize("prob", DENSE_SOLVE_PROBLEMS)
def test_block_space_runs_match_their_materialized_seeds(prob):
    # the n x n space is the oracle: from every default seed, the AL run on
    # block values ends where the run on the materialized seed ends
    specs = [spec for _name, spec in S.default_seeds(prob)]
    assert all(S._fits_blocks(prob, spec.sizes) for spec in specs)
    space, dense = S._BlockSpace(prob, [spec.sizes for spec in specs]), _DenseSpace(prob)
    values, points, _iterations = S._al_stack(prob, space, space.pack(specs))
    feasible = []
    for row, spec in enumerate(specs):
        value, point, _iterations = S._al_stack(prob, dense, dense.pack([spec]))
        assert np.isfinite(values[row]) == np.isfinite(value[0])
        if np.isfinite(value[0]):
            feasible.append(value[0])
            assert values[row] == pytest.approx(value[0], rel=1e-9)
            assert np.abs(np.asarray(space.witness(points, row)) - point[0]).max() <= 1e-6
    assert feasible


# the README's block-model solve, and its K3 target at t = 1.5
BLOCK_PARAMS = R.BlockModelParams((0.5, 0.5), ((2.0, 1.0), (1.0, 0.5)), 0.05)


def _block_model_problem(n):
    return S.SolveProblem(((K3, 1.5 * R.b_h(K3, BLOCK_PARAMS)),), n=n, base=BLOCK_PARAMS)


@pytest.mark.parametrize("n, names", [(40, None), (200, ("plant_hub_delta_x2",))])
def test_block_base_runs_match_their_materialized_seeds(n, names):
    # under a block-model base too the n x n space is the oracle: each seed,
    # run alone on block values (every default seed at n = 40, the winner at
    # n = 200), takes as many iterations as on its materialized matrix and
    # ends at its value within the AL's stop tolerance (1.4e-7 at most here)
    prob = _block_model_problem(n)
    seeds = [spec for name, spec in S.default_seeds(prob) if names is None or name in names]
    assert seeds
    for spec in seeds:
        assert S._fits_blocks(prob, spec.sizes)
        (values, _x, iterations), (dense, _xd, dense_iterations) = (
            S._al_stack(prob, space, space.pack([spec]))
            for space in (S._BlockSpace(prob, [spec.sizes]), _DenseSpace(prob)))
        assert iterations[0] == dense_iterations[0]
        assert values[0] == pytest.approx(dense[0], rel=1e-6)


@pytest.mark.parametrize("prob", DENSE_SOLVE_PROBLEMS + [_block_model_problem(40),
                                                    _block_model_problem(200)])
def test_block_space_takes_base_and_seed_values_by_owner(prob):
    # each seed's blocks are cut also where the base's end; the base value
    # and the seed value of each live block pair, taken through the blocks
    # they lie in, are those of the base and the seed refined onto them
    specs = [spec for _name, spec in S.default_seeds(prob)]
    space = S._BlockSpace(prob, [spec.sizes for spec in specs])
    packed = space.pack(specs)
    for row, (spec, sizes) in enumerate(zip(specs, space.sizes)):
        a, b = space.pairs_of(row)
        base = prob.base_spec().refined(spec.sizes)
        assert base.sizes == sizes == spec.refined(base.sizes).sizes
        assert np.array_equal(space.base[row, :len(a)], base.value_matrix()[a, b])
        assert np.array_equal(packed[row, :len(a)], spec.refined(sizes).value_matrix()[a, b])


def test_block_model_solve_at_n_1000_takes_no_dense_step(monkeypatch):
    def no_dense(*_a, **_k):
        raise AssertionError("an n x n step ran")

    monkeypatch.setattr(H, "_dp_sum", no_dense)
    res = S.solve_phi(_block_model_problem(1000))
    assert isinstance(res.x, B.BlockSpec) and res.x.refined((500, 500)) == res.x
    assert res.residuals[0] <= 1e-6 and res.ensemble_residual == 0.0


@pytest.mark.parametrize("prob", DENSE_SOLVE_PROBLEMS)
def test_a_seed_runs_in_the_stack_as_it_runs_alone(prob):
    # lockstep changes no seed's run: each row of the full stack, padded to
    # the widest seed, ends at the value, the iteration count and the point
    # of the same seed run as a stack of one
    specs = [spec for _name, spec in S.default_seeds(prob)]
    space = S._BlockSpace(prob, [spec.sizes for spec in specs])
    assert len(specs) > 1 and not space.live.all()  # some rows are padded
    values, points, iterations = S._al_stack(prob, space, space.pack(specs))
    for row, spec in enumerate(specs):
        alone = S._BlockSpace(prob, [spec.sizes])
        value, point, iters = S._al_stack(prob, alone, alone.pack([spec]))
        assert iters[0] == iterations[row]
        assert value[0] == pytest.approx(values[row], rel=1e-12)
        assert np.array_equal(point[0], points[row, :point.shape[1]])


def test_seed_structure_is_built_once_per_solve(monkeypatch):
    # counts, not timings: per solve, each pattern's independence polynomial
    # is built once for every ladder level, a root takes at most 80
    # evaluations (200 and more before bisection stopped early), and each
    # seed's block pairs are built once, in the stack's one call, plus once
    # for the winner's one part
    prob = S.SolveProblem(((K3, 1.3),), n=60, base=0.3)
    counts = dict.fromkeys(("polynomials", "evaluations", "roots"), 0)

    def counted(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(S, "independence_polynomial",
                        counted("polynomials", lambda h: counted("evaluations",
                                                                 G.independence_polynomial(h))))
    monkeypatch.setattr(S, "theta_root_from_poly", counted("roots", R.theta_root_from_poly))
    seeds = S.default_seeds(prob)
    assert counts["polynomials"] == 1 and counts["roots"] == 6
    assert counts["evaluations"] <= 80 * counts["roots"]
    stacks, stacked_block_pairs, block_pairs = [], B.stacked_block_pairs, B.block_pairs

    def counted_stack(stack):
        stacks.append(len(stack))
        return stacked_block_pairs(stack)

    def counted_one(sizes):
        stacks.append(1)
        return block_pairs(sizes)

    monkeypatch.setattr(S, "stacked_block_pairs", counted_stack)
    monkeypatch.setattr(B, "block_pairs", counted_one)
    res = S.solve_phi(prob)
    assert res.x.num_blocks == 1 and stacks == [len(seeds), 1]


def test_seed_ties_within_tolerance_go_to_the_first_seed(monkeypatch):
    # all 15 seeds of this problem end within 1.7e-13 relative of each other;
    # the first seed within 1e-9 of the least value wins, so perturbing each
    # seed's final value by about 1e-12 moves no provenance
    prob = S.SolveProblem(((K3, 1.3),), n=2000, base=0.05)
    al_stack, rng = S._al_stack, np.random.default_rng(3)
    base = S.solve_phi(prob)

    def perturbed(*args):
        values, points, iterations = al_stack(*args)
        return values * (1.0 + 1e-12 * rng.uniform(-1, 1, len(values))), points, iterations

    monkeypatch.setattr(S, "_al_stack", perturbed)
    for _ in range(3):
        res = S.solve_phi(prob)
        assert (res.seed_provenance, res.iterations) == (base.seed_provenance, base.iterations)
        assert res.value == pytest.approx(base.value, rel=1e-12)


def _blow_up(sizes, rows):
    """Each row of packed block-pair values as its n x n matrix."""
    a, b, _pairs = B.block_pairs(sizes)
    values = np.zeros((len(rows), len(sizes), len(sizes)))
    values[:, a, b] = values[:, b, a] = rows[:, :len(a)]
    return np.stack([B.blow_up(sizes, v) for v in values])


def test_block_space_steps_are_the_dense_steps_restricted():
    # evaluate, project, dot, residual and witness on the packed block-pair
    # values agree with the n x n space on the blow-up, for every ensemble
    # and for a block-model base, whose blocks (12, 12) these sizes refine;
    # the one-vertex block's own pair holds no vertex pair and is not stored
    rng = np.random.default_rng(5)
    sizes = (1, 4, 7, 12)
    n = sum(sizes)
    params = R.BlockModelParams((0.5, 0.5), ((2.0, 1.0), (1.0, 0.5)), 0.2)
    for ensemble, base in ((None, 0.3), (("row_sums", 7), 7 / n), (("total_weight", 90), 0.3),
                           (None, params)):
        prob = S.SolveProblem(((K3, 1.3), (G.cycle(5), 1.2)), n=n, base=base, ensemble=ensemble)
        blocks, dense = S._BlockSpace(prob, [sizes]), _DenseSpace(prob)
        y = rng.random((1, 9))
        assert blocks.pairs.sum() == n * (n - 1) / 2 and blocks.pairs.shape == y.shape
        x = _blow_up(sizes, y)
        (bv, bg, be, beg), (dv, dg, de, deg) = blocks.evaluate(y), dense.evaluate(x)
        assert bv == pytest.approx(dv, rel=1e-12) and be == pytest.approx(de, rel=1e-12)
        for b, d in zip(bg, dg):
            assert np.allclose(_blow_up(sizes, b), d, rtol=1e-12, atol=0)
        assert np.allclose(_blow_up(sizes, beg), deg, rtol=1e-12, atol=0)
        step = y - 0.4 * beg
        assert np.allclose(_blow_up(sizes, blocks.project(step)),
                           dense.project(_blow_up(sizes, step)), rtol=0, atol=1e-12)
        assert blocks.dot(y, beg) == pytest.approx(dense.dot(x, deg), rel=1e-12)
        assert blocks.residual(y) == pytest.approx(dense.residual(x), rel=1e-12)
        witness = blocks.witness(y, 0)
        assert witness.sizes == sizes
        assert np.array_equal(np.asarray(witness), dense.witness(x, 0))


def _assert_shift_clip_kkt(vals, m, weights, tol=1e-9):
    """clip(vals + lam) for one lam, of weighted sum m: every entry strictly
    inside (0, 1) moved by lam, every entry at 0 had v + lam <= 0, every
    entry at 1 had v + lam >= 1."""
    x = S._shift_clip(vals[None], m, weights[None], weights[None] > 0, np.zeros((1, 1), int))[0]
    assert x.min() >= 0.0 and x.max() <= 1.0
    assert abs(float(weights @ x) - m) <= tol * max(1.0, m)
    inner = (x > tol) & (x < 1 - tol)
    shifts = x[inner] - vals[inner]
    below = np.concatenate([shifts, 1.0 - vals[x >= 1 - tol]]).max(initial=-np.inf)
    above = np.concatenate([shifts, -vals[x <= tol]]).min(initial=np.inf)
    assert below <= above + tol
    return x


@pytest.mark.parametrize("size", [6, 435])
def test_shift_clip_meets_the_kkt_conditions(size):
    # block size (pair counts as weights, ties among the values) and n x n
    # size (unit weights), from m = 0 through the sum of the weights
    rng = np.random.default_rng(size)
    for trial in range(20):
        vals = rng.random(size)
        vals[: size // 3] = vals[0]  # ties
        vals[-1] = float(trial % 2)  # an entry already at 0 or 1
        weights = rng.integers(1, 200, size).astype(float) if size < 10 else np.ones(size)
        total = float(weights.sum())
        for m in (rng.uniform(0, total), float(weights @ vals)):
            _assert_shift_clip_kkt(vals, m, weights)
        assert np.all(_assert_shift_clip_kkt(vals, 0.0, weights) == 0.0)
        assert np.all(_assert_shift_clip_kkt(vals, total, weights) == 1.0)
    # a single value takes the whole weight
    for m in (0.0, 7.0, 10.0):
        x = _assert_shift_clip_kkt(np.array([0.9]), m, np.array([10.0]))
        assert x[0] == pytest.approx(m / 10.0, abs=1e-12)
    # a target past the total weight is refused once per projection call
    # and once per problem, not by every shift and clip
    with pytest.raises(DomainError, match="total weight target"):
        S.project_ensemble(np.full((5, 5), 0.5), ("total_weight", 10.5))
    with pytest.raises(DomainError, match="total weight target"):
        S.SolveProblem(((K3, 1.3),), n=5, base=0.5, ensemble=("total_weight", 10.5))


def test_row_sums_past_n_minus_1_are_refused_by_the_problem_and_the_projection():
    # d in (n - 1, n) passes the base check (base d / n = 0.95), but no row
    # of a matrix on 10 vertices sums to 9.5: refused once per problem and
    # once per projection call, not by each projection
    message = re.escape("row-sum target must be in (0, n-1]")
    with pytest.raises(DomainError, match=message):
        S.SolveProblem(((K3, 1.3),), n=10, base=0.95, ensemble=("row_sums", 9.5))
    with pytest.raises(DomainError, match=message):
        S.project_ensemble(np.full((10, 10), 0.5), ("row_sums", 9.5))


def _shift_clip_reference(vals, m, weights):
    """`_shift_clip` in its first form, with `take_along_axis`, `hstack` and
    `np.clip` and its range check left to the callers: the oracle that the
    fast form matches bit for bit."""
    weights = np.broadcast_to(weights, vals.shape)
    order = (-vals).argsort(axis=-1, kind="stable")
    v, w = np.take_along_axis(vals, order, -1), np.take_along_axis(weights, order, -1)
    cw, cwv = w.cumsum(-1), (w * v).cumsum(-1)
    big, heavy, zero = cwv[:, -1:], cw[:, -1:], np.zeros_like(cwv[:, :1])
    low = m <= big
    bps = np.where(low, np.hstack([-v, zero]), np.hstack([zero, 1.0 - v]))
    totals = np.where(low, np.hstack([cwv - v * cw, big]),
                      np.hstack([big, heavy - v * (heavy - cw) + (big - cwv)]))
    i = np.clip((totals < m).sum(-1, keepdims=True), 1, bps.shape[-1] - 1)
    lo, hi = np.take_along_axis(bps, i - 1, -1), np.take_along_axis(bps, i, -1)
    t_lo, t_hi = (B._rowsum(weights * S._unit(vals + lam))[:, None] for lam in (lo, hi))
    span = np.where(t_hi > t_lo, t_hi - t_lo, 1.0)
    lam0 = np.where(m <= t_lo, lo, np.where(m >= t_hi, hi, lo + (m - t_lo) * (hi - lo) / span))
    clipped = S._unit(vals + lam0)
    r = m - B._rowsum(weights * clipped)
    interior = (clipped > 1e-9) & (clipped < 1 - 1e-9) & (weights > 0)
    w_in = B._rowsum(np.where(interior, weights, 0.0))
    clipped = np.where(interior, clipped + (r / np.where(w_in > 0, w_in, 1.0))[:, None], clipped)
    return np.where(weights > 0, S._unit(clipped), 0.0)


def _dykstra_reference(x, d, box, affine, deviation, tol, on=None, affine_increment=True,
                       max_iter=S._RowSums.MAX_PASSES):
    """Dykstra's passes between the box and the affine set, every increment
    built on every pass; without `affine_increment`, the box's alone, as
    `_RowSums.project` takes them: the oracle that the fast form matches bit
    for bit.  A row stops once its boxed iterate is within tol of the row
    sums."""
    run = np.ones(len(x), dtype=bool) if on is None else on.copy()
    y = x.copy()
    inc_box = np.zeros_like(y)
    inc_aff = np.zeros_like(y)
    for _it in range(max_iter):
        if not run.any():
            break
        z = box(y + inc_box)
        z_aff = z + inc_aff if affine_increment else z
        y2 = affine(z_aff, d)
        new_box, new_aff = (y + inc_box) - z, z_aff - y2
        stopped = ~run
        if stopped.any():
            y2[stopped] = y[stopped]
            new_box[stopped], new_aff[stopped] = inc_box[stopped], inc_aff[stopped]
        y, inc_box, inc_aff = y2, new_box, new_aff
        run &= deviation(box(y), d) > tol
    return box(y)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_rows(rng, rows, width):
    """Rows of values in [0, 1] with ties and entries at exactly 0 and 1."""
    vals = rng.random((rows, width))
    vals[rng.random(vals.shape) < 0.2] = 0.0
    vals[rng.random(vals.shape) < 0.2] = 1.0
    vals[:, 1::3] = vals[:, :1]  # ties
    return vals


def test_shift_clip_is_its_reference_bit_for_bit():
    # padded stacks of pair-count weights, every row's summing to n(n-1)/2 as
    # in the block space (padding of weight 0, which must come back 0
    # whatever its value), and the n x n space's unit weights, at m = 0, at
    # the row total, and between
    rng = np.random.default_rng(25)
    for trial in range(60):
        rows, width = int(rng.integers(1, 14)), int(rng.integers(1, 12))
        if trial % 4 == 3:
            n = int(rng.integers(3, 12))
            width, total = n * (n - 1) // 2, n * (n - 1) / 2
            weights = np.ones((rows, width))
        else:
            total = 435.0
            weights = np.zeros((rows, width))
            for r in range(rows):
                live = int(rng.integers(1, width + 1))
                weights[r, :live - 1] = rng.integers(1, 435 // width, live - 1)
                weights[r, live - 1] = total - weights[r].sum()
        vals = _random_rows(rng, rows, width)
        for m in (0.0, total, rng.uniform(0, total), float((weights * vals).sum(axis=1).min())):
            fast = S._shift_clip(vals, m, weights, weights > 0, np.arange(rows)[:, None])
            assert _same_bits(fast, _shift_clip_reference(vals, m, weights))


def test_dykstra_is_its_reference_bit_for_bit():
    # the block space's row-sum projection on a padded stack of seeds, from
    # points inside and outside the box, with rows outside `on`; some rows
    # stop after one pass, others take many.  It is the reference without the
    # affine set's increment bit for bit, and within 1e-15 of the reference
    # with it: that increment is normal to the affine set, so it changes
    # only the roundoff
    rng = np.random.default_rng(26)
    prob = S.SolveProblem(((K3, 1.3),), n=60, base=0.3, ensemble=("row_sums", 18))
    specs = [spec for _name, spec in S.default_seeds(prob)]
    space = S._BlockSpace(prob, [spec.sizes for spec in specs])
    packed, sums = space.pack(specs), S._RowSums(60, space.s, space.a, space.b, space.live)
    for trial in range(20):
        on = rng.random(len(packed)) < 0.7
        on[trial % len(on)] = True
        step = rng.normal(0.0, (0.0, 1e-1, 1e-3, 1e-5)[trial % 4], packed.shape)
        y = packed + np.where(space.live, step, 0.0)
        for on_rows in (None, on, np.zeros(len(on), bool)):
            fast = space.project(y, on_rows)
            args = y, 18, S._unit, sums.affine, sums.deviation, space.tol, on_rows
            assert _same_bits(fast, _dykstra_reference(*args, affine_increment=False))
            assert np.abs(fast - _dykstra_reference(*args)).max() <= 1e-15


def test_row_sum_projection_at_n_1000_meets_the_certificate():
    # the projection stops on the point it returns: its row sums, measured as
    # the AL certifies a point, lie within the feasible set's tol (the
    # iterate's own stop left 1.45e-10 here)
    n, d = 1000, 100
    x = np.random.default_rng(n).uniform(0.0, 0.3, (n, n))
    space = S._Feasible(n, ((1,) * n,), ("row_sums", d))
    assert space.residual(space.pack([S.project_ensemble(x, ("row_sums", d))]))[0] <= space.tol


def test_row_sum_projection_stops_only_on_the_certificate_at_regime_scale(monkeypatch):
    # row-sum K3 at n = 1e5, d = 1000, its whole AL solve (DENSE_N_CAP raised
    # so that the AL runs, not the level search).  A value stands for up to
    # 1e5 entries of a row, so an iterate within 1e-11 of the box could stop
    # up to 1e-7 off the row sums once clipped.  Every projection call stops
    # each row it runs before the pass cap, on the certificate
    monkeypatch.setattr(S, "DENSE_N_CAP", 10 ** 6)
    passes, affine, project = [], S._RowSums.affine, S._RowSums.project

    def counted(self, y, d):
        passes[-1] += 1
        return affine(self, y, d)

    def checked(self, x, d, tol, on=None):
        passes.append(0)
        out = project(self, x, d, tol, on)
        rows = np.ones(len(x), dtype=bool) if on is None else on
        assert passes[-1] < self.MAX_PASSES and (self.deviation(out, d)[rows] <= tol).all()
        return out

    monkeypatch.setattr(S._RowSums, "affine", counted)
    monkeypatch.setattr(S._RowSums, "project", checked)
    res = S.solve_phi(S.SolveProblem(((K3, 2.5),), n=100000, base=0.01,
                                     ensemble=("row_sums", 1000)))
    assert passes and res.value == 7673782.43311489
    assert res.seed_provenance == "cycle_blocks_delta_x1.5"


# ---------------------------------------------------------------------------
# approach to theory (stated trend parameters)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trend_values():
    out = []
    for p in (0.2, 0.1, 0.05):
        prob = S.SolveProblem(targets=((K3, 2.0),), n=120, base=p)
        out.append(S.solve_phi(prob).normalized)
    return out


def test_trend_approaches_constant(trend_values):
    c = R.c_er(K3, 1.0).constant
    dists = [abs(v - c) for v in trend_values]
    assert dists[0] > dists[1] > dists[2]


def test_trend_window(trend_values):
    # Stated window [0.8c, 2.5c].  At n=120 the honest finite-n optimum is
    # delocalized (a small uniform raise of the whole matrix), which costs far
    # less than the asymptotic structured rate, so this window cannot hold for
    # a solver that is allowed to polish the constant seed.  Kept as stated.
    c = R.c_er(K3, 1.0).constant
    for v in trend_values:
        assert 0.8 * c <= v <= 2.5 * c


@pytest.mark.parametrize("ensemble, shift, kept", [
    (("row_sums", 9), 1e-12, True),         # row residual 2.9e-11 <= 1e-10
    (("row_sums", 9), 1e-11, False),        # 2.9e-10
    (("total_weight", 130), 1e-10, True),   # total residual 4.4e-8 <= 1.3e-7
    (("total_weight", 130), 5e-10, False),  # 2.2e-7
])
def test_incumbents_kept_by_measured_residual(monkeypatch, ensemble, shift, kept):
    # every projection lands `shift` above the set on each vertex pair, and
    # so does every point on a segment between two of them; the solver keeps
    # a point only when its own residual is within tolerance, without
    # projecting it
    n = 30
    base = 130 / 435 if ensemble[0] == "total_weight" else 0.3
    prob = S.SolveProblem(targets=((K3, 1.3),), n=n, base=base, ensemble=ensemble)
    for space in SPACES:
        with monkeypatch.context() as mp:
            runs = _run_on(mp, space)
            al_stack = S._al_stack

            def off_the_set(problem, sp, x0):
                project = sp.project

                def shifted(x, on=None):
                    y = project(x, on) + shift
                    if y.ndim == 3:  # a matrix keeps its zero diagonal
                        y[:, range(n), range(n)] = 0.0
                    else:  # and padding holds no vertex pair
                        y[~sp.live] = 0.0
                    return y

                mp.setattr(sp, "project", shifted)
                return al_stack(problem, sp, x0)

            mp.setattr(S, "_al_stack", off_the_set)
            if kept:
                res = S.solve_phi(prob)
                assert res.residuals[0] <= 1e-6
                assert 0 < res.ensemble_residual <= 1.3e-7
            else:  # no AL run keeps a point, so the solve asks the level search
                mp.setattr(S, "_level_search", _no_level_search)
                with pytest.raises(ResourceError, match="the level search was asked"):
                    S.solve_phi(prob)
        assert set(runs) == {space}


def _no_level_search(_problem):
    raise ResourceError("the level search was asked")


@pytest.mark.parametrize("ensemble", [None, ("row_sums", 9)])
def test_default_seed_names_unique_on_multi_pattern_problems(ensemble):
    # each ladder tag ends in the position of the pattern its construction
    # was built for; without it K3's and C5's plants shared names such as
    # plant_clique_delta_x1 (cycle_blocks_delta_x1 under row sums)
    c5 = G.cycle(5)
    prob = S.SolveProblem(((K3, 1.2), (c5, 1.3)), n=30, base=0.3, ensemble=ensemble)
    names = [name for name, _x in S.default_seeds(prob)]
    assert len(names) == len(set(names))
    assert {re.search(r"_(h\d)_delta", name).group(1) for name in names[1:]} == {"h1", "h2"}
    plain = [re.sub(r"_h\d", "", name) for name in names]
    assert len(set(plain)) < len(plain)
    # a single pattern keeps the plain tags
    k3 = [name for name, _x in S.default_seeds(S.SolveProblem(((K3, 1.3),), n=30, base=0.3))]
    assert k3 == ["constant", "plant_clique_delta_x1", "plant_clique_delta_x1.5",
                  "plant_hub_delta_x2", "plant_clique_delta_x2", "plant_both_delta_x2",
                  "plant_clique_delta_x3", "plant_both_delta_x3", "plant_clique_delta_x5",
                  "plant_both_delta_x5", "plant_hub_delta_x8", "plant_clique_delta_x8",
                  "plant_both_delta_x8"]
    rows = S.SolveProblem(((c5, 1.3),), n=30, base=0.3, ensemble=("row_sums", 9))
    assert [name for name, _x in S.default_seeds(rows)] == [
        "constant", "cycle_blocks_delta_x1", "cycle_blocks_delta_x1.5", "cycle_blocks_delta_x3"]


def test_row_sum_ladder_reaches_k4():
    # build_clique_block caps its clique at d/2 = 6, below hom 1.3; the
    # whole-clique shape sized by the exact hom reaches it
    k4 = G.clique(4)
    prob = S.SolveProblem(((k4, 1.3),), n=40, base=0.3, ensemble=("row_sums", 12))
    tags = [tag for tag, _spec in S.ladder(prob, [0.3])[0]]
    assert tags == ["clique_block", "whole_cliques"]
    res = S.solve_phi(prob)
    assert res.value <= 70.09
    assert res.residuals[0] <= 1e-6 and res.ensemble_residual <= 1e-9
    assert res.seed_provenance.startswith("whole_cliques_delta_x")


def test_row_sums_fix_the_base_at_d_over_n():
    with pytest.raises(DomainError, match="d/n"):
        S.SolveProblem(((K3, 1.3),), n=60, base=0.1, ensemble=("row_sums", 18))
    with pytest.raises(DomainError, match="d/n"):
        S.SolveProblem(((K3, 1.3),), n=60, base=0.3 * (1 + 1e-11), ensemble=("row_sums", 18))
    assert _solve(K3, 1.3, 60, 0.3, ensemble=("row_sums", 18)).residuals[0] <= 1e-6
    # total weight keeps its base as posed: m / C(n, 2) = 0.305 at base 0.3
    S.SolveProblem(((K3, 1.3),), n=60, base=0.3, ensemble=("total_weight", 540))
    with pytest.raises(DomainError, match=r"\(0,1\)"):
        S.SolveProblem(((K3, 1.3),), n=60, base=1.0)


def test_row_sum_ladder_builds_from_the_two_core():
    # on a d-regular graph a pendant edge multiplies hom by d, so the
    # triangle with a pendant edge is planted as its 2-core, the triangle
    pendant = G.Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    diamond_tail = G.Graph(5, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (3, 4)))

    def rungs(h, ensemble):
        prob = S.SolveProblem(targets=((h, 1.3),), n=60, base=0.3, ensemble=ensemble)
        return S.ladder(prob, [0.6])[0]

    rows = ("row_sums", 18)
    assert rungs(pendant, rows) == rungs(K3, rows) != []
    assert rungs(G.path(4), rows) == []          # a tree has an empty 2-core
    assert rungs(diamond_tail, rows) == []       # an irregular 2-core has no rung
    # off the regular ensemble the pattern is planted as it is
    assert rungs(pendant, None) != rungs(K3, None)


def test_normalized_takes_delta_of_the_two_core_under_row_sums():
    pendant = G.Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    prob = S.SolveProblem(targets=((pendant, 1.0),), n=30, base=0.3,
                          ensemble=("row_sums", 9))
    res = S.solve_phi(prob)
    assert res.normalized == res.value / R.scale_anp(30, 0.3, 2)
    # off the regular ensemble Delta is the pattern's own
    total = ("total_weight", 140)
    free = S.solve_phi(S.SolveProblem(targets=((pendant, 1.0),), n=30, base=0.3,
                                      ensemble=total))
    assert free.value > 0 and free.normalized == free.value / R.scale_anp(30, 0.3, 3)
    # a pattern of Delta < 2 is normalized at the floor Delta = 2
    edge = S.solve_phi(S.SolveProblem(targets=((G.clique(2), 1.0),), n=30, base=0.3,
                                      ensemble=total))
    assert edge.value > 0 and edge.normalized == edge.value / R.scale_anp(30, 0.3, 2)


# ---------------------------------------------------------------------------
# both paths: targets <= 1, trees under row sums, seeds, constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ensemble,level", [
    (None, Fraction(0.01)),
    (("row_sums", 30), Fraction(30, 2999)),
    (("total_weight", 44985), Fraction(1, 100)),
])
def test_block_solve_targets_at_most_one_give_the_constant_witness(ensemble, level):
    n = 3000
    prob = S.SolveProblem(((K3, 1.0), (G.cycle(5), 0.8)), n=n, base=0.01, ensemble=ensemble)
    res = S.solve_phi(prob)
    assert res.x.sizes == (n,) and res.x.values == ((level,),)
    assert (res.seed_provenance, res.iterations, res.notes) == ("constant", 0, [S.CONSTANT_NOTE])
    assert res.ensemble_residual == 0.0
    assert res.value == 0.5 * res.x.entropy(0.01)
    assert res.residuals[0] <= 3.0 / n  # the documented O(1/n) slack at t = 1


@pytest.mark.parametrize("ensemble", [None, ("row_sums", 18), ("total_weight", 531)])
def test_both_paths_answer_targets_at_most_one_alike(ensemble, monkeypatch):
    # one constant witness, taken before routing: whichever method the
    # problem routes to, the same BlockSpec and the same result, with no
    # hom DP on an n x n matrix
    def no_dp(*_a, **_k):
        raise AssertionError("the n x n hom DP ran")

    monkeypatch.setattr(H, "_dp_sum", no_dp)
    prob = S.SolveProblem(((K3, 1.0),), n=60, base=0.3, ensemble=ensemble)
    results = []
    for dense in (True, False):
        monkeypatch.setattr(S, "_dense_witness", lambda _prob, dense=dense: dense)
        res = S.solve_phi(prob)
        results.append((res.x, res.to_json()))
    assert results[0] == results[1]
    assert results[0][0].sizes == (60,) and results[0][1]["ensemble_residual"] == 0.0


def test_k4_below_one_is_one_constant_block_without_the_dp(monkeypatch):
    # the constant witness is measured by its closed forms, not on a 500 x 500 matrix
    def no_dp(*_a, **_k):
        raise AssertionError("the n x n hom DP ran")

    monkeypatch.setattr(H, "_dp_sum", no_dp)
    res = S.solve_phi(S.SolveProblem(((G.clique(4), 0.9),), n=500, base=0.1))
    assert res.x == B.BlockSpec((500,), ((Fraction(0.1),),))
    assert (res.value, res.seed_provenance, res.iterations) == (0.0, "constant", 0)
    assert res.residuals == [0.0] and res.notes == [S.CONSTANT_NOTE]


def test_block_solve_refuses_seeds(monkeypatch):
    # a user seed that fits neither the compiled block homs nor an n x n DP
    # is refused before any run: a matrix at K4, n = 600, past DP_CELL_CAP
    seed = np.full((600, 600), 0.1) - np.diag(np.full(600, 0.1))
    with monkeypatch.context() as mp:
        mp.setattr(S, "_al_stack", _must_not_run)
        with pytest.raises(ResourceError, match="seed user_0 is past"):
            S.solve_phi(S.SolveProblem(((G.clique(4), 1.3),), n=600, base=0.1, seeds=(seed,)))
    # a one-block seed past DENSE_N_CAP runs on the AL with the ladder
    seed = B.BlockSpec((3000,), ((Fraction(1, 50),),))
    res = S.solve_phi(S.SolveProblem(((K3, 2.0),), n=3000, base=0.02, seeds=(seed,)))
    assert isinstance(res.x, B.BlockSpec) and res.residuals[0] <= 1e-6
    assert res.seed_provenance != "block_search"


def test_target_past_the_complete_graph_is_refused_before_any_seed(monkeypatch):
    # no matrix's count passes that of J - I, P_H(n) / n^v normalized: K3 at
    # n = 30, p = 0.3 reads 30 * 29 * 28 / (27000 * 0.027) = 33.4156...
    monkeypatch.setattr(S, "default_seeds", _must_not_run)
    bound = 30 * 29 * 28 / 30 ** 3 / 0.3 ** 3
    assert B.complete_density(K3, 30) * 0.3 ** -3 == pytest.approx(bound, rel=1e-15)
    tol = S.SolveProblem.feasibility_tol
    with pytest.raises(DomainError, match="complete graph K_30"):
        S.solve_phi(S.SolveProblem(((K3, bound + 2 * tol),), n=30, base=0.3))
    S._refuse_unreachable(S.SolveProblem(((K3, bound + 0.5 * tol),), n=30, base=0.3))
    # the bound is J - I's count, by the DP too, on C5 and K4
    x = np.ones((9, 9)) - np.eye(9)
    for h in (G.cycle(5), G.clique(4)):
        assert B.complete_density(h, 9) == pytest.approx(H.hom_density_t(h, x), rel=1e-14)


@pytest.mark.parametrize("n,d", [pytest.param(60, 18, id="solve_phi"),
                                 pytest.param(3000, 30, id="level_search")])
def test_tree_above_one_under_row_sums_refused_before_any_seed(n, d, monkeypatch):
    # solve_phi refuses first, on either method: n x n at n = 60, the level
    # search at n = 3000
    def no_seed(*_a, **_k):
        raise AssertionError("a seed was built")

    monkeypatch.setattr(S, "ladder", no_seed)
    monkeypatch.setattr(S, "default_seeds", no_seed)
    for h in (G.star(3), G.path(4)):
        prob = S.SolveProblem(((h, 1.3),), n=n, base=d / n, ensemble=("row_sums", d))
        assert S._dense_witness(prob) == (n == 60)
        with pytest.raises(DomainError, match="2-core is empty"):
            S.solve_phi(prob)
    # the reason: a tree's count is 1 on every matrix of row sums d, at base d/n
    x = B.build_cycle_blocks(60, 18, 1.0, 3).materialize()
    assert H.hom_normalized(G.star(3), x, 0.3) == pytest.approx(1.0, rel=1e-12)


def test_entropy_grad_one_formula_for_scalar_and_matrix_bases():
    x = np.random.default_rng(3).random((8, 8))
    x = 0.5 * (x + x.T)
    p = 0.3
    xc = np.clip(x, S.EPS, 1 - S.EPS)
    expect = np.log(xc * (1 - p)) - np.log(p * (1 - xc))
    np.fill_diagonal(expect, 0.0)
    assert np.array_equal(_entropy_grad(x, p), expect)
    assert np.array_equal(_entropy_grad(x, np.full((8, 8), p)), expect)


def test_feasibility_tol_is_a_constant():
    assert "feasibility_tol" not in {f.name for f in dataclasses.fields(S.SolveProblem)}
    assert S.SolveProblem(((K3, 1.3),), n=10, base=0.3).feasibility_tol == 1e-6

"""Variational solver: projections, feasibility contracts, nesting, trends."""

import numpy as np
import pytest

from uptail import blocks as B
from uptail import ensembles as E
from uptail import graphs as G
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

    feas_vals = [
        0.5 * R.entropy_matrix(x, p)
        for _name, x in seeds
        if hom_normalized(K3, x, p) >= 1.3 - 1e-6
    ]
    assert feas_vals, "seed ladder must contain a feasible start"
    assert res.value <= min(feas_vals) * (1 + 1e-4)


def test_monotone_in_target():
    v1 = _solve(K3, 1.2, 50, 0.3).value
    v2 = _solve(K3, 1.5, 50, 0.3).value
    assert v2 >= v1 - 1e-4 * (1 + v1)


def test_nesting_of_ensembles():
    n, p = 60, 0.3
    d = 18
    m = n * d // 2
    res_d = _solve(K3, 1.3, n, p, ensemble=("row_sums", d))
    res_m = _solve(K3, 1.3, n, p, ensemble=("total_weight", m), seeds=[res_d.x])
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


def test_normalized_scale():
    res = _solve(K3, 1.3, 60, 0.3)
    assert res.normalized == pytest.approx(
        res.value / R.scale_anp(60, 0.3, 2), rel=1e-12
    )
    assert S.normalized_phi(res, 2) == pytest.approx(res.normalized, rel=1e-12)
    # rescaling at a different Delta: value / (n^2 p^Delta log(1/p))
    assert S.normalized_phi(res, 3) == pytest.approx(
        res.value / R.scale_anp(60, 0.3, 3), rel=1e-12
    )
    zero = _solve(K3, 1.0, 30, 0.3)
    assert S.normalized_phi(zero, 2) == 0.0
    with pytest.raises(DomainError):
        S.normalized_phi(res, 1)


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


def test_block_model_base_with_hom_scale():
    params = R.BlockModelParams((0.5, 0.5), ((2.0, 1.0), (1.0, 0.5)), 0.2)
    n = 30
    pm = params.edge_probability_matrix(n)
    target = 1.1 * R.b_h(K3, params)
    prob = S.SolveProblem(targets=((K3, target),), n=n, base=pm, hom_scale=0.2)
    res = S.solve_phi(prob)
    assert res.residuals[0] <= 1e-6
    assert res.value > 0
    with pytest.raises(DomainError):
        S.SolveProblem(targets=((K3, 1.0),), n=n, base=pm)  # missing hom_scale
    with pytest.raises(DomainError, match="scalar base"):
        S.solve_phi_blocks(prob)  # plants on constant p, not on the block base


def test_matrix_base_below_its_targets_is_solved():
    # targets <= 1 in units of p^e: a matrix base's own hom value is not near
    # 1, so the constant-base shortcut must not accept it unmeasured
    params = R.BlockModelParams((0.5, 0.5), ((1.0, 0.5), (0.5, 1.0)), 0.3)
    n = 12
    pm = params.edge_probability_matrix(n)
    target = 1.3 * R.b_h(K3, params)
    assert target <= 1
    res = S.solve_phi(S.SolveProblem(targets=((K3, target),), n=n, base=pm, hom_scale=0.3))
    assert res.residuals[0] <= 1e-6 and res.value > 0 and not res.notes
    # a matrix base that meets its targets is still accepted as it stands
    low = 0.5 * R.b_h(K3, params)
    res = S.solve_phi(S.SolveProblem(targets=((K3, low),), n=n, base=pm, hom_scale=0.3))
    assert res.value == 0.0 and res.residuals[0] == 0.0 and res.iterations == 0


def test_dense_cap_directs_to_block_path():
    with pytest.raises(Exception) as err:
        S.solve_phi(S.SolveProblem(targets=((K3, 1.3),), n=5000, base=0.1))
    assert "solve_phi_blocks" in str(err.value)


def test_block_solve_row_sums_large_n():
    prob = S.SolveProblem(
        targets=((K3, 2.5),), n=100_000, base=0.01, ensemble=("row_sums", 1000)
    )
    res = S.solve_phi_blocks(prob)
    assert res.residuals[0] == 0.0
    assert res.ensemble_residual == 0.0
    # normalized value sits above the asymptotic constant (finite-size excess)
    assert res.normalized >= R.c_reg(K3, 1.5).constant


def test_block_solve_free_matches_theory_scale():
    prob = S.SolveProblem(targets=((K3, 2.0),), n=50_000, base=0.02)
    res = S.solve_phi_blocks(prob)
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
    specs = [spec for _tag, spec in S.ladder(rows, delta)]
    assert specs
    for spec in specs:
        assert B.validate_membership(spec, E.regular(n, d)).deviation == 0.0
    m = n * d // 2
    total = S.SolveProblem(targets=tuple((h, 2.0) for h in hs), n=n,
                           base=m / (n * (n - 1) / 2), ensemble=("total_weight", m))
    tags = [tag for tag, _spec in S.ladder(total, delta)]
    assert {"plant_hub", "plant_clique", "plant_both"} <= set(tags)
    for _tag, spec in S.ladder(total, delta):
        filled = B.fill_total_weight(spec, m)
        assert B.validate_membership(filled, E.uniform(n, m)).deviation == 0.0


@pytest.mark.parametrize("ensemble", [None, ("row_sums", 18)])
def test_dense_never_worse_than_block(ensemble):
    # the dense solve starts from the materialized ladder, so it can only
    # improve on the block search over the same constructions
    n = 40 if ensemble is None else 60
    prob = S.SolveProblem(targets=((K3, 1.3),), n=n, base=0.3, ensemble=ensemble)
    dense = S.solve_phi(prob)
    block = S.solve_phi_blocks(prob)
    assert dense.value <= block.value * (1 + 1e-9)


# ---------------------------------------------------------------------------
# inner loop: spectral projected gradient
# ---------------------------------------------------------------------------

def _record_calls(monkeypatch, name, seen=None):
    """Wrap solver.<name>; the list gets seen(*args), or None, per call."""
    calls = []
    inner = getattr(S, name)

    def counted(*args, **kwargs):
        calls.append(None if seen is None else seen(*args))
        return inner(*args, **kwargs)

    monkeypatch.setattr(S, name, counted)
    return calls


@pytest.mark.parametrize("h, n, ensemble", [
    (K3, 30, None),
    (K3, 30, ("total_weight", 130)),
    (G.clique(4), 20, None),
])
def test_about_one_hom_value_per_gradient(monkeypatch, h, n, ensemble):
    # spectral steps are mostly accepted at t = 1, and an accepted point's
    # evaluation is carried into the next step and the next inner call, so
    # each accepted step costs about one evaluation.  Every step projects
    # once; an inner call's last projection may accept nothing, and each run
    # projects its seed once, so accepted steps number at least
    # projections - inner calls - runs.
    base = 130 / 435 if ensemble else 0.3
    evals = _record_calls(monkeypatch, "_evaluate")
    projections = _record_calls(monkeypatch, "project_ensemble")
    inner_calls = _record_calls(monkeypatch, "_inner_pg")
    runs = _record_calls(monkeypatch, "_al_single")
    S.solve_phi(S.SolveProblem(targets=((h, 1.3),), n=n, base=base, ensemble=ensemble))
    accepted = len(projections) - len(inner_calls) - len(runs)
    assert accepted > 0
    assert len(evals) <= 1.5 * accepted


def test_inner_loop_stops_at_its_own_fixed_point(monkeypatch):
    # once the directional derivative is below f's roundoff, a call returns
    # without searching along a step that cannot decrease f; a second call
    # there takes the carried evaluation and evaluates nothing
    h, n = G.clique(4), 20
    prob = S.SolveProblem(targets=((h, 1.3),), n=n, base=0.3)
    targets = np.array([1.3])
    lam, rho = np.array([10.0]), 10.0
    x = prob.base_matrix()
    ev, step = S._evaluate(prob, x), 1.0
    calls = _record_calls(monkeypatch, "_evaluate")
    x, ev, step = S._inner_pg(prob, x, ev, targets, lam, rho, step, max_steps=2000)
    assert len(calls) < 100  # converged, not out of steps
    calls.clear()
    S._inner_pg(prob, x, ev, targets, lam, rho, step)
    assert len(calls) == 0


def test_total_weight_iterates_stay_on_the_constraint(monkeypatch):
    # a backtrack moves along the segment between two feasible points, so
    # every point the solver evaluates keeps its total weight
    n, m = 30, 130
    residuals = _record_calls(
        monkeypatch, "_evaluate",
        seen=lambda _problem, x: S.ensemble_residual(x, ("total_weight", m)))
    S.solve_phi(S.SolveProblem(targets=((K3, 1.3),), n=n, base=m / 435,
                               ensemble=("total_weight", m)))
    assert residuals
    assert max(residuals) <= 1e-9


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
    # every projection lands `shift` above the set in each entry, and so does
    # every point on a segment between two of them; the solver keeps a point
    # only when its own residual is within tolerance, without projecting it
    n = 30
    project = S.project_ensemble

    def off_the_set(x, constraint):
        y = project(x, constraint) + shift
        np.fill_diagonal(y, 0.0)
        return y

    monkeypatch.setattr(S, "project_ensemble", off_the_set)
    base = 130 / 435 if ensemble[0] == "total_weight" else 0.3
    prob = S.SolveProblem(targets=((K3, 1.3),), n=n, base=base, ensemble=ensemble)
    if kept:
        res = S.solve_phi(prob)
        assert res.residuals[0] <= 1e-6
        assert 0 < res.ensemble_residual <= 1.3e-7
    else:
        with pytest.raises(ResourceError):
            S.solve_phi(prob)

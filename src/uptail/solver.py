"""Numerical upper bounds for the entropy-minimization problems.

Minimize half the relative entropy over symmetric [0,1] matrices with zero
diagonal, subject to normalized homomorphism counts meeting their targets,
optionally restricted to fixed total weight or fixed row sums.  Augmented
Lagrangian outer loop, projected gradient inner loop, multi-start from the
block constructions.  Results are certified upper bounds with witnesses;
no global-optimality claim is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockSpec, build_clique_block, build_cycle_blocks
from .errors import ConstructionError, DomainError, NumericError, ResourceError
from .graphs import Graph
from .homs import hom_gradient, hom_normalized
from .rates import entropy_matrix, scale_anp, theta_root

EPS = 1e-12


@dataclass(frozen=True)
class SolveProblem:
    targets: tuple                    # ((Graph, t), ...)
    n: int
    base: object                      # scalar p or (n, n) matrix
    ensemble: tuple | None = None     # None, ("total_weight", m), ("row_sums", d)
    seeds: tuple = ()                 # extra starting points (ndarray or BlockSpec)
    feasibility_tol: float = 1e-6
    value_tol: float = 1e-4
    budget: int = 500
    hom_scale: float | None = None    # sparsity p for hom normalization when
                                      # base is a matrix (block model)

    def __post_init__(self):
        if not self.targets:
            raise DomainError("need at least one (pattern, target) pair")
        for h, t in self.targets:
            if not isinstance(h, Graph):
                raise DomainError("targets must pair Graph with a threshold")
            if self.n < h.vertex_count:
                raise DomainError("n must be at least the pattern order")
        if self.ensemble is not None and self.ensemble[0] not in ("total_weight", "row_sums"):
            raise DomainError(f"unknown ensemble constraint {self.ensemble!r}")
        base_is_matrix = not (np.isscalar(self.base) or np.asarray(self.base).ndim == 0)
        if self.hom_scale is not None and not (0 < self.hom_scale < 1):
            raise DomainError("hom_scale must be in (0,1)")
        if base_is_matrix and self.hom_scale is None:
            raise DomainError("matrix base needs hom_scale (the block model's p)")

    def base_matrix(self) -> np.ndarray:
        if np.isscalar(self.base) or np.asarray(self.base).ndim == 0:
            p = float(self.base)
            if not (0 < p < 1):
                raise DomainError("base p must be in (0,1)")
            x = np.full((self.n, self.n), p)
        else:
            x = np.asarray(self.base, dtype=float).copy()
            if x.shape != (self.n, self.n):
                raise DomainError("base matrix shape must be (n, n)")
        np.fill_diagonal(x, 0.0)
        return x

    def hom_p(self) -> float:
        """Scalar p used inside hom normalization (block model keeps its base p)."""
        if self.hom_scale is not None:
            return self.hom_scale
        return float(self.base)


@dataclass
class SolveResult:
    x: object                 # ndarray witness, or BlockSpec from the block path
    value: float
    normalized: float
    residuals: list
    ensemble_residual: float
    seed_provenance: str
    iterations: int
    n: int = 0
    p: float = 0.0            # sparsity used for hom normalization
    notes: list = field(default_factory=list)

    def to_json(self):
        return {
            "value": self.value,
            "normalized": self.normalized,
            "residuals": self.residuals,
            "ensemble_residual": self.ensemble_residual,
            "seed_provenance": self.seed_provenance,
            "iterations": self.iterations,
            "notes": self.notes,
        }


def normalized_phi(result: SolveResult, dmax: int) -> float:
    """Solve value rescaled by n^2 p^Delta log(1/p) at a caller-chosen Delta
    (use the 2-core's maximum degree)."""
    if dmax < 2:
        raise DomainError("Delta must be >= 2 (take the 2-core's max degree)")
    if result.value == 0.0:
        return 0.0
    return result.value / scale_anp(result.n, result.p, dmax)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def _box(x):
    y = np.clip(x, 0.0, 1.0)
    y = 0.5 * (y + y.T)
    np.fill_diagonal(y, 0.0)
    return y


def _shift_clip(vals, m):
    """Exact solve of sum clip(v + lam, 0, 1) = m via the sorted breakpoints."""
    lo = np.sort(-vals)          # lambda where each entry leaves 0
    hi = np.sort(1.0 - vals)     # lambda where each entry saturates at 1
    # total(lam) is piecewise linear nondecreasing; binary search on breakpoints
    bps = np.concatenate([lo, hi])
    bps.sort(kind="mergesort")

    def total(lam):
        return float(np.clip(vals + lam, 0.0, 1.0).sum())

    i, j = 0, len(bps) - 1
    if total(bps[0]) >= m:
        lam0 = bps[0]
    elif total(bps[-1]) <= m:
        lam0 = bps[-1]
    else:
        while j - i > 1:
            k = (i + j) // 2
            if total(bps[k]) < m:
                i = k
            else:
                j = k
        t_i, t_j = total(bps[i]), total(bps[j])
        lam0 = bps[i] if t_j == t_i else bps[i] + (m - t_i) * (bps[j] - bps[i]) / (t_j - t_i)
    clipped = np.clip(vals + lam0, 0.0, 1.0)
    # absorb float residue on strictly interior entries
    r = m - clipped.sum()
    interior = (clipped > 1e-9) & (clipped < 1 - 1e-9)
    if interior.any():
        clipped[interior] += r / interior.sum()
        clipped = np.clip(clipped, 0.0, 1.0)
    return clipped


def _project_total_weight(x, m, tol=1e-10):
    """Projection onto {sum_{i<j} x = m} within the box: shift and clip."""
    n = x.shape[0]
    iu = np.triu_indices(n, 1)
    vals = x[iu]
    if not (0 <= m <= vals.size):
        raise DomainError("total weight target outside [0, n(n-1)/2]")
    clipped = _shift_clip(vals, m)
    out = np.zeros_like(x)
    out[iu] = clipped
    out = out + out.T
    if abs(np.triu(out, 1).sum() - m) > max(tol, 1e-9 * max(1.0, m)):
        raise NumericError("total-weight projection did not converge")
    return out


def _project_rows_affine(x, d):
    """Euclidean projection onto {X sym, zero diag, row sums = d} (no box)."""
    n = x.shape[0]
    r = x.sum(axis=1)
    s = (n * d - r.sum()) / (2.0 * (n - 1))
    mu = (d - r - s) / (n - 2.0)
    y = x + mu[:, None] + mu[None, :]
    np.fill_diagonal(y, 0.0)
    return y


def _project_row_sums(x, d, tol=1e-11, max_iter=5000, strict=True):
    """Dykstra alternation between the box and the row-sum affine set.

    strict=False returns the best clipped iterate without certifying the
    row residual (cheap inexact projections for inner line searches).
    """
    n = x.shape[0]
    if not (0 < d <= n - 1):
        raise DomainError("row-sum target must be in (0, n-1]")
    if not strict:
        max_iter = min(max_iter, 400)
    y = x.copy()
    inc_box = np.zeros_like(y)
    inc_aff = np.zeros_like(y)
    for it in range(max_iter):
        z = _box(y + inc_box)
        inc_box = (y + inc_box) - z
        y2 = _project_rows_affine(z + inc_aff, d)
        inc_aff = (z + inc_aff) - y2
        y = y2
        if (
            y.min() >= -tol
            and y.max() <= 1 + tol
            and np.abs(y.sum(axis=1) - d).max() < tol
        ):
            break
    out = _box(y)
    if strict and np.abs(out.sum(axis=1) - d).max() >= 1e-10:
        raise NumericError("row-sum projection did not converge")
    return out


def project_ensemble(x, constraint, strict=True):
    """Project onto the box intersected with the ensemble's affine set."""
    x = np.asarray(x, dtype=float)
    if constraint is None:
        return _box(x)
    kind, val = constraint
    if kind == "total_weight":
        return _project_total_weight(_box(x), val)
    if kind == "row_sums":
        return _project_row_sums(x, val, strict=strict)
    raise DomainError(f"unknown constraint {kind!r}")


def ensemble_residual(x, constraint) -> float:
    if constraint is None:
        return 0.0
    kind, val = constraint
    if kind == "total_weight":
        return abs(float(np.triu(x, 1).sum()) - val)
    if kind == "row_sums":
        return float(np.abs(x.sum(axis=1) - val).max())
    raise DomainError(f"unknown constraint {kind!r}")


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def _er_plant_seed(n, p, x_level, y_level, dmax):
    """Hub + clique planted on a constant-p background (no weight repair)."""
    s1 = round(x_level * p ** dmax * n)
    s2 = round(y_level * p ** (dmax / 2.0) * n)
    if s1 + s2 >= n or (s1 == 0 and s2 == 0):
        raise ConstructionError("seed blocks round to nothing at this scale")
    x = np.full((n, n), p)
    if s1:
        x[:s1, :] = 1.0
        x[:, :s1] = 1.0
    if s2:
        x[s1:s1 + s2, s1:s1 + s2] = 1.0
    np.fill_diagonal(x, 0.0)
    return x


def default_seeds(problem: SolveProblem):
    """Constant base plus block constructions at an inflated-delta ladder."""
    n = problem.n
    p = problem.hom_p()
    seeds = [("constant", problem.base_matrix())]
    dmaxes = {h.max_degree() for h, _ in problem.targets}
    dmax = min(dmaxes)
    tmax = max(t for _, t in problem.targets)
    if tmax <= 1:
        return seeds
    kind = problem.ensemble[0] if problem.ensemble else None
    for mult in (1.0, 1.5, 2.0, 3.0, 5.0, 8.0):
        delta = (tmax - 1.0) * mult
        label = f"delta_x{mult:g}"
        for h, _ in problem.targets:
            try:
                if kind == "row_sums":
                    d = problem.ensemble[1]
                    if h.max_degree() == 2:
                        spec = build_cycle_blocks(n, int(round(d)), delta, h.vertex_count)
                    elif h.is_regular():
                        spec = build_clique_block(n, int(round(d)), delta, h)
                    else:
                        continue
                    seeds.append((f"cycle_blocks_{label}", spec.materialize()))
                else:
                    xh = theta_root(h, delta)
                    yc = delta ** (1.0 / h.vertex_count) if h.is_regular() else 0.0
                    for (xl, yl, tag) in ((xh, 0.0, "hub"), (0.0, yc, "clique"), (xh, yc, "both")):
                        try:
                            seed = _er_plant_seed(n, p, xl, yl, h.max_degree())
                        except ConstructionError:
                            continue
                        if kind == "total_weight":
                            seed = _project_total_weight(seed, problem.ensemble[1])
                        seeds.append((f"plant_{tag}_{label}", seed))
            except (ConstructionError, DomainError):
                continue
    # dedupe by fingerprint
    out, seen = [], set()
    for name, s in seeds:
        key = (round(float(s.sum()), 6), round(float((s * s).sum()), 6))
        if key not in seen:
            seen.add(key)
            out.append((name, s))
    return out


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def _entropy_value(x, base):
    return 0.5 * entropy_matrix(x, base)


def _entropy_grad(x, base):
    """d/dx_uv of sum_{u<v} I(x_uv): the log-odds ratio, entrywise."""
    xc = np.clip(x, EPS, 1 - EPS)
    if np.isscalar(base) or np.asarray(base).ndim == 0:
        p = float(base)
        g = np.log(xc * (1 - p)) - np.log(p * (1 - xc))
    else:
        pm = np.clip(np.asarray(base, dtype=float), EPS, 1 - EPS)
        g = np.log(xc * (1 - pm)) - np.log(pm * (1 - xc))
    np.fill_diagonal(g, 0.0)
    return g


def _hom_vals(problem, x):
    p = problem.hom_p()
    return np.array([hom_normalized(h, x, p) for h, _t in problem.targets])


def _hom_grads(problem, x):
    p = problem.hom_p()
    return [hom_gradient(h, x) / p ** h.edge_count for h, _t in problem.targets]


DENSE_N_CAP = 2000


def solve_phi(problem: SolveProblem, threads: int = 1) -> SolveResult:
    """Multi-start augmented-Lagrangian solve; returns the best feasible
    point found (a certified upper bound on the infimum).

    Dense iterates cap at n = 2000; use solve_phi_blocks beyond that.
    Multi-start seeds run independently (optionally on a thread pool) and
    reduce by minimum value, deterministically."""
    n = problem.n
    if n > DENSE_N_CAP:
        raise ResourceError(
            f"dense solve capped at n = {DENSE_N_CAP}; use solve_phi_blocks"
        )
    targets = np.array([t for _, t in problem.targets], dtype=float)

    if (targets <= 1.0).all():
        # constant base is the optimum up to the documented O(1/n) slack
        x0 = project_ensemble(problem.base_matrix(), problem.ensemble)
        vals = _hom_vals(problem, x0)
        res = [max(0.0, t - v) for t, v in zip(targets, vals)]
        return SolveResult(
            x=x0,
            value=_entropy_value(x0, problem.base),
            normalized=_normalize(problem, _entropy_value(x0, problem.base)),
            residuals=res,
            ensemble_residual=ensemble_residual(x0, problem.ensemble),
            seed_provenance="constant",
            iterations=0,
            n=problem.n,
            p=problem.hom_p(),
            notes=["targets <= 1: constant base accepted with O(1/n) slack"],
        )

    seed_list = list(default_seeds(problem))
    for i, s in enumerate(problem.seeds):
        mat = s.materialize() if isinstance(s, BlockSpec) else np.asarray(s, dtype=float)
        seed_list.append((f"user_{i}", mat))

    best = None  # (value, x, name, iters)
    total_iters = 0
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_al_single, problem, s, targets) for _n, s in seed_list]
            candidates = [f.result() for f in futures]  # reduced in seed order
    else:
        candidates = [_al_single(problem, s, targets) for _n, s in seed_list]
    for (name, _seed), cand in zip(seed_list, candidates):
        total_iters += cand[3]
        if cand[0] is not None and (best is None or cand[0] < best[0]):
            best = (cand[0], cand[1], name, cand[3])

    if best is None:
        raise ResourceError(
            "no feasible point found within budget from any seed"
        )
    value, x, name, _ = best
    vals = _hom_vals(problem, x)
    return SolveResult(
        x=x,
        value=value,
        normalized=_normalize(problem, value),
        residuals=[max(0.0, t - v) for t, v in zip(targets, vals)],
        ensemble_residual=ensemble_residual(x, problem.ensemble),
        seed_provenance=name,
        iterations=total_iters,
        n=problem.n,
        p=problem.hom_p(),
        notes=[],
    )


def _normalize(problem, value):
    dmax = min(h.max_degree() for h, _ in problem.targets)
    dmax = max(dmax, 2)
    return value / scale_anp(problem.n, problem.hom_p(), dmax)


# ---------------------------------------------------------------------------
# block-parameterized solve (large n)
# ---------------------------------------------------------------------------

def _block_candidates(problem, delta):
    """Construction-shaped BlockSpecs targeting excess level delta."""
    from fractions import Fraction

    n = problem.n
    p = problem.hom_p()
    kind = problem.ensemble[0] if problem.ensemble else None
    out = []
    for h, _t in problem.targets:
        dmax = h.max_degree()
        if kind == "row_sums":
            d = int(round(problem.ensemble[1]))
            try:
                if dmax == 2:
                    out.append(build_cycle_blocks(n, d, delta, h.vertex_count))
                elif h.is_regular():
                    out.append(build_clique_block(n, d, delta, h))
            except (ConstructionError, DomainError):
                pass
            continue
        if kind == "total_weight":
            from .blocks import build_clique_hub

            m = int(round(problem.ensemble[1]))
            xh = theta_root(h, delta)
            yc = delta ** (1.0 / h.vertex_count) if h.is_regular() else 0.0
            for xl, yl in ((xh, 0.0), (0.0, yc), (xh, yc)):
                try:
                    out.append(build_clique_hub(n, m, xl, yl, dmax))
                except (ConstructionError, DomainError):
                    pass
            continue
        # unconstrained: hub rows / clique block on a constant-p background
        pfr = Fraction(p).limit_denominator(10 ** 12)
        one = Fraction(1)
        xh = theta_root(h, delta)
        s1 = round(xh * p ** dmax * n)
        if s1 >= 1 and s1 < n:
            out.append(BlockSpec((s1, n - s1), ((one, one), (one, pfr))))
        if h.is_regular():
            s2 = round(delta ** (1.0 / h.vertex_count) * p ** (dmax / 2.0) * n)
            if s2 >= 2 and s2 < n:
                out.append(BlockSpec((s2, n - s2), ((one, pfr), (pfr, pfr))))
    return out


def solve_phi_blocks(problem: SolveProblem) -> SolveResult:
    """Coordinate search over construction-shaped block matrices: scan the
    planted excess level on a coarse-to-fine ladder, keep the cheapest
    feasible candidate.  Entropy and homomorphism values use the exact
    blockwise closed forms, so n can reach construction scale (10^5+)."""
    targets = [(h, float(t)) for h, t in problem.targets]
    p = problem.hom_p()
    tmax = max(t for _, t in targets)
    if tmax <= 1.0:
        raise DomainError("block solve expects a target above 1")

    def feasible(spec):
        return all(
            spec.hom_normalized(h, p) >= t - problem.feasibility_tol
            for h, t in targets
        )

    def value(spec):
        return 0.5 * spec.entropy(p)

    best = None  # (value, spec, delta)
    evaluations = 0
    levels = [(tmax - 1.0) * m for m in (1.0, 1.25, 1.6, 2.0, 3.0, 5.0, 8.0)]
    for _round in range(3):
        for delta in levels:
            for spec in _block_candidates(problem, delta):
                evaluations += 1
                if feasible(spec):
                    v = value(spec)
                    if best is None or v < best[0]:
                        best = (v, spec, delta)
        if best is None:
            break
        centre = best[2]
        levels = [centre * f for f in (0.85, 0.93, 1.0, 1.08, 1.18)]

    if best is None:
        raise ResourceError("no feasible block construction found on the ladder")
    v, spec, _delta = best
    residuals = [max(0.0, t - spec.hom_normalized(h, p)) for h, t in targets]
    if problem.ensemble is None:
        ens_res = 0.0
    else:
        kind, val = problem.ensemble
        if kind == "row_sums":
            ens_res = float(max(abs(rs - val) for rs in spec.row_sums_exact()))
        else:
            ens_res = float(abs(spec.total_weight_exact() - val))
    return SolveResult(
        x=spec,
        value=v,
        normalized=_normalize(problem, v),
        residuals=residuals,
        ensemble_residual=ens_res,
        seed_provenance="block_search",
        iterations=evaluations,
        n=problem.n,
        p=problem.hom_p(),
        notes=["block-parameterized search: witness is a BlockSpec"],
    )


def _al_single(problem, seed, targets):
    """One augmented-Lagrangian run; returns (best_value, best_x, ok, iters)."""
    feas_tol = problem.feasibility_tol
    x = project_ensemble(np.asarray(seed, dtype=float), problem.ensemble, strict=False)
    k = len(targets)
    lam = np.zeros(k)
    rho = 10.0
    best_val, best_x = None, None
    history = []
    iters = 0

    def consider(xc):
        nonlocal best_val, best_x
        if problem.ensemble is not None:
            try:  # certify the ensemble constraint tightly before accepting
                xc = project_ensemble(xc, problem.ensemble, strict=True)
            except NumericError:
                return _hom_vals(problem, xc)
        vals = _hom_vals(problem, xc)
        if all(v >= t - feas_tol for v, t in zip(vals, targets)):
            val = _entropy_value(xc, problem.base)
            if best_val is None or val < best_val:
                best_val, best_x = val, xc.copy()
        return vals

    vals = consider(x)
    prev_residual = float(np.max(np.maximum(targets - vals, 0.0)))
    res_history = [prev_residual]

    for outer in range(problem.budget):
        iters += 1
        x, vals = _inner_pg(problem, x, targets, lam, rho)
        residual = float(np.max(np.maximum(targets - vals, 0.0)))
        consider(x)
        g = targets - vals
        lam = np.maximum(0.0, lam + rho * g)
        if residual > 0.7 * prev_residual and residual > feas_tol:
            rho = min(rho * 2.0, 1e12)
        prev_residual = residual
        history.append(best_val if best_val is not None else math.inf)
        res_history.append(residual)
        if residual <= feas_tol and len(history) >= 5:
            recent = history[-5:]
            if all(math.isfinite(v) for v in recent):
                spread = (max(recent) - min(recent)) / (1.0 + abs(recent[-1]))
                if spread <= 1e-6:
                    break
        # bail out of a stalled run: neither the residual nor the incumbent
        # value moved over the last 30 multiplier updates
        if len(res_history) > 30:
            res_old, res_new = res_history[-31], res_history[-1]
            val_window = history[-30:]
            val_stuck = (
                not math.isfinite(val_window[0])
                and not math.isfinite(val_window[-1])
            ) or (
                math.isfinite(val_window[0])
                and abs(val_window[0] - val_window[-1])
                <= 1e-6 * (1.0 + abs(val_window[-1]))
            )
            if res_new > feas_tol and res_new > 0.99 * res_old and val_stuck:
                break
    return best_val, best_x, best_val is not None, iters


def _inner_pg(problem, x, targets, lam, rho, max_steps=60):
    """Projected gradient with Armijo backtracking on the AL objective."""

    def al_value(xc, vals):
        pen = np.maximum(0.0, lam / rho + (targets - vals))
        return _entropy_value(xc, problem.base) + 0.5 * rho * float(
            (pen ** 2 - (lam / rho) ** 2).sum()
        )

    vals = _hom_vals(problem, x)
    f = al_value(x, vals)
    step = 1.0
    for _ in range(max_steps):
        mult = rho * np.maximum(0.0, lam / rho + (targets - vals))
        grad = _entropy_grad(x, problem.base)
        grads = _hom_grads(problem, x)
        for m, gh in zip(mult, grads):
            if m > 0:
                grad = grad - m * gh
        moved = False
        for _bt in range(40):
            xn = project_ensemble(x - step * grad, problem.ensemble, strict=False)
            diff = xn - x
            sq = float((diff * diff).sum())
            if sq <= 1e-22 * x.size:
                break
            vals_n = _hom_vals(problem, xn)
            fn = al_value(xn, vals_n)
            if fn <= f - 1e-4 * sq / max(step, 1e-12):
                x, vals, f = xn, vals_n, fn
                moved = True
                step = min(step * 1.3, 1e3)
                break
            step *= 0.5
        if not moved:
            break
    return x, vals

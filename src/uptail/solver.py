"""Numerical upper bounds for the entropy-minimization problems.

Minimize half the relative entropy over symmetric [0,1] matrices with zero
diagonal, subject to normalized homomorphism counts meeting their targets,
optionally restricted to fixed total weight or fixed row sums.  Augmented
Lagrangian outer loop; its inner loop is nonmonotone spectral projected
gradient with Barzilai-Borwein steps (SPG2 of Birgin, Martinez & Raydan,
SIAM J. Optim. 10, 2000); multi-start from the block constructions.
Results are certified upper bounds with witnesses; no global-optimality
claim is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import (
    as_matrix,
    build_clique_block,
    build_cycle_blocks,
    build_plant,
    ensemble_residual,
    fill_total_weight,
)
from .errors import ConstructionError, DomainError, ResourceError
from .graphs import Graph
# hom_gradient stays bound: perfbench's traced run patches it here by name
from .homs import hom_gradient, hom_normalized, hom_value_and_gradient  # noqa: F401
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
            if not math.isfinite(t):
                raise DomainError(f"target must be finite, got {t}")
            if self.n < h.vertex_count:
                raise DomainError("n must be at least the pattern order")
        if self.budget < 0:
            raise DomainError(f"budget must be >= 0, got {self.budget}")
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


def _project_total_weight(x, m):
    """Projection onto {sum_{i<j} x = m} within the box: shift and clip."""
    n = x.shape[0]
    iu = np.triu_indices(n, 1)
    vals = x[iu]
    if not (0 <= m <= vals.size):
        raise DomainError("total weight target outside [0, n(n-1)/2]")
    clipped = _shift_clip(vals, m)
    out = np.zeros_like(x)
    out[iu] = clipped
    return out + out.T


def _project_rows_affine(x, d):
    """Euclidean projection onto {X sym, zero diag, row sums = d} (no box)."""
    n = x.shape[0]
    r = x.sum(axis=1)
    s = (n * d - r.sum()) / (2.0 * (n - 1))
    mu = (d - r - s) / (n - 2.0)
    y = x + mu[:, None] + mu[None, :]
    np.fill_diagonal(y, 0.0)
    return y


def _project_row_sums(x, d, tol=1e-11, max_iter=5000):
    """Dykstra alternation between the box and the row-sum affine set.

    Returns the box-clipped last iterate; the row residual is certified by
    the caller, on the point it keeps.
    """
    n = x.shape[0]
    if not (0 < d <= n - 1):
        raise DomainError("row-sum target must be in (0, n-1]")
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
    return _box(y)


def project_ensemble(x, constraint):
    """Project onto the box intersected with the ensemble's affine set."""
    x = np.asarray(x, dtype=float)
    if constraint is None:
        return _box(x)
    kind, val = constraint
    if kind == "total_weight":
        return _project_total_weight(_box(x), val)
    if kind == "row_sums":
        return _project_row_sums(x, val)
    raise DomainError(f"unknown constraint {kind!r}")


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def ladder(problem: SolveProblem, delta: float):
    """The planted constructions at excess level delta, as (tag, BlockSpec)
    pairs: degree-exact cycle or clique blocks under row sums; otherwise
    hub, clique and both planted on the constant-p background, per pattern."""
    n, p = problem.n, problem.hom_p()
    kind = problem.ensemble[0] if problem.ensemble else None
    out = []
    for h, _t in problem.targets:
        try:
            if kind == "row_sums":
                d = int(round(problem.ensemble[1]))
                if h.max_degree() == 2:
                    spec = build_cycle_blocks(n, d, delta, h.vertex_count)
                elif h.is_regular():
                    spec = build_clique_block(n, d, delta, h)
                else:
                    continue
                # one tag for both: it names the seed in seed_provenance
                out.append(("cycle_blocks", spec))
                continue
            xh = theta_root(h, delta)
        except (ConstructionError, DomainError):
            continue
        plants = [("hub", xh, 0.0)]
        if h.is_regular():
            yc = delta ** (1.0 / h.vertex_count)
            plants += [("clique", 0.0, yc), ("both", xh, yc)]
        for tag, x, y in plants:
            try:
                out.append((f"plant_{tag}", build_plant(n, p, x, y, h.max_degree())))
            except ConstructionError:
                pass
    return out


def default_seeds(problem: SolveProblem):
    """Constant base plus the materialized ladder at inflated delta levels."""
    seeds = [("constant", problem.base_matrix())]
    tmax = max(t for _, t in problem.targets)
    if tmax <= 1:
        return seeds
    for mult in (1.0, 1.5, 2.0, 3.0, 5.0, 8.0):
        for tag, spec in ladder(problem, (tmax - 1.0) * mult):
            seeds.append((f"{tag}_delta_x{mult:g}", spec.materialize()))
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


def _evaluate(problem, x):
    """(hom values, hom gradients, entropy value, entropy gradient) at x: all
    the inner loop needs, each hom pair from one pinned DP pass per orbit."""
    p = problem.hom_p()
    vals, grads = zip(*(hom_value_and_gradient(h, x, p) for h, _t in problem.targets))
    return (np.array(vals), grads, _entropy_value(x, problem.base),
            _entropy_grad(x, problem.base))


DENSE_N_CAP = 2000


def solve_phi(problem: SolveProblem) -> SolveResult:
    """Multi-start augmented-Lagrangian solve; returns the best feasible
    point found (a certified upper bound on the infimum).

    Dense iterates cap at n = 2000; use solve_phi_blocks beyond that.
    Multi-start seeds run one after another in seed order and reduce by
    minimum value, the first seed winning ties."""
    n = problem.n
    if n > DENSE_N_CAP:
        raise ResourceError(
            f"dense solve capped at n = {DENSE_N_CAP}; use solve_phi_blocks"
        )
    targets = np.array([t for _, t in problem.targets], dtype=float)

    if (targets <= 1.0).all():
        # a constant base meets targets <= 1 up to O(1/n); a matrix base only if measured
        x0 = project_ensemble(problem.base_matrix(), problem.ensemble)
        vals = _hom_vals(problem, x0)
        if np.ndim(problem.base) == 0 or (vals >= targets - problem.feasibility_tol).all():
            return _result(problem, x0, _entropy_value(x0, problem.base), vals,
                           "constant", 0,
                           ["targets <= 1: constant base accepted with O(1/n) slack"])

    seed_list = list(default_seeds(problem))
    for i, s in enumerate(problem.seeds):
        seed_list.append((f"user_{i}", as_matrix(s)))

    best = None  # (value, x, name)
    total_iters = 0
    for name, seed in seed_list:
        value, x, iters = _al_single(problem, seed, targets)
        total_iters += iters
        if value is not None and (best is None or value < best[0]):
            best = (value, x, name)

    if best is None:
        raise ResourceError(
            "no feasible point found within budget from any seed"
        )
    value, x, name = best
    return _result(problem, x, value, _hom_vals(problem, x), name, total_iters, [])


def _result(problem, x, value, vals, provenance, iterations, notes):
    """The SolveResult for witness x (a matrix or a BlockSpec) of entropy
    value `value` and hom values `vals`."""
    return SolveResult(
        x=x,
        value=value,
        normalized=_normalize(problem, value),
        residuals=[max(0.0, t - v) for (_h, t), v in zip(problem.targets, vals)],
        ensemble_residual=ensemble_residual(x, problem.ensemble),
        seed_provenance=provenance,
        iterations=iterations,
        n=problem.n,
        p=problem.hom_p(),
        notes=notes,
    )


def _normalize(problem, value):
    dmax = min(h.max_degree() for h, _ in problem.targets)
    dmax = max(dmax, 2)
    return value / scale_anp(problem.n, problem.hom_p(), dmax)


# ---------------------------------------------------------------------------
# block-parameterized solve (large n)
# ---------------------------------------------------------------------------

def solve_phi_blocks(problem: SolveProblem) -> SolveResult:
    """Coordinate search over construction-shaped block matrices: scan the
    planted excess level on a coarse-to-fine ladder, keep the cheapest
    feasible candidate.  Entropy and homomorphism values use the exact
    blockwise closed forms, so n can reach construction scale (10^5+).
    The constructions plant on a constant-p background, so a matrix base
    (the block model) is refused rather than scored against the wrong p."""
    if np.ndim(problem.base) > 0:
        raise DomainError("block solve needs a scalar base p; a block-model base "
                          f"is only solved densely, at n <= {DENSE_N_CAP}")
    targets = [(h, float(t)) for h, t in problem.targets]
    p = problem.hom_p()
    tmax = max(t for _, t in targets)
    if tmax <= 1.0:
        raise DomainError("block solve expects a target above 1")
    kind, val = problem.ensemble or (None, None)

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
            for _tag, spec in ladder(problem, delta):
                if kind == "total_weight":
                    try:
                        spec = fill_total_weight(spec, val)
                    except ConstructionError:
                        continue
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
    return _result(problem, spec, v, [spec.hom_normalized(h, p) for h, _t in targets],
                   "block_search", evaluations,
                   ["block-parameterized search: witness is a BlockSpec"])


def _al_single(problem, seed, targets):
    """One augmented-Lagrangian run; returns (best_value, best_x, iters)."""
    feas_tol = problem.feasibility_tol
    kind, bound = problem.ensemble or (None, 0.0)
    # certificate tolerance on the ensemble residual of a kept point
    ens_tol = max(1e-10, 1e-9 * max(1.0, bound)) if kind == "total_weight" else 1e-10
    x = project_ensemble(np.asarray(seed, dtype=float), problem.ensemble)
    k = len(targets)
    lam = np.zeros(k)
    rho = 10.0
    step = 1.0  # spectral step, carried from one inner loop to the next
    best_val, best_x = None, None
    history = []
    iters = 0

    def consider(xc, ev):
        """Keep xc as the incumbent if it is feasible, within ens_tol of the
        ensemble's set and cheaper; `ev` is its `_evaluate` tuple."""
        nonlocal best_val, best_x
        vals, _, val, _ = ev
        if ensemble_residual(xc, problem.ensemble) > ens_tol:
            return
        if all(v >= t - feas_tol for v, t in zip(vals, targets)):
            if best_val is None or val < best_val:
                best_val, best_x = val, xc.copy()

    ev = _evaluate(problem, x)
    consider(x, ev)
    prev_residual = float(np.max(np.maximum(targets - ev[0], 0.0)))
    res_history = [prev_residual]

    for outer in range(problem.budget):
        iters += 1
        x, ev, step = _inner_pg(problem, x, ev, targets, lam, rho, step)
        vals = ev[0]
        residual = float(np.max(np.maximum(targets - vals, 0.0)))
        consider(x, ev)
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
    return best_val, best_x, iters


def _inner_pg(problem, x, ev, targets, lam, rho, step, max_steps=60):
    """Nonmonotone spectral projected gradient (SPG2 of Birgin, Martinez &
    Raydan, SIAM J. Optim. 10, 2000) on the AL objective at fixed (lam, rho).

    `ev` is the `_evaluate` tuple at x and `step` the Barzilai-Borwein step
    from the previous call; both come back for the point returned, so each
    point is evaluated once.  Each step projects once, d = P(x - step*g) - x,
    and halves t along the feasible segment x + t*d until f falls below the
    largest of the last 10 values by 1e-4 * t * g.d.  The loop stops once
    -g.d is within f's roundoff, 1e-12 * (1 + |f|): no step along d could
    then be seen to decrease f.  Returns (x, ev, step).
    """

    def al_value(ev):
        vals, _, entropy, _ = ev
        pen = np.maximum(0.0, lam / rho + (targets - vals))
        return entropy + 0.5 * rho * float((pen ** 2 - (lam / rho) ** 2).sum())

    def al_grad(ev):
        vals, hom_grads, _, grad = ev
        mult = rho * np.maximum(0.0, lam / rho + (targets - vals))
        for m, gh in zip(mult, hom_grads):
            if m > 0:
                grad = grad - m * gh
        return grad

    f = al_value(ev)
    recent = [f]
    grad = al_grad(ev)
    for _ in range(max_steps):
        d = project_ensemble(x - step * grad, problem.ensemble) - x
        # both gradients are per unordered pair; each pair sits twice in d
        slope = 0.5 * float((grad * d).sum())
        if slope >= -1e-12 * (1.0 + abs(f)):
            break
        f_ref = max(recent[-10:])
        t = 1.0
        for _bt in range(40):
            xn = x + t * d
            ev_n = _evaluate(problem, xn)
            fn = al_value(ev_n)
            if fn <= f_ref + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        grad_n = al_grad(ev_n)
        s, y = xn - x, grad_n - grad
        sy = float((s * y).sum())
        step = min(max(float((s * s).sum()) / sy, 1e-10), 1e3) if sy > 0 else 1e3
        x, ev, f, grad = xn, ev_n, fn, grad_n
        recent.append(f)
    return x, ev, step

"""Numerical upper bounds for the entropy-minimization problems.

Minimize half the relative entropy over symmetric [0,1] matrices with zero
diagonal, subject to normalized homomorphism counts meeting their targets,
optionally restricted to fixed total weight or fixed row sums.  `solve_phi`
picks its method (`_dense_witness`): where the witness can be n x n, a
multi-start augmented Lagrangian (AL) with a spectral projected gradient
inner loop (SPG2 of Birgin, Martinez & Raydan, SIAM J. Optim. 10, 2000),
elsewhere a scan of the ladder's excess level (`_level_search`).  Results
are certified upper bounds with witnesses; no global-optimality claim is made.

The AL runs in one of two spaces with the same five operations (evaluate,
project, inner product, ensemble residual, materialize).  Under a scalar
base, the constant seed, every `ladder` seed and a BlockSpec user seed run
on one vector of their live block-pair values, with hom values from
`blocks`' compiled independent-group expansion; every step of the n x n
solver keeps a block-constant matrix block-constant, so this is the same
run at the cost of a few values.  Matrix bases, ndarray user seeds and a
BlockSpec whose expansion passes a compile-size cap (`_space_for`) run on
the n x n matrix, which is also the tests' oracle.  Only the winning point
is materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .blocks import (
    BlockSpec,
    as_matrix,
    block_pairs,
    blow_up,
    build_clique_block,
    build_cycle_blocks,
    build_plant,
    build_whole_cliques,
    ensemble_residual,
    fill_total_weight,
    hom_terms,
    terms_value_and_gradient,
)
from .errors import ConstructionError, DomainError, ResourceError
from .graphs import Graph
# hom_gradient stays bound: perfbench's traced run patches it here by name
from .homs import (  # noqa: F401
    BATCH_CELLS,
    DP_CELL_CAP,
    dp_cells,
    hom_gradient,
    hom_normalized,
    hom_value_and_gradient,
)
from .rates import entropy_matrix, rate_scale, scale_pattern, theta_root

EPS = 1e-12


@dataclass(frozen=True)
class SolveProblem:
    targets: tuple                    # ((Graph, t), ...)
    n: int
    base: object                      # scalar p or (n, n) matrix
    ensemble: tuple | None = None     # None, ("total_weight", m), ("row_sums", d)
    seeds: tuple = ()                 # extra starting points (ndarray or BlockSpec)
    feasibility_tol: ClassVar[float] = 1e-6
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
        if self.hom_scale is not None and not (0 < self.hom_scale < 1):
            raise DomainError("hom_scale must be in (0,1)")
        sizes = {seed.n if isinstance(seed, BlockSpec) else np.shape(seed) for seed in self.seeds}
        if not sizes <= {self.n, (self.n, self.n)}:
            raise DomainError(f"every seed must be an n x n matrix or a BlockSpec of n = {self.n}")
        if np.ndim(self.base) > 0 and self.hom_scale is None:
            raise DomainError("matrix base needs hom_scale (the block model's p)")
        if np.ndim(self.base) == 0:
            p = float(self.base)
            if not (0 < p < 1):
                raise DomainError("base p must be in (0,1)")
            # the regular ensemble's base is d/n, which `_refuse_trees` and
            # the row-sum ladder take for granted
            if self.ensemble and self.ensemble[0] == "row_sums" and not (
                    abs(p - self.ensemble[1] / self.n) <= 1e-12 * self.ensemble[1] / self.n):
                raise DomainError(f"row sums {self.ensemble[1]} fix the base at d/n = "
                                  f"{self.ensemble[1] / self.n:.17g}, got {p!r}")

    def base_matrix(self) -> np.ndarray:
        if np.ndim(self.base) == 0:
            x = np.full((self.n, self.n), float(self.base))
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
    x: object                 # ndarray witness, or BlockSpec from the level search
    value: float
    normalized: float
    residuals: list
    ensemble_residual: float
    seed_provenance: str
    iterations: int
    notes: list = field(default_factory=list)

    def to_json(self):
        return {k: v for k, v in vars(self).items() if k != "x"}


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def _unit(x):
    """x clipped into [0, 1]: `np.clip` without its Python wrappers."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


def _box(x):
    y = _unit(x)
    y = 0.5 * (y + y.T)
    np.fill_diagonal(y, 0.0)
    return y


def _shift_clip(vals, m, weights):
    """Exact solve of sum weights * clip(v + lam, 0, 1) = m for vals in
    [0, 1]: the projection onto a weighted sum within the box, in the metric
    those weights define (each value stands for `weights` pairs).

    total(lam) is piecewise linear and nondecreasing.  No entry reaches 1
    below lam = 0, and none sits at 0 above it, so with the values sorted
    in decreasing order and W_j, V_j the sums of w and w v through the j-th,
    total(-v_j) = V_j - v_j W_j and total(1 - v_j) = W - v_j (W - W_j) +
    V - V_j.  These breakpoints, on m's side of total(0) = V, bracket m;
    the bracket's two ends are evaluated exactly and interpolated."""
    if not (0 <= m <= weights.sum()):
        raise DomainError("total weight target outside [0, n(n-1)/2]")
    order = (-vals).argsort()
    v, w = vals.take(order), weights.take(order)
    cw, cwv = w.cumsum(), (w * v).cumsum()
    if m <= cwv[-1]:
        bps, totals = np.append(-v, 0.0), np.append(cwv - v * cw, cwv[-1])
    else:
        bps = np.append(0.0, 1.0 - v)
        totals = np.append(cwv[-1], cw[-1] - v * (cw[-1] - cw) + (cwv[-1] - cwv))
    i = min(max(int(totals.searchsorted(m)), 1), len(bps) - 1)
    lo, hi = bps[i - 1], bps[i]
    t_lo, t_hi = (float((weights * _unit(vals + lam)).sum()) for lam in (lo, hi))
    lam0 = lo if m <= t_lo else hi if m >= t_hi else lo + (m - t_lo) * (hi - lo) / (t_hi - t_lo)
    clipped = _unit(vals + lam0)
    # absorb float residue on strictly interior entries
    r = m - (weights * clipped).sum()
    interior = (clipped > 1e-9) & (clipped < 1 - 1e-9)
    if interior.any():
        clipped[interior] += r / weights[interior].sum()
        clipped = _unit(clipped)
    return clipped


def _project_total_weight(x, m):
    """Projection onto {sum_{i<j} x = m} within the box: shift and clip."""
    n = x.shape[0]
    iu = np.triu_indices(n, 1)
    vals = x[iu]
    clipped = _shift_clip(vals, m, np.ones_like(vals))
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


def _dykstra(x, d, n, box, affine, rows, tol=1e-11, max_iter=5000):
    """Dykstra's alternating projections between `box` and `affine(., d)`,
    the set where every row sum (`rows`) is d, until the iterate is within
    tol of both.

    Returns the box-clipped last iterate; the row residual is certified by
    the caller, on the point it keeps.
    """
    if not (0 < d <= n - 1):
        raise DomainError("row-sum target must be in (0, n-1]")
    y = x.copy()
    inc_box = np.zeros_like(y)
    inc_aff = np.zeros_like(y)
    for it in range(max_iter):
        z = box(y + inc_box)
        inc_box = (y + inc_box) - z
        y2 = affine(z + inc_aff, d)
        inc_aff = (z + inc_aff) - y2
        y = y2
        if y.min() >= -tol and y.max() <= 1 + tol and np.abs(rows(y) - d).max() < tol:
            break
    return box(y)


def project_ensemble(x, constraint):
    """Project onto the box intersected with the ensemble's affine set."""
    x = np.asarray(x, dtype=float)
    if constraint is None:
        return _box(x)
    kind, val = constraint
    if kind == "total_weight":
        return _project_total_weight(_box(x), val)
    if kind == "row_sums":
        return _dykstra(x, val, x.shape[0], _box, _project_rows_affine, lambda y: y.sum(axis=1))
    raise DomainError(f"unknown constraint {kind!r}")


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def ladder(problem: SolveProblem, delta: float):
    """The planted constructions at excess level delta, as (tag, BlockSpec)
    pairs: under row sums, for each pattern's 2-core, degree-exact cycle
    blocks if it is a cycle, and if it is another regular graph one clique
    block and the whole (d+1)-cliques sized by its exact hom; otherwise hub,
    clique and both planted on the constant-p background, per pattern.
    With two or more targets, each tag ends in the position of the pattern
    it was built for (`_h1` for the first), so that every seed of
    `default_seeds` has its own name."""
    n, p = problem.n, problem.hom_p()
    kind = problem.ensemble[0] if problem.ensemble else None
    out = []
    for i, (h, _t) in enumerate(problem.targets, 1):
        pos = f"_h{i}" if len(problem.targets) > 1 else ""
        try:
            if kind == "row_sums":
                d = int(round(problem.ensemble[1]))
                core = scale_pattern(h, regular=True)
                if core.max_degree() == 2:
                    builders = [("cycle_blocks", build_cycle_blocks, core.vertex_count)]
                elif core.is_regular():
                    builders = [("clique_block", build_clique_block, core),
                                ("whole_cliques", build_whole_cliques, core)]
                else:
                    continue
                for tag, build, shape in builders:
                    try:
                        out.append((f"{tag}{pos}", build(n, d, delta, shape)))
                    except ConstructionError:
                        pass
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
                out.append((f"plant_{tag}{pos}", build_plant(n, p, x, y, h.max_degree())))
            except ConstructionError:
                pass
    return out


def default_seeds(problem: SolveProblem):
    """Constant base plus the ladder at inflated delta levels, as (name,
    seed) pairs, each distinct BlockSpec once, under the tag of its first
    level.  Under a scalar base the constant is a one-block BlockSpec,
    under a matrix base the base matrix itself (`as_matrix` gives every
    seed as a matrix)."""
    if np.ndim(problem.base) == 0:
        constant = BlockSpec((problem.n,), ((Fraction(float(problem.base)),),))
    else:
        constant = problem.base_matrix()
    seeds = [("constant", constant)]
    tmax = max(t for _, t in problem.targets)
    if tmax <= 1:
        return seeds
    seen = set()
    for mult in (1.0, 1.5, 2.0, 3.0, 5.0, 8.0):
        for tag, spec in ladder(problem, (tmax - 1.0) * mult):
            if spec not in seen:
                seen.add(spec)
                seeds.append((f"{tag}_delta_x{mult:g}", spec))
    return seeds


# ---------------------------------------------------------------------------
# the two spaces the AL runs in
# ---------------------------------------------------------------------------

def _entropy_value(x, base):
    return 0.5 * entropy_matrix(x, base)


def _entropy_grad(x, base):
    """d/dx_uv of sum_{u<v} I(x_uv): the log-odds ratio
    log(x (1 - p) / (p (1 - x))), entrywise, x kept off 0 and 1."""
    xc = np.clip(x, EPS, 1 - EPS)
    pm = np.clip(np.asarray(base, dtype=float), EPS, 1 - EPS)  # scalar or matrix
    g = np.log(xc * (1 - pm)) - np.log(pm * (1 - xc))
    np.fill_diagonal(g, 0.0)
    return g


def _hom_vals(problem, x):
    p = problem.hom_p()
    return np.array([hom_normalized(h, x, p) for h, _t in problem.targets])


class _DenseSpace:
    """The AL on n x n matrices: any seed, any base.  Gradients are per
    unordered vertex pair, laid out symmetric, so sums run over ordered
    pairs."""

    def __init__(self, problem):
        self.problem = problem

    def evaluate(self, x):
        """(hom values, hom gradients, entropy value, entropy gradient) at x:
        all the inner loop needs, each hom pair from one pinned DP pass per
        orbit."""
        problem = self.problem
        p = problem.hom_p()
        vals, grads = zip(*(hom_value_and_gradient(h, x, p) for h, _t in problem.targets))
        return (np.array(vals), grads, _entropy_value(x, problem.base),
                _entropy_grad(x, problem.base))

    def project(self, x):
        return project_ensemble(x, self.problem.ensemble)

    @staticmethod
    def dot(a, b):
        return float((a * b).sum())

    def residual(self, x):
        return ensemble_residual(x, self.problem.ensemble)

    @staticmethod
    def materialize(x):
        return x


class _BlockSpace:
    """The AL on one vector of the live unordered block-pair values of a
    block partition (`blocks.block_pairs`), under a scalar base.  Each dense
    step (hom and entropy gradients, box, total-weight shift, row-sum
    Dykstra) maps a block-constant matrix to a block-constant one, so from a
    block-constant seed this space takes the dense steps at the cost of a
    few values.  A value stands for its c unordered vertex pairs: entropy,
    total weight and shift-and-clip weigh it by c, the inner product (over
    ordered pairs) by 2c, and a gradient stays one vertex pair's.  Row sums
    are a k x values operator; Dykstra's affine step adds the shifts of a
    pair's two blocks through their incidence (2 on a block's own pair)."""

    def __init__(self, problem, sizes):
        self.problem = problem
        self.sizes = sizes
        self.n = problem.n
        a, b, self.pairs = block_pairs(sizes)
        self.index, self.s = (a, b), np.asarray(sizes, dtype=float)
        in_a, in_b = np.arange(len(sizes))[:, None] == a, np.arange(len(sizes))[:, None] == b
        # the row sum of a vertex in block a: sum_b s_b y_ab - y_aa
        self.rows_op = in_a * (self.s[b] - (a == b)) + in_b * self.s[a] * (a != b)
        self.incidence = in_a + in_b * 1.0
        # a pair's hom gradient in y / p, shared out over its vertex pairs, is
        # one vertex pair's gradient in x
        self.share = 1.0 / (problem.hom_p() * self.pairs)
        self.terms = [hom_terms(h, sizes) for h, _t in problem.targets]

    def evaluate(self, y):
        """`_DenseSpace.evaluate` at the blow-up of y: hom values from the
        compiled independent-group expansion, the entropy and its log-odds
        gradient from one pair of logs, kept off 0 and 1 (where 0 log 0 = 0)."""
        p, base = self.problem.hom_p(), float(self.problem.base)
        vals, grads = zip(*(terms_value_and_gradient(terms, y / p) for terms in self.terms))
        q = 1.0 - y
        up = np.log(np.maximum(y, EPS) / base)
        down = np.log(np.maximum(q, EPS) / (1 - base))
        return (np.array(vals), [g * self.share for g in grads],
                float(self.pairs @ (y * up + q * down)), up - down)

    def _rows_affine(self, y, d):
        """`_project_rows_affine` on the blow-up of y."""
        n, r = self.n, self.rows_op @ y
        shift = (n * d - float(self.s @ r)) / (2.0 * (n - 1))
        mu = (d - r - shift) / (n - 2.0)
        return y + mu @ self.incidence

    def project(self, y):
        """`project_ensemble` on the blow-up of y."""
        kind, val = self.problem.ensemble or (None, None)
        if kind == "total_weight":
            return _shift_clip(_unit(y), val, self.pairs)
        if kind == "row_sums":
            return _dykstra(y, val, self.n, _unit, self._rows_affine, self.rows_op.__matmul__)
        return _unit(y)

    def dot(self, a, b):
        return 2.0 * float(self.pairs @ (a * b))

    def residual(self, y):
        kind, val = self.problem.ensemble or (None, None)
        if kind == "row_sums":
            return float(np.abs(self.rows_op @ y - val).max())
        if kind == "total_weight":
            return abs(float(self.pairs @ y) - val)
        return 0.0

    def materialize(self, y):
        values = np.zeros((len(self.sizes),) * 2)
        values[self.index] = values[self.index[::-1]] = y
        return blow_up(self.sizes, values)


def _space_for(problem, seed):
    """(space, start): a BlockSpec seed of n vertices under a scalar base
    runs on its block values; every other seed runs on its n x n matrix.
    BATCH_CELLS caps the size of the compiled expansion; it is not a
    measured crossover of the two spaces' costs.  A pattern of v vertices
    on k blocks compiles about k^v placements in Python, so a seed past
    k^v = BATCH_CELLS runs n x n."""
    if (isinstance(seed, BlockSpec) and np.ndim(problem.base) == 0
            and all(seed.num_blocks ** h.vertex_count <= BATCH_CELLS
                    for h, _t in problem.targets)):
        return _BlockSpace(problem, seed.sizes), seed.packed_values()
    return _DenseSpace(problem), as_matrix(seed)


def _refuse_trees(problem):
    """`solve_phi`'s first step, before either method: under row sums d a
    forest's count is n^c d^(v-c) on every matrix, normalized 1 at base d/n,
    so no target above 1 can be met."""
    if problem.ensemble and problem.ensemble[0] == "row_sums" and any(
            t > 1 and scale_pattern(h, regular=True).vertex_count == 0
            for h, t in problem.targets):
        raise DomainError("pattern is a tree: its 2-core is empty, so under "
                          "row sums its normalized count is 1, below t")


DENSE_N_CAP = 2000
CONSTANT_NOTE = "targets <= 1: constant base accepted with O(1/n) slack"


def _dense_witness(problem):
    """`solve_phi`'s one routing rule: can the witness be an n x n matrix?
    Yes while n <= DENSE_N_CAP and every target's hom DP fits in DP_CELL_CAP;
    a pattern past the DP's width cap, which `dp_cells` refuses, fits at no n."""
    n = problem.n
    try:
        return n <= DENSE_N_CAP and all(dp_cells(h, n) <= DP_CELL_CAP for h, _t in problem.targets)
    except ResourceError:
        return False


def solve_phi(problem: SolveProblem) -> SolveResult:
    """The best feasible point found, a certified upper bound on the infimum.

    Where `_dense_witness` allows, a multi-start AL: seeds run one after
    another in seed order and reduce by minimum value, the first seed
    winning ties.  Each runs in the space `_space_for` picks; the winner is
    materialized and measured on its n x n matrix.  Elsewhere the witness is
    `_level_search`'s BlockSpec, measured blockwise; a block-model base has none."""
    _refuse_trees(problem)
    if not _dense_witness(problem):
        if np.ndim(problem.base) > 0 and problem.n <= DENSE_N_CAP:
            raise ResourceError(f"block-model base: its hom DP at n = {problem.n} passes the cap")
        return _level_search(problem)
    targets = np.array([t for _, t in problem.targets], dtype=float)

    if (targets <= 1.0).all():
        # a constant base meets targets <= 1 up to O(1/n); a matrix base only if measured
        x0 = project_ensemble(problem.base_matrix(), problem.ensemble)
        constant = _result(problem, x0, "constant", 0, [CONSTANT_NOTE])
        if np.ndim(problem.base) == 0 or max(constant.residuals) <= problem.feasibility_tol:
            return constant

    seed_list = default_seeds(problem) + [
        (f"user_{i}", seed) for i, seed in enumerate(problem.seeds)]

    best = None  # (value, x, name, space)
    total_iters = 0
    for name, seed in seed_list:
        space, x0 = _space_for(problem, seed)
        value, x, iters = _al_single(problem, space, x0, targets)
        total_iters += iters
        if value is not None and (best is None or value < best[0]):
            best = (value, x, name, space)

    if best is None:
        raise ResourceError(
            "no feasible point found within budget from any seed"
        )
    _value, x, name, space = best
    x = space.materialize(x)
    return _result(problem, x, name, total_iters, [])


def _result(problem, x, provenance, iterations, notes):
    """The SolveResult for witness x, a matrix or (measured by its exact
    closed forms) a BlockSpec; `normalized` takes Delta >= 2."""
    if isinstance(x, BlockSpec):
        p = problem.hom_p()
        value, vals = 0.5 * x.entropy(p), [x.hom_normalized(h, p) for h, _t in problem.targets]
    else:
        value, vals = _entropy_value(x, problem.base), _hom_vals(problem, x)
    kind, _ = problem.ensemble or (None, None)
    a_np = rate_scale(problem.n, problem.hom_p(), [h for h, _t in problem.targets],
                      kind == "row_sums", delta_floor=2)
    return SolveResult(
        x=x,
        value=value,
        normalized=value / a_np,
        residuals=[max(0.0, t - v) for (_h, t), v in zip(problem.targets, vals)],
        ensemble_residual=ensemble_residual(x, problem.ensemble),
        seed_provenance=provenance,
        iterations=iterations,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# level search: the method where the witness cannot be n x n
# ---------------------------------------------------------------------------

def _level_search(problem: SolveProblem) -> SolveResult:
    """Coordinate search over construction-shaped block matrices: scan the
    planted excess level on a coarse-to-fine ladder, keep the cheapest
    feasible candidate.  Entropy and homomorphism values use the exact
    blockwise closed forms, so n can reach construction scale (10^5+).
    The constructions plant on a constant-p background, so a matrix base
    (the block model) is refused rather than scored against the wrong p.
    Targets <= 1 get the constant witness, as on the n x n path: p,
    d/(n-1) under row sums, or the exact total weight."""
    if np.ndim(problem.base) > 0:
        raise DomainError("block solve needs a scalar base p; a block-model base "
                          f"is only solved densely, at n <= {DENSE_N_CAP}")
    if problem.seeds:
        raise DomainError("seeds start the n x n solve only; the level search takes none")
    p = problem.hom_p()
    tmax = max(t for _, t in problem.targets)
    kind, val = problem.ensemble or (None, None)

    if tmax <= 1.0:
        level = Fraction(val) / (problem.n - 1) if kind == "row_sums" else Fraction(p)
        spec = BlockSpec((problem.n,), ((level,),))
        spec = fill_total_weight(spec, val) if kind == "total_weight" else spec
        return _result(problem, spec, "constant", 0, [CONSTANT_NOTE])

    best = (math.inf, None, None)  # (value, spec, delta)
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
                v = 0.5 * spec.entropy(p)
                if v < best[0] and all(spec.hom_normalized(h, p) >= t - problem.feasibility_tol
                                       for h, t in problem.targets):
                    best = (v, spec, delta)
        if best[1] is None:
            raise ResourceError("no feasible block construction found on the ladder")
        levels = [best[2] * f for f in (0.85, 0.93, 1.0, 1.08, 1.18)]
    return _result(problem, best[1], "block_search", evaluations,
                   ["block-parameterized search: witness is a BlockSpec"])


def _al_single(problem, space, seed, targets):
    """One augmented-Lagrangian run from `seed`, a point of `space`; returns
    (best_value, best_x, iters), best_x in the space's coordinates."""
    feas_tol = problem.feasibility_tol
    kind, bound = problem.ensemble or (None, 0.0)
    # certificate tolerance on the ensemble residual of a kept point
    ens_tol = max(1e-10, 1e-9 * max(1.0, bound)) if kind == "total_weight" else 1e-10
    x = space.project(np.asarray(seed, dtype=float))
    k = len(targets)
    lam = np.zeros(k)
    rho = 10.0
    step = 1.0  # spectral step, carried from one inner loop to the next
    best_val, best_x = None, None
    history = []

    def consider(xc, ev):
        """Keep xc as the incumbent if it is feasible, within ens_tol of the
        ensemble's set and cheaper; `ev` is its `space.evaluate` tuple."""
        nonlocal best_val, best_x
        vals, _, val, _ = ev
        if space.residual(xc) > ens_tol:
            return
        if all(v >= t - feas_tol for v, t in zip(vals, targets)):
            if best_val is None or val < best_val:
                best_val, best_x = val, xc.copy()

    ev = space.evaluate(x)
    consider(x, ev)
    res_history = [float(np.max(np.maximum(targets - ev[0], 0.0)))]

    for _outer in range(problem.budget):
        x, ev, step = _inner_pg(space, x, ev, targets, lam, rho, step)
        vals = ev[0]
        residual = float(np.max(np.maximum(targets - vals, 0.0)))
        consider(x, ev)
        g = targets - vals
        lam = np.maximum(0.0, lam + rho * g)
        if residual > 0.7 * res_history[-1] and residual > feas_tol:
            rho = min(rho * 2.0, 1e12)
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
            v_old, v_new = history[-30], history[-1]
            val_stuck = (not math.isfinite(v_old) and not math.isfinite(v_new)) or (
                math.isfinite(v_old) and abs(v_old - v_new) <= 1e-6 * (1.0 + abs(v_new)))
            if res_new > feas_tol and res_new > 0.99 * res_old and val_stuck:
                break
    return best_val, best_x, len(history)


def _inner_pg(space, x, ev, targets, lam, rho, step, max_steps=60):
    """Nonmonotone spectral projected gradient (SPG2 of Birgin, Martinez &
    Raydan, SIAM J. Optim. 10, 2000) on the AL objective at fixed (lam, rho).

    `ev` is the `space.evaluate` tuple at x and `step` the Barzilai-Borwein step
    from the previous call; both come back for the point returned, so each
    point is evaluated once.  Each step projects once, d = P(x - step*g) - x,
    and halves t along the feasible segment x + t*d until f falls below the
    largest of the last 10 values by 1e-4 * t * g.d.  The loop stops once
    -g.d is within f's roundoff, 1e-12 * (1 + |f|): no step along d could
    then be seen to decrease f.  Returns (x, ev, step).
    """

    lam_rho = lam / rho
    lam_rho_sq = lam_rho ** 2

    def al_value(ev):
        pen = np.maximum(0.0, lam_rho + (targets - ev[0]))
        return ev[2] + 0.5 * rho * float((pen ** 2 - lam_rho_sq).sum()), pen

    def al_grad(ev, pen):
        grad = ev[3]
        for m, gh in zip((rho * pen).tolist(), ev[1]):
            if m > 0:
                grad = grad - m * gh
        return grad

    f, pen = al_value(ev)
    recent = [f]
    grad = al_grad(ev, pen)
    for _ in range(max_steps):
        d = space.project(x - step * grad) - x
        # both gradients are per unordered pair; each pair sits twice in d
        slope = 0.5 * space.dot(grad, d)
        if slope >= -1e-12 * (1.0 + abs(f)):
            break
        f_ref = max(recent[-10:])
        t = 1.0
        for _bt in range(40):
            xn = x + t * d
            ev_n = space.evaluate(xn)
            fn, pen = al_value(ev_n)
            if fn <= f_ref + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        grad_n = al_grad(ev_n, pen)
        s, y = xn - x, grad_n - grad
        sy = space.dot(s, y)
        step = min(max(space.dot(s, s) / sy, 1e-10), 1e3) if sy > 0 else 1e3
        x, ev, f, grad = xn, ev_n, fn, grad_n
        recent.append(f)
    return x, ev, step

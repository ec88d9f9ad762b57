"""Numerical upper bounds for the entropy-minimization problems.

Minimize half the relative entropy over symmetric [0,1] matrices with zero
diagonal, subject to normalized homomorphism counts meeting their targets,
optionally restricted to fixed total weight or fixed row sums, by a
multi-start augmented Lagrangian (AL) with a spectral projected gradient
inner loop (SPG2 of Birgin, Martinez & Raydan, SIAM J. Optim. 10, 2000), or
a scan of the ladder's excess level (`_level_search`; see `solve_phi`).
Results are certified upper bounds with witnesses; no global-optimality
claim is made.  The AL runs its seeds as a stack, one seed to a row, in
lockstep (`_al_stack`), on the values of their blocks (`_BlockSpace`); the
constraint chooses its projection once (`_Feasible`, as `project_ensemble`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

import numpy as np

from .blocks import (
    COMPILE_CAP,
    BlockSpec,
    _rowsum,
    build_clique_block,
    build_cycle_blocks,
    build_plant,
    build_whole_cliques,
    blow_up,
    complete_density,
    ensemble_residual,
    fill_total_weight,
    placements,
    refinement,
    stacked_block_pairs,
    stacked_hom_terms,
    terms_value_and_gradient,
)
from .errors import ConstructionError, DomainError, ResourceError
from .graphs import Graph, h_star, independence_polynomial
# hom_gradient stays bound: perfbench's traced run patches it here by name
from .homs import (  # noqa: F401
    DP_CELL_CAP,
    dp_cells,
    hom_gradient,
    hom_normalized,
    hom_value_and_gradient,
)
from .rates import BlockModelParams, entropy_matrix, rate_scale, scale_pattern, theta_root_from_poly

EPS = 1e-12


@dataclass(frozen=True)
class SolveProblem:
    targets: tuple                    # ((Graph, t), ...)
    n: int
    base: object                      # scalar p or rates.BlockModelParams
    ensemble: tuple | None = None     # None, ("total_weight", m), ("row_sums", d)
    seeds: tuple = ()                 # extra starting points (ndarray or BlockSpec)
    feasibility_tol: ClassVar[float] = 1e-6
    budget: int = 500

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
        _check_constraint(self.ensemble, self.n)
        sizes = {seed.n if isinstance(seed, BlockSpec) else np.shape(seed) for seed in self.seeds}
        if not sizes <= {self.n, (self.n, self.n)}:
            raise DomainError(f"every seed must be an n x n matrix or a BlockSpec of n = {self.n}")
        if isinstance(self.base, BlockModelParams):
            if not all(0 < v < 1 for row in self.base.block_values(self.n)[1] for v in row):
                raise DomainError("block-model base probabilities kernel * p must lie in (0,1)")
        elif np.ndim(self.base) > 0 or not (0 < float(self.base) < 1):
            raise DomainError("base must be a p in (0,1) or a BlockModelParams")
        else:
            p = float(self.base)
            # the regular ensemble's base is d/n, which `_refuse_unreachable` and
            # the row-sum ladder take for granted
            if self.ensemble and self.ensemble[0] == "row_sums" and not (
                    abs(p - self.ensemble[1] / self.n) <= 1e-12 * self.ensemble[1] / self.n):
                raise DomainError(f"row sums {self.ensemble[1]} fix the base at d/n = "
                                  f"{self.ensemble[1] / self.n:.17g}, got {p!r}")
        for h, _t in self.targets:  # normalized counts divide by p^e: below normal, they overflow
            if self.hom_p() ** h.edge_count < np.finfo(float).tiny:
                raise DomainError(f"base p = {self.hom_p()!r} is too small: p ** {h.edge_count} "
                                  f"(the pattern's edge count) is below the smallest normal float")

    def base_spec(self) -> BlockSpec:
        """The base as a BlockSpec: one block of p, or the block model's
        `block_values`, which materialize to its `edge_probability_matrix`."""
        if not isinstance(self.base, BlockModelParams):
            return BlockSpec((self.n,), ((Fraction(float(self.base)),),))
        sizes, values = self.base.block_values(self.n)
        return BlockSpec(tuple(sizes), tuple(tuple(map(Fraction, row)) for row in values))

    def hom_p(self) -> float:
        """Scalar p used inside hom normalization (block model keeps its base p)."""
        return self.base.p if isinstance(self.base, BlockModelParams) else float(self.base)


@dataclass
class SolveResult:
    x: object                 # ndarray where the winning seed was one, else a
                              # BlockSpec; np.asarray(x) is the n x n matrix
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
# projections, row by row on stacks
# ---------------------------------------------------------------------------

def _unit(x):
    """x clipped into [0, 1]: `np.clip` without its Python wrappers."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


_count = np.count_nonzero  # a mask's any() (and all()) at a third of the cost on small stacks


def _rows_of(v, like):
    """Per-row values `v` shaped to broadcast over a stack like `like`."""
    return v.reshape((-1,) + (1,) * (like.ndim - 1))


_BRACKET = np.array([-1, 0])  # a bracket's two ends, from its upper end's place


def _shift_clip(vals, m, weights, live, rows):
    """Row by row, the exact solve of sum weights * clip(v + lam, 0, 1) = m
    for rows of values in [0, 1]: the projection onto a weighted sum within
    the box, in the metric those weights define (each value stands for
    `weights` pairs, `live` = weights > 0).  A value of weight 0 is padding:
    it comes back 0.  `rows` is each row's index, a column.

    total(lam) is piecewise linear and nondecreasing.  No entry reaches 1
    below lam = 0, and none sits at 0 above it, so with a row sorted in
    decreasing order (stably) and W_j, V_j the sums of w and w v through the
    j-th, total(-v_j) = V_j - v_j W_j and total(1 - v_j) = W - v_j (W - W_j)
    + V - V_j.  These breakpoints, and 0, on m's side of total(0) = V,
    bracket m; the bracket's two ends are evaluated exactly and interpolated.
    Padding sorts last, and its breakpoints repeat the last one's total (V
    below, W above), so it moves no row's bracket."""
    width = vals.shape[-1]
    order = (-vals).argsort(axis=-1, kind="stable") + rows * width
    v, w = vals.take(order), weights.take(order)
    cw, cwv = w.cumsum(-1), (w * v).cumsum(-1)
    big, heavy = cwv[:, -1:], cw[:, -1:]
    low = m <= big
    totals = np.where(low, cwv - v * cw, heavy - v * (heavy - cw) + (big - cwv))
    # the bracket's upper end, i: the number of totals below m, that of the
    # breakpoint 0 (V) among them, which is the last below total(0) and the
    # first above it
    i = np.minimum(np.maximum((totals < m).sum(-1, keepdims=True) + (big < m), 1), width)
    bps = np.zeros((len(vals), width + 2))  # 0, breakpoints, 0; read one further on below
    bps[:, 1:-1] = np.where(low, -v, 1.0 - v)
    ends = bps.take(i + low + rows * (width + 2) + _BRACKET)
    lo, hi = ends[:, :1], ends[:, 1:]
    t = _rowsum(weights[:, None] * _unit(vals[:, None] + ends[..., None]))
    t_lo, t_hi = t[:, :1], t[:, 1:]
    span = np.where(t_hi > t_lo, t_hi - t_lo, 1.0)
    lam0 = np.where(m <= t_lo, lo, np.where(m >= t_hi, hi, lo + (m - t_lo) * (hi - lo) / span))
    clipped = _unit(vals + lam0)
    # absorb float residue on strictly interior entries
    r = m - _rowsum(weights * clipped)
    interior = (clipped > 1e-9) & (clipped < 1 - 1e-9) & live
    w_in = _rowsum(np.where(interior, weights, 0.0))
    clipped = np.where(interior, clipped + (r / np.where(w_in > 0, w_in, 1.0))[:, None], clipped)
    return np.where(live, _unit(clipped), 0.0)


def _check_constraint(constraint, n):
    """Refuse, once per problem or projection call, a constraint no matrix on
    n vertices meets: a total weight outside [0, n(n-1)/2], row sums outside
    (0, n-1], or an unknown kind."""
    kind, val = constraint or (None, None)
    if kind == "total_weight" and not (0 <= val <= n * (n - 1) / 2):
        raise DomainError("total weight target outside [0, n(n-1)/2]")
    if kind == "row_sums" and not (0 < val <= n - 1):
        raise DomainError("row-sum target must be in (0, n-1]")
    if kind not in (None, "total_weight", "row_sums"):
        raise DomainError(f"unknown ensemble constraint {constraint!r}")


class _RowSums:
    """Row sums of a stack of block-pair values (blocks of sizes `s`,
    padded with 0, and pairs of blocks `a`, `b` where `live`), and the
    projection onto them (`project`, which stops a row on the point it
    returns): a vertex in block a has row sum sum_b s_b y_ab - y_aa, one
    term for each partner b (none for a one-vertex block's own pair).  One
    `np.bincount` adds each block's terms in partner order, into runs of
    RUN partners, and `_rowsum` adds a block's runs in order.  The runs are
    for accuracy: in one run the 999 terms of n = 1000 one-vertex blocks
    summed up to 3e-13 off.  A padded block is left out of the residual; a
    padded value stays 0."""

    RUN = 64
    MAX_PASSES = 5000

    def __init__(self, n, s, a, b, live):
        self.n, self.s, self.blocks, self.ones = n, s, s > 0, 1.0 * live
        k, width = s.shape[1], live.shape[1]
        self.runs = -(-k // self.RUN)
        a, b = a[live], b[live]
        row, col = np.nonzero(live)
        self.ends_a, self.ends_b = np.zeros((2,) + live.shape, dtype=np.intp)
        ends = row * k + a, row * k + b  # flat indices into s
        self.ends_a[row, col], self.ends_b[row, col] = ends
        # a term (block, partner) for (a, b), and for (b, a) off the diagonal,
        # in partner order; its coefficient, the partner's size less 1 within
        # a block, is 0 only for a one-vertex block's own pair, which has no term
        off, value = a != b, row * width + col
        mine, partner = (np.concatenate([u, v[off]]) for u, v in (ends, ends[::-1]))
        order = np.lexsort((partner, mine))
        coef = s.ravel().take(partner) - (mine == partner)
        order = order[coef.take(order) > 0]
        self.value = np.concatenate([value, value[off]]).take(order)
        self.coef = coef.take(order)
        self.bins = (mine * self.runs + partner % k // self.RUN).take(order)
        self.block_bins = (self.runs * np.arange(len(s))[:, None] + np.arange(k) // self.RUN).ravel()

    def _add(self, bins, terms, shape):
        """Sums of `shape`: the terms added in order into their bins (runs),
        then each sum's runs in order."""
        runs = np.bincount(bins, terms, math.prod(shape) * self.runs)
        return runs.reshape(shape) if self.runs == 1 else _rowsum(runs.reshape(shape + (-1,)))

    def __call__(self, y):
        return self._add(self.bins, self.coef * y.take(self.value), self.s.shape)

    def deviation(self, y, d):
        return np.where(self.blocks, np.abs(self(y) - d), 0.0).max(axis=1)

    def affine(self, y, d):
        """The Euclidean projection of each row's blow-up onto the matrices
        of row sums d (no box): the blow-up plus mu_u + mu_v on each pair."""
        n, r = self.n, self(y)
        total = self._add(self.block_bins, (self.s * r).ravel(), r.shape[:1])
        shift = (n * d - total) / (2.0 * (n - 1))
        mu = (d - r - shift[:, None]) / (n - 2.0)
        return y + (mu.take(self.ends_a) + mu.take(self.ends_b)) * self.ones

    def project(self, x, d, tol, on=None):
        """The projection onto the box [0, 1] and row sums d: Dykstra's
        alternating projections between the box and `affine(., d)`, row by
        row on a stack, with an increment for the box alone.  The affine
        set's increment is normal to that set, so the next affine projection
        cancels it: leaving it out gives the same projection in exact
        arithmetic, and spares its roundoff.  A row stops once the point it
        would return, its iterate clipped into the box, has row sums within
        tol of d (the test the AL certifies a point by), or after MAX_PASSES
        passes; rows outside `on` never start.  The increment starts at 0
        and is built only for a pass that some row still takes."""
        run = np.ones(len(x), dtype=bool) if on is None else on.copy()
        if not _count(run):
            return _unit(x)
        y, inc_box = x, 0.0
        for _it in range(self.MAX_PASSES):
            y_box = y + inc_box
            z = _unit(y_box)
            y2 = self.affine(z, d)
            stopped = ~run
            if _count(stopped):
                y2[stopped] = y[stopped]
            y, out = y2, _unit(y2)
            run &= self.deviation(out, d) > tol
            if not _count(run):
                break
            inc_box = np.where(stopped[:, None], inc_box, y_box - z)
        return out


def project_ensemble(x, constraint):
    """Project onto the box intersected with the ensemble's affine set: the
    symmetrized x on n one-vertex blocks (`_Feasible`), by the AL's own
    projections; clip(sym(x)) without a constraint."""
    n = np.shape(x)[-1]
    _check_constraint(constraint, n)
    space = _Feasible(n, ((1,) * n,), constraint)
    a, b = space.a[0], space.b[0]  # every pair of n one-vertex blocks is live
    out = np.zeros((n, n))
    out[a, b] = space.project(space.pack([x]))[0]
    return out + out.T


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def ladder(problem: SolveProblem, deltas):
    """The planted constructions at each excess level of `deltas`, as one
    list of (tag, BlockSpec) pairs per level: under row sums, for each
    pattern's 2-core, degree-exact cycle blocks if it is a cycle, and if it
    is another regular graph one clique block and the whole (d+1)-cliques
    sized by its exact hom; otherwise hub, clique and both planted on the
    constant-p background, per pattern, the hub's independence polynomial
    built once for every level.  With two or more targets, each tag ends in
    the position of the pattern it was built for (`_h1` for the first), so
    that every seed of `default_seeds` has its own name."""
    n, p = problem.n, problem.hom_p()
    kind = problem.ensemble[0] if problem.ensemble else None
    out = [[] for _ in deltas]
    for i, (h, _t) in enumerate(problem.targets, 1):
        pos = f"_h{i}" if len(problem.targets) > 1 else ""
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
        else:
            poly = independence_polynomial(h_star(h))
            regular, top = h.is_regular(), h.max_degree()
        for level, delta in zip(out, deltas):
            if kind == "row_sums":
                rungs = [(tag, build, (n, d, delta, shape)) for tag, build, shape in builders]
            else:
                try:
                    xh = theta_root_from_poly(poly, delta)
                except DomainError:
                    continue
                plants = [("hub", xh, 0.0)]
                if regular:
                    yc = delta ** (1.0 / h.vertex_count)
                    plants += [("clique", 0.0, yc), ("both", xh, yc)]
                rungs = [(f"plant_{tag}", build_plant, (n, p, x, y, top)) for tag, x, y in plants]
            for tag, build, args in rungs:
                try:
                    level.append((f"{tag}{pos}", build(*args)))
                except (ConstructionError, DomainError):
                    pass
    return out


def default_seeds(problem: SolveProblem):
    """The base (`SolveProblem.base_spec`) plus the ladder at inflated delta
    levels, as (name, BlockSpec) pairs, each distinct BlockSpec once, under
    the tag of its first level."""
    seeds = [("constant", problem.base_spec())]
    tmax = max(t for _, t in problem.targets)
    if tmax <= 1:
        return seeds
    named = {}
    mults = (1.0, 1.5, 2.0, 3.0, 5.0, 8.0)
    for mult, level in zip(mults, ladder(problem, [(tmax - 1.0) * m for m in mults])):
        for tag, spec in level:
            named.setdefault(spec, f"{tag}_delta_x{mult:g}")
    return seeds + [(name, spec) for spec, name in named.items()]


# ---------------------------------------------------------------------------
# the space the AL runs in
# ---------------------------------------------------------------------------

class _Feasible:
    """The feasible set of a stack of points, one row each of the live
    unordered block-pair values (`blocks.block_pairs`) on blocks of `sizes`:
    a value stands for its c unordered vertex pairs (`pairs`) of blocks a
    and b (`a`, `b`), rows are padded to the widest (`live` marks a row's
    values), and `rows` is each row's index, a column.  The constraint
    chooses, once, the projection of the rows' blow-ups (`project`: clip
    into [0, 1], shift and clip onto a total weight, or `_RowSums.project`
    onto row sums, which iterates only rows in `on`), the residual and its
    certificate tolerance `tol` for a point the AL keeps."""

    def __init__(self, n, sizes, constraint):
        self.n, self.sizes = n, sizes
        self.a, self.b, self.pairs = stacked_block_pairs(sizes)
        self.s = _padded(sizes)
        self.live = self.pairs > 0
        self.rows = np.arange(len(self.pairs))[:, None]
        kind, bound = constraint or (None, None)
        self.tol = max(1e-10, 1e-9 * max(1.0, bound)) if kind == "total_weight" else 1e-10
        if kind == "row_sums":
            sums = _RowSums(n, self.s, self.a, self.b, self.live)
            self.project = lambda y, on=None: sums.project(y, bound, self.tol, on)
            self.residual = lambda y: sums.deviation(y, bound)
        elif kind == "total_weight":
            self.project = lambda y, _on=None: _shift_clip(_unit(y), bound, self.pairs, self.live,
                                                           self.rows)
            self.residual = lambda y: np.abs(_rowsum(self.pairs * y) - bound)
        else:
            self.project = lambda y, _on=None: _unit(y)
            self.residual = lambda y: np.zeros(len(y))

    def pairs_of(self, row):
        """Row `row`'s live block pairs (a, b), as `blocks.block_pairs`."""
        live = self.live[row]
        return self.a[row, live], self.b[row, live]

    def _by_owner(self, values, owners):
        """Each row's k x k `values` (a stack, zero-padded to the largest k),
        symmetrized, at its live block pairs: a pair's value that of the two
        blocks its blocks lie in (their `owners`, a padded row each).
        Symmetric values come back bit for bit."""
        rows = self.rows
        oa, ob = owners[rows, self.a], owners[rows, self.b]
        return np.where(self.live, 0.5 * (values[rows, oa, ob] + values[rows, ob, oa]), 0.0)

    def pack(self, seeds):
        """The seeds' rows, each seed's values by owner: a BlockSpec's, or a
        matrix's on n one-vertex blocks."""
        values, sizes = zip(*((seed.value_matrix(), seed.sizes) if isinstance(seed, BlockSpec)
                              else (np.asarray(seed, float), (1,) * self.n) for seed in seeds))
        stack = np.zeros((len(values),) + (max(map(len, values)),) * 2)
        for row, v in zip(stack, values):
            row[:len(v), :len(v)] = v
        return self._by_owner(stack, _padded([refinement(s, t)[1] for s, t in zip(sizes, self.sizes)]))


class _BlockSpace(_Feasible):
    """The AL on a stack of seeds, each a row of `_Feasible` values on its
    blocks cut also where the base's end, so that each has one base value; a
    matrix seed is n one-vertex blocks.  Each n x n step (hom and entropy
    gradients, projection) maps a block-constant matrix to a block-constant
    one, so this space takes them at the cost of a few values.  The entropy
    weighs a value by its c pairs, the inner product (over ordered pairs) by
    2c, and a gradient stays one vertex pair's.  Hom values come from
    `blocks`' compiled expansion where every seed fits `_fits_blocks`;
    otherwise the stack holds one seed and they come from the DP on its
    blow-up (`homs.hom_value_and_gradient`), a block pair's gradient read at
    the first vertices of its blocks (the first two for a block's own pair).

    Every per-seed array is padded to the widest seed: a padded value has
    weight and gradient 0, base 1/2 (0 would make 0 * inf = NaN), and stays
    0, a padded term has weight 0, and a padded block is left out of the row
    sums' residual.  Sums over a row run in order (`_rowsum`), so a seed's
    row takes the same steps in any stack."""

    def __init__(self, problem, sizes):
        # `sizes`: each seed's block sizes, None for a matrix seed; `cut`:
        # them cut also where the base's blocks end, `owners` in the base
        base = problem.base_spec()
        self.matrix = sizes[0] is None  # a matrix seed runs alone
        cut, owners = zip(*(refinement(base.sizes, (1,) * problem.n if s is None else s)
                            for s in sizes))
        super().__init__(problem.n, cut, problem.ensemble)
        self.problem, self.p = problem, problem.hom_p()
        # the mask as a (cheaper) factor, the inner product's weights
        self.ones, self.pairs2 = 1.0 * self.live, 2.0 * self.pairs
        values = np.broadcast_to(base.value_matrix(), (len(owners),) + (base.num_blocks,) * 2)
        self.base = np.where(self.live, self._by_owner(values, _padded(owners)), 0.5)
        self.base_q = 1.0 - self.base
        if all(_fits_blocks(problem, s) for s in sizes):
            # a pair's hom gradient in y / p, shared out over its vertex
            # pairs, is one vertex pair's gradient in x
            self.share = np.divide(1.0, self.p * self.pairs,
                                   out=np.zeros_like(self.pairs), where=self.live)
            self.terms = [self._stack_terms(stacked_hom_terms(h, self.sizes))
                          for h, _t in problem.targets]
        else:  # one seed: the vertex pair each block pair's gradient is read at
            (a, b), first = self.pairs_of(0), np.cumsum(self.sizes[0]) - self.sizes[0]
            self.terms, self.probe = None, (first[a], first[b] + (a == b))

    def _stack_terms(self, terms):
        """One pattern's terms of every seed (`blocks.stacked_hom_terms`),
        each index made a flat value index into the whole stack: (index,
        weights), the index (seeds, terms, edges)."""
        index, weights = terms
        return index + self.pairs.shape[1] * np.arange(len(index))[:, None, None], weights

    def _block_matrix(self, y, row):
        """Row `row`'s values `y` (padded or not) at (a, b) and (b, a) of its
        seed's k x k matrix, 0 at a one-vertex block's own pair."""
        (a, b), z = self.pairs_of(row), np.zeros((len(self.sizes[row]),) * 2)
        z[a, b] = z[b, a] = y[:len(a)]
        return z

    def _blow_up(self, y):
        """The values `y` of a stack of one seed as its n x n matrix."""
        return blow_up(self.sizes[0], self._block_matrix(y, 0))

    def evaluate(self, y):
        """(hom values, hom gradients, entropy values, entropy gradients) of
        each row, each an array with a row per row of y (the hom gradients
        rows x targets x values): all the inner loop needs.  The entropy and
        its log-odds gradient come from one pair of logs, kept off 0 and 1
        (where 0 log 0 = 0)."""
        targets = self.problem.targets
        vals = np.empty((len(y), len(targets)))
        grads = np.empty(vals.shape + y.shape[1:])
        if self.terms is None:
            x = self._blow_up(y[0])
            for j, (h, _t) in enumerate(targets):
                vals[0, j], g = hom_value_and_gradient(h, x, self.p)
                grads[0, j] = g[self.probe]
        else:
            yp = y / self.p
            for j, terms in enumerate(self.terms):
                vals[:, j], g = terms_value_and_gradient(terms, yp)
                np.multiply(g, self.share, out=grads[:, j])
        q = 1.0 - y
        up = np.log(np.maximum(y, EPS) / self.base)
        down = np.log(np.maximum(q, EPS) / self.base_q)
        return vals, grads, _rowsum(self.pairs * (y * up + q * down)), (up - down) * self.ones

    def dot(self, a, b):
        return _rowsum(self.pairs2 * (a * b))

    def witness(self, y, row):
        """Row `row` as its n x n matrix for a matrix seed, else as its
        seed's BlockSpec, each value the Fraction of its float; a step keeps
        values in [0, 1] (clipped, should roundoff ever leave it), and a
        one-vertex block's own pair, which holds no vertex pair, is 0."""
        if self.matrix:
            return self._blow_up(_unit(y[row]))
        values = self._block_matrix(_unit(y[row]), row).tolist()
        return BlockSpec(tuple(self.sizes[row]), tuple(tuple(map(Fraction, r)) for r in values))


def _padded(rows):
    """Arrays (or sequences) as the rows of one array, each zero-padded
    along its first axis to the longest, at least 1: a stack's rows."""
    rows = [np.asarray(r) for r in rows]
    out = np.zeros((len(rows), max(1, max(map(len, rows)))) + rows[0].shape[1:], rows[0].dtype)
    out[np.arange(out.shape[1]) < np.array([len(r) for r in rows])[:, None]] = np.concatenate(rows)
    return out


def _fits_blocks(problem, sizes):
    """Whether a seed on blocks of `sizes` (None for a matrix seed) takes its
    hom values from `blocks`' compiled independent-group expansion, in the
    one lockstep stack: while the placements its compile enumerates on the
    seed's k blocks (`blocks.placements`, at least k^v for a pattern of v
    vertices) are at most `blocks.COMPILE_CAP`, for every pattern."""
    return sizes is not None and all(
        placements(h, len(sizes)) <= COMPILE_CAP for h, _t in problem.targets)


def _refuse_unreachable(problem):
    """`solve_phi`'s first step, before any seed: counts grow with every
    entry, so no target past the count on J - I (`complete_density`) is met;
    nor is a target above 1 of a pattern whose normalized count is 1 on
    every matrix: an edgeless one (n^v), or under row sums d a forest
    (n^c d^(v-c), normalized 1 at base d/n)."""
    row_sums = problem.ensemble and problem.ensemble[0] == "row_sums"
    for h, t in problem.targets:
        if t > 1 and row_sums and scale_pattern(h, regular=True).vertex_count == 0:
            raise DomainError("pattern is a tree: its 2-core is empty, so under "
                              "row sums its normalized count is 1, below t")
        if t > 1 and h.edge_count == 0:
            raise DomainError("pattern has no edges: its normalized count is 1 "
                              "on every matrix, below t")
        top = complete_density(h, problem.n) / problem.hom_p() ** h.edge_count
        if t - problem.feasibility_tol > top:
            raise DomainError(f"target {t!r} is past {top!r}, the pattern's normalized "
                              f"count on the complete graph K_{problem.n}")


DENSE_N_CAP = 2000
TIE_RTOL = 1e-9
CONSTANT_NOTE = "targets <= 1: constant base accepted with O(1/n) slack"
BASE_NOTE = "block-model base: its own counts meet every target"


def _dense_witness(problem):
    """Asked for seeds and ladder specs past `_fits_blocks`' cap: can one run
    on the DP of its n x n blow-up?  Yes while n <= DENSE_N_CAP and every target's hom DP
    fits in DP_CELL_CAP; a pattern past the DP's width cap fits at no n."""
    n = problem.n
    try:
        return n <= DENSE_N_CAP and all(dp_cells(h, n) <= DP_CELL_CAP for h, _t in problem.targets)
    except ResourceError:
        return False


def solve_phi(problem: SolveProblem) -> SolveResult:
    """The best feasible point found, a certified upper bound on the infimum.

    Targets all <= 1 get one constant BlockSpec witness at any n, with no
    n x n work: p (which meets them up to O(1/n)), d/(n-1) under row sums,
    or the exact total weight under it.  A block-model base whose own counts
    meet every target is its own witness at any t, where its seed
    `_fits_blocks` (so the check compiles nothing the AL would not).  A
    seedless scalar-base solve past DENSE_N_CAP takes `_level_search`'s
    answer.  Any other runs the AL from the seeds that `_fits_blocks`, as
    one stack, and each other seed alone where `_dense_witness` (past both,
    a ladder seed is left out and a user seed refused).  The first seed
    within TIE_RTOL of the least value wins, so that seeds which end at one
    point are not ranked by roundoff, measured by the hom engine its row ran
    on (`_result`).  Where no run keeps a feasible point, a scalar-base
    problem without user seeds takes `_level_search`'s answer, with the AL's
    iterations added and noted."""
    _refuse_unreachable(problem)
    scalar = not isinstance(problem.base, BlockModelParams)
    low = all(t <= 1.0 for _h, t in problem.targets)
    constant = problem.base_spec()
    if low or not scalar and _fits_blocks(problem, constant.sizes):
        kind, val = problem.ensemble or (None, None)
        if kind:  # a constant of row sums d has total weight n d / 2
            m = Fraction(val) * problem.n / 2 if kind == "row_sums" else val
            constant = fill_total_weight(constant, m)
        res = _result(problem, constant, "constant", 0, [CONSTANT_NOTE if low else BASE_NOTE])
        if scalar or max(res.residuals) <= problem.feasibility_tol:
            return res
    if problem.n > DENSE_N_CAP and scalar and not problem.seeds:
        return _level_search(problem)

    seeds = default_seeds(problem) + [(f"user_{i}", seed) for i, seed in enumerate(problem.seeds)]
    sizes = [seed.sizes if isinstance(seed, BlockSpec) else None for _name, seed in seeds]
    block = [i for i, s in enumerate(sizes) if _fits_blocks(problem, s)]
    alone = [i for i in range(len(seeds)) if i not in block]
    if alone and not _dense_witness(problem):
        user = [f"seed {seeds[i][0]}" for i in alone if seeds[i][0].startswith("user_")]
        if user or not block:
            raise ResourceError(f"{(user or ['every seed'])[0]} is past the compiled block homs' "
                                f"cap and, at n = {problem.n}, the hom DP's")
        alone = []

    ends = []  # (value, seed index, space, points, row) of every feasible run
    iterations = 0
    for index in ([block] if block else []) + [[i] for i in alone]:
        space = _BlockSpace(problem, [sizes[i] for i in index])
        values, points, iters = _al_stack(problem, space, space.pack([seeds[i][1] for i in index]))
        iterations += int(iters.sum())
        ends += [(values[row], i, space, points, row)
                 for row, i in enumerate(index) if values[row] < math.inf]
    if not ends:
        if not scalar or problem.seeds:
            raise ResourceError("no feasible point found within budget from any seed")
        res = _level_search(problem)
        res.iterations += iterations
        res.notes.append(f"fallback: the AL's {iterations} outer iterations kept no feasible point")
        return res
    least = min(end[0] for end in ends)
    _value, i, space, points, row = min(
        (end for end in ends if end[0] - least <= TIE_RTOL * abs(least)), key=lambda end: end[1])
    return _result(problem, space.witness(points, row), seeds[i][0], iterations, [],
                   space.terms is not None)


def _result(problem, x, provenance, iterations, notes, compiled=True):
    """The SolveResult for witness x, a BlockSpec (its entropy in closed
    form) or a matrix, its hom values from the engine its AL row ran on: the
    closed forms where `compiled`, else the DP; `normalized` takes Delta >= 2.
    `value` is at least 0, which roundoff in the entropy can undercut."""
    p, hs = problem.hom_p(), [h for h, _t in problem.targets]
    if isinstance(x, BlockSpec):
        value = 0.5 * x.entropy(problem.base_spec().refined(x.sizes).value_matrix())
    else:
        value = 0.5 * entropy_matrix(x, np.asarray(problem.base_spec()))
    value = max(0.0, value)
    vals = [x.hom_normalized(h, p) if compiled else hom_normalized(h, np.asarray(x), p)
            for h in hs]
    kind, _ = problem.ensemble or (None, None)
    a_np = rate_scale(problem.n, p, hs, kind == "row_sums", delta_floor=2)
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
# level search: seedless scalar-base solves past DENSE_N_CAP, and a fallback
# ---------------------------------------------------------------------------

def _level_search(problem: SolveProblem) -> SolveResult:
    """Coordinate search over construction-shaped block matrices: scan the
    planted excess level on a coarse-to-fine ladder, keep the cheapest
    feasible candidate, by the exact blockwise closed forms, so n can reach
    construction scale (10^5+).  A candidate whose blocks are past
    `_fits_blocks` is measured on the DP of its blow-up where
    `_dense_witness`, else left out.  Its constructions plant on a constant-p
    background: `solve_phi` asks it only without a block base or seeds."""
    p = problem.hom_p()
    tmax = max(t for _, t in problem.targets)
    kind, val = problem.ensemble or (None, None)
    dense = _dense_witness(problem)

    def count(spec, h, compiled):
        return spec.hom_normalized(h, p) if compiled else hom_normalized(h, np.asarray(spec), p)

    best = (math.inf, None, None, True)  # (value, spec, delta, compiled)
    evaluations = 0
    levels = [(tmax - 1.0) * m for m in (1.0, 1.25, 1.6, 2.0, 3.0, 5.0, 8.0)]
    for _round in range(3):
        for delta, level in zip(levels, ladder(problem, levels)):
            for _tag, spec in level:
                if kind == "total_weight":
                    try:
                        spec = fill_total_weight(spec, val)
                    except ConstructionError:
                        continue
                compiled = _fits_blocks(problem, spec.sizes)
                if not (compiled or dense):
                    continue
                evaluations += 1
                v = 0.5 * spec.entropy(p)
                if v < best[0] and all(count(spec, h, compiled) >= t - problem.feasibility_tol
                                       for h, t in problem.targets):
                    best = (v, spec, delta, compiled)
        if best[1] is None:
            raise ResourceError("no feasible block construction found on the ladder")
        levels = [best[2] * f for f in (0.85, 0.93, 1.0, 1.08, 1.18)]
    return _result(problem, best[1], "block_search", evaluations,
                   ["block-parameterized search: witness is a BlockSpec"], best[3])


def _al_stack(problem, space, x0):
    """The augmented-Lagrangian runs from a stack of seeds, points of `space`
    one to a row, in lockstep.  Each row keeps its own multipliers, penalty,
    spectral step, incumbent and stall histories, and masks hold each row's
    place in the loops, so a row takes the steps it would take alone.
    Returns (best values, best points, outer iterations), one per row, the
    value inf where a row kept no feasible point."""
    feas_tol = problem.feasibility_tol
    targets = np.array([t for _h, t in problem.targets], dtype=float)
    floor = targets - feas_tol
    x = space.project(np.asarray(x0, dtype=float))
    lam = np.zeros((len(x), len(targets)))
    rho = np.full(len(x), 10.0)
    step = np.ones(len(x))  # spectral steps, carried from one inner loop to the next
    best_val, best_x = np.full(len(x), math.inf), x.copy()
    residual_of = np.full(len(x), math.inf)  # each row's ensemble residual, once measured

    def consider(x, ev, moved):
        """Keep each row of x as its incumbent if it is feasible, within
        `space.tol` of the ensemble's set and cheaper; `ev` is its
        `space.evaluate` tuple.  Only a row that `moved` can newly pass the
        first two tests: one that did not offers its point again, whose
        residual is known."""
        vals, _, val, _ = ev
        keep = (vals >= floor).all(axis=1) & (val < best_val)
        if _count(keep & moved):
            residual_of[:] = space.residual(x)
        keep &= residual_of <= space.tol
        if _count(keep):
            best_val[keep] = val[keep]
            best_x[keep] = x[keep]

    running = np.ones(len(x), dtype=bool)
    ev = space.evaluate(x)
    consider(x, ev, running)
    # rings of the last 30 incumbents (after update j, at j % 30) and the last
    # 31 residuals (before update j, at j % 31); the incumbent only falls, so
    # the last five spread from the oldest to the newest
    history, res_history = np.empty((30, len(x))), np.empty((31, len(x)))
    res_history[0] = np.maximum(targets - ev[0], 0.0).max(axis=1)
    iterations = np.zeros(len(x), dtype=int)

    for outer in range(problem.budget):
        x_in = x
        x, ev, step = _spg(space, x, ev, targets, lam, rho, step, running)
        gap = targets - ev[0]
        residual = np.maximum(gap, 0.0).max(axis=1)
        if x is not x_in:  # with no step taken, x is the point `consider` last saw
            consider(x, ev, running)
        lam = np.maximum(0.0, lam + rho[:, None] * gap)
        rho = np.where((residual > 0.7 * res_history[outer % 31]) & (residual > feas_tol),
                       np.minimum(rho * 2.0, 1e12), rho)
        history[outer % 30] = best_val
        res_history[(outer + 1) % 31] = residual
        iterations += running
        if outer < 4:
            continue
        v_old = history[(outer - 4) % 30]
        with np.errstate(invalid="ignore"):  # inf - inf before an incumbent
            spread = (v_old - best_val) / (1.0 + np.abs(best_val))
            stop = (residual <= feas_tol) & np.isfinite(v_old) & (spread <= 1e-6)
            # bail out of a stalled run: neither the residual nor the
            # incumbent value moved over the last 30 multiplier updates
            if outer >= 29:
                v_old = history[(outer - 29) % 30]
                seen = np.isfinite(v_old)  # then best_val is finite too
                kept = np.abs(v_old - best_val) <= 1e-6 * (1.0 + np.abs(best_val))
                val_stuck = seen & kept | ~seen & ~np.isfinite(best_val)
                stalled = residual > 0.99 * res_history[(outer - 29) % 31]
                stop |= (residual > feas_tol) & stalled & val_stuck
        running &= ~stop
        if not _count(running):
            break
    return best_val, best_x, iterations


def _spg(space, x, ev, targets, lam, rho, step, on, max_steps=60):
    """Nonmonotone spectral projected gradient (SPG2 of Birgin, Martinez &
    Raydan, SIAM J. Optim. 10, 2000) on each row's AL objective at its fixed
    (lam, rho), for the rows in `on`; the others come back as they are.

    `ev` is the `space.evaluate` tuple at x and `step` each row's
    Barzilai-Borwein step from its previous call; both come back for the
    points returned, so each point is evaluated once.  Each step projects
    once, d = P(x - step*g) - x, and halves t along the feasible segment
    x + t*d until f falls below the largest of the row's last 10 values by
    1e-4 * t * g.d.  A row stops once -g.d is within f's roundoff,
    1e-12 * (1 + |f|): no step along d could then be seen to decrease f.
    Returns (x, ev, step).
    """
    rho_col = rho[:, None]
    lam_rho = lam / rho_col
    lam_rho_sq, half_rho = lam_rho ** 2, 0.5 * rho

    def al(ev):
        """Each row's AL value and gradient at the point of `ev`."""
        vals, hom_grads, entropy, grad = ev
        pen = np.maximum(0.0, lam_rho + (targets - vals))
        for j, m in enumerate((rho_col * pen).T):
            if _count(m):
                grad = grad - _rows_of(m, grad) * hom_grads[:, j]
        return entropy + half_rho * (pen ** 2 - lam_rho_sq).sum(axis=1), grad

    def take(rows, new, old):
        """`new` on `rows`, `old` elsewhere, array by array."""
        return tuple(np.where(_rows_of(rows, a), a, b) for a, b in zip(new, old))

    f, grad = al(ev)
    inner = on.copy()
    for k in range(1, max_steps + 1):
        d = space.project(x - _rows_of(step, x) * grad, inner) - x
        # both gradients are per unordered pair; each pair sits twice in d
        slope = 0.5 * space.dot(grad, d)
        inner &= slope < -1e-12 * (1.0 + np.abs(f))
        live = _count(inner)
        if not live:
            break
        if k == 1:
            # each row's last 10 values, a ring; a row out of the loop never
            # returns to it, so the rows still in it share one write position
            recent = np.empty((len(x), 10))
            recent[:, 0], recent[:, 1:] = f, -math.inf
        # a row out of the loop takes the zero step: its trial point is its
        # point, which evaluates to its own values bit for bit
        if live < len(inner):
            d = np.where(_rows_of(inner, d), d, 0.0)
        f_ref = recent.max(axis=1)
        t = 1.0  # halved for every row, read only on the rows still searching
        search = inner
        for bt in range(40):
            xt = x + t * d if bt else x + d
            ev_t = space.evaluate(xt)
            trial = (xt, *ev_t, *al(ev_t))
            ok = trial[-2] <= f_ref + 1e-4 * t * slope
            if bt == 0:  # rows that backtrack are replaced when they accept
                new = trial
            elif _count(search & ok):
                new = take(search & ok, trial, new)
            search = search & ~ok
            if not _count(search):
                break
            t *= 0.5
        else:  # a row that found no decrease in 40 halvings stops
            inner &= ~search
            new = take(search, (x, *ev, f, grad), new)
        xn, ev_n, fn, grad_n = new[0], new[1:-2], new[-2], new[-1]
        s, y = xn - x, grad_n - grad
        sy = space.dot(s, y)
        curved = sy > 0
        bb = np.minimum(np.maximum(space.dot(s, s) / np.where(curved, sy, 1.0), 1e-10), 1e3)
        step = np.where(inner, np.where(curved, bb, 1e3), step)
        x, ev, f, grad = xn, ev_n, fn, grad_n
        recent[:, k % 10] = f
    return x, ev, step

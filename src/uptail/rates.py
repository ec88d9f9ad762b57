"""Closed-form rate constants and their scalar ingredients.

Branches follow the planting picture: "hub" = a few vertices joined to
everything (rate theta, the root of the independence polynomial equation),
"clique" = one small complete block (rate delta^{2/v} / 2), "multi_clique" =
ceil(delta) disjoint cliques in the degree-constrained ensemble.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .graphs import Graph, h_star, independence_polynomial, two_core

# ---------------------------------------------------------------------------
# entropies and the scale
# ---------------------------------------------------------------------------

def entropy_ip(x: float, p: float) -> float:
    """Binary relative entropy I_p(x) = x log(x/p) + (1-x) log((1-x)/(1-p))."""
    if not (0 < p < 1):
        raise DomainError(f"p must be in (0,1), got {p}")
    if not (0 <= x <= 1):
        raise DomainError(f"x must be in [0,1], got {x}")
    term1 = 0.0 if x == 0 else x * math.log(x / p)
    term2 = 0.0 if x == 1 else (1 - x) * math.log((1 - x) / (1 - p))
    return term1 + term2


def _entropy_array(x: np.ndarray, p) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0) / p), 0.0)
        t2 = np.where(x < 1, (1 - x) * np.log(np.where(x < 1, 1 - x, 1.0) / (1 - p)), 0.0)
    return t1 + t2


def entropy_matrix(x, p) -> float:
    """I_p(X): entrywise relative entropy summed over ordered pairs i != j.

    `p` may be a scalar or a matching matrix of base probabilities (block
    model).  Each unordered pair counts twice, so rate values are I_p(X)/2.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DomainError("X must be square")
    n = x.shape[0]
    off = ~np.eye(n, dtype=bool)
    if np.isscalar(p) or np.asarray(p).ndim == 0:
        p = float(p)
        if not (0 < p < 1):
            raise DomainError(f"p must be in (0,1), got {p}")
        vals = _entropy_array(x[off], p)
    else:
        pm = np.asarray(p, dtype=float)
        if pm.shape != x.shape:
            raise DomainError("base probability matrix must match X's shape")
        if (pm[off] <= 0).any() or (pm[off] >= 1).any():
            raise DomainError("base probabilities must lie in (0,1) off-diagonal")
        vals = _entropy_array(x[off], pm[off])
    return float(vals.sum())


def scale_anp(n: int, p: float, delta: int) -> float:
    """a_{n,p} = n^2 p^Delta log(1/p)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not (0 < p < 1):
        raise DomainError(f"p must be in (0,1), got {p}")
    if delta < 2:
        raise DomainError("Delta must be >= 2")
    return n * n * p ** delta * math.log(1.0 / p)


def scale_pattern(h: Graph, regular: bool) -> Graph:
    """The pattern whose rate and scale an ensemble sees: under the regular
    ensemble its 2-core, since each pendant tree multiplies hom(H, G) by a
    fixed power of d; otherwise H itself (Delta of G(n,p) is H's own)."""
    return two_core(h)[0] if regular else h


def rate_scale(n: int, p: float, patterns, regular: bool = False, delta_floor: int = 0):
    """a_{n,p} of a pattern set, at Delta = the smallest maximum degree of
    their `scale_pattern`s, raised to `delta_floor` when below it.  None when
    Delta < 2 or p is outside (0, 1)."""
    delta = min((scale_pattern(h, regular).max_degree() for h in patterns), default=0)
    delta = max(delta, delta_floor)
    if delta < 2 or not (0 < p < 1):
        return None
    return scale_anp(n, p, delta)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

BRANCHES = ("hub", "clique", "mixed", "multi_clique", "infinite")


@dataclass(frozen=True)
class RateReport:
    constant: float
    branch: str
    witness: tuple | None = None          # (x, y) or (floor(delta), frac(delta))

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise DomainError(f"unknown branch tag {self.branch!r}")
        if self.constant < 0:
            raise DomainError("rate constant must be nonnegative")
        has_witness = self.witness is not None
        if has_witness != (self.branch != "infinite"):
            raise DomainError("witness present iff branch is finite")
        if self.branch == "mixed" and not (self.witness[0] > 0 and self.witness[1] > 0):
            raise DomainError("mixed branch requires strictly positive witness")

    def to_json(self) -> dict:
        out = {"constant": self.constant, "branch": self.branch}
        if self.witness is not None:
            out["witness_x"] = self.witness[0]
            out["witness_y"] = self.witness[1]
        return out


@dataclass(frozen=True)
class BlockModelParams:
    """Inhomogeneous base: block fractions alpha, kernel c, sparsity p."""

    alpha: tuple
    kernel: tuple  # tuple of tuples, symmetric, nonnegative
    p: float

    def __post_init__(self):
        if abs(sum(self.alpha) - 1.0) > 1e-12:
            raise DomainError("block fractions must sum to 1")
        if not all(a > 0 for a in self.alpha):  # NaN fails too
            raise DomainError("block fractions must be positive")
        if not (0 < self.p < 1):
            raise DomainError("p must be in (0,1)")
        k = len(self.alpha)
        if len(self.kernel) != k or any(len(row) != k for row in self.kernel):
            raise DomainError("kernel must be square of the same order as alpha")
        for r in range(k):
            for s in range(k):
                if not self.kernel[r][s] >= 0:
                    raise DomainError("kernel entries must be nonnegative")
                if abs(self.kernel[r][s] - self.kernel[s][r]) > 1e-12:
                    raise DomainError("kernel must be symmetric")
                if self.kernel[r][s] * self.p > 1:
                    raise DomainError("kernel * p must not exceed 1")

    @property
    def num_blocks(self):
        return len(self.alpha)

    def block_values(self, n: int):
        """The nonempty blocks of n vertices (`block_sizes`), kernel * p on each pair."""
        sizes = block_sizes(self.alpha, n)
        kept = [a for a, size in enumerate(sizes) if size]
        return [sizes[a] for a in kept], [[self.kernel[a][b] * self.p for b in kept] for a in kept]

    def edge_probability_matrix(self, n: int) -> np.ndarray:
        """Per-pair probability matrix on n vertices (blocks of near-equal size)."""
        from .blocks import blow_up  # blocks imports this module

        return blow_up(*self.block_values(n))


def block_sizes(alpha, n: int):
    """Integer block sizes ~ alpha * n, largest-remainder rounding."""
    raw = [a * n for a in alpha]
    sizes = [int(math.floor(r)) for r in raw]
    rem = n - sum(sizes)
    order = sorted(range(len(alpha)), key=lambda i: raw[i] - sizes[i], reverse=True)
    for i in range(rem):
        sizes[order[i]] += 1
    return sizes


# ---------------------------------------------------------------------------
# theta and the closed forms
# ---------------------------------------------------------------------------

def _require_delta(delta):
    if not (math.isfinite(delta) and delta >= 0):
        raise DomainError(f"delta must be finite and >= 0, got {delta}")


def theta_root(h: Graph, delta: float) -> float:
    """Unique positive root of P_{H*}(theta) = 1 + delta (bisection)."""
    return theta_root_from_poly(independence_polynomial(h_star(h)), delta)


def c_er(h: Graph, delta: float) -> RateReport:
    """Rate constant for the independent-edge (binomial) ensemble.

    Regular pattern: min(theta, delta^{2/v}/2), hub vs clique planting;
    irregular: hub only.  Ties go to hub.
    """
    if not h.is_connected() or h.max_degree() < 2:
        raise DomainError("pattern must be connected with max degree >= 2")
    _require_delta(delta)
    if delta == 0:
        return RateReport(0.0, "hub", (0.0, 0.0))
    theta = theta_root(h, delta)
    if not h.is_regular():
        return RateReport(theta, "hub", (theta, 0.0))
    v = h.vertex_count
    clique_val = 0.5 * delta ** (2.0 / v)
    if theta <= clique_val + 1e-12:
        return RateReport(theta, "hub", (theta, 0.0))
    return RateReport(clique_val, "clique", (0.0, delta ** (1.0 / v)))


def c_reg(h: Graph, delta: float) -> RateReport:
    """Rate constant for the constant-degree ensemble (pattern = its 2-core)."""
    if not h.is_connected():
        raise DomainError("pattern must be connected")
    if h.min_degree() < 2:
        raise DomainError("pattern has degree-1 vertices; reduce to its 2-core first")
    _require_delta(delta)
    if delta == 0:
        return RateReport(0.0, "hub", (0.0, 0.0))
    v = h.vertex_count
    dmax = h.max_degree()
    if dmax == 2:
        whole = math.floor(delta)
        frac = delta - whole
        val = 0.5 * (whole + (frac ** (2.0 / v) if frac > 0 else 0.0))
        return RateReport(val, "multi_clique", (float(whole), frac))
    if h.is_regular():
        return RateReport(0.5 * delta ** (2.0 / v), "clique", (0.0, delta ** (1.0 / v)))
    return RateReport(math.inf, "infinite", None)


def _joint_setup(h_list, delta_list):
    if len(h_list) != len(delta_list):
        raise DomainError("need one delta per pattern")
    if not h_list:
        raise DomainError("need at least one pattern")
    degs = {h.max_degree() for h in h_list}
    if len(degs) != 1 or min(degs) < 2:
        raise DomainError("joint constant needs equal max degrees >= 2")
    for h in h_list:
        if not h.is_connected():
            raise DomainError("patterns must be connected")
    for d in delta_list:
        _require_delta(d)
    return [
        (independence_polynomial(h_star(h)), h.vertex_count, h.is_regular(), d)
        for h, d in zip(h_list, delta_list)
    ]


def _joint_y_required(entries, x: float) -> float:
    """Minimal feasible y at hub level x; inf if an irregular constraint fails."""
    y = 0.0
    for poly, v, regular, delta in entries:
        gap = 1.0 + delta - poly(x)
        if gap <= 0:
            continue
        if not regular:
            return math.inf
        y = max(y, gap ** (1.0 / v))
    return y


def c_joint(h_list, delta_list) -> RateReport:
    """Joint rate constant: minimize x + y^2/2 subject to
    P_{H_i*}(x) + [H_i regular] y^{v(H_i)} >= 1 + delta_i for all i.

    1-D reduction over a refined x-grid plus explicit boundary candidates.
    """
    entries = _joint_setup(h_list, delta_list)
    if all(d == 0 for _, _, _, d in list(entries)):
        return RateReport(0.0, "hub", (0.0, 0.0))
    thetas = [
        theta_root_from_poly(poly, delta) for poly, _, _, delta in entries
    ]
    x_hi = max(thetas)
    x_lo = max(
        (theta for (poly, v, reg, d), theta in zip(entries, thetas) if not reg),
        default=0.0,
    )

    def objective(x):
        y = _joint_y_required(entries, x)
        if math.isinf(y):
            return math.inf, y
        return x + 0.5 * y * y, y

    candidates = []  # (value, x, y)
    for x in (x_lo, x_hi):
        val, y = objective(x)
        if math.isfinite(val):
            candidates.append((val, x, y))

    lo, hi = x_lo, x_hi
    best_x = None
    for _ in range(3):
        xs = np.linspace(lo, hi, 1001)
        vals = [objective(x)[0] for x in xs]
        k = int(np.argmin(vals))
        best_x = xs[k]
        spacing = (hi - lo) / 1000 if hi > lo else 0.0
        lo = max(x_lo, best_x - spacing)
        hi = min(x_hi, best_x + spacing)
        if spacing == 0.0:
            break
    if best_x is not None:
        val, y = objective(best_x)
        if math.isfinite(val):
            candidates.append((val, best_x, y))

    if not candidates:
        raise DomainError("joint problem infeasible (should not happen)")
    best_val = min(c[0] for c in candidates)
    snap = 1e-9 * (1.0 + abs(best_val))
    # deterministic tie-breaking: hub, then clique, then mixed
    for val, x, y in candidates:
        if val <= best_val + snap and y <= 1e-9:
            return RateReport(val, "hub", (x, 0.0))
    for val, x, y in candidates:
        if val <= best_val + snap and x <= 1e-9:
            return RateReport(val, "clique", (0.0, y))
    val, x, y = min(candidates, key=lambda c: c[0])
    return RateReport(val, "mixed", (x, y))


def theta_root_from_poly(poly, delta: float) -> float:
    """The positive root of poly = 1 + delta by bisection, as its upper end.
    Once the midpoint rounds to an end, no step can move either end (poly(lo)
    < 1 + delta <= poly(hi) throughout), so the loop stops there, where the
    ends are adjacent floats.  A polynomial of nonnegative coefficients, by
    Horner's rule, does not decrease on x >= 0 even in floats, so that upper
    end is the least float at which poly reaches 1 + delta, from whatever
    bracket the bisection starts: `_narrowed` first takes it to a few ulps."""
    _require_delta(delta)
    if delta == 0:
        return 0.0
    target = 1.0 + delta
    lo, hi = 0.0, 1.0
    while poly(hi) < target:
        hi *= 2.0
        if hi > 1e18:
            raise DomainError("no positive root found")
    lo, hi = _narrowed(poly, target, lo, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if poly(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi  # poly(hi) >= target, so the returned point is always feasible


def _narrowed(poly, target, lo, hi):
    """The bracket poly(lo) < target <= poly(hi) narrowed by false-position
    steps, an end's excess halved once the other end has moved twice in a
    row (the Illinois rule), a step that would land within 2 ulps of an end
    taken 2 ulps inside it, at most 8 of them, until the ends lie within 4
    ulps.  Left as it is where poly(lo) already reaches target (1 + delta
    rounds to 1: bisection then runs its 200 steps) or poly(hi) overflows."""
    f_lo, f_hi = poly(lo) - target, poly(hi) - target
    if f_lo >= 0 or f_hi == math.inf:
        return lo, hi
    side = 0
    for _ in range(8):
        if hi - lo <= 4 * math.ulp(hi):
            break
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        x = min(max(x, lo + 2 * math.ulp(lo)), hi - 2 * math.ulp(hi))
        if not lo < x < hi:  # NaN, from an overflowed product
            break
        f_x = poly(x) - target
        if f_x < 0:
            lo, f_lo, f_hi = x, f_x, f_hi * (0.5 if side < 0 else 1.0)
            side = -1
        else:
            hi, f_hi, f_lo = x, f_x, f_lo * (0.5 if side > 0 else 1.0)
            side = 1
    return lo, hi


# ---------------------------------------------------------------------------
# block-model constant, regular-graph count, floor bound
# ---------------------------------------------------------------------------

def b_h(h: Graph, params: BlockModelParams) -> float:
    """Mean normalized homomorphism count under the block model:
    sum over block assignments of V(H) of prod alpha_r^{n_r} prod c^{edges}."""
    v = h.vertex_count
    if v > 12:
        raise ResourceError(f"b_h enumeration capped at 12 pattern vertices, got {v}")
    k = params.num_blocks
    total = 0.0
    for assign in itertools.product(range(k), repeat=v):
        w = 1.0
        for r in assign:
            w *= params.alpha[r]
        for a, b in h.edges:
            w *= params.kernel[assign[a]][assign[b]]
        total += w
    return total


def log_gn_regular(n: int, d: int) -> float:
    """log of the asymptotic count of labeled d-regular graphs on n vertices."""
    if not (1 <= d <= n - 2):
        raise DomainError("need 1 <= d <= n-2")
    if (n * d) % 2 != 0:
        raise DomainError(f"no regular graph exists: n*d = {n * d} is odd")
    mu = d / (n - 1)
    n_e = n * (n - 1) // 2
    log_binom = math.lgamma(n) - math.lgamma(d + 1) - math.lgamma(n - d)
    return (
        0.5 * math.log(2.0)
        + 0.25
        + n_e * (mu * math.log(mu) + (1 - mu) * math.log(1 - mu))
        + n * log_binom
    )


def lemma_floor_bound(xs, beta: float):
    """Returns (sum x_i, sum x_i^beta, floor + frac^beta of the first sum)."""
    if not (0 < beta < 1):
        raise DomainError("beta must be in (0,1)")
    xs = np.asarray(xs, dtype=float)
    if xs.size and (xs.min() < 0 or xs.max() > 1):
        raise DomainError("inputs must lie in [0,1]")
    f1 = float(xs.sum())
    fbeta = float((xs ** beta).sum())
    whole = math.floor(f1)
    frac = f1 - whole
    bound = whole + (frac ** beta if frac > 0 else 0.0)
    return f1, fbeta, bound

"""Random-graph ensembles, tail-probability Monte Carlo, and the tilted
(planted) importance sampler.

Every ensemble draws through one stack routine, `_draw_stack`, which returns
a (batch, n, n) 0/1 adjacency stack: independent-edge ensembles through one
per-pair uniform routine, uniform and regular graphs one draw after another
in stream order.  Monte Carlo counts hits on these stacks with the batched
hom; `sample` is row 0 of a one-graph stack.  An importance run with
tilt == base consumes the stream identically to direct Monte Carlo.  Worker
streams derive from (master_seed, worker_index) with a counter-based
generator; reductions happen in worker order, making estimates reproducible
for any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockSpec
from .errors import DomainError, SamplingError
from .graphs import Graph
# hom_normalized is unused here but stays bound: perfbench's traced run
# patches uptail.ensembles.hom_normalized by name
from .homs import DP_CELL_CAP, batched_hom_normalized, hom_normalized  # noqa: F401
from .rates import BlockModelParams, scale_anp

CONFIG_MODEL_RETRY_CAP = 20_000


def rng_stream(seed: int, worker: int = 0) -> np.random.Generator:
    """Independent counter-based stream for (master seed, worker index)."""
    return np.random.Generator(np.random.Philox(key=(int(seed), int(worker))))


# ---------------------------------------------------------------------------
# ensemble specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleSpec:
    kind: str                     # er | uniform | regular | block | planted
    n: int
    p: float | None = None
    m: int | None = None
    d: int | None = None
    block: BlockModelParams | None = None
    planted: object | None = None  # ndarray or BlockSpec

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        k = self.kind
        if k == "er":
            if self.p is None or not (0 < self.p <= 1):
                raise DomainError("er ensemble needs p in (0,1]")
        elif k == "uniform":
            n_e = self.n * (self.n - 1) // 2
            if self.m is None or not (0 <= self.m <= n_e):
                raise DomainError(f"uniform ensemble needs 0 <= m <= {n_e}")
        elif k == "regular":
            if self.d is None or not (2 <= self.d <= self.n - 2):
                raise DomainError("regular ensemble needs 2 <= d <= n-2")
            if (self.n * self.d) % 2 != 0:
                raise DomainError("n*d must be even for a regular graph")
        elif k == "block":
            if self.block is None:
                raise DomainError("block ensemble needs BlockModelParams")
        elif k == "planted":
            if self.planted is None:
                raise DomainError("planted ensemble needs a weight matrix")
        else:
            raise DomainError(f"unknown ensemble kind {k!r}")

    def sparsity(self) -> float:
        """The scalar p used for hom normalization and a_{n,p}."""
        if self.kind == "er":
            return self.p
        if self.kind == "uniform":
            return self.m / (self.n * (self.n - 1) / 2)
        if self.kind == "regular":
            return self.d / self.n
        if self.kind == "block":
            return self.block.p
        x = self.probability_matrix()
        off = ~np.eye(self.n, dtype=bool)
        return float(x[off].mean())

    def probability_matrix(self) -> np.ndarray:
        """Per-pair edge probabilities for the independent-edge ensembles."""
        if self.kind == "er":
            x = np.full((self.n, self.n), float(self.p))
        elif self.kind == "block":
            x = self.block.edge_probability_matrix(self.n)
        elif self.kind == "planted":
            x = (
                self.planted.materialize()
                if isinstance(self.planted, BlockSpec)
                else np.asarray(self.planted, dtype=float)
            )
            if x.shape != (self.n, self.n):
                raise DomainError("planted matrix shape mismatch")
        else:
            raise DomainError(f"{self.kind} is not an independent-edge ensemble")
        x = x.copy()
        np.fill_diagonal(x, 0.0)
        return x


def er(n, p):
    return EnsembleSpec("er", n, p=p)


def uniform(n, m):
    return EnsembleSpec("uniform", n, m=m)


def regular(n, d):
    return EnsembleSpec("regular", n, d=d)


def block_model(n, params):
    return EnsembleSpec("block", n, block=params)


def planted(x):
    if isinstance(x, BlockSpec):
        return EnsembleSpec("planted", x.n, planted=x)
    x = np.asarray(x, dtype=float)
    return EnsembleSpec("planted", x.shape[0], planted=x)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _pairs_to_graph(n, iu, mask) -> Graph:
    edges = tuple(
        (int(u), int(v)) for u, v, keep in zip(iu[0], iu[1], mask) if keep
    )
    return Graph(n, edges)


def _sample_adjacency_batch(probs: np.ndarray, batch: int, rng) -> np.ndarray:
    """Independent-edge samples as a (batch, n, n) 0/1 stack."""
    n = probs.shape[0]
    iu = np.triu_indices(n, 1)
    u = rng.random((batch, iu[0].size))
    hit = (u < probs[iu]).astype(np.int8)
    a = np.zeros((batch, n, n), dtype=np.int8)
    a[:, iu[0], iu[1]] = hit
    a = a + a.transpose(0, 2, 1)
    return a


def _sample_uniform_m(n, m, rng) -> np.ndarray:
    iu = np.triu_indices(n, 1)
    pick = rng.choice(iu[0].size, size=m, replace=False)
    a = np.zeros((n, n), dtype=np.int8)
    a[iu[0][pick], iu[1][pick]] = 1
    return a + a.T


def _configuration_model(n, d, rng) -> np.ndarray:
    """Uniform d-regular sample: pair half-edge stubs, reject non-simple."""
    stubs = np.repeat(np.arange(n), d)
    for _ in range(CONFIG_MODEL_RETRY_CAP):
        perm = rng.permutation(stubs)
        a_pairs = perm.reshape(-1, 2)
        u, v = a_pairs[:, 0], a_pairs[:, 1]
        if (u == v).any():
            continue
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keys = lo * n + hi
        if np.unique(keys).size != keys.size:
            continue
        a = np.zeros((n, n), dtype=np.int8)
        a[lo, hi] = 1
        a = a + a.T
        return a
    raise SamplingError(
        f"configuration model for n={n}, d={d} drew no simple graph "
        f"in {CONFIG_MODEL_RETRY_CAP} trials"
    )


def _draw_stack(spec: EnsembleSpec, batch: int, rng) -> np.ndarray:
    """`batch` graphs from the ensemble as a (batch, n, n) 0/1 int8 stack."""
    if spec.kind not in ("uniform", "regular"):
        return _sample_adjacency_batch(spec.probability_matrix(), batch, rng)
    a = np.empty((batch, spec.n, spec.n), dtype=np.int8)
    for i in range(batch):
        if spec.kind == "uniform":
            a[i] = _sample_uniform_m(spec.n, spec.m, rng)
        else:
            a[i] = _configuration_model(spec.n, spec.d, rng)
    if spec.kind == "regular":
        assert (a.sum(axis=-1) == spec.d).all(), "regular sampler degree violation"
    return a


def _chunk_sizes(n, count, chunk):
    """Split `count` draws into chunks of at most `chunk` graphs and at most
    DP_CELL_CAP adjacency cells."""
    size = max(1, min(chunk, DP_CELL_CAP // (n * n)))
    for lo in range(0, count, size):
        yield min(size, count - lo)


def sample(spec: EnsembleSpec, rng) -> Graph:
    """One graph from the ensemble; regular output is asserted d-regular."""
    a = _draw_stack(spec, 1, rng)[0]
    iu = np.triu_indices(spec.n, 1)
    return _pairs_to_graph(spec.n, iu, a[iu] > 0)


# ---------------------------------------------------------------------------
# tail estimates
# ---------------------------------------------------------------------------

@dataclass
class TailEstimate:
    point: float
    ci_low: float
    ci_high: float
    samples: int
    hits: float               # hit count (direct) or effective sample size (IS)
    method: str
    neg_log_point: float
    neg_log_normalized: float | None = None
    zero_hits: bool = False
    notes: list = field(default_factory=list)

    def __post_init__(self):
        self.point = min(max(self.point, 0.0), 1.0)
        self.ci_low = min(max(self.ci_low, 0.0), self.point)
        self.ci_high = max(min(self.ci_high, 1.0), self.point)

    def overlaps(self, other) -> bool:
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high

    def to_json(self):
        out = {
            "point": self.point,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "samples": self.samples,
            "hits": self.hits,
            "method": self.method,
            "neg_log_point": self.neg_log_point,
            # the same interval on the -log scale (bounds swap roles)
            "neg_log_ci_low": _neg_log(self.ci_high),
            "neg_log_ci_high": _neg_log(self.ci_low),
            "zero_hits": self.zero_hits,
        }
        if self.neg_log_normalized is not None:
            out["neg_log_normalized"] = self.neg_log_normalized
        if self.notes:
            out["notes"] = self.notes
        return out


def _neg_log(point):
    return math.inf if point <= 0 else -math.log(point)


def _norm_const(spec, h_list):
    dmax = min(h.max_degree() for h in h_list)
    if dmax < 2:
        return None
    p = spec.sparsity()
    if not (0 < p < 1):
        return None
    return scale_anp(spec.n, p, dmax)


def _worker_counts(num_samples, workers):
    base = num_samples // workers
    out = [base] * workers
    for i in range(num_samples - base * workers):
        out[i] += 1
    return out


def _hom_hits_for_batch(a_batch, h_list, t_list, p):
    hits = np.ones(a_batch.shape[0], dtype=bool)
    for h, t in zip(h_list, t_list):
        vals = batched_hom_normalized(h, a_batch, p)
        hits &= vals >= t
    return hits


def mc_upper_tail(
    spec: EnsembleSpec,
    h_list,
    t_list,
    num_samples: int,
    seed: int = 0,
    threshold: str = "analytic",
    workers: int = 1,
    chunk: int = 4096,
    progress=None,
) -> TailEstimate:
    """Direct Monte Carlo estimate of P(all hom(H_i, G) >= t_i).

    threshold="analytic" compares normalized counts against t_i directly;
    "empirical" runs two passes and thresholds raw counts against
    t_i * (empirical mean of Hom).  `progress(done, estimate)` is invoked as
    worker batches complete.
    """
    if num_samples < 1:
        raise DomainError("num_samples must be >= 1")
    h_list = list(h_list)
    t_list = [float(t) for t in t_list]
    if len(h_list) != len(t_list):
        raise DomainError("need one threshold per pattern")
    p = spec.sparsity()

    thresholds = t_list
    if threshold == "empirical":
        means = _empirical_hom_means(spec, h_list, num_samples, seed, workers, chunk)
        thresholds = [t * mu for t, mu in zip(t_list, means)]
    elif threshold != "analytic":
        raise DomainError("threshold mode must be 'analytic' or 'empirical'")

    counts = _worker_counts(num_samples, workers)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_count_hits, spec, h_list, thresholds, count,
                            rng_stream(seed, w), p, chunk)
                for w, count in enumerate(counts)
            ]
            hits, done = 0, 0
            for f, count in zip(futures, counts):  # worker-order reduction
                hits += f.result()
                done += count
                if progress and count:
                    progress(done, hits / done)
    else:
        hits, done = 0, 0
        for w, count in enumerate(counts):
            hits += _count_hits(
                spec, h_list, thresholds, count, rng_stream(seed, w), p, chunk,
                progress=progress, progress_base=done, total_hits_before=hits,
            )
            done += count

    point = hits / num_samples
    se = math.sqrt(max(point * (1 - point), 0.0) / num_samples)
    est = TailEstimate(
        point=point,
        ci_low=point - 1.96 * se,
        ci_high=point + 1.96 * se,
        samples=num_samples,
        hits=float(hits),
        method=f"direct_mc[{threshold}]",
        neg_log_point=_neg_log(point),
        zero_hits=(hits == 0),
    )
    if hits == 0:
        est.ci_high = 1.0 - 0.05 ** (1.0 / num_samples)  # one-sided bound
        est.notes.append("zero hits: one-sided 95% upper bound")
    a_np = _norm_const(spec, h_list)
    if a_np:
        est.neg_log_normalized = est.neg_log_point / a_np
    return est


def _count_hits(spec, h_list, thresholds, count, rng, p, chunk,
                progress=None, progress_base=0, total_hits_before=0):
    hits = 0
    done = 0
    for b in _chunk_sizes(spec.n, count, chunk):
        a = _draw_stack(spec, b, rng)
        hits += int(_hom_hits_for_batch(a, h_list, thresholds, p).sum())
        done += b
        if progress:
            total_done = progress_base + done
            progress(total_done, (total_hits_before + hits) / total_done)
    return hits


def _empirical_hom_means(spec, h_list, num_samples, seed, workers, chunk):
    sums = np.zeros(len(h_list))
    p = spec.sparsity()
    for w, count in enumerate(_worker_counts(num_samples, workers)):
        rng = rng_stream(seed, 10_000 + w)  # separate pass, separate streams
        for b in _chunk_sizes(spec.n, count, chunk):
            a = _draw_stack(spec, b, rng)
            for i, h in enumerate(h_list):
                sums[i] += batched_hom_normalized(h, a, p).sum()
    return sums / num_samples


def importance_tail(
    spec: EnsembleSpec,
    tilt,
    h_list,
    t_list,
    num_samples: int,
    seed: int = 0,
    workers: int = 1,
    chunk: int = 4096,
    progress=None,
) -> TailEstimate:
    """Importance-sampled tail estimate: draw from the planted measure given
    by `tilt`, weight by the per-pair likelihood ratio in log space.

    Unbiased for the base-measure probability when tilt entries stay inside
    (0,1) wherever the base probability does; a tilt entry of exactly 1 is
    allowed (clique planting) and then the estimate covers only outcomes
    containing those forced edges.
    """
    if spec.kind not in ("er", "block"):
        raise DomainError("importance sampling supports er and block bases")
    if num_samples < 1:
        raise DomainError("num_samples must be >= 1")
    h_list = list(h_list)
    t_list = [float(t) for t in t_list]
    base = spec.probability_matrix()
    tilt_m = (
        tilt.materialize() if isinstance(tilt, BlockSpec) else np.asarray(tilt, dtype=float)
    )
    if tilt_m.shape != base.shape:
        raise DomainError("tilt shape must match the base ensemble")
    iu = np.triu_indices(spec.n, 1)
    bp, tp = base[iu], tilt_m[iu]
    bad = ((tp <= 0) & (bp > 0)) | ((tp >= 1) & (bp < 1) & (tp > 1))
    if bad.any():
        raise DomainError("tilt assigns zero mass where the base does not")
    p = spec.sparsity()

    # log weight pieces; tilt entries of exactly 1 force the edge (log p term)
    with np.errstate(divide="ignore"):
        lw_edge = np.log(bp) - np.log(tp)
        lw_noedge = np.log1p(-bp) - np.log1p(-tp)
    lw_noedge = np.where(tp >= 1.0, 0.0, lw_noedge)  # never sampled

    def _one_worker(w, count, report_chunks=False, progress_base=0):
        rng = rng_stream(seed, w)
        lw_parts, hit_parts = [], []
        done = 0
        for b in _chunk_sizes(spec.n, count, chunk):
            a = _sample_adjacency_batch(tilt_m, b, rng)
            hit_pairs = a[:, iu[0], iu[1]] > 0
            lw_parts.append(hit_pairs @ lw_edge + (~hit_pairs) @ lw_noedge)
            hit_parts.append(_hom_hits_for_batch(a, h_list, t_list, p))
            done += b
            if report_chunks and progress:
                lw = np.concatenate(lw_parts)
                ht = np.concatenate(hit_parts)
                progress(progress_base + done, float(np.mean(np.exp(lw) * ht)))
        return np.concatenate(lw_parts), np.concatenate(hit_parts)

    counts = _worker_counts(num_samples, workers)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_one_worker, w, c) for w, c in enumerate(counts)]
            parts = []
            done = 0
            for f, count in zip(futures, counts):  # worker-order reduction
                parts.append(f.result())
                done += count
                if progress and count:
                    lw = np.concatenate([pt[0] for pt in parts])
                    ht = np.concatenate([pt[1] for pt in parts])
                    progress(done, float(np.mean(np.exp(lw) * ht)))
    else:
        parts = [
            _one_worker(w, c, report_chunks=True, progress_base=0)
            for w, c in enumerate(counts)
        ]
    logw = np.concatenate([pt[0] for pt in parts])
    hits = np.concatenate([pt[1] for pt in parts])
    shift = logw.max() if logw.size else 0.0
    wts = np.exp(logw - shift)
    contrib = wts * hits
    mean = contrib.mean()
    se = contrib.std(ddof=1) / math.sqrt(num_samples) if num_samples > 1 else 0.0
    scale = math.exp(shift)
    point = float(mean * scale)
    ess = float(wts.sum() ** 2 / (wts ** 2).sum()) if wts.sum() > 0 else 0.0
    est = TailEstimate(
        point=point,
        ci_low=float((mean - 1.96 * se) * scale),
        ci_high=float((mean + 1.96 * se) * scale),
        samples=num_samples,
        hits=ess,
        method="importance",
        neg_log_point=_neg_log(point),
        zero_hits=not bool(hits.any()),
    )
    a_np = _norm_const(spec, h_list)
    if a_np:
        est.neg_log_normalized = est.neg_log_point / a_np
    return est


def pittel_check(n, m, event, num_samples, seed: int = 0):
    """Monte Carlo comparison of the fixed-edge-count and binomial measures:
    the fixed-count probability should not exceed 3 sqrt(m) times the
    binomial one.  `event` is a boolean predicate on Graph."""
    n_e = n * (n - 1) // 2
    if not (0 < m < n_e):
        raise DomainError("need 0 < m < n(n-1)/2")
    p = m / n_e
    rng_u = rng_stream(seed, 0)
    rng_p = rng_stream(seed, 1)
    hits_u = sum(bool(event(sample(uniform(n, m), rng_u))) for _ in range(num_samples))
    hits_p = sum(bool(event(sample(er(n, p), rng_p))) for _ in range(num_samples))
    pu, pp = hits_u / num_samples, hits_p / num_samples
    bound = 3.0 * math.sqrt(m)
    out = {
        "p_uniform": pu,
        "p_binomial": pp,
        "bound": bound,
        "samples": num_samples,
    }
    if hits_u == 0 and hits_p == 0:
        out.update(ratio=None, violated=False, vacuous=True)
        return out
    if hits_p == 0:
        out.update(ratio=math.inf, violated=True, vacuous=False)
        return out
    ratio = pu / pp
    # flag only when the ratio beats the bound by more than 3 standard errors
    se_u = math.sqrt(pu * (1 - pu) / num_samples)
    se_p = math.sqrt(pp * (1 - pp) / num_samples)
    rel_se = ratio * math.sqrt(
        (se_u / pu) ** 2 + (se_p / pp) ** 2
    ) if pu > 0 else 0.0
    out.update(ratio=ratio, violated=bool(ratio > bound + 3 * rel_se), vacuous=False)
    return out

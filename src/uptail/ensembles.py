"""Random-graph ensembles, tail-probability Monte Carlo, and the tilted
(planted) importance sampler.

Every ensemble draws through one routine, `_draw_bits`, which returns a
(batch, pairs + 1) array of pair bits and consumes the stream exactly as
drawing one graph after another would.  Monte Carlo counts hits on their
(batch, n, n) adjacency stacks (`_symmetric_stack`) with the batched hom and
reports a Wilson score interval; importance sampling also weighs each graph by
its bits; `sample` is the edges of a one-graph draw.

Uniform and regular graphs order their pairs or stubs exactly by sorting
tagged random keys, `_shuffled_tags`; large uniform(n, m) draws `choice`s of
pairs, and a regular graph's stub pairs become pairs through `_pair_index`.

Direct Monte Carlo, its empirical-mean pass and importance sampling share
one worker loop, `_run_workers`: worker w draws its share of the samples in
chunks from the counter-based stream (master_seed, w), on a thread pool when
there is more than one worker, and results reduce in (worker, chunk) order.
So an estimate is reproducible for a fixed worker count, and an importance
run with tilt == base consumes the stream identically to direct Monte Carlo.

With fewer workers than CPUs, each chunk of an independent-edge draw (er,
block, planted) splits across the idle CPUs into parts of consecutive graphs.
Such a graph reads exactly C(n, 2) words of its stream, and Philox reaches any
word directly, so each part draws from the stream positioned at its first
graph's word, and the parts' per-graph outputs join before the chunk is
scored.  An estimate therefore depends on the worker count (--threads) but not
on the CPU count.  Scaling was measured only up to 2 CPUs.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .blocks import BlockSpec
from .errors import DomainError, SamplingError
from .graphs import Graph
# hom_normalized is unused here but stays bound: perfbench's traced run
# patches uptail.ensembles.hom_normalized by name
from .homs import (  # noqa: F401
    BATCH_CELLS,
    DP_CELL_CAP,
    batched_hom_normalized,
    count_scale,
    hom_normalized,
)
from .rates import BlockModelParams, b_h, rate_scale

CONFIG_MODEL_RETRY_CAP = 20_000
MAX_WORKERS = 64  # Monte Carlo worker threads, one per worker
CHUNK = 4096      # most graphs drawn and scored at once by one worker
# fewest graphs in a part of a chunk split across CPUs; past 1, as a one-graph
# stack would sum its importance log-weight in another order
MIN_PART = 256
INDEPENDENT_EDGE = ("er", "block", "planted")  # kinds whose graphs read C(n, 2) words


def _key_word(value, what) -> int:
    """A Philox key word: an integer in [0, 2^64), else DomainError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer in [0, 2^64), got {value!r}") from None
    if not 0 <= value < 1 << 64:
        raise DomainError(f"{what} must be an integer in [0, 2^64), got {value}")
    return value


def rng_stream(seed: int, worker: int = 0) -> np.random.Generator:
    """Independent counter-based stream for (master seed, worker index): the
    Philox key is the two as exact uint64 words, so each seed in [0, 2^64)
    has its own streams; any other seed raises DomainError."""
    key = np.array([_key_word(seed, "seed"), _key_word(worker, "stream index")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _stream_at(seed, worker, word) -> np.random.Generator:
    """rng_stream(seed, worker) positioned at its word `word`, without drawing
    the words before it: `advance` skips blocks of 4 words."""
    rng = rng_stream(seed, worker)
    rng.bit_generator.advance(word // 4)
    rng.bit_generator.random_raw(word % 4)
    return rng


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
            if not isinstance(self.planted, BlockSpec):  # a BlockSpec checks its values
                x = np.asarray(self.planted, dtype=float)
                if x.shape != (self.n, self.n):
                    raise DomainError("planted matrix shape mismatch")
                if not ((x >= 0) & (x <= 1)).all():  # NaN fails both comparisons
                    raise DomainError("planted matrix entries must be finite and in [0, 1]")
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
            x = np.asarray(self.planted, dtype=float)
        else:
            raise DomainError(f"{self.kind} is not an independent-edge ensemble")
        x = x.copy()
        np.fill_diagonal(x, 0.0)
        return x

    def threshold_unit(self, h) -> float:
        """The unit of a threshold t on h in the tail estimates and `solve`:
        the event is hom_normalized(h, G) >= t * unit, and the unit is the mean
        normalized count, b_H under the block model and 1 otherwise."""
        return b_h(h, self.block) if self.kind == "block" else 1.0

    def solve_base(self):
        """`SolveProblem`'s base: the block model's `BlockModelParams`, else the sparsity."""
        return self.block if self.kind == "block" else self.sparsity()

    def constraint(self):
        """The matrix constraint of this ensemble, as the solver and
        `validate_membership` take it: ("row_sums", d) for regular,
        ("total_weight", m) for uniform, None for the independent-edge kinds."""
        if self.kind == "regular":
            return ("row_sums", self.d)
        if self.kind == "uniform":
            return ("total_weight", self.m)
        return None


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
    x = np.array(x, dtype=float, ndmin=2)
    return EnsembleSpec("planted", x.shape[0], planted=x)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _pair_bits(q, batch, rng) -> np.ndarray:
    """Independent-edge draws for vertex pairs of probabilities q: a
    (batch, pairs + 1) bool array whose entry (g, i) is rng.random() < q[i]
    over the stream's doubles in (graph, pair) order.  `random` makes its
    double from a raw word w as (w >> 11) * 2^-53, so w >> 11 < L = ceil(q *
    2^53), that is w < L * 2^11, gives its edges and leaves the stream where
    `random` would; the words are read in pieces of at most BATCH_CELLS.  At
    q = 1, L * 2^11 = 2^64 wraps to 0, so those pairs are set after.  The last
    column is False: the diagonal's entry in `_symmetric_stack`.  With no pair
    (n = 1) a graph reads no word."""
    pairs = q.size
    limit = np.ceil(q * 2.0 ** 53).astype(np.uint64)
    sure = np.flatnonzero(limit >> 53)
    limit <<= 11
    bits = np.zeros((batch, pairs + 1), dtype=bool)
    if not pairs:
        return bits
    rows, cols = max(1, BATCH_CELLS // pairs), min(pairs, BATCH_CELLS)
    for g in range(0, batch, rows):
        for c in range(0, pairs, cols):
            w = rng.bit_generator.random_raw((min(rows, batch - g), min(cols, pairs - c)))
            np.less(w, limit[c:c + w.shape[1]], out=bits[g:g + w.shape[0], c:c + w.shape[1]])
    if sure.size:
        bits[:, sure] = True
    return bits


@functools.lru_cache(maxsize=2)
def _pair_index(n) -> np.ndarray:
    """Cell (u, v) holds the index of pair {u, v}, and the diagonal that of
    the last column: `_symmetric_stack`'s gather index, and the pair of a
    regular graph's stub pair.  Built once per n (8 n^2 bytes) and shared, so
    never written to; it stays writeable because `take` copies a read-only
    index on every call (measured 2x slower at n = 4000)."""
    iu = np.triu_indices(n, 1)
    index = np.full((n, n), iu[0].size)
    index[iu] = index[iu[::-1]] = np.arange(iu[0].size)
    return index


def _symmetric_stack(bits, n) -> np.ndarray:
    """The (batch, n, n) 0/1 int8 adjacency stack of (batch, pairs + 1)
    pair bits, in one gather: cell (u, v) reads pair {u, v}, and the
    diagonal reads the last, False, column."""
    return bits.view(np.int8).take(_pair_index(n), axis=1)


def _few_ties(size, bits, width) -> bool:
    """Whether `size` keys of `width` bits, with a tag in their low `bits`,
    expect at most half a tie: C(size, 2) · 2^(bits - width) <= 1/2."""
    return size * (size - 1) << bits <= 1 << width


def _shuffled_tags(tags, batch, rng, accept, failure, keep=None) -> np.ndarray:
    """`batch` accepted trials: rows of `tags` in uniform random order, cut
    to their first `keep` tags (default all).  A trial reads a key per tag
    from a fixed number of raw words, writes the tag into the key's low
    b = bit_length(max tag) bits and sorts the row; it is rejected if two
    keys share their random part, so an accepted order is exactly uniform.
    Keys are 32 bits, two to a word, while `_few_ties` holds (past it 64-bit
    keys, one word each, were measured faster); tags too many for 64 bits are
    refused.  A trial is rejected too if accept(sorted keys, tag mask) refuses
    it, and CONFIG_MODEL_RETRY_CAP rejections in a row raise SamplingError.
    Blocks of at most BATCH_CELLS keys are sized by the acceptance so far; the
    stream ends after the words of the last trial used."""
    size, bits = tags.size, int(tags.max(initial=0)).bit_length()
    if not _few_ties(size, bits, 64):
        raise SamplingError(f"{failure}: its {size} keys would tie too often even at 64 bits")
    dtype, words = (np.uint32, (size + 1) // 2) if _few_ties(size, bits, 32) else (np.uint64, size)
    mask, tags = dtype((1 << bits) - 1), tags.astype(dtype)
    cap = max(1, BATCH_CELLS // max(size, 1))
    out = np.empty((batch, size if keep is None else keep), dtype=dtype)
    got, drawn, failed_run, t = 0, 0, 0, min(batch, cap)

    def skip(rows):
        rng.bit_generator.state = state
        rng.bit_generator.random_raw(rows * words)

    while got < batch:
        state = rng.bit_generator.state
        keys = rng.bit_generator.random_raw((t, words)).view(dtype)[:, :size]
        keys &= ~mask
        keys |= tags
        keys.sort(axis=1)
        # ties are checked last, on the orders `accept` keeps (gathered only then)
        ok = np.arange(t) if accept is None else np.flatnonzero(accept(keys, mask))
        kept = keys if accept is None else keys[ok]
        ok = ok[((kept[:, 1:] ^ kept[:, :-1]) > mask).all(axis=1)][:batch - got]
        # runs of rejected trials end at each accepted row, and at the
        # block's end while trials are still missing; one can reach the cap
        # only if the run so far and the block together do
        if failed_run + t >= CONFIG_MODEL_RETRY_CAP:
            ends = ok if got + ok.size == batch else np.append(ok, t)
            starts = np.concatenate(([-failed_run - 1], ends[:-1]))
            over = np.flatnonzero(ends - starts - 1 >= CONFIG_MODEL_RETRY_CAP)
            if over.size:
                skip(int(starts[over[0]]) + CONFIG_MODEL_RETRY_CAP + 1)
                raise SamplingError(f"{failure} in {CONFIG_MODEL_RETRY_CAP} trials")
        if ok.size:
            rows = out[got:got + ok.size]
            np.take(keys[:, :rows.shape[1]], ok, axis=0, out=rows)
            rows &= mask
            got += ok.size
            failed_run = t - 1 - int(ok[-1])
        else:
            failed_run += t
        if got == batch and ok[-1] + 1 < t:
            skip(int(ok[-1]) + 1)
        drawn += t
        t = min(cap, 2 * t if not got else -(-(batch - got) * drawn // got))
    return out


def _simple(keys, n, mask) -> np.ndarray:
    """Which rows of stub pairs are simple, the stubs held in the low bits
    `mask` of `keys`; loops fail most, so only loop-free rows are sorted."""
    loops = keys[:, 0::2] ^ keys[:, 1::2]
    loops &= mask
    simple = loops.all(axis=1)
    stubs = keys[simple] & mask
    u, v = stubs[:, 0::2], stubs[:, 1::2]
    pairs = np.sort(np.minimum(u, v) * n + np.maximum(u, v), axis=1)
    simple[simple] = (pairs[:, 1:] != pairs[:, :-1]).all(axis=1)
    return simple


def _draw_bits(spec: EnsembleSpec, batch: int, rng) -> np.ndarray:
    """`batch` graphs from the ensemble as (batch, pairs + 1) pair bits, the
    last column False as in `_pair_bits`, in the stream order of drawing them
    one at a time.  uniform(n, m) sets the first m pairs of a uniform order,
    or a `choice` of m where pair keys would need 64 bits (measured faster);
    regular(n, d) is the configuration model (Bollobás 1980): stubs 2i,
    2i + 1 of an order with no loop or repeat join set their pair."""
    n, pairs = spec.n, spec.n * (spec.n - 1) // 2
    if spec.kind in INDEPENDENT_EDGE:
        return _pair_bits(spec.probability_matrix()[np.triu_indices(n, 1)], batch, rng)
    rows = np.arange(batch)[:, None]
    if spec.kind == "uniform" and _few_ties(pairs, (pairs - 1).bit_length(), 32):
        picks = _shuffled_tags(np.arange(pairs), batch, rng, None,
                               f"uniform sampler for n={n}, m={spec.m} drew no untied order",
                               spec.m)
    elif spec.kind == "uniform":
        picks = np.array([rng.choice(pairs, spec.m, replace=False) for _ in range(batch)])
    else:
        stubs = _shuffled_tags(np.repeat(np.arange(n), spec.d), batch, rng,
                               lambda keys, mask: _simple(keys, n, mask),
                               f"configuration model for n={n}, d={spec.d} drew no simple graph")
        # every row d-regular, checked on its stubs in O(n d): each vertex
        # holds d stubs, and no pair of them is a loop or joins a pair twice
        held = np.bincount((stubs.astype(np.intp) + n * rows).ravel(), minlength=batch * n)
        assert (held == spec.d).all() and _simple(stubs, n, ~stubs.dtype.type(0)).all(), \
            "regular sampler degree violation"
        picks = _pair_index(n)[stubs[:, 0::2], stubs[:, 1::2]]
    bits = np.zeros((batch, pairs + 1), dtype=bool)
    bits[rows, picks] = True
    return bits


def _draw_stack(spec: EnsembleSpec, batch: int, rng) -> np.ndarray:
    """`batch` graphs as a (batch, n, n) 0/1 int8 stack: `_symmetric_stack` of `_draw_bits`."""
    return _symmetric_stack(_draw_bits(spec, batch, rng), spec.n)


def _chunk_sizes(n, count):
    """Split `count` draws into chunks of at most CHUNK graphs and at most
    DP_CELL_CAP adjacency cells."""
    size = max(1, min(CHUNK, DP_CELL_CAP // (n * n)))
    for lo in range(0, count, size):
        yield min(size, count - lo)


def sample(spec: EnsembleSpec, rng) -> Graph:
    """One graph from the ensemble, edges in pair order; regular output is asserted d-regular."""
    edge, (u, v) = _draw_bits(spec, 1, rng)[0, :-1], np.triu_indices(spec.n, 1)
    return Graph(spec.n, tuple(zip(u[edge].tolist(), v[edge].tolist())))


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


def _wilson_interval(hits, n, z=1.96):
    """Wilson score interval for a binomial proportion: about 95% coverage at
    z = 1.96, with both ends inside [0, 1] at any hit count."""
    p = hits / n
    zz = z * z / n
    center = (p + zz / 2) / (1 + zz)
    half = z * math.sqrt(p * (1 - p) / n + zz / (4 * n)) / (1 + zz)
    return center - half, center + half


def _worker_counts(num_samples, workers):
    """num_samples split into `workers` shares, the first ones larger by 1."""
    if not (1 <= workers <= MAX_WORKERS):
        raise DomainError(f"--threads (workers) must be in [1, {MAX_WORKERS}], got {workers}")
    base, extra = divmod(num_samples, workers)
    return [base + (w < extra) for w in range(workers)]


def _run_workers(spec, num_samples, seed, workers, draw, reduce, report=None, stream=0):
    """The Monte Carlo worker loop.  Worker w draws its share of num_samples
    from rng_stream(seed, stream + w) in `_chunk_sizes` chunks of `spec`'s
    graphs: draw(b, rng) returns a tuple of per-graph arrays for the next b
    graphs of rng, and reduce(outputs) scores a chunk.  Returns the chunk
    scores in (worker, chunk) order; several workers run on a thread pool.
    report(done, scores so far) follows every chunk of a single worker, or
    every nonempty worker, in worker order.

    An independent-edge graph reads exactly C(n, 2) words.  So while workers
    leave CPUs idle, each chunk splits into up to `_available_cpus() //
    workers` parts of consecutive graphs, of at least MIN_PART each.  Each part
    draws from the stream positioned at its first graph's word, the first
    part on the worker's thread and the others on the pool, and the parts'
    outputs are concatenated before `reduce`.  So every score is that of the
    one sequential stream, and one chunk per worker is in flight."""
    counts = _worker_counts(num_samples, workers)
    words = spec.n * (spec.n - 1) // 2
    parts = _available_cpus() // workers if spec.kind in INDEPENDENT_EDGE else 1
    split = parts > 1 and next(_chunk_sizes(spec.n, counts[0]), 0) >= 2 * MIN_PART
    pool = None

    def drawn_in_parts(w, first, b):
        """draw's outputs for graphs first .. first + b - 1 of worker w's stream."""
        k = max(1, min(parts, b // MIN_PART))
        at = [first + b * j // k for j in range(k + 1)]
        jobs = [(hi - lo, _stream_at(seed, stream + w, lo * words)) for lo, hi in zip(at, at[1:])]
        rest = [pool.submit(draw, *job) for job in jobs[1:]]
        outs = [draw(*jobs[0])] + [f.result() for f in rest]
        return outs[0] if k == 1 else tuple(np.concatenate(col) for col in zip(*outs))

    def run(w, count, report_chunks=None):
        rng = rng_stream(seed, stream + w)
        scores, done = [], 0
        for b in _chunk_sizes(spec.n, count):
            scores.append(reduce(drawn_in_parts(w, done, b) if split else draw(b, rng)))
            done += b
            if report_chunks:
                report_chunks(done, scores)
        return scores

    # several workers take a pool thread each, and a split chunk parts - 1 more
    threads = (workers if workers > 1 else 0) + (workers * (parts - 1) if split else 0)
    if not threads:
        return run(0, num_samples, report)
    from concurrent.futures import ThreadPoolExecutor

    out, done = [], 0
    with ThreadPoolExecutor(max_workers=threads) as pool:
        if workers == 1:
            return run(0, num_samples, report)
        for scores, count in zip(pool.map(run, range(workers), counts), counts):
            out += scores
            done += count
            if report and count:
                report(done, out)
    return out


def _hom_hits_for_batch(a_batch, h_list, t_list, p):
    """Which graphs of the stack have hom(H_i, G) >= t_i for every i.

    Pattern i+1 is counted only on the graphs that met patterns 1..i, and
    counting stops once none is left: the hits are those of counting every
    pattern on every graph, at a fraction of the cost on joint events.
    """
    hits = np.zeros(a_batch.shape[0], dtype=bool)
    rows = np.arange(a_batch.shape[0])
    for h, t in zip(h_list, t_list):
        if not rows.size:
            break
        keep = batched_hom_normalized(h, a_batch, p) >= t
        rows, a_batch = rows[keep], a_batch[keep]
    hits[rows] = True
    return hits


def _decimal(x) -> Fraction:
    """A float as the shortest decimal that gives it back: 0.2 is 1/5."""
    return Fraction(repr(float(x)))


def _count_threshold(spec, h, t):
    """The threshold on `batched_hom_normalized` values that decides
    hom(h, G) >= t * `threshold_unit` exactly, with no tie lost to rounding.
    The least count that meets t, C = ceil(t * unit * n^v * p^e), is taken
    in rational arithmetic, each float as its `_decimal` (t, the unit and
    p; uniform's and regular's p as m / C(n, 2) and d / n), kept within
    [0, n^v + 1] (every graph, or none, meets a C outside), and divided as a
    count is (`count_scale`).  Division keeps the order of counts and, below
    2^51, tells consecutive ones apart, so a graph's value reaches the
    threshold exactly when its count reaches C."""
    n, v = spec.n, h.vertex_count
    if spec.kind == "uniform":
        p = Fraction(spec.m, n * (n - 1) // 2)
    elif spec.kind == "regular":
        p = Fraction(spec.d, n)
    else:
        p = _decimal(spec.sparsity())
    least = math.ceil(_decimal(t) * _decimal(spec.threshold_unit(h)) * n ** v * p ** h.edge_count)
    return min(max(least, 0), n ** v + 1) / count_scale(h, n, spec.sparsity())


def _tail_setup(spec, h_list, t_list, num_samples, in_units=True):
    """Check a tail estimate's inputs (at least one sample and one pattern,
    one finite threshold per pattern); return the patterns and the thresholds
    as lists, each threshold in its `threshold_unit` made the exact count
    threshold `_count_threshold` when `in_units`, the sparsity p and a_{n,p}
    (None where the ensemble has no scale)."""
    if num_samples < 1:
        raise DomainError("num_samples must be >= 1")
    h_list, t_list = list(h_list), [float(t) for t in t_list]
    for t in t_list:
        if not math.isfinite(t):
            raise DomainError(f"threshold must be finite, got {t}")
    if len(h_list) != len(t_list):
        raise DomainError("need one threshold per pattern")
    if not h_list:
        raise DomainError("need at least one pattern")
    if in_units:
        t_list = [_count_threshold(spec, h, t) for h, t in zip(h_list, t_list)]
    p = spec.sparsity()
    return h_list, t_list, p, rate_scale(spec.n, p, h_list, spec.kind == "regular")


def mc_upper_tail(
    spec: EnsembleSpec,
    h_list,
    t_list,
    num_samples: int,
    seed: int = 0,
    threshold: str = "analytic",
    workers: int = 1,
    progress=None,
) -> TailEstimate:
    """Direct Monte Carlo estimate of P(all hom(H_i, G) >= t_i).

    threshold="analytic" compares normalized counts against t_i in the
    ensemble's `threshold_unit`; "empirical" runs two passes and thresholds
    raw counts against t_i * (empirical mean of Hom).  `progress(done,
    estimate)` is invoked as worker batches complete.
    """
    if threshold not in ("analytic", "empirical"):
        raise DomainError("threshold mode must be 'analytic' or 'empirical'")
    h_list, thresholds, p, a_np = _tail_setup(spec, h_list, t_list, num_samples,
                                              in_units=threshold == "analytic")
    if threshold == "empirical":
        means = _empirical_hom_means(spec, h_list, p, num_samples, seed, workers)
        thresholds = [t * mu for t, mu in zip(thresholds, means)]

    def report(done, scores):
        progress(done, sum(scores) / done)

    def draw(b, rng):
        return (_hom_hits_for_batch(_draw_stack(spec, b, rng), h_list, thresholds, p),)

    hits = sum(_run_workers(spec, num_samples, seed, workers, draw,
                            lambda out: int(out[0].sum()), report if progress else None))
    point = hits / num_samples
    ci_low, ci_high = _wilson_interval(hits, num_samples)
    est = TailEstimate(
        point=point,
        ci_low=ci_low,
        ci_high=ci_high,
        samples=num_samples,
        hits=float(hits),
        method=f"direct_mc[{threshold}]",
        neg_log_point=_neg_log(point),
        neg_log_normalized=_neg_log(point) / a_np if a_np else None,
        zero_hits=(hits == 0),
    )
    if hits == 0:
        est.ci_high = 1.0 - 0.05 ** (1.0 / num_samples)  # one-sided bound
        est.notes.append("zero hits: one-sided 95% upper bound")
    return est


def _empirical_hom_means(spec, h_list, p, num_samples, seed, workers):
    def draw(b, rng):
        a = _draw_stack(spec, b, rng)
        return tuple(batched_hom_normalized(h, a, p) for h in h_list)

    sums = np.zeros(len(h_list))
    # a separate pass on separate streams; each chunk sums its values whole
    # (summing parts and adding the sums would round differently), and the
    # sums add in (worker, chunk) order
    for s in _run_workers(spec, num_samples, seed, workers, draw,
                          lambda out: [v.sum() for v in out], stream=10_000):
        sums += s
    return sums / num_samples


def _unshift(x, shift):
    """x * e^shift: a mean of weights shifted by the largest log-weight, back
    on the probability scale.  Past exp's range it is taken in log space and
    capped at 1, which bounds every probability."""
    if shift < 709.0:
        return float(x * math.exp(shift))
    return math.exp(min(math.log(x) + shift, 0.0)) if x > 0 else 0.0


def _log_shift(logw):
    """The largest log-weight, or 0 when every weight is 0 (log-weight -inf)."""
    top = logw.max()
    return top if top > -np.inf else 0.0


def _weighted_point(logw, hits):
    """The importance estimate mean(e^logw * hits), shifted so that no weight
    overflows or underflows."""
    shift = _log_shift(logw)
    return _unshift((np.exp(logw - shift) * hits).mean(), shift)


def importance_tail(
    spec: EnsembleSpec,
    tilt,
    h_list,
    t_list,
    num_samples: int,
    seed: int = 0,
    workers: int = 1,
    progress=None,
) -> TailEstimate:
    """Importance-sampled tail estimate of P(all hom(H_i, G) >= t_i), t_i in
    the base's `threshold_unit`: draw from the planted measure given by
    `tilt`, weight by the per-pair likelihood ratio in log space.

    Unbiased for the base-measure probability when tilt entries stay inside
    (0,1) wherever the base probability does; a tilt entry of exactly 1 is
    allowed (clique planting) and then the estimate covers only outcomes
    containing those forced edges, so it is a lower bound on P, which a note
    says.

    A graph's log-weight sums, in pair order, only the pairs whose tilt
    differs from the base (a planted hub or clique moves O(s n) of them).
    Every other pair weighs exactly zero whether or not it is drawn, so the
    sum, and with it every estimate, interval and ESS, is bit for bit the
    sum over all pairs.
    """
    if spec.kind not in ("er", "block"):
        raise DomainError("importance sampling supports er and block bases")
    h_list, t_list, p, a_np = _tail_setup(spec, h_list, t_list, num_samples)
    tilted = planted(np.asarray(tilt, dtype=float))  # materialized once, not per chunk
    if tilted.n != spec.n:
        raise DomainError("tilt shape must match the base ensemble")
    iu = np.triu_indices(spec.n, 1)
    bp, tp = spec.probability_matrix()[iu], tilted.probability_matrix()[iu]
    if ((tp == 0) & (bp > 0)).any():
        raise DomainError("tilt assigns zero mass where the base does not")

    # log weight pieces; tilt entries of exactly 1 force the edge (log p term).
    # Infinite or nan pieces belong to outcomes of base or tilt probability 0,
    # so each sample sums only the terms it realized (0 * inf would be nan).
    with np.errstate(divide="ignore", invalid="ignore"):
        lw_edge = np.log(bp) - np.log(tp)
        lw_noedge = np.log1p(-bp) - np.log1p(-tp)
    lw_noedge = np.where(tp >= 1.0, 0.0, lw_noedge)  # never sampled
    # a pair the tilt leaves at its base realizes a zero term (x - x, or the
    # forced 0.0 above), and a moved pair never realizes -0.0; so no partial
    # sum in pair order is -0.0, and dropping the zeros leaves each one
    # unchanged, bit for bit
    moved, every = np.flatnonzero(tp != bp), np.arange(tp.size)
    forced = int(((tp >= 1.0) & (bp < 1.0)).sum())

    def draw(b, rng):
        # In Fortran order each graph's log-weight sums one pair at a time in
        # pair order, not by pairwise summation: the order the pinned
        # estimates (tests/test_ensembles.py) hold.  A one-graph stack is
        # summed pairwise, which the dropped zeros would regroup, so it keeps
        # every pair
        bits = _draw_bits(tilted, b, rng)
        cols = moved if b > 1 else every
        return (np.where(bits.T[cols].T, lw_edge[cols], lw_noedge[cols]).sum(axis=1),
                _hom_hits_for_batch(_symmetric_stack(bits, spec.n), h_list, t_list, p))

    def stacked(scores):
        return np.concatenate([s[0] for s in scores]), np.concatenate([s[1] for s in scores])

    def report(done, scores):
        progress(done, _weighted_point(*stacked(scores)))

    logw, hits = stacked(_run_workers(
        tilted, num_samples, seed, workers, draw, lambda out: out, report if progress else None,
    ))
    shift = _log_shift(logw)
    wts = np.exp(logw - shift)
    contrib = wts * hits
    mean = contrib.mean()
    se = contrib.std(ddof=1) / math.sqrt(num_samples) if num_samples > 1 else 0.0
    point = _unshift(mean, shift)
    ess = float(wts.sum() ** 2 / (wts ** 2).sum()) if wts.sum() > 0 else 0.0
    est = TailEstimate(
        point=point,
        ci_low=_unshift(mean - 1.96 * se, shift),
        ci_high=_unshift(mean + 1.96 * se, shift),
        samples=num_samples,
        hits=ess,
        method="importance",
        neg_log_point=_neg_log(point),
        neg_log_normalized=_neg_log(point) / a_np if a_np else None,
        zero_hits=not bool(hits.any()),
    )
    if forced:
        est.notes.append(f"tilt forces {forced} pairs: a lower bound on P")
    return est


def pittel_check(n, m, event, num_samples, seed: int = 0):
    """Monte Carlo comparison of the fixed-edge-count and binomial measures:
    the fixed-count probability should not exceed 3 sqrt(m) times the
    binomial one.  `event` is a boolean predicate on Graph."""
    n_e = n * (n - 1) // 2
    if not (0 < m < n_e):
        raise DomainError("need 0 < m < n(n-1)/2")
    rng_u, rng_p = rng_stream(seed, 0), rng_stream(seed, 1)
    hits_u = sum(bool(event(sample(uniform(n, m), rng_u))) for _ in range(num_samples))
    hits_p = sum(bool(event(sample(er(n, m / n_e), rng_p))) for _ in range(num_samples))
    pu, pp = hits_u / num_samples, hits_p / num_samples
    bound = 3.0 * math.sqrt(m)
    out = {"p_uniform": pu, "p_binomial": pp, "bound": bound, "samples": num_samples}
    if hits_p == 0:  # vacuous with no hit on either side, else violated
        out.update(ratio=math.inf if hits_u else None, violated=hits_u > 0, vacuous=hits_u == 0)
        return out
    ratio = pu / pp
    # flag only when the ratio beats the bound by more than 3 standard errors
    se_u, se_p = math.sqrt(pu * (1 - pu) / num_samples), math.sqrt(pp * (1 - pp) / num_samples)
    rel_se = ratio * math.sqrt((se_u / pu) ** 2 + (se_p / pp) ** 2) if pu > 0 else 0.0
    out.update(ratio=ratio, violated=bool(ratio > bound + 3 * rel_se), vacuous=False)
    return out

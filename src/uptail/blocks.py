"""Explicit block-matrix optimizers and their exact background weights.

Each builder plants all-ones blocks and solves the border/background values
r, q from the exact row-sum or total-weight equations in rational arithmetic,
so ensemble membership validates with zero deviation.  Values live on a small
k x k grid of block pairs; materialization is only needed for modest n.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConstructionError, DomainError, ResourceError
from .graphs import Graph
from .rates import entropy_ip

MATERIALIZE_CAP = 20_000


@dataclass(frozen=True)
class BlockSpec:
    """Block-constant symmetric matrix: sizes per block, value per block pair.

    Values are exact rationals; within-block diagonals are zero (an all-ones
    block of size s contributes s-1 to its rows).
    """

    sizes: tuple          # positive ints
    values: tuple         # tuple of tuples of Fraction, symmetric, in [0,1]

    def __post_init__(self):
        """Exact checks, on numerators and denominators (a Fraction's is
        positive): the rows against the columns, which compares two values
        only where they are not one object, and each value within [0, 1]."""
        k = len(self.sizes)
        if any(s <= 0 for s in self.sizes):
            raise DomainError("block sizes must be positive")
        if len(self.values) != k or any(len(row) != k for row in self.values):
            raise DomainError("values must be k x k for k blocks")
        if tuple(zip(*self.values)) != tuple(map(tuple, self.values)):
            raise DomainError("block values must be symmetric")
        for row in self.values:
            for val in row:
                if not 0 <= val.numerator <= val.denominator:
                    raise DomainError(f"block value {float(val)} outside [0,1]")

    def __hash__(self):
        # equal Fractions have equal numerators and denominators, whose
        # hashes cost less than the Fractions' own
        return hash((self.sizes, tuple((v.numerator, v.denominator)
                                       for row in self.values for v in row)))

    @property
    def n(self):
        return sum(self.sizes)

    @property
    def num_blocks(self):
        return len(self.sizes)

    def value_matrix(self) -> np.ndarray:
        # float(v) of a Fraction is this division, correctly rounded
        return np.array([[v.numerator / v.denominator for v in row] for row in self.values])

    def materialize(self) -> np.ndarray:
        if self.n > MATERIALIZE_CAP:
            raise ResourceError(
                f"refusing to materialize n={self.n} > {MATERIALIZE_CAP}"
            )
        return blow_up(self.sizes, self.value_matrix())

    def __array__(self, dtype=None, copy=None):
        """`np.asarray(spec)` is the materialized n x n matrix."""
        x = self.materialize()
        return x if dtype is None else x.astype(dtype, copy=False)

    def _numerators(self):
        """The values over their least common denominator D: (numerators, D)."""
        den = math.lcm(*(v.denominator for row in self.values for v in row))
        return [[v.numerator * (den // v.denominator) for v in row] for row in self.values], den

    def row_sums_exact(self):
        """Row sum per block, as Fractions (one value per block by symmetry),
        summed in integers over the values' common denominator."""
        num, den = self._numerators()
        return [Fraction(sum(s * x for s, x in zip(self.sizes, row)) - row[a], den)
                for a, row in enumerate(num)]

    def total_weight_exact(self) -> Fraction:
        """Sum over unordered pairs i < j, in integers as `row_sums_exact`."""
        num, den = self._numerators()
        ordered = sum(sa * (sum(s * x for s, x in zip(self.sizes, row)) - row[a])
                      for a, (sa, row) in enumerate(zip(self.sizes, num)))
        return Fraction(ordered, 2 * den)

    def entropy(self, base) -> float:
        """I over ordered pairs against a p or a k x k base, blockwise (any n)."""
        base = np.broadcast_to(np.asarray(base, dtype=float), (self.num_blocks,) * 2).tolist()
        total = 0.0
        for a in range(self.num_blocks):
            for b in range(self.num_blocks):
                pairs = self.sizes[a] * self.sizes[b] - (self.sizes[a] if a == b else 0)
                total += pairs * entropy_ip(float(self.values[a][b]), base[a][b])
        return total

    def refined(self, sizes):
        """This matrix on its blocks cut also where blocks of `sizes` end."""
        cut, owner = refinement(self.sizes, sizes)
        if len(cut) == self.num_blocks:
            return self
        return BlockSpec(cut, tuple(tuple(self.values[a][b] for b in owner) for a in owner))

    def parts(self):
        """The blocks split into groups that no nonzero value joins, each
        as a sub-BlockSpec with its blocks in order."""
        left = set(range(self.num_blocks))
        out = []
        while left:
            part = [min(left)]
            left.discard(part[0])
            for a in part:  # grows as blocks joined to it are found
                joined = sorted(b for b in left if self.values[a][b].numerator)
                left.difference_update(joined)
                part.extend(joined)
            if len(part) == self.num_blocks:
                return [self]
            part.sort()
            out.append(BlockSpec(tuple(self.sizes[a] for a in part),
                                 tuple(tuple(self.values[a][b] for b in part) for a in part)))
        return out

    def hom_density(self, h: Graph) -> float:
        """Exact t(h, .) on the block matrix.  No edge of h runs between two
        `parts`, so a connected component of h maps into one part: its hom
        count is the sum over parts, and h's the product over components.
        Equal parts (the whole cliques of the row-sum builders) are counted
        once, and each runs the independent-group expansion (`hom_terms`)
        on its own blocks only."""
        parts = [(count, part, block_pairs(part.sizes))
                 for part, count in collections.Counter(self.parts()).items()]
        density = 1.0
        for vertices in h.components():
            c = h if len(vertices) == h.vertex_count else h.induced(vertices)
            density *= sum(
                count * (part.n / self.n) ** c.vertex_count * terms_value_and_gradient(
                    hom_terms(c, part.sizes), part.value_matrix()[live[0], live[1]])[0]
                for count, part, live in parts)
        return density

    def hom_normalized(self, h: Graph, p: float) -> float:
        if not (0 < p < 1):
            raise DomainError(f"p must be in (0,1), got {p}")
        return self.hom_density(h) / p ** h.edge_count

    def to_json(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "values": [[float(v) for v in row] for row in self.values],
        }

    @staticmethod
    def from_json(obj) -> "BlockSpec":
        if isinstance(obj, str):
            obj = json.loads(obj)
        values = tuple(
            tuple(Fraction(v).limit_denominator(10 ** 15) for v in row)
            for row in obj["values"]
        )
        return BlockSpec(tuple(int(s) for s in obj["sizes"]), values)


def refinement(sizes, other):
    """The blocks of `sizes` cut also where blocks of `other` end, and the
    owner of each: the index of the block of `sizes` it lies in."""
    if len(sizes) == 1 and sum(other) == sizes[0]:  # one block: `other` itself
        return tuple(other), [0] * len(other)
    ends = list(itertools.accumulate(sizes))
    cuts = sorted(set(ends).union(itertools.accumulate(other)))
    owner = [bisect.bisect_left(ends, cut) for cut in cuts]  # the ends below each cut
    return tuple(b - a for a, b in zip([0] + cuts, cuts)), owner


def _independent_group_partitions(h: Graph):
    """Set partitions of V(h) whose groups are independent sets in h."""
    adj = h.neighbors()

    def rec(v, groups):
        if v == h.vertex_count:
            yield [tuple(g) for g in groups]
            return
        for g in groups:
            if all(u not in adj[v] for u in g):
                g.append(v)
                yield from rec(v + 1, groups)
                g.pop()
        groups.append([v])
        yield from rec(v + 1, groups)
        groups.pop()

    yield from rec(0, [])


@functools.cache
def _partition_counts(h: Graph):
    """a[g]: how many partitions of V(h) into g independent groups there
    are, counted vertex by vertex rather than listed.  A group bears on the
    vertices still to come only through those of them it is joined to, so
    partial partitions are merged by their groups' such sets: the empty
    ones (free groups, any later vertex may join one) as a number, the
    others as a sorted tuple of bit masks."""
    joined_to = [0] * h.vertex_count
    for u, v in h.edges:
        joined_to[u] |= 1 << v
        joined_to[v] |= 1 << u
    states = {(0, ()): 1}
    for v in range(h.vertex_count):
        later = -1 << (v + 1)
        own = joined_to[v] & later
        merged = collections.Counter()
        for (free, masks), count in states.items():
            rest = [m & later for m in masks]
            # v opens a group, joins one of the free groups, or joins a group
            # that no edge ties it to
            options = [(free, rest + [own], count), (free - 1, rest + [own], count * free)]
            options += [(free, rest[:i] + [rest[i] | own] + rest[i + 1:], count)
                        for i, m in enumerate(masks) if not m >> v & 1]
            for free_now, groups, ways in options:
                if ways:
                    tied = sorted(m for m in groups if m)
                    merged[free_now + len(groups) - len(tied), tuple(tied)] += ways
        states = merged
    counts = [0] * (h.vertex_count + 1)
    for (free, _masks), count in states.items():
        counts[free] += count
    return tuple(counts)


@functools.cache
def placements(h: Graph, k: int) -> int:
    """The placements of groups in blocks `_hom_table(h, k)` enumerates:
    a_g k^g summed over the partitions' group counts g (`_partition_counts`)."""
    return sum(a * k ** g for g, a in enumerate(_partition_counts(h)))


# the placements (`placements`) `_hom_table` may enumerate for a solve's seed
# of k blocks (`solver._fits_blocks`), at least k^v for a pattern of v
# vertices; not a measured crossover
COMPILE_CAP = 1 << 16


@functools.cache
def _hom_table(h: Graph, k: int):
    """t(h, .) on k blocks as a polynomial in the block values, compiled once
    per (pattern, k).  On a zero diagonal, a map of V(h) counts only when the
    vertices it sends to one point are independent, so it is a partition of
    V(h) into independent groups, each sent to its own vertex in some block.
    One term collects the placements of groups in blocks that put every edge
    on the same block pair and the same number of groups in each block.
    Returns (pairs, counts, mult): per term, the flat index a * k + b
    (a <= b) of each edge's block pair, the number of groups in each block,
    and how many placements it merges."""
    terms = {}
    for groups in _independent_group_partitions(h):
        gindex = {u: gi for gi, g in enumerate(groups) for u in g}
        qedges = [(gindex[a], gindex[b]) for a, b in h.edges]
        for assign in itertools.product(range(k), repeat=len(groups)):
            pairs = tuple(sorted(min(assign[ga], assign[gb]) * k + max(assign[ga], assign[gb])
                                 for ga, gb in qedges))
            counts = tuple(assign.count(a) for a in range(k))
            terms[pairs, counts] = terms.get((pairs, counts), 0) + 1
    return (np.array([pairs for pairs, _c in terms], dtype=np.intp).reshape(
                len(terms), h.edge_count),
            np.array([counts for _p, counts in terms], dtype=np.intp).reshape(len(terms), k),
            np.array(list(terms.values()), dtype=float))


def complete_density(h: Graph, n: int) -> float:
    """t(h, J - I) on n vertices: P_h(n) / n^v, the chromatic polynomial
    P_h(n) the sum of a_g (n)_g over the independent-group partitions'
    group counts g (`_partition_counts`), an exact integer."""
    return sum(a * math.perm(n, g) for g, a in enumerate(_partition_counts(h))) / n**h.vertex_count


# the upper triangle's indices, built once per block count and never written to
_triu_indices = functools.cache(np.triu_indices)


@functools.cache
def _triu_place(k):
    """Each block pair's flat index a * k + b (a <= b) mapped to its place
    among the upper triangle's pairs, row by row."""
    a, b = _triu_indices(k)
    place = np.zeros(k * k, dtype=np.intp)
    place[a * k + b] = np.arange(len(a))
    return place


def _by_block_count(stack):
    """The positions in `stack` of its sizes of each block count, and those
    sizes as the rows of one float array: (positions, sizes) in order of
    first appearance."""
    groups = {}
    for i, sizes in enumerate(stack):
        groups.setdefault(len(sizes), []).append(i)
    return [(rows, np.array([stack[i] for i in rows], dtype=float).reshape(len(rows), k))
            for k, rows in groups.items()]


def _left_packed(count, groups):
    """Stacks of `count` rows built from groups (positions, keep, arrays):
    the entries a row of each array keeps (along its second axis), in order
    at the start of the stack's row at its position, then zeros, to the
    most kept in a row (at least one)."""
    width = max(1, max(int(keep.sum(axis=1).max()) for _rows, keep, _arrays in groups))
    outs = [np.zeros((count, width) + x.shape[2:], x.dtype) for x in groups[0][2]]
    for rows, keep, arrays in groups:
        at = np.array(rows)[np.nonzero(keep)[0]], (keep.cumsum(axis=1) - 1)[keep]
        for out, x in zip(outs, arrays):
            out[at] = x[keep]
    return outs


def _pair_counts(s):
    """(a, b, pairs) over the upper triangle's block pairs, for block sizes
    s, or pairs a row for each row of them (all of one block count)."""
    a, b = _triu_indices(s.shape[-1])
    sa = s.take(a, axis=-1)
    return a, b, sa * s.take(b, axis=-1) - (a == b) * 0.5 * sa * (sa + 1)


def block_pairs(sizes):
    """The unordered block pairs a <= b that hold a vertex pair, row by row:
    (a, b, pairs), pairs being s_a s_b, or s_a (s_a - 1) / 2 within a block
    (so a one-vertex block's own pair is left out)."""
    a, b, pairs = _pair_counts(np.asarray(sizes, dtype=float))
    live = pairs > 0
    return a[live], b[live], pairs[live]


def stacked_block_pairs(stack):
    """`block_pairs` of each block sizes in `stack`, as the rows of three
    arrays (a, b, pairs), zero-padded (`_left_packed`); the arithmetic runs
    once per block count."""
    groups = []
    for rows, s in _by_block_count(stack):
        a, b, pairs = _pair_counts(s)
        groups.append((rows, pairs > 0, (a[None].repeat(len(s), 0), b[None].repeat(len(s), 0),
                                         pairs)))
    return _left_packed(len(stack), groups)


def _term_weights(h: Graph, s):
    """`_hom_table`'s terms for block sizes s, or a row of terms for each
    row of them (all of one block count): each edge's index among the live
    pairs, and each term's weight, its multiplicity times the falling
    factorials (s_a)_(groups in a) over n^v.  A one-vertex block's own pair
    is not live, and every term with an edge on it has weight 0."""
    k, v = s.shape[-1], h.vertex_count
    table, counts, mult = _hom_table(h, k)
    # falling[..., a, c] = s_a (s_a - 1) ... (s_a - c + 1)
    falling = np.cumprod(np.concatenate([np.ones(s.shape + (1,)), s[..., None] - np.arange(v)],
                                        axis=-1), axis=-1)
    weights = mult * falling[..., np.arange(k), counts].prod(axis=-1)
    a, b = _triu_indices(k)
    place = ((a != b) | (s.take(a, axis=-1) > 1)).cumsum(axis=-1) - 1  # among the live pairs
    n = s.sum(axis=-1).max()  # every row's n, a numpy float: n ** v is numpy's scalar power
    return place[..., _triu_place(k)[table]], weights / n ** v


def hom_terms(h: Graph, sizes):
    """`_hom_table` on these block sizes, on the values of their live pairs
    (`block_pairs(sizes)`) packed in one vector: (pairs, weights), each term
    weighted by its multiplicity times the falling factorials (s_a)_(groups
    in a) over n^v, so that sum(weights * prod(values[pairs])) = t(h, .).
    Terms of weight 0 (every one with an edge inside a one-vertex block
    among them) are dropped."""
    pairs, weights = _term_weights(h, np.asarray(sizes, dtype=float))
    kept = weights > 0
    return pairs[kept], weights[kept]


def stacked_hom_terms(h: Graph, stack):
    """`hom_terms` of h on each block sizes in `stack`, as the rows of two
    arrays (pairs, weights), zero-padded (`_left_packed`); the arithmetic
    runs once per block count."""
    groups = []
    for rows, s in _by_block_count(stack):
        pairs, weights = _term_weights(h, s)
        groups.append((rows, weights > 0, (pairs, weights)))
    return _left_packed(len(stack), groups)


def _rowsum(a):
    """Sums along the last axis, added in order (0 over none).  Zeros padded
    at the end of a row then leave its sum unchanged bit for bit, which a
    pairwise or BLAS sum does not promise.  numpy's reduce adds in order
    along an axis it does not run innermost, as in a Fortran-ordered copy of
    two or more rows.  It starts at -0.0, which leaves the first term as it
    is, so a row of -0.0 sums to -0.0 as when added one by one.  A lone row
    it would sum pairwise, so there the last partial sum is read instead."""
    if a.size > a.shape[-1]:
        return np.add.reduce(np.asfortranarray(a), axis=-1, initial=-0.0)
    return a.cumsum(axis=-1)[..., -1] if a.size else np.zeros(a.shape[:-1])[()]


def terms_value_and_gradient(terms, values):
    """The polynomial `hom_terms` and its gradient at the packed `values`.
    A stack of rows of values takes a stack of terms, whose pairs index the
    flattened stack and whose padding has weight 0; each row's terms are
    summed in order (`_rowsum`).  Every factor but the j-th multiplies in
    cumprod's order, edge column by column."""
    pairs, weights = terms
    edges = pairs.shape[-1]
    if not edges:  # a pattern with no edges
        return _rowsum(weights), np.zeros(values.shape)
    factors = values.ravel().take(pairs)
    f = [factors[..., j] for j in range(edges)]
    before, after = [None] * edges, [None] * edges  # None stands for 1
    for j in range(1, edges):
        before[j] = f[0] if j == 1 else before[j - 1] * f[j - 1]
        after[-1 - j] = f[-1] if j == 1 else after[-j] * f[-j]
    part = np.empty_like(factors)
    for j in range(edges):
        w = weights if before[j] is None else weights * before[j]
        part[..., j] = w if after[j] is None else w * after[j]
    full = f[-1] if edges == 1 else before[-1] * f[-1]
    grad = np.bincount(pairs.ravel(), part.ravel(), minlength=values.size)
    return _rowsum(weights * full), grad.reshape(values.shape)


def blow_up(sizes, values) -> np.ndarray:
    """The n x n matrix of block values `values` on blocks of `sizes`, with
    zero diagonal."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    x = np.asarray(values, dtype=float)[labels[:, None], labels[None, :]]
    np.fill_diagonal(x, 0.0)
    return x


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _require_unit(name, value: Fraction):
    if not (0 <= value <= 1):
        raise ConstructionError(
            f"{name} = {float(value):.6g} outside [0,1]; parameters out of regime"
        )
    return value


def build_cycle_blocks(n: int, d: int, delta: float, l: int) -> BlockSpec:
    """Degree-exact optimizer for cycle patterns: floor(delta) maximal
    (d+1)-cliques, one fractional clique of size ~ frac(delta)^{1/l} d,
    border r and background q solving the row-sum equations exactly."""
    if l < 3:
        raise DomainError("cycle length must be >= 3")
    if not (math.isfinite(delta) and delta > 0):
        raise DomainError(f"delta must be finite and > 0, got {delta}")
    if d < 2 or d >= n:
        raise DomainError("need 2 <= d < n")
    whole = math.floor(delta)
    frac = delta - whole
    s1 = round(frac ** (1.0 / l) * d) if frac > 0 else 0
    if frac > 0 and s1 < 2:
        raise ConstructionError(
            f"fractional clique size rounds to {s1}; d too small for delta={delta}"
        )
    return _whole_cliques(n, d, whole, s1)


def build_whole_cliques(n: int, d: int, delta: float, h: Graph) -> BlockSpec:
    """The shape of `build_cycle_blocks` for any pattern h, sized by its
    exact hom rather than by frac(delta)^{1/l}: the least planted size
    (whole (d+1)-cliques, then the last clique's size) at which hom(h) at
    p = d/n reaches 1 + delta, found by bisection, as the count grows with
    the planted size."""
    if not (math.isfinite(delta) and delta > 0):
        raise DomainError(f"delta must be finite and > 0, got {delta}")
    if d < 2 or d >= n:
        raise DomainError("need 2 <= d < n")
    # (whole, s1) by planted size; a last clique has at least 2 vertices
    shapes = [(whole, s1) for whole in range((n // 2) // (d + 1) + 1)
              for s1 in [0] + list(range(2, d + 1))
              if 0 < whole * (d + 1) + s1 <= n // 2]

    def spec_if_met(i):
        try:
            spec = _whole_cliques(n, d, *shapes[i])
        except ConstructionError:
            return None
        return spec if spec.hom_normalized(h, d / n) >= 1.0 + delta else None

    lo, hi = -1, len(shapes) - 1  # shapes[hi] meets the target, shapes[lo] does not
    if not shapes or spec_if_met(hi) is None:
        raise ConstructionError(f"no whole-clique construction reaches hom 1 + {delta:g}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if spec_if_met(mid) is None:
            lo = mid
        else:
            hi = mid
    return spec_if_met(hi)


def _whole_cliques(n: int, d: int, whole: int, s1: int) -> BlockSpec:
    """`whole` maximal (d+1)-cliques, a last clique of s1 vertices (none at
    0), and the background, with border r and background q solving the
    row-sum equations exactly."""
    s = whole * (d + 1) + s1
    if s > n // 2:
        raise ConstructionError(f"planted blocks of total size {s} exceed n/2")
    sizes = [d + 1] * whole + [s1] * (s1 > 0) + [n - s]  # background block last
    k = len(sizes)
    r, q = _fill_row_sums(n, d, s1, s)
    vals = [[Fraction(a == b) for b in range(k)] for a in range(k)]
    vals[k - 1][k - 1] = q
    if s1 > 0:
        vals[k - 2][k - 1] = vals[k - 1][k - 2] = r
    return BlockSpec(tuple(sizes), tuple(tuple(row) for row in vals))


def build_clique_block(n: int, d: int, delta: float, h: Graph) -> BlockSpec:
    """Single planted clique of size ~ delta^{1/v} n p^{Delta/2} for a
    Delta-regular pattern with Delta >= 3, row sums exactly d."""
    if not (h.is_regular() and h.max_degree() >= 3):
        raise DomainError("pattern must be Delta-regular with Delta >= 3")
    if not (math.isfinite(delta) and delta > 0):
        raise DomainError(f"delta must be finite and > 0, got {delta}")
    p = d / n
    s1 = round(delta ** (1.0 / h.vertex_count) * n * p ** (h.max_degree() / 2.0))
    if not (2 <= s1 <= d // 2):
        raise ConstructionError(
            f"clique size s1={s1} outside [2, d/2]; parameters out of regime"
        )
    r, q = _fill_row_sums(n, d, s1, s1)
    return BlockSpec(
        (s1, n - s1),
        ((Fraction(1), r), (r, q)),
    )


def build_plant(n: int, p: float, x: float, y: float, delta: int) -> BlockSpec:
    """Hub of round(x p^Delta n) rows fully joined to everything and a clique
    block of round(y p^{Delta/2} n) vertices, planted on a constant-p
    background.  Values are exact: Fraction(p) materializes back to p."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"x and y must be finite, got x={x}, y={y}")
    s1 = round(x * p ** delta * n)
    s2 = round(y * p ** (delta / 2.0) * n)
    if x > 0 and s1 < 1:
        raise ConstructionError("hub size rounds to 0; x too small at this scale")
    if y > 0 and s2 < 2:
        raise ConstructionError("clique size rounds below 2; y too small at this scale")
    if s1 + s2 >= n:
        raise ConstructionError(f"planted size s={s1 + s2} >= n")
    one, bg = Fraction(1), Fraction(p)
    rows = ((s1, (one, one, one)), (s2, (one, one, bg)), (n - s1 - s2, (one, bg, bg)))
    kept = [a for a, (size, _row) in enumerate(rows) if size]
    return BlockSpec(
        tuple(rows[a][0] for a in kept),
        tuple(tuple(rows[a][1][b] for b in kept) for a in kept),
    )


def fill_total_weight(spec: BlockSpec, m) -> BlockSpec:
    """Set every block value below 1 to the one q that makes the unordered
    weight sum exactly m."""
    ones = tuple(tuple(Fraction(v == 1) for v in row) for row in spec.values)
    ones_pairs = BlockSpec(spec.sizes, ones).total_weight_exact()
    n_e = spec.n * (spec.n - 1) // 2
    if ones_pairs == n_e:
        if m != n_e:
            raise ConstructionError(
                f"planted blocks cover all {n_e} pairs, so the weight cannot be {m}"
            )
        return spec
    q = _require_unit("q", Fraction(Fraction(m) - ones_pairs, n_e - ones_pairs))
    return BlockSpec(spec.sizes, tuple(
        tuple(v if v == 1 else q for v in row) for row in spec.values
    ))


def _fill_row_sums(n: int, d: int, s1: int, planted: int):
    """The exact border r and background q that make every row sum d when
    `planted` vertices sit in cliques, all but the last of row sum d and the
    last, of size s1, joined to the n - planted background at r:
    r = (d - s1 + 1) / (n - planted), q = (d - s1 r) / (n - planted - 1)."""
    r = _require_unit("r", Fraction(d - s1 + 1, n - planted))
    q = _require_unit("q", (Fraction(d) - s1 * r) / (n - planted - 1))
    return r, q


def build_clique_hub(n: int, m: int, x: float, y: float, delta: int) -> BlockSpec:
    """Hub of size ~ x p^Delta n fully joined to everything, clique block of
    size ~ y p^{Delta/2} n, background q absorbing the total-weight residual
    so that the unordered weight sum is exactly m."""
    if x < 0 or y < 0 or (x == 0 and y == 0):
        raise DomainError("need x, y >= 0, not both zero")
    if delta < 2:
        raise DomainError("Delta must be >= 2")
    n_e = n * (n - 1) // 2
    if not (0 < m < n_e):
        raise DomainError("need 0 < m < n(n-1)/2")
    return fill_total_weight(build_plant(n, m / n_e, x, y, delta), m)


def build_irregular_dreg(n: int, d: int, h: Graph, x: float) -> BlockSpec:
    """Upper-bound construction for irregular patterns in the constant-degree
    ensemble: hub s1 ~ x n p^{f-1} joined to a block of size d+1-s1, with r
    and q solved from the exact row-sum equations."""
    from .graphs import f_exponent

    if h.min_degree() < 2:
        raise DomainError("pattern must have min degree >= 2 (apply two_core)")
    if h.is_regular() or h.max_degree() < 3:
        raise DomainError("pattern must be irregular with Delta >= 3 (use build_clique_block otherwise)")
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"x must be finite and > 0, got {x}")
    p = d / n
    f = float(f_exponent(h))
    s1 = round(x * n * p ** (f - 1.0))
    if not (1 <= s1 < d):
        raise ConstructionError(f"hub size s1={s1} outside [1, d)")
    # sizes (s1, d+1-s1, n-d-1): rows in the first block then sum to exactly d
    s2 = d + 1 - s1
    s3 = n - d - 1
    if s3 <= 2:
        raise ConstructionError("background block too small")
    r = _require_unit("r", Fraction(d - s1, n - s1 - 1))
    q = _require_unit("q", (Fraction(d) - r * s2) / (s3 - 1))
    one, zero = Fraction(1), Fraction(0)
    vals = (
        (one, one, zero),
        (one, r, r),
        (zero, r, q),
    )
    return BlockSpec((s1, s2, s3), vals)


# ---------------------------------------------------------------------------
# membership validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    kind: str
    deviation: float
    passes: bool
    detail: str = ""

    def to_json(self):
        return dict(vars(self))


def ensemble_residual(x, constraint) -> float:
    """Deviation of a matrix or BlockSpec from an ensemble constraint:
    ("row_sums", d) gives the largest row-sum deviation, ("total_weight", m)
    the deviation of the sum over i<j from m, None gives 0.  A BlockSpec is
    measured exactly, in rational arithmetic."""
    if constraint is None:
        return 0.0
    kind, val = constraint
    exact = isinstance(x, BlockSpec)
    if kind == "row_sums":
        if exact:
            return float(max(abs(rs - val) for rs in x.row_sums_exact()))
        return float(np.abs(np.asarray(x, dtype=float).sum(axis=1) - val).max())
    if kind == "total_weight":
        if exact:
            return float(abs(x.total_weight_exact() - val))
        return abs(float(np.triu(np.asarray(x, dtype=float), 1).sum()) - val)
    raise DomainError(f"unknown constraint {kind!r}")


def validate_membership(x, ensemble) -> MembershipReport:
    """Check a matrix or BlockSpec against an ensemble's defining constraints.

    Regular(d): max row-sum deviation.  Uniform(m): total-weight deviation
    (sum over i<j compared to m).  ER/BlockModel: entry-range check only.
    BlockSpec inputs use exact rational arithmetic and report deviation 0
    when the constraints hold identically.
    """
    constraint = ensemble.constraint()
    if constraint is None:
        xm = np.asarray(x, dtype=float)
        low, high = float(xm.min()), float(xm.max())
        deviation = max(0.0, -low) + max(0.0, high - 1.0)
        return MembershipReport(ensemble.kind, deviation, deviation <= 1e-9,
                                "entry-range check only")
    kind, val = constraint
    detail = (f"target row sum {val}" if kind == "row_sums"
              else f"target total weight {val} over unordered pairs")
    deviation = ensemble_residual(x, constraint)
    return MembershipReport(ensemble.kind, deviation, deviation <= 1e-9, detail)

"""The benchmark's workloads: inputs drawn from a seed, the timed ops, their
output checks against independent oracles, and the known-failure probes.

Every timed op is one call into uptail's public API.  Calls go through the
module attribute (`solver.solve_phi`, `ensembles.mc_upper_tail`) so that the
traced run sees them.  See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from uptail import ensembles, homs, rates, solver
from uptail.errors import ResourceError, SamplingError
from uptail.graphs import parse_graph

K3 = parse_graph("cycle:3")
K4 = parse_graph("clique:4")
C5 = parse_graph("cycle:5")

# Half-width of the band around each dense-solve target that the seed draws
# from, as a share of the target.
TARGET_BAND = 0.002


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Entry:
    """One entry of a workload's fixed op list."""

    name: str
    run: Callable[[int], object]       # op index -> result
    check: Callable[[object], None]
    items: int                         # samples per op, or 1 for a solve


@dataclass
class Workload:
    entries: list
    warm_up: Callable[[], None]
    probes: Callable[[], list]         # -> [(name, error type or None, message)]
    rate: Callable[[dict], float]      # {entry name: results} -> rate_normalized
    min_passes: int                    # least passes over the list in a timed run
    trace_passes: int                  # passes in each phase of a traced run
    notes: dict = field(default_factory=dict)


WARM_UP_SEED = 7        # Monte Carlo seed of the warm-up, the same for every run


def op_seed(seed, k):
    """Monte Carlo seed of the k-th op of a run."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def geometric_mean(vals):
    """Geometric mean of the positive finite values; 0.0 when there are none."""
    logs = [math.log(v) for v in vals if 0.0 < v < math.inf]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


# ---------------------------------------------------------------------------
# dense-solve
# ---------------------------------------------------------------------------

def check_solve(problem, res):
    x = np.asarray(res.x, dtype=float)
    n = problem.n
    require(x.shape == (n, n), "witness shape")
    homs.check_weight_matrix(x)
    p = problem.hom_p()
    for h, t in problem.targets:
        if h.max_degree() == 2 and h.is_regular() and h.is_connected():
            val = homs.cycle_hom_spectral(h.vertex_count, x, p)
        else:
            val = homs.hom_normalized(h, x, p, engine="brute")
        require(val >= t - problem.feasibility_tol - 1e-9 * t,
                f"infeasible witness: hom {val} < target {t}")
    if problem.ensemble is not None:
        kind, val = problem.ensemble
        if kind == "total_weight":
            resid = abs(float(x[np.triu_indices(n, 1)].sum()) - val)
        else:
            resid = float(np.abs(x.sum(axis=1) - val).max())
        require(resid <= 1e-9, f"ensemble residual {resid}")
    value = 0.5 * rates.entropy_matrix(x, problem.base)
    require(abs(res.value - value) <= 1e-12 * max(1.0, abs(value)),
            f"value {res.value} != entropy {value}")


def dense_solve(seed):
    rng = np.random.default_rng([seed, 1])

    def target(t):
        return t * (1.0 + TARGET_BAND * rng.uniform(-1.0, 1.0))

    problems = [
        ("free-k3", solver.SolveProblem(((K3, target(1.3)),), n=60, base=0.3)),
        ("rows-k3", solver.SolveProblem(((K3, target(1.3)),), n=60, base=0.3,
                                        ensemble=("row_sums", 18))),
        # fixed target: within +-0.2% of 1.3 this problem's time is bimodal
        # (about 3 s at most targets, about 30 s at some; see NOTES.md)
        ("total-k3", solver.SolveProblem(((K3, 1.3),), n=30, base=130 / 435,
                                         ensemble=("total_weight", 130))),
        ("free-k4", solver.SolveProblem(((K4, target(1.3)),), n=30, base=0.3)),
        ("free-c5", solver.SolveProblem(((C5, target(1.3)),), n=40, base=0.3)),
    ]
    entries = [
        Entry(name, lambda k, pr=pr: solver.solve_phi(pr),
              lambda res, pr=pr: check_solve(pr, res), 1)
        for name, pr in problems
    ]

    def warm_up():
        solver.solve_phi(solver.SolveProblem(((K3, 1.3),), n=12, base=0.3, budget=3))

    def probes():
        # K4 with row sums d = 12 at n = 40: no start reaches feasibility
        pr = solver.SolveProblem(((K4, 1.3),), n=40, base=0.3, ensemble=("row_sums", 12))
        try:
            solver.solve_phi(pr)
        except ResourceError as exc:
            return [("rows-k4-n40-d12", type(exc).__name__, str(exc))]
        return [("rows-k4-n40-d12", None, "solved")]

    def rate(results):
        # the certified normalized bound (lower is tighter); repeats of a
        # problem give the same result, so the last one stands for all
        return geometric_mean([res[-1].normalized for res in results.values() if res])

    notes = {name: {"n": pr.n, "target": pr.targets[0][1], "pattern_edges":
                    pr.targets[0][0].edge_count, "ensemble": pr.ensemble}
             for name, pr in problems}
    # three passes, so each problem's time is a median of three
    return Workload(entries, warm_up, probes, rate, 3, 1, notes)


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

def check_tail(samples, est):
    require(est.samples == samples, f"sample count {est.samples} != {samples}")
    require(0.0 <= est.ci_low <= est.point <= est.ci_high <= 1.0,
            f"interval {est.ci_low} <= {est.point} <= {est.ci_high} violated")


def mc_entry(name, spec, h_list, t_list, samples, seed):
    return Entry(
        name,
        lambda k: ensembles.mc_upper_tail(spec, h_list, t_list, samples,
                                          seed=op_seed(seed, k)),
        lambda est: check_tail(samples, est),
        samples,
    )


def pooled_rate(spec_of):
    """Geometric mean over entries of -log(pooled estimate) / a_{n,p}."""

    def rate(results):
        vals = []
        for name, ests in results.items():
            spec, h_list = spec_of[name]
            if not ests:
                continue
            point = sum(e.point * e.samples for e in ests) / sum(e.samples for e in ests)
            dmax = min(h.max_degree() for h in h_list)
            vals.append(-math.log(point) / rates.scale_anp(spec.n, spec.sparsity(), dmax))
        return geometric_mean(vals)

    return rate


def mc_per_sample(seed):
    uni, reg4, reg5 = ensembles.uniform(40, 300), ensembles.regular(40, 4), ensembles.regular(40, 5)
    # thresholds near the 80th percentile of each ensemble's normalized count;
    # sample counts make every op take about the same time
    table = [
        ("uniform-k3", uni, [K3], [0.95], 150),
        ("regular4-k3", reg4, [K3], [0.6], 90),
        ("regular5-k3", reg5, [K3], [0.6], 14),
        ("uniform-k3c5", uni, [K3, C5], [0.93, 1.06], 120),
    ]
    entries = [mc_entry(name, spec, hs, ts, s, seed) for name, spec, hs, ts, s in table]

    def warm_up():
        for name, spec, hs, ts, s in table:
            ensembles.mc_upper_tail(spec, hs, ts, 2, seed=WARM_UP_SEED)

    def probes():
        # regular(40, 6): the configuration model's acceptance is so low that
        # some draws exhaust the retry budget
        out = []
        rng = ensembles.rng_stream(seed, 99)
        for i in range(8):
            try:
                ensembles.sample(ensembles.regular(40, 6), rng)
                out.append((f"regular-40-6-draw{i}", None, "drawn"))
            except SamplingError as exc:
                out.append((f"regular-40-6-draw{i}", type(exc).__name__, str(exc)))
        return out

    rate = pooled_rate({name: (spec, hs) for name, spec, hs, _t, _s in table})
    notes = {name: {"ensemble": spec.kind, "n": spec.n, "m": spec.m, "d": spec.d,
                    "thresholds": ts, "samples": s} for name, spec, hs, ts, s in table}
    return Workload(entries, warm_up, probes, rate, 1, 10, notes)


def hub_tilt(spec, hub, blend):
    """Tilt toward a planted hub: rows 0..hub-1 set to 1, blended with the base."""
    base = spec.probability_matrix()
    planted = base.copy()
    planted[:hub, :] = 1.0
    planted[:, :hub] = 1.0
    tilt = blend * planted + (1.0 - blend) * base
    np.fill_diagonal(tilt, 0.0)
    return tilt


def mc_batched(seed):
    spec = ensembles.er(18, 0.35)
    tilt = hub_tilt(spec, 2, 0.5)
    is_samples = 8192
    entries = [
        mc_entry("er-k3", spec, [K3], [1.5], 8192, seed),
        mc_entry("er-k3k4", spec, [K3, K4], [1.2, 1.3], 96, seed),
        Entry(
            "er-is-k3",
            lambda k: ensembles.importance_tail(spec, tilt, [K3], [1.8], is_samples,
                                                seed=op_seed(seed, k)),
            lambda est: check_tail(is_samples, est),
            is_samples,
        ),
    ]

    def warm_up():
        ensembles.mc_upper_tail(spec, [K3, K4], [1.2, 1.3], 16, seed=WARM_UP_SEED)
        ensembles.importance_tail(spec, tilt, [K3], [1.8], 16, seed=WARM_UP_SEED)

    rate = pooled_rate({"er-k3": (spec, [K3]), "er-k3k4": (spec, [K3, K4]),
                        "er-is-k3": (spec, [K3])})
    notes = {"er-k3": {"n": 18, "p": 0.35, "thresholds": [1.5], "samples": 8192},
             "er-k3k4": {"n": 18, "p": 0.35, "thresholds": [1.2, 1.3], "samples": 96},
             "er-is-k3": {"n": 18, "p": 0.35, "thresholds": [1.8], "samples": is_samples,
                          "tilt": "hub of 2 rows, blend 0.5"}}
    return Workload(entries, warm_up, lambda: [], rate, 1, 10, notes)


WORKLOADS = {
    "dense-solve": dense_solve,
    "mc-per-sample": mc_per_sample,
    "mc-batched": mc_batched,
}


# ---------------------------------------------------------------------------
# untimed verify pass, shared by every workload
# ---------------------------------------------------------------------------

def verify_checks(seed):
    """(name, thunk) pairs; each thunk raises CheckFailed on a wrong output."""
    rng = np.random.default_rng([seed, 2])

    def batched_vs_brute():
        n, p = 10, 0.4
        iu = np.triu_indices(n, 1)
        stack = np.zeros((3, n, n), dtype=np.int8)
        stack[:, iu[0], iu[1]] = rng.random((3, iu[0].size)) < p
        stack = stack + stack.transpose(0, 2, 1)
        for h in (K3, K4, C5):
            got = homs.batched_hom_normalized(h, stack, p)
            want = [homs.hom_normalized(h, a.astype(float), p, engine="brute") for a in stack]
            require(np.allclose(got, want, rtol=1e-12, atol=0.0),
                    f"batched hom {got} != brute {want}")

    def uniform_edges():
        g_rng = ensembles.rng_stream(seed, 98)
        for _ in range(3):
            g = ensembles.sample(ensembles.uniform(40, 300), g_rng)
            require(g.vertex_count == 40 and g.edge_count == 300, "uniform edge count")

    def regular_degrees(d):
        def check():
            g_rng = ensembles.rng_stream(seed, 97)
            for _ in range(2):
                g = ensembles.sample(ensembles.regular(40, d), g_rng)
                a = g.adjacency()
                require(a.trace() == 0 and a.max() <= 1 and (a == a.T).all(),
                        "regular sample not simple")
                require((a.sum(axis=1) == d).all(), f"regular sample not {d}-regular")
        return check

    return [
        ("verify.batched-vs-brute", batched_vs_brute),
        ("verify.uniform-edges", uniform_edges),
        ("verify.regular4-degrees", regular_degrees(4)),
        ("verify.regular5-degrees", regular_degrees(5)),
    ]

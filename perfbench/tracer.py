"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around uptail's public functions, patched at the names
their callers bind: `solver` and `ensembles` import `hom_normalized` and
friends with `from .homs import ...`, so `uptail.solver.hom_normalized` is
patched as well as `uptail.homs.hom_normalized`.  A layer's self time is its
span's duration minus the time covered by its child spans (one thread, so the
children never overlap).  Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.layers = {}         # name -> [calls, self seconds, failed]
        self.counts = {}         # counter name -> int
        self._stack = []         # open span indices
        self._child = []         # child time accumulated per open span
        self._patches = []       # (owner, attr, original) for uninstall
        self.active = True       # False: wrappers call straight through

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _close(self, idx, name, parent, t0, failed):
        t1 = perf_counter()
        self._stack.pop()
        child = self._child.pop()
        dur = t1 - t0
        if self._child:
            self._child[-1] += dur
        self.spans[idx] = (name, t0, t1, parent)
        agg = self.layers.setdefault(name, [0, 0.0, 0])
        agg[0] += 1
        agg[1] += dur - child
        agg[2] += failed

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span; an exception marks the span failed."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._close(idx, name, parent, t0, 1)
            raise
        self._close(idx, name, parent, t0, 0)
        return out

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr by a traced wrapper.

        `before(args, kwargs)` may return replacement (args, kwargs);
        `after(args, kwargs, result)` records counts from a successful call.
        """
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            out = self.span(name, orig, *args, **kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[n], t0, t1, par] for n, t0, t1, par in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


class CountingRng:
    """Forwards to a numpy Generator and counts `permutation` calls, which is
    one configuration-model trial per call in the regular sampler."""

    def __init__(self, rng, tracer, key):
        self._rng = rng
        self._tracer = tracer
        self._key = key

    def permutation(self, *args, **kwargs):
        self._tracer.count(self._key)
        return self._rng.permutation(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


def install(tracer, uptail):
    """Patch every traced layer of an imported uptail package."""
    blocks, ensembles, graphs, homs, rates, solver = (
        uptail.blocks, uptail.ensembles, uptail.graphs, uptail.homs,
        uptail.rates, uptail.solver,
    )
    w = tracer.wrap

    w(solver, "solve_phi", "solver.solve_phi",
      after=lambda a, k, res: tracer.count("solver.solve_phi.iterations", res.iterations))
    # every multi-start seed comes from default_seeds plus the problem's own
    w(solver, "default_seeds", "solver.default_seeds",
      after=lambda a, k, seeds: tracer.count(
          "solver.solve_phi.starts", len(seeds) + len(a[0].seeds)))
    w(solver, "project_ensemble", "solver.project_ensemble")
    w(solver, "entropy_matrix", "rates.entropy_matrix")
    w(rates, "entropy_matrix", "rates.entropy_matrix")
    for mod in (solver, homs):
        w(mod, "hom_gradient", "homs.hom_gradient")
    for mod in (solver, ensembles, homs):
        w(mod, "hom_normalized", "homs.hom_normalized")
    w(homs, "check_weight_matrix", "homs.check_weight_matrix")
    for mod in (ensembles, homs):
        w(mod, "batched_hom_normalized", "homs.batched_hom_normalized",
          after=lambda a, k, out: tracer.count(
              "homs.batched_hom_normalized.graphs", int(a[1].shape[0])))
    w(blocks.BlockSpec, "materialize", "blocks.BlockSpec.materialize")
    w(graphs.Graph, "adjacency", "graphs.Graph.adjacency")

    def count_regular_trials(args, kwargs):
        spec, rng = args[0], args[1]
        if spec.kind == "regular":
            tracer.count("ensembles.regular.draws")
            rng = CountingRng(rng, tracer, "ensembles.regular.trials")
        return (spec, rng) + tuple(args[2:]), kwargs

    w(ensembles, "sample", "ensembles.sample", before=count_regular_trials)
    w(ensembles, "mc_upper_tail", "ensembles.mc_upper_tail")
    w(ensembles, "importance_tail", "ensembles.importance_tail")

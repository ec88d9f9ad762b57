"""Command-line front end.

One JSON document (or CSV table) per invocation on stdout, diagnostics on
stderr.  Exit codes: 0 success, 1 domain error, 2 usage error, 3 resource or
budget error.  The master seed comes from --seed or UPTAIL_SEED.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import blocks, ensembles, graphs, homs, rates, solver
from .errors import DomainError, ResourceError, UptailError

MATRIX_CSV_N_CAP = 2000  # largest n that --matrix-out writes


def _load_graph(text_or_path: str) -> graphs.Graph:
    if text_or_path.startswith("@"):
        with open(text_or_path[1:]) as fh:
            return graphs.parse_graph(fh.read())
    return graphs.parse_graph(text_or_path)


def _load_matrix_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _seed(args) -> int:
    """--seed, else UPTAIL_SEED, else 0; `ensembles.rng_stream` refuses a
    seed outside [0, 2^64)."""
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("UPTAIL_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise DomainError(f"UPTAIL_SEED must be an integer in [0, 2^64), got {env!r}") from None


def _emit(doc: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
    elif fmt == "csv":
        flat = _flatten(doc)
        keys = sorted(flat)
        print(",".join(keys))
        print(",".join(_csv_cell(flat[k]) for k in keys))
    else:  # human
        flat = _flatten(doc)
        for k in sorted(flat):
            print(f"{k}: {flat[k]}")


def _flatten(doc, prefix=""):
    out = {}
    for k, v in doc.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def _csv_cell(v):
    if isinstance(v, (list, tuple)):
        return '"' + ";".join(str(x) for x in v) + '"'
    return str(v)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_hom(args):
    pattern = _load_graph(args.pattern)
    if args.graph_file or args.graph:
        g = _load_graph("@" + args.graph_file if args.graph_file else args.graph)
        return {"hom_count": homs.hom_count(pattern, g)}
    if args.matrix_csv:
        x = _load_matrix_csv(args.matrix_csv)
        doc = {"hom_density_t": homs.hom_density_t(pattern, x)}
        if args.p is not None:
            doc["hom_normalized"] = homs.hom_normalized(pattern, x, args.p)
        return doc
    raise DomainError("hom needs --graph/--graph-file or --matrix-csv")


def _one_delta(args, who):
    """The one --delta of `rate` or `construct`; only joint-rate takes several."""
    if len(args.delta) > 1:
        raise DomainError(f"{who} takes one --delta, got {len(args.delta)}")
    return args.delta[0] if args.delta else None


def cmd_rate(args):
    h = _load_graph(args.graph)
    delta = _one_delta(args, "rate")
    regular = args.model == "regular"
    core = rates.scale_pattern(h, regular)
    doc = {}
    if regular:
        if core.vertex_count == 0:
            raise DomainError("pattern is a tree: its 2-core is empty")
        doc["h_used"] = {
            "vertex_count": core.vertex_count,
            "edges": [list(e) for e in core.edges],
        }
    report = (rates.c_reg if regular else rates.c_er)(core, delta)
    doc.update(report.to_json())
    doc["delta"] = delta
    if (args.n is None) != (args.p is None):
        raise DomainError("rate takes --n and --p together, for a_np")
    if args.n is not None:
        doc["n"], doc["p"] = args.n, args.p
        doc["a_np"] = rates.rate_scale(args.n, args.p, [h], regular)
        if doc["a_np"] is None:  # c_er and c_reg already required Delta >= 2
            raise DomainError(f"p must be in (0,1), got {args.p}")
    return doc


def cmd_joint_rate(args):
    hs = [_load_graph(s) for s in args.graph]
    report = rates.c_joint(hs, args.delta)
    doc = report.to_json()
    doc["deltas"] = list(args.delta)
    return doc


def _require_opts(args, who, names):
    for name in names:
        value = getattr(args, name.replace("-", "_"))
        if value is None or value == []:
            raise DomainError(f"{who} needs --{name}")


def cmd_construct(args):
    kind = args.type
    who = f"construct --type {kind}"
    delta = _one_delta(args, "construct")
    if kind == "cycle-blocks":
        _require_opts(args, who, ("d", "delta", "l"))
        spec = blocks.build_cycle_blocks(args.n, args.d, delta, args.l)
        pattern = graphs.cycle(args.l)
    elif kind == "clique-block":
        _require_opts(args, who, ("d", "delta", "graph"))
        pattern = _load_graph(args.graph)
        spec = blocks.build_clique_block(args.n, args.d, delta, pattern)
    elif kind == "clique-hub":
        _require_opts(args, who, ("m", "x", "y"))
        spec = blocks.build_clique_hub(args.n, args.m, args.x, args.y, args.dmax)
        pattern = _load_graph(args.graph) if args.graph else None
    elif kind == "irregular-dreg":
        _require_opts(args, who, ("d", "graph", "x"))
        pattern = _load_graph(args.graph)
        spec = blocks.build_irregular_dreg(args.n, args.d, pattern, args.x)
    else:
        raise DomainError(f"unknown construction type {kind!r}")
    p = args.m / (args.n * (args.n - 1) / 2) if kind == "clique-hub" else args.d / args.n
    doc = {"blockspec": spec.to_json(), "p": p}
    if pattern is not None:
        doc["hom_normalized"] = spec.hom_normalized(pattern, p)
        doc["entropy"] = spec.entropy(p)
        dmax = args.dmax if kind == "clique-hub" else pattern.max_degree()
        doc["entropy_over_2anp"] = spec.entropy(p) / (
            2 * rates.scale_anp(args.n, p, dmax)
        )
    if args.matrix_out:
        if spec.n > MATRIX_CSV_N_CAP:
            raise ResourceError(f"matrix CSV output capped at n = {MATRIX_CSV_N_CAP}")
        np.savetxt(args.matrix_out, spec.materialize(), delimiter=",", fmt="%.17g")
        doc["matrix_out"] = args.matrix_out
    if args.validate:
        ens = _ensemble_from_args(args, strict=False)  # the builders share --d, --m
        doc["membership"] = blocks.validate_membership(spec, ens).to_json()
    return doc


# The flags each --model needs, and the only model flags it takes.  The parser
# declares them from this table and _ensemble_from_args checks them against it.
MODEL_FLAGS = {
    "er": ("p",),
    "uniform": ("m",),
    "regular": ("d",),
    "block": ("p", "alpha", "kernel"),
    "planted": ("tilt-file",),
}
_FLAG_TYPES = {"p": float, "m": int, "d": int}  # the rest are strings


def _ensemble_from_args(args, strict=True):
    """The EnsembleSpec of --model.  A flag it needs and lacks exits 1; under
    `strict`, so does a model flag of the subcommand that this model does not take."""
    model = args.model
    _require_opts(args, f"{model} model", MODEL_FLAGS[model])
    for flag in args.model_flags if strict else ():
        if flag not in MODEL_FLAGS[model] and getattr(args, flag.replace("-", "_")) is not None:
            raise DomainError(f"{model} model does not take --{flag}")
    if model == "er":
        return ensembles.er(args.n, args.p)
    if model == "uniform":
        return ensembles.uniform(args.n, args.m)
    if model == "regular":
        return ensembles.regular(args.n, args.d)
    if model == "planted":
        return ensembles.planted(_load_tilt(args.tilt_file, args.n))
    try:
        alpha = tuple(float(s) for s in args.alpha.split(","))
        kernel = tuple(tuple(float(v) for v in row) for row in json.loads(args.kernel))
    except (TypeError, ValueError) as exc:
        raise DomainError(
            "block model needs --alpha as comma-separated numbers and --kernel "
            f"as a JSON matrix of numbers ({exc})"
        ) from exc
    return ensembles.block_model(args.n, rates.BlockModelParams(alpha, kernel, args.p))


def _dense_ensemble(args):
    """`_ensemble_from_args` for solve, tail-mc and tail-is, which normalize
    counts at the edge density p: p = 0 or 1 is refused, naming its flag,
    before any seed or draw."""
    spec = _ensemble_from_args(args)
    # (edges, pairs), er's edges expected per pair; no division, as one vertex has no pair
    count = {"er": (spec.p, 1), "uniform": (spec.m, spec.n * (spec.n - 1) // 2)}.get(spec.kind)
    if count and count[0] in (0, count[1]):
        flag = f"--p {args.p:g}" if spec.kind == "er" else f"--m {args.m}"
        raise DomainError(f"{flag}: {'no' if count[0] == 0 else 'every'} pair is an edge; "
                          f"{args.command} needs an edge density in (0, 1)")
    return spec


def _load_tilt(path, n):
    """A tilt file: a BlockSpec (.json) or an n x n matrix (CSV), of n vertices."""
    if path.endswith(".json"):
        with open(path) as fh:
            x = blocks.BlockSpec.from_json(fh.read())
        shape = (x.n, x.n)  # checked before anything is materialized
    else:
        x = _load_matrix_csv(path)
        shape = x.shape
    if shape != (n, n):
        raise DomainError(f"tilt matrix shape {shape} does not match n={n}")
    return x


def cmd_solve(args):
    hs = [_load_graph(s) for s in args.graph]
    if len(args.t) != len(hs):
        raise DomainError("need one --t per --graph")
    spec = _dense_ensemble(args)
    problem = solver.SolveProblem(
        targets=tuple((h, t * spec.threshold_unit(h)) for h, t in zip(hs, args.t)),
        n=args.n,
        base=spec.solve_base(),
        ensemble=spec.constraint(),
        budget=args.budget,
    )
    if args.matrix_out and args.n > MATRIX_CSV_N_CAP:
        raise ResourceError(f"matrix CSV output capped at n = {MATRIX_CSV_N_CAP}")
    result = solver.solve_phi(problem)
    doc = result.to_json()
    if isinstance(result.x, blocks.BlockSpec):
        doc["blockspec"] = result.x.to_json()
    if args.matrix_out:
        np.savetxt(args.matrix_out, np.asarray(result.x, dtype=float), delimiter=",", fmt="%.17g")
        doc["matrix_out"] = args.matrix_out
    return doc


def cmd_sample(args):
    spec = _ensemble_from_args(args)
    rng = ensembles.rng_stream(_seed(args), 0)
    g = ensembles.sample(spec, rng)
    return {
        "n": g.vertex_count,
        "edge_count": g.edge_count,
        "edges": [list(e) for e in g.edges],
        "seed": _seed(args),
    }


def _progress_printer(total):
    def report(done, estimate):
        print(f"progress: {done}/{total} samples, estimate {estimate:.6g}",
              file=sys.stderr)
    return report


def cmd_tail_mc(args):
    spec = _dense_ensemble(args)
    hs = [_load_graph(s) for s in args.graph]
    est = ensembles.mc_upper_tail(
        spec, hs, args.t, args.samples,
        seed=_seed(args), threshold=args.threshold, workers=args.threads,
        progress=_progress_printer(args.samples),
    )
    doc = est.to_json()
    doc["seed"] = _seed(args)
    return doc


def cmd_tail_is(args):
    spec = _dense_ensemble(args)
    hs = [_load_graph(s) for s in args.graph]
    tilt = _load_tilt(args.tilt_file, args.n)
    if args.tilt_blend is not None:
        rho = args.tilt_blend
        if not (0 <= rho <= 1):
            raise DomainError(f"--tilt-blend must be in [0, 1], got {rho}")
        # a pair the tilt leaves at the base stays there exactly, so that
        # importance_tail's log-weights read only the pairs it moves
        tilt, base = np.asarray(tilt, dtype=float), spec.probability_matrix()
        tilt = np.where(tilt == base, base, rho * tilt + (1 - rho) * base)
        np.fill_diagonal(tilt, 0.0)
    est = ensembles.importance_tail(
        spec, tilt, hs, args.t, args.samples,
        seed=_seed(args), workers=args.threads,
        progress=_progress_printer(args.samples),
    )
    doc = est.to_json()
    doc["seed"] = _seed(args)
    return doc


def cmd_check(args):
    """Advisory sparsity-range check; warns (never blocks) when outside."""
    h = _load_graph(args.graph)
    n, p = args.n, args.p
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not (0 < p < 1):
        raise DomainError(f"p must be in (0,1), got {p}")
    core, _ = graphs.two_core(h)
    used = core if core.vertex_count else h
    deg = used.degrees()
    is_cycle = used.vertex_count >= 3 and all(d == 2 for d in deg) and used.is_connected()
    logn = math.log(n)
    if is_cycle:
        l = used.vertex_count
        lower = max(n ** (2.0 / l - 1.0), logn ** (l / (2.0 * l - 4.0)) / math.sqrt(n))
        kind = f"cycle:{l}"
    else:
        ds = float(graphs.delta_star(used) if used.edge_count else 1.0)
        lower = n ** (-1.0 / (2 * ds)) * logn ** (1.0 / (2 * ds))
        kind = "general"
    in_range = (p >= lower) and (p <= 0.5)
    doc = {
        "kind": kind,
        "n": n,
        "p": p,
        "lower_threshold": lower,
        "upper_guideline": 0.5,
        "in_range": bool(in_range),
    }
    if not in_range:
        print(
            f"warning: p={p} outside the advisory asymptotic range "
            f"[{lower:.4g}, 0.5] for this pattern",
            file=sys.stderr,
        )
    return doc


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_model_args(p, models, default=None):
    """--model over `models` (required unless it has a default), --n, and
    every flag those models take, from MODEL_FLAGS."""
    p.add_argument("--model", choices=models, default=default, required=default is None)
    p.add_argument("--n", type=int, required=True)
    flags = tuple(dict.fromkeys(f for m in models for f in MODEL_FLAGS[m]))
    for flag in flags:
        p.add_argument(f"--{flag}", type=_FLAG_TYPES.get(flag))
    p.set_defaults(model_flags=flags)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="uptail",
        description="Upper-tail rates for homomorphism counts in sparse random graphs",
    )
    ap.add_argument("--format", choices=("json", "csv", "human"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hom", help="homomorphism counts and densities")
    p.add_argument("--pattern", required=True)
    p.add_argument("--graph")
    p.add_argument("--graph-file")
    p.add_argument("--matrix-csv")
    p.add_argument("--p", type=float)
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("rate", help="closed-form rate constant")
    p.add_argument("--graph", required=True)
    p.add_argument("--delta", type=float, action="append", required=True)
    p.add_argument("--model", choices=("er", "regular"), default="er")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.set_defaults(fn=cmd_rate)

    p = sub.add_parser("joint-rate", help="joint rate constant for several patterns")
    p.add_argument("--graph", action="append", required=True)
    p.add_argument("--delta", type=float, action="append", required=True)
    p.set_defaults(fn=cmd_joint_rate)

    p = sub.add_parser("construct", help="block-matrix optimizers")
    p.add_argument("--type", required=True,
                   choices=("cycle-blocks", "clique-block", "clique-hub", "irregular-dreg"))
    _add_model_args(p, ("er", "uniform", "regular", "block"), "regular")
    p.add_argument("--delta", type=float, action="append", default=[])
    p.add_argument("--l", type=int)
    p.add_argument("--x", type=float)
    p.add_argument("--y", type=float)
    p.add_argument("--dmax", type=int, default=2)
    p.add_argument("--graph")
    p.add_argument("--matrix-out")
    p.add_argument("--validate", action="store_true")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("solve", help="numerical variational solve")
    p.add_argument("--graph", action="append", required=True)
    p.add_argument("--t", type=float, action="append", required=True)
    _add_model_args(p, ("er", "uniform", "regular", "block"), "er")
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--matrix-out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sample", help="draw one graph from an ensemble")
    _add_model_args(p, tuple(MODEL_FLAGS))
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("tail-mc", help="direct Monte Carlo tail estimate")
    _add_model_args(p, ("er", "uniform", "regular", "block"))
    p.add_argument("--graph", action="append", required=True)
    p.add_argument("--t", type=float, action="append", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--threshold", choices=("analytic", "empirical"), default="analytic")
    p.add_argument("--threads", type=int, default=1)  # Monte Carlo workers
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_tail_mc)

    p = sub.add_parser("tail-is", help="importance-sampled tail estimate")
    _add_model_args(p, ("er", "block"))
    p.add_argument("--graph", action="append", required=True)
    p.add_argument("--t", type=float, action="append", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--tilt-file", required=True)
    p.add_argument("--tilt-blend", type=float, default=None)
    p.add_argument("--threads", type=int, default=1)  # Monte Carlo workers
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_tail_is)

    p = sub.add_parser("check", help="advisory sparsity-range check")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(fn=cmd_check)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        doc = args.fn(args)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, UptailError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(doc, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())

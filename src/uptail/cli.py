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


def _load_graph(text_or_path: str) -> graphs.Graph:
    if text_or_path.startswith("@"):
        with open(text_or_path[1:]) as fh:
            return graphs.parse_graph(fh.read())
    return graphs.parse_graph(text_or_path)


def _load_matrix_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("UPTAIL_SEED")
    return int(env) if env else 0


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


def cmd_rate(args):
    h = _load_graph(args.graph)
    doc = {}
    if args.model == "er":
        report = rates.c_er(h, args.delta[0])
    elif args.model == "regular":
        core, kept = graphs.two_core(h)
        if core.vertex_count == 0:
            raise DomainError("pattern is a tree: its 2-core is empty")
        doc["h_used"] = {
            "vertex_count": core.vertex_count,
            "edges": [list(e) for e in core.edges],
        }
        report = rates.c_reg(core, args.delta[0])
    else:
        raise DomainError("rate supports --model er or regular")
    doc.update(report.to_json())
    doc["delta"] = args.delta[0]
    if args.n and args.p:
        dmax = h.max_degree()
        doc["n"], doc["p"] = args.n, args.p
        doc["a_np"] = rates.scale_anp(args.n, args.p, dmax)
    return doc


def cmd_joint_rate(args):
    hs = [_load_graph(s) for s in args.graph]
    report = rates.c_joint(hs, args.delta)
    doc = report.to_json()
    doc["deltas"] = list(args.delta)
    return doc


def _require_opts(args, kind, names):
    for name in names:
        value = getattr(args, name.replace("-", "_"))
        if value is None or value == []:
            raise DomainError(f"construct --type {kind} needs --{name}")


def cmd_construct(args):
    kind = args.type
    if kind == "cycle-blocks":
        _require_opts(args, kind, ("d", "delta", "l"))
        spec = blocks.build_cycle_blocks(args.n, args.d, args.delta[0], args.l)
        pattern = graphs.cycle(args.l)
        p = args.d / args.n
    elif kind == "clique-block":
        _require_opts(args, kind, ("d", "delta", "graph"))
        pattern = _load_graph(args.graph)
        spec = blocks.build_clique_block(args.n, args.d, args.delta[0], pattern)
        p = args.d / args.n
    elif kind == "clique-hub":
        _require_opts(args, kind, ("m", "x", "y"))
        spec = blocks.build_clique_hub(args.n, args.m, args.x, args.y, args.dmax)
        pattern = _load_graph(args.graph) if args.graph else None
        p = args.m / (args.n * (args.n - 1) / 2)
    elif kind == "irregular-dreg":
        _require_opts(args, kind, ("d", "graph", "x"))
        pattern = _load_graph(args.graph)
        spec = blocks.build_irregular_dreg(args.n, args.d, pattern, args.x)
        p = args.d / args.n
    else:
        raise DomainError(f"unknown construction type {kind!r}")
    doc = {"blockspec": spec.to_json(), "p": p}
    if pattern is not None:
        doc["hom_normalized"] = spec.hom_normalized(pattern, p)
        doc["entropy"] = spec.entropy(p)
        dmax = args.dmax if kind == "clique-hub" else pattern.max_degree()
        doc["entropy_over_2anp"] = spec.entropy(p) / (
            2 * rates.scale_anp(args.n, p, dmax)
        )
    if args.matrix_out:
        if spec.n > 2000:
            raise ResourceError("matrix CSV output capped at n = 2000")
        np.savetxt(args.matrix_out, spec.materialize(), delimiter=",", fmt="%.17g")
        doc["matrix_out"] = args.matrix_out
    if args.validate:
        ens = _ensemble_from_args(args, allow_planted=False)
        doc["membership"] = blocks.validate_membership(spec, ens).to_json()
    return doc


def _ensemble_from_args(args, allow_planted=True):
    model = args.model
    if model == "er":
        if args.p is None:
            raise DomainError("er model needs --p")
        return ensembles.er(args.n, args.p)
    if model == "uniform":
        if args.m is None:
            raise DomainError("uniform model needs --m")
        return ensembles.uniform(args.n, args.m)
    if model == "regular":
        if args.d is None:
            raise DomainError("regular model needs --d")
        return ensembles.regular(args.n, args.d)
    if model == "block":
        if not (args.alpha and args.kernel and args.p is not None):
            raise DomainError("block model needs --alpha, --kernel, --p")
        alpha = tuple(float(s) for s in args.alpha.split(","))
        kernel = tuple(tuple(float(v) for v in row) for row in json.loads(args.kernel))
        params = rates.BlockModelParams(alpha, kernel, args.p)
        return ensembles.block_model(args.n, params)
    if model == "planted" and allow_planted:
        if not args.tilt_file:
            raise DomainError("planted model needs --tilt-file")
        return ensembles.planted(_load_tilt(args.tilt_file, args.n))
    raise DomainError(f"unknown model {model!r}")


def _load_tilt(path, n):
    if path.endswith(".json"):
        with open(path) as fh:
            return blocks.BlockSpec.from_json(fh.read())
    x = _load_matrix_csv(path)
    if x.shape != (n, n):
        raise DomainError(f"tilt matrix shape {x.shape} does not match n={n}")
    return x


def cmd_solve(args):
    hs = [_load_graph(s) for s in args.graph]
    ts = args.t
    if len(ts) != len(hs):
        raise DomainError("need one --t per --graph")
    ensemble = None
    base = args.p
    hom_scale = None
    if args.model == "uniform":
        ensemble = ("total_weight", args.m)
        base = args.m / (args.n * (args.n - 1) / 2) if args.p is None else args.p
    elif args.model == "regular":
        ensemble = ("row_sums", args.d)
        base = args.d / args.n if args.p is None else args.p
    elif args.model == "block":
        spec = _ensemble_from_args(args)
        base = spec.probability_matrix()
        hom_scale = spec.block.p
        # block-model targets are multiples of the mean constant b_H
        ts = [t * rates.b_h(h, spec.block) for h, t in zip(hs, ts)]
    elif args.model != "er":
        raise DomainError("solve supports er, uniform, regular, block")
    if base is None:
        raise DomainError("solve needs --p (or --m/--d to imply it)")
    problem = solver.SolveProblem(
        targets=tuple((h, t) for h, t in zip(hs, ts)),
        n=args.n,
        base=base,
        ensemble=ensemble,
        budget=args.budget,
        hom_scale=hom_scale,
    )
    if args.n > solver.DENSE_N_CAP:
        result = solver.solve_phi_blocks(problem)
        doc = result.to_json()
        doc["blockspec"] = result.x.to_json()
        return doc
    result = solver.solve_phi(problem, threads=args.threads)
    doc = result.to_json()
    if args.matrix_out:
        if args.n > 2000:
            raise ResourceError("matrix CSV output capped at n = 2000")
        np.savetxt(args.matrix_out, result.x, delimiter=",", fmt="%.17g")
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
    spec = _ensemble_from_args(args)
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
    spec = _ensemble_from_args(args, allow_planted=False)
    hs = [_load_graph(s) for s in args.graph]
    tilt = _load_tilt(args.tilt_file, args.n)
    if args.tilt_blend is not None:
        rho = args.tilt_blend
        tilt_m = tilt.materialize() if isinstance(tilt, blocks.BlockSpec) else tilt
        tilt = rho * tilt_m + (1 - rho) * spec.probability_matrix()
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

def build_parser():
    ap = argparse.ArgumentParser(
        prog="uptail",
        description="Upper-tail rates for homomorphism counts in sparse random graphs",
    )
    ap.add_argument("--format", choices=("json", "csv", "human"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)

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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--delta", type=float, action="append", default=[])
    p.add_argument("--l", type=int)
    p.add_argument("--x", type=float)
    p.add_argument("--y", type=float)
    p.add_argument("--dmax", type=int, default=2)
    p.add_argument("--graph")
    p.add_argument("--matrix-out")
    p.add_argument("--validate", action="store_true")
    p.add_argument("--model", choices=("er", "uniform", "regular", "block"), default="regular")
    p.add_argument("--p", type=float)
    p.add_argument("--alpha")
    p.add_argument("--kernel")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("solve", help="numerical variational solve")
    p.add_argument("--graph", action="append", required=True)
    p.add_argument("--t", type=float, action="append", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--model", choices=("er", "uniform", "regular", "block"), default="er")
    p.add_argument("--alpha")
    p.add_argument("--kernel")
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--matrix-out")
    common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sample", help="draw one graph from an ensemble")
    p.add_argument("--model", choices=("er", "uniform", "regular", "block", "planted"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--alpha")
    p.add_argument("--kernel")
    p.add_argument("--tilt-file")
    common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("tail-mc", help="direct Monte Carlo tail estimate")
    p.add_argument("--model", choices=("er", "uniform", "regular", "block"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--alpha")
    p.add_argument("--kernel")
    p.add_argument("--graph", action="append", required=True)
    p.add_argument("--t", type=float, action="append", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--threshold", choices=("analytic", "empirical"), default="analytic")
    common(p)
    p.set_defaults(fn=cmd_tail_mc)

    p = sub.add_parser("tail-is", help="importance-sampled tail estimate")
    p.add_argument("--model", choices=("er", "block"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--alpha")
    p.add_argument("--kernel")
    p.add_argument("--graph", action="append", required=True)
    p.add_argument("--t", type=float, action="append", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--tilt-file", required=True)
    p.add_argument("--tilt-blend", type=float, default=None)
    common(p)
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

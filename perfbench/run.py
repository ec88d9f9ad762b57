#!/usr/bin/env python3
"""Benchmark for uptail: dense variational solves and Monte Carlo tail estimates.

Run from the repository root:

    python3 perfbench/run.py --workload dense-solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run imports uptail from ./src, draws its inputs from --seed, times complete
passes over the workload's fixed op list until --seconds have elapsed (and
at least three passes on dense-solve; closed loop, one op at a time), checks
every output, and prints as its last line a
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is a JSON record of the environment, the per-entry op
counts and the known-failure probes.  `--workload all` runs every workload in
its own process and prints a table.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 7                  # fresh processes timed for setup_s
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "items_per_s": "1/s",
    "rate_normalized": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = [  # (metric, unit)
    ("solver.project_ensemble.calls", "count"),
    ("solver.project_ensemble.s", "s"),
    ("solver.project_ensemble.failed", "count"),
    ("homs.hom_gradient.calls", "count"),
    ("homs.hom_gradient.s", "s"),
    ("homs.hom_normalized.calls", "count"),
    ("homs.hom_normalized.s", "s"),
    ("homs.check_weight_matrix.calls", "count"),
    ("homs.check_weight_matrix.s", "s"),
    ("rates.entropy_matrix.calls", "count"),
    ("rates.entropy_matrix.s", "s"),
    ("solver.solve_phi.s", "s"),
    ("solver.solve_phi.iterations", "count"),
    ("solver.solve_phi.starts", "count"),
    ("blocks.BlockSpec.materialize.calls", "count"),
    ("blocks.BlockSpec.materialize.s", "s"),
    ("ensembles.sample.calls", "count"),
    ("ensembles.sample.s", "s"),
    ("ensembles.regular.trials_per_draw", "trials/draw"),
    ("graphs.Graph.adjacency.calls", "count"),
    ("graphs.Graph.adjacency.s", "s"),
    ("homs.batched_hom_normalized.calls", "count"),
    ("homs.batched_hom_normalized.s", "s"),
    ("homs.batched_hom_normalized.graphs", "count"),
    ("ensembles.mc_upper_tail.s", "s"),
    ("ensembles.importance_tail.s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def load_uptail():
    """Import uptail from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import uptail

    if not Path(uptail.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported uptail from {uptail.__file__}, not from {SRC}")
    return uptail


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in range(8):
        level = _read(base / f"index{idx}" / "level")
        size = _read(base / f"index{idx}" / "size")
        kind = _read(base / f"index{idx}" / "type")
        if level and size and kind and kind.strip() != "Instruction":
            sizes[f"L{level.strip()}"] = size.strip()
    return sizes


def _blas():
    import ctypes

    info = {"blas": None, "blas_version": None, "blas_threads": None}
    try:
        dep = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = dep.get("name"), dep.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    try:  # the library numpy links, reached through its extension module
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return info
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
            break
    return info


def environment(seed):
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    env = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": os.getloadavg(),
    }
    env.update(_blas())
    return env


# ---------------------------------------------------------------------------
# speed calibration
# ---------------------------------------------------------------------------

# Nominal time of one calibrate() call.  Timed metrics are reported in
# reference seconds: an op's measured seconds times CAL_REF_S over the median
# time of the calibrations run within CAL_WINDOW_S of the op.  On a shared
# host the machine's speed drifts by up to 1.6x over seconds to minutes; the
# scaling cancels most of that drift.
CAL_REF_S = 0.009
CAL_SHARE = 0.05      # calibration time after each op, as a share of the op's
CAL_WINDOW_S = 0.3    # calibrations this close to an op set its speed
_CAL_X = np.random.default_rng(12345).random((60, 60))


def calibrate():
    """Seconds taken by a fixed kernel that does not touch uptail: Python
    integer arithmetic and small numpy array ops, the mix of uptail's hot
    paths."""
    x = _CAL_X
    t0 = time.perf_counter()
    acc = 0
    for j in range(30_000):
        acc += j * j % 7
    for _ in range(12):
        y = np.clip(x - 0.25, 0.0, 1.0)
        y = 0.5 * (y + y.T)
        acc += float(np.einsum("ij,jk,ki->", y, y, y)) + float(y.sum())
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class OpRecord(NamedTuple):
    entry: str
    start: float          # perf_counter at the op's start
    seconds: float        # measured
    ok: bool
    items: int
    error: str | None


def run_passes(workload, passes, seconds=0.0, tracer=None):
    """Complete passes over the entry list: at least `passes` of them, and
    more while fewer than `seconds` have elapsed.  After each op the
    calibration kernel runs for about CAL_SHARE of the op's time, at least
    once, so that the calibrations sample the machine's speed evenly in time.

    Op k of the run (counting from 0) draws its Monte Carlo seed from k, so
    every run with a seed sees the same inputs in the same order.  Output
    checks run with `tracer` paused, so its spans cover the ops alone.

    Returns the op records, the successful results per entry, and the
    calibrations as (perf_counter at start, seconds).
    """
    records = []
    results = {e.name: [] for e in workload.entries}
    cals = []
    k = 0
    start = time.perf_counter()
    done = 0
    while True:
        for entry in workload.entries:
            t0 = time.perf_counter()
            try:
                res = entry.run(k)
            except Exception as exc:  # an op that raises counts as failed
                res, error = None, exc
            else:
                error = None
            dt = time.perf_counter() - t0
            k += 1
            if error is None:
                if tracer is not None:
                    tracer.active = False
                try:
                    entry.check(res)
                except Exception as exc:  # so does one that fails its check
                    error = exc
                finally:
                    if tracer is not None:
                        tracer.active = True
            if error is None:
                records.append(OpRecord(entry.name, t0, dt, True, entry.items, None))
                results[entry.name].append(res)
            else:
                records.append(OpRecord(entry.name, t0, dt, False, entry.items,
                                        f"{type(error).__name__}: {error}"))
            cal_until = time.perf_counter() + CAL_SHARE * dt
            cals.append((time.perf_counter(), calibrate()))
            while time.perf_counter() < cal_until:
                cals.append((time.perf_counter(), calibrate()))
        done += 1
        if done >= passes and time.perf_counter() - start >= seconds:
            break
    return records, results, cals


def reference_seconds(records, cals):
    """Each op's seconds scaled to the reference speed, by the median of the
    calibrations within CAL_WINDOW_S of the op."""
    cals = sorted(cals)
    times = [t for t, _ in cals]
    out = []
    for r in records:
        lo = bisect.bisect_left(times, r.start - CAL_WINDOW_S)
        hi = bisect.bisect_right(times, r.start + r.seconds + CAL_WINDOW_S)
        near = [c for _, c in cals[lo:hi]] or [c for _, c in cals]
        out.append(r.seconds * CAL_REF_S / statistics.median(near))
    return out


def list_wall(records, durations):
    """Time to finish the fixed list once: sum over entries of each entry's
    median op time in the run."""
    by_entry = {}
    for r, dt in zip(records, durations):
        by_entry.setdefault(r.entry, []).append(dt)
    return sum(statistics.median(v) for v in by_entry.values())


def run_verify(workloads_mod, seed):
    records = []
    for name, thunk in workloads_mod.verify_checks(seed):
        try:
            thunk()
        except Exception as exc:  # a wrong sampler or batched count
            records.append(OpRecord(name, 0.0, 0.0, False, 0, f"{type(exc).__name__}: {exc}"))
        else:
            records.append(OpRecord(name, 0.0, 0.0, True, 0, None))
    return records


def run_probes(workload):
    """Known-failure probes: run untimed, reported apart from the timed ops."""
    t0 = time.perf_counter()
    out = [{"probe": name, "failed": error is not None, "error": error, "message": message}
           for name, error, message in workload.probes()]
    return out, time.perf_counter() - t0


def measure_setup(args):
    """Seconds from launching a fresh interpreter to its first timed op.

    Not scaled by the calibration: a launch is mostly process start-up and
    imports, whose speed the calibration kernel does not track."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-child"]
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return times


def percentile_90(durations):
    if len(durations) < 2:
        return durations[0]
    return statistics.quantiles(durations, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def timing_values(records, durations):
    items = sum(r.items for r in records if r.ok)
    return {
        "wall_s": list_wall(records, durations),
        "op_s.p50": statistics.median(durations),
        "op_s.p90": percentile_90(durations),
        "items_per_s": items / sum(durations),
    }


def untraced_metrics(workload, records, results, cals, setup):
    """End-to-end metrics in reference seconds, and the same timings as measured."""
    values = {"setup_s": statistics.median(setup),
              **timing_values(records, reference_seconds(records, cals)),
              "rate_normalized": workload.rate(results),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    measured = timing_values(records, [r.seconds for r in records])
    t_base = records[0].start
    names = list(dict.fromkeys(r.entry for r in records))
    extra = {"measured": measured,
             "calibration": {"ref_s": CAL_REF_S, "runs": len(cals),
                             "median_s": statistics.median(c for _, c in cals)},
             "raw": {"entries": names,
                     "ops": [[names.index(r.entry), round(r.start - t_base, 5),
                              round(r.seconds, 6)] for r in records],
                     "cals": [[round(t - t_base, 5), round(c, 7)] for t, c in cals],
                     "setup": setup}}
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return metrics, extra


def traced_metrics(uptail, tracer_mod, workload, args):
    passes = workload.trace_passes
    plain, _, plain_cals = run_passes(workload, passes)
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer, uptail)
    try:
        traced, _, traced_cals = run_passes(workload, passes, tracer=tracer)
    finally:
        tracer.uninstall()
    layers, counts = tracer.layers, tracer.counts

    def layer(name, i):
        return layers.get(name, [0, 0.0, 0])[i]

    values = {}
    for metric, unit in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field == "calls":
            v = layer(base, 0)
        elif field == "s":
            v = layer(base, 1)
        elif field == "failed":
            v = layer(base, 2)
        elif metric == "ensembles.regular.trials_per_draw":
            draws = counts.get("ensembles.regular.draws", 0)
            v = counts.get("ensembles.regular.trials", 0) / draws if draws else 0.0
        elif metric == "trace.overhead_frac":
            v = (list_wall(traced, reference_seconds(traced, traced_cals))
                 / list_wall(plain, reference_seconds(plain, plain_cals)) - 1.0)
        else:
            v = counts.get(metric, 0)
        values[metric] = {"value": v, "unit": unit}
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(span_file)
    extra = {"spans": len(tracer.spans), "span_file": str(span_file.relative_to(ROOT)),
             "counters": counts}
    return values, plain + traced, extra


def run_workload(args):
    uptail = load_uptail()
    import workloads as workloads_mod

    workload = workloads_mod.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    if args.setup_child:
        print(time.monotonic(), flush=True)
        return 0

    env = environment(args.seed)
    calibrate()  # the first call pays one-off costs
    verify = run_verify(workloads_mod, args.seed)
    if args.trace:
        import tracer as tracer_mod

        metrics, records, extra = traced_metrics(uptail, tracer_mod, workload, args)
    else:
        setup = measure_setup(args)
        records, results, cals = run_passes(workload, workload.min_passes, args.seconds)
        metrics, extra = untraced_metrics(workload, records, results, cals, setup)
    probes, probe_s = run_probes(workload)
    env["loadavg_end"] = os.getloadavg()

    all_ops = verify + records
    failed = [r for r in all_ops if not r.ok]
    per_entry = {}
    for r in records:
        row = per_entry.setdefault(r.entry, {"ops": 0, "failed": 0, "seconds": []})
        row["ops"] += 1
        row["failed"] += not r.ok
        row["seconds"].append(round(r.seconds, 6))
    probe_failed = sum(p["failed"] for p in probes)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "inputs": workload.notes,
        "ops": {"timed": len(records), "verify": len(verify), "per_entry": per_entry,
                "errors": [{"op": r.entry, "error": r.error} for r in failed][:20]},
        "probes": {"attempted": len(probes), "failed": probe_failed, "seconds": probe_s,
                   "runs": probes,
                   "failure_share_with_probes": (len(failed) + probe_failed)
                   / (len(all_ops) + len(probes))},
        **extra,
    }
    print(json.dumps(record))
    for name, m in metrics.items():
        print(f"# {args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"# {args.workload} ops attempted {len(all_ops)} ({len(records)} timed, "
          f"{len(verify)} verify) failed {len(failed)}; "
          f"probes attempted {len(probes)} failed {probe_failed} (known failures)")
    result = {"correct": not failed, "attempted": len(all_ops), "failed": len(failed),
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Every workload, each in its own process; a table of the results."""
    summary = {}
    status = 0
    for name in ("dense-solve", "mc-per-sample", "mc-batched"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S * 2)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        record, result = json.loads(lines[0]), json.loads(lines[-1])
        summary[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"({record['ops']['timed']} timed ops) failed={result['failed']}; "
              f"known-failure probes attempted {record['probes']['attempted']} "
              f"failed {record['probes']['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:38s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(summary))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["dense-solve", "mc-per-sample", "mc-batched", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "uptail" / "__init__.py").is_file():
        sys.exit(f"perfbench: no uptail package under {SRC}; run from a repository checkout")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

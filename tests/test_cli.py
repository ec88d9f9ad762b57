"""CLI contract: outputs validate against the shipped schemas, byte-identical
reruns, documented exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from uptail import cli

REPO = Path(__file__).resolve().parent.parent
SCHEMAS = REPO / "schemas"


def run_cli(*argv, env_seed=None, module="uptail.cli"):
    env = dict(os.environ)
    env.pop("UPTAIL_SEED", None)
    if env_seed is not None:
        env["UPTAIL_SEED"] = str(env_seed)
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def run_main(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def check_schema(doc, name):
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
    jsonschema.validate(doc, schema)


# ---------------------------------------------------------------------------

def test_rate_er_example():
    proc = run_cli("rate", "--graph", "cycle:3", "--delta", "1", "--model", "er")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    check_schema(doc, "rate")
    assert doc["branch"] == "hub"
    assert doc["constant"] == pytest.approx(1 / 3, abs=1e-12)


def test_rate_regular_example():
    proc = run_cli("rate", "--graph", "cycle:3", "--delta", "2.5", "--model", "regular")
    doc = json.loads(proc.stdout)
    check_schema(doc, "rate")
    assert doc["branch"] == "multi_clique"
    assert doc["constant"] == pytest.approx(0.5 * (2 + 2 ** (-2 / 3)), abs=1e-12)
    assert doc["h_used"]["vertex_count"] == 3


def test_rate_regular_reduces_to_core(tmp_path):
    # triangle with a pendant edge: reported pattern is the 2-core
    gfile = tmp_path / "g.txt"
    gfile.write_text("0 1\n0 2\n1 2\n2 3\n")
    proc = run_cli("rate", "--graph", f"@{gfile}", "--delta", "1", "--model", "regular")
    doc = json.loads(proc.stdout)
    assert doc["h_used"]["vertex_count"] == 3
    assert len(doc["h_used"]["edges"]) == 3


def test_hom_example(tmp_path):
    gfile = tmp_path / "k4.txt"
    gfile.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    proc = run_cli("hom", "--pattern", "cycle:3", "--graph-file", str(gfile))
    doc = json.loads(proc.stdout)
    check_schema(doc, "hom")
    assert doc["hom_count"] == 24


def test_hom_matrix_csv(tmp_path):
    n, p = 8, 0.3
    x = np.full((n, n), p)
    np.fill_diagonal(x, 0.0)
    mf = tmp_path / "x.csv"
    np.savetxt(mf, x, delimiter=",")
    proc = run_cli("hom", "--pattern", "cycle:3", "--matrix-csv", str(mf), "--p", str(p))
    doc = json.loads(proc.stdout)
    check_schema(doc, "hom")
    expect = (n - 1) * (n - 2) / n ** 2
    assert doc["hom_normalized"] == pytest.approx(expect, rel=1e-9)


def test_joint_rate():
    proc = run_cli(
        "joint-rate", "--graph", "cycle:3", "--graph", "star:2",
        "--delta", "10", "--delta", "1",
    )
    doc = json.loads(proc.stdout)
    check_schema(doc, "rate")
    assert doc["constant"] == pytest.approx(1 + 0.5 * 7 ** (2 / 3), abs=1e-6)
    assert doc["branch"] == "mixed"


def test_construct_validates(tmp_path):
    out = tmp_path / "x.csv"
    proc = run_cli(
        "construct", "--type", "cycle-blocks", "--n", "400", "--d", "40",
        "--delta", "1.5", "--l", "3", "--validate", "--model", "regular",
        "--matrix-out", str(out),
    )
    doc = json.loads(proc.stdout)
    check_schema(doc, "construct")
    assert doc["membership"]["passes"] and doc["membership"]["deviation"] == 0.0
    x = np.loadtxt(out, delimiter=",")
    assert x.shape == (400, 400)
    assert np.abs(x.sum(axis=1) - 40).max() < 1e-9


def test_sample_deterministic_with_env_seed():
    a = run_cli("sample", "--model", "er", "--n", "12", "--p", "0.4", env_seed=99)
    b = run_cli("sample", "--model", "er", "--n", "12", "--p", "0.4", env_seed=99)
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    check_schema(doc, "sample")
    assert doc["seed"] == 99


def test_tail_mc_schema_and_determinism():
    args = (
        "tail-mc", "--model", "er", "--n", "10", "--p", "0.3",
        "--graph", "cycle:3", "--t", "1.2", "--samples", "2000", "--seed", "7",
    )
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    check_schema(doc, "tail")


def test_tail_is_with_blend(tmp_path):
    tilt = np.full((10, 10), 0.3)
    tilt[:4, :4] = 1.0
    np.fill_diagonal(tilt, 0.0)
    tf = tmp_path / "tilt.csv"
    np.savetxt(tf, tilt, delimiter=",")
    proc = run_cli(
        "tail-is", "--model", "er", "--n", "10", "--p", "0.3",
        "--graph", "cycle:3", "--t", "1.2", "--samples", "2000",
        "--tilt-file", str(tf), "--tilt-blend", "0.5", "--seed", "7",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    check_schema(doc, "tail")
    assert doc["hits"] > 0


def test_solve_schema():
    proc = run_cli(
        "solve", "--graph", "cycle:3", "--t", "1.2", "--n", "30", "--p", "0.3",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    check_schema(doc, "solve")
    assert doc["residuals"][0] <= 1e-6


@pytest.mark.parametrize("pattern", ["cycle:3", "clique:4", "star:3",
                                     "complete_bipartite:2:3"])
def test_check_every_pattern_family(pattern):
    proc = run_cli("check", "--graph", pattern, "--n", "1000", "--p", "0.05")
    assert proc.returncode in (0, 1, 3)
    assert "Traceback" not in proc.stderr
    if proc.returncode == 0:
        check_schema(json.loads(proc.stdout), "check")


SMOKE_COMMANDS = {
    "rate": ["rate", "--delta", "1", "--graph", "{pattern}"],
    "joint-rate": ["joint-rate", "--delta", "1", "--graph", "{pattern}"],
    "solve": ["solve", "--t", "1.3", "--n", "12", "--p", "0.3", "--graph", "{pattern}"],
    "solve-nan-target": ["solve", "--t", "nan", "--n", "12", "--p", "0.3",
                         "--graph", "{pattern}"],
    "solve-inf-target": ["solve", "--t", "inf", "--n", "12", "--p", "0.3",
                         "--graph", "{pattern}"],
    "solve-negative-budget": ["solve", "--t", "1.3", "--n", "12", "--p", "0.3",
                              "--budget", "-3", "--graph", "{pattern}"],
    "tail-mc-uniform": ["tail-mc", "--model", "uniform", "--n", "12", "--m", "20",
                        "--t", "1.0", "--samples", "50", "--seed", "1",
                        "--graph", "{pattern}"],
    "tail-mc-regular": ["tail-mc", "--model", "regular", "--n", "12", "--d", "4",
                        "--t", "1.0", "--samples", "50", "--seed", "1",
                        "--graph", "{pattern}"],
    "hom-graph-file": ["hom", "--pattern", "{pattern}", "--graph-file", "{graph_file}"],
    "hom-matrix-csv": ["hom", "--pattern", "{pattern}", "--matrix-csv", "{matrix_csv}",
                       "--p", "0.3"],
    "construct-clique-block": ["construct", "--type", "clique-block", "--n", "2000",
                               "--d", "200", "--delta", "1.5", "--graph", "{pattern}"],
    "construct-irregular-dreg": ["construct", "--type", "irregular-dreg", "--n", "2000",
                                 "--d", "200", "--x", "0.5", "--graph", "{pattern}"],
    "construct-clique-hub": ["construct", "--type", "clique-hub", "--n", "200",
                             "--m", "2000", "--x", "0.5", "--y", "0.5", "--graph",
                             "{pattern}"],
    # a hub of 9 of the 10 vertices covers every pair: no weight is left to fill
    "construct-clique-hub-all-pairs": ["construct", "--type", "clique-hub", "--n", "10",
                                       "--m", "40", "--x", "1.14", "--y", "0",
                                       "--dmax", "2", "--graph", "{pattern}"],
    "tail-is": ["tail-is", "--model", "er", "--n", "12", "--p", "0.3", "--t", "1.0",
                "--samples", "50", "--seed", "1", "--tilt-file", "{tilt_csv}",
                "--graph", "{pattern}"],
    # non-finite deltas and thresholds, and n < 1: each exits 1 with a message
    "rate-nan-delta": ["rate", "--delta", "nan", "--graph", "{pattern}"],
    "rate-regular-inf-delta": ["rate", "--model", "regular", "--delta", "inf",
                               "--graph", "{pattern}"],
    "rate-regular-nan-delta": ["rate", "--model", "regular", "--delta", "nan",
                               "--graph", "{pattern}"],
    "joint-rate-nan-delta": ["joint-rate", "--graph", "{pattern}", "--graph", "star:2",
                             "--delta", "nan", "--delta", "1"],
    "construct-cycle-blocks-nan-delta": ["construct", "--type", "cycle-blocks", "--n",
                                         "2000", "--d", "200", "--delta", "nan", "--l",
                                         "3", "--graph", "{pattern}"],
    "construct-clique-block-nan-delta": ["construct", "--type", "clique-block", "--n",
                                         "2000", "--d", "200", "--delta", "nan",
                                         "--graph", "{pattern}"],
    "check-n-zero": ["check", "--n", "0", "--p", "0.05", "--graph", "{pattern}"],
    "check-n-negative": ["check", "--n", "-3", "--p", "0.05", "--graph", "{pattern}"],
    "tail-mc-nan-threshold": ["tail-mc", "--model", "er", "--n", "12", "--p", "0.3",
                              "--t", "nan", "--samples", "50", "--seed", "1",
                              "--graph", "{pattern}"],
    "tail-is-nan-threshold": ["tail-is", "--model", "er", "--n", "12", "--p", "0.3",
                              "--t", "nan", "--samples", "50", "--seed", "1",
                              "--tilt-file", "{tilt_csv}", "--graph", "{pattern}"],
}
SMOKE_EXIT_CODES = {
    "construct-clique-hub-all-pairs": (1,), "solve-nan-target": (1,),
    "solve-inf-target": (1,), "solve-negative-budget": (1,), "rate-nan-delta": (1,),
    "rate-regular-inf-delta": (1,), "rate-regular-nan-delta": (1,),
    "joint-rate-nan-delta": (1,), "construct-cycle-blocks-nan-delta": (1,),
    "construct-clique-block-nan-delta": (1,), "check-n-zero": (1,),
    "check-n-negative": (1,), "tail-mc-nan-threshold": (1,), "tail-is-nan-threshold": (1,),
}


@pytest.fixture(scope="module")
def smoke_files(tmp_path_factory):
    """A 6-vertex graph file, a 12 x 12 weight matrix and a 12 x 12 tilt."""
    root = tmp_path_factory.mktemp("smoke")
    k6 = "".join(f"{u} {v}\n" for u in range(6) for v in range(u + 1, 6))
    (root / "k6.txt").write_text(k6)
    x = np.full((12, 12), 0.3)
    np.fill_diagonal(x, 0.0)
    np.savetxt(root / "x.csv", x, delimiter=",")
    x[:4, :4] = 0.8
    np.fill_diagonal(x, 0.0)
    np.savetxt(root / "tilt.csv", x, delimiter=",")
    return {"graph_file": root / "k6.txt", "matrix_csv": root / "x.csv",
            "tilt_csv": root / "tilt.csv"}


@pytest.mark.parametrize("pattern", ["cycle:3", "clique:4", "star:3", "path:4",
                                     "complete_bipartite:2:3", "clique:7"])
@pytest.mark.parametrize("command", list(SMOKE_COMMANDS))
def test_every_subcommand_every_pattern_family(command, pattern, smoke_files, capsys,
                                              monkeypatch):
    # in-process: an exception that escapes cli.main fails the test outright
    monkeypatch.delenv("UPTAIL_SEED", raising=False)
    argv = [a.format(pattern=pattern, **smoke_files) for a in SMOKE_COMMANDS[command]]
    code, _out, err = run_main(capsys, *argv)
    assert code in SMOKE_EXIT_CODES.get(command, (0, 1, 3)), err
    assert "Traceback" not in err


SAMPLE_MODELS = {
    "er": ["--p", "0.3"],
    "uniform": ["--m", "20"],
    "regular": ["--d", "4"],
    "block": ["--p", "0.3", "--alpha", "0.5,0.5", "--kernel", "[[1.0,0.5],[0.5,1.0]]"],
    "planted": ["--tilt-file", "{tilt_csv}"],
}


@pytest.mark.parametrize("model", list(SAMPLE_MODELS))
def test_sample_every_model(model, smoke_files):
    argv = [a.format(**smoke_files) for a in SAMPLE_MODELS[model]]
    proc = run_cli("sample", "--model", model, "--n", "12", "--seed", "1", *argv)
    assert proc.returncode == 0, proc.stderr
    check_schema(json.loads(proc.stdout), "sample")


@pytest.mark.parametrize("source", ["graph-file", "matrix-csv"])
def test_hom_past_width_cap_exits_3(source, smoke_files):
    # clique:7 needs elimination width 6; no input falls back to another engine
    path = smoke_files[source.replace("-", "_")]
    proc = run_cli("hom", "--pattern", "clique:7", f"--{source}", str(path))
    assert proc.returncode == 3
    assert "width" in proc.stderr and "Traceback" not in proc.stderr


def test_check_schema_and_warning():
    proc = run_cli("check", "--graph", "cycle:3", "--n", "1000", "--p", "0.02")
    doc = json.loads(proc.stdout)
    check_schema(doc, "check")
    assert not doc["in_range"]
    assert "warning" in proc.stderr


def test_exit_code_domain_error():
    proc = run_cli("rate", "--graph", "path:4", "--delta", "1", "--model", "regular")
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_python_dash_m_runs_the_cli():
    proc = run_cli("rate", "--graph", "cycle:3", "--delta", "1", "--model", "er",
                   module="uptail")
    assert proc.returncode == 0, proc.stderr
    check_schema(json.loads(proc.stdout), "rate")


def test_exit_code_usage_error():
    proc = run_cli("rate", "--graph", "cycle:3")  # missing --delta
    assert proc.returncode == 2


def test_solve_takes_no_seed():
    # solve_phi is deterministic: solve has no --seed, as it has no --threads
    for flag in ("--seed", "--threads"):
        proc = run_cli("solve", "--graph", "cycle:3", "--t", "1.3", "--n", "12",
                       "--p", "0.3", flag, "1")
        assert proc.returncode == 2 and "unrecognized arguments" in proc.stderr


def test_exit_code_resource_error():
    # materialization cap: n too large for CSV dump
    proc = run_cli(
        "construct", "--type", "cycle-blocks", "--n", "4000", "--d", "200",
        "--delta", "1.0", "--l", "3", "--matrix-out", "/tmp/too_big.csv",
    )
    assert proc.returncode == 3


def test_csv_format():
    proc = run_cli("--format", "csv", "rate", "--graph", "cycle:3", "--delta", "1")
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "constant" in header and "branch" in header


def test_infinite_constant_roundtrip():
    gtext = "0 1\n0 2\n0 3\n1 2\n1 3"
    proc = run_cli("rate", "--graph", gtext, "--delta", "1", "--model", "regular")
    doc = json.loads(proc.stdout)
    assert math.isinf(doc["constant"]) and doc["branch"] == "infinite"


def test_sample_block_model():
    proc = run_cli(
        "sample", "--model", "block", "--n", "40", "--p", "0.2",
        "--alpha", "0.5,0.5", "--kernel", "[[2.0,1.0],[1.0,0.5]]", "--seed", "3",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    check_schema(doc, "sample")
    assert doc["n"] == 40


def test_solve_block_model_scales_targets():
    proc = run_cli(
        "solve", "--graph", "cycle:3", "--t", "1.1", "--n", "30", "--p", "0.2",
        "--model", "block", "--alpha", "0.5,0.5",
        "--kernel", "[[2.0,1.0],[1.0,0.5]]",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    check_schema(doc, "solve")
    assert doc["residuals"][0] <= 1e-6


def test_solve_block_base_meets_its_scaled_target(capsys):
    # t * b_H <= 1 here; the block base's own hom value is below it
    code, out, err = run_main(capsys, "solve", "--model", "block", "--n", "12", "--p", "0.3",
                              "--alpha", "0.5,0.5", "--kernel", "[[1,0.5],[0.5,1]]",
                              "--graph", "cycle:3", "--t", "1.3")
    assert code == 0, err
    doc = json.loads(out)
    check_schema(doc, "solve")
    assert doc["residuals"][0] <= 1e-6 and doc["value"] > 0


def test_solve_uniform_model():
    proc = run_cli(
        "solve", "--graph", "cycle:3", "--t", "1.2", "--n", "40",
        "--model", "uniform", "--m", "240",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    check_schema(doc, "solve")
    assert doc["residuals"][0] <= 1e-6
    assert doc["ensemble_residual"] <= 1e-9


def test_solve_large_n_block_path():
    proc = run_cli(
        "solve", "--graph", "cycle:3", "--t", "2.0", "--n", "50000", "--p", "0.02",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    check_schema(doc, "solve")
    assert doc["seed_provenance"] == "block_search"
    assert "blockspec" in doc


def test_block_model_solve_past_dense_cap_exits_1():
    # the block search plants on a constant-p background, not the block base
    proc = run_cli(
        "solve", "--model", "block", "--n", "2001", "--alpha", "0.5,0.5",
        "--kernel", "[[2,1],[1,0.5]]", "--p", "0.05", "--graph", "cycle:3", "--t", "1.5",
    )
    assert proc.returncode == 1
    assert "scalar base" in proc.stderr and proc.stdout == ""


def test_solve_matrix_out_past_cap_exits_3(tmp_path):
    out = tmp_path / "x.csv"
    proc = run_cli(
        "solve", "--graph", "cycle:3", "--t", "2.0", "--n", "5000", "--p", "0.02",
        "--matrix-out", str(out),
    )
    assert proc.returncode == 3
    assert "matrix CSV output capped at n = 2000" in proc.stderr
    assert not out.exists()


def test_tail_mc_streams_progress():
    proc = run_cli(
        "tail-mc", "--model", "er", "--n", "10", "--p", "0.3",
        "--graph", "cycle:3", "--t", "1.2", "--samples", "9000", "--seed", "7",
    )
    assert proc.returncode == 0
    assert "progress: 9000/9000" in proc.stderr


def test_tail_mc_threads_flag():
    args = (
        "tail-mc", "--model", "er", "--n", "10", "--p", "0.3",
        "--graph", "cycle:3", "--t", "1.2", "--samples", "3000",
        "--seed", "5", "--threads", "3",
    )
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0 and a.stdout == b.stdout
    zero = run_cli(*args[:-1], "0")
    assert zero.returncode == 1 and "Traceback" not in zero.stderr


def test_construct_missing_params_exit_code():
    proc = run_cli("construct", "--type", "clique-hub", "--n", "100")
    assert proc.returncode == 1
    assert "needs --m" in proc.stderr


# ---------------------------------------------------------------------------
# the ensemble front end, run in-process through cli.main
# ---------------------------------------------------------------------------

# each subcommand's option strings; adding or dropping one changes the CLI contract
OPTION_STRINGS = {
    "hom": "--graph --graph-file --matrix-csv --p --pattern",
    "rate": "--delta --graph --model --n --p",
    "joint-rate": "--delta --graph",
    "construct": "--alpha --d --delta --dmax --graph --kernel --l --m --matrix-out "
                 "--model --n --p --type --validate --x --y",
    "solve": "--alpha --budget --d --graph --kernel --m --matrix-out --model --n --p --t",
    "sample": "--alpha --d --kernel --m --model --n --p --seed --tilt-file",
    "tail-mc": "--alpha --d --graph --kernel --m --model --n --p --samples --seed --t "
               "--threads --threshold",
    "tail-is": "--alpha --graph --kernel --model --n --p --samples --seed --t --threads "
               "--tilt-blend --tilt-file",
    "check": "--graph --n --p",
}


def test_subcommand_option_strings_pinned():
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    assert got == {name: set(opts.split()) for name, opts in OPTION_STRINGS.items()}


# subcommand: (argv without --model and its flags, models, the subcommand's own
# flags that a model may share)
MODEL_SUBCOMMANDS = {
    "sample": ("sample --n 12 --seed 1", tuple(SAMPLE_MODELS), {}),
    "tail-mc": ("tail-mc --n 12 --graph cycle:3 --t 1.0 --samples 50 --seed 1",
                ("er", "uniform", "regular", "block"), {}),
    "tail-is": ("tail-is --n 12 --graph cycle:3 --t 1.0 --samples 50 --seed 1 "
                "--tilt-file {tilt_csv}", ("er", "block"), {}),
    "solve": ("solve --n 12 --graph cycle:3 --t 0.9", ("er", "uniform", "regular", "block"),
              {}),
    "construct": ("construct --type clique-hub --n 12 --x 1 --y 0.6 --validate",
                  ("er", "uniform", "regular", "block"), {"--m": "20"}),
}
MODEL_CASES = [
    (sub, model, dropped)
    for sub, (_argv, models, _own) in MODEL_SUBCOMMANDS.items()
    for model in models
    for dropped in (None, *SAMPLE_MODELS[model][0::2])
]


@pytest.mark.parametrize("sub,model,dropped", MODEL_CASES)
def test_every_model_flag_is_required(sub, model, dropped, smoke_files, capsys):
    argv, _models, own = MODEL_SUBCOMMANDS[sub]
    flags = {**own, **dict(zip(SAMPLE_MODELS[model][0::2], SAMPLE_MODELS[model][1::2]))}
    flags.pop(dropped, None)
    argv = argv.split() + ["--model", model] + [a for kv in flags.items() for a in kv]
    code, _out, err = run_main(capsys, *(a.format(**smoke_files) for a in argv))
    if dropped is None:
        assert code == 0, err
    else:
        assert code == 1 and f"needs {dropped}" in err, err


@pytest.mark.parametrize("flag,value,message", [
    ("--alpha", "0.5,x", "block model needs"), ("--kernel", "5", "block model needs"),
    ("--kernel", '[[1,"a"],[2,1]]', "block model needs"),
    ("--alpha", "nan,0.5", "fractions must be positive"),
    ("--kernel", "[[NaN,0.5],[0.5,1.0]]", "entries must be nonnegative"),
])
def test_bad_block_flags_exit_1(flag, value, message, capsys):
    flags = {"--alpha": "0.5,0.5", "--kernel": "[[1.0,0.5],[0.5,1.0]]", flag: value}
    code, _out, err = run_main(capsys, "sample", "--model", "block", "--n", "12",
                               "--p", "0.3", *(a for kv in flags.items() for a in kv))
    assert code == 1 and message in err


@pytest.mark.parametrize("sub", ["solve", "sample", "tail-mc"])
@pytest.mark.parametrize("n,d,message", [
    (31, 3, "must be even"), (30, 1, "2 <= d <= n-2"), (30, 29, "2 <= d <= n-2"),
])
def test_regular_model_rejected_alike(sub, n, d, message, capsys):
    argv = {"solve": ["solve", "--t", "1.3"], "sample": ["sample"],
            "tail-mc": ["tail-mc", "--t", "1.3", "--samples", "50"]}[sub]
    if sub != "sample":
        argv += ["--graph", "cycle:3"]
    code, out, err = run_main(capsys, *argv, "--model", "regular", "--n", n, "--d", d)
    assert code == 1 and message in err and out == ""


@pytest.mark.parametrize("model,flag", [("uniform", "--m"), ("regular", "--d")])
def test_solve_fixed_count_model_needs_its_flag(model, flag, capsys):
    # --p sets the base but not the constraint: before, this ended in a TypeError
    code, _out, err = run_main(capsys, "solve", "--model", model, "--n", "30", "--p", "0.3",
                               "--graph", "cycle:3", "--t", "1.3")
    assert code == 1 and f"needs {flag}" in err


@pytest.mark.parametrize("blend", ["nan", "1.5", "-0.5"])
def test_tail_is_blend_outside_unit_interval_exits_1(blend, smoke_files, capsys):
    code, out, err = run_main(capsys, "tail-is", "--model", "er", "--n", "12", "--p", "0.3",
                              "--graph", "cycle:3", "--t", "1.0", "--samples", "50",
                              "--tilt-file", smoke_files["tilt_csv"], "--tilt-blend", blend)
    assert code == 1 and "--tilt-blend" in err and out == ""


@pytest.mark.parametrize("argv", [
    "--type clique-hub --n 200 --m 2000 --x {v} --y 0.5",
    "--type clique-hub --n 200 --m 2000 --x 0.5 --y {v}",
    "--type irregular-dreg --n 2000 --d 200 --x {v} --graph complete_bipartite:2:3",
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_construct_nonfinite_x_y_exit_1(argv, value, capsys):
    code, out, err = run_main(capsys, "construct", *argv.format(v=value).split())
    assert code == 1 and "finite" in err and out == ""


@pytest.mark.parametrize("p", ["nan", "-1", "0", "1"])
def test_check_p_outside_unit_interval_exits_1(p, capsys):
    code, out, err = run_main(capsys, "check", "--graph", "cycle:3", "--n", "100", "--p", p)
    assert code == 1 and "p must be in (0,1)" in err and out == ""


def test_check_p_above_guideline_only_warns(capsys):
    code, out, err = run_main(capsys, "check", "--graph", "cycle:3", "--n", "100",
                              "--p", "0.7")
    assert code == 0 and "warning" in err
    assert json.loads(out)["in_range"] is False

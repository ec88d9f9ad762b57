"""CLI contract: outputs validate against the shipped schemas, byte-identical
reruns, documented exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
SCHEMAS = REPO / "schemas"


def run_cli(*argv, env_seed=None):
    env = dict(os.environ)
    env.pop("UPTAIL_SEED", None)
    if env_seed is not None:
        env["UPTAIL_SEED"] = str(env_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "uptail.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


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


def test_exit_code_usage_error():
    proc = run_cli("rate", "--graph", "cycle:3")  # missing --delta
    assert proc.returncode == 2


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


def test_construct_missing_params_exit_code():
    proc = run_cli("construct", "--type", "clique-hub", "--n", "100")
    assert proc.returncode == 1
    assert "needs --m" in proc.stderr

"""CLI contract: outputs validate against the shipped schemas, byte-identical
reruns, documented exit codes."""

import argparse
import json
import math
import os
import subprocess
import time
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from uptail import cli, graphs, homs, rates, solver

REPO = Path(__file__).resolve().parent.parent
SCHEMAS = REPO / "schemas"


def run_cli(*argv, env_seed=None, module="uptail.cli"):
    env = dict(os.environ)
    env.pop("UPTAIL_SEED", None)
    # the child imports uptail from this checkout, installed or not
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
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


def test_tail_is_blend_keeps_unmoved_pairs_at_the_base(tmp_path, capsys, monkeypatch):
    # at p = 0.1 and rho = 0.3, 0.3 * p + 0.7 * p is one ulp off p, so a
    # plain blend would move every background pair and importance_tail's
    # log-weights would read all of them; the pairs the tilt file leaves at
    # the base stay there exactly, and the hub's pairs take the blend
    assert 0.3 * 0.1 + (1 - 0.3) * 0.1 != 0.1
    tilt = np.full((10, 10), 0.1)
    tilt[:3, :] = tilt[:, :3] = 0.9
    np.fill_diagonal(tilt, 0.0)
    tf = tmp_path / "tilt.csv"
    np.savetxt(tf, tilt, delimiter=",")
    seen = []

    def importance_tail(spec, tilt, *args, **kwargs):
        seen.append(tilt)
        return importance(spec, tilt, *args, **kwargs)

    importance = cli.ensembles.importance_tail
    monkeypatch.setattr(cli.ensembles, "importance_tail", importance_tail)
    code, _out, err = run_main(capsys, "tail-is", "--model", "er", "--n", "10", "--p", "0.1",
                               "--graph", "cycle:3", "--t", "1.2", "--samples", "50",
                               "--tilt-file", tf, "--tilt-blend", "0.3", "--seed", "7")
    assert code == 0, err
    off = ~np.eye(10, dtype=bool)
    hub = np.zeros((10, 10), dtype=bool)
    hub[:3, :] = hub[:, :3] = True
    assert (seen[0][off & ~hub] == 0.1).all()
    assert (seen[0][off & hub] == 0.3 * 0.9 + (1 - 0.3) * 0.1).all()
    assert (np.diag(seen[0]) == 0.0).all()


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


@pytest.mark.parametrize("argv", ["--graph cycle:3 --t 1.3 --n 60 --p 0.3",
                                  "--graph clique:4 --t 1.3 --n 30 --p 0.3"])
def test_one_block_kernel_solves_as_er(argv, capsys):
    # a one-block model with kernel 1 is G(n, p): the same stdout, byte for byte
    code, er_out, err = run_main(capsys, "solve", *argv.split())
    assert code == 0, err
    code, out, err = run_main(capsys, "solve", *argv.split(), "--model", "block",
                              "--alpha", "1", "--kernel", "[[1]]")
    assert code == 0, err
    assert out == er_out


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


def test_solve_regular_k4_at_construction_scale():
    # the row-sum ladder's whole-clique seeds reach 51 blocks here; their
    # hom is expanded one part at a time, so the solve stays small
    proc = run_cli(
        "solve", "--graph", "clique:4", "--t", "1.3", "--n", "100000",
        "--model", "regular", "--d", "1000",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    check_schema(doc, "solve")
    assert doc["residuals"] == [0.0] and doc["ensemble_residual"] == 0.0
    assert doc["blockspec"]["sizes"] == [76, 99924]


def test_solve_regular_k4_past_the_dense_dp_cap(capsys):
    # below DENSE_N_CAP, but the n x n K4 witness would need an n^3 DP
    # intermediate past DP_CELL_CAP: the seeds past the compile cap are left
    # out, and the rest run on block values
    code, out, err = run_main(capsys, "solve", "--graph", "clique:4", "--t", "1.3",
                              "--n", "2000", "--model", "regular", "--d", "20")
    assert code == 0, err
    doc = json.loads(out)
    check_schema(doc, "solve")
    assert "blockspec" in doc and doc["residuals"] == [0.0]


@pytest.mark.parametrize("t, value, dropped", [("4", 48.18020624215107, []),
                                                ("1e5", 15574.950912528819, [18, 24, 35])])
def test_solve_past_the_dp_cap_leaves_out_seeds_past_the_compile_cap(t, value, dropped,
                                                                     monkeypatch, capsys):
    # K4's DP at n = 2000 passes DP_CELL_CAP, so a seed past the compile cap
    # (k^4 > COMPILE_CAP, k >= 17 blocks) is left out and no n x n DP runs.
    # At t = 4 every seed fits, and the AL prints the level search's former
    # value; at t = 1e5 the 13-block whole_cliques seed wins, below the level
    # search's 15605.67
    def no_dp(*_a, **_k):
        raise AssertionError("the n x n hom DP ran")

    seen = []

    def seeds(problem):
        out = default_seeds(problem)
        seen.extend(spec.num_blocks for _name, spec in out)
        return out

    default_seeds = solver.default_seeds
    monkeypatch.setattr(solver, "default_seeds", seeds)
    monkeypatch.setattr(homs, "_dp_sum", no_dp)
    code, out, err = run_main(capsys, "solve", "--graph", "clique:4", "--t", t, "--n", "2000",
                              "--model", "regular", "--d", "20")
    assert code == 0, err
    assert [k for k in seen if k >= 17] == dropped
    doc = json.loads(out)
    assert doc["value"] == value and doc["seed_provenance"].startswith("whole_cliques_delta_x1")


# Each side of solve_phi's routing boundary, pinned byte for byte: the AL up
# to n = 2000 (its block-value winner printed as `blockspec`), the level
# search past it (the 14x jump in value on one problem is the two methods'
# gap), and the AL where an n x n DP would pass DP_CELL_CAP (K4 at n = 520)
# or the DP's width cap (K7), whose seeds all fit the compiled block homs;
# K7 past n = 2000 takes the level search.
BOUNDARY_SOLVES = {
    "al_at_n_2000": (
        ("--graph", "cycle:3", "--t", "1.3", "--p", "0.05", "--n", "2000"),
        '{"blockspec": {"sizes": [2000], "values": [[0.054596934302975964]]}, '
        '"ensemble_residual": 0.0, "iterations": 510, "normalized": 0.014430930862893446, '
        '"notes": [], "residuals": [9.197433978869185e-07], '
        '"seed_provenance": "constant", "value": 432.31205323396244}\n'),
    "level_search_at_n_2001": (
        ("--graph", "cycle:3", "--t", "1.3", "--p", "0.05", "--n", "2001"),
        '{"blockspec": {"sizes": [1, 2000], "values": [[1.0, 1.0], [1.0, 0.05]]}, '
        '"ensemble_residual": 0.0, "iterations": 43, "normalized": 0.19980014990006242, '
        '"notes": ["block-parameterized search: witness is a BlockSpec"], "residuals": [0.0], '
        '"seed_provenance": "block_search", "value": 5991.464547107982}\n'),
    "al_past_dp_cap": (
        ("--graph", "clique:4", "--t", "1.3", "--n", "520", "--p", "0.1"),
        '{"blockspec": {"sizes": [520], "values": [[0.1046712897252061]]}, '
        '"ensemble_residual": 0.0, "iterations": 210, "normalized": 0.02591831961921985, '
        '"notes": [], "residuals": [8.079572895169918e-07], '
        '"seed_provenance": "constant", "value": 16.137238480037375}\n'),
    "al_past_dp_width_cap_at_n_2000": (
        ("--graph", "clique:7", "--t", "1.3", "--n", "2000", "--p", "0.3"),
        '{"blockspec": {"sizes": [2000], "values": [[0.3039236535633735]]}, '
        '"ensemble_residual": 0.0, "iterations": 238, "normalized": 0.020819325511415222, '
        '"notes": [], "residuals": [6.369511906800795e-07], '
        '"seed_provenance": "constant", "value": 73.0921694159664}\n'),
    "level_search_past_dp_width_cap": (
        ("--graph", "clique:7", "--t", "1.5", "--n", "3000", "--p", "0.3"),
        '{"blockspec": {"sizes": [73, 2927], "values": [[1.0, 0.3], [0.3, 0.3]]}, '
        '"ensemble_residual": 0.0, "iterations": 21, "normalized": 0.4005486968449933, '
        '"notes": ["block-parameterized search: witness is a BlockSpec"], "residuals": [0.0], '
        '"seed_provenance": "block_search", "value": 3164.04052976856}\n'),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_SOLVES))
def test_solve_routing_boundaries_keep_their_stdout(case, capsys):
    argv, stdout = BOUNDARY_SOLVES[case]
    code, out, err = run_main(capsys, "solve", *argv)
    assert code == 0, err
    assert out == stdout


def test_solve_answers_alike_across_the_old_dp_boundaries(capsys):
    # K4 at n = 519 and 520 and K5 at n = 108 and 109 lie on either side of
    # DP_CELL_CAP; the level search answered past it, 11x higher for K4, and
    # not at all for K5
    values = []
    for argv in ("--graph clique:4 --t 1.3 --n 519 --p 0.1", "--graph clique:4 --t 1.3 --n 520 --p 0.1",
                 "--graph clique:5 --t 2 --n 108 --p 0.1", "--graph clique:5 --t 2 --n 109 --p 0.1"):
        code, out, err = run_main(capsys, "solve", *argv.split())
        assert code == 0, err
        values.append(json.loads(out)["value"])
    assert values[1] == pytest.approx(values[0], rel=0.01)


def test_pattern_past_the_dp_width_cap_gets_the_al_answer(capsys):
    # K7 at n = 2000 exited 3 on the level search's refusal (no ladder clique
    # reaches 7 vertices at n p^3 = 2); the AL's seeds all fit the compiled
    # block homs, and its constant seed meets t
    code, out, err = run_main(capsys, "solve", "--graph", "clique:7", "--t", "1.3",
                              "--n", "2000", "--p", "0.1")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["seed_provenance"] == "constant" and doc["residuals"][0] <= 1e-6


def test_solve_matrix_out_on_the_level_search(tmp_path, capsys):
    # the level search's BlockSpec witness, here the fallback's, is written
    # materialized
    path = tmp_path / "x.csv"
    argv = "--graph cycle:5 --t 4 --n 60 --model regular --d 6".split()
    code, stdout, err = run_main(capsys, "solve", *argv)
    assert code == 0, err
    code, out, err = run_main(capsys, "solve", *argv, "--matrix-out", path)
    assert code == 0, err
    doc = json.loads(out)
    assert doc.pop("matrix_out") == str(path)
    assert doc == json.loads(stdout) and doc["seed_provenance"] == "block_search"
    x = np.loadtxt(path, delimiter=",")
    assert x.shape == (60, 60)
    assert 0.5 * rates.entropy_matrix(x, 0.1) == pytest.approx(doc["value"], rel=1e-12)


# solves whose AL runs all end infeasible while the level search meets t,
# with its value, its evaluations and the AL's outer iterations: the x1
# row-sum cycle seed reaches 3.9977 < 4 by integrality, and no higher rung
# fits in n/2
LEVEL_SEARCH_FALLBACKS = [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in [
    ("--graph cycle:5 --t 4 --n 60 --model regular --d 6", 273.22183956797517, 10, 60),
    ("--graph cycle:3 --t 4 --n 60 --model uniform --m 531", 736.0628622927244, 25, 510),
    ("--graph cycle:3 --t 4 --n 120 --model regular --d 12", 1016.2668857615605, 11, 60),
]]


@pytest.mark.parametrize("argv, value, evaluations, al", LEVEL_SEARCH_FALLBACKS)
def test_solve_takes_the_level_search_answer_where_no_al_run_is_feasible(argv, value, evaluations,
                                                                         al, capsys):
    # these exited 3, "no feasible point found within budget from any seed";
    # `iterations` counts the AL's outer iterations with the evaluations
    code, out, err = run_main(capsys, "solve", *argv.split())
    assert code == 0, err
    doc = json.loads(out)
    check_schema(doc, "solve")
    assert doc["seed_provenance"] == "block_search" and "blockspec" in doc
    assert doc["value"] == pytest.approx(value, rel=1e-12)
    assert doc["residuals"] == [0.0] and doc["ensemble_residual"] == 0.0
    assert doc["iterations"] == evaluations + al
    assert doc["notes"] == ["block-parameterized search: witness is a BlockSpec",
                            f"fallback: the AL's {al} outer iterations kept no feasible point"]


def test_solve_with_no_feasible_run_and_no_feasible_rung_exits_3(capsys):
    # K5 on uniform(120, 357): no AL run keeps a feasible point, and the
    # level search it falls back on finds none on its ladder, whose clique
    # rung rounds below 2 vertices
    argv = "--graph clique:5 --t 1.3 --n 120 --model uniform --m 357".split()
    code, out, err = run_main(capsys, "solve", *argv)
    assert (code, out) == (3, "")
    assert err == "error: no feasible block construction found on the ladder\n"


@pytest.mark.parametrize("cycle", ["cycle:11", "cycle:12"])
def test_long_cycle_level_search_ends_without_compiling(cycle):
    # no AL run keeps a feasible point, and the level search measures its
    # ladder specs past the compile cap on the DP of their 40 x 40 blow-ups
    # (C11 took 46 s, C12 did not end, while they compiled every partition)
    start = time.perf_counter()
    proc = run_cli("solve", "--graph", cycle, "--t", "1.3", "--n", "40", "--model", "regular",
                   "--d", "12")
    assert time.perf_counter() - start < 5
    assert proc.returncode == 3 and "Traceback" not in proc.stderr
    assert proc.stderr == "error: no feasible block construction found on the ladder\n"


def test_solve_seed_past_the_compile_cap_prints_its_blockspec(capsys):
    # the x1 cycle-blocks seed of C6 has 8 blocks, past 8^6 > COMPILE_CAP:
    # it runs on its own block values, with the DP's hom values, and wins as
    # its BlockSpec where it used to win as an n x n matrix.  Its witness
    # meets t
    code, out, err = run_main(capsys, "solve", "--model", "regular", "--graph", "cycle:6",
                              "--t", "8", "--n", "60", "--d", "2")
    assert code == 0, err
    doc = json.loads(out)
    check_schema(doc, "solve")
    assert doc["seed_provenance"] == "cycle_blocks_delta_x1"
    assert doc["blockspec"]["sizes"] == [3] * 7 + [39]
    assert doc["value"] == 107.04555607179621 and doc["iterations"] == 42
    assert doc["residuals"] == [0.0] and doc["ensemble_residual"] <= 1e-10


def test_solve_on_a_long_cycle_ends():
    # C12 has 580,317 independent-group partitions: enumerating them, to
    # count the complete graph or to compile 2-block seeds, did not end in
    # 120 s.  The complete graph's count and the compile's placements now
    # come from the partitions' counts, and no seed of C12 fits the compile,
    # so each runs alone on the DP of its blow-up
    start = time.perf_counter()
    proc = run_cli("solve", "--graph", "cycle:12", "--t", "1.3", "--n", "30", "--p", "0.3")
    assert time.perf_counter() - start < 10.0
    assert proc.returncode in (0, 3), proc.stderr
    if proc.returncode == 0:
        doc = json.loads(proc.stdout)
        check_schema(doc, "solve")
        assert doc["residuals"][0] <= 1e-6


BLOCK_MODEL = ("--model", "block", "--alpha", "0.5,0.5", "--kernel", "[[2,1],[1,0.5]]",
               "--p", "0.05")


def test_block_model_solve_past_dense_cap_runs_the_al(capsys):
    # past n = 2000 a block-model base exited 1: the level search plants on
    # a constant-p background; the AL runs on the block base's values
    code, out, err = run_main(capsys, "solve", *BLOCK_MODEL, "--n", "2001",
                              "--graph", "cycle:3", "--t", "1.5")
    assert code == 0, err
    doc = json.loads(out)
    check_schema(doc, "solve")
    assert doc["blockspec"]["sizes"] == [1001, 1000] and doc["residuals"][0] <= 1e-6


@pytest.mark.parametrize("argv", ["--n 520 --graph clique:4", "--n 600 --graph clique:7"])
def test_block_model_solve_past_the_dp_caps_runs_the_al(argv, capsys):
    # these exited 3, "block-model base: its hom DP passes the cap" (K4 past
    # DP_CELL_CAP, K7 past the DP's width cap); their seeds all fit the
    # compiled block homs
    code, out, err = run_main(capsys, "solve", *BLOCK_MODEL, *argv.split(), "--t", "1.5")
    assert code == 0, err
    doc = json.loads(out)
    check_schema(doc, "solve")
    assert "blockspec" in doc and doc["residuals"][0] <= 1e-6


@pytest.mark.parametrize("argv, bound", [
    ("--t 1.5 --model uniform --m 434", 0.908),
    ("--t 1e9 --p 0.3", 33.4),
    ("--t 1.5 --model regular --d 28", 1.110),
])
def test_solve_target_past_the_complete_graph_exits_1(argv, bound, monkeypatch, capsys):
    # no matrix's count passes J - I's; these ran every seed and the level
    # search, then exited 3
    def no_seed(*_a, **_k):
        raise AssertionError("a seed was built")

    monkeypatch.setattr(solver, "default_seeds", no_seed)
    code, out, err = run_main(capsys, "solve", "--graph", "cycle:3", "--n", "30", *argv.split())
    assert code == 1 and out == ""
    assert "complete graph K_30" in err
    assert float(err.split(" is past ")[1].split(",")[0]) == pytest.approx(bound, rel=1e-3)


@pytest.mark.parametrize("argv, code", [
    ("--t 1.2 --p 1e-300", 1),
    ("--t 0.9 --p 1e-300", 1),
    ("--t 1.2 --model block --alpha 1 --kernel [[1]] --p 1e-300", 1),
    ("--t 1.2 --p 1e-108", 1),
    ("--t 1.2 --p 1e-107", 1),
    ("--t 1.2 --p 1e-103", 1),
    ("--t 1.2 --p 1e-102", 3),
])
def test_solve_p_whose_power_underflows_exits_1(argv, code, capsys):
    # every normalized count divides by p^3, which underflows to 0.0 from
    # p = 1e-108: these ended in a ZeroDivisionError traceback.  From 1e-103
    # to 1e-107 p^3 is subnormal, and the solve ran every seed on values that
    # overflowed (numpy's RuntimeWarning) before it exited 3.  At 1e-102 p^3
    # is a normal float: the solve runs, without a warning, and exits 3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, out, err = run_main(capsys, "solve", "--n", "6", "--graph", "cycle:3",
                                 *argv.split())
    assert got == code and out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 1:
        assert f"p = {argv.split()[-1]} is too small: p ** 3" in err
    else:
        assert "no feasible block construction found on the ladder" in err


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


DEGENERATE_MODELS = ("uniform --n 10 --m 45", "uniform --n 10 --m 0", "uniform --n 60 --m 1770",
                     "uniform --n 1 --m 0", "er --n 10 --p 1")


@pytest.mark.parametrize("sub, model", [(sub, model) for sub in ("solve", "tail-mc")
                                        for model in DEGENERATE_MODELS]
                         + [("tail-is", "er --n 12 --p 1")])
def test_edge_density_zero_or_one_exits_1_before_any_seed_or_draw(sub, model, smoke_files,
                                                                   monkeypatch, capsys):
    # every pair an edge, or none: no p to normalize counts at.  The refusal
    # names the flag and comes before any solver seed or Monte Carlo draw
    # (before, tail-mc drew its first chunk and then failed on p = 1, and one
    # vertex ended in a ZeroDivisionError)
    from uptail import ensembles, solver

    def no_work(*_a, **_k):
        raise AssertionError("a seed or a draw ran")

    for owner, name in ((solver, "default_seeds"), (ensembles, "_draw_bits")):
        monkeypatch.setattr(owner, name, no_work)
    argv = {"solve": ["solve", "--t", "1.3"], "tail-mc": ["tail-mc", "--t", "1.3", "--samples", "50"],
            "tail-is": ["tail-is", "--t", "1.3", "--samples", "50",
                        "--tilt-file", str(smoke_files["tilt_csv"])]}[sub]
    model = ["--model"] + model.split()
    code, out, err = run_main(capsys, *argv, "--graph", "cycle:3", *model)
    assert code == 1 and out == ""
    assert model[-2] in err and "pair is an edge" in err


@pytest.mark.parametrize("model", [m for m in DEGENERATE_MODELS if "--n 10" in m])
def test_sample_still_draws_edge_density_zero_or_one(model, capsys):
    code, out, _err = run_main(capsys, "sample", "--model", *model.split())
    assert code == 0 and json.loads(out)["edge_count"] == (0 if model.endswith("--m 0") else 45)


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


@pytest.mark.parametrize("argv, message", [
    (("--n", "100", "--p", "0"), "p must be in (0,1)"),
    (("--n", "100", "--p", "1.5"), "p must be in (0,1)"),
    (("--n", "0", "--p", "0.1"), "n must be >= 1"),
    (("--n", "-5", "--p", "0.1"), "n must be >= 1"),
    (("--n", "100"), "--n and --p together"),
    (("--p", "0.1"), "--n and --p together"),
])
def test_rate_a_np_flags_checked_not_dropped(argv, message, capsys):
    # a_np needs both flags, each in range; none is silently dropped
    code, out, err = run_main(capsys, "rate", "--graph", "cycle:3", "--delta", "1", *argv)
    assert code == 1 and message in err and out == ""


# ---------------------------------------------------------------------------
# one rate scale: under the regular ensemble a_{n,p} and the row-sum ladder
# take the 2-core, so a pendant tree changes nothing
# ---------------------------------------------------------------------------

PENDANT_TRIANGLE = "0 1\n0 2\n1 2\n2 3"   # the triangle with a pendant edge


def test_rate_regular_a_np_uses_two_core(capsys):
    docs = []
    for pattern in (PENDANT_TRIANGLE, "cycle:3"):
        code, out, _err = run_main(capsys, "rate", "--model", "regular", "--delta", "1",
                                   "--n", "1000", "--p", "0.01", "--graph", pattern)
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0] == docs[1]
    assert docs[0]["a_np"] == 460.51701859880916
    # G(n,p) keeps the pattern's own Delta
    code, out, _err = run_main(capsys, "rate", "--delta", "1", "--n", "1000", "--p", "0.01",
                               "--graph", PENDANT_TRIANGLE)
    assert code == 0 and json.loads(out)["a_np"] == pytest.approx(4.605170185988092)


def test_tail_mc_regular_pendant_tree_prints_as_its_core(capsys):
    outs = []
    for pattern in (PENDANT_TRIANGLE, "cycle:3"):
        code, out, _err = run_main(capsys, "tail-mc", "--model", "regular", "--n", "40",
                                   "--d", "4", "--t", "0.6", "--samples", "500", "--seed", "3",
                                   "--graph", pattern)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["hits"] == 82.0


def test_solve_regular_pendant_tree_solves_as_its_core(capsys):
    docs = []
    for pattern in (PENDANT_TRIANGLE, "cycle:3"):
        code, out, err = run_main(capsys, "solve", "--model", "regular", "--n", "60",
                                  "--d", "18", "--t", "1.3", "--graph", pattern)
        assert code == 0, err
        docs.append(json.loads(out))
    assert docs[0]["value"] == docs[1]["value"] == 229.54985821858654
    assert docs[0]["normalized"] == docs[1]["normalized"]
    assert docs[0]["residuals"] == [0.0]


def test_tail_is_pattern_without_threshold_exits_1(smoke_files, capsys):
    code, out, err = run_main(capsys, "tail-is", "--model", "er", "--n", "12", "--p", "0.3",
                              "--graph", "cycle:3", "--graph", "clique:4", "--t", "1.0",
                              "--samples", "100", "--tilt-file", smoke_files["matrix_csv"])
    assert code == 1 and "one threshold per pattern" in err and out == ""


def test_sample_planted_bad_tilt_exits_1(tmp_path, capsys):
    tilt = np.full((6, 6), 0.3)
    np.fill_diagonal(tilt, 0.0)
    tilt[0, 1] = tilt[1, 0] = 1.5
    tilt[2, 3] = tilt[3, 2] = np.nan
    path = tmp_path / "bad.csv"
    np.savetxt(path, tilt, delimiter=",")
    code, out, err = run_main(capsys, "sample", "--model", "planted", "--n", "6",
                              "--tilt-file", path, "--seed", "1")
    assert code == 1 and "finite and in [0, 1]" in err and out == ""


@pytest.mark.parametrize("argv", [
    "tail-is --model er --n 18 --p 0.35 --graph cycle:3 --t 1.5 --samples 100 "
    "--tilt-file {tilt} --tilt-blend 0.5",
    "sample --model planted --n 18 --tilt-file {tilt} --seed 1",
], ids=["tail-is", "sample"])
def test_json_tilt_of_another_n_exits_1(argv, tmp_path, capsys):
    # a 10-vertex BlockSpec tilt under --n 18: refused as a CSV tilt of that
    # shape is, where tail-is used to end in a broadcast traceback and sample
    # drew a 10-vertex graph
    tilt = tmp_path / "tilt.json"
    tilt.write_text(json.dumps({"sizes": [4, 6], "values": [[1, 0.3], [0.3, 0.3]]}))
    code, out, err = run_main(capsys, *argv.format(tilt=tilt).split())
    assert code == 1 and out == ""
    assert "tilt matrix shape (10, 10) does not match n=18" in err


@pytest.mark.parametrize("argv", [
    "rate --graph cycle:3 --delta 1 --delta 5",
    "construct --type cycle-blocks --n 200 --d 20 --delta 1 --delta 2 --l 3",
])
def test_repeated_delta_exits_1(argv, capsys):
    code, out, err = run_main(capsys, *argv.split())
    assert code == 1 and "one --delta" in err and out == ""


def test_joint_rate_still_takes_several_deltas(capsys):
    code, out, _err = run_main(capsys, "joint-rate", "--graph", "cycle:3", "--graph", "star:2",
                               "--delta", "10", "--delta", "1")
    assert code == 0 and json.loads(out)["deltas"] == [10.0, 1.0]


# ---------------------------------------------------------------------------
# one event per model: the ensemble alone sets the unit of --t and the base
# ---------------------------------------------------------------------------

BLOCK_B = ("--model block --n 30 --p 0.2 --alpha 0.5,0.5 --kernel [[2,0.5],[0.5,2]] "
           "--graph cycle:3 --t 1.0 --samples 2000 --seed 1").split()


def _block_b_hits_on_stream():
    """Samples of the stream (seed 1, 0) with hom(K3, G) >= b_H n^3 p^3,
    counted with the trace of A^3; b_H(K3) = 2.375 under BLOCK_B."""
    from uptail import ensembles, graphs, rates
    params = rates.BlockModelParams((0.5, 0.5), ((2.0, 0.5), (0.5, 2.0)), 0.2)
    spec = ensembles.block_model(30, params)
    assert rates.b_h(graphs.clique(3), params) == 2.375
    rng, hits = ensembles.rng_stream(1, 0), 0
    for b in ensembles._chunk_sizes(spec, 2000):
        a = ensembles._draw_stack(spec, b, rng).astype(float)
        hom = np.einsum("bij,bjk,bki->b", a, a, a)
        hits += int((hom >= 2.375 * 30 ** 3 * 0.2 ** 3).sum())
    return spec, hits


def test_block_tail_estimators_count_hom_above_t_times_b_h(tmp_path, capsys):
    spec, hits = _block_b_hits_on_stream()
    assert hits != 1979  # the count of hom >= 1.0, which both reported before
    code, out, err = run_main(capsys, "tail-mc", *BLOCK_B)
    assert code == 0, err
    assert json.loads(out)["hits"] == hits
    base = tmp_path / "base.csv"
    np.savetxt(base, spec.probability_matrix(), delimiter=",", fmt="%.17g")
    code, out, err = run_main(capsys, "tail-is", *BLOCK_B, "--tilt-file", base)
    assert code == 0, err
    assert json.loads(out)["point"] == hits / 2000  # tilt == base: every weight is 1


@pytest.mark.parametrize("argv,flag", [
    ("solve --model regular --n 60 --d 18 --p 0.1 --graph cycle:3 --t 1.3", "--p"),
    ("tail-mc --model regular --n 40 --d 4 --p 0.9 --graph cycle:3 --t 0.6 "
     "--samples 50 --seed 1", "--p"),
    ("solve --model uniform --n 40 --m 240 --p 0.3 --graph cycle:3 --t 1.2", "--p"),
    ("solve --model er --n 30 --p 0.3 --d 4 --graph cycle:3 --t 1.2", "--d"),
    ("sample --model planted --n 12 --tilt-file {tilt_csv} --p 0.3", "--p"),
    ("sample --model er --n 12 --p 0.3 --alpha 0.5,0.5", "--alpha"),
    ("tail-is --model er --n 12 --p 0.3 --kernel [[1]] --graph cycle:3 --t 1.0 "
     "--samples 50 --tilt-file {tilt_csv}", "--kernel"),
])
def test_flag_of_another_model_exits_1(argv, flag, smoke_files, capsys):
    code, out, err = run_main(capsys, *argv.format(**smoke_files).split())
    assert code == 1 and f"does not take {flag}" in err and out == ""


def test_missing_flag_is_named_before_a_foreign_one(capsys):
    code, _out, err = run_main(capsys, "solve", "--model", "regular", "--n", "60",
                               "--p", "0.3", "--graph", "cycle:3", "--t", "1.3")
    assert code == 1 and "needs --d" in err


@pytest.mark.parametrize("n,p", [(3000, "0.01"), (60, "0.3")])
def test_solve_target_at_most_one_is_constant_on_both_paths(n, p, capsys):
    code, out, err = run_main(capsys, "solve", "--graph", "cycle:3", "--t", "1.0",
                              "--n", n, "--p", p)
    assert code == 0, err
    doc = json.loads(out)
    check_schema(doc, "solve")
    assert (doc["value"], doc["seed_provenance"], doc["iterations"]) == (0.0, "constant", 0)
    assert doc["notes"] == ["targets <= 1: constant base accepted with O(1/n) slack"]


@pytest.mark.parametrize("n,d", [(60, 18), (3000, 30)])
def test_solve_regular_tree_above_one_exits_1(n, d, capsys):
    code, out, err = run_main(capsys, "solve", "--model", "regular", "--n", n, "--d", d,
                              "--graph", "star:3", "--t", "1.3")
    assert code == 1 and "pattern is a tree: its 2-core is empty" in err and out == ""


@pytest.mark.parametrize("argv", [
    "--graph path:1 --t 1.3 --n 40 --p 0.3",
    "--graph path:1 --t 1.3 --n 3000 --p 0.3",
    "--graph clique:1 --t 1.3 --n 30 --model uniform --m 100",
    "--graph clique:1 --t 1.3 --model block --n 30 --p 0.2 --alpha 0.5,0.5 --kernel [[2,1],[1,2]]",
    "--graph cycle:3 --graph path:1 --t 1.3 --t 1.3 --n 40 --p 0.3",
])
def test_solve_edgeless_pattern_above_one_exits_1(argv, capsys):
    # an edgeless pattern's normalized count is 1 on every matrix, so no
    # budget, seed or method can reach t > 1
    code, out, err = run_main(capsys, "solve", *argv.split())
    assert code == 1 and "pattern has no edges" in err and out == ""


def test_threads_above_the_cap_exits_1_without_a_thread(monkeypatch, capsys):
    import concurrent.futures

    def no_pool(*_a, **_k):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    code, out, err = run_main(capsys, "tail-mc", "--model", "er", "--n", "10", "--p", "0.3",
                              "--graph", "cycle:3", "--t", "1.2", "--samples", "100",
                              "--threads", "65")
    assert code == 1 and "--threads" in err and out == ""


@pytest.mark.parametrize("seed, reports", [(6, 0), (5, 2), (1, 3)])
def test_sampling_error_in_a_pool_chunk_surfaces_as_in_a_serial_run(seed, reports, monkeypatch,
                                                                      capsys):
    # regular(40, 6) at a retry budget of 4000, one graph per chunk: the first
    # chunk to run out of trials is chunk 0 (on the calling thread, while the
    # pool draws chunk 1), 2 (the calling thread) or 3 (the pool).  On 2 CPUs
    # the run prints what one CPU prints: the reports of the chunks before it,
    # none after, and the sampler's error, exit 3 (a budget error)
    from uptail import ensembles
    monkeypatch.setattr(ensembles, "CONFIG_MODEL_RETRY_CAP", 4000)
    monkeypatch.setattr(ensembles, "FIXED_CHUNK", 1)
    outs = []
    for cpus in (1, 2):
        monkeypatch.setattr(ensembles, "_available_cpus", lambda cpus=cpus: cpus)
        outs.append(run_main(capsys, "tail-mc", "--model", "regular", "--n", "40", "--d", "6",
                             "--graph", "cycle:3", "--t", "1.0", "--samples", "6",
                             "--seed", seed))
    assert outs[1] == outs[0]
    code, out, err = outs[0]
    lines = err.splitlines()
    assert code == 3 and out == "" and "Traceback" not in err
    assert [line.split(",")[0] for line in lines[:-1]] == \
        [f"progress: {k}/6 samples" for k in range(1, reports + 1)]
    assert lines[-1] == ("error: configuration model for n=40, d=6 drew no simple graph "
                         "in 4000 trials")


def _readme_commands():
    """The `uptail ...` lines of README.md, continuation lines joined and
    trailing comments dropped."""
    text = (REPO / "README.md").read_text().replace("\\\n", " ")
    return [line.split("#")[0].split()[1:] for line in text.splitlines()
            if line.startswith("uptail ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("UPTAIL_SEED", raising=False)
    (tmp_path / "g.txt").write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    tilt = np.full((18, 18), 0.35)
    tilt[:5, :5] = 0.9
    np.fill_diagonal(tilt, 0.0)
    np.savetxt(tmp_path / "tilt.csv", tilt, delimiter=",")
    for argv in commands:
        code, out, err = run_main(capsys, *argv)
        assert code == 0, (argv, err)
        json.loads(out)


# ---------------------------------------------------------------------------
# one-vertex independent-edge draws, and seeds outside 64 bits
# ---------------------------------------------------------------------------

ONE_VERTEX = {
    "er": ["--p", "0.35"],
    "block": ["--p", "0.2", "--alpha", "0.5,0.5", "--kernel", "[[2,1],[1,2]]"],
}


@pytest.mark.parametrize("model", list(ONE_VERTEX))
def test_one_vertex_draws_are_edgeless(model, capsys, monkeypatch):
    # C(1, 2) = 0 pairs: each graph reads no word and has no edge
    monkeypatch.delenv("UPTAIL_SEED", raising=False)
    code, out, err = run_main(capsys, "sample", "--model", model, "--n", "1",
                              *ONE_VERTEX[model])
    assert code == 0, err
    assert json.loads(out) == {"n": 1, "edge_count": 0, "edges": [], "seed": 0}
    code, out, err = run_main(capsys, "tail-mc", "--model", model, "--n", "1",
                              *ONE_VERTEX[model], "--graph", "cycle:3", "--t", "1.5",
                              "--samples", "10")
    assert code == 0, err
    doc = json.loads(out)
    check_schema(doc, "tail")
    assert (doc["hits"], doc["samples"], doc["zero_hits"]) == (0.0, 10, True)


SAMPLE_ER = ("sample", "--model", "er", "--n", "12", "--p", "0.4")


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "-9223372036854775809"])
def test_seed_outside_64_bits_exits_1(seed):
    for proc in (run_cli(*SAMPLE_ER, "--seed", seed), run_cli(*SAMPLE_ER, env_seed=seed),
                 run_cli("tail-mc", "--model", "er", "--n", "12", "--p", "0.4", "--graph",
                         "cycle:3", "--t", "1.2", "--samples", "50", "--seed", seed)):
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == f"error: seed must be an integer in [0, 2^64), got {seed}\n"


def test_env_seed_not_an_integer_exits_1():
    proc = run_cli(*SAMPLE_ER, env_seed="abc")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: UPTAIL_SEED must be an integer in [0, 2^64), got 'abc'\n"


def test_seeds_past_63_bits_draw_their_own_graphs():
    # 2^63, 2^63 + 1 and 2^64 - 1 once shared the streams of 2^63 or of 0
    outs = [run_cli(*SAMPLE_ER, "--seed", str(s)) for s in
            (0, 1 << 63, (1 << 63) + 1, (1 << 64) - 1)]
    assert all(p.returncode == 0 and p.stderr == "" for p in outs)
    assert len({json.dumps(json.loads(p.stdout)["edges"]) for p in outs}) == 4

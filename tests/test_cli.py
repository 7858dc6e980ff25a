import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kout
from kout import digraph, harness, outside, surjection
from kout.cli import main
from kout.digraph import MAGIC, deserialize


def run_cli(capsys, *argv) -> str:
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def test_constants_json(capsys):
    out = run_cli(capsys, "constants", "--k", "2", "--json")
    doc = json.loads(out)
    assert abs(doc["tau"] - 1.5936242600400399) < 1e-12
    assert "lambda" in doc and "sigma2" in doc


def test_constants_with_tol(capsys):
    out = run_cli(capsys, "constants", "--k", "3", "--tol", "1e-9", "--json")
    doc = json.loads(out)
    assert abs(doc["tau_at_tol"] - doc["tau"]) < 1e-9


def test_generate_json_stdout(capsys):
    out = run_cli(capsys, "generate", "--n", "5", "--k", "2", "--seed", "4")
    doc = json.loads(out)
    assert doc["n"] == 5 and doc["k"] == 2
    assert len(doc["endpoints"]) == 5


def test_generate_binary_and_analyze_roundtrip(tmp_path, capsys):
    path = tmp_path / "g.bin"
    run_cli(
        capsys, "generate", "--n", "12", "--k", "2", "--seed", "4",
        "--out", str(path), "--format", "bin",
    )
    data = path.read_bytes()
    assert data[: len(MAGIC)] == MAGIC
    g = deserialize(data)
    assert g.n == 12

    out = run_cli(capsys, "analyze", "--in", str(path), "--json")
    doc = json.loads(out)
    assert doc["n"] == 12
    assert doc["giant_size"] + doc["middle_size"] + doc["outside_size"] == 12
    assert "cycles" in doc and "max_full_spectrum" in doc


def test_generate_simple_flag(capsys):
    out = run_cli(
        capsys, "generate", "--n", "8", "--k", "2", "--seed", "1", "--simple"
    )
    doc = json.loads(out)
    for v, row in enumerate(doc["endpoints"]):
        assert v not in row
        assert len(set(row)) == len(row)


def test_analyze_fresh(capsys):
    out = run_cli(
        capsys, "analyze", "--n", "30", "--k", "2", "--seed", "3", "--json"
    )
    doc = json.loads(out)
    assert doc["core_size"] >= doc["giant_size"]


def test_analyze_plain_keys(capsys):
    out = run_cli(capsys, "analyze", "--n", "30", "--k", "2", "--seed", "3")
    assert [line.split(" = ")[0] for line in out.splitlines()] == [
        "n", "k", "giant_size", "core_size", "middle_size", "outside_size",
        "all_reach_giant", "total_cycles", "longest_cycle", "max_spectrum",
        "w", "d", "m", "max_full_spectrum",
    ]


def test_distance_cli(capsys):
    out = run_cli(
        capsys, "distance", "--n", "200", "--k", "2", "--pairs", "50",
        "--seed", "6", "--json",
    )
    doc = json.loads(out)
    assert doc["pairs_drawn"] == 50
    assert 0 <= doc["finite_count"] <= 50
    assert doc["ms_elapsed"] > 0


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--pairs", "0", "pairs must be >= 1"),
        ("--n", "0", "n must be >= 1"),
        ("--seed", "-1", "seed must be a 64-bit unsigned integer"),
    ],
)
def test_distance_invalid_value_exit_code(capsys, flag, value, message):
    argv = {"--n": "50", "--k": "2", "--pairs": "10", "--seed": "1"}
    argv[flag] = value
    code = main(["distance", *[x for item in argv.items() for x in item]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("invalid input: ") and message in err


def test_invalid_value_exit_code_other_subcommands(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for argv in (
        ["generate", "--n", "0", "--k", "2", "--seed", "1"],
        ["analyze", "--in", str(bad)],
        ["phase", "--n", "10", "--kmin", "3", "--kmax", "2", "--reps", "5", "--seed", "1"],
        ["montecarlo", "--n", "20", "--k", "2", "--reps", "0", "--seed", "1"],
        ["surjection", "--m", "5", "--k", "2", "--count", "0", "--seed", "1"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid input: "), argv


NEED_INPUT = "either --in FILE or all of --n/--k/--seed are required"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--n", "10"], NEED_INPUT),
        (["analyze", "--n", "10", "--k", "2"], NEED_INPUT),
        (
            ["generate", "--n", "10", "--k", "2", "--seed", "1", "--format", "bin"],
            "--format bin requires --out FILE",
        ),
    ],
    ids=["analyze-n", "analyze-n-k", "generate-bin-no-out"],
)
def test_flag_combination_exit_code(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {message}\n"


def test_phase_csv(capsys):
    out = run_cli(
        capsys, "phase", "--n", "40", "--kmin", "2", "--kmax", "3",
        "--reps", "10", "--seed", "5", "--csv",
    )
    lines = out.splitlines()
    assert lines[0] == "n,k,reps,frac_sc,frac_indeg0"
    assert len(lines) == 3


def test_surjection_cli(capsys):
    out = run_cli(
        capsys, "surjection", "--m", "3", "--k", "2", "--count", "5",
        "--seed", "2", "--json",
    )
    doc = json.loads(out)
    assert len(doc["mappings"]) == 5
    for mapping in doc["mappings"]:
        assert sorted(set(v for row in mapping for v in row)) == [0, 1, 2]


def test_oracle_cli(capsys):
    out = run_cli(capsys, "oracle", "enumerate", "--n", "2", "--k", "2", "--json")
    doc = json.loads(out)
    assert doc["total"] == 16
    out = run_cli(capsys, "oracle", "stirling", "--x", "6", "--y", "3")
    assert out.strip() == "90"
    out = run_cli(capsys, "oracle", "gw", "--mu", "0.1", "--k", "2", "--m", "3")
    assert "extinction" in out and "bound" in out


def test_montecarlo_csv(tmp_path, capsys):
    path = tmp_path / "mc.csv"
    out = run_cli(
        capsys, "montecarlo", "--n", "60", "--k", "2", "--reps", "4",
        "--seed", "9", "--out", str(path),
    )
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    doc = json.loads(out)  # summary on stdout
    assert doc["reps"] == 4


def test_montecarlo_io_error(tmp_path):
    code = main(
        [
            "montecarlo", "--n", "20", "--k", "2", "--reps", "2", "--seed", "1",
            "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"),
        ]
    )
    assert code == 3


def test_montecarlo_cap_error_exit_code(monkeypatch, capsys):
    # run the real replicates with a cycle cap of 0, which the first cycle trips
    real = harness.run_experiment

    def serial(config, workers=None):
        return real(config, workers=1)

    monkeypatch.setattr(outside, "CYCLE_CAP", 0)
    monkeypatch.setattr(harness, "run_experiment", serial)
    code = main(["montecarlo", "--n", "300", "--k", "2", "--reps", "20", "--seed", "2"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("cap exceeded: replicate ")


def test_montecarlo_invalid_kout_threads(monkeypatch, capsys):
    monkeypatch.setenv("KOUT_THREADS", "x")
    code = main(["montecarlo", "--n", "20", "--k", "2", "--reps", "2", "--seed", "1"])
    assert code == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "KOUT_THREADS='x'" in err


def _two_cycles_json(n1: int, n2: int) -> str:
    """k = 1 digraph: a cycle on [0, n1) and a cycle on [n1, n1 + n2)."""
    nxt = [(v + 1) % n1 for v in range(n1)] + [n1 + (v + 1) % n2 for v in range(n2)]
    return json.dumps({"n": n1 + n2, "k": 1, "endpoints": [[w] for w in nxt]})


@pytest.mark.parametrize(
    "argv, patch, code, label",
    [
        # the 80-cycle lies outside the giant and exceeds SCC_SIZE_CAP = 64
        (["analyze", "--in", "{tmp}/two_cycles.json"], None, 4, "cap exceeded"),
        (["analyze", "--in", "{tmp}/missing.json"], None, 3, "i/o error"),
        (
            ["generate", "--n", "5", "--k", "2", "--seed", "1", "--out", "{tmp}/no/x.json"],
            None, 3, "i/o error",
        ),
        # with seed 1 the first digraph misses the target core size / is not simple
        (
            ["surjection", "--m", "50", "--k", "2", "--count", "1", "--seed", "1"],
            (surjection, "RETRY_CAP"), 4, "cap exceeded",
        ),
        (
            ["generate", "--n", "20", "--k", "2", "--seed", "1", "--simple"],
            (digraph, "SIMPLE_ATTEMPT_CAP"), 4, "cap exceeded",
        ),
    ],
    ids=["analyze-cap", "analyze-missing", "generate-no-dir", "surjection-cap", "simple-cap"],
)
def test_failure_exit_code(tmp_path, monkeypatch, capsys, argv, patch, code, label):
    (tmp_path / "two_cycles.json").write_text(_two_cycles_json(120, 80))
    if patch is not None:
        monkeypatch.setattr(*patch, 1)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"{label}: ")


def test_entry_point_exit_code(tmp_path):
    src = str(Path(kout.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "kout", "analyze", "--in", str(tmp_path / "missing.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("i/o error: ")

import argparse
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import kout
from kout import cli, digraph, harness, outside, surjection
from kout.cli import main
from kout.digraph import MAGIC, deserialize


def run_cli(capsys, *argv) -> str:
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def _run_python(*args, **env) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout.  Its output pipes close only when
    every process holding them has exited, so a worker left running at exit
    shows as a timeout."""
    src = str(Path(kout.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, **env}, timeout=60,
    )


def test_constants_json(capsys):
    out = run_cli(capsys, "constants", "--k", "2", "--json")
    doc = json.loads(out)
    assert abs(doc["tau"] - 1.5936242600400399) < 1e-12
    assert "lambda" in doc and "sigma2" in doc


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
        # the pairs draw from stream + 1, so the last 64-bit stream leaves none
        ("--stream", str(2**64 - 1), f"draw from stream + 1), got {2**64 - 1}\n"),
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


@pytest.mark.parametrize(
    "endpoints, message",
    [
        ("[[0], [true]]", "endpoints must be integers"),
        ("[[0], [1, 2]]", "endpoints rows must hold k=1 entries"),
    ],
    ids=["bool-among-integers", "ragged-rows"],
)
def test_analyze_rejects_malformed_json_endpoints(tmp_path, capsys, endpoints, message):
    path = tmp_path / "g.json"
    path.write_text(f'{{"n": 2, "k": 1, "endpoints": {endpoints}}}')
    assert main(["analyze", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"invalid input: malformed digraph JSON: {message}")


def test_invalid_value_exit_code_other_subcommands(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for argv in (
        ["generate", "--n", "0", "--k", "2", "--seed", "1"],
        ["analyze", "--in", str(bad)],
        ["phase", "--n", "10", "--kmin", "3", "--kmax", "2", "--reps", "5", "--seed", "1"],
        ["montecarlo", "--n", "20", "--k", "2", "--reps", "0", "--seed", "1"],
        ["surjection", "--m", "5", "--k", "2", "--count", "0", "--seed", "1"],
        ["montecarlo", "--n", "0", "--k", "2", "--reps", "3", "--seed", "1"],
        ["montecarlo", "--n", "20", "--k", "0", "--reps", "3", "--seed", "1"],
        ["montecarlo", "--n", "20", "--k", "2", "--reps", "3", "--seed", "-1"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("invalid input: "), argv


@pytest.mark.parametrize("k, reps", [(1, 4), (2, 1)])
def test_montecarlo_without_out_refuses_a_run_with_no_summary(monkeypatch, capsys, k, reps):
    # the summary is the only output without --out, and it needs k >= 2 and
    # two replicates: refuse before the first replicate runs
    monkeypatch.setattr(harness, "run_experiment", mock.Mock(side_effect=AssertionError))
    argv = ["montecarlo", "--n", "2000", "--k", str(k), "--reps", str(reps), "--seed", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err == "invalid input: montecarlo without --out needs --k >= 2 and --reps >= 2\n"


def test_montecarlo_validate_violation_exit_code(monkeypatch, capsys):
    real = harness.outside_report

    def d_above_m(g, dec, collect):
        rep = real(g, dec, collect)
        rep.d = rep.m + 1
        return rep

    monkeypatch.setenv("KOUT_THREADS", "1")  # serial, so the patch applies
    monkeypatch.setattr(harness, "outside_report", d_above_m)
    argv = ["montecarlo", "--n", "100", "--k", "2", "--reps", "2", "--seed", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--validate"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("invariant violation: replicate 0: D=") and "exceeds M=" in err


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


def test_montecarlo_exits_with_its_worker_pool():
    argv = ["montecarlo", "--n", "200", "--k", "2", "--reps", "8", "--seed", "1"]
    proc = _run_python("-m", "kout", *argv, KOUT_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _run_python("-m", "kout", *argv, KOUT_THREADS="1").stdout


def test_montecarlo_cap_error_exits_with_its_worker_pool():
    # the cap error of test_montecarlo_cap_error_exit_code, raised in two workers
    code = (
        "import sys\n"
        "from kout import cli, outside\n"
        "outside.CYCLE_CAP = 0\n"
        "sys.exit(cli.main(['montecarlo', '--n', '300', '--k', '2', '--reps', '20',"
        " '--seed', '2']))\n"
    )
    proc = _run_python("-c", code, KOUT_THREADS="2")
    assert proc.returncode == 4
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("cap exceeded: replicate ")


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


def test_an_unexpected_error_ends_with_its_traceback(monkeypatch):
    # only the documented failures become exit codes; anything else propagates
    def broken(args):
        raise RuntimeError("not a documented failure")

    monkeypatch.setattr(cli, "_cmd_constants", broken)
    with pytest.raises(RuntimeError, match="not a documented failure"):
        main(["constants", "--k", "2"])


def test_json_hook_refuses_what_is_not_numpy():
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        cli._tolist(object())


def test_entry_point_exit_code(tmp_path):
    proc = _run_python("-m", "kout", "analyze", "--in", str(tmp_path / "missing.json"))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("i/o error: ")


def test_public_names_resolve():
    modules = [kout] + [
        importlib.import_module(f"kout.{info.name}")
        for info in pkgutil.iter_modules(kout.__path__)
        if info.name != "__main__"
    ]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
    assert {"outside", "harness", "constants"} <= {m.__name__.split(".")[-1] for m in modules}


def test_montecarlo_collect_choices_are_the_harness_groups():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    collect = next(a for a in sub.choices["montecarlo"]._actions if a.dest == "collect")
    assert set(collect.choices) == {"all"} | harness.COLLECT_GROUPS


def test_montecarlo_collect_spectra(tmp_path, capsys):
    path = tmp_path / "spectra.csv"
    run_cli(
        capsys, "montecarlo", "--n", "200", "--k", "2", "--reps", "3",
        "--seed", "4", "--collect", "spectra", "--out", str(path),
    )
    rows = harness.read_csv(str(path))
    assert len(rows) == 3
    for r in rows:
        assert None not in (r.max_spec_out, r.d, r.m, r.max_full_spec, r.spec0)
        assert r.cycles_total is None and r.w is None


def test_montecarlo_json_records(tmp_path, capsys):
    path = tmp_path / "mc.json"
    run_cli(
        capsys, "montecarlo", "--n", "60", "--k", "2", "--reps", "3",
        "--seed", "9", "--out", str(path), "--format", "json",
    )
    doc = json.loads(path.read_text())
    assert [r["replicate"] for r in doc] == [0, 1, 2]
    for r in doc:
        assert r["cycle_hist"] is not None
        assert sum(r["cycle_hist"].values()) == r["cycles_total"]


def test_phase_plain_lines(capsys):
    out = run_cli(
        capsys, "phase", "--n", "40", "--kmin", "2", "--kmax", "4",
        "--reps", "5", "--seed", "5",
    )
    lines = out.splitlines()
    assert len(lines) == 3
    for k, line in zip((2, 3, 4), lines):
        assert line.startswith(f"k={k}: strongly connected ")
        assert ", in-degree-0 present " in line


def test_generate_json_file_and_analyze_roundtrip(tmp_path, capsys):
    path = tmp_path / "g.json"
    argv = ("--n", "25", "--k", "2", "--seed", "4")
    assert run_cli(capsys, "generate", *argv, "--out", str(path)) == ""
    assert digraph.digraph_from_json(path.read_text()) == digraph.generate(
        25, 2, digraph.RngSpec(4)
    )
    from_file = json.loads(run_cli(capsys, "analyze", "--in", str(path), "--json"))
    fresh = json.loads(run_cli(capsys, "analyze", *argv, "--json"))
    assert from_file == fresh

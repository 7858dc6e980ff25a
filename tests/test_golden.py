"""Byte-for-byte comparison against the frozen records in ``tests/golden``.

Repeated-run and serial/parallel determinism (criterion 13) only compare the
current code with itself; these records catch a rewrite that changes any
statistic, and the CLI record catches a change to any subcommand's stdout.
See ``tests/golden/make_golden.py`` for how they were produced.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

import make_golden  # noqa: E402


def test_golden_montecarlo_csv():
    want = make_golden.CSV_PATH.read_bytes()
    assert make_golden.montecarlo_csv().encode() == want


def test_golden_replicate_n100000():
    want = make_golden.JSON_PATH.read_bytes()
    assert make_golden.replicate_json().encode() == want


def test_golden_replicate_n300000():
    # the view outside the giant has about 61,000 vertices, so every pair key
    # over it must stay 64-bit
    want = make_golden.JSON_300K_PATH.read_bytes()
    got = make_golden.replicate_json(300_000, make_golden.REPLICATE_300K_STREAM)
    assert got.encode() == want


def test_golden_cli_stdout():
    want = make_golden.CLI_PATH.read_bytes()
    assert make_golden.cli_stdout().encode() == want


def test_golden_surjection_draws():
    # which attempt is accepted, and the table it gives, for every (m, k, stream)
    want = make_golden.SURJECTION_PATH.read_bytes()
    assert make_golden.surjection_json().encode() == want


def test_golden_decompose_k1_k3():
    # the other records pin k = 2 only
    want = make_golden.DECOMPOSE_PATH.read_bytes()
    assert make_golden.decompose_json().encode() == want

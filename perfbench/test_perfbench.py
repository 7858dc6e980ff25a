"""Tests of the benchmark itself: tracing, the output checks, the contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from tracing import Tracer, self_times
from workloads import (
    WORKLOADS,
    Distance,
    MonteCarlo,
    Surjection,
    digest,
    full_replicate,
    record_problems,
    replicate_problems,
    replicate_summary,
)

kout = run.import_kout()
REFERENCE = json.loads((run.HERE / "reference.json").read_text())
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
OFF = Tracer(False)


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ["item", 0.0, 10.0, None, 0, {}],
        ["a", 1.0, 4.0, 0, 0, {}],
        ["b", 3.0, 6.0, 0, 0, {}],  # overlaps a: 1..6 covered once
        ["c", 3.5, 3.75, 2, 0, {}],
    ]
    assert self_times(spans) == [5.0, 3.0, 2.75, 0.25]


def test_tracer_records_parents_items_and_counts():
    tracer = Tracer(True)
    tracer.item = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.count(arcs=3)
            tracer.count(arcs=2)
        tracer.count(calls=1)
    (outer, inner) = tracer.spans
    assert outer[0] == "outer" and outer[3] is None and outer[5] == {"calls": 1}
    assert inner[3] == 0 and inner[4] == 7 and inner[5] == {"arcs": 5}
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    with OFF.span("x"):
        OFF.count(arcs=1)
    assert OFF.spans == []


def test_surjection_check_catches_a_perturbed_draw():
    w = Surjection(kout, 5, 1, REFERENCE)
    entry = w.entry(0)
    sample = w.call(entry, OFF)
    assert w.outcome(entry, sample, 0.1).problems == []

    moved = sample.mapping.copy()
    moved[0, 0] = (moved[0, 0] + 1) % w.m
    outcome = w.outcome(entry, dataclasses.replace(sample, mapping=moved), 0.1)
    assert outcome.failed == 1 and outcome.problems

    retried = dataclasses.replace(sample, retries=sample.retries + 1)
    assert w.outcome(entry, retried, 0.1).failed == 1

    collapsed = np.zeros_like(sample.mapping)
    problems = w.outcome(entry, dataclasses.replace(sample, mapping=collapsed), 0.1).problems
    assert "mapping is not surjective" in problems


def test_distance_check_catches_a_perturbed_batch():
    w = Distance(kout, 3, 1, REFERENCE)
    w.setup()
    entry = w.entry(0)
    sample = w.call(entry, OFF)
    assert w.outcome(entry, sample, 0.5).problems == []

    longer = dataclasses.replace(sample, distances=[d + 1 for d in sample.distances])
    assert w.outcome(entry, longer, 0.5).failed == 1

    miscounted = dataclasses.replace(sample, finite_count=sample.finite_count + 1)
    problems = w.outcome(entry, miscounted, 0.5).problems
    assert "finite_count differs from the number of distances" in problems


def test_montecarlo_check_catches_a_perturbed_record():
    w = MonteCarlo(kout, 2, 1, REFERENCE)
    entry = w.entry(0)
    config = w.config(entry)
    for index in range(2):
        record = kout.run_replicate(config, index)
        expected = REFERENCE[w.name][entry][index]
        assert record_problems(record, index, w.n, expected) == []
        bad = dataclasses.replace(record, d=record.m + 1)
        problems = record_problems(bad, index, w.n, expected)
        assert any("exceeds" in p for p in problems) and any("digest" in p for p in problems)
        assert record_problems(dataclasses.replace(record, q_size=record.q_size + 1),
                               index, w.n, expected)
        # the wall time is not part of the compared output
        assert record_problems(dataclasses.replace(record, ms_elapsed=1e9),
                               index, w.n, expected) == []


def test_replicate_check_catches_a_perturbed_replicate():
    g, dec, rep = full_replicate(kout, 3000, kout.RngSpec(11, 0), OFF)
    expected = digest(replicate_summary(g.n, dec, rep))
    assert replicate_problems(g.n, dec, rep, expected) == []

    short = dataclasses.replace(rep, m=rep.d - 1)
    assert "digest" in " ".join(replicate_problems(g.n, dec, short, expected))
    assert any("exceeds" in p for p in replicate_problems(g.n, dec, short, expected))

    outside = np.setdiff1d(np.arange(g.n), dec.one_in_core)[:1]
    grown = dataclasses.replace(dec, giant=np.union1d(dec.giant, outside))
    assert "giant not inside the one-in-core" in replicate_problems(g.n, grown, rep, expected)


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in BENCH["workloads"])
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "surjection-1e3",
         "--seed", "4", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "surjection-1e3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no kout sources" in proc.stderr

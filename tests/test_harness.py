import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import signal
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait

import numpy as np
import pytest

from kout import errors, harness, outside
from kout.constants import derive_constants
from kout.decompose import decompose
from kout.digraph import RngSpec, generate
from kout.errors import (
    ComponentCapError,
    CycleCapError,
    InvariantViolationError,
    SettingError,
)
from kout.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    ReplicateRecord,
    _validate_record,
    ks_statistic_normal,
    normal_cdf,
    poisson_pmf_folded,
    read_csv,
    run_experiment,
    run_replicate,
    summarize,
    tv_joint_to_poisson,
    tv_to_poisson,
    write_csv,
    default_workers,
    write_json,
)


def strip_ms(path) -> list[str]:
    # drop the wall-time column (the one timestamp-like field) before comparing
    out = []
    with open(path) as fh:
        for line in fh:
            out.append(",".join(line.rstrip("\n").split(",")[:-1]))
    return out


def test_replicate_deterministic():
    cfg = ExperimentConfig(n=50, k=2, reps=3, seed=42)
    a = run_replicate(cfg, 1)
    b = run_replicate(cfg, 1)
    a.ms_elapsed = b.ms_elapsed = 0.0
    assert a == b


def test_replicate_cross_field_invariants():
    cfg = ExperimentConfig(n=200, k=2, reps=1, seed=9, validate=True)
    for i in range(10):
        r = run_replicate(cfg, i)
        assert r.g_size <= r.q_size <= r.n
        assert r.mid_size == r.q_size - r.g_size
        assert r.simple == (r.loops == 0 and r.multis == 0)
        assert r.d <= r.m


def test_serial_parallel_identical(tmp_path):
    # 12 replicates on 2 workers run one per chunk; 37 on 2 and 53 on 3 run
    # chunks of reps // (workers * 8) = 2, the last one short
    for reps, workers in [(12, 2), (37, 2), (53, 3)]:
        cfg = ExperimentConfig(n=120, k=2, reps=reps, seed=7)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(cfg, workers=1), str(p1))
        write_csv(run_experiment(cfg, workers=workers), str(p2))
        assert strip_ms(p1) == strip_ms(p2)


def test_kout_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("KOUT_THREADS", "1")
    cfg = ExperimentConfig(n=60, k=2, reps=4, seed=3)
    a = run_experiment(cfg)
    monkeypatch.setenv("KOUT_THREADS", "2")
    b = run_experiment(cfg)
    for x, y in zip(a, b):
        x.ms_elapsed = y.ms_elapsed = 0.0
    assert a == b


def test_collect_modes():
    base = ExperimentConfig(n=60, k=2, reps=1, seed=11)
    core = ExperimentConfig(n=60, k=2, reps=1, seed=11, collect=frozenset({"core"}))
    full = run_replicate(base, 0)
    slim = run_replicate(core, 0)
    assert slim.q_size == full.q_size and slim.g_size == full.g_size
    assert slim.cycles_total is None and slim.w is None and slim.max_full_spec is None
    assert full.cycles_total is not None and full.w is not None


def test_csv_round_trip(tmp_path):
    cfg = ExperimentConfig(n=40, k=2, reps=5, seed=1)
    records = run_experiment(cfg, workers=1)
    path = tmp_path / "r.csv"
    write_csv(records, str(path))
    back = read_csv(str(path))
    assert len(back) == 5
    for orig, parsed in zip(records, back):
        for col in CSV_COLUMNS:
            a, b = getattr(orig, col), getattr(parsed, col)
            if col == "ms_elapsed":
                assert abs(a - b) < 1e-3
            else:
                assert a == b


def test_csv_header_only_for_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], str(path))
    lines = path.read_text().splitlines()
    assert lines == [",".join(CSV_COLUMNS)]


def test_csv_single_record_two_lines(tmp_path):
    cfg = ExperimentConfig(n=10, k=2, reps=1, seed=2)
    write_csv(run_experiment(cfg, workers=1), str(tmp_path / "one.csv"))
    assert len((tmp_path / "one.csv").read_text().splitlines()) == 2


def test_json_summary_schema(tmp_path):
    cfg = ExperimentConfig(n=300, k=2, reps=12, seed=5)
    records = run_experiment(cfg, workers=1)
    summary = summarize(records, derive_constants(2))
    path = tmp_path / "s.json"
    write_json(summary, str(path))
    doc = json.loads(path.read_text())
    assert set(doc) >= {
        "n",
        "k",
        "reps",
        "stats",
        "standardized",
        "ks_standardized_q",
        "tv_cycles_total",
        "tv_cycles_by_length",
        "ratios",
    }
    assert doc["reps"] == 12
    assert 0.0 <= doc["tv_cycles_total"] <= 1.0
    assert 0.0 <= doc["ks_standardized_q"] <= 1.0
    assert set(doc["standardized"]) == {"q_size", "g_size", "max_full_spec"}


def test_write_json_records(tmp_path):
    cfg = ExperimentConfig(n=30, k=2, reps=2, seed=5)
    records = run_experiment(cfg, workers=1)
    path = tmp_path / "r.json"
    write_json(records, str(path))
    doc = json.loads(path.read_text())
    assert len(doc) == 2 and doc[0]["replicate"] == 0
    assert isinstance(doc[0]["cycle_hist"], dict)


def test_summarize_needs_two_records():
    cfg = ExperimentConfig(n=20, k=2, reps=1, seed=1)
    with pytest.raises(ValueError):
        summarize(run_experiment(cfg, workers=1), derive_constants(2))


def test_summarize_degenerate_identical_records():
    r = ReplicateRecord(
        replicate=0, n=100, k=2, q_size=80, g_size=80, mid_size=0,
        all_reach=True, loops=1, multis=0, simple=False,
    )
    records = [r, r]
    c = derive_constants(2)
    rep = summarize(records, c)
    assert rep.standardized["q_size"]["variance"] == 0.0
    z = (80 - c.nu * 100) / math.sqrt(c.sigma2 * 100)
    expected_ks = max(normal_cdf(z), 1 - normal_cdf(z))
    assert abs(rep.ks_standardized_q - expected_ks) < 1e-12


def test_ks_self_test_standard_normal():
    z = np.random.default_rng(2718).standard_normal(1000)
    assert ks_statistic_normal(z) < 0.06  # 99% critical value is ~1.63/sqrt(1000)


def test_ks_detects_shift():
    z = np.random.default_rng(3).standard_normal(1000) + 1.0
    assert ks_statistic_normal(z) > 0.3


def test_poisson_pmf_folded_sums_to_one():
    pmf = poisson_pmf_folded(0.52, 8)
    assert abs(pmf.sum() - 1.0) < 1e-12
    assert abs(pmf[0] - math.exp(-0.52)) < 1e-12


def test_tv_to_poisson_of_exact_draws_small():
    rng = np.random.default_rng(11)
    counts = rng.poisson(0.52, size=4000)
    assert tv_to_poisson(counts, 0.52) < 0.03
    assert tv_to_poisson(counts, 5.0) > 0.5


def test_tv_joint():
    rng = np.random.default_rng(12)
    pairs = np.column_stack([rng.poisson(2.0, 4000), rng.poisson(1.0, 4000)])
    assert tv_joint_to_poisson(pairs, 2.0, 1.0) < 0.05
    assert tv_joint_to_poisson(pairs, 1.0, 2.0) > 0.2


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ks_statistic_normal([]), "need at least one sample"),
        (lambda: poisson_pmf_folded(1.0, 0), "need at least one bucket"),
        (lambda: tv_to_poisson([], 1.0), "need at least one observation"),
        (
            lambda: tv_joint_to_poisson([[1, 2, 3]], 1.0, 1.0),
            r"pairs must be a nonempty sequence of \(a, b\) counts",
        ),
    ],
    ids=["ks-empty", "pmf-no-bucket", "tv-empty", "tv-joint-not-pairs"],
)
def test_statistics_reject_empty_or_malformed_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_read_csv_rejects_a_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("replicate,seed\n0,1\n")
    with pytest.raises(ValueError, match=r"unexpected CSV header: \['replicate', 'seed'\]"):
        read_csv(str(path))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, k=2, reps=0, seed=1)
    with pytest.raises(ValueError):
        ExperimentConfig(n=10, k=2, reps=1, seed=1, collect=frozenset({"bogus"}))


@pytest.mark.parametrize(
    "n, k", [(3.0, 2), (True, 2), (3, 2.0), (3, False), (2.0, 1), (3, 1.5)]
)
def test_config_sizes_must_be_integers(n, k):
    # the first argument that is not an integer is the one reported
    bad, value = ("k", k) if type(n) is int else ("n", n)
    with pytest.raises(ValueError) as exc:
        ExperimentConfig(n=n, k=k, reps=1, seed=1)
    assert str(exc.value) == f"{bad} must be an integer, got {value!r}"
    # the same values as a replicate count and a seed
    with pytest.raises(ValueError) as exc:
        ExperimentConfig(n=3, k=2, reps=n, seed=k)
    want = {
        "n": f"reps must be an integer, got {value!r}",
        "k": f"seed must be a 64-bit unsigned integer, got {value!r}",
    }[bad]
    assert str(exc.value) == want
    assert ExperimentConfig(n=np.int64(3), k=np.int64(2), reps=1, seed=1).n == 3


def test_validate_mode_passes_on_healthy_runs():
    cfg = ExperimentConfig(n=150, k=2, reps=4, seed=13, validate=True)
    records = run_experiment(cfg, workers=1)
    assert len(records) == 4


def _replicate_with_cycle():
    """(digraph, decomposition, report, record) of the first replicate at
    n = 300, seed 2, with a cycle outside the giant."""
    cfg = ExperimentConfig(n=300, k=2, reps=1, seed=2)
    for i in range(50):
        g = generate(cfg.n, cfg.k, RngSpec(cfg.seed, i))
        dec = decompose(g)
        rep = outside.outside_report(g, dec)
        if rep.cycles:
            return g, dec, rep, run_replicate(cfg, i)
    raise AssertionError("no replicate with a cycle outside the giant")


@pytest.mark.parametrize("fault", ["giant", "sizes", "cycle", "distances"])
def test_each_validate_check_fires(fault):
    g, dec, rep, record = _replicate_with_cycle()
    cycles = rep.cycles
    _validate_record(g, dec, record, cycles)
    if fault == "giant":
        core = np.setdiff1d(dec.one_in_core, dec.giant[:1])
        dec = dataclasses.replace(dec, one_in_core=core)
        message = "giant not contained in one-in-core"
    elif fault == "sizes":
        record = dataclasses.replace(record, q_size=g.n + 1)
        message = "layer sizes out of order"
    elif fault == "cycle":
        stray = int(np.setdiff1d(np.arange(g.n), dec.one_in_core)[0])
        cycles = cycles + [[stray]]
        message = f"cycle [{stray}] leaves the one-in-core"
    else:
        record = dataclasses.replace(record, d=record.m + 1)
        message = f"D={record.m + 1} exceeds M={record.m}"
    with pytest.raises(InvariantViolationError) as exc:
        _validate_record(g, dec, record, cycles)
    assert str(exc.value) == message


def test_replicate_error_tagged(monkeypatch):
    # force a failure inside the replicate: cycle cap of 0 trips immediately
    monkeypatch.setattr(outside, "CYCLE_CAP", 0)
    cfg = ExperimentConfig(n=300, k=2, reps=1, seed=2)
    found = None
    for i in range(20):
        try:
            run_replicate(cfg, i)
        except CycleCapError as exc:
            found = (i, exc)
            break
    assert found is not None
    i, exc = found
    assert exc.replicate == i and exc.cap == 0
    assert str(exc).startswith(f"replicate {i}: ")


def test_cap_error_keeps_type_across_worker_pool(monkeypatch):
    # the forked workers inherit the patched cap.  Replicates 0-2 have no
    # cycle outside the giant; 3, the second of its chunk, is the first that
    # meets the cap, and later chunks fail too
    monkeypatch.setattr(outside, "CYCLE_CAP", 0)
    cfg = ExperimentConfig(n=300, k=2, reps=37, seed=1)
    with pytest.raises(CycleCapError) as serial:
        run_experiment(cfg, workers=1)
    assert serial.value.replicate == 3
    with pytest.raises(CycleCapError) as info:
        run_experiment(cfg, workers=2)
    assert info.value.replicate == serial.value.replicate
    assert str(info.value).startswith(f"replicate {info.value.replicate}: ")
    # the pool that raised runs the next batch
    pool = harness._pool
    core = dataclasses.replace(cfg, collect=frozenset({"core"}))
    assert _stripped(run_experiment(core, workers=2)) == _stripped(run_experiment(core, workers=1))
    assert harness._pool is pool


def _stripped(records) -> list[ReplicateRecord]:
    return [dataclasses.replace(r, ms_elapsed=0.0) for r in records]


def _pool_workers() -> dict:
    """pid -> process of every worker in the kept pool."""
    return dict(harness._pool._processes)


POOL_CFG = ExperimentConfig(n=120, k=2, reps=12, seed=7)


def test_pool_is_kept_across_calls():
    first = run_experiment(POOL_CFG, workers=2)
    pool, pids = harness._pool, set(_pool_workers())
    second = run_experiment(POOL_CFG, workers=2)
    assert harness._pool is pool and set(_pool_workers()) == pids and len(pids) == 2
    assert _stripped(first) == _stripped(second) == _stripped(run_experiment(POOL_CFG, workers=1))


def test_pool_is_replaced_when_the_worker_count_changes():
    run_experiment(POOL_CFG, workers=2)
    two = _pool_workers()
    run_experiment(POOL_CFG, workers=3)
    three = _pool_workers()
    assert len(three) == 3 and not set(three) & set(two)
    assert all(p.exitcode is not None for p in two.values())  # shut down and joined
    run_experiment(POOL_CFG, workers=2)
    assert len(_pool_workers()) == 2 and not set(_pool_workers()) & set(three)
    assert all(p.exitcode is not None for p in three.values())


def test_component_cap_patched_after_the_pool_exists(monkeypatch):
    # the workers forked before the patch hold the old cap, so the pool is replaced
    cfg = ExperimentConfig(n=300, k=2, reps=20, seed=2, collect=frozenset({"spectra"}))
    run_experiment(cfg, workers=2)
    monkeypatch.setattr(outside, "SCC_SIZE_CAP", 0)
    with pytest.raises(ComponentCapError) as info:
        run_experiment(cfg, workers=2)
    assert info.value.cap == 0 and info.value.replicate is not None


def test_replicate_error_cancels_the_chunks_not_started(monkeypatch):
    # replicate 0 meets a cycle, so the first of 16 chunks fails at once
    monkeypatch.setattr(outside, "CYCLE_CAP", 0)
    cfg = ExperimentConfig(n=300, k=2, reps=320, seed=2)
    core = ExperimentConfig(n=300, k=2, reps=40, seed=2, collect=frozenset({"core"}))
    run_experiment(core, workers=2)  # no cycle search, so the cap does not trip
    pool = harness._pool
    submitted = []
    submit = pool.submit

    def recording_submit(*args):
        submitted.append(submit(*args))
        return submitted[-1]

    monkeypatch.setattr(pool, "submit", recording_submit)
    with pytest.raises(CycleCapError) as info:
        run_experiment(cfg, workers=2)
    assert info.value.replicate == 0 and len(submitted) == 16
    # none is left waiting: each chunk ran, is running or was cancelled
    assert all(f.done() or f.running() for f in submitted)
    assert any(f.cancelled() for f in submitted)
    # the same pool runs the next batch at once
    assert _stripped(run_experiment(core, workers=2)) == _stripped(run_experiment(core, workers=1))
    assert harness._pool is pool
    # and with the cap restored, a new pool gives the serial records
    monkeypatch.undo()
    assert _stripped(run_experiment(cfg, workers=2)) == _stripped(run_experiment(cfg, workers=1))


def test_killed_worker_breaks_one_call_only():
    run_experiment(POOL_CFG, workers=2)
    pid, worker = next(iter(_pool_workers().items()))
    os.kill(pid, signal.SIGKILL)
    assert wait([worker.sentinel], timeout=30)
    with pytest.raises(BrokenProcessPool):
        run_experiment(POOL_CFG, workers=2)
    again = run_experiment(POOL_CFG, workers=2)
    assert pid not in _pool_workers()
    assert _stripped(again) == _stripped(run_experiment(POOL_CFG, workers=1))


def _run_in_child(expected, conn) -> None:
    got = _stripped(run_experiment(POOL_CFG, workers=2))
    conn.send(list(_pool_workers()))
    # returning lets multiprocessing exit the child, which joins its own workers
    assert got == expected


def test_forked_child_keeps_its_own_pool():
    expected = _stripped(run_experiment(POOL_CFG, workers=1))
    run_experiment(POOL_CFG, workers=2)
    pool, pids = harness._pool, set(_pool_workers())
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_run_in_child, args=(expected, writer))
    child.start()
    its_workers = reader.recv() if reader.poll(30) else []
    child.join(30)
    if child.exitcode is None:  # stuck at exit: stop it and its workers
        for pid in [child.pid, *its_workers]:
            os.kill(pid, signal.SIGKILL)
        child.join()
    assert child.exitcode == 0
    assert len(its_workers) == 2 and not set(its_workers) & pids
    assert harness._pool is pool and set(_pool_workers()) == pids
    assert _stripped(run_experiment(POOL_CFG, workers=2)) == expected


@pytest.mark.parametrize(
    "exc", [CycleCapError(7, replicate=3), ComponentCapError(70, 64, replicate=3)]
)
def test_cap_errors_pickle_with_their_fields(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc)
    assert back.replicate == 3 and back.cap == exc.cap


# constructor arguments of one instance of every exception class in kout.errors
ERROR_ARGS = {
    errors.DigraphFormatError: ("truncated header", 21),
    errors.RejectionLimitError: ("no simple digraph with n=3, k=2", 1000),
    errors.CycleCapError: (7, 3),
    errors.ComponentCapError: (70, 64, 3),
    errors.SettingError: ("KOUT_THREADS", "x", "a positive integer"),
    errors.InvariantViolationError: ("giant not closed",),
}


def test_error_args_cover_every_error_class():
    defined = {
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__ == errors.__name__
    }
    assert defined == set(ERROR_ARGS)


@pytest.mark.parametrize("cls", list(ERROR_ARGS), ids=lambda cls: cls.__name__)
def test_every_error_pickles_with_its_message_and_fields(cls):
    exc = cls(*ERROR_ARGS[cls])
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert vars(back) == vars(exc)


@pytest.mark.parametrize("value", ["x", "0", "-3", "2.5"])
def test_kout_threads_rejects_non_positive_integers(monkeypatch, value):
    monkeypatch.setenv("KOUT_THREADS", value)
    with pytest.raises(SettingError) as info:
        default_workers()
    assert "KOUT_THREADS" in str(info.value) and repr(value) in str(info.value)


def test_default_workers_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("KOUT_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert default_workers() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(12)), raising=False)
    assert default_workers() == 8
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_workers() == 8


def test_csv_round_trip_of_skipped_groups(tmp_path):
    cfg = ExperimentConfig(n=40, k=2, reps=3, seed=1, collect=frozenset({"core"}))
    records = run_experiment(cfg, workers=1)
    path = tmp_path / "core.csv"
    write_csv(records, str(path))
    rows = path.read_text().splitlines()[1:]
    skipped = [c for c in CSV_COLUMNS if getattr(records[0], c) is None]
    assert "cycles_total" in skipped and "w" in skipped and "max_full_spec" in skipped
    for row in rows:
        cells = dict(zip(CSV_COLUMNS, row.split(",")))
        assert all(cells[c] == "" for c in skipped)
    for orig, parsed in zip(records, read_csv(str(path))):
        assert all(getattr(parsed, c) is None for c in skipped)
        assert parsed.q_size == orig.q_size and parsed.simple == orig.simple


def test_replicate_component_cap_error_tagged(monkeypatch):
    # a cap of 0 trips on the first nontrivial component outside the giant
    monkeypatch.setattr(outside, "SCC_SIZE_CAP", 0)
    cfg = ExperimentConfig(n=300, k=2, reps=1, seed=2, collect=frozenset({"spectra"}))
    for i in range(20):
        try:
            run_replicate(cfg, i)
        except ComponentCapError as exc:
            assert exc.replicate == i and exc.cap == 0 and exc.size >= 1
            assert str(exc).startswith(f"replicate {i}: ")
            return
    pytest.fail("no replicate met a component outside the giant")


def test_replicate_wraps_unexpected_errors(monkeypatch):
    def broken(g):
        raise KeyError("boom")

    monkeypatch.setattr(harness, "decompose", broken)
    with pytest.raises(RuntimeError, match=r"^replicate 3: KeyError: 'boom'$") as exc:
        run_replicate(ExperimentConfig(n=20, k=2, reps=4, seed=1), 3)
    assert isinstance(exc.value.__cause__, KeyError)


def test_summarize_refuses_constants_for_another_k():
    records = run_experiment(ExperimentConfig(n=30, k=2, reps=2, seed=1), workers=1)
    with pytest.raises(ValueError, match="constants are for k=3, records have k=2"):
        summarize(records, derive_constants(3))

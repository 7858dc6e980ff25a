"""Monte Carlo experiment driver, summary statistics, and persistence.

One replicate = generate a digraph from ``(seed, replicate_index)``, decompose
it, and measure the requested statistic groups.  Replicates are pure functions
of the config and their index, so parallel and serial runs produce identical
record sets, and the CSV output is byte-stable apart from the wall-time
column.

Statistic groups:

    core        sizes of the layers, reachability flag, self-loop / multi-arc
                counts (always collected)
    cycles      elementary cycles outside the giant
    spectra     spectrum sizes, arc excess, eccentricities, longest path,
                full-digraph spectrum maxima
    distances   max distance into the giant
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from multiprocessing.util import Finalize

import numpy as np

from . import outside
from .constants import ModelConstants
from .decompose import decompose
from .digraph import RngSpec, _check_int, count_multi_pairs, count_self_loops, generate
from .errors import ComponentCapError, CycleCapError, InvariantViolationError, SettingError
from .outside import FULL_COLLECT, outside_report

__all__ = [
    "ExperimentConfig",
    "ReplicateRecord",
    "SummaryReport",
    "CSV_COLUMNS",
    "run_replicate",
    "run_experiment",
    "summarize",
    "write_csv",
    "read_csv",
    "write_json",
    "normal_cdf",
    "ks_statistic_normal",
    "poisson_pmf_folded",
    "tv_to_poisson",
    "tv_joint_to_poisson",
]

COLLECT_GROUPS = FULL_COLLECT | {"core"}

CSV_COLUMNS = (
    "replicate",
    "n",
    "k",
    "q_size",
    "g_size",
    "mid_size",
    "all_reach",
    "cycles_total",
    "cycles_len1",
    "cycles_len2",
    "cycles_len3plus",
    "disjoint",
    "longest_cycle",
    "max_spec_out",
    "w",
    "d",
    "m",
    "max_full_spec",
    "spec0",
    "loops",
    "multis",
    "simple",
    "ms_elapsed",
)

_BOOL_COLUMNS = {"all_reach", "disjoint", "simple"}


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    k: int
    reps: int
    seed: int
    collect: frozenset[str] = COLLECT_GROUPS
    validate: bool = False

    def __post_init__(self) -> None:
        _check_int("n", self.n, 1)
        _check_int("k", self.k, 1)
        _check_int("seed", self.seed, bits=64)
        _check_int("reps", self.reps, 1)
        unknown = self.collect - COLLECT_GROUPS
        if unknown:
            raise ValueError(f"unknown collect groups: {sorted(unknown)}")
        object.__setattr__(self, "collect", frozenset(self.collect) | {"core"})


@dataclass
class ReplicateRecord:
    """One replicate's statistics; None where the group was not collected."""

    replicate: int
    n: int
    k: int
    q_size: int
    g_size: int
    mid_size: int
    all_reach: bool
    loops: int
    multis: int
    simple: bool
    cycles_total: int | None = None
    cycles_len1: int | None = None
    cycles_len2: int | None = None
    cycles_len3plus: int | None = None
    disjoint: bool | None = None
    longest_cycle: int | None = None
    max_spec_out: int | None = None
    w: int | None = None
    d: int | None = None
    m: int | None = None
    max_full_spec: int | None = None
    spec0: int | None = None
    ms_elapsed: float = 0.0
    cycle_hist: dict[int, int] | None = None  # full histogram; not a CSV column


def run_replicate(config: ExperimentConfig, index: int) -> ReplicateRecord:
    """Deterministic given (config.seed, index); errors are tagged with the index."""
    try:
        return _run_replicate(config, index)
    except InvariantViolationError as exc:
        raise InvariantViolationError(f"replicate {index}: {exc}") from exc
    except CycleCapError as exc:
        raise CycleCapError(exc.cap, replicate=index) from exc
    except ComponentCapError as exc:
        raise ComponentCapError(exc.size, exc.cap, replicate=index) from exc
    except Exception as exc:
        raise RuntimeError(f"replicate {index}: {type(exc).__name__}: {exc}") from exc


def _run_replicate(config: ExperimentConfig, index: int) -> ReplicateRecord:
    t0 = time.perf_counter()
    g = generate(config.n, config.k, RngSpec(config.seed, index))
    loops = count_self_loops(g)
    multis = count_multi_pairs(g)
    dec = decompose(g)
    rep = outside_report(g, dec, collect=config.collect - {"core"})
    hist = rep.cycles_by_length
    record = ReplicateRecord(
        replicate=index,
        n=config.n,
        k=config.k,
        q_size=int(dec.one_in_core.size),
        g_size=int(dec.giant.size),
        mid_size=int(dec.one_in_core.size - dec.giant.size),
        all_reach=dec.all_reach_giant,
        loops=loops,
        multis=multis,
        simple=loops == 0 and multis == 0,
        cycles_total=rep.total_cycles,
        cycles_len1=hist.get(1, 0) if hist is not None else None,
        cycles_len2=hist.get(2, 0) if hist is not None else None,
        cycles_len3plus=(
            sum(v for length, v in hist.items() if length >= 3)
            if hist is not None
            else None
        ),
        disjoint=rep.vertex_disjoint,
        longest_cycle=rep.longest_cycle,
        max_spec_out=rep.max_spectrum,
        w=rep.w,
        d=rep.d,
        m=rep.m,
        max_full_spec=rep.max_full_spectrum,
        spec0=rep.spectrum_of_zero,
        cycle_hist=hist,
    )
    if config.validate:
        _validate_record(g, dec, record, rep.cycles)
    record.ms_elapsed = (time.perf_counter() - t0) * 1000.0
    return record


def _validate_record(g, dec, record: ReplicateRecord, cycles) -> None:
    in_core = np.zeros(g.n, dtype=bool)
    in_core[dec.one_in_core] = True
    if not in_core[dec.giant].all():
        raise InvariantViolationError("giant not contained in one-in-core")
    if not (record.g_size <= record.q_size <= g.n):
        raise InvariantViolationError("layer sizes out of order")
    if cycles is not None:
        for cyc in cycles:
            if not in_core[cyc].all():
                raise InvariantViolationError(f"cycle {cyc} leaves the one-in-core")
    if record.d is not None and record.m is not None and record.d > record.m:
        raise InvariantViolationError(f"D={record.d} exceeds M={record.m}")


def default_workers() -> int:
    """``KOUT_THREADS`` when set (a positive integer), else min(usable CPUs, 8):
    the CPUs this process may run on where the platform reports its affinity
    (``taskset``, a cpuset container), else the machine's CPU count."""
    env = os.environ.get("KOUT_THREADS")
    if env:
        if not env.strip().isdecimal() or int(env) < 1:
            raise SettingError("KOUT_THREADS", env, "a positive integer")
        return int(env)
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return min(usable, 8)


# The worker pool kept across run_experiment calls, the key it was forked
# under (the process that owns it, its size, the caps its workers inherited)
# and the finalizer that shuts it down.
_pool: ProcessPoolExecutor | None = None
_pool_key: tuple | None = None
_pool_shutdown: Finalize | None = None


def _kept_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_key, _pool_shutdown
    key = (os.getpid(), workers, outside.CYCLE_CAP, outside.SCC_SIZE_CAP)
    if key != _pool_key:
        if _pool_shutdown is not None:
            _pool_shutdown()  # a no-op in a forked child: the pool is its parent's
        _pool, _pool_key = ProcessPoolExecutor(max_workers=workers), key
        # concurrent.futures stops the workers at interpreter exit; a process
        # started by multiprocessing instead joins its children as it exits,
        # so this finalizer stops them then, ahead of the call queue's own
        # finalizer (priority 10), after which they could not be told to stop
        _pool_shutdown = Finalize(
            _pool, _pool.shutdown, kwargs={"cancel_futures": True}, exitpriority=20
        )
    return _pool


def _run_chunk(config: ExperimentConfig, indices: range) -> list[ReplicateRecord]:
    return [run_replicate(config, i) for i in indices]


def run_experiment(
    config: ExperimentConfig, workers: int | None = None
) -> list[ReplicateRecord]:
    """All replicates, ordered by index regardless of completion order.

    With more than one worker the replicates run in chunks on a process pool
    that lives for the process: later calls reuse its workers, and it is
    forked anew when the worker count, the process (a forked child) or
    ``outside.CYCLE_CAP`` / ``outside.SCC_SIZE_CAP`` change, so the workers
    always hold the caller's caps.  A replicate's error cancels the chunks
    that have not started; a broken pool is dropped, so the next call starts
    a new one.  The workers are joined at interpreter exit.
    """
    global _pool_key
    if workers is None:
        workers = default_workers()
    indices = range(config.reps)
    if workers <= 1 or config.reps == 1:
        return [run_replicate(config, i) for i in indices]
    chunk = max(1, config.reps // (workers * 8))
    futures = []
    try:
        pool = _kept_pool(workers)
        for start in indices[::chunk]:
            futures.append(pool.submit(_run_chunk, config, indices[start : start + chunk]))
        return [record for f in futures for record in f.result()]
    except BrokenProcessPool:
        _pool_key = None  # the next call replaces the pool
        raise
    finally:
        for f in futures:
            f.cancel()


# ---------------------------------------------------------------------------
# statistics


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def ks_statistic_normal(samples) -> float:
    """Exact sup distance between the empirical CDF and the standard normal."""
    z = np.sort(np.asarray(samples, dtype=float))
    nn = z.size
    if nn == 0:
        raise ValueError("need at least one sample")
    cdf = np.array([normal_cdf(v) for v in z])
    grid = np.arange(1, nn + 1) / nn
    return float(max((grid - cdf).max(), (cdf - (grid - 1.0 / nn)).max()))


def poisson_pmf_folded(mean: float, buckets: int) -> np.ndarray:
    """P(X = i) for i < buckets-1, with the whole upper tail folded into the
    last bucket, so the vector sums to 1."""
    if buckets < 1:
        raise ValueError("need at least one bucket")
    pmf = np.zeros(buckets)
    p = math.exp(-mean)
    for i in range(buckets - 1):
        pmf[i] = p
        p *= mean / (i + 1)
    pmf[buckets - 1] = max(0.0, 1.0 - pmf[: buckets - 1].sum())
    return pmf


def tv_to_poisson(counts, mean: float) -> float:
    """Total variation between an empirical count histogram and Poisson(mean),
    truncated at max(observed) + 10 with the tail mass in the last bucket."""
    counts = np.asarray(list(counts), dtype=np.int64)
    if counts.size == 0:
        raise ValueError("need at least one observation")
    return _tv(counts, poisson_pmf_folded(mean, int(counts.max()) + 10 + 1))


def tv_joint_to_poisson(pairs, mean_a: float, mean_b: float) -> float:
    """Total variation between empirical (a, b) counts and the product of two
    Poisson laws, each marginal truncated-and-folded as above."""
    arr = np.asarray(list(pairs), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError("pairs must be a nonempty sequence of (a, b) counts")
    ba = int(arr[:, 0].max()) + 10 + 1
    bb = int(arr[:, 1].max()) + 10 + 1
    theo = np.outer(poisson_pmf_folded(mean_a, ba), poisson_pmf_folded(mean_b, bb))
    return _tv(arr[:, 0] * bb + arr[:, 1], theo.ravel())


def _tv(samples: np.ndarray, pmf: np.ndarray) -> float:
    """Total variation between the histogram of ``samples``, integers in
    ``[0, pmf.size)``, and the law ``pmf``."""
    emp = np.bincount(samples, minlength=pmf.size) / samples.size
    return float(0.5 * np.abs(emp - pmf).sum())


# ---------------------------------------------------------------------------
# summary


@dataclass
class SummaryReport:
    """Aggregate comparison of one experiment against the exact constants."""

    n: int
    k: int
    reps: int
    stats: dict[str, dict[str, float]] = field(default_factory=dict)
    standardized: dict[str, dict[str, float]] = field(default_factory=dict)
    ks_standardized_q: float | None = None
    tv_cycles_total: float | None = None
    tv_cycles_by_length: dict[str, float] = field(default_factory=dict)
    ratios: dict[str, dict[str, float]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


_SUMMARY_FIELDS = (
    "q_size",
    "g_size",
    "mid_size",
    "max_full_spec",
    "max_spec_out",
    "cycles_total",
    "w",
    "d",
    "m",
    "loops",
    "multis",
)


def _values(records: list[ReplicateRecord], name: str) -> np.ndarray:
    vals = [getattr(r, name) for r in records]
    return np.array([v for v in vals if v is not None], dtype=float)


def summarize(
    records: list[ReplicateRecord], constants: ModelConstants
) -> SummaryReport:
    """Means/variances, CLT standardizations, Poisson TV distances, and the
    log-scale ratio statistics with their theoretical coefficients."""
    if len(records) < 2:
        raise ValueError("need at least 2 records to summarize")
    n, k = records[0].n, records[0].k
    if constants.k != k:
        raise ValueError(f"constants are for k={constants.k}, records have k={k}")
    rep = SummaryReport(n=n, k=k, reps=len(records))

    for name in _SUMMARY_FIELDS:
        vals = _values(records, name)
        if vals.size:
            rep.stats[name] = {
                "mean": float(vals.mean()),
                "variance": float(vals.var(ddof=1)) if vals.size > 1 else 0.0,
            }

    center = constants.nu * n
    scale = math.sqrt(constants.sigma2 * n)
    for name in ("q_size", "g_size", "max_full_spec"):
        vals = _values(records, name)
        if vals.size > 1:
            z = (vals - center) / scale
            rep.standardized[name] = {
                "mean": float(z.mean()),
                "variance": float(z.var(ddof=1)),
            }
    q = _values(records, "q_size")
    if q.size:
        rep.ks_standardized_q = ks_statistic_normal((q - center) / scale)

    cyc = _values(records, "cycles_total")
    if cyc.size:
        rep.tv_cycles_total = tv_to_poisson(
            cyc.astype(np.int64), constants.cycle_mean_total
        )
        kmu = k * constants.mu
        for length, name in ((1, "cycles_len1"), (2, "cycles_len2")):
            vals = _values(records, name)
            if vals.size:
                rep.tv_cycles_by_length[str(length)] = tv_to_poisson(
                    vals.astype(np.int64), kmu**length / length
                )

    log_n = math.log(n) if n > 1 else float("nan")
    loglog = math.log(math.log(n)) / math.log(k) if n > math.e else float("nan")
    for name, denom, theory in (
        ("max_spec_out", log_n, constants.spectrum_coeff),
        ("d", log_n, constants.path_coeff),
        ("m", log_n, constants.path_coeff),
        ("w", loglog, 1.0),
    ):
        vals = _values(records, name)
        if vals.size and math.isfinite(denom) and denom > 0:
            rep.ratios[name] = {
                "mean_ratio": float((vals / denom).mean()),
                "theory": theory,
            }
    return rep


# ---------------------------------------------------------------------------
# persistence


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def write_csv(records: list[ReplicateRecord], path: str) -> None:
    """Fixed column order; booleans as 0/1; skipped statistics as empty cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_cell(getattr(r, c)) for c in CSV_COLUMNS])


def read_csv(path: str) -> list[ReplicateRecord]:
    """Parse write_csv output back into records (the full cycle histogram is
    not a CSV column and comes back as None)."""
    out: list[ReplicateRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header: {header}")
        for row in reader:
            kwargs = {}
            for col, cell in zip(CSV_COLUMNS, row):
                if cell == "":
                    kwargs[col] = None
                elif col == "ms_elapsed":
                    kwargs[col] = float(cell)
                elif col in _BOOL_COLUMNS:
                    kwargs[col] = cell == "1"
                else:
                    kwargs[col] = int(cell)
            out.append(ReplicateRecord(**kwargs))
    return out


def write_json(payload, path: str) -> None:
    """Records list or a SummaryReport, as JSON."""
    if isinstance(payload, SummaryReport):
        doc = payload.as_dict()
    else:
        doc = [asdict(r) for r in payload]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

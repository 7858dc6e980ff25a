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
from dataclasses import asdict, dataclass, field
from itertools import repeat

import numpy as np

from .constants import ModelConstants
from .decompose import decompose
from .digraph import RngSpec, count_multi_pairs, count_self_loops, generate
from .errors import ComponentCapError, CycleCapError, InvariantViolationError, SettingError
from .outside import outside_report

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
    "chi_square_statistic",
]

COLLECT_GROUPS = frozenset({"core", "cycles", "spectra", "distances"})
DEFAULT_COLLECT = COLLECT_GROUPS

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
    collect: frozenset[str] = DEFAULT_COLLECT
    validate: bool = False

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
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
    core_set = set(dec.one_in_core.tolist())
    if not set(dec.giant.tolist()) <= core_set:
        raise InvariantViolationError("giant not contained in one-in-core")
    if not (record.g_size <= record.q_size <= g.n):
        raise InvariantViolationError("layer sizes out of order")
    if cycles is not None:
        for cyc in cycles:
            if not set(cyc) <= core_set:
                raise InvariantViolationError(f"cycle {cyc} leaves the one-in-core")
    if record.d is not None and record.m is not None and record.d > record.m:
        raise InvariantViolationError(f"D={record.d} exceeds M={record.m}")


def default_workers() -> int:
    """``KOUT_THREADS`` when set (a positive integer), else min(cpu count, 8)."""
    env = os.environ.get("KOUT_THREADS")
    if env:
        if not env.strip().isdecimal() or int(env) < 1:
            raise SettingError("KOUT_THREADS", env, "a positive integer")
        return int(env)
    return min(os.cpu_count() or 1, 8)


def run_experiment(
    config: ExperimentConfig, workers: int | None = None
) -> list[ReplicateRecord]:
    """All replicates, ordered by index regardless of completion order."""
    if workers is None:
        workers = default_workers()
    indices = range(config.reps)
    if workers <= 1 or config.reps == 1:
        return [run_replicate(config, i) for i in indices]
    chunk = max(1, config.reps // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_replicate, repeat(config), indices, chunksize=chunk))


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
    buckets = int(counts.max()) + 10 + 1
    emp = np.bincount(counts, minlength=buckets) / counts.size
    return float(0.5 * np.abs(emp - poisson_pmf_folded(mean, buckets)).sum())


def tv_joint_to_poisson(pairs, mean_a: float, mean_b: float) -> float:
    """Total variation between empirical (a, b) counts and the product of two
    Poisson laws, each marginal truncated-and-folded as above."""
    arr = np.asarray(list(pairs), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError("pairs must be a nonempty sequence of (a, b) counts")
    ba = int(arr[:, 0].max()) + 10 + 1
    bb = int(arr[:, 1].max()) + 10 + 1
    emp = np.zeros((ba, bb))
    for a, b in arr.tolist():
        emp[a, b] += 1.0
    emp /= arr.shape[0]
    theo = np.outer(poisson_pmf_folded(mean_a, ba), poisson_pmf_folded(mean_b, bb))
    return float(0.5 * np.abs(emp - theo).sum())


def chi_square_statistic(observed, expected) -> float:
    obs = np.asarray(list(observed), dtype=float)
    exp = np.asarray(list(expected), dtype=float)
    if obs.shape != exp.shape or (exp <= 0).any():
        raise ValueError("observed/expected must match and expected must be positive")
    return float(((obs - exp) ** 2 / exp).sum())


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


def _record_dict(r: ReplicateRecord) -> dict:
    d = asdict(r)
    if d["cycle_hist"] is not None:
        d["cycle_hist"] = {str(key): v for key, v in d["cycle_hist"].items()}
    return d


def write_json(payload, path: str) -> None:
    """Records list or a SummaryReport, as JSON."""
    if isinstance(payload, SummaryReport):
        doc = payload.as_dict()
    else:
        doc = [_record_dict(r) for r in payload]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

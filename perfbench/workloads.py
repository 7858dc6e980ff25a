"""The benchmark's four workloads: inputs, library calls, output checks and
the per-layer stage calls of the traced run.

Each workload is a closed loop with one client: the next item starts when the
previous one has returned.  Inputs come from a fixed pool per workload, and
the run's seed picks where in the pool the loop starts.  So the same seed
always gives the same inputs, and every input has the digest of its output
recorded in ``reference.json``.

The library is reached only through its public functions; ``kout`` is passed
in so that importing this module costs nothing before set-up is timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

import numpy as np

K = 2
BASE_SEED = 150406238

# Statistic columns of the montecarlo CSV, which are byte-stable apart from
# ms_elapsed; a record is compared on exactly these.
RECORD_FIELDS = (
    "replicate", "n", "k", "q_size", "g_size", "mid_size", "all_reach",
    "cycles_total", "cycles_len1", "cycles_len2", "cycles_len3plus", "disjoint",
    "longest_cycle", "max_spec_out", "w", "d", "m", "max_full_spec", "spec0",
    "loops", "multis", "simple",
)


def digest(payload) -> str:
    """Short content hash of JSON-able data or raw bytes."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload, sort_keys=True, default=_plain).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON-able: {type(value).__name__}")


def _array_digest(values) -> str:
    return digest(np.ascontiguousarray(np.asarray(values), dtype="<i8").tobytes())


@dataclass
class Outcome:
    """What one item did: operations checked, how many failed, units of work
    done (replicates, pairs or draws) and wall seconds per unit."""

    ops: int
    failed: int
    units: int
    latencies: list[float]
    problems: list[str]


class Workload:
    name = ""
    unit = ""  # one unit of work, the denominator of items_per_s
    rate_name = ""  # the name items_per_s goes by on this workload
    latency_sample = ""  # what one sample of item_s.p50 is
    pool = 1
    ops_per_item = 1
    trace_items = 1  # items whose counts the traced run reports
    stage_items = 1  # items followed by the per-layer stage calls

    def __init__(self, kout, seed: int, workers: int, reference: dict):
        self.kout = kout
        self.workers = workers
        self.reference = reference.get(self.name)
        self.start = random.Random(seed).randrange(self.pool)

    def entry(self, i: int) -> int:
        """Pool entry of item ``i``.  The untimed warm-up item, ``i = -1``, is
        entry 0 for every seed, so that set-up does the same work each run."""
        return 0 if i < 0 else (self.start + i) % self.pool

    def setup(self) -> None:
        """Build the inputs that every item shares."""

    def call(self, entry: int, tracer):
        raise NotImplementedError

    def record(self, out):
        """What reference.json holds for this output."""
        raise NotImplementedError

    def outcome(self, entry: int, out, wall: float) -> Outcome:
        raise NotImplementedError

    def stages(self, entry: int, out, tracer) -> None:
        """Call each layer's public functions once more on this item's input."""


# ---------------------------------------------------------------------------
# shared output summaries and checks


def replicate_summary(n: int, dec, rep) -> dict:
    """Every statistic of one full replicate, large arrays as digests."""
    return {
        "n": n,
        "components": int(np.max(dec.scc_id)) + 1,
        "giant": _array_digest(dec.giant),
        "one_in_core": _array_digest(dec.one_in_core),
        "all_reach": bool(dec.all_reach_giant),
        "cycles": rep.cycles,
        "disjoint": rep.vertex_disjoint,
        "longest_cycle": rep.longest_cycle,
        "spectra_sizes": _array_digest(rep.spectra_sizes),
        "max_spectrum": rep.max_spectrum,
        "arc_excess_violations": rep.arc_excess_violations,
        "w": rep.w,
        "w_unreachable": rep.w_unreachable,
        "d": rep.d,
        "m": rep.m,
        "max_full_spectrum": rep.max_full_spectrum,
        "spectrum_of_zero": rep.spectrum_of_zero,
    }


def replicate_problems(n: int, dec, rep, expected: str) -> list[str]:
    problems = []
    core = np.asarray(dec.one_in_core)
    if not np.isin(dec.giant, core).all():
        problems.append("giant not inside the one-in-core")
    if not len(dec.giant) <= len(core) <= n:
        problems.append("layer sizes out of order")
    if rep.d is not None and rep.m is not None and rep.d > rep.m:
        problems.append(f"D={rep.d} exceeds M={rep.m}")
    if any(not np.isin(c, core).all() for c in rep.cycles or ()):
        problems.append("a cycle leaves the one-in-core")
    if digest(replicate_summary(n, dec, rep)) != expected:
        problems.append("replicate digest differs from the reference")
    return problems


def record_digest(record) -> str:
    return digest([getattr(record, f) for f in RECORD_FIELDS])


def record_problems(record, index: int, n: int, expected: str) -> list[str]:
    r = record
    problems = []
    if r.replicate != index:
        problems.append(f"record {index} has replicate index {r.replicate}")
    if not (r.g_size <= r.q_size <= n and r.mid_size == r.q_size - r.g_size):
        problems.append(f"record {index}: layer sizes out of order")
    if r.d is not None and r.m is not None and r.d > r.m:
        problems.append(f"record {index}: D={r.d} exceeds M={r.m}")
    if record_digest(r) != expected:
        problems.append(f"record {index}: digest differs from the reference")
    return problems


def distance_digest(sample) -> str:
    return digest([sample.pairs_drawn, sample.finite_count, list(sample.distances)])


def distance_problems(sample, pairs: int, n: int, expected: str) -> list[str]:
    problems = []
    if sample.pairs_drawn != pairs:
        problems.append(f"{sample.pairs_drawn} pairs drawn, asked for {pairs}")
    if sample.finite_count != len(sample.distances):
        problems.append("finite_count differs from the number of distances")
    if any(not 0 <= d < n for d in sample.distances):
        problems.append("distance outside [0, n)")
    if distance_digest(sample) != expected:
        problems.append("distances differ from the reference")
    return problems


def surjection_digest(sample) -> str:
    mapping = np.ascontiguousarray(sample.mapping, dtype="<i8")
    return digest(mapping.tobytes() + str(sample.retries).encode())


def surjection_problems(sample, m: int, expected: str) -> list[str]:
    problems = []
    if np.shape(sample.mapping) != (m, K):
        problems.append(f"mapping shape {np.shape(sample.mapping)} != {(m, K)}")
    elif not sample.is_surjective():
        problems.append("mapping is not surjective")
    if surjection_digest(sample) != expected:
        problems.append("draw differs from the reference")
    return problems


# ---------------------------------------------------------------------------
# per-layer stage calls (traced run only); these recompute, so they give
# stage costs beside the totals, not shares of them


def decompose_stages(kout, g, tracer) -> None:
    with tracer.span("decompose.scc"):
        sccs = kout.scc(g)
        tracer.count(components=int(np.max(sccs[0])) + 1)
    with tracer.span("decompose.condense"):
        kout.condense(g, sccs)
    with tracer.span("decompose.one_in_core"):
        kout.one_in_core(g)


def outside_stages(kout, g, dec, tracer) -> None:
    from kout import outside

    with tracer.span("outside.view"):
        view = kout.outside_view(g, dec.giant)
        tracer.count(view_vertices=int(view.size))
    with tracer.span("outside.cycles"):
        outside.enumerate_cycles(view)
    with tracer.span("outside.spectra"):
        sizes, _, _ = outside.spectra(view)
        tracer.count(scan_visits=int(np.sum(sizes)))
    with tracer.span("outside.longest_path"):
        outside.longest_path(view)
    with tracer.span("outside.distance_to_giant"):
        outside.distance_to_giant(g, dec.giant)
    if dec.all_reach_giant:  # the exact fallback is limited to small n
        with tracer.span("outside.max_full_spectrum"):
            outside.max_full_spectrum(g, dec)


def full_replicate(kout, n: int, rng, tracer):
    with tracer.span("digraph.generate"):
        g = kout.generate(n, K, rng)
        tracer.count(arcs=g.n * g.k)
    with tracer.span("decompose.decompose"):
        dec = kout.decompose(g)
    with tracer.span("outside.report"):
        rep = kout.outside_report(g, dec)
    return g, dec, rep


# ---------------------------------------------------------------------------
# the workloads


class Replicate(Workload):
    name = "replicate-1e6"
    latency_sample = "a replicate's wall time"
    unit = "replicate"
    rate_name = "replicates_per_s"
    n = 10**6
    pool = 16

    def call(self, entry, tracer):
        return full_replicate(
            self.kout, self.n, self.kout.RngSpec(BASE_SEED, entry), tracer
        )

    def record(self, out):
        _, dec, rep = out
        return digest(replicate_summary(self.n, dec, rep))

    def outcome(self, entry, out, wall):
        _, dec, rep = out
        problems = replicate_problems(self.n, dec, rep, self.reference[entry])
        return Outcome(1, int(bool(problems)), 1, [wall], problems)

    def stages(self, entry, out, tracer):
        g, dec, _ = out
        decompose_stages(self.kout, g, tracer)
        outside_stages(self.kout, g, dec, tracer)


class MonteCarlo(Workload):
    name = "montecarlo-2e4"
    latency_sample = "a replicate's time in its worker"
    unit = "replicate"
    rate_name = "replicates_per_s"
    n = 20_000
    reps = 48
    pool = 16
    ops_per_item = reps
    stage_digraphs = 4

    def setup(self):
        self.constants = self.kout.derive_constants(K)

    def config(self, entry):
        return self.kout.ExperimentConfig(
            n=self.n, k=K, reps=self.reps, seed=BASE_SEED + 1 + entry
        )

    def call(self, entry, tracer):
        kout = self.kout
        with tracer.span("harness.run_experiment"):
            records = kout.run_experiment(self.config(entry), workers=self.workers)
        with tracer.span("harness.summarize"):
            summary = kout.summarize(records, self.constants)
        return records, summary

    def record(self, out):
        return [record_digest(r) for r in out[0]]

    def outcome(self, entry, out, wall):
        records, summary = out
        expected = self.reference[entry]
        problems = []
        failed = 0
        if len(records) != self.reps:
            problems.append(f"{len(records)} records for {self.reps} replicates")
            failed = self.reps
        else:
            for index, (record, want) in enumerate(zip(records, expected)):
                bad = record_problems(record, index, self.n, want)
                failed += bool(bad)
                problems += bad
            q_mean = float(np.mean([r.q_size for r in records]))
            if summary.reps != self.reps or not math.isclose(
                summary.stats["q_size"]["mean"], q_mean, rel_tol=1e-12
            ):
                problems.append("summary does not match its records")
                failed = self.reps
        latencies = [r.ms_elapsed / 1000.0 for r in records]
        return Outcome(self.reps, failed, self.reps, latencies, problems)

    def stages(self, entry, out, tracer):
        kout = self.kout
        config = self.config(entry)
        # the replicate's layers in process, on the batch's first digraphs
        for index in range(self.stage_digraphs):
            g, dec, _ = full_replicate(kout, self.n, kout.RngSpec(config.seed, index), tracer)
            decompose_stages(kout, g, tracer)
            outside_stages(kout, g, dec, tracer)
        # the single-worker baseline of the same batch, for parallel efficiency
        with tracer.span("harness.run_experiment.serial"):
            kout.run_experiment(config, workers=1)


class Distance(Workload):
    name = "distance-1e5"
    latency_sample = "a batch's wall time per pair"
    unit = "pair"
    rate_name = "pairs_per_s"
    n = 10**5
    pairs = 30
    pool = 128  # pair batches; the digraph is the same for every seed
    trace_items = 16

    def digraph(self):
        return self.kout.generate(self.n, K, self.kout.RngSpec(BASE_SEED + 2, 0))

    def setup(self):
        self.g = self.digraph()

    def call(self, entry, tracer):
        rng = self.kout.RngSpec(BASE_SEED + 3, entry)
        with tracer.span("distance.typical_distance"):
            sample = self.kout.typical_distance(self.g, self.pairs, rng)
            tracer.count(pairs=sample.pairs_drawn, finite=sample.finite_count)
        return sample

    def record(self, out):
        return distance_digest(out)

    def outcome(self, entry, out, wall):
        problems = distance_problems(out, self.pairs, self.n, self.reference[entry])
        return Outcome(1, int(bool(problems)), self.pairs, [wall / self.pairs], problems)

    def stages(self, entry, out, tracer):
        with tracer.span("digraph.generate"):
            g = self.digraph()
            tracer.count(arcs=g.n * g.k)


class Surjection(Workload):
    name = "surjection-1e3"
    latency_sample = "a draw's wall time"
    unit = "draw"
    rate_name = "draws_per_s"
    m = 1000
    pool = 2048
    trace_items = 48
    stage_items = 8

    def call(self, entry, tracer):
        rng = self.kout.RngSpec(BASE_SEED + 4, entry)
        with tracer.span("surjection.sample_surjection"):
            sample = self.kout.sample_surjection(self.m, K, rng)
            tracer.count(draws=1, attempts=sample.retries)
        return sample

    def record(self, out):
        return surjection_digest(out)

    def outcome(self, entry, out, wall):
        problems = surjection_problems(out, self.m, self.reference[entry])
        return Outcome(1, int(bool(problems)), 1, [wall], problems)

    def stages(self, entry, out, tracer):
        # the decompose layer on one digraph of the size every attempt draws
        kout = self.kout
        n = math.ceil(self.m / kout.derive_constants(K).nu)
        with tracer.span("digraph.generate"):
            g = kout.generate(n, K, kout.RngSpec(BASE_SEED + 5, entry))
            tracer.count(arcs=g.n * g.k)
        with tracer.span("decompose.decompose"):
            kout.decompose(g)
        decompose_stages(kout, g, tracer)


WORKLOADS = {w.name: w for w in (Replicate, MonteCarlo, Distance, Surjection)}

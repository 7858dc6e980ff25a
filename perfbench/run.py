"""Benchmark of the kout library, one workload per run.

    python3 perfbench/run.py --workload montecarlo-2e4 --seed 3 --seconds 15 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` there, never from an installed copy.  The workload is a closed loop
with one client for ``--seconds`` seconds after an untimed set-up.  Every
output is checked against ``reference.json`` and cheap invariants.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Set-up is
timed in this process and, after the measured loop, in two fresh processes
started with ``--setup-only``; the median of the three is reported.

``--trace 1`` reports the per-layer metrics instead: each item runs once
untraced and once inside spans, and the first items are followed by stage
calls into every layer the workload uses.  Layers the workload does not run
report 0.

Human-readable lines come first, then a provenance line, and the last line
is the result as one JSON object.  Results, and for traced runs the spans,
are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3
RSS_AFTER_ITEMS = 2
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_kout():
    src = ROOT / "src"
    if not (src / "kout" / "__init__.py").is_file():
        raise BenchError(f"no kout sources under {src}")
    sys.path.insert(0, str(src))
    # pool workers started by the spawn method import kout afresh
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    import kout

    if Path(kout.__file__).resolve().parent != (src / "kout").resolve():
        raise BenchError(f"imported kout from {kout.__file__}, not from {src}")
    return kout


def load_json(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def run_item(w, i: int, tracer):
    """One closed-loop item: the library calls, then the output check."""
    entry = w.entry(i)
    tracer.item = i
    start = time.perf_counter()
    try:
        with tracer.span("item"):
            out = w.call(entry, tracer)
    except Exception:  # a failed operation is counted, not fatal
        wall = time.perf_counter() - start
        problem = traceback.format_exc(limit=3)
        print(problem, file=sys.stderr)
        return wall, None, _failed(w, problem)
    wall = time.perf_counter() - start
    return wall, out, w.outcome(entry, out, wall)


def _failed(w, problem: str):
    from workloads import Outcome

    return Outcome(w.ops_per_item, w.ops_per_item, 0, [], [problem])


class Tally:
    def __init__(self):
        self.ops = self.failed = self.units = 0
        self.latencies: list[float] = []
        self.problems: list[str] = []

    def add(self, outcome, timed: bool = True) -> None:
        self.ops += outcome.ops
        self.failed += outcome.failed
        self.problems += outcome.problems
        if timed:
            self.units += outcome.units
            self.latencies += outcome.latencies


def set_up(args, reference):
    """Everything before the first timed item; returns (workload, tally)."""
    kout = import_kout()
    from tracing import Tracer
    from workloads import K, WORKLOADS

    kout.derive_constants(K)
    workers = len(os.sched_getaffinity(0))
    w = WORKLOADS[args.workload](kout, args.seed, workers, reference)
    w.setup()
    tally = Tally()
    _, _, outcome = run_item(w, -1, Tracer(False))
    tally.add(outcome, timed=False)
    return w, tally


def setup_in_fresh_process(args) -> tuple[float, int, int]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "0", "--setup-only",
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed:\n{proc.stderr}")
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    return got["setup_s"], got["attempted"], got["failed"]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(w, tally, seconds: float) -> tuple[float, float]:
    """Closed loop for ``seconds``; returns (elapsed, peak RSS in MB).

    Peak RSS is read after a fixed number of items, so that how many items
    fit in the run does not change it.
    """
    from tracing import Tracer

    off = Tracer(False)
    start = time.perf_counter()
    i = 0
    rss = None
    while True:
        _, _, outcome = run_item(w, i, off)
        tally.add(outcome)
        i += 1
        if i == RSS_AFTER_ITEMS:
            rss = peak_rss_mb()
        if time.perf_counter() - start >= seconds:
            return time.perf_counter() - start, rss or peak_rss_mb()


def end_to_end(args, reference) -> tuple[dict, Tally, dict]:
    w, tally = set_up(args, reference)
    setups = [time.perf_counter() - T0]
    elapsed, rss = measure(w, tally, args.seconds)
    del w
    for _ in range(SETUP_SAMPLES - 1):
        setup_s, ops, failed = setup_in_fresh_process(args)
        setups.append(setup_s)
        tally.ops += ops
        tally.failed += failed
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": tally.units / elapsed,
        "peak_rss_mb": rss,
        "ok_frac": (tally.ops - tally.failed) / tally.ops,
    }
    bases = {
        "setup_s": {"samples": setups},
        # printed with its sample count; not declared in BENCHMARK.json
        "item_s.p50": {"value": statistics.median(tally.latencies),
                       "samples": len(tally.latencies)},
        "items_per_s": {"units": tally.units, "seconds": elapsed},
        "ok_frac": {"ok": tally.ops - tally.failed, "attempted": tally.ops},
    }
    return metrics, tally, bases


def traced(args, reference) -> tuple[dict, Tally, dict, object]:
    from tracing import Tracer

    w, tally = set_up(args, reference)
    on, off = Tracer(True), Tracer(False)
    walls = {True: 0.0, False: 0.0}
    prefix_failed = 0
    start = time.perf_counter()
    i = 0
    while i < w.trace_items or time.perf_counter() - start < args.seconds:
        out = None
        for tracing_on in (False, True) if i % 2 == 0 else (True, False):
            wall, got, outcome = run_item(w, i, on if tracing_on else off)
            walls[tracing_on] += wall
            tally.add(outcome)
            if i < w.trace_items:
                prefix_failed += outcome.failed
            if tracing_on:
                out = got
        if i < w.stage_items and out is not None:
            on.item = i
            w.stages(w.entry(i), out, on)
        i += 1
    metrics, bases = layer_metrics(on.spans, w, walls, prefix_failed)
    return metrics, tally, bases, on


def layer_metrics(spans, w, walls, prefix_failed) -> tuple[dict, dict]:
    from tracing import self_times

    selfs = self_times(spans)
    by_name: dict[str, list[tuple[list, float]]] = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span[0], []).append((span, own))

    def median_ms(name, scale=1e3):
        values = [own for _, own in by_name.get(name, ())]
        return statistics.median(values) * scale if values else 0.0

    def count(name, key):  # summed over the fixed prefix of items only
        return sum(
            span[5].get(key, 0)
            for span, _ in by_name.get(name, ())
            if span[4] < w.trace_items
        )

    m = {
        "digraph.generate_ms": median_ms("digraph.generate"),
        "digraph.arcs": count("digraph.generate", "arcs"),
        "decompose.components": count("decompose.scc", "components"),
        "outside.view_vertices": count("outside.view", "view_vertices"),
        "outside.scan_visits": count("outside.spectra", "scan_visits"),
    }
    for stage in ("decompose", "scc", "condense", "one_in_core"):
        m[f"decompose.{stage}_ms"] = median_ms(f"decompose.{stage}")
    for stage in (
        "report", "view", "cycles", "spectra", "longest_path",
        "distance_to_giant", "max_full_spectrum",
    ):
        m[f"outside.{stage}_ms"] = median_ms(f"outside.{stage}")

    batches = by_name.get("distance.typical_distance", ())
    pairs = count("distance.typical_distance", "pairs")
    m["distance.pair_ms"] = (
        statistics.median(own / s[5]["pairs"] for s, own in batches) * 1e3
        if batches else 0.0
    )
    finite = count("distance.typical_distance", "finite")
    m["distance.pairs"] = pairs
    m["distance.finite_ratio"] = finite / pairs if pairs else 0.0

    draws = by_name.get("surjection.sample_surjection", ())
    attempts = count("surjection.sample_surjection", "attempts")
    m["surjection.draw_ms"] = median_ms("surjection.sample_surjection")
    m["surjection.attempt_ms"] = (
        sum(own for _, own in draws) / sum(s[5]["attempts"] for s, _ in draws) * 1e3
        if draws else 0.0
    )
    m["surjection.attempts"] = attempts
    m["surjection.draws"] = count("surjection.sample_surjection", "draws")
    m["surjection.accept_ratio"] = m["surjection.draws"] / attempts if attempts else 0.0

    runs = by_name.get("harness.run_experiment", ())
    serial = by_name.get("harness.run_experiment.serial", ())
    m["harness.run_experiment_s"] = median_ms("harness.run_experiment", 1.0)
    m["harness.summarize_ms"] = median_ms("harness.summarize")
    m["harness.failed"] = prefix_failed if runs else 0
    m["harness.serial_s"] = serial[0][1] if serial else 0.0
    parallel_s = next((own for s, own in runs if s[4] == 0), 0.0)
    m["harness.parallel_efficiency"] = (
        m["harness.serial_s"] / (w.workers * parallel_s) if serial and parallel_s else 0.0
    )

    m["trace.untraced_s"] = walls[False]
    m["trace.traced_s"] = walls[True]
    m["trace.overhead_frac"] = (walls[True] - walls[False]) / walls[False]
    bases = {
        "counts_over_items": w.trace_items,
        "stage_calls_after_items": w.stage_items,
        "distance.finite_ratio": {"finite": finite, "pairs": pairs},
        "surjection.accept_ratio": {"draws": m["surjection.draws"], "attempts": attempts},
        "harness.parallel_efficiency": {
            "serial_s": m["harness.serial_s"], "workers": w.workers, "parallel_s": parallel_s,
        },
        "trace.overhead_frac": {"traced_s": walls[True], "untraced_s": walls[False]},
    }
    return m, bases


def provenance(args) -> dict:
    import numpy
    import scipy

    def command(*cmd):
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    def cache_bytes(level):
        got = command("getconf", f"LEVEL{level}_CACHE_SIZE")
        return int(got) if got and got.isdigit() else None

    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kout").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    # only a repository rooted at this checkout names its commit
    top_and_head = (command("git", "rev-parse", "--show-toplevel", "HEAD") or "").split()
    commit = None
    if len(top_and_head) == 2 and Path(top_and_head[0]).resolve() == ROOT:
        commit = top_and_head[1]
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": len(os.sched_getaffinity(0)),
        "l2_cache_bytes": cache_bytes(2),
        "l3_cache_bytes": cache_bytes(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def report_lines(args, metrics, tally, bases, w_cls, units) -> list[str]:
    lines = [
        f"workload {args.workload}: closed loop, one client, k=2, seed {args.seed}",
    ]
    if args.trace:
        for name, meta in units.items():
            lines.append(f"  {name:32s} {metrics[name]:>14.6g} {meta}")
        return lines
    failed_frac = tally.failed / tally.ops
    rows = [
        ("setup_s", metrics["setup_s"], "s", f"median of {len(bases['setup_s']['samples'])} set-ups"),
        (f"{w_cls.unit}_s.p50", bases["item_s.p50"]["value"], "s",
         f"median of {bases['item_s.p50']['samples']} samples, each {w_cls.latency_sample}"),
        (w_cls.rate_name, metrics["items_per_s"], "1/s",
         f"{bases['items_per_s']['units']} {w_cls.unit}s in {bases['items_per_s']['seconds']:.2f} s"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB",
         f"own process plus reaped children, after {RSS_AFTER_ITEMS} timed items"),
        ("failed_frac", failed_frac, "1", f"{tally.failed} of {tally.ops} operations"),
    ]
    for name, value, unit, note in rows:
        lines.append(f"  {name:18s} {value:>12.6g} {unit:4s} ({note})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, then print the set-up time as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    bench = load_json(ROOT / "BENCHMARK.json")
    reference = load_json(HERE / "reference.json")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")

    if args.setup_only:
        _, tally = set_up(args, reference)
        print(json.dumps({
            "setup_s": time.perf_counter() - T0, "attempted": tally.ops, "failed": tally.failed,
        }))
        return 0

    if args.trace:
        metrics, tally, bases, tracer = traced(args, reference)
        declared = bench["per_layer"]
    else:
        metrics, tally, bases = end_to_end(args, reference)
        tracer = None
        declared = bench["end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    prov = provenance(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"provenance": prov, "result": result, "bases": bases,
                   "problems": tally.problems[:20]}, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")

    for line in report_lines(args, metrics, tally, bases, WORKLOADS[args.workload], units):
        print(line)
    for problem in tally.problems[:5]:
        print(f"  check failed: {problem}")
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

"""Check that the benchmark repeats: spreads, medians and exact counts.

    python3 perfbench/steady.py [--workload NAME ...] [--sets 1] [--first-seed 1]

For each workload, makes ``--sets`` sets of ten untraced runs, each run with
another seed (``--first-seed`` onwards), one set after another.  For every
end-to-end metric it prints the median and the spread (distance between first
and third quartile over the median) of each set, flags a spread above a third
of the metric's bound, and prints how much worse than the first set's median
each later set's median is.  For ``setup_s`` it also prints the spread of the
in-process set-up alone, beside that of the reported median of three.  Then it
makes two traced runs with the first seed and compares their exact counts.

The summary is written to ``perfbench/out/steady.json``.  The exit code is 1
when any spread exceeds its bound, a later median is worse than the first by
more than the bound, or an exact count differs between the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
TRACE_REPEATS = 2
EXACT_UNITS = {"count"}
EXACT_RATIOS = {"distance.finite_ratio", "surjection.accept_ratio"}


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed the check")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:  # the first of the set-up samples is the in-process one
        saved = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
        values["setup_s.single"] = saved["bases"]["setup_s"]["samples"][0]
    return values


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    ok = True
    summary = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        sets = []
        for s in range(args.sets):
            first = args.first_seed + s * RUNS
            runs = [bench_run(workload, seed, seconds, 0) for seed in range(first, first + RUNS)]
            sets.append({name: [r[name] for r in runs] for name in runs[0]})
        rows = {}
        for name, meta in bounds.items():
            stats = [spread(values[name]) for values in sets]
            sign = 1 if meta["better"] == "lower" else -1
            worse = [sign * (m - stats[0][0]) / stats[0][0] for m, _ in stats[1:]]
            ok &= all(sp <= meta["bound"] for _, sp in stats)
            ok &= all(x <= meta["bound"] for x in worse)
            rows[name] = {"medians": [m for m, _ in stats], "spreads": [sp for _, sp in stats],
                          "worse_than_first": worse, "bound": meta["bound"],
                          "values": [values[name] for values in sets]}
            flag = "  <-- above bound/3" if any(sp > meta["bound"] / 3 for _, sp in stats) else ""
            print(f"{workload:15s} {name:12s} medians "
                  + " ".join(f"{m:.6g}" for m, _ in stats)
                  + "  spreads " + " ".join(f"{sp:.3f}" for _, sp in stats)
                  + "  worse than first " + " ".join(f"{x:+.3f}" for x in worse)
                  + f"  bound {meta['bound']}{flag}")
        single = [spread(values["setup_s.single"]) for values in sets]
        rows["setup_s.single"] = {"medians": [m for m, _ in single],
                                  "spreads": [sp for _, sp in single]}
        print(f"{workload:15s} setup_s from the in-process set-up alone: spreads "
              + " ".join(f"{sp:.3f}" for _, sp in single))
        counts = []
        for _ in range(TRACE_REPEATS):
            layer = bench_run(workload, args.first_seed, seconds, 1)
            counts.append({
                d["name"]: layer[d["name"]] for d in bench["per_layer"]
                if d["unit"] in EXACT_UNITS or d["name"] in EXACT_RATIOS
            })
        same = all(c == counts[0] for c in counts[1:])
        ok &= same
        print(f"{workload:15s} exact counts repeat over {len(counts)} traced runs: {same}")
        summary[workload] = {"end_to_end": rows, "counts": counts, "counts_repeat": same}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

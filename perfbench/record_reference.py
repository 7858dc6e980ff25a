"""Record reference.json: the digest of the output of every pool entry.

    python3 perfbench/record_reference.py [--workload NAME ...]

Run from the root of a source checkout at the commit whose outputs are taken
as correct.  Each output must also pass the workload's invariant checks.
Recording every workload takes about five minutes on two cores, most of it
the sixteen replicates at n = 10^6.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run
from tracing import Tracer
from workloads import WORKLOADS


def record(kout, cls, workers: int) -> list:
    w = cls(kout, 0, workers, {})
    w.setup()
    w.reference = values = []
    off = Tracer(False)
    for entry in range(cls.pool):
        out = w.call(entry, off)
        values.append(w.record(out))
        problems = w.outcome(entry, out, 0.0).problems
        if problems:
            raise SystemExit(f"{cls.name} entry {entry}: {problems}")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    kout = run.import_kout()
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    workers = len(os.sched_getaffinity(0))
    for name in args.workload or WORKLOADS:
        start = time.perf_counter()
        reference[name] = record(kout, WORKLOADS[name], workers)
        print(f"{name}: {len(reference[name])} entries in "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: constants, generate, analyze, distance, phase, surjection,
oracle (enumerate | stirling | gw), montecarlo.  Every subcommand exits 0 on
success and reports a failure in one line on stderr, ``"{label}: {message}"``,
with the exit code of the first matching row of ``_FAILURES``: 5 for an
invalid ``KOUT_THREADS``; 2 for a rejected argument value, flag combination
or input file (a ``ValueError``, e.g. ``--pairs 0``, ``--count 0``,
``analyze`` without ``--in`` or a full ``--n/--k/--seed``, or ``montecarlo``
without ``--out`` at ``--k 1`` or ``--reps 1``, which would print nothing),
as argparse does for a malformed flag, and for an invariant violation under
``montecarlo --validate`` (``invariant violation: replicate i: ...``); 3 for
an I/O error; 4 when an exact search outside the giant or a rejection sampler
exceeds its cap.  Any other exception propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import digraph, errors, harness, oracle
from .constants import derive_constants
from .decompose import decompose
from .distance import phase_sweep, typical_distance
from .outside import outside_report
from .surjection import sample_surjection

__all__ = ["main"]


def _tolist(obj):
    """``json.dump`` hook: numpy arrays and scalars as Python lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(payload: dict, as_json: bool, keys=None) -> None:
    """Print ``payload`` as JSON, or one ``key = value`` line per key (all by default)."""
    if as_json:
        json.dump(payload, sys.stdout, indent=1, default=_tolist)
        sys.stdout.write("\n")
    else:
        for key in payload if keys is None else keys:
            print(f"{key} = {payload[key]}")


def _cmd_constants(args) -> int:
    _emit(derive_constants(args.k).as_dict(), args.json)
    return 0


def _load_digraph(args) -> digraph.KOutDigraph:
    if args.infile:
        with open(args.infile, "rb") as fh:
            data = fh.read()
        if data[: len(digraph.MAGIC)] == digraph.MAGIC:
            return digraph.deserialize(data)
        return digraph.digraph_from_json(data.decode())
    if args.n is None or args.k is None or args.seed is None:
        raise ValueError("either --in FILE or all of --n/--k/--seed are required")
    return digraph.generate(args.n, args.k, digraph.RngSpec(args.seed, args.stream))


def _cmd_generate(args) -> int:
    if args.format == "bin" and not args.out:
        raise ValueError("--format bin requires --out FILE")
    rng = digraph.RngSpec(args.seed, args.stream)
    if args.simple:
        g, _attempts = digraph.generate_simple(args.n, args.k, rng)
    else:
        g = digraph.generate(args.n, args.k, rng)
    if args.format == "bin":
        data = digraph.serialize(g)
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        text = digraph.digraph_to_json(g)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    return 0


_ANALYZE_KEYS = (
    "n", "k", "giant_size", "core_size", "middle_size", "outside_size",
    "all_reach_giant", "total_cycles", "longest_cycle", "max_spectrum",
    "w", "d", "m", "max_full_spectrum",
)


def _cmd_analyze(args) -> int:
    g = _load_digraph(args)
    dec = decompose(g)
    rep = outside_report(g, dec)
    payload = {
        "n": g.n,
        "k": g.k,
        "giant_size": int(dec.giant.size),
        "core_size": int(dec.one_in_core.size),
        "middle_size": int(dec.one_in_core.size - dec.giant.size),
        "outside_size": int(g.n - dec.one_in_core.size),
        "all_reach_giant": dec.all_reach_giant,
        "n_components": dec.n_components,
        **dataclasses.asdict(rep),
    }
    _emit(payload, args.json, _ANALYZE_KEYS)
    return 0


def _cmd_distance(args) -> int:
    if args.stream >= 2**64 - 1:
        raise ValueError(
            "distance needs stream < 2**64 - 1 (its pairs draw from stream + 1), "
            f"got {args.stream}"
        )
    g = digraph.generate(args.n, args.k, digraph.RngSpec(args.seed, args.stream))
    t0 = time.perf_counter()
    sample = typical_distance(g, args.pairs, digraph.RngSpec(args.seed, args.stream + 1))
    ms_elapsed = (time.perf_counter() - t0) * 1000.0
    payload = {
        "n": args.n,
        "k": args.k,
        "pairs_drawn": sample.pairs_drawn,
        "finite_count": sample.finite_count,
        "finite_fraction": sample.finite_count / sample.pairs_drawn,
        "mean_finite_distance": (
            sum(sample.distances) / len(sample.distances) if sample.distances else None
        ),
        "distances": sample.distances,
        "ms_elapsed": ms_elapsed,
    }
    keys = ("pairs_drawn", "finite_count", "finite_fraction", "mean_finite_distance")
    _emit(payload, args.json, keys)
    return 0


def _cmd_phase(args) -> int:
    points = phase_sweep(
        args.n, args.kmin, args.kmax, args.reps, digraph.RngSpec(args.seed)
    )
    if args.csv:
        print("n,k,reps,frac_sc,frac_indeg0")
        for p in points:
            print(
                f"{p.n},{p.k},{p.reps},{p.fraction_strongly_connected},"
                f"{p.fraction_with_indeg_zero_vertex}"
            )
    else:
        for p in points:
            print(
                f"k={p.k}: strongly connected {p.fraction_strongly_connected:.3f}, "
                f"in-degree-0 present {p.fraction_with_indeg_zero_vertex:.3f}"
            )
    return 0


def _cmd_surjection(args) -> int:
    digraph._check_int("count", args.count, 1)
    samples = [
        sample_surjection(args.m, args.k, digraph.RngSpec(args.seed, i))
        for i in range(args.count)
    ]
    retries = [s.retries for s in samples]
    payload = {
        "m": args.m,
        "k": args.k,
        "count": args.count,
        "mean_retries": sum(retries) / len(retries),
        "max_retries": max(retries),
        "mappings": [s.mapping.tolist() for s in samples],
    }
    _emit(payload, args.json, ("mean_retries", "max_retries"))
    return 0


def _cmd_oracle_enumerate(args) -> int:
    tally = oracle.enumerate_all(args.n, args.k)
    payload = {
        "n": tally.n,
        "k": tally.k,
        "total": tally.total,
        "simple_count": tally.simple_count,
        "q_size_hist": dict(tally.q_size_hist),
        "g_size_hist": dict(tally.g_size_hist),
        "ksurj_counts": dict(tally.ksurj_counts),
        "cycle_count_hist": dict(tally.cycle_count_hist),
    }
    _emit(payload, args.json)
    return 0


def _cmd_oracle_stirling(args) -> int:
    print(oracle.stirling2(args.x, args.y))
    return 0


def _cmd_oracle_gw(args) -> int:
    payload = {
        "extinction": oracle.gw_extinction(args.mu, args.k, args.m),
        "bound": oracle.gw_bound(args.mu, args.k, args.m),
    }
    _emit(payload, as_json=False)
    return 0


def _cmd_montecarlo(args) -> int:
    config = harness.ExperimentConfig(
        n=args.n,
        k=args.k,
        reps=args.reps,
        seed=args.seed,
        collect=harness.COLLECT_GROUPS if args.collect == "all" else frozenset({args.collect}),
        validate=args.validate,
    )
    if not args.out and (args.k < 2 or args.reps < 2):
        # without --out the summary is the only output, and it needs both
        raise ValueError("montecarlo without --out needs --k >= 2 and --reps >= 2")
    records = harness.run_experiment(config)
    if args.out:
        if args.format == "csv":
            harness.write_csv(records, args.out)
        else:
            harness.write_json(records, args.out)
    if args.k >= 2 and len(records) >= 2:
        summary = harness.summarize(records, derive_constants(args.k))
        _emit(summary.as_dict(), as_json=True)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kout", description="uniform random k-out digraph toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="model constants for one k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("generate", help="sample one digraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--simple", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "bin"), default="json")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="decompose one digraph and report")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("distance", help="typical-distance sampling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("phase", help="strong-connectivity fraction per k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmin", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("surjection", help="uniform random surjections")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_surjection)

    p = sub.add_parser("oracle", help="exact ground-truth utilities")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("enumerate")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_oracle_enumerate)
    q = osub.add_parser("stirling")
    q.add_argument("--x", type=int, required=True)
    q.add_argument("--y", type=int, required=True)
    q.set_defaults(func=_cmd_oracle_stirling)
    q = osub.add_parser("gw")
    q.add_argument("--mu", type=float, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(func=_cmd_oracle_gw)

    p = sub.add_parser("montecarlo", help="replicated experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--collect", choices=("all", *sorted(harness.COLLECT_GROUPS)), default="all"
    )
    p.add_argument("--validate", action="store_true")
    p.set_defaults(func=_cmd_montecarlo)
    return parser


# (exception types, exit code, stderr label); the first match wins, so
# SettingError, a ValueError, must precede ValueError
_FAILURES = (
    (errors.SettingError, 5, "invalid setting"),
    (ValueError, 2, "invalid input"),
    (errors.InvariantViolationError, 2, "invariant violation"),
    (OSError, 3, "i/o error"),
    (
        (errors.CycleCapError, errors.ComponentCapError, errors.RejectionLimitError),
        4,
        "cap exceeded",
    ),
)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for types, code, label in _FAILURES:
            if isinstance(exc, types):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    raise SystemExit(main())

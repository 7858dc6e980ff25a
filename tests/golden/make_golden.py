"""Frozen outputs that a refactor of the decomposition must reproduce exactly.

Six records live beside this script:

- ``montecarlo_n2000.csv``: the CSV of ``run_experiment(n=2000, k=2, reps=40,
  seed=20260809, collect=all)`` with the wall-time column ``ms_elapsed``
  removed;
- ``replicate_n100000.json``: every statistic of one full replicate at
  n = 10^5, large vertex arrays as SHA-256 digests of their little-endian
  int64 bytes.  It uses ``RngSpec(20260809, 8)``, the first stream of this
  seed whose replicate has a cycle outside the giant and a nonempty middle
  layer, so cycle enumeration and the longest-path search through a
  nontrivial component are both pinned;
- ``replicate_n300000.json``: the same record at n = 3*10^5 for
  ``RngSpec(20260809, 0)``, whose replicate also has a cycle outside the
  giant and a nonempty middle layer.  Its view has about 61,000 vertices,
  more than 46,341, so a pair key ``a * m + b`` over the view that wrapped
  in 32 bits would change it;
- ``cli_stdout.txt``: the stdout of each command in ``CLI_COMMANDS``, run
  through ``kout.cli.main`` in one process with ``KOUT_THREADS=1``, each
  under a ``$ kout ...`` header line; the wall-time line ``"ms_elapsed"`` of
  ``distance --json`` is dropped;
- ``surjection_draws.json``: the retries of ``sample_surjection(m, k,
  RngSpec(20260809, stream))`` for every m in ``SURJECTION_MS``, k in
  ``SURJECTION_KS`` and stream in ``SURJECTION_STREAMS``, with a SHA-256
  digest of the mapping's little-endian int64 bytes and the retries;
- ``decompose_k1_k3.json``: SHA-256 digests of ``scc_id``, ``height``,
  ``giant`` and ``one_in_core`` of ``decompose(generate(10**5, k,
  RngSpec(20260809, stream)))``, and of the view's ``comp``, ``height`` and
  ``dist``, for k in ``DECOMPOSE_KS`` and stream in ``DECOMPOSE_STREAMS``.
  The other records pin k = 2 only.  It records ``decompose`` alone: at
  k = 1 a long cycle outside the giant can make ``outside_report`` raise
  ``ComponentCapError``.

``tests/test_golden.py`` recomputes all six and compares them byte for byte.
Regenerate (only when a change is meant to alter outputs) from the repository
root with::

    PYTHONPATH=src python3 tests/golden/make_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import numpy as np

from kout.cli import main
from kout.decompose import decompose
from kout.digraph import RngSpec, generate
from kout.harness import CSV_COLUMNS, ExperimentConfig, _cell, run_experiment
from kout.outside import outside_report
from kout.surjection import sample_surjection

HERE = Path(__file__).resolve().parent
CSV_PATH = HERE / "montecarlo_n2000.csv"
JSON_PATH = HERE / "replicate_n100000.json"
JSON_300K_PATH = HERE / "replicate_n300000.json"
CLI_PATH = HERE / "cli_stdout.txt"
SURJECTION_PATH = HERE / "surjection_draws.json"
DECOMPOSE_PATH = HERE / "decompose_k1_k3.json"
SEED = 20260809
REPLICATE_STREAM = 8
REPLICATE_300K_STREAM = 0
SURJECTION_MS = (1, 2, 5, 30, 100, 1000)
SURJECTION_KS = (2, 3)
SURJECTION_STREAMS = (0, 1, 2, 3, 4)
DECOMPOSE_N = 100_000
DECOMPOSE_KS = (1, 3)
DECOMPOSE_STREAMS = (0, 1)

CLI_COMMANDS = (
    "constants --k 3",
    "constants --k 7 --json",
    "analyze --n 400 --k 2 --seed 7 --stream 1",
    "analyze --n 400 --k 2 --seed 7 --stream 1 --json",
    "analyze --n 400 --k 1 --seed 7 --stream 1",
    "analyze --n 400 --k 1 --seed 7 --stream 1 --json",
    "distance --n 2000 --k 2 --pairs 40 --seed 6 --json",
    "surjection --m 30 --k 2 --count 3 --seed 4 --json",
    "oracle enumerate --n 3 --k 2",
    "oracle stirling --x 12 --y 5",
    "oracle gw --mu 0.2 --k 2 --m 4",
    "phase --n 60 --kmin 1 --kmax 3 --reps 5 --seed 2 --csv",
    "generate --n 12 --k 2 --seed 3",
    "generate --n 12 --k 2 --seed 3 --simple",
    "montecarlo --n 500 --k 2 --reps 8 --seed 11",
)


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(arr, dtype="<i8").tobytes()).hexdigest()


def montecarlo_csv() -> str:
    config = ExperimentConfig(n=2000, k=2, reps=40, seed=SEED)
    records = run_experiment(config, workers=1)
    columns = [c for c in CSV_COLUMNS if c != "ms_elapsed"]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for r in records:
        writer.writerow([_cell(getattr(r, c)) for c in columns])
    return buf.getvalue()


def replicate_json(n: int = 100_000, stream: int = REPLICATE_STREAM) -> str:
    g = generate(n, 2, RngSpec(SEED, stream))
    dec = decompose(g)
    rep = outside_report(g, dec)
    doc = {
        "n": g.n,
        "k": g.k,
        "n_components": dec.n_components,
        "giant_size": int(dec.giant.size),
        "giant_sha256": _digest(dec.giant),
        "core_size": int(dec.one_in_core.size),
        "core_sha256": _digest(dec.one_in_core),
        "all_reach_giant": bool(dec.all_reach_giant),
        "cycles": rep.cycles,
        "vertex_disjoint": rep.vertex_disjoint,
        "longest_cycle": rep.longest_cycle,
        "spectra_sizes_len": int(rep.spectra_sizes.size),
        "spectra_sizes_sum": int(rep.spectra_sizes.sum()),
        "spectra_sizes_sha256": _digest(rep.spectra_sizes),
        "max_spectrum": rep.max_spectrum,
        "arc_excess_violations": rep.arc_excess_violations,
        "w": rep.w,
        "w_unreachable": rep.w_unreachable,
        "d": rep.d,
        "m": rep.m,
        "max_full_spectrum": rep.max_full_spectrum,
        "spectrum_of_zero": rep.spectrum_of_zero,
    }
    return json.dumps(doc, indent=1) + "\n"


def cli_stdout() -> str:
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"KOUT_THREADS": "1"}):
        for command in CLI_COMMANDS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(command.split())
            if code != 0:
                raise RuntimeError(f"kout {command} exited {code}")
            out.write(f"$ kout {command}\n")
            for line in buf.getvalue().splitlines(keepends=True):
                if not line.lstrip().startswith('"ms_elapsed"'):
                    out.write(line)
    return out.getvalue()


def surjection_json() -> str:
    draws = []
    for m in SURJECTION_MS:
        for k in SURJECTION_KS:
            for stream in SURJECTION_STREAMS:
                s = sample_surjection(m, k, RngSpec(SEED, stream))
                raw = np.asarray(s.mapping, dtype="<i8").tobytes() + str(s.retries).encode()
                draws.append(
                    {
                        "m": m,
                        "k": k,
                        "stream": stream,
                        "retries": s.retries,
                        "sha256": hashlib.sha256(raw).hexdigest(),
                    }
                )
    return json.dumps({"seed": SEED, "draws": draws}, indent=1) + "\n"


def decompose_json() -> str:
    records = []
    for k in DECOMPOSE_KS:
        for stream in DECOMPOSE_STREAMS:
            dec = decompose(generate(DECOMPOSE_N, k, RngSpec(SEED, stream)))
            view = dec.view
            arrays = {
                "scc_id": dec.scc_id,
                "height": dec.height,
                "giant": dec.giant,
                "one_in_core": dec.one_in_core,
                "view_comp": view.comp,
                "view_height": view.height,
                "view_dist": view.dist,
            }
            record = {"k": k, "stream": stream, "view_size": int(view.size)}
            record.update({f"{name}_sha256": _digest(a) for name, a in arrays.items()})
            records.append(record)
    return json.dumps({"n": DECOMPOSE_N, "seed": SEED, "records": records}, indent=1) + "\n"


if __name__ == "__main__":
    CSV_PATH.write_text(montecarlo_csv(), newline="")
    JSON_PATH.write_text(replicate_json())
    JSON_300K_PATH.write_text(replicate_json(300_000, REPLICATE_300K_STREAM))
    CLI_PATH.write_text(cli_stdout())
    SURJECTION_PATH.write_text(surjection_json())
    DECOMPOSE_PATH.write_text(decompose_json())
    written = (CSV_PATH, JSON_PATH, JSON_300K_PATH, CLI_PATH, SURJECTION_PATH, DECOMPOSE_PATH)
    print("wrote " + ", ".join(p.name for p in written))

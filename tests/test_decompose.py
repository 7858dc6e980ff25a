import importlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import digraph_from_rows, endpoint_tables
from kout.decompose import (
    _dense_csr,
    _scc_labels,
    condense,
    decompose,
    giant,
    layers,
    one_in_core,
    scc,
)
from kout.digraph import RngSpec, generate
from kout.oracle import brute_cycles, brute_giant, brute_one_in_core, brute_scc_sets

decompose_module = importlib.import_module("kout.decompose")


def test_scc_single_vertex():
    g = digraph_from_rows([(0, 0)])
    ids, members = scc(g)
    assert ids.tolist() == [0]
    assert [m.tolist() for m in members] == [[0]]


def test_scc_3cycle(rows_3cycle):
    g = digraph_from_rows(rows_3cycle)
    ids, members = scc(g)
    assert len(members) == 1
    assert members[0].tolist() == [0, 1, 2]


def test_scc_chain(rows_chain):
    g = digraph_from_rows(rows_chain)
    ids, members = scc(g)
    assert len(members) == 3
    # reverse topological: the sink {2} gets id 0
    assert ids.tolist() == [2, 1, 0]


def test_condense_chain(rows_chain):
    g = digraph_from_rows(rows_chain)
    sccs = scc(g)
    adjacency, closed = condense(g, sccs)
    assert [a.tolist() for a in adjacency] == [[], [0], [1]]
    assert closed.tolist() == [True, False, False]


def test_condense_3cycle(rows_3cycle):
    g = digraph_from_rows(rows_3cycle)
    adjacency, closed = condense(g, scc(g))
    assert [a.tolist() for a in adjacency] == [[]]
    assert closed.tolist() == [True]


def test_giant_3cycle(rows_3cycle):
    assert giant(digraph_from_rows(rows_3cycle)).tolist() == [0, 1, 2]


def test_giant_tie_break():
    # two disjoint closed 1-cycles: smallest label wins
    g = digraph_from_rows([(0,), (1,)])
    assert giant(g).tolist() == [0]


def test_one_in_core_hand_cases(rows_chain):
    all_loops = digraph_from_rows([(0, 0), (1, 1)])
    assert one_in_core(all_loops).tolist() == [0, 1]
    assert one_in_core(digraph_from_rows(rows_chain)).tolist() == [2]


def test_layers_hand_cases(rows_chain, rows_3cycle):
    assert layers(digraph_from_rows(rows_3cycle)) == (3, 3, 0, 0, True)
    assert layers(digraph_from_rows(rows_chain)) == (1, 1, 0, 2, True)


def test_all_reach_false_case():
    # two disjoint 1-cycles: vertex 1 cannot reach the giant {0}
    g = digraph_from_rows([(0,), (1,)])
    assert layers(g)[4] is False


def test_reverse_topological_numbering_random():
    for seed in range(20):
        g = generate(30, 2, RngSpec(1000, seed))
        ids, members = scc(g)
        adjacency, closed = condense(g, (ids, members))
        for c, succ in enumerate(adjacency):
            assert (succ < c).all(), "condensation arc must drop to a smaller id"
        assert closed.sum() >= 1
        # partition sanity
        assert sorted(v for m in members for v in m.tolist()) == list(range(g.n))


@settings(max_examples=80)
@given(endpoint_tables(max_n=10, max_k=3))
def test_scc_matches_brute(rows):
    g = digraph_from_rows(rows)
    _, members = scc(g)
    got = sorted(tuple(m.tolist()) for m in members)
    want = sorted(tuple(sorted(c)) for c in brute_scc_sets(rows))
    assert got == want


@settings(max_examples=80)
@given(endpoint_tables(max_n=10, max_k=3))
def test_giant_matches_brute(rows):
    g = digraph_from_rows(rows)
    assert frozenset(giant(g).tolist()) == brute_giant(rows)


@settings(max_examples=60)
@given(endpoint_tables(max_n=8, max_k=3))
def test_one_in_core_matches_brute(rows):
    g = digraph_from_rows(rows)
    assert frozenset(one_in_core(g).tolist()) == brute_one_in_core(rows)


@settings(max_examples=60)
@given(endpoint_tables(max_n=10, max_k=3))
def test_giant_within_core_and_closed(rows):
    g = digraph_from_rows(rows)
    d = decompose(g)
    core = set(d.one_in_core.tolist())
    assert set(d.giant.tolist()) <= core
    # no arcs leave the core, and every core vertex keeps an in-arc inside it
    indeg = {v: 0 for v in core}
    for v in core:
        for u in g.endpoints[v].tolist():
            assert u in core
            indeg[u] += 1
    assert all(c >= 1 for c in indeg.values())
    # no directed cycle intersects the complement of the core
    outside = set(range(g.n)) - core
    assert brute_cycles(rows, within=outside) == []


@settings(max_examples=60)
@given(endpoint_tables(max_n=10, max_k=3))
def test_single_closed_scc_implies_all_reach(rows):
    g = digraph_from_rows(rows)
    d = decompose(g)
    if int(d.closed.sum()) == 1:
        assert d.all_reach_giant


@settings(max_examples=60)
@given(endpoint_tables(max_n=8, max_k=3))
def test_one_in_core_is_forward_closure_of_cycles(rows):
    # the core equals the oracle's maximal closed surjective set and, by the
    # equivalent definition, everything reachable from a vertex on a cycle
    reach = set(v for cyc in brute_cycles(rows) for v in cyc)
    todo = list(reach)
    while todo:
        for u in rows[todo.pop()]:
            if u not in reach:
                reach.add(u)
                todo.append(u)
    got = frozenset(one_in_core(digraph_from_rows(rows)).tolist())
    assert got == brute_one_in_core(rows) == frozenset(reach)


def test_core_maximality_random():
    # adding any single outside vertex breaks the in-degree-1-inside property
    for seed in range(10):
        g = generate(40, 2, RngSpec(321, seed))
        core = set(one_in_core(g).tolist())
        for v in set(range(g.n)) - core:
            grown = core | {v}
            indeg = {u: 0 for u in grown}
            for w in grown:
                for u in g.endpoints[w].tolist():
                    if u in grown:
                        indeg[u] += 1
            assert min(indeg.values()) == 0


def test_monte_carlo_giant_density():
    sizes = []
    for i in range(30):
        g = generate(20_000, 2, RngSpec(99, i))
        sizes.append(giant(g).size)
    assert abs(np.mean(sizes) / 20_000 - 0.7968121300200199) < 0.01


# The three paths of decompose: F (the forward closure of the smallest core
# vertex) is not one SCC, so no sink is used; F is one SCC but a larger closed
# SCC lies elsewhere; F is one SCC and is the giant.  On the first two paths F
# is not the giant, so after the call that labels the components, the view
# outside the giant is built once more, with the giant as its sink.
@pytest.mark.parametrize(
    "rows, sinks, giant_set",
    [
        ([(1, 1), (2, 2), (0, 3), (3, 3)], [[], [3]], [3]),
        ([(0, 0), (2, 2), (3, 3), (1, 1)], [[0], [1, 2, 3]], [1, 2, 3]),
        ([(1, 1), (2, 2), (0, 0), (0, 1)], [[0, 1, 2]], [0, 1, 2]),
    ],
    ids=["closure-not-strong", "absorbing-closure-not-giant", "closure-is-giant"],
)
def test_decompose_paths_match_brute(rows, sinks, giant_set):
    g = digraph_from_rows(rows)
    with mock.patch.object(
        decompose_module, "_rest", wraps=decompose_module._rest
    ) as spy:
        d = decompose(g)
    assert [np.flatnonzero(c.args[2]).tolist() for c in spy.call_args_list] == sinks
    assert frozenset(d.giant.tolist()) == brute_giant(rows) == frozenset(giant_set)
    ids, members = scc(g)
    assert np.array_equal(ids, d.scc_id)
    got = sorted(tuple(m.tolist()) for m in members)
    assert got == sorted(tuple(sorted(c)) for c in brute_scc_sets(rows))
    for c, m in enumerate(members):
        assert (d.scc_id[m] == c).all()
    assert frozenset(d.one_in_core.tolist()) == brute_one_in_core(rows)
    assert np.array_equal(d.view.vertices, np.setdiff1d(np.arange(g.n), d.giant))


def test_decompose_counts_in_degrees_once():
    # the reverse CSR's row pointers come from the count, and then the core
    # peel lowers that same count in place
    g = generate(2000, 2, RngSpec(13, 2))
    indeg = np.bincount(g.endpoints.ravel(), minlength=g.n)
    counts, pointers = [], []
    indegree, row_pointers = decompose_module._indegree, decompose_module._row_pointers

    def count(endpoints):
        counts.append(indegree(endpoints))
        return counts[-1]

    def point(counts, dtype=np.int64):
        pointers.append(row_pointers(counts, dtype))
        return pointers[-1]

    with (
        mock.patch.object(decompose_module, "_indegree", side_effect=count),
        mock.patch.object(decompose_module, "_row_pointers", side_effect=point),
        mock.patch.object(
            decompose_module, "_core_mask", wraps=decompose_module._core_mask
        ) as core,
    ):
        d = decompose(g)
    assert len(counts) == core.call_count == 1
    assert core.call_args.args[1] is counts[0]
    # lowered by the peel: only the core keeps in-arcs from survivors
    assert (counts[0][d.one_in_core] > 0).all() and counts[0].sum() < indeg.sum()
    assert np.array_equal(pointers[0], np.concatenate([[0], np.cumsum(indeg)]))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_scc_labels_on_raw_out_tables_match_brute(k):
    # out-table rows are unsorted and may repeat an endpoint; scipy labels
    # them right only when it tidies the matrix first (see _scc_labels)
    for stream in range(3):
        g = generate(200, k, RngSpec(5, stream))
        ncomp, labels = _scc_labels(*_dense_csr(g.endpoints))
        got = sorted(tuple(np.flatnonzero(labels == c).tolist()) for c in range(ncomp))
        want = sorted(tuple(sorted(c)) for c in brute_scc_sets(g.endpoints.tolist()))
        assert got == want


def test_decomposition_arrays_are_stored_as_int32():
    d = decompose(generate(40_000, 2, RngSpec(13, 3)))
    for name in ("scc_id", "giant", "one_in_core"):
        assert getattr(d, name).dtype == np.int32, name
    for name in ("vertices", "indices", "comp"):
        assert getattr(d.view, name).dtype == np.int32, name


@pytest.mark.parametrize("rows", [[(1, 1), (2, 2), (0, 3), (3, 3)], None])
def test_int32_and_int64_storage_give_the_same_decomposition(rows):
    # int64 storage at n * k >= 2^31 cannot be allocated in a test, so force
    # each storage type in turn
    g = digraph_from_rows(rows) if rows else generate(40_000, 2, RngSpec(13, 4))
    got = {}
    for dtype in (np.int32, np.int64):
        with mock.patch.object(decompose_module, "_index_dtype", return_value=np.dtype(dtype)):
            got[dtype] = decompose(g)
        assert got[dtype].scc_id.dtype == got[dtype].giant.dtype == dtype
    narrow, wide = got[np.int32], got[np.int64]
    for name in ("scc_id", "height", "giant", "one_in_core"):
        assert np.array_equal(getattr(wide, name), getattr(narrow, name)), name
    for name in ("vertices", "indptr", "indices", "comp", "height"):
        assert np.array_equal(getattr(wide.view, name), getattr(narrow.view, name)), name


def test_condense_keys_do_not_wrap_past_46341_components():
    # int32 component ids: a key id * n_components + id wraps in 32 bits
    # once there are more than 46,341 components
    g = generate(300_000, 2, RngSpec(20260809, 0))
    ids, members = scc(g)
    assert ids.dtype == np.int32 and len(members) > 46_341
    adjacency, closed = condense(g, (ids, members))
    want, want_closed = condense(g, (ids.astype(np.int64), members))
    assert np.array_equal(closed, want_closed)
    assert all(np.array_equal(a, b) for a, b in zip(adjacency, want))


# scipy is loaded lazily, on the first SCC labelling.  This test process has
# imported it already, so each check runs in a fresh interpreter.
_FRESH_PRELUDE = """
import sys
import kout, kout.cli
from kout import cli, oracle
from kout.constants import derive_constants
from kout.digraph import RngSpec, generate
from kout.distance import typical_distance
from kout.harness import ExperimentConfig, run_experiment
from kout.surjection import sample_surjection
"""


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    src = str(Path(decompose_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", _FRESH_PRELUDE + code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


@pytest.mark.parametrize(
    "call",
    [
        "generate(2000, 2, RngSpec(1, 0))",
        "typical_distance(generate(2000, 2, RngSpec(1, 0)), 20, RngSpec(1, 1))",
        "sample_surjection(100, 2, RngSpec(1, 0))",
        "derive_constants(2)",
        "oracle.enumerate_all(2, 2)",
        'cli.main(["constants", "--k", "2"])',
    ],
)
def test_calls_that_label_no_scc_leave_scipy_unloaded(call):
    proc = _run_fresh(
        f"{call}\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_run_experiment_loads_scipy_before_forking_its_pool():
    # the workers inherit the loaded modules instead of each importing scipy
    proc = _run_fresh(
        "run_experiment(ExperimentConfig(n=50, k=2, reps=4, seed=1), workers=2)\n"
        "print('scipy.sparse.csgraph' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True"

import contextlib
import importlib
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from conftest import digraph_from_rows, endpoint_tables
from kout.decompose import (
    _CsrRows,
    _OutRows,
    _scc_labels,
    _sweep,
    condense,
    decompose,
    giant,
    layers,
    one_in_core,
    scc,
)
from kout.digraph import KOutDigraph, RngSpec, _indegree, _reverse_tails, _row_pointers, generate
from kout.oracle import brute_cycles, brute_giant, brute_one_in_core, brute_scc_sets
from kout.outside import distance_to_giant, longest_path, outside_view

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


# The paths of decompose: forward-backward rounds from the smallest core
# vertex find a closed SCC, the sink, and the view outside it is built; when
# a larger closed SCC lies elsewhere, the view is built once more, with the
# giant as its sink.  Every call gets a closed SCC as its sink.
PATH_CASES = [
    pytest.param([(1, 1), (2, 2), (0, 3), (3, 3)], [[3]], [3], id="closure-not-strong"),
    # {0, 1} is a 2-cycle that no other vertex enters, above the giant
    pytest.param(
        [(1, 2), (0, 0), (3, 3), (4, 2), (5, 5), (2, 6), (2, 7), (6, 6), (3, 6), (9, 9)],
        [[2, 3, 4, 5, 6, 7]],
        [2, 3, 4, 5, 6, 7],
        id="smallest-2-cycle-not-entered",
    ),
    pytest.param(
        [(0, 0), (2, 2), (3, 3), (1, 1)],
        [[0], [1, 2, 3]],
        [1, 2, 3],
        id="absorbing-closure-not-giant",
    ),
    pytest.param([(1, 1), (2, 2), (0, 0), (0, 1)], [[0, 1, 2]], [0, 1, 2], id="closure-is-giant"),
]


@pytest.mark.parametrize("rows, sinks, giant_set", PATH_CASES)
def test_decompose_paths_match_brute(rows, sinks, giant_set):
    g = digraph_from_rows(rows)
    with (
        mock.patch.object(decompose_module, "_rest", wraps=decompose_module._rest) as spy,
        mock.patch.object(
            decompose_module, "_scc_labels", wraps=decompose_module._scc_labels
        ) as labeller,
    ):
        d = decompose(g)
    assert [np.flatnonzero(c.args[3]).tolist() for c in spy.call_args_list] == sinks
    # each view's labelling gets the core vertices outside its sink, if two
    outside = [np.setdiff1d(d.one_in_core, sink).size for sink in sinks]
    assert [c.args[0].shape[0] for c in labeller.call_args_list] == [
        size for size in outside if size >= 2
    ]
    assert frozenset(d.giant.tolist()) == brute_giant(rows) == frozenset(giant_set)
    ids, members = scc(g)
    assert np.array_equal(ids, d.scc_id)
    got = sorted(tuple(m.tolist()) for m in members)
    assert got == sorted(tuple(sorted(c)) for c in brute_scc_sets(rows))
    for c, m in enumerate(members):
        assert (d.scc_id[m] == c).all()
    assert frozenset(d.one_in_core.tolist()) == brute_one_in_core(rows)
    assert np.array_equal(d.view.vertices, np.setdiff1d(np.arange(g.n), d.giant))


def brute_heights(rows):
    """Per vertex, the height of its SCC: the longest path in the
    condensation from it to a component with no arc out."""
    comp_of = {v: c for c in brute_scc_sets(rows) for v in c}
    succ = {c: {comp_of[u] for v in c for u in rows[v]} - {c} for c in comp_of.values()}
    memo = {}

    def height(c):
        if c not in memo:
            memo[c] = max((1 + height(s) for s in succ[c]), default=0)
        return memo[c]

    return [height(comp_of[v]) for v in range(len(rows))]


def assert_heights_match_brute(d, rows):
    want = brute_heights(rows)
    assert d.height[d.scc_id].tolist() == want
    view = d.view
    assert view.height[view.comp].tolist() == [want[v] for v in view.vertices.tolist()]


@settings(max_examples=80)
@given(endpoint_tables(max_n=10, max_k=3))
def test_heights_match_brute_condensation(rows):
    assert_heights_match_brute(decompose(digraph_from_rows(rows)), rows)


def test_fallback_heights_match_brute_when_the_largest_scc_is_not_closed():
    # the 4-cycle 0 1 2 3 leaks into the absorbing vertex 4, so the closure of
    # vertex 0 is not one SCC, the next round finds {4}, and the largest SCC
    # is not closed; the 2-cycle {8, 9} and the tree vertices 5, 6, 7 sit
    # above them
    rows = [(1, 1), (2, 2), (3, 3), (0, 4), (4, 4), (0, 0), (5, 4), (6, 6), (9, 6), (8, 8)]
    largest = max(brute_scc_sets(rows), key=len)
    assert largest == {0, 1, 2, 3} and any(u not in largest for v in largest for u in rows[v])
    g = digraph_from_rows(rows)
    with mock.patch.object(decompose_module, "_rest", wraps=decompose_module._rest) as spy:
        d = decompose(g)
    assert np.flatnonzero(spy.call_args_list[0].args[3]).tolist() == [4]
    assert d.giant.tolist() == [4]
    assert_heights_match_brute(d, rows)
    assert d.view.dist.tolist() == [4, 3, 2, 1, 5, 1, 2, 2, 3]
    assert d.height.tolist() == [0, 1, 2, 3, 4, 4]


def brute_distances(rows, giant):
    """Per vertex outside ``giant``, the arcs of a shortest path into it, -1
    where there is none: a BFS from each vertex."""
    out = []
    for v in sorted(set(range(len(rows))) - giant):
        d, front, seen = 0, {v}, {v}
        while front and not front & giant:
            front = {u for x in front for u in rows[x]} - seen
            seen |= front
            d += 1
        out.append(d if front else -1)
    return out


def test_core_2_cycle_at_height_2_with_tails_from_several_peel_rounds():
    # the giant is the 3-cycle {0, 1, 2}; the 2-cycle {3, 4} has an arc into
    # it (height 1), and the 2-cycle {5, 6} enters {3, 4} (height 2); the
    # tails 7 .. 14 are not in the core, and the peel deletes them in rounds
    # 0 (7, 8, 12, 13, 14), 1 (9, 11) and 2 (10)
    rows = [(1, 1), (2, 2), (0, 0), (4, 0), (3, 3), (6, 3), (5, 5), (5, 5)]
    rows += [(9, 9), (10, 10), (6, 6), (10, 0), (11, 4), (3, 3), (0, 1)]
    g = digraph_from_rows(rows)
    _, rounds = decompose_module._core_mask(g.endpoints, decompose_module._indegree(g.endpoints))
    assert [sorted(r.tolist()) for r in rounds] == [[7, 8, 12, 13, 14], [9, 11], [10]]
    d = decompose(g)
    assert d.giant.tolist() == [0, 1, 2] and d.one_in_core.tolist() == list(range(7))
    assert_heights_match_brute(d, rows)
    assert d.height[d.scc_id].tolist() == [0, 0, 0, 1, 1, 2, 2, 3, 5, 4, 3, 4, 5, 2, 1]
    want = brute_distances(rows, {0, 1, 2})
    assert d.view.dist.tolist() == want == [1, 2, 2, 3, 3, 6, 5, 4, 1, 2, 2, 1]
    view = outside_view(g, d.giant)
    assert view.dist.tolist() == want
    assert np.array_equal(view.height[view.comp], d.view.height[d.view.comp])


def test_long_heights_look_at_each_row_a_bounded_number_of_times():
    # k = 1: the 6-cycle 0..5 (the giant), the 2-cycle {6, 7}, a path of
    # 3000 vertices into vertex 0 and one of 40 into vertex 6.  A height is
    # the distance to one's own cycle, a distance the one to the giant.  A
    # round that looked at every waiting row would look at about 3000^2 / 2.
    long, short = 3000, 40
    a, b = 8, 8 + long  # the first vertex of each path
    rows = [((v + 1) % 6,) for v in range(6)] + [(7,), (6,)]
    rows += [(a + i + 1,) for i in range(long - 1)] + [(0,)]
    rows += [(b + i + 1,) for i in range(short - 1)] + [(6,)]
    looked = []
    by_row = decompose_module._by_row

    def spy(ufunc, table, dtype=None):
        # the rounds over the peel take row maxima (heights) and minima
        # (distances), the giant check's pulls row ors
        if ufunc in (np.maximum, np.minimum, np.logical_or):
            looked.append(table.shape[0])
        return by_row(ufunc, table, dtype)

    with mock.patch.object(decompose_module, "_by_row", spy):
        d = decompose(digraph_from_rows(rows))
    assert d.giant.tolist() == list(range(6))
    want = [0] * 8 + list(range(long, 0, -1)) + list(range(short, 0, -1))
    assert d.height[d.scc_id].tolist() == want
    assert d.view.height[d.view.comp].tolist() == want[6:]
    assert d.view.dist.tolist() == [-1, -1] + want[8 : 8 + long] + [-1] * short
    assert sum(looked) <= 4 * len(rows)


def test_decompose_counts_in_degrees_once():
    # the core peel lowers the count in place, and the lowered count gives
    # the row pointers of the reverse CSR of the arcs out of the core
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
    from_core = np.bincount(g.endpoints[d.one_in_core].ravel(), minlength=g.n)
    assert np.array_equal(pointers[0], np.concatenate([[0], np.cumsum(from_core)]))


def _partition(ncomp: int, labels: np.ndarray) -> list[tuple[int, ...]]:
    return sorted(tuple(np.flatnonzero(labels == c).tolist()) for c in range(ncomp))


def _scipy_partition(indptr: np.ndarray, indices: np.ndarray) -> list[tuple[int, ...]]:
    """SCCs by scipy, the test-only reference.  Handed float64 CSR data whose
    rows are unsorted or repeat a head, its SCC pass mislabels (44
    components instead of 6 on generate(200, 4, RngSpec(5, 0))) or does not
    return (generate(200, 3, RngSpec(5, 1))), so the matrix goes through
    COO, which sums parallel arcs and sorts every row."""
    n = indptr.size - 1
    tails = np.repeat(np.arange(n), np.diff(indptr))
    mat = coo_matrix((np.ones(indices.size), (tails, indices)), shape=(n, n)).tocsr()
    return _partition(*connected_components(mat, directed=True, connection="strong"))


def _assert_scc_labels_right(rows: list[list[int]]) -> None:
    # ragged rows are padded with the row count, an arc out of the table
    n, k = len(rows), max(1, *map(len, rows))
    ncomp, labels = _scc_labels(np.array([r + [n] * (k - len(r)) for r in rows]))
    indptr = _row_pointers(np.array([len(r) for r in rows], dtype=np.int64))
    indices = np.array([u for r in rows for u in r], dtype=np.int64)
    assert labels.shape == (len(rows),) and set(labels.tolist()) == set(range(ncomp))
    got = _partition(ncomp, labels)
    assert got == sorted(tuple(sorted(c)) for c in brute_scc_sets(rows))
    assert got == _scipy_partition(indptr, indices)
    # labels are reverse topological: no arc climbs to a higher label
    assert all(labels[v] >= labels[u] for v, r in enumerate(rows) for u in r)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_scc_labels_on_raw_out_tables_match_brute(k):
    # out-table rows are unsorted and may repeat an endpoint
    for stream in range(3):
        _assert_scc_labels_right(generate(200, k, RngSpec(5, stream)).endpoints.tolist())


@st.composite
def csr_rows(draw, max_n: int = 10, max_degree: int = 4):
    """Ragged rows: empty rows, self-loops and parallel arcs, 0-4 arcs each;
    ``_assert_scc_labels_right`` pads them into an out-table."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    head = st.integers(min_value=0, max_value=n - 1)
    return draw(st.lists(st.lists(head, max_size=max_degree), min_size=n, max_size=n))


@settings(max_examples=150)
@given(csr_rows())
def test_scc_labels_on_raw_csr_match_brute_and_scipy(rows):
    _assert_scc_labels_right(rows)


@pytest.mark.parametrize("pairs", [False, True], ids=["identity", "2-cycles"])
def test_decompose_labels_100k_small_closed_components(pairs):
    # every core vertex but the giant's lies outside it, so the labeller gets
    # all of them at once; a quadratic labeller would not finish here
    n = 100_000
    v = np.arange(n)
    d = decompose(KOutDigraph(n, 1, (v ^ 1 if pairs else v)[:, None]))
    size = 2 if pairs else 1
    assert np.array_equal(d.scc_id, v // size)
    assert d.n_components == n // size and not d.height.any()
    assert d.giant.tolist() == list(range(size)) and not d.all_reach_giant


def test_decomposition_arrays_are_stored_as_int32():
    d = decompose(generate(40_000, 2, RngSpec(13, 3)))
    for name in ("scc_id", "giant", "one_in_core"):
        assert getattr(d, name).dtype == np.int32, name
    for name in ("vertices", "table", "comp"):
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
    for name in ("vertices", "table", "comp", "height", "dist"):
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


def test_decompose_finds_the_giant_when_the_closure_is_not_strong_on_an_int32_table():
    # n^2 > 2^31, so reverse keys built in int32 would wrap.  Vertices
    # 1 .. n-1 form a cycle along letter 0 and their letter 1 stays among
    # them: the giant.  Vertex 0 keeps a self-loop and an arc into the cycle,
    # so it is in the core, and its closure is everything but not one SCC:
    # only the backward sweep over the reverse CSR can tell
    n = 50_000
    v = np.arange(n)
    ep = np.stack([v % (n - 1) + 1, np.random.default_rng(8).integers(1, n, n)], axis=1)
    ep[0, 1] = 0
    g = KOutDigraph(n, 2, ep)
    assert g.endpoints.dtype == np.int32
    d = decompose(g)
    assert np.array_equal(d.giant, v[1:])
    assert np.array_equal(d.one_in_core, v)
    assert d.scc_id.tolist() == [1] + [0] * (n - 1) and d.height.tolist() == [0, 1]
    assert d.all_reach_giant
    assert d.view.vertices.tolist() == [0] and d.view.table.tolist() == [[1, 0]]


def test_decompose_sees_a_strong_closure_on_an_int32_table():
    # whp F is the giant: a backward sweep over wrapped reverse keys would
    # miss part of it, and the next round, from inside the giant, would find
    # the same F again
    g = generate(50_000, 2, RngSpec(22, 3))
    with mock.patch.object(decompose_module, "_rest", wraps=decompose_module._rest) as spy:
        d = decompose(g)
    assert len(spy.call_args_list) == 1
    assert np.array_equal(np.flatnonzero(spy.call_args.args[3]), d.giant)


# The backward sweep from v over the forward closure F of v: pushes over the
# reverse CSR while the frontier is the shorter list, pulls over the
# out-table once the rows of F still waiting are.  Its levels and marks must
# be those of a push-only sweep, for every start vertex, and both must be
# the levels of a plain BFS, whether every push is a numpy step (THIN = 0)
# or a scalar one (THIN = n).
def _levels(seen: np.ndarray, v: int, rows, table=None) -> list[list[int]]:
    return [np.asarray(f).tolist() for f in _sweep(seen, [v], rows, table)]


def _brute_levels(succ: list[list[int]], v: int, allowed: set[int]) -> list[list[int]]:
    levels, seen = [[v]], {v}
    while levels[-1]:
        levels.append(sorted({u for x in levels[-1] for u in succ[x] if u in allowed} - seen))
        seen.update(levels[-1])
    return levels[:-1]


def _assert_sweep_back_matches_push(endpoints: np.ndarray) -> None:
    n = endpoints.shape[0]
    indptr, tails = _row_pointers(_indegree(endpoints)), _reverse_tails(endpoints, np.int64)
    rev = _CsrRows(indptr, tails)
    succ = endpoints.tolist()
    pred = [np.flatnonzero((endpoints == u).any(axis=1)).tolist() for u in range(n)]
    for thin, v in itertools.product((0, n), range(n)):
        with mock.patch.object(decompose_module, "THIN", thin):
            closure = np.zeros(n, dtype=bool)
            forward = _levels(closure, v, _OutRows(endpoints))
            want, got = ~closure, ~closure
            want_levels = _levels(want, v, rev)
            got_levels = _levels(got, v, rev, endpoints)
        assert forward == _brute_levels(succ, v, set(range(n))), (endpoints.tolist(), v, thin)
        assert np.array_equal(got, want), (endpoints.tolist(), v)
        assert got.all() == want.all()
        assert got_levels == want_levels, (endpoints.tolist(), v)
        inside = set(np.flatnonzero(closure).tolist())
        assert want_levels == _brute_levels(pred, v, inside), (endpoints.tolist(), v, thin)


@pytest.mark.parametrize("n, k", [(3, 2), (2, 3), (4, 1)])
def test_sweep_back_matches_push_on_every_small_table(n, k):
    for flat in itertools.product(range(n), repeat=n * k):
        _assert_sweep_back_matches_push(np.array(flat).reshape(n, k))


def test_sweep_back_matches_push_on_random_tables():
    gen = np.random.default_rng(20261020)
    for _ in range(1000):
        n, k = int(gen.integers(1, 13)), int(gen.integers(1, 4))
        _assert_sweep_back_matches_push(gen.integers(0, n, size=(n, k)))


@pytest.mark.parametrize("rows", [c.values[0] for c in PATH_CASES], ids=[c.id for c in PATH_CASES])
def test_sweep_back_matches_push_on_the_hand_built_paths(rows):
    _assert_sweep_back_matches_push(np.array(rows))


@pytest.mark.parametrize(
    "rows",
    [
        [(v + 1,) for v in range(59)] + [(59,)],  # a chain into a self-loop
        [((v + 1) % 60,) for v in range(60)],  # one cycle
        # a 3-cycle with three chains of 19 into it
        [((v + 1) % 3,) for v in range(3)]
        + [(v + 1 if (v - 2) % 19 else 0,) for v in range(3, 60)],
    ],
    ids=["chain", "cycle", "broom"],
)
def test_sweep_back_matches_push_on_k1_chains(rows):
    _assert_sweep_back_matches_push(np.array(rows))


@contextlib.contextmanager
def _sweep_rounds():
    """Spies on decompose's sweeps: per call of ``_sweep`` with a table, in
    call order, the table and the kind of each round, "push" or "pull"; a
    scalar step over the reverse CSR (``_CsrRows.heads``) counts as a push."""
    sweep, rows, by_row = decompose_module._sweep, decompose_module._rows, decompose_module._by_row
    heads = _CsrRows.heads
    calls: list[tuple[np.ndarray, list[str]]] = []
    active: list[list[str]] = []  # the rounds of the sweep now running

    def spy(seen, front, push, table=None):
        rounds: list[str] = []
        if table is not None:
            calls.append((table, rounds))
        levels = sweep(seen, front, push, table)
        while True:
            active.append(rounds)
            try:
                level = next(levels, None)
            finally:
                active.pop()
            if level is None:
                return
            yield level

    def push(*args):
        if active:
            active[-1].append("push")
        return rows(*args)

    def scalar(self, front):
        if active:
            active[-1].append("push")
        return heads(self, front)

    def pull(ufunc, *args):
        if active and ufunc is np.logical_or:
            active[-1].append("pull")
        return by_row(ufunc, *args)

    with (
        mock.patch.object(decompose_module, "_sweep", spy),
        mock.patch.object(decompose_module, "_rows", push),
        mock.patch.object(_CsrRows, "heads", scalar),
        mock.patch.object(decompose_module, "_by_row", pull),
    ):
        yield calls


def test_backward_sweep_pushes_first_and_pulls_last_at_100k():
    g = generate(100_000, 2, RngSpec(20261020, 0))
    with (
        _sweep_rounds() as calls,
        mock.patch.object(decompose_module, "_rest", wraps=decompose_module._rest) as rest,
    ):
        d = decompose(g)
    assert rest.call_count == 1  # the closure was found strong: it is the giant
    table, rounds = calls[0]  # the check that the closure is strong
    assert table is g.endpoints
    assert rounds[0] == "push" and rounds[-1] == "pull", rounds
    assert np.array_equal(d.giant, np.flatnonzero(rest.call_args.args[3]))


def _chain(length: int) -> list[tuple[int, int]]:
    """k = 2: i -> (i, i + 1), the last vertex absorbing."""
    return [(i, min(i + 1, length - 1)) for i in range(length)]


def _ladder(m: int) -> list[tuple[int, int]]:
    """k = 2: roots j = 0 .. m - 1 in label order; root j < m - 1 lies on a
    cycle of 2(m - j) + 1 vertices, the root first, and has an arc to root
    j + 1; root m - 1 is absorbing.  From root j the last level of the
    forward closure is the end of root j's own cycle, which reaches it."""
    rows: list[tuple[int, int]] = []
    for j in range(m - 1):
        root, size = len(rows), 2 * (m - j) + 1
        rows.append((root + 1, root + size))
        rows += [(root + i + 1, root + i + 1) for i in range(1, size - 1)] + [(root, root)]
    return rows + [(len(rows), len(rows))]


@pytest.mark.parametrize(
    "rows, rounds", [(_chain(20), 2), (_ladder(4), 4)], ids=["chain", "ladder"]
)
def test_forward_backward_rounds_on_nested_closures_match_brute(rows, rounds):
    # on the chain a restart at the smallest vertex outside B would take one
    # round per link; the ladder's last level falls in B every round, so
    # each round starts at the next root
    g = digraph_from_rows(rows)
    with _sweep_rounds() as calls:
        d = decompose(g)
    assert len(calls) == rounds  # one backward sweep, the one with a table, per round
    assert frozenset(d.giant.tolist()) == brute_giant(rows) == {len(rows) - 1}
    _, members = scc(g)
    assert sorted(tuple(m.tolist()) for m in members) == sorted(
        tuple(sorted(c)) for c in brute_scc_sets(rows)
    )
    assert frozenset(d.one_in_core.tolist()) == brute_one_in_core(rows)
    assert_heights_match_brute(d, rows)
    assert d.view.dist.tolist() == brute_distances(rows, {len(rows) - 1})


def _assert_decomposition_matches_brute(g, rows):
    d = decompose(g)
    _, members = scc(g)
    assert sorted(tuple(m.tolist()) for m in members) == sorted(
        tuple(sorted(c)) for c in brute_scc_sets(rows)
    )
    assert frozenset(d.giant.tolist()) == brute_giant(rows)
    assert frozenset(d.one_in_core.tolist()) == brute_one_in_core(rows)
    assert_heights_match_brute(d, rows)
    assert d.view.dist.tolist() == brute_distances(rows, set(d.giant.tolist()))


def test_scalar_and_numpy_sweeps_decompose_as_the_brute_oracles_do():
    # THIN = 0 runs every push of every sweep as a numpy step, THIN = n as a
    # scalar one: the forward closures, the backward checks and the distance
    # sweep of the view's core vertices; the last table is Fortran-ordered
    gen = np.random.default_rng(33)
    tables = [gen.integers(0, n, size=(n, k)) for n, k in gen.integers(1, [14, 4], size=(60, 2))]
    tables += [_chain(13), _ladder(3), np.asfortranarray(gen.integers(0, 13, size=(13, 3)))]
    for ep in map(np.asarray, tables):
        g, rows = KOutDigraph(*ep.shape, ep), ep.tolist()
        for thin in (0, g.n):
            with mock.patch.object(decompose_module, "THIN", thin):
                _assert_decomposition_matches_brute(g, rows)


def _long_cycle(length: int) -> list[tuple[int, int]]:
    """k = 2: a cycle of ``length`` vertices with parallel arcs whose last
    vertex's second arc enters a closed 3-cycle."""
    rows = [(v + 1, v + 1) for v in range(length - 1)] + [(0, length)]
    return rows + [(length + 1,) * 2, (length + 2,) * 2, (length,) * 2]


@pytest.mark.parametrize(
    "rows, height, dist",
    [
        # the cycle is one component of height 1, at distance L - v from the 3-cycle
        (_long_cycle(3000), [1] * 3000 + [0] * 3, list(range(3000, 0, -1))),
        # every vertex is a component of its own, at height and distance L - 1 - i
        (_chain(3000), list(range(2999, -1, -1)), list(range(2999, 0, -1))),
    ],
    ids=["long-cycle", "chain"],
)
def test_long_paths_take_no_numpy_step_per_level(rows, height, dist):
    # every level of every sweep on these inputs holds one vertex: the
    # forward closures, the backward checks and the distance sweep of the
    # view's core (in decompose and once more in distance_to_giant) each run
    # up to 3000 levels, all scalar steps but for a few pulls at the end of a
    # backward check (THIN = 0 makes each level a numpy push)
    g = digraph_from_rows(rows)
    pushes, ors = [], []
    by_row = decompose_module._by_row

    def pull(ufunc, *args):
        if ufunc is np.logical_or:
            ors.append(args[0].shape[0])
        return by_row(ufunc, *args)

    def numpy_step(push):
        def step(self, front):
            pushes.append(len(front))
            return push(self, front)

        return step

    with (
        mock.patch.object(_OutRows, "push", numpy_step(_OutRows.push)),
        mock.patch.object(_CsrRows, "push", numpy_step(_CsrRows.push)),
        mock.patch.object(decompose_module, "_by_row", pull),
    ):
        d = decompose(g)
        w = distance_to_giant(g, d.giant)
    assert pushes == []
    # the pulls, and the masks of the rows with an arc out of a view's core
    # (_core_levels) and with one that stays in the view (_rest), twice each
    assert len(ors) <= 8, ors
    assert d.height[d.scc_id].tolist() == height
    assert d.view.dist.tolist() == dist and tuple(w) == (dist[0], 0)
    assert d.one_in_core.size == g.n
    assert d.giant.tolist() == np.flatnonzero(np.array(height) == 0).tolist()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_decompose_commutes_with_relabelling_at_1e5(k):
    # vertex v becomes perm[v], and each row's arc labels are shuffled: the
    # partition, heights, one-in-core and view distances must follow, and
    # the giant must be a largest closed SCC (at k = 1 two may tie)
    g = generate(100_000, k, RngSpec(2026, k))
    gen = np.random.default_rng(k)
    perm = gen.permutation(g.n)
    ep = np.empty_like(g.endpoints)
    ep[perm] = perm[gen.permuted(g.endpoints, axis=1)]
    h = KOutDigraph(g.n, k, ep)
    d, e = decompose(g), decompose(h)
    assert e.n_components == d.n_components
    assert np.unique(np.stack([d.scc_id, e.scc_id[perm]]), axis=1).shape[1] == d.n_components
    assert np.array_equal(e.height[e.scc_id][perm], d.height[d.scc_id])
    assert np.array_equal(e.one_in_core, np.sort(perm[d.one_in_core]))
    assert e.all_reach_giant == d.all_reach_giant
    gid = e.scc_id[e.giant[0]]
    assert e.height[gid] == 0 and np.array_equal(e.giant, np.flatnonzero(e.scc_id == gid))
    assert e.giant.size == np.bincount(e.scc_id)[e.closed].max() == d.giant.size
    want = np.sort(perm[d.giant])
    view = e.view if np.array_equal(e.giant, want) else outside_view(h, want)
    dist = np.empty(g.n, dtype=np.int32)
    dist[perm[d.view.vertices]] = d.view.dist
    assert np.array_equal(view.vertices, np.setdiff1d(np.arange(g.n), want))
    assert np.array_equal(view.dist, dist[view.vertices])


def _scipy_distances_to_sink(view) -> np.ndarray:
    """Arcs from each view vertex to the giant, -1 where out of reach: scipy's
    BFS from a super-sink m over the reversed view, whose row v gets an arc
    from the sink once v has an arc into the giant."""
    m = view.size
    tails, heads = view.arcs()
    into_sink = np.flatnonzero((view.table == m).any(axis=1))
    src = np.concatenate([heads, np.full(into_sink.size, m)])
    dst = np.concatenate([tails, into_sink])
    mat = coo_matrix((np.ones(src.size), (src, dst)), shape=(m + 1, m + 1)).tocsr()
    dist = dijkstra(mat, directed=True, indices=m, unweighted=True)[:m]
    return np.where(np.isinf(dist), -1, dist).astype(np.int64)


def test_view_distances_match_a_scipy_bfs_from_a_super_sink_at_2e4():
    # at k = 1 the view is most of the digraph and its distances run long
    for k, seed in ((1, 1), (2, 5), (3, 7)):
        g = generate(20_000, k, RngSpec(seed, 0))
        d = decompose(g)
        assert np.array_equal(d.view.dist, _scipy_distances_to_sink(d.view)), k
        assert d.view.dist.dtype == np.int32


# The library never imports scipy; the tests use it as a reference, so this
# test process has imported it, and each check runs in a fresh interpreter.
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


def _run_fresh(code: str, before: str = "") -> subprocess.CompletedProcess:
    src = str(Path(decompose_module.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", before + _FRESH_PRELUDE + code],
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


# Every path that labels SCCs: the closure is the giant (k = 2) or not one SCC
# (the hand-built table), many small components outside it (k = 1), cycles
# in the view, forked pool workers, the phase sweep and the CLI.
_LABELLING_CALLS = """
import dataclasses
from kout.decompose import decompose
from kout.digraph import KOutDigraph
from kout.distance import phase_sweep
from kout.outside import outside_report

rows = [(1, 2), (0, 0), (3, 3), (4, 2), (5, 5), (2, 6), (2, 7), (6, 6), (3, 6), (9, 9)]
graphs = [KOutDigraph(10, 2, rows)]
graphs += [generate(n, k, RngSpec(5, s)) for n, k in ((40, 2), (300, 1)) for s in range(8)]
for g in graphs:
    d = decompose(g)
    rep = outside_report(g, d)
    print(d.scc_id.tolist(), d.height.tolist(), d.giant.tolist(), d.view.comp.tolist())
    print(dataclasses.replace(rep, spectra_sizes=rep.spectra_sizes.tolist()))
records = run_experiment(ExperimentConfig(n=40, k=2, reps=8, seed=3), workers=2)
print([dataclasses.replace(r, ms_elapsed=0.0) for r in records])
print(phase_sweep(30, 1, 4, 6, RngSpec(2, 0)))
cli.main(["montecarlo", "--n", "200", "--k", "2", "--reps", "4", "--seed", "1"])
cli.main(["analyze", "--n", "200", "--k", "2", "--seed", "1", "--json"])
"""


def _without_elapsed(text: str) -> list[str]:
    return [line for line in text.splitlines() if '"ms_elapsed"' not in line]


def test_library_runs_and_prints_the_same_without_scipy(monkeypatch):
    # with scipy unimportable, every SCC labelling still runs and prints what
    # it prints in this process, where scipy is loaded
    monkeypatch.setenv("KOUT_THREADS", "2")
    proc = _run_fresh(_LABELLING_CALLS, before='import sys\nsys.modules["scipy"] = None\n')
    assert proc.returncode == 0, proc.stderr
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(_FRESH_PRELUDE + _LABELLING_CALLS, {})
    assert "scipy" in sys.modules
    assert _without_elapsed(proc.stdout) == _without_elapsed(here.getvalue())


def test_heights_past_uint16_sort_as_the_brute_order():
    # k = 1: the chain i -> i + 1 of 2**16 + 1 vertices, the last absorbing,
    # so the heights run up to 2**16 and sort as uint32; vertices a and b
    # enter vertex 0 (height 2**16 + 1 each, a tie), c enters vertex 1 (a
    # tie with vertex 0 at 2**16)
    length = 2**16 + 1
    a, b, c = length, length + 1, length + 2
    rows = [(min(i + 1, length - 1),) for i in range(length)] + [(0,), (0,), (1,)]
    height = list(range(length - 1, -1, -1)) + [length, length, length - 1]
    # ids by (height, smallest label): one singleton per vertex
    order = sorted(range(len(rows)), key=lambda v: (height[v], v))
    ids = [0] * len(rows)
    for i, v in enumerate(order):
        ids[v] = i
    d = decompose(digraph_from_rows(rows))
    assert d.scc_id.tolist() == ids and d.height[d.scc_id].tolist() == height
    assert ids[c] == ids[0] + 1 and ids[b] == ids[a] + 1 == len(rows) - 1
    view = d.view
    assert view.comp.tolist() == [ids[v] - 1 for v in view.vertices.tolist()]
    assert longest_path(view) == length - 1  # a -> 0 -> 1 -> ... -> length - 2

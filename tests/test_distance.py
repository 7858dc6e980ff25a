import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from conftest import digraph_from_rows, endpoint_tables
from kout import digraph
from kout.decompose import _distinct, giant, one_in_core
from kout.digraph import KOutDigraph, RngSpec, generate
from kout.distance import (
    _in_arcs,
    _PairSearch,
    has_indegree_zero_vertex,
    is_strongly_connected,
    phase_sweep,
    typical_distance,
)
from kout.oracle import brute_distance

distance = importlib.import_module("kout.distance")


def test_typical_distance_3cycle(rows_3cycle):
    g = digraph_from_rows(rows_3cycle)
    s = typical_distance(g, 200, RngSpec(1))
    assert s.pairs_drawn == 200
    assert s.finite_count == 200  # strongly connected
    assert set(s.distances) <= {0, 1, 2}
    # distance 1 pairs exist and distance 0 only for equal endpoints
    assert any(d == 1 for d in s.distances)


def test_typical_distance_unreachable_excluded():
    g = digraph_from_rows([(0,), (1,)])
    s = typical_distance(g, 400, RngSpec(2))
    assert s.finite_count == len(s.distances)
    assert 0 < s.finite_count < 400  # cross pairs are unreachable
    assert all(d == 0 for d in s.distances)


def test_typical_distance_validates():
    g = digraph_from_rows([(0,)])
    with pytest.raises(ValueError):
        typical_distance(g, 0, RngSpec(1))


def test_strongly_connected_cases(rows_3cycle, rows_chain):
    assert is_strongly_connected(digraph_from_rows(rows_3cycle))
    assert not is_strongly_connected(digraph_from_rows(rows_chain))
    assert is_strongly_connected(digraph_from_rows([(0, 0)]))  # n = 1


def test_not_strongly_connected_when_one_vertex_cannot_get_back():
    # n^2 > 2^31, so reverse keys built in int32 would wrap.  Every in-degree
    # is at least 1 and vertex 0 reaches everything along the chain
    # i -> i + 1 of letter 0, but vertex n - 1 holds two self-loops and
    # cannot get back: only the backward sweep can tell
    n = 50_000
    v = np.arange(n)
    ep = np.stack([np.minimum(v + 1, n - 1), v], axis=1)
    ep[1, 1] = 0
    g = KOutDigraph(n, 2, ep)
    assert g.endpoints.dtype == np.int32 and not has_indegree_zero_vertex(g)
    assert not is_strongly_connected(g)
    ep[n - 1] = 0  # the way back: now every vertex reaches 0 along the chain
    assert is_strongly_connected(KOutDigraph(n, 2, ep))


def test_strong_connectivity_matches_scipy_at_2000():
    # around the threshold k = ln n (about 7.6), both outcomes come up
    seen = []
    for k in range(4, 10):
        for stream in range(4):
            g = generate(2000, k, RngSpec(41, stream))
            tails = np.repeat(np.arange(g.n), g.k)
            mat = coo_matrix((np.ones(tails.size), (tails, g.endpoints.ravel())), shape=(g.n, g.n))
            ncomp, _ = connected_components(mat.tocsr(), directed=True, connection="strong")
            seen.append(is_strongly_connected(g))
            assert seen[-1] == (ncomp == 1), (k, stream)
    assert any(seen) and not all(seen)


def test_indegree_zero_implies_not_sc():
    g = digraph_from_rows([(1, 1), (1, 1)])  # vertex 0 has in-degree 0
    assert has_indegree_zero_vertex(g)
    assert not is_strongly_connected(g)


@settings(max_examples=60)
@given(endpoint_tables(max_n=9, max_k=3))
def test_sc_implies_full_giant_and_core(rows):
    g = digraph_from_rows(rows)
    if is_strongly_connected(g):
        assert giant(g).size == g.n
        assert one_in_core(g).size == g.n


def test_phase_sweep_shape_and_bounds():
    points = phase_sweep(60, 2, 4, 30, RngSpec(17))
    assert [p.k for p in points] == [2, 3, 4]
    for p in points:
        assert 0.0 <= p.fraction_strongly_connected <= 1.0
        assert 0.0 <= p.fraction_with_indeg_zero_vertex <= 1.0
        # in-degree-0 implies not strongly connected
        assert (
            p.fraction_with_indeg_zero_vertex
            <= 1.0 - p.fraction_strongly_connected + 1e-12
        )


def test_phase_sweep_deterministic():
    a = phase_sweep(50, 2, 3, 20, RngSpec(5))
    b = phase_sweep(50, 2, 3, 20, RngSpec(5))
    assert a == b


def test_phase_sweep_validates():
    with pytest.raises(ValueError):
        phase_sweep(10, 3, 2, 5, RngSpec(0))
    with pytest.raises(ValueError):
        phase_sweep(10, 2, 3, 0, RngSpec(0))


def test_phase_sweep_refuses_streams_past_2_to_the_64_before_drawing():
    # 3 values of k times 4 replicates take streams stream .. stream + 11
    with mock.patch.object(distance, "generate", wraps=generate) as spy:
        with pytest.raises(ValueError, match=r"stream <= 2\*\*64 - 12 .*got 18446744073709551611"):
            phase_sweep(50, 1, 3, 4, RngSpec(1, 2**64 - 5))
        assert spy.call_count == 0
        points = phase_sweep(50, 1, 3, 4, RngSpec(1, 2**64 - 12))
        assert spy.call_args.args[2] == RngSpec(1, 2**64 - 1) and spy.call_count == 12
    assert [p.k for p in points] == [1, 2, 3]


def test_typical_distance_matches_bfs_small():
    # every sampled distance equals a brute-force BFS on the same drawn pair
    g = generate(30, 2, RngSpec(77, 3))
    rows = g.endpoints.tolist()
    rng = RngSpec(123, 9)
    draws = rng.generator().integers(0, 30, size=(300, 2), dtype=np.int64)
    want = [brute_distance(rows, a, b) for a, b in draws.tolist()]
    sample = typical_distance(g, 300, rng)
    assert sample.distances == [d for d in want if d is not None]
    assert sample.finite_count == len(sample.distances)
    assert 0 < sample.finite_count < 300


@settings(max_examples=150)
@given(endpoint_tables(max_n=9, max_k=3))
def test_pair_search_matches_brute_distance(rows):
    # one search object answers every ordered pair, so a mark left over from
    # an earlier pair would show up as a wrong distance
    search = _PairSearch(digraph_from_rows(rows))
    n = len(rows)
    for src in range(n):
        for dst in range(n):
            assert search(src, dst) == brute_distance(rows, src, dst), (src, dst)
    # every vertex mark is reset, and the padding's slot still reads -1
    assert not search.marks[:n].any() and search.marks[n] == -1


def test_int32_and_int64_tables_give_the_same_distance_sample():
    g = generate(50_000, 2, RngSpec(22, 2))
    with mock.patch.object(digraph, "_index_dtype", return_value=np.dtype(np.int64)):
        wide = KOutDigraph(g.n, g.k, g.endpoints)
    assert g.endpoints.dtype == np.int32 and wide.endpoints.dtype == np.int64
    narrow_sample = typical_distance(g, 300, RngSpec(5))
    assert narrow_sample.finite_count > 200
    assert typical_distance(wide, 300, RngSpec(5)) == narrow_sample


def ladder(layers):
    """k = 2 rows of a ladder: layer i holds vertices 2i and 2i + 1, and both
    arcs of each go to both vertices of layer i + 1, so the number of
    shortest paths doubles at every layer; the last layer points at itself."""
    rows = [(2 * i + 2, 2 * i + 3) for i in range(layers - 1) for _ in range(2)]
    return rows + [(2 * layers - 2, 2 * layers - 1)] * 2


def spy_on_expansions(search, monkeypatch):
    """Record (front entries, reached entries) of every expansion of either
    side of ``search``, the backward side's padding and continuation rows
    counted, failing at once on more than n * k entries (so that a level
    growing without bound stops the test, not the host)."""
    sizes = []
    limit = search.endpoints.size

    class Table:
        def take(self, front, axis):
            reached = table.take(front, axis=axis)
            sizes.append((front.size, reached.size))
            assert reached.size <= limit, sizes
            return reached

    def in_arcs(reverse, front, n):
        reached = _in_arcs(reverse, front, n)
        sizes.append((front.size, reached.size))
        assert reached.size <= limit, sizes
        return reached

    table = search.endpoints
    monkeypatch.setattr(search, "endpoints", Table())
    monkeypatch.setattr(distance, "_in_arcs", in_arcs)
    return sizes


def test_ladder_levels_stay_within_n_k_entries(monkeypatch):
    # without deduplication a level of the ladder would double every step:
    # 2**12 entries where the two sides meet, against n * k = 96
    rows = ladder(24)
    g = digraph_from_rows(rows)
    search = _PairSearch(g)
    sizes = spy_on_expansions(search, monkeypatch)
    for src in range(g.n):
        for dst in range(g.n):
            assert search(src, dst) == brute_distance(rows, src, dst), (src, dst)
    assert search(0, g.n - 1) == 23
    assert max(reached for _, reached in sizes) > 2 * g.k


def test_a_search_does_o_of_n_k_work_on_a_long_ladder(monkeypatch):
    # levels that each stay under n entries would still cost about n entries
    # every log2 n levels along a ladder of n / 2 layers
    g = digraph_from_rows(ladder(1000))
    search = _PairSearch(g)
    sizes = spy_on_expansions(search, monkeypatch)
    assert search(0, g.n - 1) == 999
    # each side: at most n * k before it deduplicates and n * k after
    assert sum(reached for _, reached in sizes) <= 4 * g.n * g.k


def test_backward_expansion_stays_within_n_k_entries_at_a_hub(monkeypatch):
    # dst ends a 10-layer ladder whose first layer {0, 1} is a hub of in-degree
    # 1000 each, so the backward level holding 0 and 1 lists each 256 times;
    # src roots a binary tree of depth 10 whose levels stay wider than the
    # backward ones, so the backward side does reach the hub (and no further:
    # the tree's leaves lead back to src and the pair is unreachable)
    rows = [row if i < 18 else (i, i) for i, row in enumerate(ladder(10))]
    tree = len(rows)
    rows += [(tree + 2 * i + 1, tree + 2 * i + 2) for i in range(2**10 - 1)]
    rows += [(tree, tree)] * 2**10
    rows += [(0, 0)] * 500 + [(1, 1)] * 500
    g = digraph_from_rows(rows)
    search = _PairSearch(g)
    sizes = spy_on_expansions(search, monkeypatch)
    assert search(tree, 18) is None is brute_distance(rows, tree, 18)
    assert len(sizes) > 20  # both sides ran to depth 10


def test_random_pairs_need_no_deduplication(monkeypatch):
    # in a random digraph the levels stay far below n entries, so no level is
    # sorted; the distances equal the searches that sort every level
    g = generate(10_000, 2, RngSpec(3, 1))
    rows = g.endpoints.tolist()
    search = _PairSearch(g)
    pairs = RngSpec(4).generator().integers(0, g.n, size=(200, 2)).tolist()
    with mock.patch.object(distance, "_distinct", wraps=_distinct) as spy:
        got = [search(a, b) for a, b in pairs]
    assert spy.call_count == 0
    assert got[:40] == [brute_distance(rows, a, b) for a, b in pairs[:40]]
    monkeypatch.setattr(search, "budget", (0, 0))
    assert [search(a, b) for a, b in pairs] == got


def hub_tables(k):
    """n = 80 tables whose vertex 0 has in-degree at least 10 times the
    reverse table's row width 3k + 1, so that its in-arcs take a long chain of
    continuation rows: a random table with the hub, then (k >= 2) the same
    with a Hamiltonian cycle in column 0, strongly connected, and the cycle
    broken at a vertex whose arcs all stay on it, so that only the backward
    sweep can tell."""
    n, gen = 80, np.random.default_rng(30 + k)
    ep = gen.integers(0, n, size=(n, k))
    ep[gen.random((n, k)) < 0.95] = 0
    tables = [ep]
    if k >= 2:
        cycle = ep.copy()
        cycle[:, 0] = (np.arange(n) + 1) % n
        stuck = cycle.copy()
        stuck[n - 1] = n - 1
        tables += [cycle, stuck]
    return tables


@pytest.mark.parametrize("k", [1, 2, 3])
def test_continuation_rows_give_brute_distances_and_strong_connectivity(k):
    outcomes = []
    for ep in hub_tables(k):
        g = KOutDigraph(ep.shape[0], k, ep)
        table, widest = g.reverse_table
        assert np.bincount(ep.ravel()).max() >= 10 * (3 * k + 1)
        assert widest >= 10 * (3 * k + 1) and table.shape[0] > g.n + 1
        rows = ep.tolist()
        search = _PairSearch(g)
        for src in range(g.n):
            for dst in range(g.n):
                assert search(src, dst) == brute_distance(rows, src, dst), (k, src, dst)
        tails = np.repeat(np.arange(g.n), k)
        mat = coo_matrix((np.ones(tails.size), (tails, ep.ravel())), shape=(g.n, g.n))
        ncomp, _ = connected_components(mat.tocsr(), directed=True, connection="strong")
        outcomes.append(is_strongly_connected(g))
        assert outcomes[-1] == (ncomp == 1), k
        assert not has_indegree_zero_vertex(g) or not outcomes[-1]
    assert outcomes == ([False] if k == 1 else [False, True, False])

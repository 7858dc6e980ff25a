from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import digraph_from_rows, endpoint_tables
from kout import digraph
from kout.decompose import giant, one_in_core
from kout.digraph import KOutDigraph, RngSpec, generate
from kout.distance import (
    _PairSearch,
    has_indegree_zero_vertex,
    is_strongly_connected,
    phase_sweep,
    typical_distance,
)
from kout.oracle import brute_distance


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
    # one search object answers every ordered pair, so a label left over from
    # an earlier pair would show up as a wrong distance
    search = _PairSearch(digraph_from_rows(rows))
    n = len(rows)
    for src in range(n):
        for dst in range(n):
            assert search(src, dst) == brute_distance(rows, src, dst), (src, dst)
    assert (search.labels[0] == -1).all() and (search.labels[1] == -1).all()


def test_int32_and_int64_tables_give_the_same_distance_sample():
    g = generate(50_000, 2, RngSpec(22, 2))
    with mock.patch.object(digraph, "_index_dtype", return_value=np.dtype(np.int64)):
        wide = KOutDigraph(g.n, g.k, g.endpoints)
    assert g.endpoints.dtype == np.int32 and wide.endpoints.dtype == np.int64
    narrow_sample = typical_distance(g, 300, RngSpec(5))
    assert narrow_sample.finite_count > 200
    assert typical_distance(wide, 300, RngSpec(5)) == narrow_sample

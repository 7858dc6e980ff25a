import importlib
import itertools
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
    _InRows,
    _PairSearch,
    has_indegree_zero_vertex,
    is_strongly_connected,
    phase_sweep,
    typical_distance,
)
from kout.oracle import _bfs, brute_distance

distance = importlib.import_module("kout.distance")
decompose_module = importlib.import_module("kout.decompose")


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
    side of ``search``, numpy and scalar steps alike, the backward side's
    padding and continuation rows counted, failing at once on more than
    n * k entries (so that a level growing without bound stops the test, not
    the host)."""
    sizes = []
    limit = search.n * search.cost[0]

    def spy(read):
        def expand(front):
            reached = read(front)
            sizes.append((len(front), len(reached)))
            assert len(reached) <= limit, sizes
            return reached

        return expand

    for rows in search.rows:
        monkeypatch.setattr(rows, "push", spy(rows.push))
        monkeypatch.setattr(rows, "heads", spy(rows.heads))
    return sizes


def test_ladder_levels_stay_within_n_k_entries(monkeypatch):
    # without deduplication a level of the ladder would double every step:
    # 2**12 entries where the two sides meet, against n * k = 96.  Scalar
    # steps deduplicate as they mark, so only numpy steps keep repeats
    monkeypatch.setattr(decompose_module, "THIN", 0)
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
    # every log2 n levels along a ladder of n / 2 layers (numpy steps, which
    # keep repeats)
    monkeypatch.setattr(decompose_module, "THIN", 0)
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
    # the tree's leaves lead back to src and the pair is unreachable); numpy
    # steps, which keep repeats
    monkeypatch.setattr(decompose_module, "THIN", 0)
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


def _brute_all_pairs(rows):
    """brute_distance of every ordered pair, one BFS per source."""
    n = len(rows)
    return [[reach.get(dst) for dst in range(n)] for reach in (_bfs(rows, src) for src in range(n))]


def _search_all_pairs(search, n):
    got = [[search(src, dst) for dst in range(n)] for src in range(n)]
    assert not search.marks[:n].any() and search.marks[n] == -1
    return got


def _parity_tables():
    """Random k = 1..3 tables, the hub tables and a Fortran-ordered table."""
    gen = np.random.default_rng(33)
    tables = [gen.integers(0, n, size=(n, k)) for n, k in gen.integers(1, [40, 4], size=(30, 2))]
    tables += [ep for k in (1, 2, 3) for ep in hub_tables(k)]
    return tables + [np.asfortranarray(gen.integers(0, 30, size=(30, 3)))]


def test_scalar_and_numpy_levels_give_brute_distances_and_strong_connectivity(monkeypatch):
    # THIN = 0 runs every level of a search as a numpy step, THIN = n as a
    # scalar one wherever the rows allow it; 600 of the pairs of a larger table
    tables = _parity_tables()
    assert not tables[-1].flags.c_contiguous
    gen = np.random.default_rng(34)
    for ep in tables:
        n, k = ep.shape
        g = KOutDigraph(n, k, ep)
        assert g.endpoints.flags.c_contiguous == ep.flags.c_contiguous
        want = _brute_all_pairs(ep.tolist())
        pairs = list(itertools.product(range(n), repeat=2))
        if len(pairs) > 600:
            pairs = [pairs[i] for i in gen.choice(len(pairs), 600, replace=False)]
        tails = np.repeat(np.arange(n), k)
        mat = coo_matrix((np.ones(tails.size), (tails, ep.ravel())), shape=(n, n))
        strong = connected_components(mat.tocsr(), directed=True, connection="strong")[0] == 1
        for thin in (0, n):
            monkeypatch.setattr(decompose_module, "THIN", thin)
            search = _PairSearch(g)
            for src, dst in pairs:
                assert search(src, dst) == want[src][dst], (ep.tolist(), src, dst, thin)
            # every vertex mark is reset, and the padding's slot still reads -1
            assert not search.marks[:n].any() and search.marks[n] == -1
            assert is_strongly_connected(g) == strong, (ep.tolist(), thin)


def test_a_meet_midway_through_a_scalar_level_resets_every_mark(monkeypatch):
    # forward levels {1, 2} and {3, 4, 5, 6}, backward level {9, 10}; the
    # next forward level marks 7 (from 3) and 8 (from 4) before 5's head 9
    # meets the backward ball: 0 -> 2 -> 5 -> 9 -> 11
    monkeypatch.setattr(decompose_module, "THIN", 12)
    rows = [(1, 2), (3, 4), (5, 6), (7, 7), (8, 8), (9, 9), (6, 6), (7, 7), (8, 8)]
    rows += [(11, 11), (11, 11), (11, 11)]
    search = _PairSearch(digraph_from_rows(rows))
    touched = []
    heads = search.rows[0].heads

    def spy(front):
        touched.append(list(front))
        return heads(front)

    monkeypatch.setattr(search.rows[0], "heads", spy)
    assert search(0, 11) == 4 == brute_distance(rows, 0, 11)
    assert touched == [[0], [1, 2], [3, 4, 5, 6]]
    assert not search.marks[:12].any()
    # a mark left on 7 or 8 would cut these short, or end them as met
    assert _search_all_pairs(search, 12) == _brute_all_pairs(rows)


@pytest.mark.parametrize("k", [2, 3])
def test_a_pair_at_a_hub_reads_the_hub_chain_in_one_step(k, monkeypatch):
    # the first hub table plus a tree of depth 3 and fan-out k, whose leaves
    # point at the hub 0: from the root, the forward levels grow past the
    # hub's one row before they reach it, so the backward side expands the
    # hub, all of whose in-arcs (a chain of at least 10 continuation rows)
    # come up at once.  Every pair takes as many expansions as its distance
    # (the last one meets), and each numpy step of the backward side reads
    # the reverse table once for the first rows of its front and once for
    # each whole chain, not once per continuation row
    ep = hub_tables(k)[0]
    n = root = ep.shape[0]
    tree = [[root + k * i + j + 1 for j in range(k)] for i in range((k**3 - 1) // (k - 1))]
    rows = ep.tolist() + tree + [[0] * k] * k**3
    g = digraph_from_rows(rows)
    search = _PairSearch(g)
    reverse = search.rows[1]
    table, reads, chains, expansions = reverse.table, [], [], []
    assert table.shape[0] - g.n - 1 >= 10

    class Counting:
        def take(self, *args, **kwargs):
            reads[-1] += 1
            return table.take(*args, **kwargs)

        def __getitem__(self, key):
            reads[-1] += 1
            return table[key]

    def spy(read, counts):
        def expand(front):
            if counts:
                reads.append(0)
                chains.append(int((table[front, -1] > g.n).sum()))
            reached = read(front)
            expansions[-1] += reached is not None  # None: a numpy step follows
            return reached

        return expand

    monkeypatch.setattr(reverse, "table", Counting())
    for side in search.rows:
        monkeypatch.setattr(side, "push", spy(side.push, side is reverse))
        monkeypatch.setattr(side, "heads", spy(side.heads, False))
    for src in [root] + list(range(n)):
        expansions.append(0)
        d = search(src, 0)
        assert d == brute_distance(rows, src, 0), src
        if d:
            assert expansions[-1] == d, src
    assert search.marks[:-1].sum() == 0
    assert chains[0] == 1 and reads == [1 + c for c in chains], (reads, chains)

"""Structural invariants of the decomposition and the outside report at
n = 10^4 .. 10^5, far beyond the brute-force oracles, each checked against a
plain recomputation that shares no code with the library."""

from collections import deque

import numpy as np
import pytest

from kout import outside
from kout.decompose import condense, decompose, scc
from kout.digraph import KOutDigraph, RngSpec, generate
from kout.distance import typical_distance
from kout.outside import _scan, max_full_spectrum, outside_report, outside_view

CASES = [(10_000, 0), (10_000, 1), (100_000, 2)]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"n{c[0]}-s{c[1]}")
def replicate(request):
    n, stream = request.param
    g = generate(n, 2, RngSpec(606, stream))
    dec = decompose(g)
    return g, dec, outside_report(g, dec)


def forward_closure(endpoints: np.ndarray, sources: np.ndarray) -> np.ndarray:
    seen = np.zeros(endpoints.shape[0], dtype=bool)
    seen[sources] = True
    frontier = np.flatnonzero(seen)
    while frontier.size:
        nxt = endpoints[frontier].ravel()
        nxt = np.unique(nxt[~seen[nxt]])
        seen[nxt] = True
        frontier = nxt
    return seen


def bfs_size(rows: list[list[int]], v: int, allowed) -> int:
    seen = {v}
    todo = deque([v])
    while todo:
        for u in rows[todo.popleft()]:
            if allowed(u) and u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen)


def test_core_closed_surjective_and_cycle_closure(replicate):
    g, dec, _ = replicate
    core = np.zeros(g.n, dtype=bool)
    core[dec.one_in_core] = True
    assert core[g.endpoints[core]].all(), "an arc leaves the core"
    indeg = np.bincount(g.endpoints[core].ravel(), minlength=g.n)
    assert indeg[core].min() >= 1
    # vertices on a cycle: self-loops plus members of nontrivial SCCs
    sizes = np.bincount(dec.scc_id)
    on_cycle = (sizes[dec.scc_id] >= 2) | (g.endpoints == np.arange(g.n)[:, None]).any(1)
    assert np.array_equal(forward_closure(g.endpoints, np.flatnonzero(on_cycle)), core)


def test_giant_is_closed_scc_inside_core(replicate):
    g, dec, _ = replicate
    giant = np.zeros(g.n, dtype=bool)
    giant[dec.giant] = True
    assert giant[g.endpoints[giant]].all(), "an arc leaves the giant"
    gid = dec.scc_id[dec.giant[0]]
    assert np.array_equal(np.flatnonzero(dec.scc_id == gid), dec.giant)
    assert dec.closed[gid]
    assert np.isin(dec.giant, dec.one_in_core).all()
    # the giant is one SCC: everything in it reaches its first vertex backwards
    rev_reach = np.zeros(g.n, dtype=bool)
    rev_reach[dec.giant[0]] = True
    while True:
        hits = giant & ~rev_reach & rev_reach[g.endpoints].any(1)
        if not hits.any():
            break
        rev_reach |= hits
    assert np.array_equal(rev_reach, giant)


def test_condensation_arcs_drop_to_smaller_ids(replicate):
    g, dec, _ = replicate
    succ, closed = condense(g, scc(g))
    assert len(succ) == dec.n_components
    src = np.repeat(np.arange(len(succ)), [s.size for s in succ])
    dst = np.concatenate(succ)
    assert (dst < src).all()
    a = np.repeat(dec.scc_id, g.k)
    b = dec.scc_id[g.endpoints.ravel()]
    want = np.unique(np.stack([a[a != b], b[a != b]], axis=1), axis=0)
    assert np.array_equal(np.stack([src, dst], axis=1), want)
    assert np.array_equal(dec.closed, closed)
    assert np.array_equal(closed, [s.size == 0 for s in succ])


def test_d_at_most_m(replicate):
    _, _, rep = replicate
    assert rep.d <= rep.m


def test_spectra_sizes_match_bfs_at_sampled_vertices(replicate):
    g, dec, rep = replicate
    giant = np.zeros(g.n, dtype=bool)
    giant[dec.giant] = True
    outside = np.flatnonzero(~giant)
    rows = g.endpoints.tolist()
    gen = np.random.default_rng(0)
    picks = gen.choice(outside.size, size=min(200, outside.size), replace=False)
    picks = np.union1d(picks, [int(np.argmax(rep.spectra_sizes))])
    not_giant = (~giant).tolist()
    for i in picks.tolist():
        v = int(outside[i])
        assert rep.spectra_sizes[i] == bfs_size(rows, v, not_giant.__getitem__)
    # in the whole digraph the spectrum adds exactly the giant
    assert dec.all_reach_giant
    for i in picks[:10].tolist():
        full = forward_closure(g.endpoints, [outside[i]]).sum()
        assert full == rep.spectra_sizes[i] + dec.giant.size


def test_scan_blocks_do_not_change_the_result(replicate, monkeypatch):
    # hundreds-source blocks put dozens of block seams into one scan
    g, dec, rep = replicate
    view = outside_view(g, dec.giant)
    assert view.size > 2 * 500
    whole = _scan(view)
    assert np.array_equal(whole.sizes, rep.spectra_sizes)
    monkeypatch.setattr(outside, "SCAN_BLOCK", 500)
    blocked = _scan(view)
    for a, b in zip(blocked, whole):
        assert np.array_equal(a, b)


def test_max_full_spectrum_is_max_outside_plus_giant(replicate):
    g, dec, rep = replicate
    assert dec.all_reach_giant
    want = int(rep.spectra_sizes.max()) + dec.giant.size
    assert rep.max_full_spectrum == want
    assert max_full_spectrum(g, dec) == (want, rep.spectrum_of_zero)
    assert rep.spectrum_of_zero == forward_closure(g.endpoints, [0]).sum()


def test_full_spectra_when_vertex_zero_misses_the_giant():
    # vertex 0 rewired to two self-loops is a second closed component; in this
    # draw vertex 0 lies outside the one-in-core, so no giant vertex has an arc
    # into it and the giant stays closed
    base = generate(10_000, 2, RngSpec(606, 1))
    core = decompose(base).one_in_core
    assert 0 not in core
    endpoints = base.endpoints.copy()
    endpoints[0] = 0
    # more vertices outside the core: ten keep one arc and also reach the
    # giant, ten send both arcs into vertex 0 and miss it
    tree = np.setdiff1d(np.arange(1, base.n), core)[:20]
    endpoints[tree[:10], 0] = 0
    endpoints[tree[10:]] = 0
    g = KOutDigraph(base.n, base.k, endpoints)
    dec = decompose(g)
    assert not dec.all_reach_giant
    rep = outside_report(g, dec)
    assert rep.spectrum_of_zero == 1
    best = max_full_spectrum(g, dec)
    assert best == (rep.max_full_spectrum, 1)
    # which vertices reach the giant, by a plain backward sweep
    reaches = np.zeros(g.n, dtype=bool)
    reaches[dec.giant] = True
    while True:
        hits = ~reaches & reaches[g.endpoints].any(1)
        if not hits.any():
            break
        reaches |= hits
    assert not reaches[tree[10:]].any() and reaches[tree[:10]].all()
    outside_ids = np.setdiff1d(np.arange(g.n), dec.giant)
    full = rep.spectra_sizes + dec.giant.size * reaches[outside_ids]
    argmax = int(outside_ids[np.argmax(full)])
    assert best[0] == forward_closure(g.endpoints, [argmax]).sum()
    gen = np.random.default_rng(1)
    picks = np.union1d(gen.choice(g.n, size=200, replace=False), tree)
    for v in picks.tolist():
        assert best[0] >= forward_closure(g.endpoints, [v]).sum()


def bfs_distances(endpoints: np.ndarray, src: int) -> np.ndarray:
    """Forward BFS distance from src to every vertex, -1 where unreachable."""
    dist = np.full(endpoints.shape[0], -1)
    dist[src] = 0
    frontier = np.array([src])
    d = 0
    while frontier.size:
        d += 1
        nxt = endpoints[frontier].ravel()
        dist[nxt[dist[nxt] < 0]] = d
        frontier = np.flatnonzero(dist == d)
    return dist


def test_typical_distance_matches_forward_bfs(replicate):
    g, _, _ = replicate
    pairs, rng = 300, RngSpec(707, g.n)
    draws = rng.generator().integers(0, g.n, size=(pairs, 2), dtype=np.int64)
    want = [int(bfs_distances(g.endpoints, a)[b]) for a, b in draws.tolist()]
    sample = typical_distance(g, pairs, rng)
    assert sample.distances == [d for d in want if d >= 0]
    # both outcomes occur, so the early exit on an empty level is exercised
    assert 0 < sample.finite_count < pairs


def assert_same_fields(a, b):
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, other), name
        elif name == "view":
            assert_same_fields(value, other)
        else:
            assert value == other, name


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_results_do_not_depend_on_the_table_layout(layout):
    # the row gathers read the out-table through its strides, whatever they are
    g = generate(20_000, 2, RngSpec(808, 0))
    if layout == "fortran":
        table = np.asfortranarray(g.endpoints)
    else:
        table = np.repeat(g.endpoints, 3, axis=0)[::3]
    h = KOutDigraph(g.n, g.k, table)
    assert h.endpoints is table and not table.flags.c_contiguous
    dg, dh = decompose(g), decompose(h)
    assert_same_fields(dg, dh)
    assert_same_fields(outside_report(g, dg), outside_report(h, dh))
    rng = RngSpec(808, 1)
    assert typical_distance(g, 200, rng) == typical_distance(h, 200, rng)

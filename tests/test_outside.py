import contextlib
import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import digraph_from_rows, endpoint_tables
from kout import outside
from kout.decompose import decompose
from kout.digraph import RngSpec, generate
from kout.errors import ComponentCapError, CycleCapError
from kout.oracle import (
    brute_cycles,
    brute_distance,
    brute_eccentricities,
    brute_longest_path,
    brute_max_eccentricity,
    brute_spectrum_sizes,
)
from kout.outside import (
    _scan,
    distance_to_giant,
    enumerate_cycles,
    longest_path,
    max_full_spectrum,
    outside_report,
    outside_view,
    spectra,
)

decompose_module = importlib.import_module("kout.decompose")


def make_view(rows):
    g = digraph_from_rows(rows)
    d = decompose(g)
    return g, d, outside_view(g, d.giant)


def outside_set(g, d):
    return set(range(g.n)) - set(d.giant.tolist())


def closure_within(rows, allowed, v):
    """Vertices reachable from v through ``allowed`` vertices, v included."""
    seen = {v}
    todo = [v]
    while todo:
        for u in rows[todo.pop()]:
            if u in allowed and u not in seen:
                seen.add(u)
                todo.append(u)
    return seen


def test_cycles_acyclic_outside():
    # giant {0}; outside 1 -> 2 -> giant, no cycles
    g, d, view = make_view([(0, 0), (2, 0), (0, 0)])
    cycles, disjoint = enumerate_cycles(view)
    assert cycles == [] and disjoint is True


def test_cycles_two_cycle_plus_self_loop():
    # outside holds a 2-cycle {1,2} and a disjoint self-loop {3}
    g, d, view = make_view([(0, 0), (2, 0), (1, 0), (3, 0)])
    assert d.giant.tolist() == [0]
    cycles, disjoint = enumerate_cycles(view)
    assert cycles == [[1, 2], [3]]
    assert disjoint is True


def test_cycles_sharing_vertex_not_disjoint():
    # 1 -> 2 -> 1 and 1 -> 3 -> 1 share vertex 1
    g, d, view = make_view([(0, 0), (2, 3), (1, 0), (1, 0)])
    cycles, disjoint = enumerate_cycles(view)
    assert sorted(cycles) == [[1, 2], [1, 3]]
    assert disjoint is False


def test_cycles_parallel_arcs_count_once():
    # 1 -> 2 via both labels and 2 -> 1: one 2-cycle, not two
    g, d, view = make_view([(0, 0), (2, 2), (1, 0)])
    cycles, _ = enumerate_cycles(view)
    assert cycles == [[1, 2]]


def test_cycle_cap(monkeypatch):
    g, d, view = make_view([(0, 0), (2, 3), (1, 0), (1, 0)])
    monkeypatch.setattr(outside, "CYCLE_CAP", 1)
    with pytest.raises(CycleCapError) as info:
        enumerate_cycles(view)
    assert info.value.cap == 1


def test_cycle_cap_error_names_the_cap_after_self_loops(monkeypatch):
    # the self-loop [3] uses up one of the two allowed cycles before Johnson's
    # search finds [1, 2] and [1, 3]; the error still names the cap
    g, d, view = make_view([(0, 0), (2, 3), (1, 0), (1, 3)])
    monkeypatch.setattr(outside, "CYCLE_CAP", 2)
    with pytest.raises(CycleCapError) as info:
        enumerate_cycles(view)
    assert info.value.cap == 2


def test_long_cycle_searched_once():
    # k = 1: a 4000-cycle (the giant) and a 2000-cycle outside it.  After the
    # search from the root, the rest of the 2000-cycle is re-split into SCCs,
    # which are all trivial, so Johnson's search runs once, not once per vertex.
    rows = [((v + 1) % 4000,) for v in range(4000)]
    rows += [(4000 + (v + 1) % 2000,) for v in range(2000)]
    g, d, view = make_view(rows)
    assert d.giant.tolist() == list(range(4000))
    with mock.patch.object(
        outside, "_johnson_cycles_from", wraps=outside._johnson_cycles_from
    ) as search:
        cycles, disjoint = enumerate_cycles(view)
    assert search.call_count == 1
    assert cycles == [list(range(4000, 6000))] and disjoint is True


@settings(max_examples=60)
@given(endpoint_tables(max_n=8, max_k=3))
def test_cycles_match_brute(rows):
    g, d, view = make_view(rows)
    cycles, _ = enumerate_cycles(view)
    want = brute_cycles(rows, within=outside_set(g, d))
    assert sorted(tuple(c) for c in cycles) == want


@settings(max_examples=60)
@given(endpoint_tables(max_n=8, max_k=3))
def test_cycles_stay_inside_core(rows):
    g, d, view = make_view(rows)
    cycles, _ = enumerate_cycles(view)
    core = set(d.one_in_core.tolist())
    for c in cycles:
        assert set(c) <= core


def test_spectra_isolated_vertex():
    # vertex 1's arcs both enter the giant: spectrum {1}, no arcs, excess -1
    g, d, view = make_view([(0, 0), (0, 0)])
    sizes, max_spec, violations = spectra(view)
    assert sizes.tolist() == [1]
    assert max_spec == 1
    assert violations == 0


def test_spectra_self_loop_tree_plus_arc():
    # vertex 1 with one self-loop and one arc into the giant: excess 0, no violation
    g, d, view = make_view([(0, 0), (1, 0)])
    sizes, max_spec, violations = spectra(view)
    assert sizes.tolist() == [1]
    assert violations == 0


def test_spectra_violation_counted():
    # giant = 3-cycle {0,1,2}; outside {3,4} holds 3 internal arcs on 2 vertices
    g, d, view = make_view([(1, 1), (2, 2), (0, 0), (4, 4), (3, 0)])
    assert d.giant.tolist() == [0, 1, 2]
    sizes, max_spec, violations = spectra(view)
    assert sizes.tolist() == [2, 2]
    assert violations == 2  # arcs(=3) - size(=2) = 1 >= 1 for both spectra


@settings(max_examples=40)
@given(endpoint_tables(max_n=8, max_k=3))
def test_arc_excess_by_direct_recount(rows):
    # whenever no violation is flagged for v, the induced subgraph on its
    # spectrum carries at most |spectrum| arcs; recounted from scratch here
    g, d, view = make_view(rows)
    if view.size == 0:
        return
    scan = _scan(view)
    out = outside_set(g, d)
    for local, orig in enumerate(view.vertices.tolist()):
        seen = closure_within(rows, out, orig)
        arcs = sum(1 for v in seen for u in rows[v] if u in seen)
        assert scan.excess[local] == arcs - len(seen)
        if scan.excess[local] < 1:
            assert arcs <= len(seen)


def assert_scan_matches_brute(rows):
    # sizes, eccentricities and arc excess of every view vertex, against the
    # oracles and a direct arc recount; a two-source block puts block seams
    # between almost every pair of sources
    g, d, view = make_view(rows)
    out = outside_set(g, d)
    sizes = brute_spectrum_sizes(rows, within=out)
    eccs = brute_eccentricities(rows, within=out)
    scan = _scan(view)
    for local, orig in enumerate(view.vertices.tolist()):
        seen = closure_within(rows, out, orig)
        arcs = sum(1 for v in seen for u in rows[v] if u in seen)
        got = (scan.sizes[local], scan.eccs[local], scan.excess[local])
        assert got == (sizes[orig], eccs[orig], arcs - len(seen)), orig
    with mock.patch.object(outside, "SCAN_BLOCK", 2):
        small = _scan(view)
    assert all(np.array_equal(a, b) for a, b in zip(small, scan))


@settings(max_examples=80)
@given(endpoint_tables(max_n=9, max_k=3))
def test_scan_matches_brute_per_vertex(rows):
    assert_scan_matches_brute(rows)


# The scan looks a pair (source, x) up only where x is a merge vertex: two
# in-arcs in the view, a self-loop, or a nontrivial view SCC.  Vertex 0 is the
# giant in each table.
@pytest.mark.parametrize(
    "rows",
    [
        [(0, 0), (2, 3), (4, 0), (4, 0), (0, 0)],  # 1 -> 2 -> 4 and 1 -> 3 -> 4
        [(0, 0), (2, 3), (5, 0), (4, 0), (5, 0), (0, 0)],  # paths of 2 and 3 arcs
        [(0, 0), (2, 2), (0, 0)],  # parallel arcs 1 => 2
        [(0, 0), (1, 0)],  # a self-loop is the only arc into 1
        [(0, 0), (1, 2), (0, 0)],  # the same, with an arc on to 2
        [(0, 0), (2, 0), (1, 0)],  # every source lies on the 2-cycle 1 <-> 2
        [(0, 0), (2, 0), (3, 0), (4, 0), (2, 0)],  # a tail 1 into the 3-cycle 2 3 4
        [(0, 0), (2, 0), (3, 0), (1, 4), (0, 0)],  # a 3-cycle with an exit 3 -> 4
    ],
    ids=[
        "diamond",
        "uneven-diamond",
        "parallel-arcs",
        "lone-self-loop",
        "self-loop-then-arc",
        "sources-on-2-cycle",
        "tail-into-3-cycle",
        "3-cycle-with-exit",
    ],
)
def test_scan_at_merge_vertices_matches_brute(rows):
    g = digraph_from_rows(rows)
    assert decompose(g).giant.tolist() == [0]
    assert_scan_matches_brute(rows)


# At k = 1 no view vertex has two out-arcs, so the scan takes only cycle
# vertices (self-loops, nontrivial view SCCs) as merge vertices.  The 5-cycle
# 0 1 2 3 4 is the giant in each table; the view starts at vertex 5.
GIANT_5_CYCLE = [(1,), (2,), (3,), (4,), (0,)]


@pytest.mark.parametrize(
    "view_rows",
    [
        [(7,), (8,), (6,), (7,)],  # a tail 8 into the 3-cycle 5 6 7
        [(7,), (8,), (6,), (5,), (8,)],  # a tail of two into the 3-cycle 5 6 7
        [(6,), (5,), (5,), (5,)],  # two tails into the 2-cycle 5 6
        [(5,)],  # a lone self-loop
        [(5,), (5,), (5,), (6,)],  # a self-loop with two tails, one of two arcs
        [(7,), (7,), (0,)],  # in-degree two off any cycle, out into the giant
    ],
    ids=[
        "tail-into-3-cycle",
        "long-tail-into-3-cycle",
        "two-tails-into-2-cycle",
        "lone-self-loop",
        "tails-into-self-loop",
        "merge-off-cycle",
    ],
)
def test_scan_on_k1_views_matches_brute(view_rows):
    rows = GIANT_5_CYCLE + view_rows
    assert decompose(digraph_from_rows(rows)).giant.tolist() == [0, 1, 2, 3, 4]
    assert_scan_matches_brute(rows)


@settings(max_examples=80)
@given(endpoint_tables(max_n=12, max_k=1))
def test_scan_on_random_k1_tables_matches_brute(rows):
    assert_scan_matches_brute(rows)


@pytest.mark.parametrize("stream", [0, 1, 2])
def test_spectra_on_random_k1_digraphs_match_brute(stream):
    g = generate(150, 1, RngSpec(7, stream))
    rows = g.endpoints.tolist()
    g, d, view = make_view(rows)
    assert view.size > 100
    assert_scan_matches_brute(rows)
    _, max_spec, violations = spectra(view)
    assert max_spec == max(brute_spectrum_sizes(rows, within=outside_set(g, d)).values())
    # one out-arc a vertex: a closure induces at most as many arcs as it has vertices
    assert violations == 0


@settings(max_examples=60)
@given(endpoint_tables(max_n=9, max_k=3))
def test_spectra_match_brute(rows):
    g, d, view = make_view(rows)
    sizes, _, _ = spectra(view)
    want = brute_spectrum_sizes(rows, within=outside_set(g, d))
    got = {int(view.vertices[i]): int(s) for i, s in enumerate(sizes)}
    assert got == want


def test_distance_to_giant_hand_cases():
    # all outside vertices arc straight into the giant
    g, d, _ = make_view([(0, 0), (0, 0), (0, 0)])
    res = distance_to_giant(g, d.giant)
    assert res.w == 1 and res.unreached == 0
    # chain 2 -> 1 -> giant without shortcut
    g2 = digraph_from_rows([(0, 0), (0, 0), (1, 1)])
    d2 = decompose(g2)
    res2 = distance_to_giant(g2, d2.giant)
    assert res2.w == 2 and res2.unreached == 0


def test_distance_to_giant_unreachable_flagged():
    g = digraph_from_rows([(0,), (1,)])
    d = decompose(g)
    res = distance_to_giant(g, d.giant)
    assert res.w == 0 and res.unreached == 1


def brute_giant_distances(rows, giant_set):
    """Per vertex outside ``giant_set``, its arc distance into it, or -1."""
    dist = {}
    for v in sorted(set(range(len(rows))) - set(giant_set)):
        reach = [brute_distance(rows, v, x) for x in giant_set]
        dist[v] = min((r for r in reach if r is not None), default=-1)
    return dist


def assert_giant_distances_match_brute(rows):
    # the view's distances, distance_to_giant and the report's w and
    # w_unreachable, against a plain BFS from each outside vertex
    g, d, view = make_view(rows)
    want = brute_giant_distances(rows, d.giant.tolist())
    for v in (view, d.view):
        assert v.dist.dtype == np.int32
        assert dict(zip(v.vertices.tolist(), v.dist.tolist())) == want
    w = max([0, *want.values()])
    unreached = sum(x < 0 for x in want.values())
    assert tuple(distance_to_giant(g, d.giant)) == (w, unreached)
    rep = outside_report(g, d, collect=frozenset({"distances"}))
    assert (rep.w, rep.w_unreachable) == (w, unreached)
    return unreached


def test_giant_distances_with_a_second_closed_scc():
    # closed SCCs {0, 1} (the giant, by the smaller label) and {2, 3}; 4 has
    # a self-loop and an arc into {2, 3}, so 2, 3 and 4 never reach the giant
    rows = [(1, 1), (0, 0), (3, 3), (2, 2), (2, 4), (4, 0), (5, 5)]
    g, d, view = make_view(rows)
    assert d.giant.tolist() == [0, 1] and not d.all_reach_giant
    assert view.dist.tolist() == [-1, -1, -1, 1, 2]
    assert assert_giant_distances_match_brute(rows) == 3


@settings(max_examples=80)
@given(endpoint_tables(max_n=10, max_k=3))
def test_giant_distances_match_brute(rows):
    assert_giant_distances_match_brute(rows)


def test_giant_distances_match_brute_on_random_tables():
    rng = np.random.default_rng(23)
    unreached = []
    for _ in range(300):
        n, k = int(rng.integers(1, 13)), int(rng.integers(1, 4))
        unreached.append(assert_giant_distances_match_brute(rng.integers(0, n, (n, k)).tolist()))
    assert min(unreached) == 0 and max(unreached) > 0  # both cases were seen


def test_distances_alone_run_no_scan_and_build_no_view():
    # --collect distances reads the distances that decompose's view keeps
    g = generate(2000, 2, RngSpec(13, 1))
    d = decompose(g)
    with contextlib.ExitStack() as stack:
        spies = [
            stack.enter_context(mock.patch.object(module, name, create=True, wraps=fn))
            for module, name, fn in (
                (outside, "_scan", outside._scan),
                (outside, "_rest", decompose_module._rest),
                (decompose_module, "_rest", decompose_module._rest),
            )
        ]
        rep = outside_report(g, d, collect=frozenset({"distances"}))
    assert [spy.call_count for spy in spies] == [0, 0, 0]
    assert (rep.w, rep.w_unreachable) == tuple(distance_to_giant(g, d.giant))
    assert rep.spectra_sizes is None and rep.cycles is None


def test_eccentricity_hand_cases():
    # all spectra singletons
    g, d, view = make_view([(0, 0), (0, 0), (0, 0)])
    assert int(_scan(view).eccs.max(initial=0)) == 0
    # directed path of length 3 outside: 1 -> 2 -> 3 -> 4
    g2, d2, view2 = make_view([(0, 0), (2, 0), (3, 0), (4, 0), (0, 0)])
    assert int(_scan(view2).eccs.max(initial=0)) >= 3


def test_longest_path_pure_path():
    rows = [(0, 0)] + [(i + 1, 0) for i in range(1, 6)] + [(0, 0)]
    g, d, view = make_view(rows)
    assert sorted(outside_set(g, d)) == [1, 2, 3, 4, 5, 6]
    assert longest_path(view) == 5


def test_longest_path_cycle_with_exit():
    # 3-cycle 1->2->3->1 with exit 3->4, 4 into giant; brute force says 3
    rows = [(0, 0), (2, 0), (3, 0), (1, 4), (0, 0)]
    g, d, view = make_view(rows)
    assert longest_path(view) == 3
    assert brute_longest_path(rows, within=outside_set(g, d)) == 3


def test_longest_path_component_cap(monkeypatch):
    rows = [(0, 0), (2, 0), (3, 0), (1, 0)]  # outside 3-cycle
    g, d, view = make_view(rows)
    monkeypatch.setattr(outside, "SCC_SIZE_CAP", 2)
    with pytest.raises(ComponentCapError):
        longest_path(view)


@settings(max_examples=60)
@given(endpoint_tables(max_n=9, max_k=2))
def test_longest_path_matches_brute(rows):
    g, d, view = make_view(rows)
    assert longest_path(view) == brute_longest_path(rows, within=outside_set(g, d))


@settings(max_examples=60)
@given(endpoint_tables(max_n=11, max_k=3))
def test_eccentricity_matches_brute(rows):
    g, d, view = make_view(rows)
    assert int(_scan(view).eccs.max(initial=0)) == brute_max_eccentricity(
        rows, within=outside_set(g, d)
    )


def test_max_full_spectrum_strongly_connected(rows_3cycle):
    g = digraph_from_rows(rows_3cycle)
    d = decompose(g)
    assert max_full_spectrum(g, d) == (3, 3)


def test_max_full_spectrum_chain_into_cycle():
    # 0 -> 1 -> 2 -> 0 cycle, 3 feeds into it: Spec(3) = everything
    g = digraph_from_rows([(1, 1), (2, 2), (0, 0), (0, 0)])
    d = decompose(g)
    assert max_full_spectrum(g, d) == (4, 3)  # Spec(3) = [4]; Spec(0) = the cycle


def test_max_full_spectrum_fallback():
    # two closed loops: vertex 1 never reaches the giant {0}
    g = digraph_from_rows([(0, 0), (1, 1), (0, 1)])
    d = decompose(g)
    assert not d.all_reach_giant
    assert max_full_spectrum(g, d) == (3, 1)  # Spec(2) = {0,1,2}, Spec(0) = {0}


@settings(max_examples=40)
@given(endpoint_tables(max_n=8, max_k=3))
def test_max_full_spectrum_matches_brute(rows):
    g = digraph_from_rows(rows)
    d = decompose(g)
    want = brute_spectrum_sizes(rows)
    assert max_full_spectrum(g, d) == (max(want.values()), want[0])


def test_d_not_greater_than_m_random():
    for seed in range(15):
        g = generate(400, 2, RngSpec(4242, seed))
        d = decompose(g)
        rep = outside_report(g, d)
        assert rep.d <= rep.m
        assert rep.longest_cycle == (max(rep.cycles_by_length) if rep.cycles else 0)
        assert rep.total_cycles == sum(rep.cycles_by_length.values())


@settings(max_examples=40)
@given(endpoint_tables(max_n=8, max_k=2))
def test_ell_eye_structure(rows):
    # every outside vertex on a cycle whose spectrum has arc excess <= 0
    # induces exactly one cycle, and lies on it
    g, d, view = make_view(rows)
    cycles, _ = enumerate_cycles(view)
    on_cycle = {v for c in cycles for v in c}
    sizes, _, _ = spectra(view)
    rows_list = [list(r) for r in rows]
    for local, orig in enumerate(view.vertices.tolist()):
        if orig not in on_cycle:
            continue
        # recompute the spectrum set by closure inside the outside part
        out = outside_set(g, d)
        seen = {orig}
        todo = [orig]
        while todo:
            v = todo.pop()
            for u in rows_list[v]:
                if u in out and u not in seen:
                    seen.add(u)
                    todo.append(u)
        arcs = sum(1 for v in seen for u in rows_list[v] if u in seen)
        if arcs - len(seen) < 1:
            sub_cycles = brute_cycles(rows, within=seen)
            assert len(sub_cycles) == 1
            assert orig in sub_cycles[0]


def test_report_includes_w_flag():
    g = digraph_from_rows([(0,), (1,)])
    d = decompose(g)
    rep = outside_report(g, d)
    assert rep.w_unreachable == 1
    assert rep.max_full_spectrum == 1  # both spectra are singletons


def test_one_scc_pass_per_replicate_on_the_core_outside_the_giant():
    # the SCC labeller runs at most once per replicate (decompose, then
    # outside_report), on the core vertices outside the giant only, and not
    # at all when fewer than two of them are left.  Johnson's re-split inside
    # enumerate_cycles is not such a pass: it labels one component at a time,
    # through its own import, which this spy does not count.
    rest_sizes = []
    for i in range(6):
        g = generate(20_000, 2, RngSpec(5, i))
        with mock.patch.object(
            decompose_module, "_scc_labels", wraps=decompose_module._scc_labels
        ) as spy:
            d = decompose(g)
            outside_report(g, d)
        rest = np.setdiff1d(d.one_in_core, d.giant)
        rest_sizes.append(rest.size)
        assert spy.call_count == int(rest.size >= 2)
        if spy.call_count:
            want = decompose_module._local(g.endpoints, rest)[2:]
            assert all(np.array_equal(a, b) for a, b in zip(spy.call_args.args, want))
    assert max(rest_sizes) >= 2 and min(rest_sizes) < 2  # both cases were seen


def assert_same_view(a, b):
    for field in ("vertices", "indptr", "indices", "comp", "height", "dist"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and np.array_equal(x, y), field


@settings(max_examples=80)
@given(endpoint_tables(max_n=10, max_k=3))
def test_report_view_equals_outside_view(rows):
    # decompose takes the view's core from its peel of all n vertices, and
    # outside_view from a peel of the view alone
    g = digraph_from_rows(rows)
    d = decompose(g)
    assert_same_view(d.view, outside_view(g, d.giant))


def test_report_view_equals_outside_view_at_1e5():
    g = generate(100_000, 2, RngSpec(13, 0))
    d = decompose(g)
    assert d.view.size == g.n - d.giant.size
    assert_same_view(d.view, outside_view(g, d.giant))


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 1), (2, 2), (0, 3), (3, 3)],  # the closure of vertex 0 is not one SCC
        [(0, 0), (2, 2), (3, 3), (1, 1)],  # a larger closed SCC than the closure
        [(1, 1), (2, 2), (0, 0), (0, 1)],  # the closure is the giant
        None,  # a random digraph at n = 2000
    ],
    ids=["closure-not-strong", "absorbing-closure-not-giant", "closure-is-giant", "random"],
)
def test_report_builds_no_second_view(rows):
    # outside_report and max_full_spectrum read the view that decompose keeps;
    # create=True spies on a builder name even where outside does not import it
    g = generate(2000, 2, RngSpec(13, 1)) if rows is None else digraph_from_rows(rows)
    d = decompose(g)
    builders = {name: getattr(decompose_module, name) for name in ("_local", "_rest")}
    with contextlib.ExitStack() as stack:
        spies = {
            (module.__name__, name): stack.enter_context(
                mock.patch.object(module, name, create=True, wraps=builder)
            )
            for module in (decompose_module, outside)
            for name, builder in builders.items()
        }
        outside_report(g, d)
        max_full_spectrum(g, d)
    assert {key: spy.call_count for key, spy in spies.items()} == dict.fromkeys(spies, 0)


def test_report_rejects_unknown_collect_group():
    g = generate(30, 2, RngSpec(1))
    with pytest.raises(ValueError, match=r"unknown collect groups: \['core'\]"):
        outside_report(g, decompose(g), collect=frozenset({"cycles", "core"}))

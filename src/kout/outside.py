"""Statistics of the part of the digraph outside the giant.

All distances and path lengths count arcs.  Cycles are elementary directed
cycles recorded as vertex sequences rotated to start at their smallest vertex;
parallel arcs do not multiply a cycle, and a self-loop is a cycle of length 1.
Arc counts (for the tree-plus-one-arc excess check) do include parallel arcs,
because they count arcs of the induced sub-digraph.

The statistics run on the view outside the giant, an :class:`OutsideView`
that ``decompose`` keeps as ``Decomposition.view`` (``outside_view`` builds
one from a digraph and its giant): cycle enumeration and the longest-path DP
read its SCC labels, W and the unreached count its distances to the giant.
Spectrum sizes, eccentricities, arc excess and the full-digraph spectra come
from one scan of the view's forward closures (see ``_scan`` and
``_full_spectra``).  The cycles, the scan and the longest path read the
view's arc list, ``OutsideView.arcs``, which the view builds on first read
and keeps, so each statistic can be called on its own and none lists the
arcs twice.

The exact searches stop at the module constants ``CYCLE_CAP`` (cycles in the
view) and ``SCC_SIZE_CAP`` (vertices of one nontrivial component in the
longest-path search), read at call time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .decompose import (
    Decomposition,
    OutsideView,
    _core_mask,
    _distinct,
    _local,
    _rest,
    _scc_labels,
    _stable_order,
)
from .digraph import KOutDigraph, _indegree
from .errors import ComponentCapError, CycleCapError

__all__ = [
    "OutsideView",
    "OutsideReport",
    "outside_view",
    "enumerate_cycles",
    "spectra",
    "distance_to_giant",
    "longest_path",
    "max_full_spectrum",
    "outside_report",
]

CYCLE_CAP = 10_000
SCC_SIZE_CAP = 64


def outside_view(g: KOutDigraph, giant_set: np.ndarray) -> OutsideView:
    """The view outside ``giant_set``, a closed SCC of g (the giant), from a
    core peel of g."""
    sink = np.zeros(g.n, dtype=bool)
    sink[giant_set] = True
    return _rest(g.endpoints, *_core_mask(g.endpoints, _indegree(g.endpoints)), sink)


def _induced_simple(view: OutsideView, comp) -> dict[int, list[int]]:
    """Loop-free, deduplicated adjacency of the subgraph induced on ``comp``."""
    inside = set(comp)
    return {v: sorted((set(view.table[v].tolist()) & inside) - {v}) for v in comp}


def _nontrivial(ids: np.ndarray, labels: np.ndarray) -> dict[int, list[int]]:
    """For each label that at least two of the ascending ``ids`` carry, those
    ids in ascending order."""
    keep = (np.bincount(labels) >= 2)[labels]
    groups: dict[int, list[int]] = {}
    for v, c in zip(ids[keep].tolist(), labels[keep].tolist()):
        groups.setdefault(c, []).append(v)
    return groups


# ---------------------------------------------------------------------------
# cycles


def _johnson_cycles_from(
    start: int, adj: dict[int, list[int]], emit: list[list[int]], budget: int
) -> None:
    """All elementary cycles through ``start`` in the subgraph ``adj``
    (Johnson's search, iterative).  Raises once ``emit`` outgrows ``budget``
    so a pathological instance fails loudly instead of exhausting memory."""
    blocked = {start}
    barrier: dict[int, set[int]] = {}
    path = [start]
    closed = [False]
    stack = [iter(adj[start])]
    while stack:
        advanced = False
        for w in stack[-1]:
            if w == start:
                if len(emit) >= budget:
                    raise CycleCapError(CYCLE_CAP)
                emit.append(path.copy())
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                closed.append(False)
                blocked.add(w)
                stack.append(iter(adj[w]))
                advanced = True
                break
        if advanced:
            continue
        stack.pop()
        v = path.pop()
        if closed.pop():
            if closed:
                closed[-1] = True
            unblock = [v]
            while unblock:
                u = unblock.pop()
                if u in blocked:
                    blocked.remove(u)
                    unblock.extend(barrier.pop(u, ()))
        else:
            for w in adj[v]:
                barrier.setdefault(w, set()).add(v)


def _rotate_min(cycle: list[int]) -> tuple[int, ...]:
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


def enumerate_cycles(view: OutsideView) -> tuple[list[list[int]], bool]:
    """All elementary directed cycles of the view, plus a disjointness flag.

    Cycles are returned in original vertex ids, each rotated to start at its
    smallest vertex, sorted.  ``vertex_disjoint`` is True iff no vertex lies
    on two distinct cycles.  Raises :class:`CycleCapError` beyond
    ``CYCLE_CAP`` cycles; the limit laws make the count O_p(1), so hitting the
    cap flags a pathological instance rather than silently truncating.
    """
    src, dst = view.arcs
    # self-loops: length-1 cycles, one per vertex regardless of multiplicity
    found: list[tuple[int, ...]] = [(v,) for v in np.unique(src[src == dst]).tolist()]
    # longer cycles live inside the view's nontrivial SCCs, on the simple graph
    components = list(_nontrivial(np.arange(view.size), view.comp).values())
    emitted: list[list[int]] = []
    while components:
        comp = components.pop()
        _johnson_cycles_from(comp[0], _induced_simple(view, comp), emitted, CYCLE_CAP - len(found))
        # the cycles avoiding the smallest member lie in the SCCs of the rest
        ids = np.array(comp[1:])
        components.extend(_nontrivial(ids, _scc_labels(_local(view.table, ids)[0])[1]).values())
    found.extend(_rotate_min(c) for c in emitted)
    if len(found) > CYCLE_CAP:
        raise CycleCapError(CYCLE_CAP)
    found = sorted(set(found))
    on = [v for cyc in found for v in cyc]
    out = [[int(view.vertices[v]) for v in cyc] for cyc in found]
    return out, len(on) == len(set(on))


# ---------------------------------------------------------------------------
# batched forward scan (spectra, eccentricities, arc excess)

SCAN_BLOCK = 1 << 16  # sources per batch of the scan: bounds its pair arrays


class _ScanResult(NamedTuple):
    sizes: np.ndarray
    eccs: np.ndarray
    excess: np.ndarray


def _scan(view: OutsideView) -> _ScanResult:
    """Forward closure of every view vertex, as one level-synchronous BFS
    over (source, vertex) pairs.
    Whp the view is mostly tree-like, so the closures are tiny (about 1.7
    vertices each on average at n = 10^6, k = 2), and the scan costs about
    as much as one BFS over the view.

    A pair (s, x) can come up twice only if x is a merge vertex: one with two
    in-arcs in the view (parallel arcs count), a self-loop, or a place in a
    nontrivial view SCC.  Elsewhere the one arc into x is taken once per
    source, so only pairs at merge vertices are deduplicated and looked up
    in ``seen``, keyed ``source * m + vertex``, which holds just them.  At
    n = 10^6, k = 2 merge vertices are 6.4 % of the view and take a third of
    its arcs.  Where no view vertex has two out-arcs (every view at k = 1)
    the walk from a source is one path, which comes back to a vertex only on
    a cycle, so two in-arcs do not make a merge vertex there: at k = 1 that
    leaves a random view's cycle vertices instead of about a quarter of it.
    Sizes and eccentricities are counted from the fresh pairs.  A
    closure is closed in the view, so every arc of a member stays inside it
    and is followed once: the arcs it induces are its size, plus the pairs
    offered again at merge vertices, minus 1.  Sources go in blocks of
    ``SCAN_BLOCK``, which bounds the pairs held at a time.
    """
    m, table = view.size, view.table
    k = table.shape[1]
    tails, heads = view.arcs
    outdeg = np.bincount(tails, minlength=m)
    sources = np.flatnonzero(outdeg)  # the rest keep a singleton spectrum
    if outdeg.max(initial=0) > 1:
        merge = np.bincount(heads, minlength=m) >= 2
    else:
        merge = np.zeros(m, dtype=bool)
    # an arc inside its own component is a self-loop or lies in a nontrivial SCC
    comp = view.comp
    merge[heads.compress(comp.take(tails) == comp.take(heads))] = True
    sizes = np.ones(m, dtype=np.int64)
    eccs = np.zeros(m, dtype=np.int64)
    excess = np.full(m, -1, dtype=np.int64)
    for lo in range(0, sources.size, SCAN_BLOCK):
        # the frontier: pairs (src[i], dst[i]) reached for the first time
        src = dst = sources[lo : lo + SCAN_BLOCK]
        # sorted keys; m * m, above every key, ends each search in range
        seen = np.append(src.compress(merge.take(src)) * (m + 1), m * m)
        reached, offered, taken = [], [], []
        level = 0
        while src.size:
            dst = table.take(dst, axis=0).ravel()
            stays = dst < m
            dst, src = dst.compress(stays), np.repeat(src, k).compress(stays)
            again = merge.take(dst)
            offered.append(src.compress(again))
            keys = _distinct(offered[-1] * m + dst.compress(again))
            at = np.searchsorted(seen, keys)
            new = seen.take(at) != keys
            keys = keys.compress(new)
            seen = np.insert(seen, at.compress(new), keys)
            taken.append(keys // m)
            src = np.concatenate([src.compress(~again), taken[-1]])
            dst = np.concatenate([dst.compress(~again), keys - taken[-1] * m])
            level += 1
            eccs[src] = level
            reached.append(src)
        sizes += np.bincount(np.concatenate(reached), minlength=m)
        # the arcs a closure induces: its size, plus each pair offered again, minus 1
        excess += np.bincount(np.concatenate(offered), minlength=m)
        excess -= np.bincount(np.concatenate(taken), minlength=m)
    return _ScanResult(sizes, eccs, excess)


def spectra(view: OutsideView) -> tuple[np.ndarray, int, int]:
    """Per-vertex spectrum sizes inside the view, their max, and the number of
    vertices whose spectrum induces at least one arc more than its size."""
    r = _scan(view)
    return r.sizes, int(r.sizes.max(initial=0)), int((r.excess >= 1).sum())


# ---------------------------------------------------------------------------
# distances to and from the giant


class GiantDistances(NamedTuple):
    w: int  # max over reached outside vertices of the distance into the giant
    unreached: int  # outside vertices with no path to the giant (excluded from w)


def _giant_distances(view: OutsideView) -> GiantDistances:
    """W and the unreached count of a view, from its distances."""
    return GiantDistances(
        w=int(view.dist.max(initial=0)), unreached=int(np.count_nonzero(view.dist < 0))
    )


def distance_to_giant(g: KOutDigraph, giant_set: np.ndarray) -> GiantDistances:
    """W and the unreached count, from the view outside ``giant_set``, whose
    distances come with its heights; ``outside_report`` reads them off the
    view that ``decompose`` keeps instead."""
    return _giant_distances(outside_view(g, giant_set))


# ---------------------------------------------------------------------------
# longest simple path


def _within_longest(
    comp: list[int], adj_c: dict[int, list[int]]
) -> dict[int, dict[int, int]]:
    """All-pairs longest simple path lengths inside one strongly connected
    component, by exhaustive search.  Exponential in principle; in this model
    these components are short cycles with overwhelming probability."""
    if len(comp) > SCC_SIZE_CAP:
        raise ComponentCapError(len(comp), SCC_SIZE_CAP)
    pos = {v: i for i, v in enumerate(comp)}
    best: dict[int, dict[int, int]] = {}
    for u in comp:
        bu = {u: 0}
        stack = [(u, 1 << pos[u], 0)]
        while stack:
            v, mask, length = stack.pop()
            for w in adj_c[v]:
                bit = 1 << pos[w]
                if not mask & bit:
                    nl = length + 1
                    if nl > bu.get(w, -1):
                        bu[w] = nl
                    stack.append((w, mask | bit, nl))
        best[u] = bu
    return best


def longest_path(view: OutsideView) -> int:
    """Exact length (in arcs) of the longest simple directed path in the view.

    Longest-path DP over the view's condensation, one height level at a time
    from the top down, so every component is settled before any arc into it
    is relaxed.  Singleton components pass on the best path arriving at them
    in one numpy step per level; passage through a nontrivial SCC is resolved
    exactly by exhaustive search over its simple paths, which errors out above
    ``SCC_SIZE_CAP`` vertices.
    """
    if view.size == 0:
        return 0
    src, dst = view.arcs
    cross = view.comp[src] != view.comp[dst]
    src, dst = src.compress(cross), dst.compress(cross)
    level = view.height[view.comp[src]]
    top = int(view.height[-1])
    by_level = _stable_order(level, top)
    src, dst = src[by_level], dst[by_level]
    bounds = np.searchsorted(level[by_level], np.arange(top + 2)).tolist()
    nontrivial: dict[int, list[list[int]]] = {}
    for c, members in _nontrivial(np.arange(view.size), view.comp).items():
        nontrivial.setdefault(int(view.height[c]), []).append(members)

    best = np.zeros(view.size, dtype=np.int64)  # longest path ending at v
    for h in range(top, -1, -1):
        for comp in nontrivial.get(h, ()):
            within = _within_longest(comp, _induced_simple(view, comp))
            arrive = best[comp].tolist()
            for w in comp:
                best[w] = max(
                    a + within[u].get(w, -(1 << 30)) for a, u in zip(arrive, comp)
                )
        lo, hi = bounds[h], bounds[h + 1]
        np.maximum.at(best, dst[lo:hi], best[src[lo:hi]] + 1)
    return int(best.max())


# ---------------------------------------------------------------------------
# full-digraph spectra


def _full_spectra(
    g: KOutDigraph, dec: Decomposition, scan: _ScanResult
) -> tuple[int, int]:
    """(max over all vertices of |Spec(v)|, |Spec(vertex 0)|) from the scan.

    The giant is closed, so the spectrum of a giant vertex is the giant.  A
    view closure is closed in the view, so every arc of its members that the
    scan does not count enters the giant: v reaches the giant iff the closure
    counts fewer than k arcs per member, and then |Spec(v)| is its closure
    plus the giant.
    """
    giant, view = dec.giant.size, dec.view
    reach = scan.excess + scan.sizes < g.k * scan.sizes
    full = scan.sizes + giant * reach
    spec0 = int(full[0]) if view.size and view.vertices[0] == 0 else giant
    return max(giant, int(full.max(initial=0))), spec0


def max_full_spectrum(g: KOutDigraph, dec: Decomposition) -> tuple[int, int]:
    """(max over all vertices of |Spec(v)|, |Spec(vertex 0)|), exact at every
    n, whether or not every vertex reaches the giant."""
    return _full_spectra(g, dec, _scan(dec.view))


# ---------------------------------------------------------------------------
# composite report


@dataclass
class OutsideReport:
    """Everything measured on the induced subgraph outside the giant.

    Fields are None when their statistic group was not collected.
    """

    cycles: list[list[int]] | None = None  # original vertex ids, min-rotated, sorted
    cycles_by_length: dict[int, int] | None = None
    total_cycles: int | None = None
    vertex_disjoint: bool | None = None
    longest_cycle: int | None = None
    spectra_sizes: np.ndarray | None = None  # indexed like sorted outside vertices
    max_spectrum: int | None = None
    arc_excess_violations: int | None = None
    w: int | None = None
    w_unreachable: int | None = None
    d: int | None = None
    m: int | None = None
    max_full_spectrum: int | None = None
    spectrum_of_zero: int | None = None


FULL_COLLECT = frozenset({"cycles", "spectra", "distances"})


def outside_report(
    g: KOutDigraph,
    dec: Decomposition,
    collect: frozenset[str] = FULL_COLLECT,
) -> OutsideReport:
    """Compute the report, sharing one forward scan across statistics.

    ``collect`` selects statistic groups ("cycles", "spectra", "distances");
    skipped groups come back as None.  The default computes everything.
    """
    unknown = collect - FULL_COLLECT
    if unknown:
        raise ValueError(f"unknown collect groups: {sorted(unknown)}")
    view = dec.view
    rep = OutsideReport()

    if "cycles" in collect:
        rep.cycles, rep.vertex_disjoint = enumerate_cycles(view)
        rep.cycles_by_length = dict(Counter(len(c) for c in rep.cycles))
        rep.total_cycles = len(rep.cycles)
        rep.longest_cycle = max(rep.cycles_by_length, default=0)

    if "spectra" in collect:
        scan = _scan(view)
        rep.spectra_sizes = scan.sizes
        rep.max_spectrum = int(scan.sizes.max(initial=0))
        rep.arc_excess_violations = int((scan.excess >= 1).sum())
        rep.d = int(scan.eccs.max(initial=0))
        rep.max_full_spectrum, rep.spectrum_of_zero = _full_spectra(g, dec, scan)
        rep.m = longest_path(view)

    if "distances" in collect:
        rep.w, rep.w_unreachable = _giant_distances(view)
    return rep

"""Exact structural decomposition of a k-out digraph.

The decomposition is: strongly connected components, the condensation DAG,
the closed components (condensation sinks), the giant (largest closed SCC,
ties broken toward the smallest contained vertex label), and the one-in-core
(survivors of iterated deletion of in-degree-0 vertices).

Component ids are ordered by (height, smallest vertex label), where the
height of a component is the length of the longest condensation path from it
to a sink.  Every condensation arc lowers the height, so it goes from a
higher id to a lower one: the numbering is reverse topological and a pure
function of the digraph.  The closed components are exactly those of height
0, so they hold ids 0 .. (#closed - 1) in order of their smallest label.
The decomposition keeps only the per-vertex ids and the per-component
heights; ``scc`` groups the members and ``condense`` builds the condensation
from the ids when asked.  It also keeps the view outside the giant (an
:class:`OutsideView`), which the statistics of :mod:`kout.outside` run on.

SCCs are found around the giant instead of by one pass over all vertices.
Let v be the smallest vertex of the one-in-core and F its forward closure,
found by a level-synchronous BFS.  A backward BFS from v over a reverse CSR
(built for the check and dropped after it; its row pointers are the in-degree
count the core peel starts from) decides whether every vertex of F reaches v,
that is, whether F is one closed SCC; whp it is, and it is the giant.  F is
closed, so every other SCC lies outside it, and every cycle lies in the
one-in-core, so only the core vertices outside F can share a component.
``_scc_labels``, an iterative Tarjan (1972) search in pure Python, labels
just those: whp a few vertices, in microseconds; three in four replicates
at n = 2*10^4 have fewer than two and make no call.
When F is not one SCC (at small n, or when the largest SCC reaches an
absorbing vertex), the same steps run without F, and the search labels the
whole one-in-core.  That fallback is rare at large n, but it costs about
5 us per core vertex: 4.0 s on a forced fallback at n = 10^6, against
0.66 s for scipy's compiled pass, which the package no longer loads.  Heights
come from one peel over the arcs between distinct components, with F as a
sink of height 0, and the one-in-core from a peel as well.  Each peel is
level-synchronous, one numpy pass per level, and a random k-out digraph has
O(log n) levels whp.  Every vertex reaches some closed
component, so every vertex reaches the giant iff the giant is the only closed
component.

The vertices outside F, with their CSR, ids and heights, are the view outside
the giant whenever F is the giant.  Otherwise (F is not one SCC, or a larger
closed SCC lies elsewhere) the same steps run once more with the giant as the
sink.

Vertex, arc and component ids, and the out-table itself, are stored in the
index dtype of ``_index_dtype``: int32 when 2**16 <= n * k < 2**31, else
int64.  int32 is a storage type only: every pair key ``a * m + b`` and every
reverse key is int64 (``a * m`` wraps in 32 bits once m > 46,341), and so
are the counters the peels lower.  Large selections use
``ndarray.compress``, several times faster than a boolean-mask index;
``_distinct`` keeps the mask, which costs less on the few elements of a pair
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .digraph import KOutDigraph, _index_dtype, _indegree, _reverse_tails, _row_pointers

__all__ = [
    "Decomposition",
    "OutsideView",
    "scc",
    "condense",
    "giant",
    "one_in_core",
    "layers",
    "decompose",
]


@dataclass
class OutsideView:
    """Induced subgraph on the vertices outside a closed SCC (the giant),
    relabelled to local ids 0 .. size - 1.  Its component ids and heights
    are the host's with the giant's removed: ids by (height, smallest label),
    heights counting arcs into the giant, a sink of height 0."""

    vertices: np.ndarray  # sorted original ids (index dtype)
    indptr: np.ndarray  # (size + 1,) int64 CSR row pointers over local ids
    indices: np.ndarray  # local heads of arcs staying outside, repeats kept (index dtype)
    comp: np.ndarray  # (size,) canonical SCC id per local vertex (index dtype)
    height: np.ndarray  # per SCC id, its height in the host, nondecreasing (int32)

    @property
    def size(self) -> int:
        return self.vertices.size

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(source, target) local ids of every arc, in CSR order."""
        return np.repeat(np.arange(self.size), np.diff(self.indptr)), self.indices

    def row(self, v: int) -> list[int]:
        """Local endpoints of the arcs from local vertex v (with multiplicity)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]].tolist()


@dataclass
class Decomposition:
    """The full structural decomposition of one digraph.  Its id arrays are
    stored in the index dtype (``_index_dtype``): int32 on large tables."""

    scc_id: np.ndarray  # (n,) component id per vertex, reverse-topo numbering
    height: np.ndarray  # (n_scc,) int32 longest path to a sink, nondecreasing
    giant: np.ndarray  # sorted vertex ids of the largest closed SCC
    one_in_core: np.ndarray  # sorted vertex ids surviving in-degree-0 peeling
    all_reach_giant: bool
    view: OutsideView  # the induced subgraph outside the giant

    @property
    def closed(self) -> np.ndarray:
        """(n_scc,) True iff the component has no outgoing arc."""
        return self.height == 0

    @property
    def n_components(self) -> int:
        return self.height.size


# ---------------------------------------------------------------------------
# CSR helpers


def _indptr(rows: np.ndarray, nrows: int) -> np.ndarray:
    """Row pointers for entries whose (sorted) row ids are ``rows``."""
    return _row_pointers(np.bincount(rows, minlength=nrows))


def _members(mask: np.ndarray, dtype) -> np.ndarray:
    """Sorted positions of the True entries of ``mask``, stored as ``dtype``."""
    return np.arange(mask.size, dtype=dtype).compress(mask)


def _dense_csr(endpoints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n, k = endpoints.shape
    return np.arange(0, n * k + 1, k), endpoints.ravel()


def _rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The entries of the given CSR rows, concatenated."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return indices[shift + np.arange(shift.size)]


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values by sort + mask: on integer ids numpy 2.4's
    ``np.unique`` takes a hash path an order of magnitude slower."""
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _split(values: np.ndarray, indptr: np.ndarray) -> list[np.ndarray]:
    bounds = indptr.tolist()
    return [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _scc_labels(indptr: np.ndarray, indices: np.ndarray) -> tuple[int, np.ndarray]:
    """(number of SCCs, SCC label per vertex) of a CSR digraph whose rows may
    be unsorted, repeat a head or be empty.  Tarjan's (1972) search, iterative
    and linear in vertices plus arcs; labels are assigned as components
    complete, so they are reverse topological."""
    n = indptr.size - 1
    ptr, heads = indptr.tolist(), indices.tolist()
    nxt = ptr[:-1]  # the next arc to follow out of each vertex
    order = [-1] * n  # discovery index, -1 until visited
    low = [0] * n
    label = [-1] * n  # -1 while the vertex is on the stack or unvisited
    stack: list[int] = []
    ncomp = count = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            i = nxt[v]
            if i < ptr[v + 1]:
                nxt[v] = i + 1
                w = heads[i]
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    path.append(w)
                elif label[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
                continue
            path.pop()
            if path and low[v] < low[path[-1]]:
                low[path[-1]] = low[v]
            if low[v] == order[v]:
                w = -1
                while w != v:
                    w = stack.pop()
                    label[w] = ncomp
                ncomp += 1
    return ncomp, np.array(label, dtype=np.int64)


def _quotient(
    indptr: np.ndarray, indices: np.ndarray, labels: np.ndarray, nlabels: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the deduplicated arcs between distinct labels, rows sorted."""
    src = np.repeat(labels.astype(np.int64), np.diff(indptr))
    dst = labels[indices]
    ext = src != dst
    keys = _distinct(src.compress(ext) * nlabels + dst.compress(ext))
    return _indptr(keys // nlabels, nlabels), keys % nlabels


def _peel(
    rows_of: Callable[[np.ndarray], np.ndarray], deg: np.ndarray
) -> np.ndarray:
    """Level-synchronous peel: round 0 deletes every node of ``deg`` 0, and
    deleting node x lowers ``deg`` once per entry of ``rows_of([x])``.
    Returns the round in which each node went, -1 for the survivors, as
    int32.  Each round lowers ``deg`` in place (the caller's array: every
    caller hands over a count it no longer needs) and deduplicates only the
    nodes that reach 0, which beats counting every hit first (``np.unique``
    or sort + mask)."""
    level = np.full(deg.size, -1, dtype=np.int32)
    frontier = np.flatnonzero(deg == 0)
    depth = 0
    while frontier.size:
        level[frontier] = depth
        hit = rows_of(frontier)
        np.subtract.at(deg, hit, 1)
        frontier = _distinct(hit.compress(deg[hit] == 0))
        depth += 1
    return level


def _sweep(
    rows_of: Callable[[np.ndarray], np.ndarray], seen: np.ndarray, v: int
) -> np.ndarray:
    """Level-synchronous BFS from v that marks in ``seen`` every node v
    reaches through unmarked nodes; ``rows_of(frontier)`` lists the heads of
    the frontier's arcs.  Returns ``seen``."""
    seen[v] = True
    frontier = np.array([v])
    while frontier.size:
        hit = rows_of(frontier)
        frontier = _distinct(hit.compress(~seen[hit]))
        seen[frontier] = True
    return seen


def _induced(endpoints: np.ndarray, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the subgraph induced on the sorted vertices ``verts``,
    relabelled 0 .. verts.size - 1; arcs leaving ``verts`` are dropped."""
    local_of = np.full(endpoints.shape[0], -1, dtype=_index_dtype(*endpoints.shape))
    local_of[verts] = np.arange(verts.size)
    local = local_of[endpoints.take(verts, axis=0)]
    stays = local >= 0
    return _row_pointers(stays.sum(axis=1)), local.ravel().compress(stays.ravel())


def _rest(
    endpoints: np.ndarray, core: np.ndarray | None, sink: np.ndarray
) -> OutsideView:
    """The view outside ``sink``, a closed SCC (or no vertex at all), given
    the one-in-core mask ``core``: components numbered on their own by
    (height, smallest label), with their heights in the whole digraph.  With
    ``core`` None, a peel of the view finds its vertices in the one-in-core:
    no arc leaves the sink, so they are the one-in-core of the view itself.

    Every cycle lies in the one-in-core, so only its vertices outside the sink
    can share a component, and ``_scc_labels`` labels just those (whp a few,
    once the giant is the sink; no call at all when fewer than two are
    left).  Heights come from one peel over the arcs between distinct
    components, the sink standing in as one extra node of height 0.
    """
    n, k = endpoints.shape
    dtype = _index_dtype(n, k)
    verts = _members(~sink, dtype)
    m = verts.size
    indptr, indices = _induced(endpoints, verts)
    if core is None:
        indeg = np.bincount(indices, minlength=m)
        inner = np.flatnonzero(_peel(lambda f: _rows(indptr, indices, f), indeg) < 0)
    else:
        inner = np.flatnonzero(core[verts])
    outdeg = np.diff(indptr)
    rep = np.arange(m)  # smallest local member of each vertex's component
    if inner.size > 1:
        nlabels, labels = _scc_labels(*_induced(endpoints, verts[inner]))
        low = np.full(nlabels, m, dtype=np.int64)
        np.minimum.at(low, labels, inner)
        rep[inner] = low[labels]
    # arcs between distinct components, plus one arc to node m per vertex
    # with an arc into the sink
    src = np.repeat(rep, outdeg)
    dst = rep[indices]
    cross = src != dst
    exits = np.flatnonzero(outdeg < k)
    src = np.concatenate([src.compress(cross), rep[exits]])
    dst = np.concatenate([dst.compress(cross), np.full(exits.size, m)])
    preds = np.sort(dst * (m + 1) + src)  # the tails, grouped by head
    p_indptr = _indptr(preds // (m + 1), m + 1)
    preds %= m + 1
    outs = np.bincount(src, minlength=m + 1)
    level = _peel(lambda f: _rows(p_indptr, preds, f), outs)
    reps = np.flatnonzero(rep == np.arange(m))
    height = level[reps]
    if (height < 0).any():
        raise AssertionError("condensation had a cycle; SCC labels are inconsistent")
    order = np.argsort(height.astype(np.int64) * m + reps)
    canon = np.empty(reps.size, dtype=dtype)
    canon[order] = np.arange(reps.size)
    index_of = np.zeros(m, dtype=dtype)
    index_of[reps] = np.arange(reps.size)
    return OutsideView(verts, indptr, indices, canon[index_of[rep]], height[order])


def _core_mask(endpoints: np.ndarray, indeg: np.ndarray) -> np.ndarray:
    """One-in-core membership; ``indeg`` is ``_indegree(endpoints)``, which
    the peel lowers in place."""
    return _peel(lambda f: endpoints.take(f, axis=0).ravel(), indeg) < 0


# ---------------------------------------------------------------------------
# public operations


def scc(g: KOutDigraph) -> tuple[np.ndarray, list[np.ndarray]]:
    """Exact SCCs; ids in reverse topological order of the condensation."""
    d = decompose(g)
    members = np.argsort(d.scc_id, kind="stable")
    return d.scc_id, _split(members, _indptr(d.scc_id, d.n_components))


def condense(
    g: KOutDigraph, sccs: tuple[np.ndarray, list[np.ndarray]]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Deduplicated condensation adjacency plus per-component closed flags."""
    scc_id, members = sccs
    indptr, indices = _quotient(*_dense_csr(g.endpoints), scc_id, len(members))
    return _split(indices, indptr), np.diff(indptr) == 0


def giant(g: KOutDigraph) -> np.ndarray:
    """Vertex set of the largest closed SCC (ties: smallest contained label)."""
    return decompose(g).giant


def one_in_core(g: KOutDigraph) -> np.ndarray:
    """Survivors of repeatedly deleting vertices with zero surviving in-degree.

    The result is the unique maximal vertex set inducing minimum in-degree
    >= 1 (equivalently: closed and surjective), so it is independent of the
    deletion order.
    """
    return np.flatnonzero(_core_mask(g.endpoints, _indegree(g.endpoints)))


def layers(g: KOutDigraph) -> tuple[int, int, int, int, bool]:
    """(|giant|, |core|, |core|-|giant|, n-|core|, every vertex reaches giant)."""
    d = decompose(g)
    gs, qs = d.giant.size, d.one_in_core.size
    return gs, qs, qs - gs, g.n - qs, d.all_reach_giant


def decompose(g: KOutDigraph) -> Decomposition:
    """Run the whole decomposition once; cheaper than calling the ops separately."""
    endpoints = g.endpoints
    dtype = _index_dtype(g.n, g.k)
    indeg = _indegree(endpoints)
    rev_indptr = _row_pointers(indeg, dtype)
    core = _core_mask(endpoints, indeg)
    del indeg
    # peak memory: build the reverse CSR and the member lists where the least
    # freed heap is held, before the closure and before _rest
    rev_tails = _reverse_tails(endpoints, dtype)
    v = int(np.argmax(core))
    closure = _sweep(lambda f: endpoints.take(f, axis=0).ravel(), np.zeros(g.n, dtype=bool), v)
    strong = _sweep(lambda f: _rows(rev_indptr, rev_tails, f), ~closure, v).all()
    del rev_indptr, rev_tails
    one_in_core = _members(core, dtype)
    sink = closure if strong else np.zeros(g.n, dtype=bool)
    rest = _rest(endpoints, core, sink)
    # the sink, if any, is component 0: its height is 0, and every other
    # closed component lies in the one-in-core, above its smallest vertex v
    s = int(strong)
    scc_id = np.zeros(g.n, dtype=dtype)
    scc_id[rest.vertices] = rest.comp + s
    height = np.concatenate([np.zeros(s, dtype=rest.height.dtype), rest.height])
    n_closed = int((height == 0).sum())
    gid = 0
    if n_closed > 1:
        gid = int(np.argmax(np.bincount(scc_id, minlength=n_closed)[:n_closed]))
    # whp the sink is the giant and rest is already the view outside it
    giant = sink if strong and gid == 0 else scc_id == gid
    return Decomposition(
        scc_id=scc_id,
        height=height,
        giant=_members(giant, dtype),
        one_in_core=one_in_core,
        all_reach_giant=n_closed == 1,
        view=rest if strong and gid == 0 else _rest(endpoints, core, giant),
    )

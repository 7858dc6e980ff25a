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
found by a level-synchronous BFS.  A backward BFS from v (``_sweep_back``)
decides whether every vertex of F reaches v, that is, whether F is one
closed SCC; whp it is, and it is the giant.  Its first rounds push over a
reverse CSR of the arcs out of the one-in-core, which holds F, built for
the check and dropped after it (its row pointers are the in-degree count
that the core peel lowered to the arcs from the core); once the rows of F
still waiting are at most ``PULL_RATIO`` times the frontier, its rounds
pull over the out-table instead.  F is closed, so every other SCC lies
outside it, and every cycle lies in the one-in-core, so only the core
vertices outside F can share a component.
``_scc_labels``, an iterative Tarjan (1972) search in pure Python, labels
just those: whp a few vertices, in microseconds; three in four replicates
at n = 2*10^4 have fewer than two and make no call.
When F is not one SCC (at small n, or when the largest SCC reaches an
absorbing vertex), the same steps run without F, and the search labels the
whole one-in-core.  That fallback is rare at large n, but it costs about
5 us per core vertex: 4.0 s on a forced fallback at n = 10^6, against
0.66 s for scipy's compiled pass, which the package no longer loads.  Heights
come from a pull over the view's own out-table (``_pull``), with F as a sink
of height 0: in round r a component settles at height r once every arc
leaving it lands on one settled earlier.  Each vertex's distance to F comes
from a BFS of the same kind, so W needs no second sweep.  A row whose arcs
all enter F settles without a look; any other is looked at either in a
round over every waiting row or as a predecessor of a row settled in the
round before, whichever list is shorter, so the rounds stay linear in the
view's rows and arcs even where the heights run to about sqrt(n) (k = 1).
The one-in-core comes from a peel.  Both are level-synchronous, one numpy
pass per level, and a random k-out digraph at k >= 2 has O(log n) levels
whp.  Every vertex reaches some closed
component, so every vertex reaches the giant iff the giant is the only closed
component.

The vertices outside F, with their CSR, ids, heights and distances, are the
view outside the giant whenever F is the giant.  Otherwise (F is not one
SCC, or a larger closed SCC lies elsewhere) the same steps run once more
with the giant as the sink.

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

# _sweep_back pulls once the waiting rows are at most this many times the
# frontier: a pull reads k heads per waiting row and sorts nothing, a push
# gathers the frontier's in-arcs and sorts the new tails.  At n = 10^6 the
# sweep took 60 ms with a ratio of 1 and 46 ms at 3 to 6 (k = 2; 54 and
# 39-40 ms at k = 3)
PULL_RATIO = 4


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
    dist: np.ndarray  # (size,) int32 arcs to the giant, -1 where out of reach

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
    return np.flatnonzero(mask).astype(dtype, copy=False)


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


def _by_row(ufunc: np.ufunc, table: np.ndarray, dtype=None) -> np.ndarray:
    """``ufunc.reduce(table, axis=1)``, one column at a time, as ``dtype``
    (default the table's): numpy reduces a short last axis several times
    slower (9 against 0.2 ms for the row maxima of a 200,000 x 2 table)."""
    out = table[:, 0].astype(dtype or table.dtype)
    for j in range(1, table.shape[1]):
        ufunc(out, table[:, j], out=out)
    return out


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


def _sweep_back(
    table: np.ndarray, indptr: np.ndarray, tails: np.ndarray, seen: np.ndarray, v: int
) -> np.ndarray:
    """Level-synchronous BFS from v against the arcs of the out-table
    ``table``: marks in ``seen`` every node that reaches v through unmarked
    nodes.  (``indptr``, ``tails``) is the reverse CSR of the table's arcs
    out of a set of rows that holds every unmarked one.  The unmarked nodes
    must be closed under the table's arcs (a forward closure), so that a
    marked head of an unmarked row is one reached by the sweep.

    Each round pushes from the frontier over the reverse CSR, or pulls over
    the rows still waiting (a row is reached once any of its heads is), as
    in Beamer, Asanovic & Patterson's direction-optimizing BFS (SC 2012).
    It pulls once the waiting rows are at most ``PULL_RATIO`` times the
    frontier.  The first pull lists the waiting rows with one pass over all
    of ``seen``; each later pull costs at most ``PULL_RATIO`` times the
    frontier before it, so the sweep stays linear in rows plus arcs.  The
    first rounds push; the last ones, where the frontier is a large share
    of the few rows left, pull.  Returns ``seen``."""
    seen[v] = True
    left = seen.size - np.count_nonzero(seen)  # the rows still waiting
    frontier = np.array([v])
    todo = None  # the waiting rows, listed at the first pull
    while frontier.size and left:
        if left <= PULL_RATIO * frontier.size:
            todo = np.flatnonzero(~seen) if todo is None else todo.compress(~seen.take(todo))
            # indexing, unlike take, casts int32 heads to intp a buffer at a
            # time, not as one whole copy (VmHWM 395 against 459 MB at 10^7)
            hit = _by_row(np.logical_or, seen[table.take(todo, axis=0)])
            frontier = todo.compress(hit)
            todo = todo.compress(~hit)
        else:
            hit = _rows(indptr, tails, frontier)
            frontier = _distinct(hit.compress(~seen[hit]))
        seen[frontier] = True
        left -= frontier.size
    return seen


def _induced(table: np.ndarray, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the subgraph that the out-table ``table`` (heads 0 .. rows, the
    number of rows marking an arc out of the table) induces on the sorted
    vertices ``verts``, relabelled 0 .. verts.size - 1; arcs leaving
    ``verts`` are dropped.  On a view's local table the map is view-sized."""
    local_of = np.full(table.shape[0] + 1, -1, dtype=_index_dtype(*table.shape))
    local_of[verts] = np.arange(verts.size)
    local = local_of.take(table.take(verts, axis=0))
    stays = local >= 0
    indptr = _row_pointers(_by_row(np.add, stays, np.int64))
    return indptr, local.ravel().compress(stays.ravel())


def _pull(
    table: np.ndarray, outdeg: np.ndarray, indices: np.ndarray, rep: np.ndarray, inner: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(height, distance to the sink) of every vertex of a view, from its
    local out-table ``table``, where m (the view's size) marks an arc into
    the sink; ``outdeg`` counts each row's other arcs, whose heads are
    ``indices`` in row order.  ``rep`` is the smallest member of each
    vertex's component, and ``inner`` lists the view's core vertices, which
    hold every self-loop and every nontrivial component.

    In round r a component settles at height r once every arc leaving it
    lands on a component settled in an earlier round; the sink counts as
    height 0, and an arc inside its own component counts for nothing.  A row
    with every arc into the sink settles at 1 without a look.  Only the core
    can hold a component closed in the view (height 0), and only its rows
    need the check on ``rep``: a nontrivial component settles as a whole,
    when none of its members is held back; its unsettled rows are checked
    every round (whp a handful).  A vertex is at distance r once an arc
    lands on one at distance r - 1, a BFS from the sink.

    Each round looks either at every row still waiting (a pull over the
    table) or only at the predecessors of the rows settled in the round
    before (over the reversed arcs of the view), whichever list is shorter.
    A pull thus costs at most the previous round's yield, and every round
    is paid for by the rows it follows, so both loops are linear in rows
    plus arcs even where the heights are long (about sqrt(n) at k = 1).  At
    k >= 2 the waiting rows shrink by more than half a round and nearly
    every round pulls.  Both results are int32, and a distance is -1 where
    the sink is out of reach."""
    m, k = table.shape
    rev: list[np.ndarray] = []  # the tails of the view's arcs by head, built once asked

    def preds(rows: np.ndarray) -> np.ndarray:
        # the distinct rows with an arc onto one of ``rows``
        if not rev and rows.size:
            tails = np.repeat(np.arange(m, dtype=indices.dtype), outdeg)
            rev.append(_row_pointers(np.bincount(indices, minlength=m)))
            rev.append(tails.take(np.argsort(indices, kind="stable")))
        return _distinct(_rows(*rev, rows)) if rows.size else rows

    top = np.iinfo(np.int32).max  # not settled yet
    level = np.full(m + 1, top, dtype=np.int32)
    level[m] = 0
    rep_ext = np.append(rep, m)
    held = np.zeros(m, dtype=bool)

    def closed(rows: np.ndarray, r: int) -> np.ndarray:
        # which core rows settle in round r, checked per component
        heads, reps = table.take(rows, axis=0), rep.take(rows)
        out = (level.take(heads) >= r) & (rep_ext.take(heads) != reps[:, None])
        stuck = reps.compress(_by_row(np.logical_or, out))
        held[stuck] = True
        ok = ~held.take(reps)
        held[stuck] = False
        return ok

    ok = closed(inner, 0)
    fresh = inner.compress(ok)  # the rows settled in the round before
    level[fresh] = 0
    new = np.flatnonzero(outdeg == 0)  # settled in round 1 without a look
    level[new] = 1
    wait = inner.compress(level.take(inner) == top)
    todo = np.flatnonzero(level[:m] == top)  # may hold rows settled since
    left = todo.size
    r = 1
    while True:
        if wait.size:
            ok = closed(wait, r)
            got = wait.compress(ok)
            level[got] = r
            left -= got.size
            new = np.concatenate([new, got])
            wait = wait.compress(~ok)
        if todo.size <= fresh.size:
            todo = todo.compress(level.take(todo) == top)
            ok = _by_row(np.maximum, level.take(table.take(todo, axis=0))) < r
            got = todo.compress(ok)
            todo = todo.compress(~ok)
        else:
            got = preds(fresh)
            got = got.compress(level.take(got) == top)
            got = got.compress(_by_row(np.maximum, level.take(table.take(got, axis=0))) < r)
        level[got] = r
        left -= got.size
        fresh = np.concatenate([new, got])
        if not fresh.size:
            break
        new = fresh[:0]
        r += 1
    if left:
        raise AssertionError("condensation had a cycle; SCC labels are inconsistent")

    dist = np.full(m, top, dtype=np.int32)
    front = np.flatnonzero(outdeg < k)
    near = np.flatnonzero(outdeg == k)  # rows with no arc into the sink
    d = 1
    while front.size:
        dist[front] = d
        d += 1
        if near.size <= front.size:
            near = near.compress(dist.take(near) == top)
            hit = _by_row(np.minimum, dist.take(table.take(near, axis=0))) < d
            front = near.compress(hit)
            near = near.compress(~hit)
        else:
            front = preds(front)
            front = front.compress(dist.take(front) == top)
    dist[dist == top] = -1
    return level[:m], dist


def _rest(
    endpoints: np.ndarray, core: np.ndarray | None, sink: np.ndarray
) -> OutsideView:
    """The view outside ``sink``, a closed SCC (or no vertex at all), given
    the one-in-core mask ``core``: components numbered on their own by
    (height, smallest label), with their heights in the whole digraph, and
    each vertex's distance to the sink.  With ``core`` None, a peel of the
    view finds its vertices in the one-in-core: no arc leaves the sink, so
    they are the one-in-core of the view itself.

    One local out-table of the view, with m (its size) marking an arc into
    the sink, gives the CSR, the input of ``_scc_labels`` and ``_pull``.
    Every cycle lies in the one-in-core, so only its vertices outside the
    sink can share a component, and ``_scc_labels`` labels just those (whp a
    few, once the giant is the sink; no call at all when fewer than two are
    left).
    """
    n, k = endpoints.shape
    dtype = _index_dtype(n, k)
    verts = _members(~sink, dtype)
    m = verts.size
    local_of = np.full(n, m, dtype=dtype)
    local_of[verts] = np.arange(m, dtype=dtype)
    table = local_of.take(endpoints.take(verts, axis=0))
    del local_of
    stays = table < m
    outdeg = _by_row(np.add, stays, np.int64)
    indptr = _row_pointers(outdeg)
    indices = table.ravel().compress(stays.ravel())
    del stays
    if core is None:
        indeg = np.bincount(indices, minlength=m)
        inner = np.flatnonzero(_peel(lambda f: _rows(indptr, indices, f), indeg) < 0)
    else:
        inner = np.flatnonzero(core[verts])
    rep = np.arange(m, dtype=dtype)  # smallest local member of each vertex's component
    if inner.size > 1:
        nlabels, labels = _scc_labels(*_induced(table, inner))
        low = np.full(nlabels, m, dtype=np.int64)
        np.minimum.at(low, labels, inner)
        rep[inner] = low[labels]
    level, dist = _pull(table, outdeg, indices, rep, inner)
    del table, outdeg
    reps = np.flatnonzero(rep == np.arange(m, dtype=dtype))
    height = level[reps]
    # reps ascend, so a stable sort orders them by (height, smallest label)
    order = np.argsort(height, kind="stable")
    canon = np.empty(reps.size, dtype=dtype)
    canon[order] = np.arange(reps.size)
    index_of = np.zeros(m, dtype=dtype)
    index_of[reps] = np.arange(reps.size)
    comp = canon.take(index_of.take(rep))
    return OutsideView(verts, indptr, indices, comp, height.take(order), dist)


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
    core = _core_mask(endpoints, indeg)
    one_in_core = _members(core, dtype)
    # the closure lies in the one-in-core, so the backward sweep needs only
    # the arcs out of it: the peel left their count in indeg.  Peak memory:
    # build the reverse CSR where the least freed heap is held, before the
    # closure and before _rest
    rev_indptr = _row_pointers(indeg, dtype)
    del indeg
    rev_tails = _reverse_tails(endpoints, dtype, one_in_core)
    v = int(np.argmax(core))
    closure = _sweep(lambda f: endpoints.take(f, axis=0).ravel(), np.zeros(g.n, dtype=bool), v)
    strong = _sweep_back(endpoints, rev_indptr, rev_tails, ~closure, v).all()
    del rev_indptr, rev_tails
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

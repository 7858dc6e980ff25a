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

SCCs are found around one closed SCC, the sink, instead of by one pass over
all vertices.  Let v be the smallest vertex of the one-in-core and F its
forward closure.  A backward sweep from v, over a reverse CSR of the arcs out
of the one-in-core, marks B, the vertices of F that reach v; both are runs
of ``_sweep`` (see it and ``PULL_RATIO`` for when the backward one pulls).
Whp B = F, and F is the giant.  Otherwise F minus B is closed and misses v,
and the same step from one of its vertices finds a strictly smaller closure,
until B = F: the forward-backward step of Fleischer, Hendrickson & Pinar
(IPDPS workshops 2000), used only to find one sink component.  Every other
SCC lies outside the sink and every cycle in the one-in-core, so only the
core vertices outside the sink can share a component.  ``_scc_labels``, an
iterative Tarjan (1972) search in pure Python, labels just those, on their
local out-table: whp a few vertices, in microseconds; three in four
replicates at n = 2*10^4 have fewer than two and make no call.

Heights and distances to the sink (height 0) take one pass of the view
outside it over the rounds of the core peel (see ``_rest`` and
``_core_levels``).  The peel and the sweeps are level-synchronous, and a
random k-out digraph at k >= 2 has O(log n) levels whp (about sqrt(n) at
k = 1).  The peel takes one numpy pass per round.  A sweep takes one numpy
pass per level, except that a level from a frontier of at most ``THIN``
vertices is one scalar step over memoryviews of the rows (a row reader's
``heads``), which builds no array: the first levels of every sweep, and
every level of a long path outside the giant, which would otherwise pay the
fixed cost of a numpy pass per vertex.  Every vertex reaches some closed
component, so every vertex reaches the giant iff the giant is the only
closed component.

The vertices outside the sink, with their local out-table, ids, heights and
distances, are the view outside the giant whenever the sink is the giant;
otherwise the same steps run once more with the giant as the sink.

Index arrays are stored in the dtype of ``digraph._index_dtype`` (see
``KOutDigraph`` for the keys that must be int64).  Large selections use
``ndarray.compress``, several times faster than a boolean-mask index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

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

# a backward _sweep pulls once the waiting rows are at most this many times
# the frontier: a pull reads k heads per waiting row and sorts nothing, a
# push gathers the frontier's in-arcs and sorts the new tails, so a pull row
# costs about a quarter of a push row; ratios of 3 to 6 beat 1 and 2
# (``BENCH_24.json``, ``in_process``)
PULL_RATIO = 4

# a search (_sweep, distance._PairSearch) runs a level whose frontier holds
# at most this many vertices as one scalar step: it reads the frontier's rows
# as Python ints through flat memoryviews (a row reader's ``heads``) and
# marks the new vertices one by one, where a numpy level costs several us
# whatever its size.  In pair searches 8 was the best value or within noise
# of it at k = 2, 3 and n = 10^5, 10^6, 16 and 32 lost there, and at k = 1
# every value from 2 up gained 5-8x over 0 (``BENCH_33.json``, ``thin``)
THIN = 8


@dataclass
class OutsideView:
    """Induced subgraph on the vertices outside a closed SCC (the giant),
    relabelled to local ids 0 .. size - 1, as a k-out table whose value
    ``size`` is the giant, one absorbing state.  The giant is closed, so no
    path between two vertices outside it passes through it: the view's SCCs
    are the host's other than the giant.  Its component ids and heights are
    the host's with the giant's removed: ids by (height, smallest label),
    heights counting arcs into the giant, a sink of height 0."""

    vertices: np.ndarray  # sorted original ids (index dtype)
    table: np.ndarray  # (size, k) local heads, size marking an arc into the giant (index dtype)
    comp: np.ndarray  # (size,) canonical SCC id per local vertex (index dtype)
    height: np.ndarray  # per SCC id, its height in the host, nondecreasing (int32)
    dist: np.ndarray  # (size,) int32 arcs to the giant, -1 where out of reach

    @property
    def size(self) -> int:
        return self.vertices.size

    @cached_property
    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(source, target) local ids of every arc that stays in the view, in
        (source, label) order: listed on first use and kept, so the cycles,
        the scan and the longest path share one list."""
        heads = self.table.ravel()
        at = np.flatnonzero(heads < self.size)
        return at // self.table.shape[1], heads.take(at)


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


def _rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The entries of the given CSR rows, concatenated."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return indices[shift + np.arange(shift.size)]


# Row readers, one per layout that a search walks: ``push(front)`` gathers the
# rows of a frontier with numpy calls, ``heads(front)`` those of a thin one
# (``THIN``) as a list of Python ints, through flat memoryviews of the same
# table, or None where its rows are too long for that (``distance._InRows``).
# Both list every entry of the rows, repeats included.


class _OutRows:
    """The rows of the out-table ``table``."""

    def __init__(self, table: np.ndarray):
        self.table, self.k = table, table.shape[1]
        self.flat = memoryview(np.ascontiguousarray(table).reshape(-1))

    def push(self, front: np.ndarray) -> np.ndarray:
        return self.table.take(front, axis=0).ravel()

    def heads(self, front: Iterable[int]) -> list[int]:
        flat, k, out = self.flat, self.k, []
        for v in front:
            out += flat[v * k : v * k + k]
        return out


class _CsrRows:
    """The rows of the CSR ``indptr``, ``indices``."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr, self.indices = indptr, indices
        self.ptr, self.flat = memoryview(indptr), memoryview(indices)

    def push(self, front: np.ndarray) -> np.ndarray:
        return _rows(self.indptr, self.indices, front)

    def heads(self, front: Iterable[int]) -> list[int]:
        ptr, flat, out = self.ptr, self.flat, []
        for v in front:
            out += flat[ptr[v] : ptr[v + 1]]
        return out


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values by sort + mask: on integer ids numpy 2.4's
    ``np.unique`` takes a hash path an order of magnitude slower, and on the
    few elements of a pair search the mask costs less than ``compress``."""
    values = np.sort(values)
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _stable_order(values: np.ndarray, top: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` of values in 0 .. ``top``, sorted
    as the smallest unsigned dtype that holds ``top``: numpy radix-sorts 8-
    and 16-bit keys (0.9 against 4.9 ms for 203,000 heights at n = 10^6,
    ``BENCH_33.json``, ``micro``), and the permutation is the same."""
    return np.argsort(values.astype(np.min_scalar_type(top)), kind="stable")


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


def _scc_labels(table: np.ndarray) -> tuple[int, np.ndarray]:
    """(number of SCCs, SCC label per row) of the out-table ``table``, whose
    rows may repeat a head; a head at or past the row count is an arc out of
    the table and is skipped.  Tarjan's (1972) search, iterative and linear
    in rows plus arcs; labels are assigned as components complete, so they
    are reverse topological."""
    n, k = table.shape
    heads = table.ravel().tolist()
    nxt = list(range(0, n * k, k))  # the next arc to follow out of each vertex
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
            if i < v * k + k:
                nxt[v] = i + 1
                w = heads[i]
                if w >= n:
                    continue
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
    table: np.ndarray, labels: np.ndarray, nlabels: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the deduplicated arcs between distinct labels of the out-table
    ``table``, rows sorted.  ``labels`` labels each row, then any head past
    the rows; only the arcs that cross labels make keys."""
    own = labels[: table.shape[0]]
    heads = labels.take(table)
    cross = heads != own[:, None]
    tails = np.repeat(own.astype(np.int64), _by_row(np.add, cross, np.int64))
    keys = _distinct(tails * nlabels + heads.ravel().compress(cross.ravel()))
    return _indptr(keys // nlabels, nlabels), keys % nlabels


def _peel(endpoints: np.ndarray, deg: np.ndarray) -> Iterator[np.ndarray]:
    """Level-synchronous peel of the out-table ``endpoints``, whose vertices
    have in-degree ``deg``: yields the vertices of each round, round 0 those
    of ``deg`` 0, each later one those whose in-arcs all left in earlier
    rounds.  ``deg`` is lowered in place (the caller's array: every caller
    hands over a count it no longer needs); once the peel ends, the
    survivors are the vertices it leaves above 0.  A round deduplicates only
    the vertices that reach 0, which beats counting every hit first
    (``np.unique`` or sort + mask)."""
    front = np.flatnonzero(deg == 0)
    while front.size:
        yield front
        hit = endpoints.take(front, axis=0).ravel()
        np.subtract.at(deg, hit, 1)
        front = _distinct(hit.compress(deg[hit] == 0))


def _sweep(
    seen: np.ndarray, front: np.ndarray | list[int], rows, table: np.ndarray | None = None
) -> Iterator[np.ndarray | list[int]]:
    """Level-synchronous BFS from the nodes ``front`` through the nodes
    unmarked in ``seen``: marks every node it reaches and yields each level,
    ascending, ``front`` first.  ``rows``, a row reader (``_OutRows``,
    ``_CsrRows`` or ``distance._InRows``), lists the nodes one arc from the
    frontier, repeats allowed.  A push from a frontier of at most ``THIN``
    nodes whose rows ``rows.heads`` reads is one scalar step, which marks as
    it goes and yields a list, so a thin stretch (a long path) builds no
    array per level; every other level is an array.

    Given ``table``, an out-table whose arcs the sweep follows backward, a
    round may pull instead: it reaches each waiting row with a marked head,
    as in Beamer, Asanovic & Patterson's direction-optimizing BFS (SC 2012).
    A node marked before the sweep and not in ``front`` must be no head of
    an unmarked row (as when the unmarked nodes are a forward closure), so
    that a marked head of a waiting row is one reached in the round before.
    The sweep pulls once the waiting rows are at most
    ``PULL_RATIO`` times the frontier: the first pull lists them with one
    pass over all of ``seen``, and each later pull costs at most
    ``PULL_RATIO`` times the frontier before it, so the sweep stays linear in
    rows plus arcs.  The first rounds push; the last ones, where the frontier
    is a large share of the few rows left, pull."""
    seen[front] = True
    flags = memoryview(seen)
    left = seen.size - np.count_nonzero(seen)  # the rows still waiting
    todo = None  # the waiting rows, listed at the first pull
    while len(front):
        yield front
        if not left:
            return
        if table is not None and left <= PULL_RATIO * len(front):
            todo = np.flatnonzero(~seen) if todo is None else todo.compress(~seen.take(todo))
            # indexing, unlike take, casts int32 heads to intp a buffer at a
            # time, not as one whole copy (``BENCH_24.json``, ``pull_gather_ms``)
            hit = _by_row(np.logical_or, seen[table.take(todo, axis=0)])
            front = todo.compress(hit)
            todo = todo.compress(~hit)
        elif len(front) <= THIN and (hit := rows.heads(front)) is not None:
            new = []
            for u in hit:
                if not flags[u]:
                    flags[u] = True
                    new.append(u)
            new.sort()
            front = new
            left -= len(new)
            continue
        else:
            hit = rows.push(np.asarray(front))
            front = _distinct(hit.compress(~seen[hit]))
        seen[front] = True
        left -= front.size


def _local(
    table: np.ndarray, verts: np.ndarray, rounds: Iterable[np.ndarray] = ()
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The out-table that ``table`` (heads 0 .. rows, the number of rows
    marking an arc out of the table) induces on the sorted vertices
    ``verts``, relabelled 0 .. m - 1 with m = verts.size marking an arc out of
    ``verts``, and ``rounds``, lists of vertices of ``verts``, relabelled.  On
    a view's local table the map is view-sized."""
    m = verts.size
    local_of = np.full(table.shape[0] + 1, m, dtype=_index_dtype(*table.shape))
    local_of[verts] = np.arange(m)
    return local_of.take(table.take(verts, axis=0)), [local_of.take(r) for r in rounds]


def _core_levels(
    table: np.ndarray, inner: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(position in ``inner`` of the smallest member of its component,
    height, distance to the sink) of each core vertex of a view, from the
    sorted ids ``inner`` of those vertices in the out-table ``table``.  The
    core is closed, so their arcs stay among them or enter the sink, and
    only they can share a component; ``_scc_labels`` labels them on their
    local out-table, the sink as the arc out of it (no call for fewer than
    two).  Its labels are reverse topological, so one pass over their
    quotient in label order gives each component's height, the sink
    counting 0.  A push-only ``_sweep`` over their reverse arcs, from the rows
    with an arc into the sink, gives their distances, int32 max where out of
    reach."""
    sub = _local(table, inner)[0]
    one = (inner.size, np.zeros(inner.size, dtype=np.int64))  # fewer than two
    nlabels, labels = _scc_labels(sub) if inner.size > 1 else one
    low = np.full(nlabels, inner.size, dtype=np.int64)
    np.minimum.at(low, labels, np.arange(inner.size))
    # the sink takes label 0, below every component with an arc into it
    labels += 1
    bounds, succ = (a.tolist() for a in _quotient(sub, np.append(labels, 0), nlabels + 1))
    height = [0] * (nlabels + 1)
    for c in range(1, nlabels + 1):
        height[c] = 1 + max([height[d] for d in succ[bounds[c] : bounds[c + 1]]], default=-1)
    dist = np.full(inner.size, np.iinfo(np.int32).max, dtype=np.int32)
    # the rows with an arc into the sink
    into = np.flatnonzero(_by_row(np.logical_or, sub == inner.size))
    if into.size:
        seen = np.zeros(inner.size + 1, dtype=bool)
        seen[-1] = True  # the sink
        # the arcs into the sink make the last row and the last tails
        rev = _CsrRows(_row_pointers(_indegree(sub)), _reverse_tails(sub, sub.dtype))
        at = memoryview(dist)  # a scalar level's distances, one vertex at a time
        for d, front in enumerate(_sweep(seen, into, rev), 1):
            if isinstance(front, list):
                for v in front:
                    at[v] = d
            else:
                dist[front] = d
    return low.take(labels - 1), np.array(height, dtype=np.int32).take(labels), dist


def _rest(
    endpoints: np.ndarray, core: np.ndarray, rounds: list[np.ndarray], sink: np.ndarray
) -> OutsideView:
    """The view outside ``sink``, a closed SCC, given the one-in-core mask
    ``core`` and the rounds of the peel that found it: components numbered
    on their own by (height, smallest label), with their heights in the
    whole digraph, and each vertex's distance to the sink (int32, -1 where
    out of reach).

    ``_core_levels`` gives the heights and distances of the view's core
    vertices (whp a few, once the giant is the sink), before the view's
    table is built: when the sink is a closed SCC smaller than the giant,
    the Tarjan search labels the giant in pure Python, and its lists should
    not be held with the table.  One local out-table of the view, with m
    (its size) marking an arc into the sink, is the view's table and gives
    the rest of the heights and distances, the sink counting 0 for both.
    Every other view vertex is a singleton without a self-loop, deleted by
    the peel, and its arcs lead to the core, the sink or vertices deleted in
    later rounds.  So, last round first, each takes 1 + the max of its
    heads' heights and 1 + the min of their distances, one numpy step per
    round; a row whose arcs all enter the sink has both 1 without a look.
    """
    dtype = _index_dtype(*endpoints.shape)
    verts = np.flatnonzero(~sink).astype(dtype, copy=False)
    m = verts.size
    inner = np.flatnonzero(core[verts])
    low, high, near = _core_levels(endpoints, verts.take(inner))
    table, rounds = _local(endpoints, verts, rounds)
    live = _by_row(np.logical_or, table < m)  # the rows with an arc that stays
    rep = np.arange(m, dtype=dtype)  # smallest local member of each vertex's component
    rep[inner] = inner.take(low)
    level = np.ones(m + 1, dtype=np.int32)
    dist = np.ones(m + 1, dtype=np.int32)
    level[inner], dist[inner] = high, near
    level[m] = dist[m] = 0
    top = np.iinfo(np.int32).max  # out of reach
    for rows in reversed(rounds):
        rows = rows.compress(live.take(rows))
        heads = table.take(rows, axis=0)
        level[rows] = _by_row(np.maximum, level.take(heads)) + 1
        d = _by_row(np.minimum, dist.take(heads))
        dist[rows] = d + (d < top)
    dist[dist == top] = -1
    reps = np.flatnonzero(rep == np.arange(m, dtype=dtype))
    height = level[reps]
    # reps ascend, so a stable sort orders them by (height, smallest label)
    order = _stable_order(height, int(height.max(initial=0)))
    canon = np.zeros(m, dtype=dtype)  # the id of each component, at its rep
    canon[reps.take(order)] = np.arange(reps.size)
    return OutsideView(verts, table, canon.take(rep), height.take(order), dist[:m])


def _core_mask(endpoints: np.ndarray, indeg: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """One-in-core membership and the rounds of the peel; ``indeg`` is
    ``_indegree(endpoints)``, which the peel lowers in place."""
    rounds = list(_peel(endpoints, indeg))
    return indeg > 0, rounds


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
    indptr, indices = _quotient(g.endpoints, scc_id, len(members))
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
    return np.flatnonzero(_core_mask(g.endpoints, _indegree(g.endpoints))[0])


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
    core, rounds = _core_mask(endpoints, indeg)
    one_in_core = np.flatnonzero(core).astype(dtype, copy=False)
    # every closure lies in the one-in-core, so the backward sweeps need only
    # the arcs out of it: the peel left their count in indeg.  Peak memory:
    # build the reverse CSR where the least freed heap is held, before the
    # closures and before _rest
    rev_indptr = _row_pointers(indeg, dtype)
    del indeg
    rev_tails = _reverse_tails(endpoints, dtype, one_in_core)
    out, rev = _OutRows(endpoints), _CsrRows(rev_indptr, rev_tails)
    v = int(np.argmax(core))
    while True:  # forward-backward rounds, until the closure F of v is one SCC
        sink = np.zeros(g.n, dtype=bool)
        last = np.asarray(deque(_sweep(sink, [v], out), maxlen=1)[0])
        back = ~sink  # marks the vertices outside F, then those of F that reach v
        deque(_sweep(back, [v], rev, endpoints), maxlen=0)
        if back.all():
            break
        # F minus back is closed and misses v: restart at its smallest vertex in
        # F's last level, if any (two rounds on the chain i -> (i, i + 1))
        last = last.compress(~back.take(last))
        v = int(last[0]) if last.size else int(np.argmax(~back))
    del rev_indptr, rev_tails, rev, back
    rest = _rest(endpoints, core, rounds, sink)
    # the sink's id is its rank among the closed components by smallest label,
    # as the rest's closed ids (a prefix of its ids) are
    below = rest.comp[: np.searchsorted(rest.vertices, np.argmax(sink))]
    r = int(below.compress(rest.height.take(below) == 0).max(initial=-1)) + 1
    scc_id = np.full(g.n, r, dtype=dtype)
    scc_id[rest.vertices] = rest.comp + (rest.comp >= r)
    height = np.insert(rest.height, r, 0)
    n_closed = int((height == 0).sum())
    gid = int(np.argmax(np.bincount(scc_id, minlength=n_closed)[:n_closed])) if n_closed > 1 else r
    # whp the sink is the giant and rest is already the view outside it
    giant = sink if gid == r else scc_id == gid
    return Decomposition(
        scc_id=scc_id,
        height=height,
        giant=np.flatnonzero(giant).astype(dtype, copy=False),
        one_in_core=one_in_core,
        all_reach_giant=n_closed == 1,
        view=rest if gid == r else _rest(endpoints, core, rounds, giant),
    )

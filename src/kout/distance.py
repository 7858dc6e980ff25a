"""Typical distances and the strong-connectivity phase transition.

``typical_distance`` answers each pair with a bidirectional level-synchronous
BFS (Pohl 1971): a forward search from the source over the out-table and a
backward search from the target over the digraph's reverse table (built on
first use and kept with the digraph), always expanding by one whole level
the side whose level gathers fewer entries.  A reverse row holds 3k in-arcs,
padded with n, and a last slot that links a vertex of larger in-degree to
its continuation rows (at k = 2 about one vertex in 200 has them), which are
contiguous.  A front of at most ``decompose.THIN`` vertices expands in one
scalar step: it reads its rows through memoryviews and marks each new vertex
as it comes, so the first levels of a pair, tiny in a random digraph, build
no arrays.  A wider front, or one holding a vertex with continuation rows,
expands in one numpy step: one ``take`` of whole rows (k heads a forward
row, 3k + 1 entries a reverse one), plus one slice for each whole chain of
continuation rows it meets.  One int8 array marks both searched balls, with
an (n + 1)-th slot fixed at -1 that drops the padding with the backward
side's own marks.  The balls are disjoint before an expansion, so the first
one that reaches the other ball gives the distance as the two level counts
plus one; an empty new level on either side proves the pair unreachable.
Whp a reachable pair meets after about log2 n levels, nearly free of
repeats, and an unreachable one is settled by the target's small backward
closure.  So a numpy step keeps repeats until its side's levels hold more
than n entries together (backward, n·k over the most entries that the rows
of one vertex hold), which bounds every expansion of repeats by n·k entries;
a scalar step has none.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .digraph import KOutDigraph, RngSpec, _check_int, _indegree, generate
from .decompose import _distinct, _OutRows, _sweep

# the module, whose ``THIN`` the pair search reads at call time (the package
# binds the name ``decompose`` to the function)
_decompose = importlib.import_module(".decompose", __package__)

__all__ = [
    "DistanceSample",
    "PhasePoint",
    "typical_distance",
    "is_strongly_connected",
    "phase_sweep",
]


@dataclass
class DistanceSample:
    """Arc distances between uniformly drawn ordered vertex pairs.

    Pairs are drawn with replacement; a pair (v, v) contributes distance 0.
    Unreachable pairs are counted in ``pairs_drawn`` but excluded from
    ``distances``.
    """

    pairs_drawn: int
    finite_count: int
    distances: list[int] = field(default_factory=list)


class _PairSearch:
    """Bidirectional BFS distances on one digraph, one pair at a time.

    ``marks`` is 1 where the source's search has been, -1 where the target's
    has and 0 elsewhere, reset after each pair; its slot n, the reverse
    table's padding, stays -1.  ``rows`` reads each side's rows (forward the
    out-table, backward the reverse table), ``budget`` is the entries each
    side's levels may hold, repeats counted, before they are deduplicated,
    and ``cost`` the entries that one vertex of a front gathers on each side
    (beside continuation rows).
    """

    def __init__(self, g: KOutDigraph):
        self.n = g.n
        table, widest = g.reverse_table
        self.rows = (_OutRows(g.endpoints), _InRows(table, g.n))
        self.marks = np.zeros(g.n + 1, dtype=np.int8)
        self.marks[g.n] = -1
        self.flags = memoryview(self.marks)
        self.budget = (g.n, g.n * g.k // widest)
        self.cost = (g.k, table.shape[1])

    def __call__(self, src: int, dst: int) -> int | None:
        """Arc distance src -> dst, or None when dst is unreachable."""
        if src == dst:
            return 0
        fronts: list = [[src], [dst]]
        levels, held = [0, 0], [1, 1]
        flags, thin, cost = self.flags, _decompose.THIN, self.cost
        flags[src], flags[dst] = 1, -1
        # the vertices marked by scalar steps, and the levels of numpy steps
        touched, seen = [src, dst], []
        touch = touched.append
        try:
            while True:
                side = 0 if len(fronts[0]) * cost[0] <= len(fronts[1]) * cost[1] else 1
                mark, rows, front = 1 - 2 * side, self.rows[side], fronts[side]
                reached = rows.heads(front) if len(front) <= thin else None
                if reached is not None:
                    # a scalar step marks as it reads, so a vertex is new once
                    start = len(touched)
                    for u in reached:
                        m = flags[u]
                        if not m:
                            flags[u] = mark
                            touch(u)
                        elif m != mark:
                            return levels[0] + levels[1] + 1
                    new = touched[start:]
                    held[side] += len(new)
                else:
                    # numpy casts an int32 index to intp on each lookup below;
                    # one cast here costs less (``BENCH_22.json``, ``pair_search_1e5``)
                    reached = rows.push(front).astype(np.intp, copy=False)
                    marks = self.marks.take(reached)
                    if (marks.min(initial=0) < 0) if side == 0 else (marks.max(initial=0) > 0):
                        return levels[0] + levels[1] + 1
                    new = reached.compress(marks == 0)
                    held[side] += new.size
                    if held[side] > self.budget[side]:
                        new = _distinct(new)
                    self.marks[new] = mark
                    seen.append(new)
                if not len(new):
                    return None
                levels[side] += 1
                fronts[side] = new
        finally:
            for u in touched:
                flags[u] = 0
            if seen:
                self.marks[np.concatenate(seen)] = 0


class _InRows:
    """Row reader (see ``decompose._OutRows``) of the reverse table ``table``
    of an n-vertex digraph (``digraph._reverse_table``): the tails of each
    vertex's in-arcs, padding (n) among them.  A vertex's continuation rows
    are contiguous, so ``push`` reads each whole chain in one step and reads
    its links as n.  ``heads`` leaves a front with continuation rows to
    ``push`` (it returns None): a hub's chain marked entry by entry in
    Python cost 1.5-1.6 ms a pair next to a hub of in-degree 2*10^4 at
    n = 10^5, against 0.08-0.14 ms by ``push`` (``BENCH_33.json``, ``hub``)."""

    def __init__(self, table: np.ndarray, n: int):
        self.table, self.n = table, n
        self.flat = memoryview(table.reshape(-1))
        self.width = table.shape[1]
        # one past the last row of each chain, ascending: a chain's last row links to n
        self.stop = np.flatnonzero(table[n + 1 :, -1] == n) + n + 2

    def push(self, front) -> np.ndarray:
        """The tails of the in-arcs of the vertices ``front``, as intp."""
        tails = self.table.take(front, axis=0).ravel().astype(np.intp, copy=False)
        if tails.max(initial=self.n) > self.n:
            # only links exceed n: one slice of rows per chain
            first = tails.compress(tails > self.n)
            end = self.stop.take(np.searchsorted(self.stop, first, side="right"))
            chains = [self.table[a:b].ravel() for a, b in zip(first.tolist(), end.tolist())]
            tails = np.concatenate([tails, *chains])
            np.minimum(tails, self.n, out=tails)
        return tails

    def heads(self, front: Iterable[int]) -> list[int] | None:
        flat, width, n, out = self.flat, self.width, self.n, []
        for v in front:
            out += flat[v * width : v * width + width]
            if out[-1] > n:
                return None
        return out


def typical_distance(g: KOutDigraph, pairs: int, rng: RngSpec) -> DistanceSample:
    """Sample ``pairs`` ordered vertex pairs and compute the distance of each
    by bidirectional BFS."""
    _check_int("pairs", pairs, 1)
    gen = rng.generator()
    draws = gen.integers(0, g.n, size=(pairs, 2), dtype=np.int64)
    search = _PairSearch(g)
    sample = DistanceSample(pairs_drawn=pairs, finite_count=0)
    for v1, v2 in draws.tolist():
        d = search(v1, v2)
        if d is not None:
            sample.finite_count += 1
            sample.distances.append(d)
    return sample


def is_strongly_connected(g: KOutDigraph) -> bool:
    """True iff the digraph has exactly one strongly connected component."""
    # a vertex of in-degree zero settles it without a search
    if has_indegree_zero_vertex(g):
        return False
    # strongly connected iff vertex 0 reaches every vertex and every vertex
    # reaches vertex 0
    def reaches_all(rows, table=None) -> bool:
        seen = np.zeros(g.n + 1, dtype=bool)
        seen[g.n] = True  # the reverse table's padding
        return sum(len(f) for f in _sweep(seen, [0], rows, table)) == g.n

    if not reaches_all(_OutRows(g.endpoints)):
        return False
    return reaches_all(_InRows(g.reverse_table[0], g.n), g.endpoints)


def has_indegree_zero_vertex(g: KOutDigraph) -> bool:
    return bool((_indegree(g.endpoints) == 0).any())


@dataclass
class PhasePoint:
    n: int
    k: int
    reps: int
    fraction_strongly_connected: float
    fraction_with_indeg_zero_vertex: float


def phase_sweep(
    n: int, k_min: int, k_max: int, reps: int, rng: RngSpec
) -> list[PhasePoint]:
    """For each k in [k_min, k_max], the fraction of ``reps`` digraphs that are
    strongly connected, and the fraction containing an in-degree-0 vertex.

    Replicate (k, r) uses stream ``rng.stream + (k - k_min) * reps + r``, so
    every one of them must be below 2**64: checked before any is drawn.
    """
    _check_int("k_min", k_min, 1)
    _check_int("k_max", k_max, k_min)
    _check_int("reps", reps, 1)
    count = (k_max - k_min + 1) * reps
    if rng.stream + count > 2**64:
        raise ValueError(
            f"phase_sweep needs stream <= 2**64 - {count} (its {count} digraphs draw "
            f"from streams stream .. stream + {count - 1}), got {rng.stream}"
        )
    points: list[PhasePoint] = []
    for ki, k in enumerate(range(k_min, k_max + 1)):
        sc = 0
        indeg0 = 0
        for r in range(reps):
            spec = RngSpec(rng.seed, rng.stream + ki * reps + r)
            g = generate(n, k, spec)
            indeg0 += has_indegree_zero_vertex(g)
            sc += is_strongly_connected(g)
        points.append(
            PhasePoint(
                n=n,
                k=k,
                reps=reps,
                fraction_strongly_connected=sc / reps,
                fraction_with_indeg_zero_vertex=indeg0 / reps,
            )
        )
    return points

"""Typical distances and the strong-connectivity phase transition.

``typical_distance`` answers each pair with a bidirectional level-synchronous
BFS (Pohl 1971): a forward search from the source over the out-table and a
backward search from the target over the digraph's reverse CSR (built on first
use and kept with the digraph), always expanding the smaller frontier by one
whole level.  One int8 array marks both searched balls.  They are disjoint
before an expansion, so the first one that reaches the other ball gives the
distance as the two level counts plus one; an empty new level on either side
proves the pair unreachable.  Whp a reachable pair meets after about log2 n
levels, nearly free of repeats, and an unreachable one is settled by the
target's small backward closure.  So a side keeps repeats until its levels
hold more than n entries together (backward, n·k over the largest in-degree),
which bounds every expansion by n·k entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .digraph import KOutDigraph, RngSpec, _check_int, _indegree, generate
from .decompose import _distinct, _rows, _sweep

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
    has and 0 elsewhere, reset after each pair; ``budget`` is the entries each
    side's levels may hold, repeats counted, before they are deduplicated.
    """

    def __init__(self, g: KOutDigraph):
        self.endpoints = g.endpoints
        self.rev_indptr, self.rev_indices = g.reverse_csr
        self.marks = np.zeros(g.n, dtype=np.int8)
        self.budget = (g.n, g.n * g.k // int(np.diff(self.rev_indptr).max()))

    def __call__(self, src: int, dst: int) -> int | None:
        """Arc distance src -> dst, or None when dst is unreachable."""
        if src == dst:
            return 0
        fronts = [np.array([src]), np.array([dst])]
        levels, held = [0, 0], [1, 1]
        seen = fronts.copy()
        self.marks[src], self.marks[dst] = 1, -1
        try:
            while True:
                side = 0 if fronts[0].size <= fronts[1].size else 1
                if side == 0:
                    # numpy casts an int32 index to intp on each lookup below;
                    # one cast here costs less (``BENCH_22.json``, ``pair_search_1e5``)
                    front = self.endpoints.take(fronts[0], axis=0).ravel()
                    reached = front.astype(np.intp, copy=False)
                else:
                    reached = _rows(self.rev_indptr, self.rev_indices, fronts[1])
                marks = self.marks.take(reached)
                if (marks.min(initial=0) < 0) if side == 0 else (marks.max(initial=0) > 0):
                    return levels[0] + levels[1] + 1
                new = reached.compress(marks == 0)
                held[side] += new.size
                if held[side] > self.budget[side]:
                    new = _distinct(new)
                if not new.size:
                    return None
                levels[side] += 1
                self.marks[new] = 1 - 2 * side
                seen.append(new)
                fronts[side] = new
        finally:
            self.marks[np.concatenate(seen)] = 0


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
    def reaches_all(push, table=None) -> bool:
        levels = _sweep(np.zeros(g.n, dtype=bool), np.array([0]), push, table)
        return sum(f.size for f in levels) == g.n

    if not reaches_all(lambda f: g.endpoints.take(f, axis=0).ravel()):
        return False
    return reaches_all(lambda f: _rows(*g.reverse_csr, f), g.endpoints)


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

    Replicate (k, r) uses stream ``rng.stream + (k - k_min) * reps + r``.
    """
    _check_int("k_min", k_min, 1)
    _check_int("k_max", k_max, k_min)
    _check_int("reps", reps, 1)
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

"""Typical distances and the strong-connectivity phase transition."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .digraph import KOutDigraph, RngSpec, generate
from .decompose import _dense_csr, _scc_labels

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


def _bfs_distance(endpoints: np.ndarray, n: int, src: int, dst: int) -> int | None:
    """Arc distance src -> dst, or None; stops as soon as dst is reached."""
    if src == dst:
        return 0
    visited = np.zeros(n, dtype=bool)
    visited[src] = True
    frontier = np.array([src], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        nxt = np.unique(endpoints[frontier].ravel())
        nxt = nxt[~visited[nxt]]
        if not nxt.size:
            return None
        if (nxt == dst).any():
            return d
        visited[nxt] = True
        frontier = nxt
    return None


def typical_distance(g: KOutDigraph, pairs: int, rng: RngSpec) -> DistanceSample:
    """Sample ``pairs`` ordered vertex pairs and BFS the distance of each."""
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    gen = rng.generator()
    draws = gen.integers(0, g.n, size=(pairs, 2), dtype=np.int64)
    sample = DistanceSample(pairs_drawn=pairs, finite_count=0)
    for v1, v2 in draws.tolist():
        d = _bfs_distance(g.endpoints, g.n, v1, v2)
        if d is not None:
            sample.finite_count += 1
            sample.distances.append(d)
    return sample


def is_strongly_connected(g: KOutDigraph) -> bool:
    """True iff the digraph has exactly one strongly connected component."""
    if g.n == 1:
        return True
    # a vertex of in-degree zero settles it without running SCC
    if has_indegree_zero_vertex(g):
        return False
    ncomp, _ = _scc_labels(*_dense_csr(g.endpoints))
    return ncomp == 1


def has_indegree_zero_vertex(g: KOutDigraph) -> bool:
    return bool((np.bincount(g.endpoints.ravel(), minlength=g.n) == 0).any())


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
    if not (1 <= k_min <= k_max):
        raise ValueError(f"need 1 <= k_min <= k_max, got {k_min}, {k_max}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    points: list[PhasePoint] = []
    for ki, k in enumerate(range(k_min, k_max + 1)):
        sc = 0
        indeg0 = 0
        for r in range(reps):
            spec = RngSpec(rng.seed, rng.stream + ki * reps + r)
            g = generate(n, k, spec)
            if has_indegree_zero_vertex(g):
                indeg0 += 1
            elif is_strongly_connected(g):
                sc += 1
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

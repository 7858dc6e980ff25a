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
Members and the condensation are stored flat, as CSR arrays.

SCC labels come from ``scipy.sparse.csgraph`` at every size (recursion-free,
holds up at n=10^6).  Heights and the one-in-core come from level-synchronous
peels, one numpy pass per level; a random k-out digraph has O(log n) levels
whp.  Every vertex reaches some closed component, so every vertex reaches the
giant iff the giant is the only closed component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _cs_connected_components

from .digraph import KOutDigraph

__all__ = [
    "Decomposition",
    "scc",
    "condense",
    "giant",
    "one_in_core",
    "layers",
    "decompose",
]


@dataclass
class Decomposition:
    """The full structural decomposition of one digraph."""

    scc_id: np.ndarray  # (n,) component id per vertex, reverse-topo numbering
    member_indptr: np.ndarray  # (n_scc + 1,) CSR row pointers into members
    members: np.ndarray  # (n,) vertex ids grouped by component id, ascending within each
    cond_indptr: np.ndarray  # (n_scc + 1,) CSR row pointers of the condensation
    cond_indices: np.ndarray  # per-component sorted successor ids, deduplicated
    closed: np.ndarray  # (n_scc,) True iff the component has no outgoing arc
    giant: np.ndarray  # sorted vertex ids of the largest closed SCC
    one_in_core: np.ndarray  # sorted vertex ids surviving in-degree-0 peeling
    all_reach_giant: bool

    @property
    def n_components(self) -> int:
        return self.closed.size


# ---------------------------------------------------------------------------
# CSR helpers


def _indptr(rows: np.ndarray, nrows: int) -> np.ndarray:
    """Row pointers for entries whose (sorted) row ids are ``rows``."""
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
    return indptr


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
    """(number of SCCs, arbitrary SCC label per vertex) of a CSR digraph."""
    n = indptr.size - 1
    mat = csr_matrix(
        (np.ones(indices.size, dtype=np.int8), indices, indptr), shape=(n, n)
    )
    ncomp, labels = _cs_connected_components(mat, directed=True, connection="strong")
    return int(ncomp), labels.astype(np.int64)


def _quotient(
    indptr: np.ndarray, indices: np.ndarray, labels: np.ndarray, nlabels: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the deduplicated arcs between distinct labels, rows sorted."""
    src = np.repeat(labels, np.diff(indptr))
    dst = labels[indices]
    ext = src != dst
    keys = _distinct(src[ext] * nlabels + dst[ext])
    return _indptr(keys // nlabels, nlabels), keys % nlabels


def _peel(
    rows_of: Callable[[np.ndarray], np.ndarray], deg: np.ndarray
) -> np.ndarray:
    """Level-synchronous peel: round 0 deletes every node of ``deg`` 0, and
    deleting node x lowers ``deg`` once per entry of ``rows_of([x])``.
    Returns the round in which each node went, -1 for the survivors.  Each
    round lowers ``deg`` in place and deduplicates only the nodes that reach
    0, which beats counting every hit first (``np.unique`` or sort + mask)."""
    deg = deg.copy()
    level = np.full(deg.size, -1, dtype=np.int64)
    frontier = np.flatnonzero(deg == 0)
    depth = 0
    while frontier.size:
        level[frontier] = depth
        hit = rows_of(frontier)
        np.subtract.at(deg, hit, 1)
        frontier = _distinct(hit[deg[hit] == 0])
        depth += 1
    return level


class _Components(NamedTuple):
    comp: np.ndarray  # (n,) canonical SCC id per vertex
    height: np.ndarray  # (ncomp,) height per id, nondecreasing in the id
    indptr: np.ndarray  # condensation CSR: sorted, deduplicated successor ids
    indices: np.ndarray


def _components(indptr: np.ndarray, indices: np.ndarray) -> _Components:
    """Canonically numbered SCCs and condensation of a CSR digraph."""
    n = indptr.size - 1
    ncomp, raw = _scc_labels(indptr, indices)
    q_indptr, q_dst = _quotient(indptr, indices, raw, ncomp)
    q_src = np.repeat(np.arange(ncomp), np.diff(q_indptr))
    # heights: peel sinks, walking each condensation arc backwards
    preds = q_src[np.argsort(q_dst, kind="stable")]
    p_indptr = _indptr(q_dst, ncomp)
    height = _peel(lambda f: _rows(p_indptr, preds, f), np.diff(q_indptr))
    if (height < 0).any():
        raise AssertionError("condensation had a cycle; SCC labels are inconsistent")
    low = np.full(ncomp, n, dtype=np.int64)
    np.minimum.at(low, raw, np.arange(n))
    order = np.lexsort((low, height))
    canon = np.empty(ncomp, dtype=np.int64)
    canon[order] = np.arange(ncomp)
    keys = np.sort(canon[q_src] * ncomp + canon[q_dst])
    return _Components(
        canon[raw], height[order], _indptr(keys // ncomp, ncomp), keys % ncomp
    )


def _core_mask(endpoints: np.ndarray) -> np.ndarray:
    indeg = np.bincount(endpoints.ravel(), minlength=endpoints.shape[0])
    return _peel(lambda f: endpoints[f].ravel(), indeg) < 0


# ---------------------------------------------------------------------------
# public operations


def scc(g: KOutDigraph) -> tuple[np.ndarray, list[np.ndarray]]:
    """Exact SCCs; ids in reverse topological order of the condensation."""
    cs = _components(*_dense_csr(g.endpoints))
    members = np.argsort(cs.comp, kind="stable")
    return cs.comp, _split(members, _indptr(cs.comp, cs.height.size))


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
    return np.flatnonzero(_core_mask(g.endpoints))


def layers(g: KOutDigraph) -> tuple[int, int, int, int, bool]:
    """(|giant|, |core|, |core|-|giant|, n-|core|, every vertex reaches giant)."""
    d = decompose(g)
    gs, qs = d.giant.size, d.one_in_core.size
    return gs, qs, qs - gs, g.n - qs, d.all_reach_giant


def decompose(g: KOutDigraph) -> Decomposition:
    """Run the whole decomposition once; cheaper than calling the ops separately."""
    cs = _components(*_dense_csr(g.endpoints))
    member_indptr = _indptr(cs.comp, cs.height.size)
    members = np.argsort(cs.comp, kind="stable")
    closed = cs.height == 0
    n_closed = int(closed.sum())
    gid = int(np.argmax(np.diff(member_indptr[: n_closed + 1])))
    return Decomposition(
        scc_id=cs.comp,
        member_indptr=member_indptr,
        members=members,
        cond_indptr=cs.indptr,
        cond_indices=cs.indices,
        closed=closed,
        giant=members[member_indptr[gid] : member_indptr[gid + 1]],
        one_in_core=np.flatnonzero(_core_mask(g.endpoints)),
        all_reach_giant=n_closed == 1,
    )

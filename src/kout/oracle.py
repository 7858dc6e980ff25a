"""Ground truth independent of the main pipeline.

Nothing in this module touches :mod:`kout.decompose` or :mod:`kout.outside`:
the graph statistics here are recomputed from scratch with one plain BFS
(``_bfs``: reachability, spectrum sizes, eccentricities, distances) and one
exhaustive sweep over vertex subsets (``_closed_surjective_masks``:
k-surjection sets, the one-in-core, and the tallies of :func:`enumerate_all`),
so they can arbitrate the fast implementations.  The number theory (Stirling
numbers, surjection counts) is exact big-integer arithmetic; expectations come
out as :class:`~fractions.Fraction`.

The brute-force helpers accept a plain endpoint table: any sequence of ``n``
rows, each a sequence of ``k`` vertex ids in ``[0, n)``.  Integer arguments go
through the package rule ``digraph._check_int``: a Python or numpy integer, not
a bool, at or above its minimum, or ``ValueError`` naming the argument.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from .digraph import _check_int

__all__ = [
    "stirling2",
    "surjection_count",
    "expected_k_surjections",
    "good_log_stirling",
    "gw_extinction",
    "gw_survival",
    "gw_bound",
    "gw_bound_survival",
    "EnumerationTally",
    "enumerate_all",
    "brute_scc_sets",
    "brute_giant",
    "brute_k_surjection_sets",
    "brute_one_in_core",
    "brute_cycles",
    "brute_spectrum_sizes",
    "brute_eccentricities",
    "brute_max_eccentricity",
    "brute_distance",
    "brute_longest_path",
]

STIRLING_MAX_X = 600
ENUMERATION_LIMIT = 10_000_000
_BRUTE_MAX_N = 24  # bitmask subsets; anything larger is not "desk scale"

Table = Sequence[Sequence[int]]


# ---------------------------------------------------------------------------
# exact combinatorics


def stirling2(x: int, y: int) -> int:
    """Stirling number of the second kind S{x, y}, exact.

    Rolling-row recurrence S{x,y} = y S{x-1,y} + S{x-1,y-1}; columns above y
    are never needed.  Guarded at x <= 600: beyond that use
    :func:`good_log_stirling`, which works in log space.
    """
    x, y = _check_int("x", x), _check_int("y", y)
    if y > x:
        raise ValueError(f"need 0 <= y <= x, got x={x}, y={y}")
    if x > STIRLING_MAX_X:
        raise ValueError(
            f"x={x} exceeds the exact-table limit {STIRLING_MAX_X}; "
            "use good_log_stirling for asymptotics"
        )
    if y == 0:
        return 1 if x == 0 else 0
    row = [0] * (y + 1)
    row[0] = 1  # S{0,0}
    for i in range(1, x + 1):
        hi = min(i, y)
        for j in range(hi, 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0  # S{i,0} = 0 for i >= 1
    return row[y]


def surjection_count(m: int, k: int) -> int:
    """Number of surjective functions [km] -> [m]: m! * S{km, m}."""
    m, k = _check_int("m", m, 1), _check_int("k", k, 1)
    return math.factorial(m) * stirling2(k * m, m)


def expected_k_surjections(n: int, s: int, k: int) -> Fraction:
    """Exact E[number of closed surjective vertex sets of size s].

    A fixed set of size s is closed and surjective with probability
    S{ks,s} s! / n^{ks}; multiply by C(n, s) choices of the set.
    """
    n, s, k = _check_int("n", n, 1), _check_int("s", s, 1), _check_int("k", k, 1)
    if s > n:
        raise ValueError(f"need 1 <= s <= n, got s={s}, n={n}")
    return Fraction(
        math.comb(n, s) * stirling2(k * s, s) * math.factorial(s), n ** (k * s)
    )


def good_log_stirling(s: int, k: int, tau: float) -> float:
    """log of the asymptotic approximation of S{ks, s}.

    log[(ks)!/s!] + s log(e^tau - 1) - ks log tau - (1/2) log(2 pi k s (1 - k e^{-tau})).

    The square-root factor uses ``1 - k exp(-tau)``; with ``1 - k exp(-k)``
    instead the ratio to the exact value converges to ~0.90 rather than 1
    (checked against exact S{400,200}), so that variant is rejected.
    """
    s, k = _check_int("s", s, 1), _check_int("k", k, 2)
    log_expm1_tau = tau + math.log1p(-math.exp(-tau))  # log(e^tau - 1), overflow-safe
    return (
        math.lgamma(k * s + 1)
        - math.lgamma(s + 1)
        + s * log_expm1_tau
        - k * s * math.log(tau)
        - 0.5 * math.log(2.0 * math.pi * k * s * (1.0 - k * math.exp(-tau)))
    )


# ---------------------------------------------------------------------------
# Galton-Watson probability generating function


def _check_gw_domain(mu: float, k: int, m: int) -> None:
    _check_int("k", k, 1)
    _check_int("m", m, 0)
    if not (0.0 < mu < 1.0):
        raise ValueError(f"mu must lie in (0, 1), got {mu!r}")


def gw_extinction(mu: float, k: int, m: int) -> float:
    """P(generation m is empty) for Bin(k, mu) offspring: the m-fold
    composition of phi(y) = (1 - mu(1-y))^k evaluated at 0."""
    _check_gw_domain(mu, k, m)
    y = 0.0
    for _ in range(m):
        y = (1.0 - mu * (1.0 - y)) ** k
    return y


def gw_survival(mu: float, k: int, m: int) -> float:
    """1 - gw_extinction(mu, k, m), iterated in the complement domain.

    s_{m+1} = 1 - (1 - mu s_m)^k via expm1/log1p, so survival probabilities of
    order (k mu)^m stay exactly representable where the extinction form has
    already rounded to 1.0.
    """
    _check_gw_domain(mu, k, m)
    s = 1.0
    for _ in range(m):
        s = -math.expm1(k * math.log1p(-mu * s))
    return s


def _check_bound_domain(mu: float, k: int, m: int) -> None:
    _check_int("k", k, 1)
    _check_int("m", m, 1)
    if not (0.0 < mu < 1.0 / (2 * k)):
        raise ValueError(f"bound requires mu in (0, 1/(2k)) = (0, {1/(2*k)}), got {mu!r}")


def gw_bound(mu: float, k: int, m: int) -> float:
    """Upper bound 1 - (k mu)^m + (1 - 2^{-m}) (k mu)^{m+1}, valid for k mu < 1/2."""
    _check_bound_domain(mu, k, m)
    kmu = k * mu
    return 1.0 - kmu**m + (1.0 - 0.5**m) * kmu ** (m + 1)


def gw_bound_survival(mu: float, k: int, m: int) -> float:
    """1 - gw_bound(mu, k, m), computed without cancellation:
    (k mu)^m (1 - (1 - 2^{-m}) k mu)."""
    _check_bound_domain(mu, k, m)
    kmu = k * mu
    return kmu**m * (1.0 - (1.0 - 0.5**m) * kmu)


# ---------------------------------------------------------------------------
# brute-force graph statistics (reachability closures, subset sweeps)


def _bfs(adj: Table | Mapping[int, Sequence[int]], r: int) -> dict[int, int]:
    """{vertex: arc distance from r} for every vertex reachable from r, r included."""
    dist = {r: 0}
    frontier = [r]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def _row_masks(table: Table) -> list[int]:
    """row_mask[v] = bitmask of the out-neighbours of v."""
    return [sum({1 << u for u in row}) for row in table]


def _closed_surjective_masks(row_mask: Sequence[int]) -> list[int]:
    """Every nonempty vertex bitmask S that is closed (no arc leaves S) and
    covered (every member of S has an in-arc from S), in increasing order."""
    out = []
    for s_mask in range(1, 1 << len(row_mask)):
        covered = 0
        bits = s_mask
        while bits:
            low = bits & -bits
            rm = row_mask[low.bit_length() - 1]
            if rm & ~s_mask:
                break
            covered |= rm
            bits ^= low
        else:
            if covered & s_mask == s_mask:
                out.append(s_mask)
    return out


def brute_scc_sets(table: Table) -> list[frozenset[int]]:
    """Strongly connected components via mutual reachability."""
    n = len(table)
    reach = [sum([1 << u for u in _bfs(table, v)]) for v in range(n)]
    comp_of: dict[int, int] = {}
    comps: list[set[int]] = []
    for v in range(n):
        for u in comp_of:
            if (reach[v] >> u) & 1 and (reach[u] >> v) & 1:
                comps[comp_of[u]].add(v)
                comp_of[v] = comp_of[u]
                break
        else:
            comp_of[v] = len(comps)
            comps.append({v})
    return [frozenset(c) for c in comps]


def brute_giant(table: Table) -> frozenset[int]:
    """Largest closed SCC; ties broken by smallest contained vertex label."""
    comps = brute_scc_sets(table)
    closed = [
        c for c in comps if all(u in c for v in c for u in table[v])
    ]
    return max(closed, key=lambda c: (len(c), -min(c)))


def brute_k_surjection_sets(table: Table) -> list[frozenset[int]]:
    """All vertex subsets that are closed with induced minimum in-degree >= 1."""
    n = len(table)
    if n > _BRUTE_MAX_N:
        raise ValueError(f"subset sweep limited to n <= {_BRUTE_MAX_N}, got {n}")
    return [
        frozenset(i for i in range(n) if (s_mask >> i) & 1)
        for s_mask in _closed_surjective_masks(_row_masks(table))
    ]


def brute_one_in_core(table: Table) -> frozenset[int]:
    """Union of all closed surjective subsets (the unique maximal one)."""
    acc: set[int] = set()
    for s in brute_k_surjection_sets(table):
        acc |= s
    return frozenset(acc)


def _restrict(table: Table, within: Iterable[int] | None) -> tuple[dict[int, list[int]], list[int]]:
    n = len(table)
    keep = set(range(n)) if within is None else set(within)
    adj = {v: [u for u in table[v] if u in keep] for v in keep}
    return adj, sorted(keep)


def brute_cycles(table: Table, within: Iterable[int] | None = None) -> list[tuple[int, ...]]:
    """Every elementary directed cycle of the induced subgraph, each reported
    once, rotated to start at its smallest vertex.  DFS from each root r over
    vertices >= r only, so each cycle appears exactly at its minimum."""
    adj, verts = _restrict(table, within)
    cycles: list[tuple[int, ...]] = []
    for r in verts:
        stack: list[tuple[int, tuple[int, ...]]] = [(r, (r,))]
        while stack:
            v, path = stack.pop()
            for u in adj[v]:
                if u == r:
                    cycles.append(path)
                elif u > r and u not in path:
                    stack.append((u, path + (u,)))
    return sorted(set(cycles))


def brute_spectrum_sizes(table: Table, within: Iterable[int] | None = None) -> dict[int, int]:
    """|set reachable from v| (v included) inside the induced subgraph."""
    adj, verts = _restrict(table, within)
    return {r: len(_bfs(adj, r)) for r in verts}


def brute_eccentricities(table: Table, within: Iterable[int] | None = None) -> dict[int, int]:
    """Per vertex v, the largest finite BFS distance from v, induced subgraph."""
    adj, verts = _restrict(table, within)
    return {r: max(_bfs(adj, r).values()) for r in verts}


def brute_max_eccentricity(table: Table, within: Iterable[int] | None = None) -> int:
    """max over v of the largest finite BFS distance from v, induced subgraph."""
    return max(brute_eccentricities(table, within).values(), default=0)


def brute_distance(table: Table, src: int, dst: int) -> int | None:
    """Arc distance src -> dst by plain BFS, or None when dst is unreachable."""
    return _bfs(table, src).get(dst)


def brute_longest_path(table: Table, within: Iterable[int] | None = None) -> int:
    """Length in arcs of the longest simple directed path, by exhaustive DFS."""
    adj, verts = _restrict(table, within)
    best = 0
    for r in verts:
        stack = [(r, frozenset((r,)), 0)]
        while stack:
            v, seen, length = stack.pop()
            best = max(best, length)
            for u in adj[v]:
                if u not in seen:
                    stack.append((u, seen | {u}, length + 1))
    return best


# ---------------------------------------------------------------------------
# exhaustive enumeration of the whole sample space


@dataclass
class EnumerationTally:
    """Exact tallies over every endpoint table of a tiny (n, k)."""

    n: int
    k: int
    total: int
    simple_count: int = 0
    q_size_hist: Counter[int] = field(default_factory=Counter)
    g_size_hist: Counter[int] = field(default_factory=Counter)
    ksurj_counts: Counter[int] = field(default_factory=Counter)  # by subset size
    cycle_count_hist: Counter[int] = field(default_factory=Counter)  # cycles outside G


def enumerate_all(
    n: int, k: int, visitor: Callable[[tuple[int, ...]], None] | None = None
) -> EnumerationTally:
    """Visit all n^(kn) endpoint tables in lexicographic order.

    The tally is computed with the bitmask machinery above, sharing one subset
    sweep per digraph for the surjection counts and the one-in-core.  The
    optional ``visitor`` receives each table as a flat tuple (row-major) and
    may tally anything else on top.
    """
    n, k = _check_int("n", n, 1), _check_int("k", k, 1)
    total = n ** (k * n)
    if total > ENUMERATION_LIMIT:
        raise ValueError(f"n^(kn) = {total} exceeds enumeration limit {ENUMERATION_LIMIT}")

    tally = EnumerationTally(n=n, k=k, total=total)
    all_vertices = frozenset(range(n))
    for flat in product(range(n), repeat=n * k):
        table = tuple(flat[v * k : (v + 1) * k] for v in range(n))
        row_mask = _row_masks(table)
        if all(not (m >> v) & 1 and m.bit_count() == k for v, m in enumerate(row_mask)):
            tally.simple_count += 1

        # one subset sweep: k-surjection tally by size + one-in-core as union
        q_mask = 0
        for s_mask in _closed_surjective_masks(row_mask):
            tally.ksurj_counts[s_mask.bit_count()] += 1
            q_mask |= s_mask
        tally.q_size_hist[q_mask.bit_count()] += 1

        giant = brute_giant(table)
        tally.g_size_hist[len(giant)] += 1
        tally.cycle_count_hist[len(brute_cycles(table, all_vertices - giant))] += 1

        if visitor is not None:
            visitor(flat)
    return tally

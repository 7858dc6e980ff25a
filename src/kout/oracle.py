"""Ground truth independent of the main pipeline.

Nothing in this module touches :mod:`kout.decompose` or :mod:`kout.outside`:
the graph statistics here are recomputed from scratch with reachability
closures and exhaustive search over subsets, so they can arbitrate the fast
implementations.  The number theory (Stirling numbers, surjection counts) is
exact big-integer arithmetic; expectations come out as :class:`~fractions.Fraction`.

The brute-force helpers accept a plain endpoint table: any sequence of ``n``
rows, each a sequence of ``k`` vertex ids in ``[0, n)``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Sequence

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
    if y < 0 or x < 0 or y > x:
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
    if m < 1 or k < 1:
        raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    return math.factorial(m) * stirling2(k * m, m)


def expected_k_surjections(n: int, s: int, k: int) -> Fraction:
    """Exact E[number of closed surjective vertex sets of size s].

    A fixed set of size s is closed and surjective with probability
    S{ks,s} s! / n^{ks}; multiply by C(n, s) choices of the set.
    """
    if not (1 <= s <= n):
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
    if s < 1 or k < 2:
        raise ValueError(f"need s >= 1 and k >= 2, got s={s}, k={k}")
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


def gw_extinction(mu: float, k: int, m: int) -> float:
    """P(generation m is empty) for Bin(k, mu) offspring: the m-fold
    composition of phi(y) = (1 - mu(1-y))^k evaluated at 0."""
    if not (0.0 < mu < 1.0):
        raise ValueError(f"mu must lie in (0, 1), got {mu!r}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
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
    if not (0.0 < mu < 1.0):
        raise ValueError(f"mu must lie in (0, 1), got {mu!r}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    s = 1.0
    for _ in range(m):
        s = -math.expm1(k * math.log1p(-mu * s))
    return s


def _check_bound_domain(mu: float, k: int, m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
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


def _reach_masks(table: Table, n: int) -> list[int]:
    """reach[v] = bitmask of vertices reachable from v, including v."""
    reach = [0] * n
    for v in range(n):
        seen = 1 << v
        todo = [v]
        while todo:
            w = todo.pop()
            for u in table[w]:
                bit = 1 << u
                if not seen & bit:
                    seen |= bit
                    todo.append(u)
        reach[v] = seen
    return reach


def brute_scc_sets(table: Table) -> list[frozenset[int]]:
    """Strongly connected components via mutual reachability."""
    n = len(table)
    reach = _reach_masks(table, n)
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
    row_mask = [0] * n
    for v in range(n):
        m = 0
        for u in table[v]:
            m |= 1 << u
        row_mask[v] = m
    out: list[frozenset[int]] = []
    for s_mask in range(1, 1 << n):
        covered = 0
        closed = True
        bits = s_mask
        while bits:
            low = bits & -bits
            rm = row_mask[low.bit_length() - 1]
            if rm & ~s_mask:
                closed = False
                break
            covered |= rm
            bits ^= low
        if closed and covered & s_mask == s_mask:
            out.append(frozenset(i for i in range(n) if (s_mask >> i) & 1))
    return out


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
    sizes: dict[int, int] = {}
    for r in verts:
        seen = {r}
        todo = [r]
        while todo:
            v = todo.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        sizes[r] = len(seen)
    return sizes


def brute_eccentricities(table: Table, within: Iterable[int] | None = None) -> dict[int, int]:
    """Per vertex v, the largest finite BFS distance from v, induced subgraph."""
    adj, verts = _restrict(table, within)
    eccs: dict[int, int] = {}
    for r in verts:
        dist = {r: 0}
        frontier = [r]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in dist:
                        dist[u] = d
                        nxt.append(u)
            frontier = nxt
        eccs[r] = max(dist.values())
    return eccs


def brute_max_eccentricity(table: Table, within: Iterable[int] | None = None) -> int:
    """max over v of the largest finite BFS distance from v, induced subgraph."""
    return max(brute_eccentricities(table, within).values(), default=0)


def brute_distance(table: Table, src: int, dst: int) -> int | None:
    """Arc distance src -> dst by plain BFS, or None when dst is unreachable."""
    dist = {src: 0}
    frontier = [src]
    while frontier and dst not in dist:
        nxt = []
        for v in frontier:
            for u in table[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist.get(dst)


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
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    total = n ** (k * n)
    if total > ENUMERATION_LIMIT:
        raise ValueError(f"n^(kn) = {total} exceeds enumeration limit {ENUMERATION_LIMIT}")

    tally = EnumerationTally(n=n, k=k, total=total)
    full_mask = (1 << n) - 1
    all_vertices = frozenset(range(n))
    subset_sizes = [m.bit_count() for m in range(1 << n)]

    for flat in product(range(n), repeat=n * k):
        row_mask = [0] * n
        simple = True
        for v in range(n):
            seg = flat[v * k : (v + 1) * k]
            m = 0
            for u in seg:
                m |= 1 << u
            row_mask[v] = m
            if simple and ((m >> v) & 1 or subset_sizes[m] != k):
                simple = False
        if simple:
            tally.simple_count += 1

        # one subset sweep: k-surjection tally by size + one-in-core as union
        q_mask = 0
        for s_mask in range(1, 1 << n):
            covered = 0
            bits = s_mask
            closed = True
            while bits:
                low = bits & -bits
                rm = row_mask[low.bit_length() - 1]
                if rm & ~s_mask:
                    closed = False
                    break
                covered |= rm
                bits ^= low
            if closed and covered & s_mask == s_mask:
                tally.ksurj_counts[subset_sizes[s_mask]] += 1
                q_mask |= s_mask
        tally.q_size_hist[subset_sizes[q_mask]] += 1

        table = tuple(flat[v * k : (v + 1) * k] for v in range(n))
        giant = brute_giant(table)
        tally.g_size_hist[len(giant)] += 1
        tally.cycle_count_hist[len(brute_cycles(table, all_vertices - giant))] += 1

        if visitor is not None:
            visitor(flat)
    return tally

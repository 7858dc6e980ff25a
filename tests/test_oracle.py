import math
from fractions import Fraction

import pytest

from kout import oracle
from kout.constants import solve_tau
from kout.oracle import (
    brute_cycles,
    brute_eccentricities,
    brute_giant,
    brute_k_surjection_sets,
    brute_longest_path,
    brute_max_eccentricity,
    brute_one_in_core,
    brute_scc_sets,
    brute_spectrum_sizes,
    enumerate_all,
    expected_k_surjections,
    good_log_stirling,
    gw_bound,
    gw_bound_survival,
    gw_extinction,
    gw_survival,
    stirling2,
    surjection_count,
)


def test_stirling_small_values():
    assert stirling2(4, 2) == 7
    assert stirling2(6, 3) == 90
    assert stirling2(8, 4) == 1701
    for x in range(1, 12):
        assert stirling2(x, x) == 1
        assert stirling2(x, 0) == 0
    assert stirling2(0, 0) == 1


def test_stirling_recurrence_consistency():
    for x in range(2, 20):
        for y in range(1, x):
            assert stirling2(x, y) == y * stirling2(x - 1, y) + stirling2(x - 1, y - 1)


def test_stirling_guards():
    with pytest.raises(ValueError):
        stirling2(3, 4)
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        stirling2(601, 300)


def test_surjection_count():
    assert surjection_count(2, 2) == 14  # = 2^4 - 2
    assert surjection_count(1, 5) == 1
    assert surjection_count(3, 2) == 540  # 6 * S{6,3}


def test_expected_k_surjections_exact():
    assert expected_k_surjections(3, 3, 2) == Fraction(540, 729)
    assert expected_k_surjections(3, 2, 2) == Fraction(42, 81)
    for n in (2, 3, 5, 9):
        for k in (2, 3):
            assert expected_k_surjections(n, 1, k) == Fraction(n, n**k)
    with pytest.raises(ValueError):
        expected_k_surjections(3, 4, 2)


def test_good_log_stirling_against_exact():
    tau = solve_tau(2)
    err = {}
    for s in (20, 200):
        ratio = math.exp(good_log_stirling(s, 2, tau) - math.log(stirling2(2 * s, s)))
        err[s] = abs(ratio - 1)
    assert err[200] < 0.01
    assert err[20] < 0.10
    assert err[200] < err[20]


def test_gw_extinction_basics():
    assert abs(gw_extinction(0.1, 2, 1) - 0.81) < 1e-15
    assert gw_extinction(0.1, 2, 0) == 0.0
    # extinction probability is non-decreasing in the generation count
    for mu in (0.05, 0.1, 0.2):
        vals = [gw_extinction(mu, 2, m) for m in range(1, 26)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_gw_bound_dominates():
    # Strictness is asserted on the survival side, where the gap stays
    # representable; near 1.0 the extinction iterate can round onto or past
    # the bound, so that comparison gets a one-ulp allowance.
    for mu in (0.05, 0.1, 0.2):
        for m in range(1, 26):
            assert gw_extinction(mu, 2, m) <= gw_bound(mu, 2, m) + 1e-15
            assert gw_survival(mu, 2, m) > gw_bound_survival(mu, 2, m) > 0


def test_gw_survival_matches_extinction():
    for mu in (0.1, 0.3):
        for m in range(0, 8):
            assert abs(gw_survival(mu, 2, m) - (1 - gw_extinction(mu, 2, m))) < 1e-12


def test_gw_bound_guards():
    with pytest.raises(ValueError):
        gw_bound(0.25, 2, 3)  # mu >= 1/(2k)
    with pytest.raises(ValueError):
        gw_bound(0.1, 2, 0)
    with pytest.raises(ValueError):
        gw_extinction(1.5, 2, 3)


# ---------------------------------------------------------------------------
# brute helpers on hand-checkable graphs


CHAIN = [(1, 1), (2, 2), (2, 2)]  # 0 -> 1 -> 2, 2 with two self-loops
CYCLE3 = [(1, 1), (2, 2), (0, 0)]


def test_brute_scc_chain():
    assert sorted(map(sorted, brute_scc_sets(CHAIN))) == [[0], [1], [2]]
    assert sorted(map(sorted, brute_scc_sets(CYCLE3))) == [[0, 1, 2]]


def test_brute_giant():
    assert brute_giant(CHAIN) == frozenset({2})
    assert brute_giant(CYCLE3) == frozenset({0, 1, 2})
    # two closed one-cycles: tie broken toward the smallest label
    assert brute_giant([(0,), (1,)]) == frozenset({0})


def test_brute_one_in_core():
    assert brute_one_in_core(CHAIN) == frozenset({2})
    assert brute_one_in_core(CYCLE3) == frozenset({0, 1, 2})
    assert brute_one_in_core([(0, 0), (1, 1)]) == frozenset({0, 1})


def test_brute_k_surjections_chain():
    # only {2} is closed with induced min in-degree 1
    assert brute_k_surjection_sets(CHAIN) == [frozenset({2})]


def test_brute_cycles():
    assert brute_cycles(CYCLE3) == [(0, 1, 2)]
    assert brute_cycles(CHAIN) == [(2,)]
    two = [(1, 1), (0, 0)]
    assert brute_cycles(two) == [(0, 1)]
    assert brute_cycles(two, within={0}) == []


def test_brute_spectrum_and_paths():
    sizes = brute_spectrum_sizes(CHAIN)
    assert sizes == {0: 3, 1: 2, 2: 1}
    assert brute_longest_path(CHAIN) == 2
    assert brute_max_eccentricity(CHAIN) == 2
    assert brute_eccentricities(CHAIN) == {0: 2, 1: 1, 2: 0}
    assert brute_eccentricities(CYCLE3, within={0, 1}) == {0: 1, 1: 0}
    assert brute_max_eccentricity(CHAIN, within=set()) == 0
    # 3-cycle with an exit arc to a sink: longest simple path has 3 arcs
    g = [(1, 1), (2, 2), (0, 3), (3, 3)]
    assert brute_longest_path(g, within={0, 1, 2, 3}) == 3


# ---------------------------------------------------------------------------
# exhaustive enumeration


def test_enumerate_tiny():
    tally = enumerate_all(2, 1)
    assert tally.total == 4
    assert sum(tally.q_size_hist.values()) == 4
    assert sum(tally.g_size_hist.values()) == 4


def test_enumerate_n3_k2_exact_counts():
    tally = enumerate_all(3, 2)
    assert tally.total == 729
    assert tally.simple_count == 8
    # k-surjection counts by size: 729 * E[K_s]
    for s in (1, 2, 3):
        expected = expected_k_surjections(3, s, 2) * 729
        assert expected.denominator == 1
        assert tally.ksurj_counts[s] == expected.numerator
    assert tally.ksurj_counts == {1: 243, 2: 378, 3: 540}
    # one-in-core histogram: k-surjection count times acyclic complement tables
    assert tally.q_size_hist == {1: 21, 2: 168, 3: 540}
    assert sum(tally.cycle_count_hist.values()) == 729


def test_enumerate_simple_and_ksurj_all_tiny_sizes():
    for n, k in ((2, 2), (3, 2), (2, 3), (4, 2)):
        tally = enumerate_all(n, k)
        rows_simple = 1
        for j in range(1, k + 1):
            rows_simple *= max(n - j, 0)
        assert tally.simple_count == rows_simple**n
        for s in range(1, n + 1):
            expected = expected_k_surjections(n, s, k) * tally.total
            assert expected.denominator == 1
            assert tally.ksurj_counts.get(s, 0) == expected.numerator
        assert sum(tally.q_size_hist.values()) == tally.total
        assert sum(tally.g_size_hist.values()) == tally.total


# Every tally field, recorded before the oracle's BFS and subset sweep were
# folded into shared helpers; (3, 2) is pinned by the CLI golden record.
PINNED_TALLIES = {
    (2, 2): (16, 0, {1: 2, 2: 14}, {1: 7, 2: 9}, {1: 8, 2: 14}, {0: 11, 1: 5}),
    (3, 1): (
        27, 8, {1: 9, 2: 12, 3: 6}, {1: 16, 2: 9, 3: 2}, {1: 27, 2: 18, 3: 6},
        {0: 17, 1: 9, 2: 1},
    ),
    (2, 3): (64, 0, {1: 2, 2: 62}, {1: 15, 2: 49}, {1: 16, 2: 62}, {0: 51, 1: 13}),
    (4, 1): (
        256, 81, {1: 64, 2: 96, 3: 72, 4: 24}, {1: 125, 2: 93, 3: 32, 4: 6},
        {1: 256, 2: 192, 3: 96, 4: 24}, {0: 142, 1: 95, 2: 18, 3: 1},
    ),
}


@pytest.mark.parametrize("n, k", PINNED_TALLIES)
def test_enumerate_pinned_tallies(n, k):
    tally = enumerate_all(n, k)
    got = (
        tally.total, tally.simple_count, tally.q_size_hist, tally.g_size_hist,
        tally.ksurj_counts, tally.cycle_count_hist,
    )
    assert got == PINNED_TALLIES[n, k]


def test_enumerate_visitor_sees_all():
    seen = []
    enumerate_all(2, 1, visitor=seen.append)
    assert len(seen) == 4
    assert seen[0] == (0, 0) and seen[-1] == (1, 1)


def test_enumerate_guards():
    with pytest.raises(ValueError):
        enumerate_all(5, 3)  # 5^15 is over the limit


def test_brute_k_surjection_sets_refuses_more_than_24_vertices(monkeypatch):
    # the sweep must not start: 2^25 subsets are far beyond desk scale
    def sweep(row_mask):
        raise AssertionError("the subset sweep ran")

    monkeypatch.setattr(oracle, "_closed_surjective_masks", sweep)
    with pytest.raises(ValueError, match=r"subset sweep limited to n <= 24, got 25"):
        brute_k_surjection_sets([[0]] * 25)

"""Acceptance suite: one test per criterion, at the stated scales and
tolerances, against a fixed convention seed (20260809, chosen up front).

Each test prints a single PASS/FAIL line naming the criterion.  Sub-checks are
collected so that a failure reports every measured value, not just the first
assert.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from itertools import product

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

from kout.constants import derive_constants, solve_tau
from kout.decompose import decompose
from kout.digraph import (
    KOutDigraph,
    RngSpec,
    count_multi_pairs,
    count_self_loops,
    generate,
)
from kout.distance import phase_sweep, typical_distance
from kout.harness import (
    ExperimentConfig,
    ks_statistic_normal,
    run_experiment,
    tv_joint_to_poisson,
    tv_to_poisson,
    write_csv,
)
from kout.oracle import (
    brute_cycles,
    brute_giant,
    brute_one_in_core,
    brute_spectrum_sizes,
    enumerate_all,
    expected_k_surjections,
    good_log_stirling,
    gw_bound_survival,
    gw_extinction,
    gw_survival,
    stirling2,
    surjection_count,
)
from kout.outside import enumerate_cycles, outside_report, outside_view, spectra
from kout.surjection import sample_surjection

SEED = 20260809  # convention seed for every acceptance run


class Checks:
    """Collect named sub-checks; report them all, then assert."""

    def __init__(self, criterion: str):
        self.criterion = criterion
        self.failures: list[str] = []
        self.lines: list[str] = []

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.lines.append(f"    {'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def finish(self) -> None:
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {verdict}")
        for line in self.lines:
            print(line)
        assert not self.failures, f"{self.criterion}: " + "; ".join(self.failures)


@pytest.fixture(scope="session")
def consts():
    return derive_constants(2)


@pytest.fixture(scope="session")
def clt_records():
    cfg = ExperimentConfig(
        n=40_000, k=2, reps=400, seed=SEED, collect=frozenset({"core", "spectra"})
    )
    return run_experiment(cfg)


@pytest.fixture(scope="session")
def cycle_records():
    cfg = ExperimentConfig(
        n=20_000, k=2, reps=1000, seed=SEED, collect=frozenset({"core", "cycles"})
    )
    return run_experiment(cfg)


@pytest.fixture(scope="session")
def mid_records_small():
    cfg = ExperimentConfig(n=5_000, k=2, reps=500, seed=SEED, collect=frozenset({"core"}))
    return run_experiment(cfg)


@pytest.fixture(scope="session")
def slow_reports():
    """50 replicates at n=10^5 with full outside reports (criterion 6)."""
    out = []
    for i in range(50):
        g = generate(100_000, 2, RngSpec(SEED, i))
        dec = decompose(g)
        rep = outside_report(g, dec)
        out.append(rep)
    return out


# ---------------------------------------------------------------------------


def test_c01_constants_exactness():
    c = Checks("01 constants")
    t0 = time.perf_counter()

    def bisect_tau(k: int) -> float:
        lo, hi = k - 0.5, float(k)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 1.0 - mid / k - math.exp(-mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    tau = solve_tau(2)
    c.check("tau vs bisection", abs(tau - bisect_tau(2)) < 1e-10, f"tau={tau!r}")

    sigma_ok = True
    ineq_ok = True
    worst = ""
    for k in range(2, 51):
        mc = derive_constants(k)
        alt = mc.nu * (1 - mc.nu) / (1 - k * (1 - mc.nu))
        if abs(mc.sigma2 - alt) >= 1e-10:
            sigma_ok = False
        log_gamma = -k * mc.mu + (1 - k) * math.log1p(-mc.mu)
        checks = (
            0 < k * mc.mu < 0.5,
            0 < mc.mu < 1 / (2 * k),
            0 < mc.lambda_ < 1,
            log_gamma < 0 and mc.gamma <= 1,
            0 < mc.rho < 1,
            mc.cycle_mean_total > 0,
        )
        if not all(checks):
            ineq_ok = False
            worst = f"k={k}: {checks}"
    c.check("sigma2 two formulas (1e-10)", sigma_ok, "k=2..50")
    c.check("inequalities k=2..50", ineq_ok, worst or "all hold")
    elapsed = time.perf_counter() - t0
    c.check("runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s")
    c.finish()


def _acyclic_tables(r: int, n: int, k: int) -> int:
    """Count r-row endpoint tables (entries in [0, n)) whose induced digraph
    on the r rows is acyclic.  Independent brute count for the |Q| histogram."""
    count = 0
    for flat in product(range(n), repeat=r * k):
        rows = [flat[v * k : (v + 1) * k] for v in range(r)]
        if brute_cycles(rows, within=range(r)) == []:
            count += 1
    return count


def test_c02_exact_enumeration():
    c = Checks("02 enumeration")
    t0 = time.perf_counter()
    mismatches = 0
    subset_violations = 0

    def visitor(flat):
        nonlocal mismatches, subset_violations
        rows = tuple(flat[v * 2 : (v + 1) * 2] for v in range(3))
        g = KOutDigraph(3, 2, np.asarray(rows))
        d = decompose(g)
        giant_set = frozenset(d.giant.tolist())
        core_set = frozenset(d.one_in_core.tolist())
        if not giant_set <= core_set:
            subset_violations += 1
        ok = giant_set == brute_giant(rows)
        ok &= core_set == brute_one_in_core(rows)
        view = outside_view(g, d.giant)
        cycles, _ = enumerate_cycles(view)
        out = set(range(3)) - set(giant_set)
        ok &= sorted(tuple(x) for x in cycles) == brute_cycles(rows, within=out)
        sizes, _, _ = spectra(view)
        got = {int(view.vertices[i]): int(s) for i, s in enumerate(sizes)}
        ok &= got == brute_spectrum_sizes(rows, within=out)
        if not ok:
            mismatches += 1

    tally = enumerate_all(3, 2, visitor=visitor)
    t_n3 = time.perf_counter() - t0
    c.check("n=3 simple count = 8", tally.simple_count == 8, f"{tally.simple_count}")
    ks_ok = True
    for s in (1, 2, 3):
        want = expected_k_surjections(3, s, 2) * 729
        if not (want.denominator == 1 and tally.ksurj_counts[s] == want.numerator):
            ks_ok = False
    c.check("n=3 k-surjection counts = 729 E[K_s]", ks_ok, f"{dict(tally.ksurj_counts)}")
    c.check("n=3 giant within core on all 729", subset_violations == 0, f"{subset_violations} violations")
    c.check("n=3 pipeline matches oracle on all 729", mismatches == 0, f"{mismatches} mismatches")
    c.check("n=3 runtime < 1 s", t_n3 < 1.0, f"{t_n3:.3f} s")

    t0 = time.perf_counter()
    tally4 = enumerate_all(4, 2)
    simple4 = math.prod(range(4 - 2, 4)) ** 4  # ((n-1)(n-2))^n
    c.check("n=4 simple count", tally4.simple_count == simple4, f"{tally4.simple_count} vs {simple4}")
    hist_ok = sum(tally4.q_size_hist.values()) == 65536
    for s in (1, 2, 3, 4):
        want = (
            math.comb(4, s)
            * surjection_count(s, 2)
            * _acyclic_tables(4 - s, 4, 2)
        )
        if tally4.q_size_hist[s] != want:
            hist_ok = False
    c.check(
        "n=4 |Q| histogram consistent",
        hist_ok,
        f"{dict(sorted(tally4.q_size_hist.items()))}",
    )
    t_n4 = time.perf_counter() - t0
    c.check("n=4 runtime < 30 s", t_n4 < 30.0, f"{t_n4:.1f} s")
    c.finish()


@pytest.mark.slow
def test_c03_central_limit(clt_records, consts):
    c = Checks("03 CLT")
    n = 40_000
    center = consts.nu * n
    scale = math.sqrt(consts.sigma2 * n)
    for name in ("q_size", "g_size", "max_full_spec"):
        z = (np.array([getattr(r, name) for r in clt_records], float) - center) / scale
        mean, var = z.mean(), z.var(ddof=1)
        ks = ks_statistic_normal(z)
        c.check(f"{name} mean in [-0.15, 0.15]", -0.15 <= mean <= 0.15, f"{mean:+.4f}")
        c.check(f"{name} variance in [0.8, 1.2]", 0.8 <= var <= 1.2, f"{var:.4f}")
        c.check(f"{name} KS < 0.08", ks < 0.08, f"{ks:.4f}")
    c.finish()


@pytest.mark.slow
def test_c04_cycles_outside(cycle_records, consts):
    c = Checks("04 cycles")
    tot = np.array([r.cycles_total for r in cycle_records], np.int64)
    len1 = np.array([r.cycles_len1 for r in cycle_records], np.int64)
    mean_target = consts.cycle_mean_total
    c.check(
        "mean total cycles within 0.07",
        abs(tot.mean() - mean_target) < 0.07,
        f"{tot.mean():.4f} vs {mean_target:.4f}",
    )
    tv = tv_to_poisson(tot, mean_target)
    c.check("TV to Poisson < 0.05", tv < 0.05, f"{tv:.4f}")
    kmu = 2 * consts.mu
    c.check(
        "mean length-1 within 0.06",
        abs(len1.mean() - kmu) < 0.06,
        f"{len1.mean():.4f} vs {kmu:.4f}",
    )
    inter = np.mean([not r.disjoint for r in cycle_records])
    c.check("intersecting fraction < 0.01", inter < 0.01, f"{inter:.4f}")
    c.finish()


@pytest.mark.slow
def test_c05_middle_layer(cycle_records, mid_records_small):
    c = Checks("05 middle layer")
    mid_big = np.percentile([r.mid_size for r in cycle_records], 95)
    mid_small = np.percentile([r.mid_size for r in mid_records_small], 95)
    c.check(
        "95th pct |Q|-|G| grows by <= 5 from n=5000 to n=20000",
        mid_big <= mid_small + 5,
        f"n=20000: {mid_big}, n=5000: {mid_small}",
    )
    reach = np.mean([r.all_reach for r in cycle_records])
    c.check("all_reach_giant >= 99%", reach >= 0.99, f"{reach:.4f}")
    c.finish()


@pytest.mark.slow
def test_c06_extremal_logs(slow_reports, consts):
    # The ratio bands below are the asymptotic coefficients; at n = 10^5 the
    # max-spectrum statistic still carries its s^(-3/2) total-progeny tail
    # factor (about -1.5 log(S)/log(1/lambda) vertices) and the path statistics
    # their -log(1/mu)/log(1/(k mu)) offset, so the measured means sit below
    # the bands by construction of the statistics at this n, not by noise.
    c = Checks("06 extremal logs")
    ln = math.log(100_000)
    S = np.array([r.max_spectrum for r in slow_reports], float)
    D = np.array([r.d for r in slow_reports], float)
    M = np.array([r.m for r in slow_reports], float)
    W = np.array([r.w for r in slow_reports], float)
    c.check(
        "mean S/log n within 0.4 of coefficient",
        abs(S.mean() / ln - consts.spectrum_coeff) < 0.4,
        f"{S.mean() / ln:.4f} vs {consts.spectrum_coeff:.4f}",
    )
    c.check(
        "mean D/log n within 0.2 of coefficient",
        abs(D.mean() / ln - consts.path_coeff) < 0.2,
        f"{D.mean() / ln:.4f} vs {consts.path_coeff:.4f}",
    )
    c.check(
        "mean M/log n within 0.2 of coefficient",
        abs(M.mean() / ln - consts.path_coeff) < 0.2,
        f"{M.mean() / ln:.4f} vs {consts.path_coeff:.4f}",
    )
    c.check("M >= D on every replicate", bool((M >= D).all()), f"min gap {(M - D).min()}")
    wmed = float(np.median(W)) / math.log2(math.log2(100_000))
    c.check("W median ratio in [0.5, 1.5]", 0.5 <= wmed <= 1.5, f"{wmed:.4f}")
    viol = np.mean([r.arc_excess_violations >= 1 for r in slow_reports])
    c.check("arc-excess violations <= 5% of replicates", viol <= 0.05, f"{viol:.4f}")
    c.finish()


@pytest.mark.slow
def test_c07_simplicity():
    c = Checks("07 simplicity")
    reps = 20_000
    loops = np.empty(reps, np.int64)
    multis = np.empty(reps, np.int64)
    for i in range(reps):
        g = generate(2000, 2, RngSpec(SEED, i))
        loops[i] = count_self_loops(g)
        multis[i] = count_multi_pairs(g)
    frac = float(np.mean((loops == 0) & (multis == 0)))
    target = math.exp(-3)
    c.check("P(simple) within 0.01 of e^-3", abs(frac - target) < 0.01, f"{frac:.5f} vs {target:.5f}")
    tv = tv_joint_to_poisson(np.column_stack([loops, multis]), 2.0, 1.0)
    c.check("joint TV to Poi(2) x Poi(1) < 0.02", tv < 0.02, f"{tv:.4f}")
    c.finish()


@pytest.mark.slow
def test_c08_phase_transition():
    c = Checks("08 phase transition")
    points = phase_sweep(2000, 4, 12, 200, RngSpec(SEED))
    frac = {p.k: p.fraction_strongly_connected for p in points}
    c.check("k=4 fraction < 0.05", frac[4] < 0.05, f"{frac[4]:.3f}")
    c.check("k=12 fraction > 0.95", frac[12] > 0.95, f"{frac[12]:.3f}")
    mono = all(frac[k + 1] >= frac[k] - 0.15 for k in range(4, 12))
    c.check("monotone within 0.15 band", mono, f"{[frac[k] for k in range(4, 13)]}")
    for p in points:
        if p.fraction_with_indeg_zero_vertex > 1 - p.fraction_strongly_connected + 1e-12:
            c.check("indeg-0 implies not SC", False, f"k={p.k}")
            break
    c.finish()


@pytest.mark.slow
def test_c09_typical_distance(consts):
    c = Checks("09 typical distance")
    g = generate(100_000, 2, RngSpec(SEED, 0))
    sample = typical_distance(g, 2000, RngSpec(SEED, 1))
    ratio = float(np.mean(sample.distances)) / math.log2(100_000)
    c.check("mean finite H/log2 n in [0.85, 1.15]", 0.85 <= ratio <= 1.15, f"{ratio:.4f}")
    finite = sample.finite_count / sample.pairs_drawn
    c.check(
        "finite fraction within 0.03 of nu",
        abs(finite - consts.nu) < 0.03,
        f"{finite:.4f} vs {consts.nu:.4f}",
    )
    c.finish()


@pytest.mark.slow
def test_c10_surjection_sampler():
    c = Checks("10 surjection sampler")
    # exact conditional uniformity over the 729-table space at m=2, k=2
    conditional = Counter()

    def visitor(flat):
        rows = tuple(flat[v * 2 : (v + 1) * 2] for v in range(3))
        core = sorted(brute_one_in_core(rows))
        if len(core) == 2:
            rank = {v: i for i, v in enumerate(core)}
            key = tuple(rank[flat[v * 2 + j]] for v in core for j in range(2))
            conditional[key] += 1

    enumerate_all(3, 2, visitor=visitor)
    counts = sorted(conditional.values())
    c.check(
        "exact conditional uniformity (14 equal counts)",
        len(conditional) == surjection_count(2, 2) and len(set(counts)) == 1,
        f"{len(conditional)} outcomes, counts {set(counts)}",
    )

    draws = Counter()
    n_draws = 14_000
    for i in range(n_draws):
        s = sample_surjection(2, 2, RngSpec(SEED, i))
        draws[tuple(s.mapping.ravel().tolist())] += 1
    expected = n_draws / 14
    chi2 = sum((draws.get(t, 0) - expected) ** 2 / expected for t in conditional)
    crit = chi2_dist.ppf(1 - 1e-3, 13)
    c.check("chi-square uniformity at 1e-3", chi2 < crit, f"chi2={chi2:.2f} < {crit:.2f}")

    ratios = []
    for m in (100, 400, 1600):
        retries = [
            sample_surjection(m, 2, RngSpec(SEED + m, i)).retries for i in range(200)
        ]
        ratios.append(float(np.mean(retries)) / math.sqrt(m))
    spread = max(ratios) / min(ratios)
    c.check("retries ~ sqrt(m) within factor 2", spread < 2.0, f"ratios {ratios}")
    c.finish()


def test_c11_stirling_asymptotics():
    c = Checks("11 stirling asymptotics")
    tau = solve_tau(2)
    errs = {}
    for s in (20, 200):
        ratio = math.exp(good_log_stirling(s, 2, tau) - math.log(stirling2(2 * s, s)))
        errs[s] = abs(ratio - 1.0)
    c.check("ratio at s=200 within 1%", errs[200] < 0.01, f"{errs[200]:.5f}")
    c.check("error smaller at s=200 than s=20", errs[200] < errs[20], f"{errs}")
    c.finish()


def test_c12_gw_bound():
    c = Checks("12 GW bound")
    ok = True
    worst = ""
    for mu in (0.05, 0.1, 0.2):
        for m in range(1, 26):
            # strict domination, asserted through the survival complements
            # where the gap stays representable in doubles
            if not gw_survival(mu, 2, m) > gw_bound_survival(mu, 2, m):
                ok = False
                worst = f"mu={mu}, m={m}"
            if gw_extinction(mu, 2, m) > 1.0:
                ok = False
                worst = f"mu={mu}, m={m} extinction > 1"
    c.check("phi_m(0) strictly below bound, m=1..25", ok, worst or "all strict")
    c.finish()


@pytest.mark.slow
def test_c13_determinism(tmp_path):
    c = Checks("13 determinism")
    cfg = ExperimentConfig(n=2000, k=2, reps=40, seed=SEED)

    def csv_without_ms(records, name):
        path = tmp_path / name
        write_csv(records, str(path))
        return ["," .join(line.split(",")[:-1]) for line in path.read_text().splitlines()]

    first = csv_without_ms(run_experiment(cfg, workers=2), "a.csv")
    second = csv_without_ms(run_experiment(cfg, workers=2), "b.csv")
    serial = csv_without_ms(run_experiment(cfg, workers=1), "c.csv")
    c.check("re-run byte-identical (ms column excluded)", first == second, f"{len(first)} lines")
    c.check("serial == parallel", first == serial, f"{len(serial)} lines")
    c.finish()

import math

import pytest

from kout import constants
from kout.constants import derive_constants, f_func, g_func, h_func, solve_tau


def bisect_tau(k: int, iters: int = 200) -> float:
    """Independent bisection oracle on eta(x) = 1 - x/k - exp(-x) over (k-1/2, k)."""
    lo, hi = k - 0.5, float(k)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if 1.0 - mid / k - math.exp(-mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# frozen from the bisection oracle above
TAU_2 = 1.5936242600400399
NU_2 = 0.7968121300200199
MU_2 = 0.20318786997998006
SIGMA2_2 = 0.2727357528515738
LAMBDA_2 = 0.6476102378919151
RHO_2 = 0.8801935707928159
CYCLE_MEAN_2 = 0.5215087186244052
SPECTRUM_COEFF_2 = 2.3016747649464846
PATH_COEFF_2 = 1.1105224361483654


def test_solve_tau_matches_bisection_oracle():
    assert abs(solve_tau(2) - bisect_tau(2)) < 1e-12
    assert abs(solve_tau(2) - TAU_2) < 1e-12


def test_solve_tau_k10_in_band():
    t = solve_tau(10)
    assert 9.5 < t < 10
    assert abs(t - bisect_tau(10)) < 1e-10


def test_solve_tau_residual():
    for k in (2, 3, 7, 50):
        t = solve_tau(k)
        assert abs(1 - t / k - math.exp(-t)) < 1e-12


def test_solve_tau_rejects_bad_inputs():
    with pytest.raises(ValueError, match=r"^k must be >= 2, got 1$"):
        solve_tau(1)
    with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.0$"):
        solve_tau(2.0)  # type: ignore[arg-type]


def test_unconverged_tau_is_refused(monkeypatch):
    monkeypatch.setattr(constants, "_solve_eps", lambda k: 0.3)
    derive_constants.cache_clear()
    try:
        for call in (derive_constants, solve_tau):
            with pytest.raises(ArithmeticError, match=r"^tau solver failed to converge for k=2$"):
                call(2)
    finally:
        derive_constants.cache_clear()


def test_derived_constants_k2_frozen_values():
    c = derive_constants(2)
    assert abs(c.nu - NU_2) < 1e-12
    assert abs(c.mu - MU_2) < 1e-12
    assert abs(c.sigma2 - SIGMA2_2) < 1e-12
    assert abs(c.lambda_ - LAMBDA_2) < 1e-12
    assert abs(c.rho - RHO_2) < 1e-12
    assert abs(c.cycle_mean_total - CYCLE_MEAN_2) < 1e-12
    assert abs(c.spectrum_coeff - SPECTRUM_COEFF_2) < 1e-12
    assert abs(c.path_coeff - PATH_COEFF_2) < 1e-12
    assert c.rho < 0.945651  # numeric bound for k=2


def test_sigma2_two_formulas_agree():
    for k in range(2, 51):
        c = derive_constants(k)
        alt = c.nu * (1 - c.nu) / (1 - k * (1 - c.nu))
        assert abs(c.sigma2 - alt) < 1e-10


def test_inequalities_all_k():
    # Inequalities on quantities that vanish exponentially in k are asserted
    # through mu = (k - tau)/k = 1 - nu, which stays strictly positive in
    # floating point for all k even once tau itself rounds to k.
    for k in range(2, 51):
        c = derive_constants(k)
        assert 0 < k * c.mu < 0.5  # 0 < k - tau < 1/2
        assert 1 - 1 / (2 * k) > 0.5
        assert 0 < c.mu < 1 / (2 * k)  # 1 - 1/(2k) < nu < 1
        assert 0 < c.lambda_ < 1
        log_gamma = -k * c.mu + (1 - k) * math.log1p(-c.mu)
        assert log_gamma < 0 and c.gamma <= 1  # gamma < 1, up to float rounding
        if k < 37:
            assert c.gamma < 1
        assert 0 < c.rho < 1
        assert c.cycle_mean_total > 0
        lambda_prime = k * c.mu * math.exp(1 - k * c.mu)  # (k - tau) e^{1-k+tau}
        assert c.lambda_ < lambda_prime < 1


def test_lambda_scale_band():
    for k in range(10, 51):
        c = derive_constants(k)
        assert 0.1 < c.lambda_ * math.exp(k) / k < 10


def test_tau_monotone_in_k():
    taus = [solve_tau(k) for k in range(2, 51)]
    assert all(a < b for a, b in zip(taus, taus[1:]))


def test_g_simple_value():
    assert abs(g_func(0.5) - 2.0) < 1e-15


def test_h_zero_at_nu():
    for k in (2, 3, 5):
        c = derive_constants(k)
        assert abs(h_func(c.nu, k)) < 1e-10
        assert abs(f_func(c.nu, k) - 1.0) < 1e-10


def test_h_second_derivative_matches_sigma():
    c = derive_constants(2)
    eps = 1e-5
    d2 = (h_func(c.nu + eps, 2) - 2 * h_func(c.nu, 2) + h_func(c.nu - eps, 2)) / eps**2
    assert abs(d2 - (-1 / c.sigma2)) < 1e-4
    assert abs(d2 - (-3.6665526596515274)) < 1e-4


def test_h_monotone_on_grid():
    for k in (2, 3):
        c = derive_constants(k)
        lo = 1 - 1 / k
        up = [lo + (c.nu - lo) * i / 1000 for i in range(1, 1001)]
        vals = [h_func(x, k) for x in up]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        down = [c.nu + (1 - 1e-6 - c.nu) * i / 1000 for i in range(1, 1001)]
        vals = [h_func(x, k) for x in down]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_fgh_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            g_func(bad)
        with pytest.raises(ValueError):
            h_func(bad, 2)
        with pytest.raises(ValueError):
            f_func(bad, 2)


def test_as_dict_uses_lambda_key():
    d = derive_constants(2).as_dict()
    assert "lambda" in d and "lambda_" not in d
    assert set(d) == {
        "k",
        "tau",
        "nu",
        "mu",
        "sigma2",
        "lambda",
        "gamma",
        "rho",
        "cycle_mean_total",
        "spectrum_coeff",
        "path_coeff",
    }

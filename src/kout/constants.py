"""Model constants of the uniform k-out digraph.

Everything derives from the fixed point ``tau_k``, the unique positive root of

    1 - tau/k - exp(-tau) = 0,

which lies in the open interval ``(k - 1/2, k)`` for every ``k >= 2``.  The
remaining constants are closed forms in ``tau``:

    nu      = tau / k                 asymptotic one-in-core / giant density
    mu      = 1 - nu                  density of the part outside the giant
    sigma2  = tau / (k e^tau (1 - k e^{-tau}))
            = nu (1 - nu) / (1 - k (1 - nu))      (equivalent form)
    lambda  = (k - tau) (tau / (k-1))^{k-1}       spectrum-size decay rate
    gamma   = (k / (e tau))^k (e^tau - 1)         surjection-count base
    rho     = k e^{1-tau} (tau / k)^{k-1}         eye-count decay rate

plus three ready-to-use limit coefficients:

    cycle_mean_total = log(1 / (1 - k mu))   mean of the Poisson cycle total
    spectrum_coeff   = 1 / log(1 / lambda)   limit of S_n / log n
    path_coeff       = 1 / log(e^tau / k)    limit of M_n / log n and D_n / log n

``f_func``/``g_func``/``h_func`` are the scalar functions controlling the
expected number of closed surjective vertex sets of a given size; ``h`` is the
log of ``f`` and is evaluated in log-space because ``f(x)**n`` underflows for
n beyond a few thousand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .digraph import _check_int

__all__ = [
    "ModelConstants",
    "solve_tau",
    "derive_constants",
    "f_func",
    "g_func",
    "h_func",
]


@dataclass(frozen=True)
class ModelConstants:
    """All scalar constants of the model for one value of k.

    ``lambda_`` carries a trailing underscore only because ``lambda`` is a
    Python keyword; it is exported as ``"lambda"`` in JSON.
    """

    k: int
    tau: float
    nu: float
    mu: float
    sigma2: float
    lambda_: float
    gamma: float
    rho: float
    cycle_mean_total: float
    spectrum_coeff: float
    path_coeff: float

    def as_dict(self) -> dict[str, float]:
        d = {f: getattr(self, f) for f in self.__dataclass_fields__}
        d["lambda"] = d.pop("lambda_")
        return d


def _solve_eps(k: int) -> float:
    """The gap eps = k - tau, with full relative precision.

    Substituting tau = k - eps into the defining equation gives the fixed
    point eps = k exp(eps - k); in x = log(eps) that is the increasing
    function psi(x) = x - log k - e^x + k, bracketed by
    x in [log k - k, log(1/2)].  Solving for x keeps eps accurate even when
    it sits far below the float spacing at tau ~ k (k around 37 and beyond),
    where bisecting tau itself would collapse onto k exactly.
    """
    psi = lambda x: x - math.log(k) - math.exp(x) + k
    lo, hi = math.log(k) - k, math.log(0.5)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if psi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(4):  # Newton polish; psi'(x) = 1 - e^x >= 1/2 on the bracket
        x -= psi(x) / (1.0 - math.exp(x))
    return math.exp(x)


def solve_tau(k: int) -> float:
    """Root of ``1 - tau/k - exp(-tau)``, which lies in ``(k - 1/2, k)``.

    This is the ``tau`` of :func:`derive_constants`.  For k beyond ~37 the
    gap k - tau is smaller than the float spacing at k, so the returned double
    may round to exactly k while the gap itself remains available as
    ``k * mu``.
    """
    return derive_constants(k).tau


@lru_cache(maxsize=None, typed=True)
def derive_constants(k: int) -> ModelConstants:
    """Populate every derived constant for this k.

    Quantities that vanish exponentially in k (mu, lambda, rho,
    cycle_mean_total, log gamma) are computed from the gap eps = k - tau
    rather than from tau itself, so they stay strictly positive/negative in
    floating point for every k; nu, tau and gamma are allowed to round to
    their limits (1, k, 1) once the gap drops below float resolution.
    ``ArithmeticError`` is raised unless tau lies in ``(k - 1/2, k]`` with
    ``abs(1 - tau/k - exp(-tau)) < 1e-12``.  The cache is typed, so a float or
    bool k never hits the entry of an equal int.
    """
    k = _check_int("k", k, 2)
    eps = _solve_eps(k)  # = k - tau = k * exp(-tau)
    tau = k - eps
    if not (k - 0.5 < tau <= k) or abs(1.0 - tau / k - math.exp(-tau)) >= 1e-12:
        raise ArithmeticError(f"tau solver failed to converge for k={k}")
    mu = eps / k  # = exp(-tau)
    nu = 1.0 - mu
    sigma2 = tau / (k * math.exp(tau) * (1.0 - eps))
    lambda_ = eps * (tau / (k - 1)) ** (k - 1)
    # gamma = (k/(e tau))^k (e^tau - 1) = exp(tau - k) (1 - e^-tau)^(1-k)
    log_gamma = -eps + (1 - k) * math.log1p(-mu)
    rho = k * math.exp(1.0 - tau) * nu ** (k - 1)
    return ModelConstants(
        k=k,
        tau=tau,
        nu=nu,
        mu=mu,
        sigma2=sigma2,
        lambda_=lambda_,
        gamma=math.exp(log_gamma),
        rho=rho,
        cycle_mean_total=-math.log1p(-eps),
        spectrum_coeff=1.0 / math.log(1.0 / lambda_),
        path_coeff=1.0 / (tau - math.log(k)),
    )


def _check_open_unit(x: float) -> None:
    if not (0.0 < x < 1.0):
        raise ValueError(f"x must lie strictly inside (0, 1), got {x!r}")


def g_func(x: float) -> float:
    """1 / sqrt(x (1-x))."""
    _check_open_unit(x)
    return 1.0 / math.sqrt(x * (1.0 - x))


def h_func(x: float, k: int) -> float:
    """log f(x), evaluated directly in log-space.

    h(x) = x (k-1) log x + x log gamma_k - (1-x) log(1-x).  It vanishes at
    x = nu_k, is strictly increasing on (1 - 1/k, nu_k) and strictly
    decreasing on (nu_k, 1), with h''(nu_k) = -1/sigma_k^2.
    """
    _check_open_unit(x)
    c = derive_constants(k)
    return x * (k - 1) * math.log(x) + x * math.log(c.gamma) - (1.0 - x) * math.log1p(-x)


def f_func(x: float, k: int) -> float:
    """exp(h(x)); the n-th power of this is the leading surjection-count factor."""
    return math.exp(h_func(x, k))

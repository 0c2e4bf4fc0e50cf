"""Closed-form predictions of the search-process growth model.

Everything here is a pure function of the model parameters: the expected
backward-link count, the exact path-length distribution solving the growth
recurrence ``f_k(n+1) - f_k(n) = q * f_{k-1}(n)``, its normalized and
binomial-type variants, the growth-rate corrections for finite sizes, and
the expected number of initial (link-free) inventions.

Binomial coefficients and powers are evaluated in log space throughout, so
the normalized quantities remain finite for any n even when the raw path
counts overflow floats.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# The special functions here (log-factorials, digamma) are numpy and
# ``math`` alone; tests/test_startup.py checks what each command loads.

from .core import ModelParams, PathLengthDistribution, RatePredictions

__all__ = [
    "harmonic_number",
    "harmonic_real",
    "log_factorials",
    "expected_id",
    "analytic_path_counts",
    "total_paths_closed",
    "normalized_path_dist",
    "analytic_ipl",
    "ipl_slope",
    "corrected_rate_a",
    "corrected_rate_b",
    "rate_predictions",
    "binomial_path_pmf",
    "max_speed",
    "expected_initial_count",
]

_EULER_GAMMA = 0.5772156649015328606

# Exact harmonic summation is affordable up to a million terms; beyond that
# the asymptotic expansion is already accurate to ~1e-13.
_HARMONIC_EXACT_LIMIT = 1_000_000


def harmonic_number(n: int) -> float:
    """n-th harmonic number: exact summation up to 1e6, asymptotic beyond."""
    if n < 0:
        raise ValueError(f"harmonic number needs n >= 0, got {n}")
    if n <= _HARMONIC_EXACT_LIMIT:
        return math.fsum(1.0 / i for i in range(1, n + 1))
    return math.log(n) + _EULER_GAMMA + 1.0 / (2 * n)


# B_2k / 2k for k = 1 .. 10: the coefficients of digamma's asymptotic series.
_DIGAMMA_SERIES = (
    1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12, -3617 / 8160,
    43867 / 14364, -174611 / 6600,
)


def _digamma(y: float) -> float:
    """Digamma of y, not 0 or a negative integer.

    The recurrence digamma(y) = digamma(y + 1) - 1/y takes y to 6 or more,
    where the asymptotic series' first omitted term is below 3e-15 of the
    value.
    """
    shift = 0.0
    while y < 6.0:
        shift -= 1.0 / y
        y += 1.0
    inverse = 1.0 / (y * y)
    series = 0.0
    for coefficient in reversed(_DIGAMMA_SERIES):
        series = series * inverse + coefficient
    return shift + math.log(y) - 0.5 / y - series * inverse


def harmonic_real(x: float) -> float:
    """Harmonic number extended to real arguments via the digamma function."""
    return _digamma(x + 1.0) + _EULER_GAMMA


def expected_id(n: int, params: ModelParams) -> float:
    """Expected backward-link count of the invention arriving at size n."""
    return params.q * n + params.m0


def _log_factorial_parts(top: int) -> tuple[np.ndarray, np.ndarray]:
    """log(k!) for k = 0 .. top as two running sums, a coarse one and a fine one.

    Each log(i) is split into its nearest multiple of 2^-20 and a remainder
    below 2^-21.  The coarse sums are exact (they stay below 2^33 up to k of
    about 4e8), and so are differences of them: a log binomial taken from
    these parts keeps its own precision instead of that of the far larger
    log(n!), which a table of rounded log-factorials limits to about 1e-12
    at n = 3000.  ``np.cumsum`` adds in order, so each table is a prefix of
    every longer one.
    """
    logs = np.log(np.arange(1.0, top + 1))
    coarse = np.rint(logs * 2.0**20) / 2.0**20
    return np.cumsum(np.append(0.0, coarse)), np.cumsum(np.append(0.0, logs - coarse))


def log_factorials(top: int) -> np.ndarray:
    """log(k!) for k = 0 .. top, each within 2e-16 relative."""
    coarse, fine = _log_factorial_parts(top)
    return coarse + fine


def _log_binomial(n: int, k: np.ndarray) -> np.ndarray:
    """log C(n, k) for integers 0 <= k <= n."""
    coarse, fine = _log_factorial_parts(n)
    return (coarse[n] - coarse[k] - coarse[n - k]) + (fine[n] - fine[k] - fine[n - k])


def _log_expm1(x: float) -> float:
    """log(exp(x) - 1) without overflow for large x."""
    if x > 36.0:  # exp(-x) below double precision: log1p term negligible
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


def total_paths_closed(n: int, params: ModelParams) -> float:
    """Total number of paths after n inventions: r*((1+q)^n - 1)/q."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return params.r * math.expm1(n * math.log1p(params.q)) / params.q


def analytic_path_counts(n: int, params: ModelParams) -> PathLengthDistribution:
    """Predicted path-length distribution after n inventions.

    The count of length-k paths is ``r * q^k * C(n, k+1)``, the solution of
    the growth recurrence with ``f_0(n) = r*n``.  Counts are exponentiated
    from log space and may overflow to ``inf`` for very large n; the
    normalized distribution and mean are always finite.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ks = np.arange(n)
    logs = math.log(params.r) + ks * math.log(params.q) + _log_binomial(n, ks + 1)
    return PathLengthDistribution.from_logs(n, logs)


def _path_pmf(n: int, q: float) -> np.ndarray:
    """C(n, k+1) * q^(k+1) / ((1+q)^n - 1) for k = 0 .. n-1, taken from log space."""
    ks = np.arange(n)
    log_z = _log_expm1(n * math.log1p(q))
    return np.exp(_log_binomial(n, ks + 1) + (ks + 1.0) * math.log(q) - log_z)


def normalized_path_dist(n: int, q: float) -> dict[int, float]:
    """Probability of a path having length k: C(n, k+1) * q^(k+1) / ((1+q)^n - 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    return dict(enumerate(_path_pmf(n, q).tolist()))


def analytic_ipl(n: int, q: float) -> float:
    """Exact mean of the predicted path-length distribution.

    Equals ``n*q/(q+1) * 1/(1 - (1+q)^(-n)) - 1``, which approaches the
    linear form ``q/(q+1)*n - 1`` for large n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    damping = -math.expm1(-n * math.log1p(q))  # 1 - (1+q)^(-n)
    return n * q / (q + 1.0) / damping - 1.0


def ipl_slope(q: float) -> float:
    """Large-n growth rate of the mean path length: p = q/(q+1)."""
    if q <= 0:
        raise ValueError(f"q must be positive, got {q}")
    return q / (q + 1.0)


def corrected_rate_a(backlinks: Sequence[float]) -> tuple[float, float]:
    """Finite-size growth-rate correction computed from per-invention data.

    Given the backward-link counts m_1..m_n in chronological order, returns
    ``q'_a = (1/n) * sum(m_i / i)`` and ``p'_a = q'_a / (1 + q'_a)``.
    """
    if len(backlinks) == 0:
        raise ValueError("backlink sequence must be nonempty")
    q_a = math.fsum(m / i for i, m in enumerate(backlinks, start=1)) / len(backlinks)
    return q_a, q_a / (1.0 + q_a)


def corrected_rate_b(q: float, m0: float, n: int) -> tuple[float, float]:
    """Finite-size growth-rate correction computed from fitted parameters.

    Returns ``q'_b = q + m0 * H(n) / n`` with H the harmonic number, and
    ``p'_b = q'_b / (1 + q'_b)``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    q_b = q + m0 * harmonic_number(n) / n
    return q_b, q_b / (1.0 + q_b)


def max_speed(p: float) -> tuple[float, float]:
    """Maximum path-length growth rate v = 2p and its inverse delta_n = 1/v."""
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    v = 2.0 * p
    return v, 1.0 / v


def rate_predictions(
    q: float, m0: float, n: int, backlinks: Sequence[float] | None = None
) -> RatePredictions:
    """Assemble every rate prediction for a technology of size n.

    ``backlinks`` supplies the per-invention data for the a-correction; when
    absent those fields are NaN.
    """
    p = ipl_slope(q)
    if backlinks is not None:
        q_a, p_a = corrected_rate_a(backlinks)
    else:
        q_a = p_a = math.nan
    q_b, p_b = corrected_rate_b(q, m0, n)
    v, delta_n = max_speed(p)
    return RatePredictions(
        p=p,
        q_prime_a=q_a,
        p_prime_a=p_a,
        q_prime_b=q_b,
        p_prime_b=p_b,
        v=v,
        delta_n=delta_n,
    )


def binomial_path_pmf(n_prime: int) -> np.ndarray:
    """Binomial-type path-length pmf over k = 0 .. n'-1: C(n', k+1) / (2^n' - 1),
    the values of ``normalized_path_dist(n_prime, 1.0)``."""
    if n_prime < 1:
        raise ValueError(f"n_prime must be >= 1, got {n_prime}")
    return _path_pmf(n_prime, 1.0)


def expected_initial_count(n: int, params: ModelParams) -> tuple[float, float]:
    """Expected number of link-free inventions after n inventions.

    Returns the exact harmonic-sum value ``(H(n + m1/q) - H(m1/q)) / q``
    (real-argument harmonic numbers) and its logarithmic approximation
    ``log(1 + q*n/m1) / q``, which reduces to ``n/m1`` when ``q*n`` is small.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a = params.m1 / params.q
    exact = (harmonic_real(n + a) - harmonic_real(a)) / params.q
    approx = math.log1p(params.q * n / params.m1) / params.q
    return exact, approx

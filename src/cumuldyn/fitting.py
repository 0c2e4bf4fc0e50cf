"""Parameter estimation and distribution validation.

Linear growth rates are estimated by plain ordinary least squares on the
measured series (each checkpoint treated as one observation).  Distribution
fits are judged primarily by probability-plot correlation — the Pearson
correlation of (empirical probability, model probability) pairs — with a
chi-square statistic reported alongside; chi-square treats every underlying
observation as independent and is known to be strict for large samples.
"""

from __future__ import annotations

import math
import warnings
from typing import Mapping, Sequence

import numpy as np

# scipy.special is imported inside the functions that use it, so that
# importing the package (and every CLI start-up) loads no scipy module;
# tests/test_startup.py checks this.

from .core import (
    BacklinkDistribution,
    CumulativenessSeries,
    DistributionFit,
    KnowledgeGraph,
    LinearFit,
    ModelParams,
    PathLengthDistribution,
)
from .growth import rho
from .predictions import binomial_path_pmf

__all__ = [
    "ols_fit",
    "fit_series",
    "geometric_gof",
    "pathlength_gof",
    "power_law_fit",
    "classify_relative_cumulativeness",
    "invention_rate",
    "PATHLENGTH_FAMILIES",
]

# Pool chi-square bins until every expected count reaches this floor.
_MIN_EXPECTED = 5.0

PATHLENGTH_FAMILIES = ("binomial-type", "poisson", "normal", "binomial")


def ols_fit(x: Sequence[float], y: Sequence[float]) -> LinearFit:
    """Ordinary least squares of y on x with the textbook statistics.

    Requires at least 3 points and a non-constant x.  A constant y yields
    slope 0 with R-squared and F reported as 0.
    """
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("x and y must be 1-d sequences of equal length")
    n = len(xs)
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    x_mean = float(xs.mean())
    y_mean = float(ys.mean())
    dx = xs - x_mean
    dy = ys - y_mean
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise ValueError("degenerate design: x is constant")
    sxy = float(dx @ dy)
    sst = float(dy @ dy)
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    resid = ys - (intercept + slope * xs)
    sse = float(resid @ resid)
    ssr = slope * sxy
    dof = n - 2
    mse = sse / dof
    if sst > 0.0:
        r_squared = min(max(1.0 - sse / sst, 0.0), 1.0)
    else:
        r_squared = 0.0
    if mse > 0.0:
        f_statistic = ssr / mse
    else:
        f_statistic = math.inf if ssr > 0.0 else 0.0
    residual_se = math.sqrt(mse)
    return LinearFit(
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        residual_se=residual_se,
        f_statistic=f_statistic,
        n_obs=n,
        slope_se=residual_se / math.sqrt(sxx),
        intercept_se=residual_se * math.sqrt(1.0 / n + x_mean**2 / sxx),
    )


def fit_series(series: CumulativenessSeries, which: str) -> LinearFit:
    """OLS of one indicator ('id', 'ipl' or 'mipl') against the prefix size.

    The slope estimates the indicator's growth rate (the id rate q, the ipl
    rate p, or the mipl rate) and the intercept its starting level.
    """
    if which not in ("id", "ipl", "mipl"):
        raise ValueError(f"cannot fit series component {which!r}")
    return ols_fit(series.ns(), series.component(which))


def _plot_correlation(emp: np.ndarray, mod: np.ndarray, context: str) -> float:
    """Pearson correlation of the (empirical, model) probability pairs."""
    if len(emp) < 2:
        warnings.warn(
            f"{context}: degenerate distribution with a single support point; "
            "probability-plot correlation reported as 1",
            stacklevel=3,
        )
        return 1.0
    dx = emp - emp.mean()
    dy = mod - mod.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        matched = bool(np.allclose(emp, mod))
        warnings.warn(
            f"{context}: constant probabilities on one axis; correlation "
            f"reported as {1.0 if matched else 0.0}",
            stacklevel=3,
        )
        return 1.0 if matched else 0.0
    # Divided one root at a time: sxx * syy can underflow for tiny deviations.
    return min(max(float(dx @ dy) / math.sqrt(sxx) / math.sqrt(syy), -1.0), 1.0)


def _chi_square(
    observed: np.ndarray, expected: np.ndarray
) -> tuple[float, int, float]:
    """Pearson chi-square with right-to-left pooling of sparse bins."""
    obs_pooled: list[float] = []
    exp_pooled: list[float] = []
    acc_obs = 0.0
    acc_exp = 0.0
    # Walk from the tail so underpopulated high bins merge downward.
    for o, e in zip(observed[::-1].tolist(), expected[::-1].tolist()):
        acc_obs += o
        acc_exp += e
        if acc_exp >= _MIN_EXPECTED:
            obs_pooled.append(acc_obs)
            exp_pooled.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if acc_exp > 0.0 or acc_obs > 0.0:
        if obs_pooled:
            obs_pooled[-1] += acc_obs
            exp_pooled[-1] += acc_exp
        else:
            obs_pooled.append(acc_obs)
            exp_pooled.append(acc_exp)
    obs_arr = np.array(obs_pooled)
    exp_arr = np.array(exp_pooled)
    dof = len(obs_arr) - 1
    if dof < 1 or np.any(exp_arr <= 0.0):
        return math.nan, max(dof, 0), math.nan
    with np.errstate(over="ignore"):  # counts past 1e154 overflow to inf, handled next
        statistic = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    if not math.isfinite(statistic):
        return math.inf, dof, 0.0
    from scipy.special import chdtrc

    return statistic, dof, float(chdtrc(dof, statistic))


def geometric_gof(
    hist: BacklinkDistribution, params: ModelParams, n: int
) -> DistributionFit:
    """Fit of the geometric backward-link prediction to an observed histogram.

    The model pmf is geometric with success probability ``rho(n)`` from the
    supplied (typically fitted) parameters.  The chi-square pools the
    geometric tail beyond the observed support into the last bin.
    """
    if not hist.counts:
        raise ValueError("empty backlink histogram")
    p = rho(n, params)
    max_m = hist.max_links
    ms = np.arange(max_m + 1)
    model = np.exp(ms * math.log1p(-p)) * p if p < 1.0 else (ms == 0).astype(float)
    observed = np.array([hist.counts.get(m, 0) for m in range(max_m + 1)], dtype=float)
    empirical = observed / hist.n
    correlation = _plot_correlation(empirical, model, "geometric fit")
    expected = hist.n * model
    tail = hist.n * math.exp((max_m + 1) * math.log1p(-p)) if p < 1.0 else 0.0
    statistic, dof, p_value = _chi_square(
        np.append(observed, 0.0), np.append(expected, tail)
    )
    return DistributionFit(
        family="geometric",
        params={"rho": p},
        plot_points=tuple(zip(empirical.tolist(), model.tolist())),
        plot_correlation=correlation,
        chi_square=(statistic, dof, p_value),
    )


def _pathlength_model(
    dist: PathLengthDistribution, n_prime: int, family: str, ks: np.ndarray
) -> tuple[Mapping[str, float], np.ndarray]:
    from scipy.special import gammaln

    mean = dist.ipl
    if family == "binomial-type":
        model = np.zeros(len(ks))
        model[:n_prime] = binomial_path_pmf(n_prime)  # ks always reaches n_prime - 1
        return {"n_prime": float(n_prime)}, model
    if family == "poisson":
        logs = ks * math.log(mean) - mean - gammaln(ks + 1.0) if mean > 0 else None
        model = np.exp(logs) if logs is not None else (ks == 0).astype(float)
        return {"rate": mean}, model
    if family == "normal":
        var = sum(k * k * w for k, w in dist.normalized.items()) - mean * mean
        if var <= 0:
            return {"mean": mean, "var": var}, (ks == round(mean)).astype(float)
        model = np.exp(-((ks - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        return {"mean": mean, "var": var}, model
    if family == "binomial":
        size = max(dist.mipl, 1)
        prob = min(max(mean / size, 0.0), 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = (
                gammaln(size + 1.0)
                - gammaln(ks + 1.0)
                - gammaln(size - ks + 1.0)
                + ks * np.log(prob)
                + (size - ks) * np.log1p(-prob)
            )
        model = np.where(ks <= size, np.exp(logs), 0.0)
        model = np.nan_to_num(model, nan=0.0)
        return {"n": float(size), "p": prob}, model
    raise ValueError(f"unknown path-length family {family!r}")


def pathlength_gof(
    dist: PathLengthDistribution,
    n_prime: int | None = None,
    family: str = "binomial-type",
) -> DistributionFit:
    """Fit of a model family to a normalized path-length distribution.

    The default family is the binomial-type distribution evaluated at
    ``n_prime`` (the observed maximum path length unless overridden).  The
    alternatives ('poisson', 'normal', 'binomial') are moment-matched to the
    empirical distribution.  Chi-square counts every path as an observation,
    which makes it extremely strict for large graphs.
    """
    total = dist.total_paths
    if not dist.counts or total <= 0:
        raise ValueError("path-length distribution has no paths")
    support = [k for k, w in dist.normalized.items() if w > 0.0]
    if len(support) < 2:
        warnings.warn(
            "degenerate path-length distribution with a single length; "
            "correlation reported as 1",
            stacklevel=2,
        )
        params: Mapping[str, float] = {"n_prime": float(n_prime or max(dist.mipl, 1))}
        return DistributionFit(
            family=family,
            params=params,
            plot_points=((1.0, 1.0),),
            plot_correlation=1.0,
            chi_square=(math.nan, 0, math.nan),
        )
    if n_prime is None:
        n_prime = dist.mipl
    ks = np.arange(max(dist.mipl, n_prime - 1) + 1)
    empirical = np.array([dist.normalized.get(k, 0.0) for k in range(len(ks))])
    params, model = _pathlength_model(dist, n_prime, family, ks)
    correlation = _plot_correlation(empirical, model, f"{family} path-length fit")
    try:
        sample = float(total)
    except OverflowError:
        sample = math.inf
    if math.isfinite(sample):
        statistic, dof, p_value = _chi_square(sample * empirical, sample * model)
    else:
        statistic, dof, p_value = math.inf, len(ks) - 1, 0.0
    return DistributionFit(
        family=family,
        params=params,
        plot_points=tuple(zip(empirical.tolist(), model.tolist())),
        plot_correlation=correlation,
        chi_square=(statistic, dof, p_value),
    )


def power_law_fit(
    x: Sequence[float], y: Sequence[float]
) -> tuple[float, float, LinearFit]:
    """Fit y = prefactor * x^exponent by OLS on the log-log values."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("power-law fit requires strictly positive values")
    fit = ols_fit(np.log(xs), np.log(ys))
    return fit.slope, math.exp(fit.intercept), fit


def classify_relative_cumulativeness(
    points: Sequence[tuple[float, float]],
) -> tuple[list[str], tuple[float, float, LinearFit]]:
    """Label technologies as relatively high or low cumulativeness.

    ``points`` holds one (size n, id) pair per technology.  A power law of
    id versus n is fitted across technologies and each one is labeled
    'high' if its id is at least the fitted value at its n ('low'
    otherwise); points exactly on the line count as high.  Labels depend
    only on the values, never on the ordering.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 technologies, got {len(points)}")
    ns = [p[0] for p in points]
    ids = [p[1] for p in points]
    exponent, prefactor, fit = power_law_fit(ns, ids)
    labels = [
        "high" if id_value >= prefactor * n**exponent else "low"
        for n, id_value in points
    ]
    return labels, (exponent, prefactor, fit)


def invention_rate(graph: KnowledgeGraph) -> float:
    """Average inventions per calendar year: N / (year span + 1)."""
    years = graph.years
    if not years or any(y is None for y in years):
        raise ValueError("invention rate requires a year on every node")
    return graph.n_nodes / (max(years) - min(years) + 1)

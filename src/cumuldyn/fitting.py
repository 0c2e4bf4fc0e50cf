"""Parameter estimation and distribution validation.

Linear growth rates are estimated by plain ordinary least squares on the
measured series (each checkpoint treated as one observation).  Distribution
fits are judged primarily by probability-plot correlation — the Pearson
correlation of (empirical probability, model probability) pairs — with a
chi-square statistic reported alongside; chi-square treats every underlying
observation as independent and is known to be strict for large samples.
The distribution fits are batched: one call fits one family to a whole
sequence of distributions (the checkpoints of a series) in array passes, and
returns one :class:`~cumuldyn.core.DistributionFits` with each row's
warnings in it instead of raising Python warnings.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

# The special functions here (log-factorials, the chi-square tail at integer
# dof) are numpy and ``math`` alone; tests/test_startup.py checks what each
# command loads.

from .core import (
    BacklinkDistribution,
    BacklinkTable,
    DistributionFits,
    KnowledgeGraph,
    LinearFit,
    ModelParams,
    PathLengthDistribution,
    PathLengthTable,
    SeriesPoint,
)
from .growth import rho
from .predictions import binomial_path_pmf, log_factorials

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


def fit_series(points: Sequence[SeriesPoint], which: str) -> LinearFit:
    """OLS of one indicator ('id', 'ipl' or 'mipl') of a series against the prefix size.

    The slope estimates the indicator's growth rate (the id rate q, the ipl
    rate p, or the mipl rate) and the intercept its starting level.
    """
    if which not in ("id", "ipl", "mipl"):
        raise ValueError(f"cannot fit series component {which!r}")
    return ols_fit([p.n for p in points], [getattr(p, which) for p in points])


# The batched kernels below fit one family to many distributions at once.
# Row i's values sit in flat arrays at [starts[i], starts[i] + lengths[i]),
# one segment per row with no padding, and per-row sums are segment sums.


def _segments(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start of each segment of ``lengths``, and each element's offset in its segment."""
    starts = np.cumsum(lengths) - lengths
    return starts, np.arange(lengths.sum()) - np.repeat(starts, lengths)


def _row_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each segment's sum along the last axis, rounded as ``np.sum`` of it alone.

    ``np.sum`` adds a contiguous row pairwise in an order fixed by its length,
    so the segments of one length are summed as the rows of one C-ordered
    array (a gathered array that is not C-ordered may be added in another
    order).  One gather puts the segments in order of length.
    """
    order = np.argsort(lengths, kind="stable")
    ranked = lengths[order]
    gathered = values[..., np.repeat(starts[order], ranked) + _segments(ranked)[1]]
    blocks, edge = [], 0
    for length, count in zip(*(a.tolist() for a in np.unique(ranked, return_counts=True))):
        block = gathered[..., edge:edge + count * length].reshape(*values.shape[:-1], count, length)
        blocks.append(np.ascontiguousarray(block).sum(axis=-1))
        edge += count * length
    sums = np.empty(values.shape[:-1] + starts.shape)
    sums[..., order] = np.concatenate(blocks, axis=-1)
    return sums


def _plot_correlations(
    empirical: np.ndarray, model: np.ndarray, starts: np.ndarray, lengths: np.ndarray, context: str
) -> tuple[list[float], list[tuple[str, ...]]]:
    """Pearson correlation of each row's (empirical, model) pairs, and its warnings.

    The means are ``np.mean``'s to the last bit, so a row counts as constant
    on an axis exactly when ``np.std`` of it is 0.
    """
    pairs = np.stack((empirical, model))
    dx, dy = pairs - np.repeat(_row_sums(pairs, starts, lengths) / lengths, lengths, axis=1)
    sxx, syy, sxy = np.add.reduceat(np.stack((dx * dx, dy * dy, dx * dy)), starts, axis=1)
    # Divided one root at a time: sxx * syy can underflow for tiny deviations.
    correlations = np.clip(sxy / np.sqrt(sxx) / np.sqrt(syy), -1.0, 1.0).tolist()
    warned: list[tuple[str, ...]] = [()] * len(starts)
    for row in np.flatnonzero((lengths < 2) | (sxx == 0.0) | (syy == 0.0)).tolist():
        if lengths[row] < 2:
            correlations[row] = 1.0
            warned[row] = (
                f"{context}: degenerate distribution with a single support point; "
                "probability-plot correlation reported as 1",
            )
            continue
        lo = starts[row]
        hi = lo + lengths[row]
        correlations[row] = 1.0 if np.allclose(empirical[lo:hi], model[lo:hi]) else 0.0
        warned[row] = (
            f"{context}: constant probabilities on one axis; correlation "
            f"reported as {correlations[row]}",
        )
    return correlations, warned


def _chi_square_tail(statistics: np.ndarray, dofs: np.ndarray) -> np.ndarray:
    """Upper tail P(X > x) of each statistic x >= 0, X chi-square at its integer dof >= 1.

    Rows are grouped by the bit length of their series' term count, counts
    below 64 together, and each group is padded to its longest row: the
    padding stays below 64 terms per row plus the row's own count, so one
    row of large dof does not widen all the others.
    """
    groups = np.maximum(np.frexp(dofs // 2)[1], 6)
    p_values = np.empty(len(statistics))
    # ``np.unique`` would load numpy.ma, which no command needs.
    for group in sorted(set(groups.tolist())):
        rows = np.flatnonzero(groups == group)
        p_values[rows] = _chi_square_tail_padded(statistics[rows], dofs[rows])
    return p_values


def _chi_square_tail_padded(statistics: np.ndarray, dofs: np.ndarray) -> np.ndarray:
    """:func:`_chi_square_tail` of a non-empty batch, as one rows x terms array.

    At integer dof the tail Q(dof/2, h), h = x/2, is a finite series:
    ``exp(-h) * sum(h**j / j!  for j < dof/2)`` for even dof, and
    ``erfc(sqrt(h)) + exp(-h) * sum(h**(j+1/2) / Gamma(j+3/2)  for j < dof//2)``
    for odd dof.  The series terms are built in log space, one row per
    statistic, and each row is scaled by its largest term before it is
    exponentiated, so a large statistic gives a tiny or subnormal p-value
    rather than 0 * inf.  The rows are padded with zero terms and added by
    ``np.cumsum``, left to right, so a row's value does not depend on the
    rows beside it.
    """
    h = statistics / 2.0
    odd = dofs % 2 == 1
    counts = dofs // 2
    width = max(int(counts.max()), 1)
    js = np.arange(width)
    halves = np.array([math.lgamma(j + 1.5) for j in range(width)])
    log_gammas = np.where(odd[:, None], halves, log_factorials(width - 1))
    positive = h > 0.0
    log_h = np.log(np.where(positive, h, 1.0))
    powers = js + np.where(odd, 0.5, 0.0)[:, None]
    terms = np.where(
        js < counts[:, None], powers * log_h[:, None] - h[:, None] - log_gammas, -np.inf
    )
    # A row without terms (dof 1) has its largest term at -inf: scale it by 1.
    tops = terms.max(axis=1)
    tops[tops == -np.inf] = 0.0
    sums = np.cumsum(np.exp(terms - tops[:, None]), axis=1)[:, -1]
    leads = np.zeros(len(h))
    leads[odd] = [math.erfc(math.sqrt(v)) for v in h[odd].tolist()]
    # Rounding in the log terms can carry a p-value near 1 a few ulps past it.
    return np.where(positive, np.minimum(leads + np.exp(tops) * sums, 1.0), 1.0)


def _chi_squares(
    observed: np.ndarray, expected: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> list[tuple[float, int, float]]:
    """Pearson chi-square (statistic, dof, p-value) of each row.

    Bins are pooled from the row's last one down until their expected count
    reaches the floor; a remainder short of it joins the last pooled bin.
    """
    obs = observed.tolist()
    exp = expected.tolist()
    obs_pooled: list[float] = []
    exp_pooled: list[float] = []
    counts = []
    for lo, hi in zip(starts.tolist(), (starts + lengths).tolist()):
        first = len(obs_pooled)
        acc_obs = acc_exp = 0.0
        for o, e in zip(reversed(obs[lo:hi]), reversed(exp[lo:hi])):
            acc_obs += o
            acc_exp += e
            if acc_exp >= _MIN_EXPECTED:
                obs_pooled.append(acc_obs)
                exp_pooled.append(acc_exp)
                acc_obs = acc_exp = 0.0
        if acc_exp > 0.0 or acc_obs > 0.0:
            if len(obs_pooled) > first:
                obs_pooled[-1] += acc_obs
                exp_pooled[-1] += acc_exp
            else:
                obs_pooled.append(acc_obs)
                exp_pooled.append(acc_exp)
        counts.append(len(obs_pooled) - first)
    results = [(math.nan, max(c - 1, 0), math.nan) for c in counts]
    bins = np.array(counts)
    tested = np.flatnonzero(bins >= 2)
    if not len(tested):
        return results
    o = np.array(obs_pooled)
    e = np.array(exp_pooled)
    ends = np.cumsum(bins)[tested]
    firsts = ends - bins[tested]
    # Counts past 1e154 overflow to inf, and a nan sum reads as not finite.
    statistics = _row_sums((o - e) ** 2 / e, firsts, bins[tested])
    nonpositive = np.concatenate(([0], np.cumsum(e <= 0.0)))
    positive = nonpositive[ends] == nonpositive[firsts]
    finite = positive & np.isfinite(statistics)
    p_values = _chi_square_tail(np.where(finite, statistics, 0.0), bins[tested] - 1)
    for row, keep, ok, statistic, p_value in zip(
        tested.tolist(), positive.tolist(), finite.tolist(), statistics.tolist(), p_values.tolist()
    ):
        dof = counts[row] - 1
        if keep:
            results[row] = (statistic, dof, p_value) if ok else (math.inf, dof, 0.0)
    return results


def _fits(
    family: str, params: list[Mapping[str, float]], lengths: np.ndarray, empirical: np.ndarray,
    model: np.ndarray, correlations: list[float], chi_square: list[tuple[float, int, float]],
    warned: list[tuple[str, ...]],
) -> DistributionFits:
    return DistributionFits(
        family=family,
        params=tuple(params),
        bounds=(0, *np.cumsum(lengths).tolist()),
        empirical=tuple(empirical.tolist()),
        model=tuple(model.tolist()),
        plot_correlation=tuple(correlations),
        chi_square=tuple(chi_square),
        warnings=tuple(warned),
    )


def geometric_gof(
    hists: Sequence[BacklinkDistribution] | BacklinkTable, params: ModelParams
) -> DistributionFits:
    """Fit of the geometric backward-link prediction to each observed histogram.

    Histogram ``h`` (a record, or a row of a :class:`BacklinkTable`) is
    compared with the geometric pmf of success probability ``rho(h.n)``
    from the supplied (typically fitted) parameters, over m = 0 .. the
    largest m it lists.  The chi-square pools the geometric tail beyond the
    observed support into the last bin.
    """
    table = hists if isinstance(hists, BacklinkTable) else BacklinkTable.from_hists(hists)
    ns = table.ns
    if not ns:
        return DistributionFits("geometric", (), (0,), (), (), (), (), ())
    ps = [rho(n, params) for n in ns]
    lengths = np.maximum.reduceat(table.links, table.bounds[:-1]) + 1
    starts, ms = _segments(lengths)
    totals = np.repeat(np.array(ns, dtype=float), lengths)
    logs = [math.log1p(-p) for p in ps]
    with np.errstate(all="ignore"):
        model = np.exp(ms * np.repeat(logs, lengths)) * np.repeat(ps, lengths)
        counts = np.zeros(len(ms))
        counts[np.repeat(starts, np.diff(table.bounds)) + table.links] = table.counts
        empirical = counts / totals
        correlations, warned = _plot_correlations(
            empirical, model, starts, lengths, "geometric fit"
        )
        # Each row gains one bin: nothing observed, the tail's expected count.
        ends = starts + lengths
        tails = [n * math.exp(size * log) for n, size, log in zip(ns, lengths.tolist(), logs)]
        chi_square = _chi_squares(
            np.insert(counts, ends, 0.0),
            np.insert(totals * model, ends, tails),
            starts + np.arange(len(ns)),
            lengths + 1,
        )
    return _fits(
        "geometric", [{"rho": p} for p in ps], lengths, empirical, model,
        correlations, chi_square, warned,
    )


def _pathlength_model(
    family: str, table: PathLengthTable, n_primes: list[int], lengths: np.ndarray, ks: np.ndarray,
) -> tuple[list[Mapping[str, float]], np.ndarray]:
    """Each row's parameters, and the family's pmf over every row's lengths ``ks``."""
    means = table.ipl
    mean = np.repeat(means, lengths)
    if family == "binomial-type":
        pmfs = {n_prime: binomial_path_pmf(n_prime) for n_prime in set(n_primes)}
        model = np.zeros(len(ks))
        # Every row's lengths reach n_prime - 1: the pmf fills its first n_prime.
        model[ks < np.repeat(n_primes, lengths)] = np.concatenate([pmfs[m] for m in n_primes])
        return [{"n_prime": float(m)} for m in n_primes], model
    if family == "poisson":
        log_means = np.repeat([math.log(m) if m > 0 else 0.0 for m in means], lengths)
        logs = ks * log_means - mean - log_factorials(int(ks.max()))[ks]
        model = np.where(mean > 0, np.exp(logs), (ks == 0).astype(float))
        return [{"rate": m} for m in means], model
    if family == "normal":
        variances = table.variance
        # A row without spread puts all its mass at the rounded mean.
        flat = [v <= 0 for v in variances]
        twice = np.repeat([2 * v for v in variances], lengths)
        roots = np.repeat(
            [1.0 if f else math.sqrt(2 * math.pi * v) for v, f in zip(variances, flat)], lengths
        )
        peaks = np.repeat([round(m) if f else 0 for m, f in zip(means, flat)], lengths)
        model = np.where(
            np.repeat(flat, lengths),
            (ks == peaks).astype(float),
            np.exp(-((ks - mean) ** 2) / twice) / roots,
        )
        return [{"mean": m, "var": v} for m, v in zip(means, variances)], model
    if family == "binomial":
        sizes = [max(m, 1) for m in table.mipl]
        probs = [min(max(m / size, 0.0), 1.0) for m, size in zip(means, sizes)]
        size = np.repeat(sizes, lengths)
        prob = np.repeat(probs, lengths)
        # An n_prime past mipl + 1 asks for k > size, where the pmf is 0.
        within = ks <= size
        drawn = np.where(within, ks, 0)
        log_fact = log_factorials(max(sizes))
        logs = (
            log_fact[size]
            - log_fact[drawn]
            - log_fact[size - drawn]
            + ks * np.log(prob)
            + (size - ks) * np.log1p(-prob)
        )
        model = np.nan_to_num(np.where(within, np.exp(logs), 0.0), nan=0.0)
        return [{"n": float(s), "p": pr} for s, pr in zip(sizes, probs)], model
    raise ValueError(f"unknown path-length family {family!r}")


def pathlength_gof(
    dists: Sequence[PathLengthDistribution] | PathLengthTable, family: str = "binomial-type",
    n_prime: int | None = None,
) -> DistributionFits:
    """Fit of a model family to each normalized path-length distribution.

    ``dists`` are records or the rows of a :class:`PathLengthTable`.  The
    default family is the binomial-type distribution evaluated at
    ``n_prime`` (each distribution's observed maximum path length unless
    overridden).  The alternatives ('poisson', 'normal', 'binomial') are
    moment-matched to each empirical distribution.  Chi-square counts every
    path as an observation, which makes it extremely strict for large
    graphs.  A distribution with a single length is one plot point (1, 1),
    reported with a warning; its params are still the family's (the n' it
    would take, or the moment-matched ones).
    """
    if family not in PATHLENGTH_FAMILIES:
        raise ValueError(f"unknown path-length family {family!r}")
    if n_prime is not None and n_prime < 1:
        raise ValueError(f"n_prime must be >= 1, got {n_prime}")
    table = dists if isinstance(dists, PathLengthTable) else PathLengthTable.from_dists(dists)
    if not table.ns:
        return DistributionFits(family, (), (0,), (), (), (), (), ())
    # A distribution with a single positive weight is a degenerate row: one
    # plot point (1, 1) at k = 0, where the binomial-type pmf is taken at n' = 1.
    entries = np.diff(table.bounds)
    positive = np.concatenate(([0], np.cumsum(table.normalized > 0.0)))[table.bounds]
    degenerate = np.diff(positive) < 2
    mipl = np.array(table.mipl)
    n_primes = np.where(degenerate, 1, n_prime or mipl)
    lengths = np.where(degenerate, 1, np.maximum(mipl, n_primes - 1) + 1)
    starts, ks = _segments(lengths)
    emp = np.zeros(len(ks))
    inside = np.repeat(~degenerate, entries) & (table.lengths < np.repeat(lengths, entries))
    emp[np.repeat(starts, entries)[inside] + table.lengths[inside]] = table.normalized[inside]
    emp[starts[degenerate]] = 1.0
    samples = np.where(degenerate, 0.0, table.samples)
    with np.errstate(all="ignore"):
        params, model = _pathlength_model(family, table, n_primes.tolist(), lengths, ks)
        model[starts[degenerate]] = 1.0
        correlations, warned = _plot_correlations(
            emp, model, starts, lengths, f"{family} path-length fit"
        )
        sample = np.repeat(samples, lengths)
        chi_square = _chi_squares(sample * emp, sample * model, starts, lengths)
    for row in np.flatnonzero(np.isinf(samples)).tolist():
        chi_square[row] = (math.inf, int(lengths[row]) - 1, 0.0)
    for row in np.flatnonzero(degenerate).tolist():
        # The other families keep their moment-matched params of the row.
        if family == "binomial-type":
            params[row] = {"n_prime": float(n_prime or max(table.mipl[row], 1))}
        correlations[row] = 1.0
        chi_square[row] = (math.nan, 0, math.nan)
        warned[row] = (
            "degenerate path-length distribution with a single length; "
            "correlation reported as 1",
        )
    return _fits(family, params, lengths, emp, model, correlations, chi_square, warned)


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

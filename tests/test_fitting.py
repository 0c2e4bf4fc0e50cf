"""Regression, goodness of fit, power laws and classification."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cumuldyn.core import (
    BacklinkDistribution,
    BacklinkTable,
    ModelParams,
    PathLengthDistribution,
    PathLengthTable,
)
from cumuldyn.fitting import (
    PATHLENGTH_FAMILIES,
    _chi_square_tail,
    _chi_squares,
    classify_relative_cumulativeness,
    fit_series,
    geometric_gof,
    invention_rate,
    ols_fit,
    pathlength_gof,
    power_law_fit,
)
from cumuldyn.growth import rho, simulate
from cumuldyn.measures import measure_checkpoints
from cumuldyn.predictions import binomial_path_pmf

from conftest import (
    binomial_path_dist,
    make_graph,
    reference_chi_squares,
    reference_geometric_gof,
    reference_pathlength_gof,
)


def row_points(fits, row):
    """Row ``row``'s (empirical, model) pairs of a ``DistributionFits``."""
    return fits.plot_points[fits.bounds[row]:fits.bounds[row + 1]]


def naive_ols(x, y):
    """Independent oracle: plain-loop textbook summation formulas."""
    n = len(x)
    sx = sum(x)
    sy = sum(y)
    sxx = sum(v * v for v in x)
    sxy = sum(a * b for a, b in zip(x, y))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return slope, intercept


class TestOlsFit:
    def test_exact_line(self):
        fit = ols_fit([1, 2, 3], [1, 2, 3])
        assert fit.slope == pytest.approx(1.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.f_statistic == math.inf

    def test_constant_y(self):
        fit = ols_fit([1, 2, 3, 4], [5, 5, 5, 5])
        assert fit.slope == 0.0
        assert fit.r_squared == 0.0
        assert fit.f_statistic == 0.0

    def test_constant_x_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            ols_fit([2, 2, 2], [1, 2, 3])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            ols_fit([1, 2], [1, 2])

    def test_matches_naive_summation_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(3, 60))
            x = rng.normal(10, 4, size=n).tolist()
            y = (2.5 * np.asarray(x) - 1.0 + rng.normal(0, 1, size=n)).tolist()
            fit = ols_fit(x, y)
            slope, intercept = naive_ols(x, y)
            assert fit.slope == pytest.approx(slope, rel=1e-10)
            assert fit.intercept == pytest.approx(intercept, rel=1e-10, abs=1e-10)

    def test_statistics_on_known_fixture(self):
        # Hand-checked fixture: y = 2x + 1 + e, e = (-1, 1, -1, 1).
        x = [1.0, 2.0, 3.0, 4.0]
        y = [2.0, 6.0, 6.0, 10.0]
        fit = ols_fit(x, y)
        assert fit.slope == pytest.approx(2.4)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        # SSE = sum of squared residuals of the fitted line.
        resid = [yy - (fit.intercept + fit.slope * xx) for xx, yy in zip(x, y)]
        sse = sum(r * r for r in resid)
        assert fit.residual_se == pytest.approx(math.sqrt(sse / 2))
        assert fit.n_obs == 4
        assert 0 <= fit.r_squared <= 1

    def test_slope_recovery_from_simulated_series(self):
        # The id series of a simulated graph grows at q/2 (time average of a
        # linearly growing per-invention mean).
        params = ModelParams(q=0.0006, m1=1.65)
        slopes = []
        for seed in range(10):
            checkpoints = measure_checkpoints(simulate(params, 3600, seed=seed), stride=100)
            series = [cp.point for cp in checkpoints]
            slopes.append(fit_series(series, "id").slope)
        assert np.mean(slopes) == pytest.approx(params.q / 2, rel=0.10)


class TestFitSeries:
    def test_chain_series_ipl_slope(self):
        n = 30
        g = make_graph(n, [(i, i - 1) for i in range(1, n)])
        series = [cp.point for cp in measure_checkpoints(g, stride=5)]
        fit = fit_series(series, "ipl")
        # ipl(n) = (n-1)/2 exactly on a chain.
        assert fit.slope == pytest.approx(0.5)
        assert fit.intercept == pytest.approx(-0.5)

    def test_no_edges_all_slopes_zero(self):
        series = [cp.point for cp in measure_checkpoints(make_graph(40, []), stride=10)]
        for which in ("id", "ipl", "mipl"):
            assert fit_series(series, which).slope == pytest.approx(0.0)

    def test_unknown_component_rejected(self):
        series = [cp.point for cp in measure_checkpoints(make_graph(40, []), stride=10)]
        with pytest.raises(ValueError):
            fit_series(series, "ed2")

    def test_mipl_grows_about_twice_as_fast_as_ipl(self):
        params = ModelParams(q=0.002, m1=3.0)
        ratios = []
        for seed in range(10):
            checkpoints = measure_checkpoints(simulate(params, 5000, seed=seed), stride=100)
            tail = [cp.point for cp in checkpoints if cp.n >= 2500]
            ratios.append(fit_series(tail, "mipl").slope / fit_series(tail, "ipl").slope)
        assert np.mean(ratios) == pytest.approx(2.0, rel=0.25)


class TestGeometricGof:
    def test_perfect_model_correlation_one(self):
        # rho at n = 100 000 equals rho(1000) of q = 0.001, m1 = 2: p = 1/3.
        params = ModelParams(q=1e-5, m1=2.0)
        total = 100_000
        p = rho(total, params)
        counts = {}
        remaining = total
        for m in range(30):
            c = round(total * (1 - p) ** m * p)
            counts[m] = c
            remaining -= c
        counts[0] += remaining  # force the histogram total to match
        hist = BacklinkDistribution(n=total, counts=counts)
        fits = geometric_gof(BacklinkTable.from_hists([hist]), params)
        assert fits.params == ({"rho": p},)
        assert fits.plot_correlation[0] >= 0.9999
        assert all(abs(e - m) < 1e-3 for e, m in fits.plot_points)

    def test_uniform_histogram_is_a_negative_control(self):
        params = ModelParams(q=0.001, m1=2.0)
        hist = BacklinkDistribution(n=1100, counts={m: 100 for m in range(11)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = geometric_gof(BacklinkTable.from_hists([hist]), params)
        assert fits.warnings == ((
            "geometric fit: constant probabilities on one axis; correlation reported as 0.0",
        ),)
        assert fits.plot_correlation[0] < 0.99

    def test_simulated_graph_fits_well(self):
        # The geometric law is evaluated at parameters fitted from the id
        # series, which describe the whole-prefix histogram.
        params = ModelParams(q=0.002, m1=3.0)
        g = simulate(params, 3000, seed=0)
        checkpoints = measure_checkpoints(g, stride=100)
        fit = fit_series([cp.point for cp in checkpoints], "id")
        fitted = ModelParams(q=fit.slope, m1=fit.intercept + 1.0)
        assert checkpoints[-1].n == 3000
        fits = geometric_gof(BacklinkTable.from_hists([checkpoints[-1].backlink_dist]), fitted)
        assert fits.plot_correlation[0] >= 0.99
        statistic, dof, p_value = fits.chi_square[0]
        assert statistic >= 0
        assert dof >= 1
        assert 0 <= p_value <= 1

    def test_chi_square_pooling_keeps_expected_above_five(self):
        params = ModelParams(q=0.001, m1=2.0)
        hist = BacklinkDistribution(n=30, counts={0: 10, 1: 8, 2: 6, 3: 3, 9: 3})
        fits = geometric_gof(BacklinkTable.from_hists([hist]), params)
        statistic, dof, p_value = fits.chi_square[0]
        assert math.isfinite(statistic)
        assert dof >= 1

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            geometric_gof(
                BacklinkTable.from_hists([BacklinkDistribution(n=0, counts={})]),
                ModelParams(q=0.1, m1=2.0),
            )

    def test_rows_follow_the_histograms(self):
        params = ModelParams(q=0.01, m1=2.0)
        hists = [
            BacklinkDistribution(n=4, counts={0: 2, 2: 2}),
            BacklinkDistribution(n=3, counts={0: 3}),
            BacklinkDistribution(n=9, counts={0: 3, 1: 4, 3: 2}),
        ]
        fits = geometric_gof(BacklinkTable.from_hists(hists), params)
        assert fits.bounds == (0, 3, 4, 8)
        assert [len(row_points(fits, row)) for row in range(3)] == [3, 1, 4]
        assert [p["rho"] for p in fits.params] == [rho(h.n, params) for h in hists]
        assert fits.warnings[1] == (
            "geometric fit: degenerate distribution with a single support point; "
            "probability-plot correlation reported as 1",
        )
        assert fits.warnings[0] == fits.warnings[2] == ()

    def test_no_histograms_no_rows(self):
        fits = geometric_gof(BacklinkTable.from_hists([]), ModelParams(q=0.1, m1=2.0))
        assert fits.params == ()
        assert fits.plot_points == ()
        assert fits.bounds == (0,)


class TestPathlengthGof:
    def test_perfect_model_correlation_one(self):
        # A distribution of the pmf at n' = 12 itself, with one path at k = 12 so that
        # mipl = 12: the model is that pmf below mipl and 0 at mipl.
        total = 10**9
        counts = {k: round(w * total) for k, w in binomial_path_dist(12).items()} | {12: 1}
        paths = sum(counts.values())
        normalized = {k: c / paths for k, c in counts.items()}
        dist = PathLengthDistribution(
            n=500, counts=counts, normalized=normalized,
            ipl=sum(k * w for k, w in normalized.items()), mipl=12,
        )
        fits = pathlength_gof(PathLengthTable.from_dists([dist]))
        assert fits.params == ({"n_prime": 12.0},)
        assert fits.model == (*binomial_path_pmf(12).tolist(), 0.0)
        assert fits.plot_correlation[0] == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_single_length(self):
        dist = PathLengthDistribution(
            n=4, counts={0: 4}, normalized={0: 1.0}, ipl=0.0, mipl=0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = pathlength_gof(PathLengthTable.from_dists([dist]))
        assert fits.warnings == ((
            "degenerate path-length distribution with a single length; "
            "correlation reported as 1",
        ),)
        assert fits.plot_correlation == (1.0,)
        assert fits.plot_points == ((1.0, 1.0),)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("binomial-type", {"n_prime": 2.0}),
            ("poisson", {"rate": 2.0}),
            ("normal", {"mean": 2.0, "var": 0.0}),
            ("binomial", {"n": 2.0, "p": 1.0}),
        ],
    )
    def test_degenerate_row_reports_its_family_params(self, family, params):
        # Every path has length 2; a regular row follows in the same batch.
        single = PathLengthDistribution(
            n=5, counts={0: 0, 1: 0, 2: 4}, normalized={0: 0.0, 1: 0.0, 2: 1.0},
            ipl=2.0, mipl=2,
        )
        regular = PathLengthDistribution(
            n=6, counts={0: 1, 1: 3}, normalized={0: 0.25, 1: 0.75}, ipl=0.75, mipl=1
        )
        fits = pathlength_gof(PathLengthTable.from_dists([single, regular]), family)
        assert fits.params[0] == params
        assert row_points(fits, 0) == ((1.0, 1.0),)
        assert repr(fits.chi_square[0]) == repr((math.nan, 0, math.nan))
        alone = pathlength_gof(PathLengthTable.from_dists([regular]), family)
        assert fits.params[1] == alone.params[0]

    def test_default_n_prime_is_mipl(self):
        g = simulate(ModelParams(q=0.002, m1=3.0), 1500, seed=3)
        dists = [cp.path_dist for cp in measure_checkpoints(g, 500)]
        fits = pathlength_gof(PathLengthTable.from_dists(dists))
        assert [p["n_prime"] for p in fits.params] == [dist.mipl for dist in dists]

    def test_binomial_type_fits_simulated_data_reasonably(self):
        dists = [
            measure_checkpoints(simulate(ModelParams(q=0.002, m1=3.0), 3000, seed=seed), 3000)[0]
            .path_dist
            for seed in range(5)
        ]
        assert np.mean(pathlength_gof(PathLengthTable.from_dists(dists)).plot_correlation) > 0.90

    @pytest.mark.parametrize("family", ["poisson", "normal", "binomial"])
    def test_alternative_families(self, family):
        g = simulate(ModelParams(q=0.002, m1=3.0), 2000, seed=1)
        dists = PathLengthTable.from_dists([measure_checkpoints(g, 2000)[0].path_dist])
        fits = pathlength_gof(dists, family=family)
        assert -1.0 <= fits.plot_correlation[0] <= 1.0
        assert fits.family == family

    def test_unknown_family_rejected(self):
        g = simulate(ModelParams(q=0.002, m1=3.0), 500, seed=1)
        dists = PathLengthTable.from_dists([measure_checkpoints(g, 500)[0].path_dist])
        with pytest.raises(ValueError):
            pathlength_gof(dists, family="teacup")

    def test_weight_without_paths_rejected(self):
        # mipl is 0, yet half the weight lies at k = 1.
        dist = PathLengthDistribution(
            n=5, counts={0: 3, 1: 0}, normalized={0: 0.5, 1: 0.5}, ipl=0.5, mipl=0
        )
        with pytest.raises(ValueError, match="at n=5, k=1 is positive where its count is 0"):
            PathLengthTable.from_dists([dist])

    def test_empty_distribution_rejected(self):
        dist = PathLengthDistribution(n=0, counts={}, normalized={}, ipl=0.0, mipl=0)
        with pytest.raises(ValueError):
            pathlength_gof(PathLengthTable.from_dists([dist]))


def _reference_fit(reference_fn, *args):
    """The oracle's fit and the messages of the UserWarnings it raised.

    The oracle evaluates numpy expressions whose floating-point
    RuntimeWarnings (an overflow to inf, say) the kernels silence: those are
    not fit warnings.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = reference_fn(*args)
    return fit, [str(w.message) for w in caught if issubclass(w.category, UserWarning)]


def _assert_same_rows(fits, reference_fn, rows_args):
    """Row i of ``fits`` equal to ``reference_fn(*rows_args[i])``, the correlation within 1e-12."""
    assert len(fits.params) == len(rows_args)
    points = ()
    for row, args in enumerate(rows_args):
        expected, expected_warned = _reference_fit(reference_fn, *args)
        assert list(fits.warnings[row]) == expected_warned
        # repr compares nan equal to nan and tells -0.0 from 0.0.
        assert repr((fits.family, fits.params[row], fits.chi_square[row])) == repr(
            (expected.family, expected.params, expected.chi_square)
        )
        assert repr(row_points(fits, row)) == repr(expected.plot_points)
        correlation = fits.plot_correlation[row]
        if math.isnan(expected.plot_correlation):
            assert math.isnan(correlation)
        else:
            assert abs(correlation - expected.plot_correlation) <= 1e-12
        assert -1.0 <= correlation <= 1.0 or math.isnan(correlation)
        points += expected.plot_points
    assert repr(fits.plot_points) == repr(points)


# Histogram shapes: random counts, equal counts (a constant empirical axis)
# and all mass at m = 0 (a single support point).
_histograms = st.one_of(
    st.lists(st.integers(0, 60), min_size=1, max_size=14),
    st.builds(lambda c, k: [c] * k, st.integers(1, 40), st.integers(2, 10)),
    st.builds(lambda c: [c], st.integers(1, 40)),
).filter(any).map(lambda counts: BacklinkDistribution(n=sum(counts), counts=dict(enumerate(counts))))


@st.composite
def _pathlength_dists(draw):
    """A distribution over k = 0 .. len-1 from raw weights, in one of three count types.

    Counts are the raw integers (exact mode), the weights scaled to floats,
    or scaled past the float range so that some counts and the total are inf.
    """
    raw = draw(
        st.one_of(
            st.lists(st.integers(0, 1000), min_size=1, max_size=30),
            st.builds(lambda c, k: [c] * k, st.integers(1, 1000), st.integers(2, 12)),
            st.builds(
                lambda k, extra: [0] * k + [7] + [0] * extra,
                st.integers(0, 10),
                st.integers(0, 3),
            ),
        ).filter(any)
    )
    scale = draw(st.sampled_from([None, 0.5, 1e306]))
    total = sum(raw)
    normalized = {k: r / total for k, r in enumerate(raw)}
    if scale is None:
        counts = dict(enumerate(raw))
    else:
        with np.errstate(over="ignore"):
            counts = {k: float(np.float64(r) * scale) for k, r in enumerate(raw)}
    mipl = max(k for k, r in enumerate(raw) if r > 0)
    return PathLengthDistribution(
        n=len(raw) + 1,
        counts=counts,
        normalized=normalized,
        ipl=sum(k * w for k, w in normalized.items()),
        mipl=mipl,
    )


class TestGofKernelsMatchReference:
    """The batched kernels, row by row, against the per-scalar code kept in conftest."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(hist=_histograms, q=st.floats(1e-4, 2.0), m1=st.floats(1.01, 20.0))
    def test_geometric(self, hist, q, m1):
        params = ModelParams(q=q, m1=m1)
        fits = geometric_gof(BacklinkTable.from_hists([hist]), params)
        _assert_same_rows(fits, reference_geometric_gof, [(hist, params, hist.n)])

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        dist=_pathlength_dists(),
        family=st.sampled_from(PATHLENGTH_FAMILIES),
    )
    def test_pathlength(self, dist, family):
        fits = pathlength_gof(PathLengthTable.from_dists([dist]), family)
        _assert_same_rows(fits, reference_pathlength_gof, [(dist, family)])

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        hists=st.lists(_histograms, min_size=1, max_size=8),
        q=st.floats(1e-4, 2.0),
        m1=st.floats(1.01, 20.0),
    )
    def test_geometric_checkpoint_sequences(self, hists, q, m1):
        params = ModelParams(q=q, m1=m1)
        fits = geometric_gof(BacklinkTable.from_hists(hists), params)
        _assert_same_rows(fits, reference_geometric_gof, [(h, params, h.n) for h in hists])

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        dists=st.lists(_pathlength_dists(), min_size=1, max_size=8),
        family=st.sampled_from(PATHLENGTH_FAMILIES),
    )
    def test_pathlength_checkpoint_sequences(self, dists, family):
        fits = pathlength_gof(PathLengthTable.from_dists(dists), family)
        _assert_same_rows(fits, reference_pathlength_gof, [(dist, family) for dist in dists])

    def test_segment_sums_round_as_numpy_sum(self):
        from cumuldyn.fitting import _row_sums

        rng = np.random.default_rng(11)
        lengths = rng.integers(1, 300, size=60)
        values = rng.random(int(lengths.sum())) * 10.0 ** rng.integers(-8, 8, int(lengths.sum()))
        starts = np.cumsum(lengths) - lengths
        sums = _row_sums(np.stack((values, values[::-1])), starts, lengths)
        for row, (start, length) in enumerate(zip(starts, lengths)):
            assert sums[0, row] == np.sum(values[start:start + length])
            assert sums[1, row] == np.sum(values[::-1][start:start + length])


# dof 1 .. 40, then a spread up to 300.
TAIL_DOFS = [*range(1, 41), 50, 64, 99, 100, 127, 128, 199, 200, 255, 256, 299, 300]


def _tail_grid() -> tuple[np.ndarray, np.ndarray]:
    """Statistics 0, tiny, around each dof, and out in the far tail up to 1e5."""
    xs, dofs = [], []
    for dof in TAIL_DOFS:
        spread = math.sqrt(2.0 * dof)
        for x in (
            0.0, 1e-300, 1e-12, 1e-3, 0.5 * dof, max(dof - spread, 0.1), float(dof),
            dof + spread, dof + 5 * spread, 2.0 * dof, 10.0 * dof, 1e3, 1e4, 1e5,
        ):
            xs.append(x)
            dofs.append(dof)
    return np.array(xs), np.array(dofs)


def _mpmath_tail(x: float, dof: int) -> float:
    import mpmath

    with mpmath.workdps(50):
        return float(mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, regularized=True))


def _assert_close_to_mpmath(p_value: float, x: float, dof: int) -> None:
    exact = _mpmath_tail(x, dof)
    if exact >= 1e-290:
        assert abs(p_value - exact) <= 1e-12 * exact, (x, dof, p_value, exact)
    else:
        assert abs(p_value - exact) <= 1e-300, (x, dof, p_value, exact)


class TestChiSquareTail:
    def test_matches_mpmath_at_50_digits(self):
        xs, dofs = _tail_grid()
        p_values = _chi_square_tail(xs, dofs)
        for x, dof, p_value in zip(xs.tolist(), dofs.tolist(), p_values.tolist()):
            _assert_close_to_mpmath(p_value, x, dof)

    def test_a_row_does_not_depend_on_the_rows_beside_it(self):
        xs, dofs = _tail_grid()
        batched = _chi_square_tail(xs, dofs)
        for x, dof, p_value in zip(xs, dofs, batched.tolist()):
            assert _chi_square_tail(np.array([x]), np.array([dof]))[0] == p_value

    def test_p_value_is_one_at_zero_and_tiny_in_the_far_tail(self):
        dofs = np.array([1, 2, 3, 300])
        assert _chi_square_tail(np.zeros(4), dofs).tolist() == [1.0] * 4
        far = _chi_square_tail(np.full(4, 1e5), dofs)
        assert np.all((far >= 0.0) & (far <= 1e-300))

    def test_one_large_dof_does_not_widen_the_other_rows(self):
        # Padding every row to the largest dof would take 1001 x 1000 terms,
        # 8 MB an array; grouped, the small rows take 64 terms each.
        xs = np.linspace(0.0, 50.0, 1001)
        dofs = np.append(np.full(1000, 3), 2001)
        tracemalloc.start()
        try:
            p_values = _chi_square_tail(xs, dofs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert p_values[-1] == _chi_square_tail(xs[-1:], dofs[-1:])[0]
        assert p_values[:-1].tolist() == _chi_square_tail(xs[:-1], dofs[:-1]).tolist()


class TestChiSquareMonotonicity:
    def test_p_value_decreases_with_statistic(self):
        stats = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 50.0])
        for dof in (1, 3, 10):
            ps = _chi_square_tail(stats, np.full(len(stats), dof)).tolist()
            assert ps == sorted(ps, reverse=True)

    @pytest.mark.parametrize("dof", [1, 2, 5, 10, 99, 300])
    def test_p_value_never_rises_past_its_rounding(self, dof):
        # The log-space terms carry rounding of up to about 1e-13 relative at
        # dof 300, so neighbouring p-values near 1 may step up by that much,
        # never more, and never past 1.
        stats = np.concatenate(([0.0], np.geomspace(1e-6, 2e3, 2000)))
        ps = _chi_square_tail(stats, np.full(len(stats), dof))
        assert np.all(np.diff(ps) <= 1e-13 * ps[1:])
        assert np.all((ps >= 0.0) & (ps <= 1.0))

    @pytest.mark.parametrize("dof", [1, 2, 3, 5, 10, 30, 100, 299])
    def test_p_value_matches_mpmath(self, dof):
        for statistic, p_value in _pooled_chi_squares(dof):
            _assert_close_to_mpmath(p_value, statistic, dof)

    @pytest.mark.parametrize("dof", [1, 2, 3, 5, 10, 30, 100, 299])
    def test_p_value_equals_scipy_stats(self, dof):
        # Within 1e-9 relative, not bit for bit: the two take the tail from
        # different series, and p's condition number is about x/2.
        from scipy.stats import chi2

        for statistic, p_value in _pooled_chi_squares(dof):
            assert p_value == pytest.approx(float(chi2.sf(statistic, dof)), rel=1e-9, abs=1e-300)


def _pooled_chi_squares(dof: int) -> list[tuple[float, float]]:
    """(statistic, p-value) of dof + 1 bins of expected count 20, pulled further apart.

    The observed counts are shifted by +d, -d alternately, so the statistic
    grows like d squared.
    """
    expected = np.full(dof + 1, 20.0)
    signs = np.where(np.arange(dof + 1) % 2 == 0, 1.0, -1.0)
    found = []
    for d in (0.0, 0.5, 1.0, 3.0, 6.0, 12.0, 19.0):
        [(statistic, got_dof, p_value)] = _chi_squares(
            expected + d * signs, expected, np.array([0]), np.array([dof + 1])
        )
        assert got_dof == dof
        found.append((statistic, p_value))
    return found


# Bin values below the floor of 5, at or past it, zero, and past 1e154, where
# a squared deviation overflows; and rarely negative or nan, where a bin at
# the floor can join a pool without closing it.
_bin_values = st.one_of(
    st.floats(0.0, 4.99),
    st.floats(5.0, 1e3),
    st.sampled_from([0.0, 5.0, 4.999999999999999, 2.5]),
    st.floats(1e154, 1e300),
    st.sampled_from([-1.0, -7.5, math.nan, math.inf]),
)
_chi_rows = st.lists(
    st.lists(st.tuples(_bin_values, _bin_values), min_size=1, max_size=25), min_size=1, max_size=6
)


def _same_chi_squares(rows: list[list[tuple[float, float]]]) -> None:
    """``_chi_squares`` of the rows laid end to end equals the per-row reference, repr for repr."""
    lengths = np.array([len(row) for row in rows])
    starts = np.cumsum(lengths) - lengths
    observed = np.array([o for row in rows for o, _ in row])
    expected = np.array([e for row in rows for _, e in row])
    with np.errstate(all="ignore"):
        got = _chi_squares(observed, expected, starts, lengths)
        want = reference_chi_squares(observed, expected, starts, lengths)
    assert repr(got) == repr(want)


class TestChiSquarePooling:
    """The pooling kernel equals the sequential per-row pooling bit for bit."""

    @pytest.mark.parametrize(
        "row",
        [
            [(1.0, 1.0), (2.0, 0.5), (0.0, 3.0)],  # every bin below the floor
            [(3.0, 6.0), (0.0, 0.0), (8.0, 7.0), (4.0, 5.0)],  # a zero expected bin
            [(1e160, 6.0), (2.0, 9.0), (3e200, 1e170)],  # counts past 1e154
            [(4.0, 9.0)],  # a single bin
            [(7.0, 8.0), (1.0, 2.0), (0.5, 1.5), (9.0, 6.0), (2.0, 12.0)],  # a small run between big bins
            [(1.0, 1.0), (2.0, 2.0), (9.0, 6.0), (1.0, 3.0), (4.0, 4.0)],  # a remainder joins the last pool
            [(1.0, 4.0), (6.0, 6.0), (8.0, 7.0)],  # a remainder joins a bin that stood alone
            [(2.0, 1.0), (0.0, 4.0), (3.0, 2.0), (5.0, 9.0)],  # the walk empties on the bin at the floor
            [(1.0, 9.0), (6.0, 6.0), (2.0, math.nan), (8.0, 7.0), (3.0, 5.0)],  # nan: bins at the floor join it
            [(1.0, 9.0), (6.0, 6.0), (2.0, -4.0), (8.0, 7.0), (3.0, 5.0)],  # a negative pool
        ],
    )
    def test_named_rows(self, row):
        _same_chi_squares([row])
        _same_chi_squares([row, row[::-1], [(1.0, 2.0)], row])

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(rows=_chi_rows)
    def test_rows_equal_the_sequential_pooling(self, rows):
        _same_chi_squares(rows)


class TestPowerLawFit:
    def test_exact_power_law(self):
        x = np.linspace(1.0, 9.0, 12)
        y = x**-0.6
        exponent, prefactor, fit = power_law_fit(x, y)
        assert exponent == pytest.approx(-0.6)
        assert prefactor == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_y_gives_zero_exponent(self):
        exponent, prefactor, _ = power_law_fit([1, 2, 3, 4], [7, 7, 7, 7])
        assert exponent == 0.0
        assert prefactor == pytest.approx(7.0)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError):
            power_law_fit([1, 2, 3], [1, -2, 3])
        with pytest.raises(ValueError):
            power_law_fit([0, 2, 3], [1, 2, 3])

    def test_noisy_recovery(self):
        rng = np.random.default_rng(7)
        qs = np.exp(rng.uniform(np.log(2e-4), np.log(5e-3), size=24))
        rates = 3.0 * qs**-0.6 * np.exp(rng.normal(0.0, 0.2, size=24))
        exponent, _, _ = power_law_fit(qs, rates)
        assert exponent == pytest.approx(-0.6, abs=0.15)


class TestClassifyRelativeCumulativeness:
    def test_points_on_line_are_high(self):
        points = [(n, 2.0 * n**0.5) for n in (100.0, 400.0, 900.0)]
        labels, (exponent, prefactor, _) = classify_relative_cumulativeness(points)
        assert labels == ["high", "high", "high"]
        assert exponent == pytest.approx(0.5)
        assert prefactor == pytest.approx(2.0)

    def test_doubled_point_is_high(self):
        points = [(100.0, 1.0), (400.0, 2.0), (900.0, 3.0), (400.0, 4.0)]
        labels, _ = classify_relative_cumulativeness(points)
        assert labels[3] == "high"

    def test_two_cluster_fixture(self):
        rng = np.random.default_rng(5)
        ns = np.exp(rng.uniform(np.log(500), np.log(5000), size=12))
        base = 0.05 * ns**0.4
        points = [(float(n), float(b * 3.0)) for n, b in zip(ns[:6], base[:6])]
        points += [(float(n), float(b / 3.0)) for n, b in zip(ns[6:], base[6:])]
        labels, _ = classify_relative_cumulativeness(points)
        assert labels == ["high"] * 6 + ["low"] * 6

    def test_order_invariance(self):
        points = [(100.0, 1.0), (400.0, 5.0), (900.0, 2.0), (1600.0, 9.0)]
        labels, _ = classify_relative_cumulativeness(points)
        shuffled = [points[2], points[0], points[3], points[1]]
        labels_shuffled, _ = classify_relative_cumulativeness(shuffled)
        assert labels_shuffled == [labels[2], labels[0], labels[3], labels[1]]

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            classify_relative_cumulativeness([(1.0, 1.0), (2.0, 2.0)])


class TestInventionRate:
    def test_rate_over_decade(self):
        years = [2000 + i // 10 for i in range(100)]
        g = make_graph(100, [], years=years)
        assert invention_rate(g) == 10.0

    def test_single_year(self):
        g = make_graph(7, [], years=[1999] * 7)
        assert invention_rate(g) == 7.0

    def test_small_fixture(self):
        years = [2001] * 6 + [2002] * 6 + [2003] * 6 + [2004] * 6
        g = make_graph(24, [], years=years)
        assert invention_rate(g) == 6.0

    def test_missing_years_rejected(self):
        g = make_graph(3, [], years=[2000, None, 2002])
        with pytest.raises(ValueError):
            invention_rate(g)

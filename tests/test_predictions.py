"""Closed-form model predictions and their internal consistency."""

from __future__ import annotations


import numpy as np
import pytest

from cumuldyn.core import ModelParams

from cumuldyn.growth import rho, simulate
from cumuldyn.predictions import (
    _digamma,
    analytic_ipl,
    analytic_path_counts,
    binomial_path_pmf,
    corrected_rate_a,
    corrected_rate_b,
    expected_id,
    expected_initial_count,
    harmonic_number,
    harmonic_real,
    ipl_slope,
    log_factorials,
    max_speed,
    normalized_path_dist,
    rate_predictions,
    total_paths_closed,
)

from conftest import binomial_path_dist, binomial_path_dist_np

class TestExpectedId:
    def test_evaluates_inverse_rho_minus_one(self):
        params = ModelParams(q=0.001, m1=2.0)
        assert expected_id(1000, params) == pytest.approx(2.0)

    def test_intercept_at_zero(self):
        params = ModelParams(q=0.001, m1=2.0)
        assert expected_id(0, params) == params.m0

    def test_published_coefficient_row(self):
        # Fitted nuclear-fission coefficients: q=0.0006, m0=0.65, n=3608.
        params = ModelParams(q=0.0006, m1=1.65)
        assert expected_id(3608, params) == pytest.approx(2.815, abs=5e-4)

class TestAnalyticPathCounts:
    def test_term_by_term_small_case(self):
        # f_k = r q^k C(n, k+1) with r=0.5, q=0.1, n=4.
        params = ModelParams(q=0.1, m1=2.0, r=0.5)
        dist = analytic_path_counts(4, params)
        assert dist.counts[0] == pytest.approx(2.0)
        assert dist.counts[1] == pytest.approx(0.3)
        assert dist.counts[2] == pytest.approx(0.02)
        assert dist.counts[3] == pytest.approx(0.0005)
        assert sum(dist.counts.values()) == pytest.approx(2.3205)

    def test_zero_beyond_n(self):
        params = ModelParams(q=0.1, m1=2.0, r=0.5)
        dist = analytic_path_counts(4, params)
        assert dist.mipl == 3
        assert max(dist.counts) == 3

    def test_f0_is_rn(self):
        params = ModelParams(q=0.2, m1=3.0, r=0.25)
        assert analytic_path_counts(8, params).counts[0] == pytest.approx(0.25 * 8)

    def test_total_matches_closed_form(self):
        for q, n in [(0.1, 4), (0.01, 50), (0.003, 400)]:
            params = ModelParams(q=q, m1=2.0)
            dist = analytic_path_counts(n, params)
            assert sum(dist.counts.values()) == pytest.approx(
                total_paths_closed(n, params), rel=1e-9
            )

    def test_growth_recurrence(self):
        # f_k(n+1) - f_k(n) = q * f_{k-1}(n) for 1 <= k <= n <= 200, with the
        # residual scaled by the participating counts (the raw difference
        # amplifies float cancellation by up to a factor n).
        params = ModelParams(q=0.05, m1=2.0, r=0.3)
        prev = analytic_path_counts(1, params)
        for n in range(1, 201):
            nxt = analytic_path_counts(n + 1, params)
            for k in range(1, n + 1):
                f_new = nxt.counts[k]
                f_old = prev.counts.get(k, 0.0)
                rhs = params.q * prev.counts.get(k - 1, 0.0)
                scale = max(f_new, f_old, rhs, 1e-300)
                assert abs(f_new - f_old - rhs) / scale < 1e-12
            prev = nxt

class TestTotalPathsClosed:
    def test_zero_nodes(self):
        assert total_paths_closed(0, ModelParams(q=0.1, m1=2.0)) == 0.0

    def test_small_case(self):
        assert total_paths_closed(4, ModelParams(q=0.1, m1=2.0, r=0.5)) == pytest.approx(2.3205)

    def test_small_q_limit_is_rn(self):
        params = ModelParams(q=1e-12, m1=2.0, r=0.5)
        assert total_paths_closed(1000, params) == pytest.approx(0.5 * 1000, rel=1e-6)

class TestNormalizedPathDist:
    def test_hand_evaluated_case(self):
        dist = normalized_path_dist(2, 1.0)
        assert dist[0] == pytest.approx(2 / 3)
        assert dist[1] == pytest.approx(1 / 3)

    def test_single_node(self):
        assert normalized_path_dist(1, 0.7) == {0: pytest.approx(1.0)}

    @pytest.mark.parametrize("n,q", [(5, 0.5), (50, 0.1), (500, 0.01), (3000, 0.002)])
    def test_sums_to_one(self, n, q):
        assert sum(normalized_path_dist(n, q).values()) == pytest.approx(1.0, abs=1e-12)

    def test_mean_matches_analytic_ipl(self):
        for n, q in [(10, 0.3), (100, 0.02), (2000, 0.001)]:
            dist = normalized_path_dist(n, q)
            mean = sum(k * w for k, w in dist.items())
            assert mean == pytest.approx(analytic_ipl(n, q), abs=1e-9)

class TestIplSlope:
    def test_half_at_q_one(self):
        assert ipl_slope(1.0) == 0.5

    def test_small_q_approaches_q(self):
        assert ipl_slope(1e-6) == pytest.approx(1e-6, rel=1e-5)

    def test_evaluation(self):
        assert ipl_slope(0.0014) == pytest.approx(0.0014 / 1.0014)
        assert ipl_slope(0.0014) == pytest.approx(0.001398, abs=1e-6)

class TestCorrectedRates:
    def test_linear_sequence_telescopes(self):
        c = 0.37
        seq = [c * i for i in range(1, 200)]
        q_a, p_a = corrected_rate_a(seq)
        assert q_a == pytest.approx(c)
        assert p_a == pytest.approx(c / (1 + c))

    def test_zero_sequence(self):
        q_a, p_a = corrected_rate_a([0.0] * 10)
        assert q_a == 0.0
        assert p_a == 0.0

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            corrected_rate_a([])

    def test_simulated_graph_matches_capped_expectation(self):
        # Oracle: the exact expectation of q'_a for the simulator, where the
        # i-th invention draws geometric(rho(i-1)) capped at i-1 targets, so
        # E[min(m, c)] = sum_{j=1..c} (1-rho)^j.
        params = ModelParams(q=0.0006, m1=1.65)
        n = 3600

        def capped_mean(existing: int) -> float:
            p = rho(existing, params)
            keep = 1.0 - p
            return keep * (1.0 - keep**existing) / p

        expected_q = sum(capped_mean(i - 1) / i for i in range(1, n + 1)) / n
        values = []
        for seed in range(20):
            g = simulate(params, n, seed=seed)
            values.append(corrected_rate_a(g.backlink_counts)[0])
        assert np.mean(values) == pytest.approx(expected_q, rel=0.10)

    @pytest.mark.parametrize(
        "q,m0,n,expected",
        [
            (0.0006, 0.65, 3608, 0.0022),
            (0.0005, 1.45, 9088, 0.0020),
            (0.0014, 2.42, 3979, 0.0067),
        ],
    )
    def test_parameter_based_correction_published_rows(self, q, m0, n, expected):
        _, p_b = corrected_rate_b(q, m0, n)
        assert p_b == pytest.approx(expected, abs=2e-4)

    def test_rate_predictions_assembly(self):
        g = simulate(ModelParams(q=0.01, m1=2.0), 500, seed=1)
        rates = rate_predictions(0.01, 1.0, 500, backlinks=g.backlink_counts)
        assert rates.p == ipl_slope(0.01)
        assert rates.v == 2 * rates.p
        assert rates.delta_n == 1 / rates.v
        assert rates.p_prime_a == pytest.approx(
            rates.q_prime_a / (1 + rates.q_prime_a)
        )
        assert rates.p_prime_b == pytest.approx(
            rates.q_prime_b / (1 + rates.q_prime_b)
        )

    def test_consistency_of_both_corrections_on_simulated_data(self):
        # Both corrections estimate the same running average, so they land
        # close to one another; the gap is the early-prefix cap on draws,
        # which only the data-based estimate sees.
        params = ModelParams(q=0.002, m1=3.0)
        a_vals = []
        for seed in range(20):
            g = simulate(params, 3000, seed=seed)
            a_vals.append(corrected_rate_a(g.backlink_counts)[1])
        p_b = corrected_rate_b(params.q, params.m0, 3000)[1]
        assert np.mean(a_vals) == pytest.approx(p_b, rel=0.20)

class TestBinomialPathDist:
    def test_hand_evaluated_case(self):
        dist = binomial_path_dist(2)
        assert dist[0] == pytest.approx(2 / 3)
        assert dist[1] == pytest.approx(1 / 3)

    def test_single_point(self):
        assert binomial_path_dist(1) == {0: pytest.approx(1.0)}

    @pytest.mark.parametrize("n_prime", [2, 7, 40, 300])
    def test_sums_to_one(self, n_prime):
        assert sum(binomial_path_dist(n_prime).values()) == pytest.approx(1.0, abs=1e-12)

    def test_pmf_is_the_normalized_dist_at_q_one(self):
        for n_prime in range(1, 400):
            expected = list(normalized_path_dist(n_prime, 1.0).values())
            assert binomial_path_pmf(n_prime).tolist() == expected

class TestBinomialPathDistNP:
    def test_integer_argument_matches_plain_form(self):
        direct = binomial_path_dist(2)
        via_np = binomial_path_dist_np(2, 0.5)
        assert set(direct) == set(via_np)
        for k in direct:
            assert via_np[k] == pytest.approx(direct[k], rel=1e-12)

    def test_larger_integer_argument(self):
        direct = binomial_path_dist(18)
        via_np = binomial_path_dist_np(3000, 0.003)  # 2pn = 18
        for k in direct:
            assert via_np[k] == pytest.approx(direct[k], rel=1e-9)

    def test_mode_location_near_integer_case(self):
        via_np = binomial_path_dist_np(3000, 0.003)
        direct = binomial_path_dist(18)
        mode_np = max(via_np, key=via_np.get)
        mode_direct = max(direct, key=direct.get)
        assert abs(mode_np - mode_direct) <= 1

    @pytest.mark.parametrize("n,p", [(1000, 0.0031), (777, 0.0127), (50, 0.11)])
    def test_non_integer_argument_sums_to_one(self, n, p):
        assert sum(binomial_path_dist_np(n, p).values()) == pytest.approx(1.0, abs=1e-9)

class TestMaxSpeed:
    def test_half_gives_unit_speed(self):
        assert max_speed(0.5) == (1.0, 1.0)

    def test_evaluation(self):
        v, delta_n = max_speed(0.0029)
        assert v == pytest.approx(0.0058)
        assert delta_n == pytest.approx(1 / 0.0058)

    def test_small_q_interval_limit(self):
        # delta_n -> 1/(2q) as q -> 0.
        q = 1e-4
        _, delta_n = max_speed(ipl_slope(q))
        assert delta_n == pytest.approx(1 / (2 * q), rel=1e-3)

class TestExpectedInitialCount:
    def test_small_qn_approximation(self):
        params = ModelParams(q=1e-5, m1=2.0)
        exact, approx = expected_initial_count(1000, params)
        assert approx == pytest.approx(498.75, abs=0.01)
        assert approx == pytest.approx(1000 / 2.0, rel=0.01)

    def test_exact_close_to_approx_when_m1_over_q_large(self):
        for q, m1, n in [(1e-4, 2.0, 5000), (1e-3, 3.0, 2000), (5e-3, 1.5, 800)]:
            params = ModelParams(q=q, m1=m1)
            exact, approx = expected_initial_count(n, params)
            assert m1 / q > 100
            assert exact == pytest.approx(approx, rel=0.02)

    def test_r_approximation(self):
        assert ModelParams(q=0.01, m1=2.0).r == 0.5  # m0 = 1 gives r = 1/2

class TestHarmonics:
    def test_small_values(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)

    def test_asymptotic_branch_continuous(self):
        exact_at_limit = harmonic_number(1_000_000)
        asymptotic = harmonic_number(1_000_001)  # first asymptotic value
        assert asymptotic == pytest.approx(exact_at_limit + 1 / 1_000_001, rel=1e-12)

    def test_real_argument_matches_integer(self):
        for n in (1, 5, 50, 1234):
            assert harmonic_real(float(n)) == pytest.approx(harmonic_number(n), rel=1e-12)

    def test_digamma_matches_scipy(self):
        from scipy.special import digamma

        ys = np.concatenate((np.geomspace(1e-3, 1e9, 400), np.linspace(0.5, 12.0, 1151)))
        for y in ys.tolist():
            # The absolute floor covers the root near 1.4616: there the
            # recurrence's cancellation leaves about 5e-16, not 1e-14 relative.
            assert _digamma(y) == pytest.approx(float(digamma(y)), rel=1e-14, abs=1e-15)


class TestLogFactorials:
    def test_matches_mpmath_at_50_digits(self):
        import mpmath

        ks = [*range(1001), *np.geomspace(1001, 10**6, 40).astype(int).tolist()]
        table = log_factorials(max(ks))
        assert table[:2].tolist() == [0.0, 0.0]
        with mpmath.workdps(50):
            for k in ks[2:]:
                exact = mpmath.loggamma(k + 1)
                assert abs((table[k] - exact) / exact) <= 1e-15, k

"""Search-process simulator: sampling law, determinism, recovered statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cumuldyn.core import ModelParams, validate_graph
from cumuldyn.fitting import fit_series, geometric_gof
from cumuldyn.growth import (
    _distinct_below,
    _uniform,
    _words,
    rho,
    sample_backlink_count,
    simulate,
)
from cumuldyn.measures import (
    backlink_distribution,
    cumulativeness_series,
    initial_fraction,
)

from conftest import reference_simulate


class TestRho:
    def test_initial_value_is_inverse_m1(self):
        assert rho(0, ModelParams(q=0.001, m1=2.0)) == 0.5

    def test_evaluates_linear_denominator(self):
        assert rho(1000, ModelParams(q=0.001, m1=2.0)) == pytest.approx(1 / 3)

    def test_tiny_q_is_effectively_constant(self):
        params = ModelParams(q=1e-12, m1=2.0)
        assert rho(10_000, params) == pytest.approx(0.5, rel=1e-7)

    def test_bounded_by_inverse_m1(self):
        params = ModelParams(q=0.01, m1=1.5)
        assert all(0 < rho(n, params) <= 1 / 1.5 for n in range(0, 5000, 97))


class TestSampleBacklinkCount:
    def test_degenerate_certain_success_always_zero(self):
        # rho = 1 cannot arise from valid ModelParams (m1 > 1), but the
        # sampler guards the inversion formula against it.
        from types import SimpleNamespace

        stub = SimpleNamespace(q=0.5, m1=1.0)  # rho(0) = 1
        rng = np.random.default_rng(0)
        assert all(sample_backlink_count(0, stub, rng) == 0 for _ in range(100))

    def test_reproducible_across_generators_with_same_seed(self):
        params = ModelParams(q=0.5, m1=2.0)  # rho(1) = 0.4
        draws_a = [
            sample_backlink_count(1, params, np.random.default_rng(123))
            for _ in range(1)
        ]
        rng_b = np.random.default_rng(123)
        draws_b = [sample_backlink_count(1, params, rng_b)]
        assert draws_a == draws_b
        rng_1 = np.random.default_rng(7)
        rng_2 = np.random.default_rng(7)
        seq_1 = [sample_backlink_count(5, params, rng_1) for _ in range(50)]
        seq_2 = [sample_backlink_count(5, params, rng_2) for _ in range(50)]
        assert seq_1 == seq_2

    def test_monte_carlo_mean_matches_geometric(self):
        # rho = 1/3 gives mean (1 - rho)/rho = 2.
        params = ModelParams(q=0.001, m1=2.0)  # rho(1000) = 1/3
        rng = np.random.default_rng(42)
        draws = np.fromiter(
            (sample_backlink_count(1000, params, rng) for _ in range(1_000_000)),
            dtype=np.int64,
        )
        assert draws.mean() == pytest.approx(2.0, abs=0.01)

    def test_zero_rho_raises(self):
        params = ModelParams(q=1e308, m1=2.0)  # q * 2 overflows, so rho(2) = 0
        assert rho(2, params) == 0.0
        with pytest.raises(ValueError, match="no finite count"):
            sample_backlink_count(2, params, np.random.default_rng(0))

    def test_distribution_is_geometric(self):
        params = ModelParams(q=0.001, m1=2.0)
        rng = np.random.default_rng(5)
        draws = [sample_backlink_count(1000, params, rng) for _ in range(200_000)]
        counts = np.bincount(draws)
        p = 1 / 3
        for m in range(5):
            expected = (1 - p) ** m * p
            assert counts[m] / len(draws) == pytest.approx(expected, rel=0.03)


class TestSimulate:
    def test_single_node(self):
        g = simulate(ModelParams(q=0.1, m1=2.0), 1, seed=0)
        assert g.n_nodes == 1
        assert g.internal_edges == ()
        assert g.backlink_counts == (0,)

    def test_same_seed_bit_identical(self):
        params = ModelParams(q=0.01, m1=2.5)
        a = simulate(params, 400, seed=99)
        b = simulate(params, 400, seed=99)
        assert a.internal_edges == b.internal_edges
        assert a.nodes == b.nodes

    def test_different_seed_differs(self):
        params = ModelParams(q=0.01, m1=2.5)
        assert (
            simulate(params, 400, seed=1).internal_edges
            != simulate(params, 400, seed=2).internal_edges
        )

    def test_output_is_valid_graph(self):
        for seed in range(5):
            g = simulate(ModelParams(q=0.05, m1=1.5), 300, seed=seed)
            assert validate_graph(g) == []

    def test_node_zero_never_links(self):
        for seed in range(10):
            g = simulate(ModelParams(q=0.5, m1=1.1), 50, seed=seed)
            assert g.backlink_counts[0] == 0

    def test_targets_distinct(self):
        g = simulate(ModelParams(q=0.9, m1=1.05), 60, seed=3)
        assert len(set(g.internal_edges)) == len(g.internal_edges)

    def test_marginal_mean_tracks_linear_need(self):
        # The latest inventions' mean link count follows q*n + m0.
        params = ModelParams(q=0.002, m1=3.0)
        means = []
        for seed in range(20):
            g = simulate(params, 5000, seed=seed)
            means.append(np.mean(g.backlink_counts[4500:]))
        assert np.mean(means) == pytest.approx(12.0, rel=0.10)

    def test_initial_fraction_small_q_limit(self):
        params = ModelParams(q=1e-5, m1=2.0)
        fracs = [
            initial_fraction(simulate(params, 1000, seed=s), 1000) for s in range(20)
        ]
        assert np.mean(fracs) == pytest.approx(0.5, rel=0.10)

    def test_measured_id_slope_is_half_q(self):
        # The id series averages a linearly growing marginal mean, so its
        # slope is q/2; pinned here so the behavior is explicit.
        params = ModelParams(q=0.002, m1=3.0)
        slopes = []
        for seed in range(10):
            series = cumulativeness_series(simulate(params, 5000, seed=seed), stride=100)
            slopes.append(fit_series(series, "id").slope)
        assert np.mean(slopes) == pytest.approx(params.q / 2, rel=0.10)

    def test_backlink_histogram_fits_geometric_prediction(self):
        # Probability-plot correlation against the geometric law with
        # parameters fitted from the id series itself.
        params = ModelParams(q=0.002, m1=3.0)
        correlations = []
        for seed in range(5):
            g = simulate(params, 3000, seed=seed)
            fit = fit_series(cumulativeness_series(g, stride=100), "id")
            fitted = ModelParams(q=fit.slope, m1=fit.intercept + 1.0)
            hists = [backlink_distribution(g, n) for n in (1000, 2000, 3000)]
            correlations.extend(geometric_gof(hists, fitted).plot_correlation)
        assert np.mean(correlations) >= 0.99

    def test_bad_node_count_rejected(self):
        with pytest.raises(ValueError):
            simulate(ModelParams(q=0.1, m1=2.0), 0, seed=1)


class TestWordStreamReplay:
    """simulate replays numpy's draws from the raw PCG64 words."""

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(
        q=st.floats(1e-6, 0.5),
        m1=st.floats(1.0, 6.0, exclude_min=True),
        n_nodes=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(q=0.3, m1=1.5, n_nodes=300, seed=1)
    @example(q=0.3, m1=1.5, n_nodes=300, seed=2**64 - 1)
    @example(q=0.9, m1=1.05, n_nodes=60, seed=3)
    @example(q=0.01, m1=1.0 + 2**-40, n_nodes=250, seed=5)
    @example(q=6e-3, m1=3.0, n_nodes=600, seed=1)
    @example(q=1e200, m1=2.0, n_nodes=40, seed=8)
    def test_graph_equals_the_generator_loop(self, q, m1, n_nodes, seed):
        params = ModelParams(q=q, m1=m1)
        assert simulate(params, n_nodes, seed) == reference_simulate(params, n_nodes, seed)

    @pytest.mark.parametrize(
        "i", [1, 2, 3, 7, 2**16 + 1, 3 * 2**30, 2**31 + 3, 2**32 - 1]
    )
    @pytest.mark.parametrize("seed", [0, 12345])
    def test_bounded_draw_replays_integers_between_uniforms(self, i, seed):
        # A uniform every few integers, so a kept high half outlives random().
        rng = np.random.default_rng(seed)
        words = _words(seed)
        half = -1
        pattern = np.random.default_rng(seed + 1).integers(0, 3, size=3000).tolist()
        for step in pattern:
            if step == 0:
                assert _uniform(next(words)) == rng.random()
            else:
                targets, half = _distinct_below(i, 1, words, half)
                assert targets == [int(rng.integers(0, i))]

    @pytest.mark.parametrize("i", [3, 7, 2**16 + 1, 2**31 + 3, 2**32 - 1])
    def test_low_bits_at_the_threshold_are_accepted(self, i):
        # For odd i, x -> x * i mod 2**32 is a bijection: pick the 32-bit draws
        # whose product's low bits are exactly the threshold and one below.
        threshold = (2**32 - i) % i
        inverse = pow(i, -1, 2**32)
        accepted = threshold * inverse % 2**32
        rejected = (threshold - 1) * inverse % 2**32
        words = iter([rejected | accepted << 32])
        assert _distinct_below(i, 1, words, -1) == ([accepted * i >> 32], -1)
        assert next(words, None) is None
        assert _distinct_below(i, 1, iter([accepted | rejected << 32]), -1) == (
            [accepted * i >> 32], rejected
        )

    def test_range_of_one_draws_nothing(self):
        assert _distinct_below(1, 1, iter(()), 5) == ([0], 5)
        assert _distinct_below(1, 1, iter(()), -1) == ([0], -1)

    def test_distinct_targets_take_repeated_draws(self):
        # Draws 1, 1, 0 of integers(0, 2): the repeat is drawn past.
        words = iter([(2**31) | (2**31) << 32, 0])
        assert _distinct_below(2, 2, words, -1) == ([0, 1], 0)

    def test_zero_rho_links_every_earlier_node(self):
        # q * i overflows to inf from i = 2, so rho is 0; the count is capped at i.
        graph = simulate(ModelParams(q=1e308, m1=2.0), 6, seed=4)
        assert graph.backlink_counts.tolist() == list(range(6))
        assert validate_graph(graph) == []

    def test_too_many_nodes_rejected(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            simulate(ModelParams(q=0.1, m1=2.0), 2**32 + 1, seed=1)

    def test_bad_seed_rejected_by_numpy(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            simulate(ModelParams(q=0.1, m1=2.0), 5, seed=-1)

"""Search-process simulator: sampling law, determinism, recovered statistics."""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cumuldyn import pcg64
from cumuldyn.core import BacklinkTable, ModelParams, validate_graph
from cumuldyn.fitting import fit_series, geometric_gof
from cumuldyn.growth import _distinct_below, _inverse_count, rho, simulate
from cumuldyn.measures import measure_checkpoints

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


# Uniforms (j - 0.5) / 2**16 for j = 1 .. 2**16: each is in (0, 1), and an
# interval of length L inside (0, 1] holds L * 2**16 of them, give or take one.
_GRID = 2**16
_UNIFORMS = [(j - 0.5) / _GRID for j in range(1, _GRID + 1)]


class TestInverseCount:
    """The inversion that turns simulate's uniform into a backward-link count."""

    def test_certain_success_counts_zero(self):
        # rho >= 1 cannot arise from valid ModelParams (m1 > 1), but the
        # inversion gives 0 there for every uniform, 1 included.
        for p in (1.0, 1.5):
            assert {_inverse_count(p, u) for u in [*_UNIFORMS[::97], 1.0]} == {0}

    def test_zero_rho_has_no_finite_count(self):
        params = ModelParams(q=1e308, m1=2.0)  # q * 2 overflows, so rho(2) = 0
        assert rho(2, params) == 0.0
        assert _inverse_count(0.0, 0.5) is None
        # A quotient past the float range has no count either.
        assert _inverse_count(5e-324, 0.5) is None

    def test_uniform_grid_follows_the_geometric_law(self):
        # Count m takes u in ((1 - p)**(m + 1), (1 - p)**m], whose length is
        # the geometric pmf (1 - p)**m * p.
        p = 1 / 3  # rho(1000) at q = 0.001, m1 = 2
        counts = np.bincount([_inverse_count(p, u) for u in _UNIFORMS])
        for m, count in enumerate(counts.tolist()):
            assert abs(count - (1 - p) ** m * p * _GRID) <= 1.0
        assert _inverse_count(p, 1.0) == 0

    def test_mean_on_a_uniform_grid_is_geometric(self):
        # rho = 1/3 gives mean (1 - rho)/rho = 2.
        draws = [_inverse_count(1 / 3, u) for u in _UNIFORMS]
        assert np.mean(draws) == pytest.approx(2.0, abs=1e-3)
        assert draws == sorted(draws, reverse=True)


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
        hists = [
            measure_checkpoints(simulate(params, 1000, seed=s), 1000)[0].backlink_dist
            for s in range(20)
        ]
        fracs = [hist.counts.get(0, 0) / 1000 for hist in hists]
        assert np.mean(fracs) == pytest.approx(0.5, rel=0.10)

    def test_measured_id_slope_is_half_q(self):
        # The id series averages a linearly growing marginal mean, so its
        # slope is q/2; pinned here so the behavior is explicit.
        params = ModelParams(q=0.002, m1=3.0)
        slopes = []
        for seed in range(10):
            checkpoints = measure_checkpoints(simulate(params, 5000, seed=seed), stride=100)
            slopes.append(fit_series([cp.point for cp in checkpoints], "id").slope)
        assert np.mean(slopes) == pytest.approx(params.q / 2, rel=0.10)

    def test_backlink_histogram_fits_geometric_prediction(self):
        # Probability-plot correlation against the geometric law with
        # parameters fitted from the id series itself.
        params = ModelParams(q=0.002, m1=3.0)
        correlations = []
        for seed in range(5):
            g = simulate(params, 3000, seed=seed)
            checkpoints = measure_checkpoints(g, stride=100)
            fit = fit_series([cp.point for cp in checkpoints], "id")
            fitted = ModelParams(q=fit.slope, m1=fit.intercept + 1.0)
            hists = [cp.backlink_dist for cp in checkpoints if cp.n % 1000 == 0]
            fits = geometric_gof(BacklinkTable.from_hists(hists), fitted)
            correlations.extend(fits.plot_correlation)
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
        stream = pcg64.words(seed)
        half = -1
        pattern = np.random.default_rng(seed + 1).integers(0, 3, size=3000).tolist()
        for step in pattern:
            if step == 0:
                assert (next(stream) >> 11) * 2.0**-53 == rng.random()
            else:
                targets, half = _distinct_below(i, 1, stream, half)
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

    def test_bad_seed_rejected(self):
        for seed, message in [
            (-1, "expected non-negative integer"),
            (-(2**70), "expected non-negative integer"),
            (1.5, "seed must be an integer"),
            (None, "seed must be an integer"),
            ("3", "seed must be an integer"),
        ]:
            with pytest.raises(ValueError, match=message):
                pcg64.words(seed)
            with pytest.raises(ValueError, match=message):
                simulate(ModelParams(q=0.1, m1=2.0), 5, seed=seed)


def _numpy_words(seed: int) -> list[int]:
    """The first 3 000 words of ``default_rng(seed)``: three blocks of ``pcg64.words``."""
    return np.random.default_rng(seed).bit_generator.random_raw(3000).tolist()


class TestWordStream:
    """pcg64.words replays numpy's SeedSequence seeding and PCG64 stream word for word."""

    @pytest.mark.parametrize(
        "seed",
        [0, 1, 2, 3, 12345, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**128 + 7, 2**200 + 3],
    )
    def test_words_equal_numpy_random_raw(self, seed):
        assert list(islice(pcg64.words(seed), 3000)) == _numpy_words(seed)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**130))
    def test_words_equal_numpy_random_raw_for_any_seed(self, seed):
        assert list(islice(pcg64.words(seed), 3000)) == _numpy_words(seed)

    def test_numpy_integer_seed_is_its_value(self):
        assert list(islice(pcg64.words(np.uint64(2**64 - 1)), 3)) == _numpy_words(2**64 - 1)[:3]

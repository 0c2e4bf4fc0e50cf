"""Path engine: pointwise indicators, exact DP, and the incremental sweep."""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cumuldyn import measures
from cumuldyn.measures import (
    backlink_distribution,
    cumulativeness_series,
    external_dependence,
    initial_fraction,
    internal_dependence,
    measure_checkpoints,
    path_length_distribution,
)

from conftest import brute_force_path_counts, make_graph, node_path_counts, random_dag


class TestInternalDependence:
    def test_worked_example(self, example_graph):
        assert internal_dependence(example_graph, 4) == 0.75

    def test_no_edges(self):
        assert internal_dependence(make_graph(5, []), 5) == 0.0

    def test_single_node(self):
        assert internal_dependence(make_graph(1, []), 1) == 0.0

    def test_prefix_counts_only_prefix_edges(self, example_graph):
        assert internal_dependence(example_graph, 2) == 0.0
        assert internal_dependence(example_graph, 3) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("n", [0, 5])
    def test_out_of_range(self, example_graph, n):
        with pytest.raises(ValueError):
            internal_dependence(example_graph, n)


class TestExternalDependence:
    def test_mean_of_counts(self):
        g = make_graph(3, [], external=[2, 0, 1])
        assert external_dependence(g, 3) == 1.0

    def test_all_zero(self):
        assert external_dependence(make_graph(3, []), 3) == 0.0

    def test_single_node(self):
        g = make_graph(1, [], external=[5])
        assert external_dependence(g, 1) == 5.0


class TestInitialFraction:
    def test_worked_example(self, example_graph):
        assert initial_fraction(example_graph, 4) == 0.5

    def test_no_edges(self):
        assert initial_fraction(make_graph(7, []), 7) == 1.0

    def test_complete_chain(self):
        n = 6
        g = make_graph(n, [(i, i - 1) for i in range(1, n)])
        assert initial_fraction(g, n) == 1 / n


class TestPathLengthDistribution:
    def test_worked_example(self, example_graph):
        # Paths: (a), (b), (a,c), (a,d), (a,c,d)
        dist = path_length_distribution(example_graph, 4)
        assert dist.counts == {0: 2, 1: 2, 2: 1}
        assert dist.ipl == pytest.approx(0.8)
        assert dist.mipl == 2
        oracle = brute_force_path_counts(example_graph, 4)
        assert dist.counts == oracle

    def test_no_edges_all_initial(self):
        dist = path_length_distribution(make_graph(6, []), 6)
        assert dist.counts == {0: 6}
        assert dist.ipl == 0.0
        assert dist.mipl == 0

    def test_chain(self):
        n = 8
        g = make_graph(n, [(i, i - 1) for i in range(1, n)])
        dist = path_length_distribution(g, n)
        assert dist.counts == {k: 1 for k in range(n)}
        assert dist.ipl == pytest.approx((n - 1) / 2)
        assert dist.mipl == n - 1

    def test_normalization_and_mean_invariants(self, example_graph):
        dist = path_length_distribution(example_graph, 4)
        assert sum(dist.normalized.values()) == pytest.approx(1.0, abs=1e-9)
        assert dist.ipl == pytest.approx(
            sum(k * w for k, w in dist.normalized.items())
        )
        assert all(k <= dist.mipl for k, c in dist.counts.items() if c > 0)

    def test_matches_brute_force_on_random_dags(self):
        rng = np.random.default_rng(20240401)
        for _ in range(200):
            g = random_dag(rng)
            n = g.n_nodes
            dist = path_length_distribution(g, n)
            oracle = brute_force_path_counts(g, n)
            assert dist.counts == oracle

    def test_prefix_restriction_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_dag(rng)
            for n in range(1, g.n_nodes + 1):
                assert path_length_distribution(g, n).counts == brute_force_path_counts(g, n)

    def test_float_mode_matches_exact(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            g = random_dag(rng)
            n = g.n_nodes
            exact = path_length_distribution(g, n, mode="exact")
            floating = path_length_distribution(g, n, mode="float")
            assert floating.mipl == exact.mipl
            assert floating.ipl == pytest.approx(exact.ipl, rel=1e-9)
            for k, w in exact.normalized.items():
                assert floating.normalized[k] == pytest.approx(w, rel=1e-9, abs=1e-12)
            for k, c in exact.counts.items():
                assert floating.counts[k] == pytest.approx(c, rel=1e-9)

    def test_unknown_mode_rejected(self, example_graph):
        with pytest.raises(ValueError):
            path_length_distribution(example_graph, 4, mode="noisy")


class TestNodePathVectors:
    def test_initial_node_vector(self, example_graph):
        vectors = node_path_counts(example_graph, 4)
        assert vectors[0] == {0: 1}
        assert vectors[1] == {0: 1}

    def test_recurrence_on_random_dags(self):
        # Entry k of a citing node equals the sum of cited entries at k-1.
        rng = np.random.default_rng(3)
        for _ in range(30):
            g = random_dag(rng)
            vectors = node_path_counts(g, g.n_nodes)
            for i, cited in enumerate(g.backward_lists):
                vec = vectors[i]
                if not cited:
                    assert vec == {0: 1}
                    continue
                ks = set(vec) | {k + 1 for j in cited for k in vectors[j]}
                for k in ks:
                    assert vec.get(k, 0) == sum(vectors[j].get(k - 1, 0) for j in cited)


class TestCumulativenessSeries:
    def test_worked_example_stride_2(self, example_graph):
        series = cumulativeness_series(example_graph, stride=2)
        assert [cp.n for cp in series] == [2, 4]
        first, last = series
        assert (first.id, first.ipl) == (0.0, 0.0)
        assert last.id == 0.75
        assert last.ipl == pytest.approx(0.8)

    def test_stride_larger_than_graph_clamps(self, example_graph):
        series = cumulativeness_series(example_graph, stride=10)
        assert [cp.n for cp in series] == [4]

    def test_no_edge_graph(self):
        series = cumulativeness_series(make_graph(9, []), stride=3)
        assert all(cp.id == 0.0 and cp.ipl == 0.0 for cp in series)

    def test_incremental_equals_pointwise(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_dag(rng)
            series = cumulativeness_series(g, stride=2)
            for cp in series:
                dist = path_length_distribution(g, cp.n)
                assert cp.ipl == dist.ipl
                assert cp.mipl == dist.mipl
                assert cp.id == internal_dependence(g, cp.n)
                assert cp.ed == external_dependence(g, cp.n)

    def test_monotone_mipl_and_total(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_dag(rng)
            series = measure_checkpoints(g, stride=1)
            mipls = [cp.path_dist.mipl for cp in series]
            totals = [cp.path_dist.total_paths for cp in series]
            assert mipls == sorted(mipls)
            assert totals == sorted(totals)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            cumulativeness_series(make_graph(0, []), stride=1)

    def test_bad_stride_rejected(self, example_graph):
        with pytest.raises(ValueError):
            cumulativeness_series(example_graph, stride=0)


class TestBacklinkDistribution:
    def test_histogram_of_prefix(self, example_graph):
        hist = backlink_distribution(example_graph, 4)
        assert hist.counts == {0: 2, 1: 1, 2: 1}
        assert hist.mean == internal_dependence(example_graph, 4)

    def test_prefix_histogram(self, example_graph):
        assert backlink_distribution(example_graph, 2).counts == {0: 2}


@st.composite
def backward_dags(draw, max_nodes: int = 13):
    """A graph whose node i cites any subset of the nodes before it."""
    n = draw(st.integers(1, max_nodes))
    edges = [
        (i, j) for i in range(1, n) for j in sorted(draw(st.sets(st.integers(0, i - 1))))
    ]
    return make_graph(n, edges)


# Derandomized and bounded, so every run checks the same few hundred graphs.
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def assert_float_matches_exact(floating, exact):
    assert floating.mipl == exact.mipl
    assert floating.ipl == pytest.approx(exact.ipl, rel=1e-9)
    assert floating.counts.keys() == exact.counts.keys()
    for k, c in exact.counts.items():
        # Within 1e-9 relative on the count is within 1e-9 absolute on its log.
        assert floating.log_counts[k] == pytest.approx(math.log(c), rel=0, abs=1e-9)
        assert floating.normalized[k] == pytest.approx(exact.normalized[k], rel=1e-9)


class TestPathEngineProperties:
    @PROPERTY
    @given(graph=backward_dags(), data=st.data())
    def test_exact_equals_brute_force(self, graph, data):
        n = data.draw(st.integers(1, graph.n_nodes))
        assert path_length_distribution(graph, n, mode="exact").counts == (
            brute_force_path_counts(graph, n)
        )

    @PROPERTY
    @given(graph=backward_dags())
    def test_float_within_1e9_of_exact(self, graph):
        n = graph.n_nodes
        assert_float_matches_exact(
            path_length_distribution(graph, n, mode="float"),
            path_length_distribution(graph, n, mode="exact"),
        )

    @PROPERTY
    @given(
        graph=backward_dags(), stride=st.integers(1, 5), mode=st.sampled_from(["exact", "float"])
    )
    def test_every_checkpoint_equals_pointwise(self, graph, stride, mode):
        for cp in measure_checkpoints(graph, stride, mode):
            assert cp.path_dist == path_length_distribution(graph, cp.n, mode)
            assert cp.backlink_dist == backlink_distribution(graph, cp.n)
            assert cp.id == internal_dependence(graph, cp.n)
            assert cp.ed == external_dependence(graph, cp.n)

    def test_float_matches_exact_past_the_float_range(self):
        # Up to node 1600, node i cites i-1 and i-2, so path counts grow like
        # Fibonacci numbers and pass the float range.  The nodes after it
        # form a chain that reaches those long levels but whose far end has
        # no path of their length: zero counts beside overflowing ones.
        n, fib = 1800, 1600
        graph = make_graph(
            n, [(i, i - d) for i in range(1, n) for d in (1, 2) if i >= d and (d == 1 or i < fib)]
        )
        floating = measure_checkpoints(graph, 100, mode="float")
        exact = measure_checkpoints(graph, 100, mode="exact")
        assert [cp.n for cp in floating] == [cp.n for cp in exact]
        for f, e in zip(floating, exact):
            assert_float_matches_exact(f.path_dist, e.path_dist)
        assert any(math.isinf(c) for c in floating[-1].path_dist.counts.values())


def two_predecessor_dag(n: int):
    """Node i cites i-1 and i-2: a length-k path ends at node i in C(k, i-k) ways."""
    return make_graph(n, [(i, i - d) for i in range(1, n) for d in (1, 2) if i >= d])


class TestArithmeticLadder:
    N = 120  # level k's total is 2^k while 2k < N, so it reaches 2^53 at k = 53

    def test_level_totals_cross_the_exact_float_range(self):
        graph = two_predecessor_dag(self.N)
        escalated = [e for _, _, e in measures._path_levels(graph, self.N, "exact")]
        assert escalated.index(True) == 53
        assert all(escalated[53:])
        assert not any(e for _, _, e in measures._path_levels(graph, self.N, "float"))

    @pytest.mark.parametrize("stride", [1, 7, 40])
    def test_exact_equals_closed_form_across_the_switch(self, stride):
        graph = two_predecessor_dag(self.N)
        for cp in measure_checkpoints(graph, stride, "exact"):
            expected = {
                k: sum(math.comb(k, i - k) for i in range(k, cp.n)) for k in range(cp.n)
            }
            expected = {k: c for k, c in expected.items() if c}
            assert cp.path_dist.counts == expected
            assert all(type(c) is int for c in cp.path_dist.counts.values())

    def test_float_within_1e9_of_exact_past_2_53(self):
        graph = two_predecessor_dag(self.N)
        floating = measure_checkpoints(graph, 7, "float")
        for f, e in zip(floating, measure_checkpoints(graph, 7, "exact"), strict=True):
            assert_float_matches_exact(f.path_dist, e.path_dist)

    def test_node_vectors_follow_the_recurrence_across_the_switch(self):
        vectors = node_path_counts(two_predecessor_dag(self.N), self.N)
        assert vectors[0] == {0: 1}
        assert vectors[1] == {1: 1}
        for i in range(2, self.N):
            ks = set(vectors[i]) | {k + 1 for j in (i - 1, i - 2) for k in vectors[j]}
            for k in ks:
                assert vectors[i].get(k, 0) == (
                    vectors[i - 1].get(k - 1, 0) + vectors[i - 2].get(k - 1, 0)
                )
            assert vectors[i] == {k: math.comb(k, i - k) for k in range((i + 1) // 2, i + 1)}
        assert max(max(v.values()) for v in vectors) > 2**53

    @PROPERTY
    @given(graph=backward_dags())
    def test_float_equals_exact_bit_for_bit_below_2_53(self, graph):
        n = graph.n_nodes
        exact = path_length_distribution(graph, n, mode="exact")
        assume(sum(k * c for k, c in exact.counts.items()) < 2**53)
        floating = path_length_distribution(graph, n, mode="float")
        assert floating.counts == exact.counts
        assert floating.normalized == exact.normalized
        assert floating.ipl == exact.ipl


@contextmanager
def escalation_bounds(bound: float):
    """Run the ladder with both escalation bounds at ``bound``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_INT_BOUND", bound)
        patch.setattr(measures, "_LOG_BOUND", bound)
        yield


# Level totals of these graphs run from 1 to a few thousand, so each bound
# leaves some graphs in float64, escalates others at level 1 and the rest
# part-way.
LOW_BOUNDS = st.sampled_from([1.0, 3.0, 10.0, 50.0])


class TestPathEnginePropertiesEscalated:
    """The path-engine oracles with the Python-int and log rungs reached early."""

    @PROPERTY
    @given(graph=backward_dags(), bound=LOW_BOUNDS, data=st.data())
    def test_exact_equals_brute_force(self, graph, bound, data):
        n = data.draw(st.integers(1, graph.n_nodes))
        with escalation_bounds(bound):
            counts = path_length_distribution(graph, n, mode="exact").counts
        assert counts == brute_force_path_counts(graph, n)
        assert all(type(c) is int for c in counts.values())

    @PROPERTY
    @given(graph=backward_dags(), bound=LOW_BOUNDS)
    def test_float_within_1e9_of_exact(self, graph, bound):
        n = graph.n_nodes
        with escalation_bounds(bound):
            assert_float_matches_exact(
                path_length_distribution(graph, n, mode="float"),
                path_length_distribution(graph, n, mode="exact"),
            )

    @PROPERTY
    @given(graph=backward_dags(), stride=st.integers(1, 5), bound=LOW_BOUNDS)
    def test_every_checkpoint_equals_pointwise(self, graph, stride, bound):
        # A prefix's levels may escalate later on their own than within the
        # whole graph, so float checkpoints match within 1e-9, not bit for bit.
        with escalation_bounds(bound):
            exact = measure_checkpoints(graph, stride, "exact")
            floating = measure_checkpoints(graph, stride, "float")
            for e, f in zip(exact, floating, strict=True):
                pointwise = path_length_distribution(graph, e.n, "exact")
                assert e.path_dist == pointwise
                assert_float_matches_exact(f.path_dist, pointwise)
                assert e.backlink_dist == f.backlink_dist == backlink_distribution(graph, e.n)

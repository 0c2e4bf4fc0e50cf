"""Path engine: the indicators of one sweep, the exact DP, and their oracles."""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cumuldyn import measures
from cumuldyn.measures import measure_checkpoints, measure_series

from conftest import (
    brute_force_path_counts,
    make_graph,
    node_path_counts,
    random_dag,
    truncated,
)


def measure_alone(graph, n, mode="auto"):
    """The one checkpoint of the first n nodes of ``graph``, measured alone."""
    (checkpoint,) = measure_checkpoints(truncated(graph, n), n, mode)
    return checkpoint


class TestInternalDependence:
    def test_worked_example(self, example_graph):
        assert measure_checkpoints(example_graph, 4)[0].id == 0.75

    def test_no_edges(self):
        assert measure_checkpoints(make_graph(5, []), 5)[0].id == 0.0

    def test_single_node(self):
        assert measure_checkpoints(make_graph(1, []), 1)[0].id == 0.0

    def test_prefix_counts_only_prefix_edges(self, example_graph):
        ids = [cp.id for cp in measure_checkpoints(example_graph, 1)]
        assert ids[1] == 0.0
        assert ids[2] == pytest.approx(1 / 3)


class TestExternalDependence:
    def test_mean_of_counts(self):
        g = make_graph(3, [], external=[2, 0, 1])
        assert measure_checkpoints(g, 3)[0].ed == 1.0

    def test_all_zero(self):
        assert measure_checkpoints(make_graph(3, []), 3)[0].ed == 0.0

    def test_single_node(self):
        g = make_graph(1, [], external=[5])
        assert measure_checkpoints(g, 1)[0].ed == 5.0


def initial_fraction(checkpoint) -> float:
    """The share of the checkpoint's nodes with no internal backward link."""
    return checkpoint.backlink_dist.counts.get(0, 0) / checkpoint.n


class TestInitialFraction:
    def test_worked_example(self, example_graph):
        assert initial_fraction(measure_checkpoints(example_graph, 4)[0]) == 0.5

    def test_no_edges(self):
        assert initial_fraction(measure_checkpoints(make_graph(7, []), 7)[0]) == 1.0

    def test_complete_chain(self):
        n = 6
        g = make_graph(n, [(i, i - 1) for i in range(1, n)])
        assert initial_fraction(measure_checkpoints(g, n)[0]) == 1 / n


class TestPathLengthDistribution:
    def test_worked_example(self, example_graph):
        # Paths: (a), (b), (a,c), (a,d), (a,c,d)
        dist = measure_checkpoints(example_graph, 4)[0].path_dist
        assert dist.counts == {0: 2, 1: 2, 2: 1}
        assert dist.ipl == pytest.approx(0.8)
        assert dist.mipl == 2
        oracle = brute_force_path_counts(example_graph, 4)
        assert dist.counts == oracle

    def test_no_edges_all_initial(self):
        dist = measure_checkpoints(make_graph(6, []), 6)[0].path_dist
        assert dist.counts == {0: 6}
        assert dist.ipl == 0.0
        assert dist.mipl == 0

    def test_chain(self):
        n = 8
        g = make_graph(n, [(i, i - 1) for i in range(1, n)])
        dist = measure_checkpoints(g, n)[0].path_dist
        assert dist.counts == {k: 1 for k in range(n)}
        assert dist.ipl == pytest.approx((n - 1) / 2)
        assert dist.mipl == n - 1

    def test_normalization_and_mean_invariants(self, example_graph):
        dist = measure_checkpoints(example_graph, 4)[0].path_dist
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
            dist = measure_checkpoints(g, n)[0].path_dist
            oracle = brute_force_path_counts(g, n)
            assert dist.counts == oracle

    def test_prefix_restriction_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_dag(rng)
            for cp in measure_checkpoints(g, 1):
                assert cp.path_dist.counts == brute_force_path_counts(g, cp.n)

    def test_float_mode_matches_exact(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            g = random_dag(rng)
            n = g.n_nodes
            exact = measure_checkpoints(g, n, mode="exact")[0].path_dist
            floating = measure_checkpoints(g, n, mode="float")[0].path_dist
            assert floating.mipl == exact.mipl
            assert floating.ipl == pytest.approx(exact.ipl, rel=1e-9)
            for k, w in exact.normalized.items():
                assert floating.normalized[k] == pytest.approx(w, rel=1e-9, abs=1e-12)
            for k, c in exact.counts.items():
                assert floating.counts[k] == pytest.approx(c, rel=1e-9)

    def test_unknown_mode_rejected(self, example_graph):
        with pytest.raises(ValueError):
            measure_checkpoints(example_graph, 4, mode="noisy")


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


def series(graph, stride, mode="auto"):
    return [cp.point for cp in measure_checkpoints(graph, stride, mode)]


class TestCumulativenessSeries:
    def test_worked_example_stride_2(self, example_graph):
        points = series(example_graph, stride=2)
        assert [cp.n for cp in points] == [2, 4]
        first, last = points
        assert (first.id, first.ipl) == (0.0, 0.0)
        assert last.id == 0.75
        assert last.ipl == pytest.approx(0.8)

    def test_stride_larger_than_graph_clamps(self, example_graph):
        assert [cp.n for cp in series(example_graph, stride=10)] == [4]

    def test_no_edge_graph(self):
        points = series(make_graph(9, []), stride=3)
        assert all(cp.id == 0.0 and cp.ipl == 0.0 for cp in points)

    def test_incremental_equals_pointwise(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_dag(rng)
            for point in series(g, stride=2):
                assert point == measure_alone(g, point.n).point

    def test_monotone_mipl_and_total(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_dag(rng)
            checkpoints = measure_checkpoints(g, stride=1)
            mipls = [cp.path_dist.mipl for cp in checkpoints]
            totals = [sum(cp.path_dist.counts.values()) for cp in checkpoints]
            assert mipls == sorted(mipls)
            assert totals == sorted(totals)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            measure_checkpoints(make_graph(0, []), stride=1)

    def test_bad_stride_rejected(self, example_graph):
        with pytest.raises(ValueError):
            measure_checkpoints(example_graph, stride=0)


class TestBacklinkDistribution:
    def test_histogram_of_prefix(self, example_graph):
        (cp,) = measure_checkpoints(example_graph, 4)
        assert cp.backlink_dist.counts == {0: 2, 1: 1, 2: 1}
        assert sum(m * c for m, c in cp.backlink_dist.counts.items()) / cp.n == cp.id

    def test_prefix_histogram(self, example_graph):
        assert measure_checkpoints(example_graph, 2)[0].backlink_dist.counts == {0: 2}


@st.composite
def backward_dags(draw, max_nodes: int = 13):
    """A graph whose node i cites any subset of the nodes before it, and a few
    external links."""
    n = draw(st.integers(1, max_nodes))
    edges = [
        (i, j) for i in range(1, n) for j in sorted(draw(st.sets(st.integers(0, i - 1))))
    ]
    return make_graph(n, edges, draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))


# Derandomized and bounded, so every run checks the same few hundred graphs.
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def assert_prefix_sums(checkpoint, graph):
    """``checkpoint``'s id, ed and backlink histogram, against plain numpy sums
    over the first ``checkpoint.n`` nodes of ``graph``."""
    n, prefix = checkpoint.n, truncated(graph, checkpoint.n)
    assert checkpoint.id == prefix.indices.size / n
    assert checkpoint.ed == int(prefix.external_backlink_counts.sum()) / n
    assert checkpoint.backlink_dist.counts == Counter(np.diff(prefix.indptr).tolist())


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
        assert measure_checkpoints(graph, n, mode="exact")[0].path_dist.counts == (
            brute_force_path_counts(graph, n)
        )

    @PROPERTY
    @given(graph=backward_dags())
    def test_float_within_1e9_of_exact(self, graph):
        n = graph.n_nodes
        assert_float_matches_exact(
            measure_checkpoints(graph, n, mode="float")[0].path_dist,
            measure_checkpoints(graph, n, mode="exact")[0].path_dist,
        )

    @PROPERTY
    @given(
        graph=backward_dags(), stride=st.integers(1, 5), mode=st.sampled_from(["exact", "float"])
    )
    def test_every_checkpoint_equals_pointwise(self, graph, stride, mode):
        for cp in measure_checkpoints(graph, stride, mode):
            assert cp == measure_alone(graph, cp.n, mode)
            assert_prefix_sums(cp, graph)
            if mode == "exact":
                assert cp.path_dist.counts == brute_force_path_counts(graph, cp.n)

    @PROPERTY
    @given(
        graph=backward_dags(), stride=st.integers(1, 5), mode=st.sampled_from(["exact", "float"])
    )
    def test_mipl_is_the_longest_path_of_each_prefix(self, graph, stride, mode):
        for cp in measure_checkpoints(graph, stride, mode):
            assert cp.path_dist.mipl == max(brute_force_path_counts(graph, cp.n))

    def test_float_matches_exact_past_the_float_range(self):
        graph = fibonacci_chain()
        floating = measure_checkpoints(graph, 100, mode="float")
        exact = measure_checkpoints(graph, 100, mode="exact")
        assert [cp.n for cp in floating] == [cp.n for cp in exact]
        for f, e in zip(floating, exact):
            assert_float_matches_exact(f.path_dist, e.path_dist)
        assert any(math.isinf(c) for c in floating[-1].path_dist.counts.values())


def fibonacci_chain():
    """Up to node 1600, node i cites i-1 and i-2, so path counts grow like
    Fibonacci numbers and pass the float range.  The nodes after it form a
    chain that reaches those long levels but whose far end has no path of
    their length: zero counts beside overflowing ones.
    """
    n, fib = 1800, 1600
    return make_graph(
        n, [(i, i - d) for i in range(1, n) for d in (1, 2) if i >= d and (d == 1 or i < fib)]
    )


# i0 <- x1 <- ... <- x4 <- h is a chain; j cites i0 and h, so its paths have
# lengths 1 and 6, and g cites j (lengths 2 and 7): no path of the lengths
# between, although both nodes lie deeper.
GAPPED = make_graph(8, [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 0), (6, 5), (7, 6)])


def longest_paths(graph, n: int) -> list[int]:
    """The longest path ending at each of the first n nodes, by the plain recurrence."""
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    depth: list[int] = []
    for i in range(n):
        depth.append(max((depth[j] + 1 for j in indices[indptr[i] : indptr[i + 1]]), default=0))
    return depth


@st.composite
def long_dags(draw):
    """Up to 1 000 nodes, each citing maybe its predecessor, a few random
    earlier nodes and a few of the last 40, so longest paths run both inside
    and across the blocks of :func:`measures._depths`.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 1000))
    chain, recent = rng.uniform(0, 1, 2)
    edges = set()
    for i in range(1, n):
        if rng.random() < chain:
            edges.add((i, i - 1))
        edges.update((i, int(j)) for j in rng.integers(0, i, rng.poisson(1.5)))
        edges.update((i, int(j)) for j in rng.integers(max(0, i - 40), i, rng.poisson(recent)))
    return make_graph(n, sorted(edges))


class TestDepthOrder:
    """The longest paths the level loop sorts its edges by."""

    @PROPERTY
    @given(graph=long_dags(), data=st.data())
    def test_depths_follow_the_recurrence(self, graph, data):
        n = data.draw(st.integers(1, graph.n_nodes))
        assert measures._depths(graph, n).tolist() == longest_paths(graph, n)

    def test_gapped_lengths(self):
        assert node_path_counts(GAPPED, 8)[6:] == [{1: 1, 6: 1}, {2: 1, 7: 1}]
        assert measures._depths(GAPPED, 8).tolist() == [0, 1, 2, 3, 4, 5, 6, 7]

    # Level 1 totals 2 and no level more, so a bound of 2 escalates there.
    @pytest.mark.parametrize("bound", [None, 2.0])
    @pytest.mark.parametrize("stride", range(1, 9))
    def test_gapped_lengths_at_every_stride(self, stride, bound):
        with escalation_bounds(bound) if bound else nullcontext():
            exact = measure_checkpoints(GAPPED, stride, "exact")
            floating = measure_checkpoints(GAPPED, stride, "float")
        for e, f in zip(exact, floating, strict=True):
            assert e.path_dist.counts == brute_force_path_counts(GAPPED, e.n)
            if bound:  # summed in logs
                assert_float_matches_exact(f.path_dist, e.path_dist)
            else:
                assert f.path_dist.counts == e.path_dist.counts
                assert f.path_dist.normalized == e.path_dist.normalized
                assert (f.path_dist.ipl, f.path_dist.mipl) == (e.path_dist.ipl, e.path_dist.mipl)


def two_predecessor_dag(n: int):
    """Node i cites i-1 and i-2: a length-k path ends at node i in C(k, i-k) ways."""
    return make_graph(n, [(i, i - d) for i in range(1, n) for d in (1, 2) if i >= d])


class ScatterRecorder:
    """numpy, with the index and value arrays of each ``np.maximum.at`` call kept."""

    def __init__(self):
        self.scatters = []
        self.maximum = self

    def at(self, target, indices, values):
        self.scatters.append((indices, values))
        np.maximum.at(target, indices, values)

    def __getattr__(self, name):
        return getattr(np, name)


class TestArithmeticLadder:
    N = 120  # level k's total is 2^k while 2k < N, so it reaches 2^53 at k = 53

    def test_level_totals_cross_the_exact_float_range(self, monkeypatch):
        graph = two_predecessor_dag(self.N)
        depth = measures._depths(graph, self.N)
        assert depth.tolist() == list(range(self.N))
        levels = list(measures._path_levels(graph, depth, "exact"))
        # Levels 0..52 in float64; level 53's total reaches 2^53, so they stop.
        assert [e for _, e in levels] == [False] * 53
        # The packed tail starts from level 52, over the edges into level 53.
        tails = []
        packed_tail = measures._packed_tail
        monkeypatch.setattr(
            measures, "_packed_tail", lambda *args: tails.append(args) or packed_tail(*args)
        )
        measures._path_totals(graph, [self.N], "exact")
        ((_, _, k, value, sizes),) = tails
        assert k == 52
        assert not value[:52].any()
        assert value[52:].tolist() == [math.comb(52, i - 52) for i in range(52, self.N)]
        recorder = ScatterRecorder()
        with monkeypatch.context() as patch:
            patch.setattr(measures, "np", recorder)
            packed_tail(graph, depth, k, value, sizes)
        ((cited, citing),) = recorder.scatters
        assert (citing[0], cited.min(), len(cited)) == (53, 52, len(citing))
        floating = list(measures._path_levels(graph, depth, "float"))
        assert len(floating) == self.N
        assert not any(e for _, e in floating)

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
        exact = measure_checkpoints(graph, n, mode="exact")[0].path_dist
        assume(sum(k * c for k, c in exact.counts.items()) < 2**53)
        floating = measure_checkpoints(graph, n, mode="float")[0].path_dist
        assert floating.counts == exact.counts
        assert floating.normalized == exact.normalized
        assert floating.ipl == exact.ipl


def dense_dag(block: int, tail: list[list[int]]):
    """A graph whose level totals pass 2^53 within a few nodes.

    Each of the first ``block`` nodes cites all its predecessors, so level k
    of the block totals C(block - 1, k).  Then node ``block`` cites the
    block's last node (paths of lengths 2..block), node ``block + 1`` cites
    none and node ``block + 2`` cites both: its path lengths skip level 2.
    The nodes after them cite the lists of ``tail``, in order.
    """
    edges = [(i, j) for i in range(1, block) for j in range(i)]
    edges += [(block, block - 1), (block + 2, block), (block + 2, block + 1)]
    first = block + 3
    edges += [(first + t, j) for t, cited in enumerate(tail) for j in cited]
    return make_graph(first + len(tail), edges)


@st.composite
def dense_dags(draw):
    block = draw(st.integers(56, 60))
    tail = []
    for i in range(block + 3, block + 3 + draw(st.integers(0, 10))):
        low = draw(st.integers(0, i))
        tail.append(sorted(set(range(low, i)) | draw(st.sets(st.integers(0, i - 1), max_size=3))))
    return dense_dag(block, tail)


def prefix_totals(graph, sizes):
    """Each prefix's path counts by length, summed from the conftest recurrence."""
    vectors = node_path_counts(graph, graph.n_nodes)
    totals: Counter[int] = Counter()
    found = []
    for start, n in zip([0, *sizes], sizes):
        for vector in vectors[start:n]:
            totals.update(vector)
        found.append(dict(totals))
    return found


# Ten nodes citing all their predecessors after the block double the paths
# ten times: more than 2^64 paths lie past the hand-over, so each length
# takes more than 8 bytes.
WIDE_DAG = dense_dag(60, [list(range(i)) for i in range(63, 73)])


class TestPackedTail:
    """Exact mode past 2^53, where each node's remaining levels share one int."""

    # At every stride the first prefix ends before the first packed level.
    @PROPERTY
    @example(graph=WIDE_DAG, stride=5)
    @given(graph=dense_dags(), stride=st.integers(1, 5))
    def test_exact_equals_the_recurrence_at_every_checkpoint(self, graph, stride):
        checkpoints = measure_checkpoints(graph, stride, "exact")
        expected = prefix_totals(graph, [cp.n for cp in checkpoints])
        assert [cp.path_dist.counts for cp in checkpoints] == expected

    def test_wide_example_passes_2_64_paths(self):
        assert sum(prefix_totals(WIDE_DAG, [WIDE_DAG.n_nodes])[0].values()) > 2**65

    def test_packed_ints_are_freed_after_their_last_use(self):
        # Every node of the 1 600-node graph holds up to 1 547 lengths of
        # ~1 100 bits; kept to the end, they take ~180 MB.
        graph = two_predecessor_dag(1600)
        tracemalloc.start()
        try:
            measure_checkpoints(graph, 100, "exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_float_levels_stay_small_past_the_float_range(self):
        # The float ladder holds a level and the edges sorted by depth.  The
        # peak on this graph is about 5.8 MB, mostly the distributions
        # returned; the bound is twice that.
        graph = fibonacci_chain()
        tracemalloc.start()
        try:
            measure_checkpoints(graph, 100, "float")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11.6e6


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
            counts = measure_checkpoints(graph, n, mode="exact")[0].path_dist.counts
        assert counts == brute_force_path_counts(graph, n)
        assert all(type(c) is int for c in counts.values())

    @PROPERTY
    @given(graph=backward_dags(), bound=LOW_BOUNDS)
    def test_float_within_1e9_of_exact(self, graph, bound):
        n = graph.n_nodes
        with escalation_bounds(bound):
            assert_float_matches_exact(
                measure_checkpoints(graph, n, mode="float")[0].path_dist,
                measure_checkpoints(graph, n, mode="exact")[0].path_dist,
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
                alone = measure_alone(graph, e.n, "exact")
                assert e == alone
                assert e.path_dist.counts == brute_force_path_counts(graph, e.n)
                assert_float_matches_exact(f.path_dist, alone.path_dist)
                assert f.backlink_dist == e.backlink_dist
                assert_prefix_sums(e, graph)


def assert_series_is_the_points(graph, stride, mode):
    """``measure_series`` gives the points of ``measure_checkpoints``, floats
    compared by their hex form, so bit for bit."""

    def fields(points):
        return [(p.n, p.mipl, *map(float.hex, (p.id, p.ipl, p.ed))) for p in points]

    points = tuple(cp.point for cp in measure_checkpoints(graph, stride, mode))
    series = measure_series(graph, stride, mode)
    assert type(series) is tuple
    assert fields(series) == fields(points)


class TestMeasureSeries:
    """``measure_series`` equals the checkpoints' points of the same sweep."""

    MODES = ("auto", "exact", "float")

    def test_random_dags_at_every_stride(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            graph = random_dag(rng)
            for stride in range(1, graph.n_nodes + 1):
                for mode in self.MODES:
                    assert_series_is_the_points(graph, stride, mode)

    @pytest.mark.parametrize("bound", [1.0, 3.0, 10.0, 50.0])
    def test_random_dags_past_the_escalation_bounds(self, bound, monkeypatch):
        tails = []
        packed_tail = measures._packed_tail
        monkeypatch.setattr(
            measures, "_packed_tail", lambda *args: tails.append(1) or packed_tail(*args)
        )
        rng = np.random.default_rng(31)
        mixed = 0  # float series whose early prefixes stay in float64, later ones in logs
        with escalation_bounds(bound):
            for _ in range(30):
                graph = random_dag(rng, n_max=20, density=0.8)
                for stride in range(1, graph.n_nodes + 1):
                    for mode in self.MODES:
                        assert_series_is_the_points(graph, stride, mode)
                    rows = measures._series(graph, stride, "float")[1]
                    logs = [isinstance(row, np.ndarray) for row in rows]
                    mixed += not logs[0] and logs[-1]
        assert tails and mixed

    @pytest.mark.parametrize("stride", [1, 5, 7, 40])
    @pytest.mark.parametrize("mode", MODES)
    def test_past_2_53(self, stride, mode):
        # WIDE_DAG hands over to the packed tail within its series, the
        # two-predecessor chain at level 53.
        for graph in (WIDE_DAG, two_predecessor_dag(TestArithmeticLadder.N)):
            assert_series_is_the_points(graph, stride, mode)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_past_the_float_range(self, mode):
        assert_series_is_the_points(fibonacci_chain(), 100, mode)

    def test_rejects_what_measure_checkpoints_rejects(self, example_graph):
        with pytest.raises(ValueError, match="stride"):
            measure_series(example_graph, 0)
        with pytest.raises(ValueError, match="empty"):
            measure_series(make_graph(0, []), 1)
        with pytest.raises(ValueError, match="mode"):
            measure_series(example_graph, 1, "fast")

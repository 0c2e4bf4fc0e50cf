"""Domain type invariants and graph validation."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cumuldyn.core import (
    BacklinkDistribution,
    BacklinkTable,
    InventionNode,
    KnowledgeGraph,
    ModelParams,
    PathLengthDistribution,
    PathLengthTable,
    validate_graph,
)
from cumuldyn.fitting import geometric_gof, pathlength_gof

from conftest import make_graph, reference_validate_graph


class TestValidateGraph:
    def test_ordered_edges_are_valid(self):
        g = make_graph(3, [(2, 0), (2, 1)])
        assert validate_graph(g) == []

    def test_forward_edge_reported(self):
        g = make_graph(3, [(0, 2)])
        violations = validate_graph(g)
        assert len(violations) == 1
        assert "forward edge" in violations[0]
        assert "(0, 2)" in violations[0]

    def test_duplicate_edge_reported(self):
        g = make_graph(3, [(2, 0), (2, 0)])
        violations = validate_graph(g)
        assert len(violations) == 1
        assert "duplicate edge" in violations[0]

    def test_self_edge_is_forward_violation(self):
        g = make_graph(2, [(1, 1)])
        assert any("forward edge" in v for v in validate_graph(g))

    def test_edge_to_missing_node(self):
        g = make_graph(2, [(1, 5)])
        assert any("missing node" in v for v in validate_graph(g))

    def test_external_count_length_mismatch(self):
        bad = make_graph(3, [], external=[0, 0])
        assert any("external_backlink_counts" in v for v in validate_graph(bad))

    def test_years_length_mismatch(self):
        g = KnowledgeGraph.from_edges(["a", "b", "c"], [], years=[2000, 2001])
        assert validate_graph(g) == ["years has 2 entries for 3 nodes"]

    def test_negative_external_count(self):
        g = make_graph(2, [], external=[0, -1])
        assert any("negative external" in v for v in validate_graph(g))

    def test_year_order_violation(self):
        g = make_graph(3, [], years=[2000, 1999, 2001])
        assert any("year" in v for v in validate_graph(g))

    def test_missing_years_do_not_trip_order_check(self):
        g = make_graph(3, [], years=[2000, None, 2001])
        assert validate_graph(g) == []

    @pytest.mark.parametrize(
        "indptr, indices, message",
        [
            ([0, 1], [0], "indptr has 2 entries for 2 nodes"),
            ([0, 0, 1], [0, 0], "indptr ends at 1 for 2 indices"),
            ([1, 1, 2], [0, 0], "indptr starts at 1, not 0"),
            ([0, 2, 1], [0], "indptr decreases at entry 2"),
        ],
        ids=["short", "end-short-of-indices", "start-past-0", "falling"],
    )
    def test_malformed_csr_columns_reported(self, indptr, indices, message):
        g = KnowledgeGraph(
            ("a", "b"), (None, None), np.array(indptr), np.array(indices), np.zeros(2, np.int64)
        )
        assert validate_graph(g) == [message]

    def test_node_order_is_topological(self):
        # Acyclicity comes from the ordinal constraint: any valid graph has
        # every edge pointing backward, so node order is a topological order.
        g = make_graph(5, [(4, 0), (3, 1), (4, 3), (2, 1)])
        assert validate_graph(g) == []
        assert all(citing > cited for citing, cited in g.internal_edges)


@st.composite
def raw_graphs(draw):
    """(n, edges, external, years) with every kind of invariant violation.

    Citing ordinals stay inside 0..n-1 (a CSR row has nowhere else to go);
    cited ordinals may be forward, the citing node itself, repeated or
    outside the graph, external counts short, long or negative, and years
    out of order.
    """
    n = draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(-2, n + 1))
    edges = draw(st.lists(pairs, max_size=20))
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    external = draw(st.lists(st.integers(-2, 3), min_size=max(0, n - 2), max_size=n + 1))
    years = draw(st.lists(st.none() | st.integers(1998, 2002), min_size=n, max_size=n))
    return n, draw(st.permutations(edges)), external, years


class TestValidateGraphOracle:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(raw=raw_graphs())
    @example(raw=(3, [(2, 0), (1, 1), (2, 0), (0, 2), (1, 5), (1, -1)], [0, -1], [2000, 1999, None]))
    def test_messages_match_the_edge_by_edge_reference(self, raw):
        n, edges, external, years = raw
        graph = KnowledgeGraph.from_edges([f"n{i}" for i in range(n)], edges, external, years)
        expected = reference_validate_graph(n, edges, external, years)
        assert sorted(validate_graph(graph)) == sorted(expected)


_SMALL = st.lists(st.integers(-3, 6), max_size=8).map(lambda v: np.array(v, np.int64))


class TestValidateGraphColumns:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 5), indptr=_SMALL, indices=_SMALL, external=_SMALL,
        years=st.lists(st.none() | st.integers(1998, 2002), max_size=7),
    )
    def test_any_small_columns_give_a_list(self, n, indptr, indices, external, years):
        graph = KnowledgeGraph(tuple(map(str, range(n))), tuple(years), indptr, indices, external)
        assert all(isinstance(v, str) for v in validate_graph(graph))


_HUGE = [-(2**63), -(2**62), -(2**40), 2**40, 2**62, 2**63 - 2, 2**63 - 1]


@st.composite
def edge_lists(draw):
    """Edges of up to 10 nodes whose cited ordinals may dangle far outside them.

    Sorted, shuffled or with repeated rows; the cited ordinals range up to
    the int64 limits.
    """
    n = draw(st.integers(1, 10))
    cited = st.integers(-3, n + 3) | st.sampled_from(_HUGE)
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), cited), max_size=30))
    edges += draw(st.lists(st.sampled_from(edges), max_size=6)) if edges else []
    return n, sorted(edges) if draw(st.booleans()) else draw(st.permutations(edges))


class TestFromEdgesOrder:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(raw=edge_lists())
    @example(raw=(1, [(0, 2**63 - 2), (0, 0), (0, 5)]))
    @example(raw=(2, [(1, 2**62 - 1), (0, 0), (1, 0)]))
    @example(raw=(3, [(2, -(2**63)), (1, 2**63 - 1), (2, 2**63 - 1)]))
    def test_order_equals_sorted_edges(self, raw):
        n, edges = raw
        graph = make_graph(n, edges)
        assert graph.indices.tolist() == [cited for _, cited in sorted(edges)]
        counts = [sum(citing == i for citing, _ in edges) for i in range(n)]
        assert graph.indptr.tolist() == [0, *np.cumsum(counts).tolist()]
        expected = reference_validate_graph(n, edges, [0] * n, [None] * n)
        assert sorted(validate_graph(graph)) == sorted(expected)


class TestKnowledgeGraphColumns:
    def test_from_edges_sorts_into_csr(self):
        g = make_graph(4, [(3, 1), (2, 0), (3, 0), (2, 1)], external=[0, 1, 0, 2])
        assert g.indptr.tolist() == [0, 0, 0, 2, 4]
        assert g.indices.tolist() == [0, 1, 0, 1]
        assert g.backlink_counts.tolist() == [0, 0, 2, 2]
        assert g.external_backlink_counts.tolist() == [0, 1, 0, 2]
        assert g.years == (None,) * 4
        assert g.n_nodes == 4

    def test_views_are_built_from_the_columns(self):
        g = make_graph(3, [(2, 1), (1, 0), (2, 0)], years=[1999, None, 2001])
        assert g.nodes == (
            InventionNode("n0", 0, 1999), InventionNode("n1", 1, None), InventionNode("n2", 2, 2001)
        )
        assert g.internal_edges == ((1, 0), (2, 0), (2, 1))
        assert g.backward_lists == ((), (0,), (0, 1))

    def test_columns_are_read_only(self):
        g = make_graph(3, [(2, 0)], external=[1, 0, 0])
        for column in (g.indptr, g.indices, g.external_backlink_counts):
            with pytest.raises(ValueError):
                column[0] = 7

    def test_equality_compares_the_columns(self):
        g = make_graph(3, [(2, 0), (1, 0)], years=[2000, 2000, 2001])
        assert g == make_graph(3, [(1, 0), (2, 0)], years=[2000, 2000, 2001])
        assert g != make_graph(3, [(1, 0), (2, 0)], years=[2000, 2000, 2002])
        assert g != make_graph(3, [(2, 0), (2, 1)], years=[2000, 2000, 2001])
        assert g != make_graph(3, [(2, 0), (1, 0)], [0, 0, 1], years=[2000, 2000, 2001])
        assert g != "graph"

    @pytest.mark.parametrize("edges", [[(3, 0)], [(-1, 0)], [(1, 0), (5, 2)]])
    def test_from_edges_rejects_a_citing_ordinal_outside_the_nodes(self, edges):
        with pytest.raises(ValueError, match="citing ordinal"):
            make_graph(3, edges)


class TestModelParams:
    def test_round_trip_q_m1(self):
        params = ModelParams(q=0.0017, m1=2.31)
        again = ModelParams(q=params.q, m1=params.m0 + 1)
        assert again.q == params.q
        assert again.m1 == params.m1
        assert params.m0 == params.m1 - 1

    def test_default_r(self):
        params = ModelParams(q=0.5, m1=2.0)
        assert params.r == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "q,m1",
        [
            (0.0, 2.0), (-1.0, 2.0), (0.1, 1.0), (0.1, 0.5), (math.inf, 2.0),
            (-math.inf, 2.0), (math.nan, 2.0), (0.1, math.inf), (0.1, math.nan),
        ],
    )
    def test_invalid_params_rejected(self, q, m1):
        with pytest.raises(ValueError):
            ModelParams(q=q, m1=m1)

    def test_invalid_r_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(q=0.1, m1=2.0, r=1.5)

    def test_nan_default_r_is_sentinel_only(self):
        assert not math.isnan(ModelParams(q=1.0, m1=2.0).r)

    def test_value_equality_hash_and_immutability(self):
        params = ModelParams(q=0.1, m1=2.0)
        assert params == ModelParams(0.1, 2.0, 0.5)
        assert params != ModelParams(q=0.1, m1=2.5)
        assert hash(params) == hash(ModelParams(q=0.1, m1=2.0))
        for name in ("q", "r", "m0", "unknown"):
            with pytest.raises(AttributeError):
                setattr(params, name, 1.0)


class TestBacklinkDistribution:
    def test_total_must_match_n(self):
        # A histogram is checked where it enters a table, not when it is made.
        hist = BacklinkDistribution(n=5, counts={0: 2, 1: 2})
        with pytest.raises(ValueError, match="^histogram total 4 != prefix size 5$"):
            BacklinkTable.from_hists([BacklinkDistribution(n=1, counts={0: 1}), hist])


class TestStrayEntries:
    """Keys, counts and values no prefix can have are run faults of the tables."""

    @pytest.mark.parametrize(
        "counts, message",
        [
            ({-1: 5, 1: 5}, "m=-1 at n=10 lies outside 0..9"),
            ({0: 5, 10: 5}, "m=10 at n=10 lies outside 0..9"),
            ({0: -5, 1: 15}, "count -5 at n=10, m=0 is negative"),
        ],
        ids=["negative-m", "m-at-n", "negative-count"],
    )
    def test_backlink_histogram(self, counts, message):
        # Each totals n, so only the stray entry is at fault.
        hists = [BacklinkDistribution(4, {0: 4}), BacklinkDistribution(10, counts)]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            geometric_gof(BacklinkTable.from_hists(hists), ModelParams(0.1, 2.0))
        made, faults = BacklinkTable.from_runs(
            [10], [0, 2], np.array(list(counts)), list(counts.values())
        )
        assert (made, faults) == (None, [(0, message)])

    @pytest.mark.parametrize(
        "counts, normalized, message",
        [
            (
                {0: 3, 1: -1}, {0: 1.5, 1: -0.5},
                "normalized value 1.5 at n=5, k=0 lies outside [0, 1]",
            ),
            ({0: 3, 1: -1}, {0: 1.0, 1: 0.0}, "count -1 at n=5, k=1 is negative"),
            ({-1: 2, 0: 3}, {-1: 0.4, 0: 0.6}, "k=-1 at n=5 lies outside 0..4"),
            ({0: 3, 5: 2}, {0: 0.6, 5: 0.4}, "k=5 at n=5 lies outside 0..4"),
        ],
        ids=["normalized-outside", "negative-count", "negative-k", "k-at-n"],
    )
    def test_path_length_distribution(self, counts, normalized, message):
        dist = PathLengthDistribution(5, counts, normalized, 0.0, 1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pathlength_gof(PathLengthTable.from_dists([dist]))

"""Core domain types for knowledge-graph cumulativeness analysis.

A technology is represented as a chronologically ordered set of inventions
plus the backward links between them.  :class:`KnowledgeGraph` holds them
by column: node ids and years, the links that stay inside the technology as
one sorted array of cited ordinals per citing node (CSR form), and one count
per node of the links that leave it.  All types here are immutable after
construction and safe to share across threads.  The records that check
nothing are ``NamedTuple``s, with tuple equality and unpacking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "InventionNode",
    "KnowledgeGraph",
    "ModelParams",
    "BacklinkDistribution",
    "BacklinkTable",
    "PathLengthDistribution",
    "PathLengthTable",
    "SeriesPoint",
    "RatePredictions",
    "LinearFit",
    "DistributionFits",
    "validate_graph",
]


class InventionNode(NamedTuple):
    """One invention: an opaque id, its chronological position and its year.

    ``ordinal`` is the 0-based position in the technology's chronological
    order; ``year`` is None for an undated invention.
    """

    node_id: str
    ordinal: int
    year: int | None = None


@dataclass(frozen=True, eq=False)
class KnowledgeGraph:
    """Chronologically ordered inventions with backward links, held by column.

    Node ``i`` (its ordinal) has the id ``node_ids[i]`` and the year
    ``years[i]`` (None when undated).  It cites the ordinals
    ``indices[indptr[i]:indptr[i + 1]]``, ascending: the compressed sparse
    row (CSR) form of the internal edges.  Edges point backward in time
    (citing > cited), which makes the graph acyclic with node order as a
    topological order.  Links leaving the technology are kept only as one
    count per node.  The arrays are read-only; graphs with equal columns
    are equal.

    Neither constructor enforces the invariants: use :func:`validate_graph`
    to diagnose a graph of unknown provenance.  ``nodes``,
    ``internal_edges`` and ``backward_lists`` are views built on first
    access, which the package's own code never reads; they remain for the
    benchmark's layer counters.
    """

    node_ids: tuple[str, ...]
    years: tuple[int | None, ...]
    indptr: np.ndarray
    indices: np.ndarray
    external_backlink_counts: np.ndarray

    def __post_init__(self) -> None:
        for column in self._arrays:
            column.flags.writeable = False

    @property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.indptr, self.indices, self.external_backlink_counts

    @classmethod
    def from_edges(
        cls, node_ids: Sequence[str], edges: Iterable[tuple[int, int]],
        external: Sequence[int] | None = None, years: Sequence[int | None] | None = None,
    ) -> KnowledgeGraph:
        """The graph of ``node_ids`` whose edges are (citing, cited) ordinal pairs.

        ``external`` defaults to no external links and ``years`` to undated
        nodes.  Forward, duplicate and dangling edges are kept for
        :func:`validate_graph` to report, but a citing ordinal outside
        0..N-1 has no row to go in and raises ValueError.
        """
        n = len(node_ids)
        citing, cited = np.fromiter(chain.from_iterable(edges), np.int64).reshape(-1, 2).T
        outside = (citing < 0) | (citing >= n)
        if outside.any():
            raise ValueError(f"edge citing ordinal {citing[outside][0]} outside 0..{n - 1}")
        return cls(
            node_ids=tuple(node_ids),
            years=(None,) * n if years is None else tuple(years),
            indptr=np.concatenate(([0], np.cumsum(np.bincount(citing, minlength=n)))),
            indices=cited[np.lexsort((cited, citing))],
            external_backlink_counts=np.array([0] * n if external is None else external, np.int64),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return (self.node_ids, self.years) == (other.node_ids, other.years) and all(
            map(np.array_equal, self._arrays, other._arrays)
        )

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def backlink_counts(self) -> np.ndarray:
        """Number of internal backward links per node, in ordinal order."""
        return np.diff(self.indptr)

    @cached_property
    def nodes(self) -> tuple[InventionNode, ...]:
        """The nodes as records, built on first access."""
        return tuple(map(InventionNode, self.node_ids, range(self.n_nodes), self.years))

    @cached_property
    def internal_edges(self) -> tuple[tuple[int, int], ...]:
        """The (citing, cited) edges in CSR order, built on first access."""
        citing = np.repeat(np.arange(self.n_nodes), self.backlink_counts)
        return tuple(zip(citing.tolist(), self.indices.tolist()))

    @cached_property
    def backward_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per-node tuple of cited ordinals, built on first access."""
        cited, bounds = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(cited[a:b]) for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True, slots=True)
class ModelParams:
    """Parameters of the search-process growth model.

    ``q`` is the rate at which the knowledge need grows per invention and
    ``m1 > 1`` the initial knowledge need, both finite; ``m0 = m1 - 1`` is
    the expected number of backward links of the very first inventions.
    ``r`` is the fraction of inventions with no internal backward links,
    defaulting to the small-``q`` estimate ``1 / (m0 + 1)``.
    """

    q: float
    m1: float
    r: float = math.nan

    def __post_init__(self) -> None:
        if not 0 < self.q < math.inf:
            raise ValueError(f"q must be positive and finite, got {self.q}")
        if not 1 < self.m1 < math.inf:
            raise ValueError(f"m1 must exceed 1 and be finite, got {self.m1}")
        if math.isnan(self.r):
            object.__setattr__(self, "r", 1.0 / self.m1)
        if not 0 < self.r <= 1:
            raise ValueError(f"r must lie in (0, 1], got {self.r}")

    @property
    def m0(self) -> float:
        return self.m1 - 1


@dataclass(frozen=True)
class BacklinkDistribution:
    """Histogram of backward internal links per node over a graph prefix."""

    n: int
    counts: Mapping[int, int]

    def __post_init__(self) -> None:
        total = sum(self.counts.values())
        if total != self.n:
            raise ValueError(f"histogram total {total} != prefix size {self.n}")


class PathLengthDistribution(NamedTuple):
    """Counts of internal paths by length over a graph prefix of size ``n``.

    ``counts[k]`` is the number of paths of length ``k``: exact integers in
    exact mode, floats (possibly ``inf`` for astronomically many paths) in
    floating mode, where ``log_counts`` preserves the exact-to-1e-9 natural
    logs.  ``normalized`` always sums to 1 when any path exists, ``ipl`` is
    the mean length and ``mipl`` the maximum length with a positive count.
    """

    n: int
    counts: Mapping[int, int | float]
    normalized: Mapping[int, float]
    ipl: float
    mipl: int
    log_counts: Mapping[int, float] | None = None

    @classmethod
    def from_logs(cls, n: int, logs: np.ndarray) -> PathLengthDistribution:
        """Distribution with ``log(counts[k]) = logs[k]``, normalized in log space."""
        peak = float(np.max(logs))
        log_total = peak + math.log(float(np.sum(np.exp(logs - peak))))
        norm = np.exp(logs - log_total)
        ks = np.arange(len(logs))
        with np.errstate(over="ignore"):
            raw = np.exp(logs)
        return cls(
            n=n,
            counts=dict(enumerate(raw.tolist())),
            normalized=dict(enumerate(norm.tolist())),
            ipl=float(np.dot(ks, norm)),
            mipl=len(logs) - 1,
            log_counts=dict(enumerate(logs.tolist())),
        )

    @property
    def total_paths(self) -> int | float:
        return sum(self.counts.values())


class BacklinkTable(NamedTuple):
    """Backward-link histograms held by column, one row per prefix size.

    Row ``i`` is the histogram of the prefix of ``ns[i]`` nodes: for each
    ``j`` in ``bounds[i]:bounds[i + 1]``, ``counts[j]`` nodes have
    ``links[j]`` internal backward links.
    """

    ns: list[int]
    bounds: np.ndarray
    links: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_hists(cls, hists: Iterable[BacklinkDistribution]) -> BacklinkTable:
        hists = list(hists)
        if not all(hist.counts for hist in hists):
            raise ValueError("empty backlink histogram")
        return cls(
            [hist.n for hist in hists], np.cumsum([0, *(len(hist.counts) for hist in hists)]),
            np.array([m for hist in hists for m in hist.counts], dtype=np.int64),
            np.array([c for hist in hists for c in hist.counts.values()], dtype=float),
        )


class PathLengthTable(NamedTuple):
    """Path-length distributions held by column, one row per prefix size.

    Row ``i``, the prefix of ``ns[i]`` nodes, has the mean and variance of its
    lengths ``ipl[i]`` and ``variance[i]``, the longest length with paths
    ``mipl[i]``, the total path count as a float ``samples[i]`` (``inf`` past
    the float range), and the normalized count ``normalized[j]`` of each
    length ``lengths[j]``, for ``j`` in ``bounds[i]:bounds[i + 1]``.
    """

    ns: list[int]
    ipl: list[float]
    variance: list[float]
    mipl: list[int]
    samples: list[float]
    bounds: np.ndarray
    lengths: np.ndarray
    normalized: np.ndarray

    @classmethod
    def from_dists(cls, dists: Iterable[PathLengthDistribution]) -> PathLengthTable:
        dists = list(dists)
        totals = [dist.total_paths for dist in dists]
        if not all(dist.counts and total > 0 for dist, total in zip(dists, totals)):
            raise ValueError("path-length distribution has no paths")
        return cls(
            [dist.n for dist in dists], [dist.ipl for dist in dists],
            [sum(k * k * w for k, w in d.normalized.items()) - d.ipl * d.ipl for d in dists],
            [dist.mipl for dist in dists], list(map(_as_float, totals)),
            np.cumsum([0, *(len(dist.normalized) for dist in dists)]),
            np.array([k for dist in dists for k in dist.normalized], dtype=np.int64),
            np.array([w for dist in dists for w in dist.normalized.values()], dtype=float),
        )


def _as_float(total: int | float) -> float:  # inf past the float range
    try:
        return float(total)
    except OverflowError:
        return math.inf


class SeriesPoint(NamedTuple):
    """One checkpoint of a cumulativeness trajectory; a series is a tuple of them."""

    n: int
    id: float
    ipl: float
    mipl: int
    ed: float


class RatePredictions(NamedTuple):
    """Predicted growth rates of the path-length indicators.

    ``p = q/(q+1)`` is the large-n path-length growth rate; the primed pairs
    are finite-size corrections (``a`` computed from per-invention link data,
    ``b`` from fitted parameters); ``v = 2p`` is the growth rate of the
    maximum path length and ``delta_n = 1/v`` the typical number of
    inventions per unit of maximum path length.
    """

    p: float
    q_prime_a: float
    p_prime_a: float
    q_prime_b: float
    p_prime_b: float
    v: float
    delta_n: float


class LinearFit(NamedTuple):
    """Ordinary least squares fit of y on x with the standard statistics."""

    slope: float
    intercept: float
    r_squared: float
    residual_se: float
    f_statistic: float
    n_obs: int
    slope_se: float
    intercept_se: float


class DistributionFits(NamedTuple):
    """One model family fitted to a sequence of distributions, held by column.

    Row ``i`` is the fit to the ``i``-th distribution: its parameters
    ``params[i]``, its plot points ``plot_points[bounds[i]:bounds[i + 1]]``
    (the pairs of ``empirical`` and ``model``; the closer they lie to the
    x=y line, the better the fit), their Pearson correlation
    ``plot_correlation[i]``, ``chi_square[i]`` as (statistic, dof, p-value)
    with bins pooled so every expected count is at least 5, and
    ``warnings[i]``, the messages explaining a correlation that could not be
    computed (a single support point, a constant axis).
    """

    family: str
    params: tuple[Mapping[str, float], ...]
    bounds: tuple[int, ...]
    empirical: tuple[float, ...]
    model: tuple[float, ...]
    plot_correlation: tuple[float, ...]
    chi_square: tuple[tuple[float, int, float], ...]
    warnings: tuple[tuple[str, ...], ...]

    @property
    def plot_points(self) -> tuple[tuple[float, float], ...]:
        """Every row's (empirical, model) pairs, row after row."""
        return tuple(zip(self.empirical, self.model))


def validate_graph(graph: KnowledgeGraph) -> list[str]:
    """Check every KnowledgeGraph invariant; return one message per violation.

    An empty list means the graph is valid.  This is a diagnostic: it never
    raises, so it can be used on graphs of unknown provenance.
    """
    violations: list[str] = []
    n = graph.n_nodes

    last_year: int | None = None
    for i, year in enumerate(graph.years):
        if year is None:
            continue
        if last_year is not None and year < last_year:
            violations.append(
                f"node {i} has year {year} before an earlier node's year {last_year}"
            )
        last_year = year

    if len(graph.years) != n:
        violations.append(f"years has {len(graph.years)} entries for {n} nodes")
    external = graph.external_backlink_counts
    if len(external) != n:
        violations.append(f"external_backlink_counts has {len(external)} entries for {n} nodes")
    violations.extend(
        f"negative external backlink count at node {i}"
        for i in np.flatnonzero(external < 0).tolist()
    )

    citing = np.repeat(np.arange(n), graph.backlink_counts)
    cited = graph.indices
    missing = (cited < 0) | (cited >= n)
    # CSR order puts the copies of an edge next to each other.
    repeated = np.concatenate(([False], (citing[1:] == citing[:-1]) & (cited[1:] == cited[:-1])))
    forward = ~missing & (citing <= cited)
    for hit, message in (
        (missing, "edge ({}, {}) references missing node"),
        (forward, "forward edge ({}, {}): citing ordinal must exceed cited ordinal"),
        (~missing & repeated, "duplicate edge ({}, {})"),
    ):
        violations.extend(map(message.format, citing[hit].tolist(), cited[hit].tolist()))
    return violations

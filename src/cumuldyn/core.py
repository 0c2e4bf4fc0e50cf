"""Core domain types for knowledge-graph cumulativeness analysis.

A technology is represented as a chronologically ordered set of inventions
plus the backward links between them.  Links that stay inside the technology
are stored as explicit edges; links that leave it are kept only as per-node
counts.  All types here are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple

import numpy as np

__all__ = [
    "InventionNode",
    "KnowledgeGraph",
    "ModelParams",
    "BacklinkDistribution",
    "PathLengthDistribution",
    "SeriesPoint",
    "CumulativenessSeries",
    "RatePredictions",
    "LinearFit",
    "DistributionFit",
    "validate_graph",
]


@dataclass(frozen=True, slots=True)
class InventionNode:
    """One invention: an opaque id plus its chronological position.

    ``ordinal`` is the 0-based position in the technology's chronological
    order; ``year`` and ``class_labels`` are optional metadata used by
    ingestion and rate computations.
    """

    node_id: str
    ordinal: int
    year: int | None = None
    class_labels: frozenset[str] = frozenset()


@dataclass(frozen=True)
class KnowledgeGraph:
    """Chronologically ordered inventions with backward links.

    Internal edges are (citing ordinal, cited ordinal) pairs pointing
    backward in time (citing > cited), which makes the graph acyclic by
    construction with node order as a topological order.  Links leaving the
    technology are stored only as one count per node.

    The constructor does not enforce the invariants: use
    :func:`validate_graph` to diagnose a graph of unknown provenance.
    """

    nodes: tuple[InventionNode, ...]
    internal_edges: tuple[tuple[int, int], ...]
    external_backlink_counts: tuple[int, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def backward_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per-node tuple of cited ordinals (the node's backward links)."""
        cited: list[list[int]] = [[] for _ in range(len(self.nodes))]
        for citing, target in self.internal_edges:
            cited[citing].append(target)
        return tuple(tuple(sorted(c)) for c in cited)

    @cached_property
    def backlink_counts(self) -> tuple[int, ...]:
        """Number of internal backward links per node, in ordinal order."""
        return tuple(len(c) for c in self.backward_lists)

    def years(self) -> tuple[int | None, ...]:
        return tuple(node.year for node in self.nodes)


@dataclass(frozen=True, slots=True)
class ModelParams:
    """Parameters of the search-process growth model.

    ``q`` is the rate at which the knowledge need grows per invention and
    ``m1 > 1`` the initial knowledge need; ``m0 = m1 - 1`` is the expected
    number of backward links of the very first inventions.  ``r`` is the
    fraction of inventions with no internal backward links, defaulting to
    the small-``q`` estimate ``1 / (m0 + 1)``.
    """

    q: float
    m1: float
    r: float = math.nan

    def __post_init__(self) -> None:
        if not self.q > 0:
            raise ValueError(f"q must be positive, got {self.q}")
        if not self.m1 > 1:
            raise ValueError(f"m1 must exceed 1, got {self.m1}")
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

    @property
    def mean(self) -> float:
        """Average backward internal links per node (the prefix id)."""
        return sum(m * c for m, c in self.counts.items()) / self.n

    @property
    def max_links(self) -> int:
        return max(self.counts) if self.counts else 0


@dataclass(frozen=True)
class PathLengthDistribution:
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
            counts={int(k): float(raw[k]) for k in ks},
            normalized={int(k): float(norm[k]) for k in ks},
            ipl=float(np.dot(ks, norm)),
            mipl=len(logs) - 1,
            log_counts={int(k): float(logs[k]) for k in ks},
        )

    @property
    def total_paths(self) -> int | float:
        return sum(self.counts.values())


class SeriesPoint(NamedTuple):
    """One checkpoint of a cumulativeness trajectory."""

    n: int
    id: float
    ipl: float
    mipl: int
    ed: float


@dataclass(frozen=True)
class CumulativenessSeries:
    """Cumulativeness indicators sampled at increasing prefix sizes."""

    checkpoints: tuple[SeriesPoint, ...]

    def __iter__(self) -> Iterator[SeriesPoint]:
        return iter(self.checkpoints)

    def __len__(self) -> int:
        return len(self.checkpoints)

    def ns(self) -> list[int]:
        return [cp.n for cp in self.checkpoints]

    def component(self, which: str) -> list[float]:
        """Extract one indicator ('id', 'ipl', 'mipl' or 'ed') per checkpoint."""
        if which not in ("id", "ipl", "mipl", "ed"):
            raise ValueError(f"unknown series component {which!r}")
        return [float(getattr(cp, which)) for cp in self.checkpoints]


@dataclass(frozen=True, slots=True)
class RatePredictions:
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


@dataclass(frozen=True, slots=True)
class LinearFit:
    """Ordinary least squares fit of y on x with the standard statistics."""

    slope: float
    intercept: float
    r_squared: float
    residual_se: float
    f_statistic: float
    n_obs: int
    slope_se: float
    intercept_se: float


@dataclass(frozen=True)
class DistributionFit:
    """Goodness of fit of a model distribution to an empirical one.

    ``plot_points`` holds (empirical probability, model probability) pairs;
    the closer they lie to the x=y line, the better the fit, summarized by
    their Pearson correlation.  ``chi_square`` is (statistic, dof, p-value)
    with bins pooled so every expected count is at least 5.
    """

    family: str
    params: Mapping[str, float]
    plot_points: tuple[tuple[float, float], ...]
    plot_correlation: float
    chi_square: tuple[float, int, float]


def validate_graph(graph: KnowledgeGraph) -> list[str]:
    """Check every KnowledgeGraph invariant; return one message per violation.

    An empty list means the graph is valid.  This is a diagnostic: it never
    raises, so it can be used on graphs of unknown provenance.
    """
    violations: list[str] = []
    n = graph.n_nodes

    for i, node in enumerate(graph.nodes):
        if node.ordinal != i:
            violations.append(
                f"node at position {i} has ordinal {node.ordinal}; ordinals "
                "must be contiguous 0..N-1 in order"
            )

    last_year: int | None = None
    for node in graph.nodes:
        if node.year is None:
            continue
        if last_year is not None and node.year < last_year:
            violations.append(
                f"node {node.ordinal} has year {node.year} before an earlier "
                f"node's year {last_year}"
            )
        last_year = node.year

    if len(graph.external_backlink_counts) != n:
        violations.append(
            f"external_backlink_counts has {len(graph.external_backlink_counts)} "
            f"entries for {n} nodes"
        )
    for i, count in enumerate(graph.external_backlink_counts):
        if count < 0:
            violations.append(f"negative external backlink count at node {i}")

    seen: set[tuple[int, int]] = set()
    for citing, cited in graph.internal_edges:
        if not (0 <= citing < n and 0 <= cited < n):
            violations.append(f"edge ({citing}, {cited}) references missing node")
            continue
        if citing <= cited:
            violations.append(
                f"forward edge ({citing}, {cited}): citing ordinal must exceed "
                "cited ordinal"
            )
        if (citing, cited) in seen:
            violations.append(f"duplicate edge ({citing}, {cited})")
        seen.add((citing, cited))

    return violations

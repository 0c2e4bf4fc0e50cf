"""Core domain types for knowledge-graph cumulativeness analysis.

A technology is represented as a chronologically ordered set of inventions
plus the backward links between them.  :class:`KnowledgeGraph` holds them
by column: node ids and years, the links that stay inside the technology as
one sorted array of cited ordinals per citing node (CSR form), and one count
per node of the links that leave it, in read-only arrays.  The other types
are ``NamedTuple``s, with tuple equality and unpacking.  The package changes
nothing here after construction, so all are safe to share across threads.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
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


class KnowledgeGraph:
    """Chronologically ordered inventions with backward links, held by column.

    Node ``i`` (its ordinal) has the id ``node_ids[i]`` and the year
    ``years[i]`` (None when undated).  It cites the ordinals
    ``indices[indptr[i]:indptr[i + 1]]``, ascending: the compressed sparse
    row (CSR) form of the internal edges.  Edges point backward in time
    (citing > cited), which makes the graph acyclic with node order as a
    topological order.  Links leaving the technology are kept only as one
    count per node.  The arrays are made read-only on construction; graphs
    with equal columns are equal.

    Neither constructor enforces the invariants: use :func:`validate_graph`
    to diagnose a graph of unknown provenance.  ``nodes``,
    ``internal_edges`` and ``backward_lists`` are views built on each
    access, which the package's own code never reads; they remain for the
    benchmark's layer counters.
    """

    __slots__ = ("node_ids", "years", "indptr", "indices", "external_backlink_counts")

    def __init__(
        self, node_ids: tuple[str, ...], years: tuple[int | None, ...], indptr: np.ndarray,
        indices: np.ndarray, external_backlink_counts: np.ndarray,
    ) -> None:
        self.node_ids, self.years = node_ids, years
        self.indptr, self.indices = indptr, indices
        self.external_backlink_counts = external_backlink_counts
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

    @property
    def nodes(self) -> tuple[InventionNode, ...]:
        """The nodes as records."""
        return tuple(map(InventionNode, self.node_ids, range(self.n_nodes), self.years))

    @property
    def internal_edges(self) -> tuple[tuple[int, int], ...]:
        """The (citing, cited) edges in CSR order."""
        citing = np.repeat(np.arange(self.n_nodes), self.backlink_counts)
        return tuple(zip(citing.tolist(), self.indices.tolist()))

    @property
    def backward_lists(self) -> tuple[tuple[int, ...], ...]:
        """Per-node tuple of cited ordinals."""
        cited, bounds = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(cited[a:b]) for a, b in zip(bounds, bounds[1:]))


class ModelParams(NamedTuple("ModelParams", [("q", float), ("m1", float), ("r", float)])):
    """Parameters of the search-process growth model.

    ``q`` is the rate at which the knowledge need grows per invention and
    ``m1 > 1`` the initial knowledge need, both finite; ``m0 = m1 - 1`` is
    the expected number of backward links of the very first inventions.
    ``r`` is the fraction of inventions with no internal backward links,
    defaulting to the small-``q`` estimate ``1 / (m0 + 1)``.
    """

    __slots__ = ()

    def __new__(cls, q: float, m1: float, r: float = math.nan) -> ModelParams:
        if not 0 < q < math.inf:
            raise ValueError(f"q must be positive and finite, got {q}")
        if not 1 < m1 < math.inf:
            raise ValueError(f"m1 must exceed 1 and be finite, got {m1}")
        if math.isnan(r):
            r = 1.0 / m1
        if not 0 < r <= 1:
            raise ValueError(f"r must lie in (0, 1], got {r}")
        return super().__new__(cls, q, m1, r)

    @property
    def m0(self) -> float:
        return self.m1 - 1


class BacklinkDistribution(NamedTuple):
    """Histogram of backward internal links per node over a prefix of ``n``
    nodes: ``counts[m]`` nodes have ``m`` links.  It is not checked when made;
    :meth:`BacklinkTable.from_hists` rejects counts that do not total ``n``."""

    n: int
    counts: Mapping[int, int]


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
        norm, ipl = cls.log_normalized(logs)
        with np.errstate(over="ignore"):
            raw = np.exp(logs)
        return cls(
            n=n,
            counts=dict(enumerate(raw.tolist())),
            normalized=dict(enumerate(norm.tolist())),
            ipl=ipl,
            mipl=len(logs) - 1,
            log_counts=dict(enumerate(logs.tolist())),
        )

    @staticmethod
    def log_normalized(logs: np.ndarray) -> tuple[np.ndarray, float]:
        """The counts whose natural logs are ``logs``, normalized to sum 1, and their mean k."""
        peak = float(np.max(logs))
        norm = np.exp(logs - (peak + math.log(float(np.sum(np.exp(logs - peak))))))
        return norm, float(np.dot(np.arange(len(logs)), norm))


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
    def from_runs(
        cls, ns: list[int], bounds: list[int], links: np.ndarray, counts: list[int]
    ) -> tuple[BacklinkTable | None, list[tuple[int, str]]]:
        """The table whose row ``i`` is run ``i`` of the rows, ``bounds[i]:bounds[i + 1]``, or
        None if a row has a fault (a count past ``ns[i]`` may be past the float range), and
        each row's fault as ``(i, message)``: an entry no prefix can have (see
        :func:`_entry_faults`), counts that do not total ``ns[i]``, or no rows."""
        entry_faults = _entry_faults(ns, bounds, links, "m", counts)
        faults = []
        for row, (n, lo, hi) in enumerate(zip(ns, bounds, bounds[1:])):
            total = sum(counts[lo:hi])
            if row in entry_faults:
                faults.append((row, entry_faults[row]))
            elif total != n:
                faults.append((row, f"histogram total {total} != prefix size {n}"))
            elif lo == hi:
                faults.append((row, f"empty backlink histogram at n={n}"))
        table = None if faults else cls(ns, np.array(bounds), links, np.array(counts, dtype=float))
        return table, faults

    @classmethod
    def from_hists(cls, hists: Iterable[BacklinkDistribution]) -> BacklinkTable:
        """The table of ``hists``, one row each, as :meth:`from_runs` builds it from
        their rows; raises ValueError for the first with a fault."""
        hists = list(hists)
        return _raise_first(cls.from_runs(
            [hist.n for hist in hists],
            list(accumulate((len(hist.counts) for hist in hists), initial=0)),
            np.array([m for hist in hists for m in hist.counts], dtype=np.int64),
            [c for hist in hists for c in hist.counts.values()],
        ))


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
    def from_runs(
        cls, ns: list[int], bounds: list[int], lengths: np.ndarray, counts: list[int | float],
        normalized: np.ndarray,
    ) -> tuple[PathLengthTable, list[tuple[int, str]]]:
        """The table whose row ``i`` is run ``i`` of the rows, ``bounds[i]:bounds[i + 1]``,
        and each row's fault as ``(i, message)``: an entry no prefix can have (see
        :func:`_entry_faults`), no positive count, a positive normalized value where the
        count is 0, or normalized values more than 1e-9 from summing to 1.
        A run's sums add its rows in order: ``ipl`` and ``variance`` from ``lengths`` and
        ``normalized``, ``samples`` from ``counts`` (exact for ints); ``mipl`` is its
        longest length with a positive count, so no weight lies past it."""
        moments, shares = (lengths * normalized).tolist(), normalized.tolist()
        squares = (lengths * lengths * normalized).tolist()
        positive = [k if c > 0 else -1 for k, c in zip(lengths.tolist(), counts)]
        strays = ((normalized > 0.0) & (np.array(positive) < 0)).tolist()
        entry_faults = _entry_faults(ns, bounds, lengths, "k", counts, normalized)
        ipl, variance, mipl, samples, faults = [], [], [], [], []
        for row, (n, lo, hi) in enumerate(zip(ns, bounds, bounds[1:])):
            mean = sum(moments[lo:hi])
            ipl.append(mean)
            variance.append(sum(squares[lo:hi]) - mean * mean)
            mipl.append(max(positive[lo:hi], default=-1))
            try:
                samples.append(float(sum(counts[lo:hi])))
            except OverflowError:  # past the float range
                samples.append(math.inf)
            total = math.fsum(shares[lo:hi])
            if row in entry_faults:
                faults.append((row, entry_faults[row]))
            elif mipl[-1] < 0:
                faults.append((row, f"distribution at n={n} has no paths"))
            elif True in strays[lo:hi]:
                k = lengths[strays.index(True, lo, hi)]
                message = f"normalized value at n={n}, k={k} is positive where its count is 0"
                faults.append((row, message))
            elif abs(total - 1.0) > 1e-9:
                faults.append((row, f"normalized values at n={n} sum to {total!r}, not 1"))
        return cls(ns, ipl, variance, mipl, samples, np.array(bounds), lengths, normalized), faults

    @classmethod
    def from_dists(cls, dists: Iterable[PathLengthDistribution]) -> PathLengthTable:
        """The table of ``dists``, one row each, as :meth:`from_runs` builds it from their
        rows (each length of ``normalized`` with its count), not from their ``ipl``
        and ``mipl``; raises ValueError for the first with a fault."""
        dists = list(dists)
        return _raise_first(cls.from_runs(
            [dist.n for dist in dists],
            list(accumulate((len(dist.normalized) for dist in dists), initial=0)),
            np.array([k for dist in dists for k in dist.normalized], dtype=np.int64),
            [dist.counts[k] for dist in dists for k in dist.normalized],
            np.array([w for dist in dists for w in dist.normalized.values()], dtype=float),
        ))


def _entry_faults(
    ns: list[int], bounds: list[int], keys: np.ndarray, name: str, counts: list,
    values: np.ndarray | None = None,
) -> dict[int, str]:
    """The fault of each run ``i`` of the rows, ``bounds[i]:bounds[i + 1]``, with an
    entry that no prefix of ``ns[i]`` nodes can have, by run: its first key ``name``
    outside 0..ns[i]-1, negative count or value outside [0, 1]."""
    outside = ((keys < 0) | (keys >= np.repeat(ns, np.diff(bounds)))).tolist()
    negative = [c < 0 for c in counts]
    stray = np.logical_or(outside, negative)
    if values is not None:
        stray |= ~((0.0 <= values) & (values <= 1.0))
    stray = stray.tolist()
    faults = {}
    for row, (n, lo, hi) in enumerate(zip(ns, bounds, bounds[1:])):
        if True in stray[lo:hi]:
            j = stray.index(True, lo, hi)
            key = f"{name}={keys[j]}"
            if outside[j]:
                faults[row] = f"{key} at n={n} lies outside 0..{n - 1}"
            elif negative[j]:
                faults[row] = f"count {counts[j]} at n={n}, {key} is negative"
            else:
                faults[row] = f"normalized value {values[j]} at n={n}, {key} lies outside [0, 1]"
    return faults


def _raise_first(made: tuple[tuple, list[tuple[int, str]]]) -> tuple:
    """The table of a ``from_runs`` result, or ValueError with its first fault."""
    table, faults = made
    if faults:
        raise ValueError(faults[0][1])
    return table


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
    raises, so it can be used on graphs of unknown provenance.  Where
    ``indptr`` is not N + 1 offsets rising from 0 to ``len(indices)``, its
    faults are reported in place of the edges'.
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

    indptr, cited = graph.indptr, graph.indices
    csr = []
    if len(indptr) != n + 1:
        csr.append(f"indptr has {len(indptr)} entries for {n} nodes")
    if len(indptr) and indptr[0] != 0:
        csr.append(f"indptr starts at {indptr[0]}, not 0")
    falls = np.flatnonzero(np.diff(indptr) < 0)
    if len(falls):
        csr.append(f"indptr decreases at entry {falls[0] + 1}")
    if len(indptr) and indptr[-1] != len(cited):
        csr.append(f"indptr ends at {indptr[-1]} for {len(cited)} indices")
    if csr:
        return violations + csr
    citing = np.repeat(np.arange(n), graph.backlink_counts)
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

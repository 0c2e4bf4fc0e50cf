"""Cumulativeness indicators on knowledge-graph prefixes.

The transversal indicator (internal dependence, ``id``) is a simple edge
count.  The longitudinal indicators (internal path length ``ipl``, maximum
path length ``mipl``) require the full distribution of path lengths, where a
path starts at an invention without internal backward links and follows
links forward in time.  One engine counts them level by level: the paths of
length k ending at a node are the sum, over the nodes it cites, of their
paths of length k-1.  Its results are exact integers (mode "exact", the
default up to :data:`EXACT_MODE_LIMIT` nodes) or floats (mode "float").
Both modes climb one arithmetic ladder: each level is summed in plain
float64 first, and only a level whose total reaches a bound is summed again,
from the previous level, on the next rung, where every later level stays.
Exact mode's bound is 2^53, below which float64 sums of non-negative
integers are exact, and its next rung is Python ints.  Float mode's bound is
2^1000, well inside the float range, and its next rung is natural logs,
where each node's cited counts are summed by a log-sum-exp shifted by their
own maximum, so a count's relative error stays near machine precision per
level however widely one level's counts spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Iterator, Literal, Sequence

import numpy as np

from .core import (
    BacklinkDistribution,
    CumulativenessSeries,
    KnowledgeGraph,
    PathLengthDistribution,
    SeriesPoint,
)

__all__ = [
    "EXACT_MODE_LIMIT",
    "NodePathVector",
    "internal_dependence",
    "external_dependence",
    "initial_fraction",
    "backlink_distribution",
    "path_length_distribution",
    "node_path_vectors",
    "cumulativeness_series",
    "measure_checkpoints",
    "Checkpoint",
]

# Above this node count, mode="auto" switches to float mode: total path
# counts grow like r*(1+q)^n/q and can overflow even arbitrary-precision
# printing budgets.
EXACT_MODE_LIMIT = 50_000

Mode = Literal["auto", "exact", "float"]


def _check_prefix(graph: KnowledgeGraph, n: int) -> None:
    if not 1 <= n <= graph.n_nodes:
        raise ValueError(f"prefix size {n} out of range 1..{graph.n_nodes}")


def _resolve_mode(mode: Mode, n: int) -> str:
    if mode == "auto":
        return "exact" if n <= EXACT_MODE_LIMIT else "float"
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def internal_dependence(graph: KnowledgeGraph, n: int) -> float:
    """Average number of backward internal links per node over the first n nodes."""
    _check_prefix(graph, n)
    return int(graph.indptr[n]) / n


def external_dependence(graph: KnowledgeGraph, n: int) -> float:
    """Average number of backward external links per node over the first n nodes."""
    _check_prefix(graph, n)
    return int(graph.external_backlink_counts[:n].sum()) / n


def initial_fraction(graph: KnowledgeGraph, n: int) -> float:
    """Fraction of the first n nodes with no internal backward link.

    A node's backward links always point to earlier nodes, so restricting to
    a prefix never re-classifies a node as initial.
    """
    _check_prefix(graph, n)
    return int(np.count_nonzero(graph.backlink_counts[:n] == 0)) / n


def _histogram(counts: np.ndarray) -> dict[int, int]:
    """``{m: counts[m]}`` over the m with a positive count."""
    return {m: c for m, c in enumerate(counts.tolist()) if c}


def backlink_distribution(graph: KnowledgeGraph, n: int) -> BacklinkDistribution:
    """Histogram of backward internal links per node over the first n nodes."""
    _check_prefix(graph, n)
    return BacklinkDistribution(n=n, counts=_histogram(np.bincount(graph.backlink_counts[:n])))


class NodePathVector:
    """Number of paths of each length ending at one node (exact integers).

    Stored sparsely as a contiguous block of counts starting at ``offset``:
    an initial node holds ``{0: 1}``; any other node holds, at length ``k``,
    the sum over its cited nodes of their counts at ``k - 1``.
    """

    __slots__ = ("offset", "counts")

    def __init__(self, offset: int, counts: list[int]):
        self.offset = offset
        self.counts = counts

    def as_dict(self) -> dict[int, int]:
        return {self.offset + i: c for i, c in enumerate(self.counts) if c}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodePathVector({self.as_dict()})"


def _log_segment_sum(logs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Log of the summed counts of ``logs[bounds[i]:bounds[i + 1]]`` for each i.

    ``bounds`` must rise strictly.  Each segment is shifted by its own
    maximum, clipped at 0 (the least log of a positive count), so no segment
    over- or underflows however widely the level's counts spread; an
    all-zero segment sums to ``-inf``.
    """
    starts = bounds[:-1]
    shift = np.maximum.reduceat(logs, starts)
    np.maximum(shift, 0.0, out=shift)
    terms = np.exp(logs - shift.repeat(bounds[1:] - starts))
    with np.errstate(divide="ignore"):
        return np.log(np.add.reduceat(terms, starts)) + shift


def _log_prefix_totals(logs: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Log of the summed counts of ``logs[:e]`` for each e of ``ends`` (ascending)."""
    bounds = np.concatenate(([0], ends))
    filled = bounds[1:] > bounds[:-1]
    sums = np.full(len(ends), -math.inf)
    sums[filled] = _log_segment_sum(logs, bounds[np.concatenate(([True], filled))])
    return np.logaddexp.accumulate(sums)


# A level leaves plain float64 once its total reaches the bound of its mode:
# exact mode for Python ints, as float64 sums of non-negative integers are
# exact below 2^53; float mode for natural logs, with headroom under the
# float range.
_INT_BOUND = 2.0**53
_LOG_BOUND = 2.0**1000


def _path_levels(
    graph: KnowledgeGraph, n: int, mode: str
) -> Iterator[tuple[np.ndarray, np.ndarray, bool]]:
    """Yield ``(nodes, counts, escalated)`` per path length k = 0, 1, ... over the first n nodes.

    ``nodes`` (ascending) are the prefix nodes where a path of length k or
    more ends and ``counts`` their numbers of length-k paths.  Level k is one
    segmented sum of level k-1 over the edges whose cited node is still on
    level k-1; the generator stops after the longest path.  Levels are
    summed in float64 until one's total reaches the bound of ``mode``; that
    level is summed again from the previous one, in Python ints (exact
    mode) or natural logs (float mode), and so is every level after it,
    which ``escalated`` marks.
    """
    exact = mode == "exact"
    bound = _INT_BOUND if exact else _LOG_BOUND
    degree = np.diff(graph.indptr[: n + 1])
    cited = graph.indices[: graph.indptr[n]]
    citing = np.repeat(np.arange(n), degree)
    nodes = np.arange(n)
    counts = (degree == 0).astype(np.float64)
    value = counts.copy()  # each node's count on the last level it is on
    last = np.zeros(n, np.intp)  # the last level each node is on, so far
    escalated = False
    for k in count():
        yield nodes, counts, escalated
        value[nodes] = counts
        last[nodes] = k
        keep = last[cited] == k
        citing, cited = citing[keep], cited[keep]
        if not citing.size:
            return
        # The edge positions where a citing node's run begins, then the end.
        bounds = np.flatnonzero(np.concatenate(([True], citing[1:] != citing[:-1], [True])))
        nodes = citing[bounds[:-1]]
        if not escalated:
            counts = np.add.reduceat(value[cited], bounds[:-1])
            if counts.sum() < bound:
                continue
            escalated = True
            if exact:
                value = value.astype(np.int64).astype(object)
            else:
                with np.errstate(divide="ignore"):
                    value = np.log(value)
        if exact:
            counts = np.add.reduceat(value[cited], bounds[:-1])
        else:
            counts = _log_segment_sum(value[cited], bounds)


def _count_distribution(n: int, totals: list, logs: bool) -> PathLengthDistribution:
    total = sum(totals)
    return PathLengthDistribution(
        n=n,
        counts=dict(enumerate(totals)),
        normalized={k: c / total for k, c in enumerate(totals)},
        ipl=sum(k * c for k, c in enumerate(totals)) / total,
        mipl=len(totals) - 1,
        log_counts={k: math.log(c) for k, c in enumerate(totals)} if logs else None,
    )


def _path_distributions(
    graph: KnowledgeGraph, sizes: Sequence[int], mode: str
) -> list[PathLengthDistribution]:
    """Path-length distribution of each prefix in ``sizes`` (ascending)."""
    exact = mode == "exact"
    targets = np.asarray(sizes)
    columns = []  # per level: its total over each prefix size
    firsts = []  # per level: its lowest node, which never falls from level to level
    plain = 0  # the number of levels summed in float64
    for nodes, counts, escalated in _path_levels(graph, sizes[-1], mode):
        ends = nodes.searchsorted(targets)
        if escalated and not exact:
            columns.append(_log_prefix_totals(counts, ends).tolist())
        else:
            column = np.add.accumulate(counts)[ends - 1]
            if not escalated:
                plain += 1
                if exact:  # to Python ints, before any sum across levels
                    column = column.astype(np.int64)
            columns.append(column.tolist())
        firsts.append(nodes[0])
    # A prefix reaches the levels whose lowest node lies inside it; the
    # columns of the levels it does not reach hold no total of its own.
    levels = np.searchsorted(firsts, targets).tolist()
    dists = []
    for n, row, m in zip(sizes, zip(*columns), levels):
        if exact or m <= plain:
            dists.append(_count_distribution(n, row[:m], logs=not exact))
        else:
            logs = np.concatenate((np.log(row[:plain]), row[plain:m]))
            dists.append(PathLengthDistribution.from_logs(n, logs))
    return dists


def path_length_distribution(
    graph: KnowledgeGraph, n: int, mode: Mode = "auto"
) -> PathLengthDistribution:
    """Exact distribution of internal path lengths over the first n nodes.

    Counts every sequence i0..ik of prefix nodes where i0 has no internal
    backward link and each node cites its predecessor; sub-paths that
    themselves start at an initial node are counted in their own right.
    """
    _check_prefix(graph, n)
    return _path_distributions(graph, [n], _resolve_mode(mode, n))[0]


def node_path_vectors(graph: KnowledgeGraph, n: int) -> list[NodePathVector]:
    """Per-node path-length vectors for the first n nodes (exact integers)."""
    _check_prefix(graph, n)
    rows: list[list[int]] = [[] for _ in range(n)]
    for nodes, counts, escalated in _path_levels(graph, n, "exact"):
        if not escalated:
            counts = counts.astype(np.int64)
        for i, c in zip(nodes.tolist(), counts.tolist()):
            rows[i].append(c)
    # A node is on every level up to its longest path; its vector starts at
    # its shortest one.
    offsets = [next(k for k, c in enumerate(row) if c) for row in rows]
    return [NodePathVector(k, row[k:]) for k, row in zip(offsets, rows)]


@dataclass(frozen=True)
class Checkpoint:
    """All measurements of one prefix, produced by one sweep over the graph."""

    n: int
    id: float
    ed: float
    path_dist: PathLengthDistribution
    backlink_dist: BacklinkDistribution

    @property
    def point(self) -> SeriesPoint:
        return SeriesPoint(
            n=self.n,
            id=self.id,
            ipl=self.path_dist.ipl,
            mipl=self.path_dist.mipl,
            ed=self.ed,
        )


def iter_checkpoints(
    graph: KnowledgeGraph, stride: int, mode: Mode = "auto"
) -> Iterator[Checkpoint]:
    """Measure every indicator at n = stride, 2*stride, ..., N in one sweep.

    Equivalent to measuring each prefix on its own (bit-exact in integer
    mode): earlier nodes never gain backward links, so each prefix total is
    a running sum over the nodes below it.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if graph.n_nodes == 0:
        raise ValueError("cannot measure an empty graph")
    sizes = [*range(stride, graph.n_nodes, stride), graph.n_nodes]
    dists = _path_distributions(graph, sizes, _resolve_mode(mode, graph.n_nodes))
    links = graph.backlink_counts
    edge_totals = graph.indptr.tolist()
    external_totals = np.cumsum(graph.external_backlink_counts).tolist()
    histogram = np.zeros(int(links.max()) + 1, np.int64)
    for start, n, path_dist in zip([0, *sizes], sizes, dists):
        histogram += np.bincount(links[start:n], minlength=len(histogram))
        yield Checkpoint(
            n=n,
            id=edge_totals[n] / n,
            ed=external_totals[n - 1] / n,
            path_dist=path_dist,
            backlink_dist=BacklinkDistribution(n=n, counts=_histogram(histogram)),
        )


def measure_checkpoints(
    graph: KnowledgeGraph, stride: int, mode: Mode = "auto"
) -> list[Checkpoint]:
    """Materialized :func:`iter_checkpoints`."""
    return list(iter_checkpoints(graph, stride, mode))


def cumulativeness_series(
    graph: KnowledgeGraph, stride: int, mode: Mode = "auto"
) -> CumulativenessSeries:
    """Trajectory of (n, id, ipl, mipl, ed) at n = stride, 2*stride, ..., N."""
    return CumulativenessSeries(
        checkpoints=tuple(cp.point for cp in iter_checkpoints(graph, stride, mode))
    )

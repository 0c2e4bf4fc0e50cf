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
float64 until one's total reaches a bound.  Float mode's, 2^1000, leaves
headroom under the float range; past it, each node's cited counts are summed
in natural logs by a log-sum-exp shifted by their own maximum, so relative
error stays near machine precision per level.  Exact mode's, 2^53, is where
float64 sums of integers stop being exact; past it, each node's remaining
levels are packed into one Python int, all summed in one pass.
"""

from __future__ import annotations

import math
from itertools import count, islice
from typing import Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .core import (
    BacklinkDistribution,
    KnowledgeGraph,
    PathLengthDistribution,
    SeriesPoint,
)

__all__ = [
    "EXACT_MODE_LIMIT",
    "internal_dependence",
    "external_dependence",
    "initial_fraction",
    "backlink_distribution",
    "path_length_distribution",
    "cumulativeness_series",
    "measure_checkpoints",
    "resolve_mode",
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


def resolve_mode(mode: Mode, n: int) -> str:
    """The arithmetic ``mode`` runs in on an ``n``-node graph: 'exact' or 'float'."""
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
# exact mode for the packed tail, as float64 sums of non-negative integers
# are exact below 2^53; float mode for natural logs, with headroom under the
# float range.
_INT_BOUND = 2.0**53
_LOG_BOUND = 2.0**1000


def _path_levels(
    graph: KnowledgeGraph, n: int, mode: str
) -> Iterator[tuple[np.ndarray, np.ndarray | tuple, bool]]:
    """Yield ``(nodes, counts, escalated)`` per path length k = 0, 1, ... over the first n nodes.

    ``nodes`` (ascending) are the prefix nodes where a path of length k or
    more ends and ``counts`` their numbers of length-k paths.  Level k is one
    segmented sum of level k-1 over the edges whose cited node is still on
    level k-1; the generator stops after the longest path.  Levels are
    summed in float64 until one's total reaches the bound of ``mode``; float
    mode sums that level, from the previous one, and every later one in
    natural logs, which ``escalated`` marks.  Exact mode's last item is
    ``(nodes, (bounds, cited, value), True)``, for :func:`_packed_tail`.
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
                yield nodes, (bounds, cited, value), escalated
                return
            with np.errstate(divide="ignore"):
                value = np.log(value)
        counts = _log_segment_sum(value[cited], bounds)


def _packed_tail(
    nodes: np.ndarray, bounds: np.ndarray, cited: np.ndarray, value: np.ndarray, sizes: list
) -> list[list[int]]:
    """Each prefix's path totals of lengths k+1, k+2, ..., up to its longest.

    Node ``nodes[i]`` cites ``cited[bounds[i]:bounds[i + 1]]``, on level k,
    where ``value`` holds the length-k counts.  Node h's int is ``value[h] +
    (p << W)``: ``p``, the sum of the ints h cites, packs its counts of
    lengths k+1, ... W bits each.  The sum of each ``p`` is read at each
    prefix size.  W, in whole bytes, spans the number of paths longer than k
    (the same pass at W = 0), which bounds every field and sum, so no field
    carries into the next.  Each int is dropped after its last citing node.
    """
    last = np.arange(len(value))  # the last node citing each node, or the node itself
    targets = last.astype(object)[cited].tolist()  # one int object per node
    np.maximum.at(last, cited, np.repeat(nodes, np.diff(bounds)))
    order = np.argsort(last).tolist()
    ends = [0, *last[order].searchsorted(nodes, side="right").tolist()]

    def sums(width: int, steps_between: list[int]) -> list[int]:
        packed, running, totals = value.astype(np.int64).tolist(), 0, []
        steps = zip(nodes.tolist(), bounds.tolist(), bounds[1:].tolist(), ends, ends[1:])
        for length in steps_between:
            for h, start, end, first, stop in islice(steps, length):
                p = sum([packed[j] for j in targets[start + 1 : end]], packed[targets[start]])
                running += p
                packed[h] = (p << width) + packed[h] if packed[h] else p << width
                for j in order[first:stop]:
                    packed[j] = 0
            totals.append(running)
        return totals

    w = -(-sums(0, [len(nodes)])[0].bit_length() // 8)  # W, in bytes
    totals = sums(8 * w, np.diff(nodes.searchsorted(sizes), prepend=0).tolist())
    raws = [t.to_bytes(-(-t.bit_length() // (8 * w)) * w, "little") for t in totals]
    return [[int.from_bytes(r[i : i + w], "little") for i in range(0, len(r), w)] for r in raws]


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
    tails = [[]] * len(sizes)  # exact mode: each prefix's totals past those levels
    for nodes, counts, escalated in _path_levels(graph, sizes[-1], mode):
        if escalated and exact:
            tails = _packed_tail(nodes, *counts, sizes)
            break
        ends = nodes.searchsorted(targets)
        if escalated:
            columns.append(_log_prefix_totals(counts, ends).tolist())
        else:
            plain += 1
            column = np.add.accumulate(counts)[ends - 1]
            if exact:  # to Python ints, before any sum across levels
                column = column.astype(np.int64)
            columns.append(column.tolist())
        firsts.append(nodes[0])
    # A prefix reaches the levels whose lowest node lies inside it; the
    # columns of the levels it does not reach hold no total of its own.
    levels = np.searchsorted(firsts, targets).tolist()
    dists = []
    for n, row, m, tail in zip(sizes, zip(*columns), levels, tails):
        if exact or m <= plain:
            dists.append(_count_distribution(n, [*row[:m], *tail], logs=not exact))
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
    return _path_distributions(graph, [n], resolve_mode(mode, n))[0]


class Checkpoint(NamedTuple):
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


def measure_checkpoints(
    graph: KnowledgeGraph, stride: int, mode: Mode = "auto"
) -> list[Checkpoint]:
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
    dists = _path_distributions(graph, sizes, resolve_mode(mode, graph.n_nodes))
    links = graph.backlink_counts
    edge_totals = graph.indptr.tolist()
    external_totals = np.cumsum(graph.external_backlink_counts).tolist()
    histogram = np.zeros(int(links.max()) + 1, np.int64)
    checkpoints = []
    for start, n, path_dist in zip([0, *sizes], sizes, dists):
        histogram += np.bincount(links[start:n], minlength=len(histogram))
        backlink_dist = BacklinkDistribution(n=n, counts=_histogram(histogram))
        checkpoints.append(
            Checkpoint(n, edge_totals[n] / n, external_totals[n - 1] / n, path_dist, backlink_dist)
        )
    return checkpoints


def cumulativeness_series(
    graph: KnowledgeGraph, stride: int, mode: Mode = "auto"
) -> tuple[SeriesPoint, ...]:
    """Trajectory of (n, id, ipl, mipl, ed) at n = stride, 2*stride, ..., N."""
    return tuple(cp.point for cp in measure_checkpoints(graph, stride, mode))
